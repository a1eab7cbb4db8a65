/**
 * @file
 * Scenario example: cheap memory expansion (§6.2.2).
 *
 * Can a cache tier run with only 20 % of its working set in fast local
 * DRAM and the rest on big, cheap CXL memory? This example sweeps the
 * local:CXL capacity ratio from all-local down to 1:8 for Cache1 under
 * both default Linux and TPP, printing the throughput and traffic at
 * each point — the crossover chart a capacity planner would want.
 *
 * Usage: cache_expansion [wss_pages] [--jobs N] [--seed S] [--csv PATH]
 */

#include <cstdio>

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace tpp;
    const bench::BenchOptions opt = bench::parseBenchArgs(argc, argv);

    ExperimentConfig cfg = bench::makeConfig(opt);
    cfg.workload = "cache1";

    const std::vector<const char *> ratios = {"2:1", "1:1", "1:4", "1:8"};
    const std::vector<const char *> policies = {"linux", "tpp"};

    // The all-local baseline first, then every ratio x policy point.
    std::vector<ExperimentConfig> cfgs;
    ExperimentConfig base = cfg;
    base.allLocal = true;
    base.policy = "linux";
    cfgs.push_back(base);
    for (const char *ratio : ratios) {
        for (const char *policy : policies) {
            ExperimentConfig run = cfg;
            run.localFraction = *parseRatioSpec(ratio);
            run.policy = policy;
            cfgs.push_back(run);
        }
    }
    const std::vector<ExperimentResult> results = bench::runSweep(opt, cfgs);
    const ExperimentResult &baseline = results[0];

    std::printf("Cache1 memory-expansion sweep (%llu-page working "
                "set)\n\n",
                (unsigned long long)cfg.wssPages);
    TextTable table({"local:cxl", "local share of capacity", "policy",
                     "tput vs all-local", "local traffic", "swap-outs"});

    for (std::size_t r = 0; r < ratios.size(); ++r) {
        for (std::size_t p = 0; p < policies.size(); ++p) {
            const std::size_t i = 1 + r * policies.size() + p;
            const ExperimentResult &res = results[i];
            table.addRow(
                {ratios[r], TextTable::pct(cfgs[i].localFraction, 0),
                 policies[p],
                 TextTable::pct(res.throughput / baseline.throughput),
                 TextTable::pct(res.localTrafficShare),
                 TextTable::count(res.vmstat.get(Vm::PswpOut))});
        }
    }
    table.print();
    std::printf("\nTPP holds near-all-local performance far deeper into "
                "the expansion régime than default Linux (§6.2.2).\n");
    bench::maybeWriteCsv(opt, results);
    return 0;
}
