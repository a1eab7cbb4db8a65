/**
 * @file
 * Extension bench (beyond the paper's figures): the full policy zoo —
 * default Linux, NUMA Balancing, AutoTiering, DAMON-based proactive
 * demotion, and TPP — on the stress case (Cache1, 1:4), plus a YCSB-B
 * key-value shape as an out-of-sample workload.
 *
 * Expectation: TPP and AutoTiering lead (demotion + promotion);
 * damon-reclaim lands near plain Linux — its migration-based demotion
 * avoids paging, but with no promotion path a proactively demoted page
 * that re-heats is stuck remote; NUMA Balancing trails everything
 * (useless local sampling, gated promotions, displacement paging).
 */

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace tpp;
    const bench::BenchOptions opt = bench::parseBenchArgs(argc, argv);

    bench::banner("Policy zoo (extension)",
                  "all five policies on the 1:4 stress configuration");

    const std::vector<const char *> policies = {
        "linux", "numa-balancing", "autotiering", "damon-reclaim", "tpp"};
    struct Zoo {
        const char *title;
        const char *workload;
    };
    const std::vector<Zoo> zoos = {
        {"Cache1 (paper workload)", "cache1"},
        {"YCSB-B (out-of-sample key-value mix)", "ycsb-b"},
    };

    // Per zoo: the all-local baseline followed by each policy run.
    std::vector<ExperimentConfig> cfgs;
    for (const Zoo &zoo : zoos) {
        ExperimentConfig base = bench::makeConfig(opt);
        base.workload = zoo.workload;
        base.allLocal = true;
        // The baseline is the canned all-local box even when --topology
        // reshapes the comparison runs.
        base.topology.clear();
        base.policy = "linux";
        cfgs.push_back(base);
        for (const char *policy : policies) {
            ExperimentConfig cfg = base;
            cfg.allLocal = false;
            cfg.topology = opt.topologySpec;
            cfg.localFraction = *parseRatioSpec("1:4");
            cfg.policy = policy;
            cfgs.push_back(cfg);
        }
    }
    const std::vector<ExperimentResult> results = bench::runSweep(opt, cfgs);

    const std::size_t stride = 1 + policies.size();
    for (std::size_t z = 0; z < zoos.size(); ++z) {
        std::printf("-- %s --\n", zoos[z].title);
        const ExperimentResult &baseline = results[z * stride];
        TextTable table({"policy", "tput vs all-local", "local traffic",
                         "swap-outs", "demotions", "promotions"});
        for (std::size_t p = 0; p < policies.size(); ++p) {
            const ExperimentResult &res = results[z * stride + 1 + p];
            table.addRow(
                {policies[p],
                 TextTable::pct(res.throughput / baseline.throughput),
                 TextTable::pct(res.localTrafficShare),
                 TextTable::count(res.vmstat.get(Vm::PswpOut)),
                 TextTable::count(res.vmstat.get(Vm::PgDemoteAnon) +
                                  res.vmstat.get(Vm::PgDemoteFile)),
                 TextTable::count(res.vmstat.get(Vm::PgPromoteSuccess))});
        }
        table.print();
        std::printf("\n");
    }
    bench::maybeWriteCsv(opt, results);
    bench::maybeWriteTrace(opt, results);
    return 0;
}
