/**
 * @file
 * Figure 16: large memory expansion through CXL (local:CXL = 1:4).
 *
 * The stress configuration where 80 % of capacity is CXL-attached and
 * hot pages are forced to spill; Cache1 and Cache2 under default Linux
 * and TPP, versus the all-local machine.
 *
 * Paper shape: Cache1 — Linux traps 85 % of anons remotely, ~75 % of
 * accesses go to CXL, throughput -14 %; TPP promotes the hot anons back
 * and reaches ~99.5 % of all-local with ~85 % of reads served locally.
 * Cache2 — Linux -18 %, TPP -5 % with ~41 % of reads from CXL.
 */

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace tpp;
    const bench::BenchOptions opt = bench::parseBenchArgs(argc, argv);

    bench::banner("Figure 16",
                  "memory expansion configuration (local:CXL = 1:4)");

    TextTable table({"workload", "policy", "local traffic", "cxl traffic",
                     "tput vs all-local", "anon on local", "file on local"});

    const std::vector<const char *> workloads = {"cache1", "cache2"};
    const std::vector<const char *> policies = {"linux", "tpp"};

    std::vector<ExperimentConfig> cfgs;
    for (const char *wl : workloads) {
        ExperimentConfig base = bench::makeConfig(opt);
        base.workload = wl;
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
    for (std::size_t w = 0; w < workloads.size(); ++w) {
        const ExperimentResult &baseline = results[w * stride];
        for (std::size_t p = 0; p < policies.size(); ++p) {
            const ExperimentResult &res = results[w * stride + 1 + p];
            table.addRow({workloads[w], policies[p],
                          TextTable::pct(res.localTrafficShare),
                          TextTable::pct(res.cxlTrafficShare),
                          TextTable::pct(res.throughput /
                                         baseline.throughput),
                          TextTable::pct(res.anonLocalResidency),
                          TextTable::pct(res.fileLocalResidency)});
        }
    }
    table.print();
    std::printf("\npaper: Cache1 linux 25%%/75%% @86%%, tpp 85%%/15%% "
                "@99.5%%; Cache2 linux 20%%/80%% @82%%, tpp 59%%/41%% "
                "@95%%\n");
    bench::maybeWriteCsv(opt, results);
    bench::maybeWriteTrace(opt, results);
    return 0;
}
