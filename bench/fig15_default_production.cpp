/**
 * @file
 * Figure 15: TPP vs default Linux on the production 2:1 configuration.
 *
 * For each workload: traffic served from local vs CXL node and
 * throughput relative to the all-from-local machine, under the default
 * Linux kernel and under TPP.
 *
 * Paper shape (2:1): Web — Linux serves only ~22 % locally and loses
 * 16.5 %, TPP serves ~90 % locally at 99.5 % of all-local; Cache1 —
 * Linux ~-3 %, TPP 99.9 %; Cache2 — Linux -2 %, TPP 99.6 %; DWH — both
 * within ~1 %.
 */

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace tpp;
    const bench::BenchOptions opt = bench::parseBenchArgs(argc, argv);

    bench::banner("Figure 15",
                  "default production environment (local:CXL = 2:1)");

    TextTable table({"workload", "policy", "local traffic", "cxl traffic",
                     "tput vs all-local", "anon on local", "file on local"});

    const std::vector<const char *> workloads = {"web", "cache1", "cache2",
                                                 "dwh"};
    const std::vector<const char *> policies = {"linux", "tpp"};

    // Per workload: the all-local baseline followed by each policy run.
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
            cfg.localFraction = *parseRatioSpec("2:1");
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
    std::printf("\npaper: Web linux 22%%/78%% @83.5%%, tpp 90%%/10%% @99.5%%;"
                " Cache1 linux ~97%%, tpp 99.9%%; Cache2 linux 78%% local"
                " @98%%, tpp 91%% @99.6%%; DWH both ~99%%+\n");
    bench::maybeWriteCsv(opt, results);
    bench::maybeWriteTrace(opt, results);
    return 0;
}
