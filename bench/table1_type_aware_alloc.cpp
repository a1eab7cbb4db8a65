/**
 * @file
 * Table 1: page-type-aware allocation (§5.4, §6.3).
 *
 * TPP with the cache-to-CXL allocation preference enabled: file and
 * tmpfs pages are initially placed on the CXL node and only promoted if
 * they prove hot, leaving the local node to anons.
 *
 * Paper rows: Web 2:1 -> 97 % local traffic @ 99.5 %; Cache1 1:4 ->
 * 85 % local @ 99.8 %; Cache2 1:4 -> 72 % local @ 98.5 %.
 */

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace tpp;
    const bench::BenchOptions opt = bench::parseBenchArgs(argc, argv);

    bench::banner("Table 1", "page-type-aware allocation (TPP + "
                             "cache-to-CXL preference)");

    struct Case {
        const char *workload;
        const char *ratio;
    };
    const std::vector<Case> cases = {{"web", "2:1"}, {"cache1", "1:4"},
                                     {"cache2", "1:4"}};

    TextTable table({"application", "config", "local traffic",
                     "cxl traffic", "perf w.r.t. all-local"});

    // Per case: the all-local baseline then the type-aware TPP run.
    std::vector<ExperimentConfig> cfgs;
    for (const Case &c : cases) {
        ExperimentConfig base = bench::makeConfig(opt);
        base.workload = c.workload;
        base.allLocal = true;
        // The baseline is the canned all-local box even when --topology
        // reshapes the comparison run.
        base.topology.clear();
        base.policy = "linux";
        cfgs.push_back(base);

        ExperimentConfig cfg = base;
        cfg.allLocal = false;
        cfg.topology = opt.topologySpec;
        cfg.localFraction = *parseRatioSpec(c.ratio);
        cfg.policy = "tpp";
        cfg.tpp.typeAwareAllocation = true;
        cfgs.push_back(cfg);
    }
    const std::vector<ExperimentResult> results = bench::runSweep(opt, cfgs);

    for (std::size_t k = 0; k < cases.size(); ++k) {
        const ExperimentResult &baseline = results[k * 2];
        const ExperimentResult &res = results[k * 2 + 1];
        table.addRow({cases[k].workload, cases[k].ratio,
                      TextTable::pct(res.localTrafficShare),
                      TextTable::pct(res.cxlTrafficShare),
                      TextTable::pct(res.throughput /
                                     baseline.throughput)});
    }
    table.print();
    std::printf("\npaper: Web 2:1 97%%/3%% @99.5%%; Cache1 1:4 85%%/15%% "
                "@99.8%%; Cache2 1:4 72%%/28%% @98.5%%\n");
    bench::maybeWriteCsv(opt, results);
    bench::maybeWriteTrace(opt, results);
    return 0;
}
