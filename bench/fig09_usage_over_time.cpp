/**
 * @file
 * Figure 9: anon/file usage over time.
 *
 * All-local runs of each workload, printing the resident anon and file
 * shares sampled once per interval.
 *
 * Paper shape: Web starts file-heavy (binary/bytecode preloading) and
 * anon grows over time while file caches shrink; Cache1/Cache2 hold a
 * steady ~70-82 % file share; DWH holds steady ~85 % anon.
 */

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace tpp;
    const bench::BenchOptions opt = bench::parseBenchArgs(argc, argv);

    bench::banner("Figure 9",
                  "anon/file resident shares over time (all-local)");

    std::vector<ExperimentConfig> cfgs;
    for (const char *wl : {"web", "cache1", "cache2", "dwh"}) {
        ExperimentConfig cfg = bench::makeConfig(opt);
        cfg.workload = wl;
        cfg.allLocal = true;
        cfg.policy = "linux";
        // This figure is built on the TimeSeriesSampler: the curves
        // below come from its per-node LRU snapshots, at the driver's
        // sample cadence unless --sample-ms overrides it.
        cfg.sampleSeries = true;
        cfgs.push_back(cfg);
    }
    const std::vector<ExperimentResult> results = bench::runSweep(opt, cfgs);

    for (std::size_t w = 0; w < cfgs.size(); ++w) {
        const ExperimentResult &res = results[w];

        std::printf("-- %s --\n", cfgs[w].workload.c_str());
        TextTable table({"t(s)", "anon share", "file share",
                         "resident pages"});
        for (std::size_t i = 0; i < res.series.size(); i += 10) {
            const TimeSeriesPoint &s = res.series[i];
            const std::uint64_t anon = s.anonResident();
            const std::uint64_t file = s.fileResident();
            const double total = static_cast<double>(anon + file);
            table.addRow(
                {TextTable::num(static_cast<double>(s.tick) / 1e9, 1),
                 TextTable::pct(total > 0 ? anon / total : 0.0),
                 TextTable::pct(total > 0 ? file / total : 0.0),
                 TextTable::count(anon + file)});
        }
        table.print();
        std::printf("\n");
    }
    std::printf("paper: Web file-heavy then anon grows; Cache ~75-80%% file "
                "steady; DWH ~85%% anon steady\n");
    bench::maybeWriteCsv(opt, results);
    bench::maybeWriteTrace(opt, results);
    return 0;
}
