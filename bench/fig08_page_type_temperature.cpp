/**
 * @file
 * Figure 8: anon pages run hotter than file pages.
 *
 * Same characterisation run as Figure 7, split by page type: the
 * fraction of resident anon vs file pages touched per interval.
 *
 * Paper shape: Web 35 % anon vs 14 % file; Cache1 40 % vs 25 %;
 * Cache2 43 % vs 45 % (the one workload whose files are as hot as its
 * anons); DWH: almost all hot pages are anon, files nearly all cold.
 */

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace tpp;
    const bench::BenchOptions opt = bench::parseBenchArgs(argc, argv);

    bench::banner("Figure 8",
                  "hot fraction by page type (all-local, Chameleon)");

    TextTable table({"workload", "anon hot/resident", "file hot/resident",
                     "anon share of hot"});

    std::vector<ExperimentConfig> cfgs;
    for (const char *wl : {"web", "cache1", "cache2", "dwh"}) {
        ExperimentConfig cfg = bench::makeConfig(opt);
        cfg.workload = wl;
        cfg.allLocal = true;
        cfg.policy = "linux";
        cfg.withChameleon = true;
        // The simulator compresses behavioural time ~120x, so one
        // interval carries ~1/100 of the accesses a production 2-minute
        // window would; sample proportionally denser than the paper's
        // 1-in-200 so per-interval sample counts stay comparable.
        cfg.chameleon.samplePeriod = 10;
        cfg.chameleon.dutyCycle = false;
        bench::requireValid(cfg);
        cfgs.push_back(cfg);
    }
    const std::vector<ExperimentResult> results = bench::runSweep(opt, cfgs);

    for (std::size_t w = 0; w < cfgs.size(); ++w) {
        const ExperimentResult &res = results[w];

        double anon_hot = 0.0, anon_res = 0.0;
        double file_hot = 0.0, file_res = 0.0;
        for (std::size_t i = res.chameleonIntervals.size() / 2;
             i < res.chameleonIntervals.size(); ++i) {
            const auto &iv = res.chameleonIntervals[i];
            anon_hot += static_cast<double>(iv.touchedByType[0]);
            file_hot += static_cast<double>(iv.touchedByType[1]);
            anon_res += static_cast<double>(iv.residentByType[0]);
            file_res += static_cast<double>(iv.residentByType[1]);
        }
        const double hot_total = anon_hot + file_hot;
        table.addRow(
            {cfgs[w].workload,
             TextTable::pct(anon_res > 0 ? anon_hot / anon_res : 0.0),
             TextTable::pct(file_res > 0 ? file_hot / file_res : 0.0),
             TextTable::pct(hot_total > 0 ? anon_hot / hot_total : 0.0)});
    }
    table.print();
    std::printf("\npaper: Web 35%%/14%%, Cache1 40%%/25%%, Cache2 43%%/45%%, "
                "DWH anon-dominated\n");
    bench::maybeWriteCsv(opt, results);
    bench::maybeWriteTrace(opt, results);
    return 0;
}
