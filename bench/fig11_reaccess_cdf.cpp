/**
 * @file
 * Figure 11: cold-page re-access time CDF.
 *
 * All-local Chameleon runs reporting the fraction of re-accessed pages
 * whose cold gap was at most k intervals (one interval stands in for
 * the paper's two minutes).
 *
 * Paper shape: Web and the Cache tiers re-access ~80 % of cold pages
 * within ten minutes (5 intervals); Data Warehouse pages are mostly
 * newly allocated, so its re-access fraction stays low.
 */

#include <array>

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace tpp;
    const bench::BenchOptions opt = bench::parseBenchArgs(argc, argv);

    bench::banner("Figure 11", "re-access gap CDF (all-local, Chameleon)");

    TextTable table({"workload", "<=1 iv", "<=2 iv", "<=5 iv", "<=10 iv",
                     "re-accesses/interval"});

    std::vector<ExperimentConfig> cfgs;
    for (const char *wl : {"web", "cache1", "cache2", "dwh"}) {
        ExperimentConfig cfg = bench::makeConfig(opt);
        cfg.workload = wl;
        cfg.allLocal = true;
        cfg.policy = "linux";
        cfg.withChameleon = true;
        bench::requireValid(cfg);
        cfgs.push_back(cfg);
    }
    const std::vector<ExperimentResult> results = bench::runSweep(opt, cfgs);

    for (std::size_t w = 0; w < cfgs.size(); ++w) {
        const ExperimentResult &res = results[w];

        std::uint64_t total = 0;
        std::array<std::uint64_t, 64> gaps{};
        for (const auto &iv : res.chameleonIntervals) {
            for (std::size_t g = 1; g < iv.reaccessGap.size(); ++g) {
                gaps[g] += iv.reaccessGap[g];
                total += iv.reaccessGap[g];
            }
        }
        auto cdf = [&](std::size_t max_gap) {
            if (total == 0)
                return 0.0;
            std::uint64_t within = 0;
            for (std::size_t g = 1; g <= max_gap && g < gaps.size(); ++g)
                within += gaps[g];
            return static_cast<double>(within) /
                   static_cast<double>(total);
        };
        const double per_interval =
            res.chameleonIntervals.empty()
                ? 0.0
                : static_cast<double>(total) /
                      static_cast<double>(res.chameleonIntervals.size());
        table.addRow({cfgs[w].workload, TextTable::pct(cdf(1)),
                      TextTable::pct(cdf(2)), TextTable::pct(cdf(5)),
                      TextTable::pct(cdf(10)),
                      TextTable::num(per_interval, 0)});
    }
    table.print();
    std::printf("\npaper: Web/Cache ~80%% re-accessed within 10 min "
                "(5 intervals); DWH mostly new allocations\n");
    bench::maybeWriteCsv(opt, results);
    bench::maybeWriteTrace(opt, results);
    return 0;
}
