/**
 * @file
 * Scenario example: characterising a workload with Chameleon (§3).
 *
 * Attaches the profiler to any of the four production workload models
 * on an all-local machine and prints the §3 analyses: per-interval
 * page temperature, the anon/file hotness split, usage-over-time and
 * the re-access CDF — the measurements that motivated TPP.
 *
 * Usage: chameleon_profile [workload] [wss_pages]
 */

#include <array>
#include <cstdio>

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace tpp;
    setLogVerbose(false);

    ExperimentConfig cfg;
    cfg.workload = argc > 1 ? argv[1] : "web";
    if (argc > 2)
        cfg.wssPages = bench::specValueOrDie(parseSpecU64(argv[2]));
    cfg.allLocal = true;
    cfg.policy = "linux";
    cfg.withChameleon = true;

    std::printf("Chameleon profile of '%s' (PEBS-style sampling, 1/%llu "
                "events, %u core groups)\n\n",
                cfg.workload.c_str(),
                (unsigned long long)cfg.chameleon.samplePeriod,
                cfg.chameleon.numCoreGroups);

    const ExperimentResult res = runExperiment(cfg);
    bench::requireSimulated({res});

    // Interval heat map.
    TextTable intervals({"interval", "resident", "touched", "hot frac",
                         "anon hot", "file hot"});
    for (std::size_t i = 0; i < res.chameleonIntervals.size(); ++i) {
        const auto &iv = res.chameleonIntervals[i];
        const auto frac = [](std::uint64_t part, std::uint64_t whole) {
            return whole ? static_cast<double>(part) /
                               static_cast<double>(whole)
                         : 0.0;
        };
        intervals.addRow(
            {TextTable::count(i), TextTable::count(iv.residentTotal),
             TextTable::count(iv.touchedTotal),
             TextTable::pct(frac(iv.touchedTotal, iv.residentTotal)),
             TextTable::pct(
                 frac(iv.touchedByType[0], iv.residentByType[0])),
             TextTable::pct(
                 frac(iv.touchedByType[1], iv.residentByType[1]))});
    }
    intervals.print();

    std::printf("\nmean hot fraction: %.1f%% overall, %.1f%% of anons, "
                "%.1f%% of files\n",
                100.0 * res.chameleonHotFraction,
                100.0 * res.chameleonHotFractionAnon,
                100.0 * res.chameleonHotFractionFile);

    // Re-access CDF from the recorded gap histograms.
    std::array<std::uint64_t, 64> gaps{};
    std::uint64_t total = 0;
    for (const auto &iv : res.chameleonIntervals) {
        for (std::size_t g = 1; g < iv.reaccessGap.size(); ++g) {
            gaps[g] += iv.reaccessGap[g];
            total += iv.reaccessGap[g];
        }
    }
    std::printf("\nre-access CDF (gap in intervals):\n");
    std::uint64_t acc = 0;
    for (std::size_t g = 1; g <= 10 && total; ++g) {
        acc += gaps[g];
        std::printf("  <= %2zu: %5.1f%%\n", g,
                    100.0 * static_cast<double>(acc) /
                        static_cast<double>(total));
    }
    return 0;
}
