/**
 * @file
 * Figure 7: workloads keep a large share of their memory cold.
 *
 * Reproduces the characterisation run: each production workload on an
 * all-local machine with Chameleon attached, reporting total allocated
 * memory and the fraction touched per two-minute-equivalent interval.
 *
 * Paper shape: Web uses ~97 % of capacity but touches only ~22 % per
 * interval; Cache1/Cache2 use 95-98 % and touch 30-40 %; Data Warehouse
 * uses ~100 % and touches ~20-30 %.
 */

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace tpp;
    const bench::BenchOptions opt = bench::parseBenchArgs(argc, argv);

    bench::banner("Figure 7", "page temperature: allocated vs touched per "
                              "interval (all-local, Chameleon)");

    TextTable table({"workload", "allocated/capacity", "touched/allocated",
                     "touched (mean pages)", "intervals"});

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
        const std::uint64_t capacity = static_cast<std::uint64_t>(
            static_cast<double>(opt.wssPages) * cfgs[w].capacityHeadroom);

        // Average over the post-warm-up intervals (skip the first few
        // while the workload populates).
        double resident = 0.0;
        double hot = 0.0;
        std::size_t n = 0;
        for (std::size_t i = res.chameleonIntervals.size() / 2;
             i < res.chameleonIntervals.size(); ++i) {
            const auto &iv = res.chameleonIntervals[i];
            resident += static_cast<double>(iv.residentTotal);
            hot += static_cast<double>(iv.touchedTotal);
            n++;
        }
        if (n) {
            resident /= static_cast<double>(n);
            hot /= static_cast<double>(n);
        }
        table.addRow({cfgs[w].workload,
                      TextTable::pct(resident /
                                     static_cast<double>(capacity)),
                      TextTable::pct(resident > 0 ? hot / resident : 0.0),
                      TextTable::num(hot, 0),
                      TextTable::count(res.chameleonIntervals.size())});
    }
    table.print();
    std::printf("\npaper: Web 97%%/22%%, Cache1 95%%/30%%, Cache2 98%%/40%%, "
                "DWH ~100%%/20-30%%\n");
    bench::maybeWriteCsv(opt, results);
    bench::maybeWriteTrace(opt, results);
    return 0;
}
