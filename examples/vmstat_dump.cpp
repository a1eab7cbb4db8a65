/**
 * @file
 * Diagnostic example: run one (workload, policy, ratio) combination and
 * dump everything — headline metrics, residency split, the /proc/vmstat
 * counter set, and the interval time series. Handy for understanding
 * what a policy actually did during a run.
 *
 * Usage: vmstat_dump [workload] [policy] [ratio] [wss_pages]
 *   workload: web | cache1 | cache2 | dwh       (default web)
 *   policy:   linux | numa-balancing | autotiering | tpp | all-local
 *   ratio:    local:cxl capacity ratio, e.g. 2:1 or 1:4
 *
 * A malformed ratio or a config the harness rejects prints the
 * diagnostic and exits 2.
 */

#include <cstdio>
#include <string>

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace tpp;

    setLogVerbose(false);

    ExperimentConfig cfg;
    cfg.workload = argc > 1 ? argv[1] : "web";
    std::string policy = argc > 2 ? argv[2] : "tpp";
    if (policy == "all-local") {
        cfg.allLocal = true;
        cfg.policy = "linux";
    } else {
        cfg.policy = policy;
    }
    cfg.localFraction =
        bench::specValueOrDie(parseRatioSpec(argc > 3 ? argv[3] : "2:1"));
    if (argc > 4)
        cfg.wssPages = bench::specValueOrDie(parseSpecU64(argv[4]));

    const ExperimentResult res = runExperiment(cfg);
    bench::requireSimulated({res});

    std::printf("== %s / %s ==\n", res.workload.c_str(),
                res.policy.c_str());
    std::printf("throughput            %.0f ops/s\n", res.throughput);
    std::printf("mean access latency   %.1f ns\n", res.meanAccessLatencyNs);
    std::printf("traffic local/cxl     %.1f%% / %.1f%%\n",
                res.localTrafficShare * 100.0, res.cxlTrafficShare * 100.0);
    std::printf("anon local residency  %.1f%%\n",
                res.anonLocalResidency * 100.0);
    std::printf("file local residency  %.1f%%\n",
                res.fileLocalResidency * 100.0);

    std::printf("\n-- vmstat --\n%s", res.vmstat.report().c_str());

    std::printf("\n-- time series (every ~1s) --\n");
    TextTable series({"t(s)", "local%", "promo/s", "demo/s", "alloc/s",
                      "freeLocal", "ops/s"});
    for (std::size_t i = 0; i < res.samples.size(); i += 10) {
        const IntervalSample &s = res.samples[i];
        series.addRow({TextTable::num(static_cast<double>(s.tick) / 1e9, 1),
                       TextTable::pct(s.localShare),
                       TextTable::num(s.promotionRate, 0),
                       TextTable::num(s.demotionRate, 0),
                       TextTable::num(s.localAllocRate, 0),
                       TextTable::count(s.localFree),
                       TextTable::num(s.throughput, 0)});
    }
    series.print();
    return 0;
}
