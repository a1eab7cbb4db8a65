/**
 * @file
 * Quickstart: build a 2:1 CXL-tiered machine, run the Web workload
 * under default Linux and under TPP, and print the headline numbers —
 * the 30-second tour of the library's public API.
 *
 * Usage: quickstart [wss_pages]
 */

#include <cstdio>

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace tpp;

    setLogVerbose(false);

    ExperimentConfig cfg;
    cfg.workload = "web";
    cfg.localFraction = *parseRatioSpec("2:1");
    if (argc > 1)
        cfg.wssPages = bench::specValueOrDie(parseSpecU64(argv[1]));

    std::printf("Web on a 2:1 local:CXL tiered machine (%llu pages WSS)\n\n",
                static_cast<unsigned long long>(cfg.wssPages));

    TextTable table({"policy", "throughput (ops/s)", "vs all-local",
                     "local traffic", "mean access ns"});

    // All-from-local reference machine.
    ExperimentConfig base = cfg;
    base.allLocal = true;
    base.policy = "linux";
    const ExperimentResult baseline = runExperiment(base);
    bench::requireSimulated({baseline});
    table.addRow({"all-local", TextTable::num(baseline.throughput, 0),
                  "100.0%", "100.0%",
                  TextTable::num(baseline.meanAccessLatencyNs, 1)});

    for (const char *policy : {"linux", "tpp"}) {
        ExperimentConfig run = cfg;
        run.policy = policy;
        const ExperimentResult res = runExperiment(run);
        table.addRow({res.policy, TextTable::num(res.throughput, 0),
                      TextTable::pct(res.throughput / baseline.throughput),
                      TextTable::pct(res.localTrafficShare),
                      TextTable::num(res.meanAccessLatencyNs, 1)});
    }
    table.print();
    return 0;
}
