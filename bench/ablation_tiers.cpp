/**
 * @file
 * Tier-hierarchy ablation: what does chaining middle-tier reclaim
 * downward (cxl -> cxl-far) buy over the pre-hierarchy behaviour of
 * swapping every CPU-less node?
 *
 * One oversubscribed 3-tier machine (toptier holds a quarter of the
 * working set, the middle CXL tier another quarter, the far tier the
 * rest), TPP policy, identical migration budget in both arms; the only
 * difference is vm.tpp.demote_chain. With the chain on, middle-tier
 * pressure moves cold pages to cxl-far at migration cost; with it off,
 * the same pages take the swap device's write+readback penalty, so the
 * chained arm must show lower mean access latency (and no worse
 * toptier hot-set recall) at every budget.
 *
 * Extra flag beyond the shared bench options:
 *
 *   --preset smoke|full   smoke shortens the run for CI (default full).
 */

#include "bench_common.hh"

namespace {

using namespace tpp;

/** The oversubscribed 3-tier box, sized off the working set. */
std::string
defaultTopology(std::uint64_t wss)
{
    const std::uint64_t quarter = wss / 4;
    std::string spec;
    spec += "local:pages=" + std::to_string(quarter);
    spec += ";cxl:pages=" + std::to_string(quarter) + ":lat=150";
    spec += ";cxl-far:pages=" + std::to_string(wss) + ":lat=300:bw=32";
    return spec;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace tpp;

    const std::string preset =
        bench::peelChoice(argc, argv, "--preset", {"full", "smoke"});
    const bench::BenchOptions opt = bench::parseBenchArgs(argc, argv);

    bench::banner("Ablation: tier hierarchy",
                  "chained demotion vs swap fallback on an "
                  "oversubscribed 3-tier machine (web, TPP)");

    const std::string topology = opt.topologySpec.empty()
                                     ? defaultTopology(opt.wssPages)
                                     : opt.topologySpec;
    const std::vector<double> budgets =
        preset == "smoke" ? std::vector<double>{0.0}
                          : std::vector<double>{0.0, 32.0};

    std::vector<ExperimentConfig> cfgs;
    for (double budget : budgets) {
        for (bool chain : {true, false}) {
            ExperimentConfig cfg = bench::makeConfig(opt);
            cfg.workload = "web";
            cfg.policy = "tpp";
            cfg.topology = topology;
            cfg.measureHotness = true;
            // The admission budget only binds in the async engine; the
            // sync path ignores the rate limit entirely.
            cfg.migration = MigrationConfig::asyncEngine();
            cfg.migration.rateLimitMBps = budget;
            cfg.sysctls.emplace_back("vm.tpp.demote_chain",
                                     chain ? "1" : "0");
            if (preset == "smoke") {
                cfg.runUntil = 3 * kSecond;
                cfg.measureFrom = 1 * kSecond;
            }
            cfgs.push_back(cfg);
        }
    }
    const std::vector<ExperimentResult> results = bench::runSweep(opt, cfgs);

    TextTable table({"middle tier", "budget (MB/s)", "tput (ops/s)",
                     "mean latency (ns)", "hot-set recall", "demoted",
                     "swapped out"});
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        const ExperimentResult &res = results[i];
        const double budget = cfgs[i].migration.rateLimitMBps;
        const bool chain = cfgs[i].sysctls.back().second == "1";
        table.addRow(
            {chain ? "chained demotion" : "swap fallback",
             budget == 0.0 ? std::string("unlimited")
                           : TextTable::num(budget, 0),
             TextTable::num(res.throughput, 0),
             TextTable::num(res.meanAccessLatencyNs, 1),
             TextTable::pct(res.hotSetRecall),
             TextTable::count(res.vmstat.get(Vm::PgDemoteAnon) +
                              res.vmstat.get(Vm::PgDemoteFile)),
             TextTable::count(res.vmstat.get(Vm::PswpOut))});
    }
    table.print();

    // The headline claim, checked loudly: at equal budget the chained
    // arm wins on latency or recall and swaps strictly less.
    for (std::size_t i = 0; i + 1 < results.size(); i += 2) {
        const ExperimentResult &chained = results[i];
        const ExperimentResult &swapped = results[i + 1];
        if (chained.meanAccessLatencyNs >= swapped.meanAccessLatencyNs &&
            chained.hotSetRecall <= swapped.hotSetRecall) {
            std::printf("WARNING: chained demotion beat neither latency "
                        "nor recall at budget %.0f\n",
                        cfgs[i].migration.rateLimitMBps);
        }
        if (chained.vmstat.get(Vm::PswpOut) >
            swapped.vmstat.get(Vm::PswpOut)) {
            std::printf("WARNING: chained demotion swapped more than "
                        "the fallback arm\n");
        }
    }
    std::printf("\npaper (§5.1-5.2): demotion migrates cold pages at "
                "copy cost instead of the swap device's round trip, so "
                "a full middle tier must spill downward, not out\n");

    bench::maybeWriteCsv(opt, results);
    bench::maybeWriteTrace(opt, results);
    return 0;
}
