/**
 * @file
 * Ping-pong throttling ablation: what does denying reverse-direction
 * migrations inside a cooldown window (mm/ppt) buy on a churn-heavy
 * workload?
 *
 * One oversubscribed 1:4 tiered machine (the paper's memory-expansion
 * shape, where fig16 shows migration volume explodes), TPP policy on
 * the async MigrationEngine; the only difference between arms is
 * vm.ppt.enable (and, in the full preset, the cooldown ladder). A
 * borderline working set under this pressure promotes pages the next
 * reclaim wave demotes straight back, so the PPT-on arm must spend
 * strictly less migration bandwidth (pgmigrate_success pages moved) at
 * equal-or-better hot-set recall — hysteresis converts wasted round
 * trips into stability, not into losing the hot set.
 *
 * Each run records kernel tracepoints so the table can quote the
 * ping-pong flip count and the estimated wasted bandwidth directly
 * (trace/summary.hh; the same figures trace_summary prints).
 *
 * Extra flag beyond the shared bench options:
 *
 *   --preset smoke|full   smoke shortens the run for CI (default full).
 */

#include "bench_common.hh"

#include "trace/summary.hh"

namespace {

using namespace tpp;

/** One experiment arm: the throttle switch and its cooldown. */
struct Arm {
    bool enable;
    std::uint64_t cooldownMs;
};

} // namespace

int
main(int argc, char **argv)
{
    using namespace tpp;

    const std::string preset =
        bench::peelChoice(argc, argv, "--preset", {"full", "smoke"});
    const bench::BenchOptions opt = bench::parseBenchArgs(argc, argv);

    bench::banner("Ablation: ping-pong throttling (PPT)",
                  "migration-history cooldown vs unthrottled bouncing "
                  "on an oversubscribed 1:4 machine (cache1, TPP)");

    // PPT off, then the cooldown ladder. The off arm runs first so the
    // row pairs read off-vs-on at each ladder step.
    std::vector<Arm> arms;
    arms.push_back({false, 0});
    if (preset == "smoke") {
        arms.push_back({true, 500});
    } else {
        arms.push_back({true, 200});
        arms.push_back({true, 1000});
    }

    std::vector<ExperimentConfig> cfgs;
    for (const Arm &arm : arms) {
        ExperimentConfig cfg = bench::makeConfig(opt);
        cfg.workload = "cache1";
        cfg.policy = "tpp";
        cfg.localFraction = 0.2; // 1:4 expansion: promotion-hungry
        cfg.measureHotness = true;
        cfg.traceEnabled = true;
        cfg.migration = MigrationConfig::asyncEngine();
        cfg.sysctls.emplace_back("vm.ppt.enable", arm.enable ? "1" : "0");
        if (arm.enable) {
            cfg.sysctls.emplace_back("vm.ppt.cooldown_ms",
                                     std::to_string(arm.cooldownMs));
        }
        if (preset == "smoke") {
            cfg.runUntil = 3 * kSecond;
            cfg.measureFrom = 1 * kSecond;
        } else {
            cfg.runUntil = 10 * kSecond;
            cfg.measureFrom = 6 * kSecond;
        }
        cfgs.push_back(cfg);
    }
    const std::vector<ExperimentResult> results = bench::runSweep(opt, cfgs);

    TextTable table({"ppt", "cooldown (ms)", "tput (ops/s)",
                     "hot-set recall", "migrated pages", "moved (MiB)",
                     "throttled", "flips", "wasted (KiB)"});
    std::vector<TraceSummary> summaries;
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        const ExperimentResult &res = results[i];
        summaries.push_back(summarizeTrace(
            res.trace, kSecond, /*top_n=*/1));
        const TraceSummary &ts = summaries.back();
        const std::uint64_t moved = res.vmstat.get(Vm::PgMigrateSuccess);
        const std::uint64_t throttled =
            res.vmstat.get(Vm::PptThrottledPromote) +
            res.vmstat.get(Vm::PptThrottledDemote);
        table.addRow(
            {arms[i].enable ? "on" : "off",
             arms[i].enable ? TextTable::count(arms[i].cooldownMs)
                            : std::string("-"),
             TextTable::num(res.throughput, 0),
             TextTable::pct(res.hotSetRecall),
             TextTable::count(moved),
             TextTable::num(static_cast<double>(moved * kPageSize) /
                                (1024.0 * 1024.0),
                            1),
             TextTable::count(throttled),
             TextTable::count(ts.pingPongFlips),
             TextTable::num(
                 static_cast<double>(ts.pingPongWastedBytes) / 1024.0,
                 1)});
    }
    table.print();

    // The headline claim, checked loudly: every PPT-on arm must move
    // strictly fewer pages than the unthrottled arm while giving up
    // none of the hot set.
    const ExperimentResult &off = results[0];
    for (std::size_t i = 1; i < results.size(); ++i) {
        const ExperimentResult &on = results[i];
        if (on.vmstat.get(Vm::PgMigrateSuccess) >=
            off.vmstat.get(Vm::PgMigrateSuccess)) {
            std::printf("WARNING: PPT (cooldown %llu ms) did not reduce "
                        "migration bandwidth\n",
                        static_cast<unsigned long long>(
                            arms[i].cooldownMs));
        }
        if (on.hotSetRecall < off.hotSetRecall) {
            std::printf("WARNING: PPT (cooldown %llu ms) lost hot-set "
                        "recall (%.3f vs %.3f)\n",
                        static_cast<unsigned long long>(
                            arms[i].cooldownMs),
                        on.hotSetRecall, off.hotSetRecall);
        }
    }
    std::printf("\npaper + Nomad/hysteresis (PAPERS.md): each wasted "
                "round trip pays two transactional copies; denying the "
                "reverse hop inside a cooldown window keeps borderline "
                "pages parked and spends the bandwidth on pages that "
                "stay put\n");

    bench::maybeWriteCsv(opt, results);
    bench::maybeWriteTrace(opt, results);
    return 0;
}
