/**
 * @file
 * Phase-adaptive placement ablation: what does profiling-then-retuning
 * the live TPP knobs (policy/adaptive) buy when the workload's phase
 * behaviour shifts under the policy's feet?
 *
 * One oversubscribed 1:4 tiered machine, open-loop traffic with a p99
 * SLO, two workloads:
 *
 *  - `phased`: a cache1-like lookup service and a churn-like scan stage
 *    in anti-phase (cache → churn → cache ...). Each flip re-heats a
 *    cold resident set; knobs that suit one phase mis-serve the other.
 *  - `cache1`: the phase-stable control — here the tuner must converge
 *    and stay out of the way, tying the static policy within noise.
 *
 * The static arm runs stock TPP; the adaptive arm is the same policy
 * plus the tuner, on a fast window cadence. On `phased` the
 * adaptive arm must win hot-set recall *and* p99; on `cache1` it must
 * stay within noise. Both claims are checked loudly below.
 *
 * Extra flag beyond the shared bench options:
 *
 *   --preset smoke|full   smoke shortens the run for CI (default full).
 */

#include "bench_common.hh"

#include "trace/summary.hh"

namespace {

using namespace tpp;

/** Offered rate below the machine's loaded service rate at --wss 8192,
 *  with a p99 target above the stable tail but below queue collapse. */
constexpr double kDefaultQps = 4.0e5;
constexpr double kDefaultSloUs = 500.0;

/** One experiment arm. The adaptive arm always runs with the PPT
 *  history table on — the tuner profiles its flip counter and the
 *  admission filter reads its per-page history, so the table is part
 *  of the subsystem, not an independent variable. The full preset adds
 *  a tpp+ppt arm so the table's own contribution is visible. */
struct Arm {
    const char *workload;
    const char *label;
    bool adaptive;
    bool ppt;
};

} // namespace

int
main(int argc, char **argv)
{
    using namespace tpp;

    const std::string preset =
        bench::peelChoice(argc, argv, "--preset", {"full", "smoke"});
    const bench::BenchOptions opt = bench::parseBenchArgs(argc, argv);

    bench::banner("Ablation: phase-adaptive placement",
                  "static TPP knobs vs the profile-and-retune tuner on "
                  "a phase-shifting workload (1:4 machine, open loop)");

    // Groups read static-first per workload; the claims below compare
    // each group's stock-tpp arm against its adaptive arm. The smoke
    // preset keeps only the headline phased pair.
    std::vector<Arm> arms;
    arms.push_back({"phased", "tpp", false, false});
    if (preset == "full")
        arms.push_back({"phased", "tpp+ppt", false, true});
    arms.push_back({"phased", "adaptive", true, true});
    if (preset == "full") {
        arms.push_back({"cache1", "tpp", false, false});
        arms.push_back({"cache1", "tpp+ppt", false, true});
        arms.push_back({"cache1", "adaptive", true, true});
    }

    std::vector<ExperimentConfig> cfgs;
    for (const Arm &arm : arms) {
        ExperimentConfig cfg = bench::makeConfig(opt);
        cfg.workload = arm.workload;
        cfg.policy = arm.adaptive ? "adaptive" : "tpp";
        cfg.localFraction = 0.2; // 1:4 expansion: promotion-hungry
        cfg.measureHotness = true;
        cfg.traceEnabled = true;
        cfg.migration = MigrationConfig::asyncEngine();
        if (!opt.openLoop.enabled()) {
            cfg.openLoop.qps = kDefaultQps;
            cfg.openLoop.arrival = "poisson";
            cfg.openLoop.sloP99Us = kDefaultSloUs;
        }
        if (arm.ppt)
            cfg.sysctls.emplace_back("vm.ppt.enable", "1");
        if (arm.adaptive) {
            // Fast cadence relative to the 3 s phases: 100 ms windows,
            // three per measurement round, and a hysteresis band wide
            // enough that window noise does not masquerade as progress.
            cfg.sysctls.emplace_back("vm.adaptive.window_ns",
                                     "100000000");
            cfg.sysctls.emplace_back("vm.adaptive.profile_windows", "3");
            cfg.sysctls.emplace_back("vm.adaptive.hysteresis_pct", "5");
            // Open-loop run: the SLO is the business objective — let
            // its attainment dominate the bandwidth terms instead of
            // merely tie-breaking them.
            cfg.sysctls.emplace_back("vm.adaptive.w_slo", "4");
        }
        if (preset == "smoke") {
            // Two phase flips inside the window — the first one is the
            // tuner's warm-up; scoring from 2 s skips it.
            cfg.runUntil = 7 * kSecond;
            cfg.measureFrom = 2 * kSecond;
        } else {
            // Four flips inside the window: the win must repeat.
            cfg.runUntil = 14 * kSecond;
            cfg.measureFrom = 2 * kSecond;
        }
        cfgs.push_back(cfg);
    }
    const std::vector<ExperimentResult> results = bench::runSweep(opt, cfgs);

    TextTable table({"workload", "policy", "tput (ops/s)",
                     "hot-set recall", "p99 (us)", "SLO attainment",
                     "migrated pages", "tunes", "reverts", "settles"});
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        const ExperimentResult &res = results[i];
        const TraceSummary ts =
            summarizeTrace(res.trace, kSecond, /*top_n=*/1);
        table.addRow(
            {arms[i].workload, arms[i].label,
             TextTable::num(res.throughput, 0),
             TextTable::pct(res.hotSetRecall),
             TextTable::num(res.openLoop.p99Ns / 1000.0, 1),
             TextTable::pct(res.openLoop.sloAttainment),
             TextTable::count(res.vmstat.get(Vm::PgMigrateSuccess)),
             TextTable::count(res.vmstat.get(Vm::AdaptiveTune)),
             TextTable::count(res.vmstat.get(Vm::AdaptiveRevert)),
             TextTable::count(ts.adaptiveSettles)});
    }
    table.print();

    // The headline claims, checked loudly: adaptive must beat stock
    // static tpp on the phase-shifting workload on BOTH axes, and must
    // tie it within noise when the workload never changes phase.
    const std::size_t stride = preset == "full" ? 3 : 2;
    for (std::size_t i = 0; i + stride - 1 < results.size();
         i += stride) {
        const ExperimentResult &st = results[i];
        const ExperimentResult &ad = results[i + stride - 1];
        const bool phased = std::string(arms[i].workload) == "phased";
        if (phased) {
            // The strict both-axes win needs several phase flips in the
            // measured window; the short smoke run only demands the p99
            // win plus recall within noise.
            const double recallBar = preset == "full"
                ? st.hotSetRecall
                : st.hotSetRecall * 0.9;
            if (ad.hotSetRecall <= recallBar) {
                std::printf("WARNING: adaptive did not improve hot-set "
                            "recall on phased (%.3f vs %.3f)\n",
                            ad.hotSetRecall, st.hotSetRecall);
            }
            if (ad.openLoop.p99Ns >= st.openLoop.p99Ns) {
                std::printf("WARNING: adaptive did not improve p99 on "
                            "phased (%.1f us vs %.1f us)\n",
                            ad.openLoop.p99Ns / 1000.0,
                            st.openLoop.p99Ns / 1000.0);
            }
        } else {
            // Phase-stable control: within 10 % on both axes.
            if (ad.hotSetRecall < st.hotSetRecall * 0.9) {
                std::printf("WARNING: adaptive lost recall on the "
                            "stable control (%.3f vs %.3f)\n",
                            ad.hotSetRecall, st.hotSetRecall);
            }
            if (ad.openLoop.p99Ns > st.openLoop.p99Ns * 1.1) {
                std::printf("WARNING: adaptive regressed p99 on the "
                            "stable control (%.1f us vs %.1f us)\n",
                            ad.openLoop.p99Ns / 1000.0,
                            st.openLoop.p99Ns / 1000.0);
            }
        }
    }
    std::printf("\nstatic knobs are tuned for one operating point; a "
                "phase flip re-heats a cold resident set and the same "
                "knobs now either promote the scan's transients or "
                "starve the returning cache. Profiling windows + "
                "hysteretic hill-climbing retune the threshold, scan "
                "batch and watermark gap to the phase that is actually "
                "running (PAPERS.md: Pond/Johnny-Cache-style feedback "
                "control)\n");

    bench::maybeWriteCsv(opt, results);
    bench::maybeWriteTrace(opt, results);
    return 0;
}
