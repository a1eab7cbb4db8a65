/**
 * @file
 * Phase-adaptive placement policy (policy/adaptive) tests.
 *
 * Unit half: the window objective is a free function, so its weighting,
 * the SLO sentinel and the penalty terms are pinned directly.
 *
 * Golden half: vm.adaptive.enable=0 must make the policy a pass-through
 * TppPolicy with no scheduled events, so the "adaptive" policy with the
 * tuner off reproduces the static-tpp golden fingerprints bit-for-bit,
 * matches a plain tpp run on every vmstat counter (async engine
 * included), and the mere presence of the subsystem leaves
 * the linux/hotness baselines untouched.
 *
 * Convergence half: on a stationary workload the hill climber must
 * actually move knobs, then park (adaptive_settled) rather than oscillate.
 */

#include <string>

#include <gtest/gtest.h>

#include "harness/experiment.hh"
#include "mm/policy_params.hh"
#include "mm/vmstat.hh"
#include "policy/adaptive/adaptive_policy.hh"
#include "workloads/profiles.hh"

namespace tpp {
namespace {

// ---- objective unit tests ------------------------------------------

AdaptiveWindowMetrics
perfectWindow()
{
    AdaptiveWindowMetrics m;
    m.localShare = 1.0;
    m.pingPongNorm = 0.0;
    m.stallNorm = 0.0;
    m.sloAttainment = -1.0; // no open-loop feed
    return m;
}

TEST(AdaptiveScore, PerfectWindowScoresTheLocalWeight)
{
    const AdaptiveConfig cfg;
    EXPECT_DOUBLE_EQ(adaptiveScore(perfectWindow(), cfg), cfg.weightLocal);
}

TEST(AdaptiveScore, PenaltiesSubtractWithTheirWeights)
{
    const AdaptiveConfig cfg;
    AdaptiveWindowMetrics m = perfectWindow();
    m.pingPongNorm = 0.5;
    m.stallNorm = 0.25;
    EXPECT_DOUBLE_EQ(adaptiveScore(m, cfg),
                     cfg.weightLocal - cfg.weightPingPong * 0.5 -
                         cfg.weightStall * 0.25);
}

TEST(AdaptiveScore, SloSentinelIsIgnoredButRealSloCounts)
{
    const AdaptiveConfig cfg;
    AdaptiveWindowMetrics without = perfectWindow(); // slo = -1
    AdaptiveWindowMetrics with = perfectWindow();
    with.sloAttainment = 1.0;
    EXPECT_DOUBLE_EQ(adaptiveScore(with, cfg) - adaptiveScore(without, cfg),
                     cfg.weightSlo);

    // Attainment of exactly zero contributes zero, same as the sentinel.
    AdaptiveWindowMetrics zero = perfectWindow();
    zero.sloAttainment = 0.0;
    EXPECT_DOUBLE_EQ(adaptiveScore(zero, cfg), adaptiveScore(without, cfg));
}

TEST(AdaptiveScore, WeightsScaleLinearly)
{
    AdaptiveConfig cfg;
    AdaptiveWindowMetrics m = perfectWindow();
    m.pingPongNorm = 1.0;
    const double base = adaptiveScore(m, cfg);
    cfg.weightPingPong *= 2.0;
    EXPECT_DOUBLE_EQ(adaptiveScore(m, cfg), base - 0.5);
}

// ---- golden-fingerprint pins ---------------------------------------

/** Hash of every vmstat counter. */
std::uint64_t
vmHash(const VmStat &vmstat)
{
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < kNumVmCounters; ++i)
        sum = sum * 1000003u + vmstat.get(static_cast<Vm>(i));
    return sum;
}

/** Hash of the pre-engine seed counters, matching
 *  test_migration_compat.cc. */
std::uint64_t
seedVmHash(const VmStat &vmstat)
{
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < 35; ++i)
        sum = sum * 1000003u + vmstat.get(static_cast<Vm>(i));
    return sum;
}

void
expectAdaptiveSilent(const VmStat &vmstat, const char *tag)
{
    EXPECT_EQ(vmstat.get(Vm::AdaptiveWindow), 0u) << tag;
    EXPECT_EQ(vmstat.get(Vm::AdaptiveTune), 0u) << tag;
    EXPECT_EQ(vmstat.get(Vm::AdaptiveRevert), 0u) << tag;
    EXPECT_EQ(vmstat.get(Vm::AdaptiveSettled), 0u) << tag;
    EXPECT_EQ(vmstat.get(Vm::AdaptiveWake), 0u) << tag;
    EXPECT_EQ(vmstat.get(Vm::AdaptiveFiltered), 0u) << tag;
    EXPECT_EQ(vmstat.get(Vm::AdaptiveFlapBias), 0u) << tag;
}

TEST(AdaptiveGolden, DisabledReproducesStaticGoldenFingerprints)
{
    // The pre-engine constants test_migration_compat.cc pins. The web
    // pin runs under the *adaptive* policy with the tuner at its default
    // (off): it must be indistinguishable from static tpp down to the
    // last bit. The linux pin keeps its own policy — the adaptive
    // subsystem being linked in must not perturb the baselines.
    struct Pin {
        const char *tag;
        const char *workload;
        const char *policy;
        double localFraction;
        double throughput;
        double meanLatencyNs;
        std::uint64_t vmsum;
    };
    const Pin pins[] = {
        {"fig15_web_adaptive_off", "web", "adaptive", 2.0 / 3.0,
         785205.14820370195, 84.197993223045387, 7071264301307134540ull},
        {"fig16_cache1_linux", "cache1", "linux", 0.2,
         779422.65009620448, 120.50352733415521, 16959053233026845536ull},
    };

    for (const Pin &p : pins) {
        ExperimentConfig cfg;
        cfg.workload = p.workload;
        cfg.policy = p.policy;
        cfg.localFraction = p.localFraction;
        cfg.wssPages = 8192;
        cfg.runUntil = 10 * kSecond;
        cfg.measureFrom = 6 * kSecond;
        cfg.seed = 1;
        cfg.migration = MigrationConfig::compat();
        const ExperimentResult r = runExperiment(cfg);
        EXPECT_EQ(r.throughput, p.throughput) << p.tag;
        EXPECT_EQ(r.meanAccessLatencyNs, p.meanLatencyNs) << p.tag;
        EXPECT_EQ(seedVmHash(r.vmstat), p.vmsum) << p.tag;
        expectAdaptiveSilent(r.vmstat, p.tag);
    }
}

/** Test-scale config; the tag-selected policy/workload are the knobs. */
ExperimentConfig
smallConfig(const char *policy, const char *workload = "cache1")
{
    ExperimentConfig cfg;
    cfg.workload = workload;
    cfg.policy = policy;
    cfg.wssPages = 8192;
    cfg.runUntil = 4 * kSecond;
    cfg.measureFrom = 2 * kSecond;
    cfg.seed = 7;
    cfg.migration = MigrationConfig::asyncEngine();
    return cfg;
}

class AdaptiveDisabledMatchesTpp
    : public ::testing::TestWithParam<const char *>
{};

TEST_P(AdaptiveDisabledMatchesTpp, EveryCounterIdentical)
{
    // Same seed, same workload: static tpp vs adaptive-with-tuner-off,
    // async engine, full vmstat hash (adaptive counters are all zero in
    // both runs, so hashing the complete vector is fair).
    const char *workload = GetParam();
    const ExperimentResult tpp_run =
        runExperiment(smallConfig("tpp", workload));

    ExperimentConfig off = smallConfig("adaptive", workload);
    off.sysctls.emplace_back("vm.adaptive.enable", "0"); // pin the default
    const ExperimentResult adaptive_run = runExperiment(off);

    EXPECT_EQ(tpp_run.throughput, adaptive_run.throughput) << workload;
    EXPECT_EQ(tpp_run.meanAccessLatencyNs,
              adaptive_run.meanAccessLatencyNs)
        << workload;
    EXPECT_EQ(vmHash(tpp_run.vmstat), vmHash(adaptive_run.vmstat))
        << workload;
    expectAdaptiveSilent(adaptive_run.vmstat, workload);
}

INSTANTIATE_TEST_SUITE_P(Golden, AdaptiveDisabledMatchesTpp,
                         ::testing::Values("cache1", "web", "phased"),
                         [](const auto &info) {
                             return std::string(info.param);
                         });

TEST(AdaptiveGolden, HotnessBaselineIsDeterministicWithAdaptiveLinked)
{
    // hotness never touches the adaptive path; two identical runs must
    // stay bit-identical with the subsystem linked into the binary.
    const ExperimentResult a = runExperiment(smallConfig("hotness"));
    const ExperimentResult b = runExperiment(smallConfig("hotness"));
    EXPECT_EQ(a.throughput, b.throughput);
    EXPECT_EQ(vmHash(a.vmstat), vmHash(b.vmstat));
    expectAdaptiveSilent(a.vmstat, "hotness");
}

// ---- convergence ----------------------------------------------------

TEST(AdaptiveConvergence, StationaryWorkloadSettlesInsteadOfOscillating)
{
    // cache1 is phase-stable: the tuner should explore, stop finding
    // wins, and park. Fast windows so the full coordinate-descent round
    // fits the run comfortably.
    ExperimentConfig cfg = smallConfig("adaptive");
    cfg.localFraction = 0.2; // oversubscribed: promotions actually flow
    cfg.runUntil = 8 * kSecond;
    cfg.measureFrom = 2 * kSecond;
    cfg.sysctls.emplace_back("vm.adaptive.enable", "1");
    cfg.sysctls.emplace_back("vm.adaptive.window_ns", "100000000");
    cfg.sysctls.emplace_back("vm.adaptive.profile_windows", "2");
    const ExperimentResult r = runExperiment(cfg);

    EXPECT_GE(r.vmstat.get(Vm::AdaptiveWindow), 10u);
    EXPECT_GE(r.vmstat.get(Vm::AdaptiveTune), 1u);
    EXPECT_GE(r.vmstat.get(Vm::AdaptiveSettled), 1u);
    // Parked more than re-armed: converged, not oscillating.
    EXPECT_GT(r.vmstat.get(Vm::AdaptiveSettled),
              r.vmstat.get(Vm::AdaptiveWake));
}

// ---- phased workload -----------------------------------------------

TEST(PhasedWorkload, ProfileOversubscribesAndRuns)
{
    const WorkloadProfile p = profiles::phased(8192);
    ASSERT_EQ(p.regions.size(), 3u);
    std::uint64_t reserved = 0;
    for (const RegionSpec &spec : p.regions)
        reserved += spec.pages;
    // The phase flip must have somebody to displace.
    EXPECT_GT(reserved, std::uint64_t{8192});
    // Anti-phase: the scan region is offset by half the period.
    EXPECT_EQ(p.regions[2].phaseOffset, p.regions[2].phasePeriod / 2);

    const ExperimentResult r =
        runExperiment(smallConfig("tpp", "phased"));
    EXPECT_GT(r.throughput, 0.0);
}

} // namespace
} // namespace tpp
