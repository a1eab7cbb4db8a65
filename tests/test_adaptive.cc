/**
 * @file
 * Phase-adaptive placement policy (policy/adaptive) tests.
 *
 * Unit half: the window objective is a free function, so its weighting,
 * the SLO sentinel and the penalty terms are pinned directly.
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
