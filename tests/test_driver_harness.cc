/**
 * @file
 * Unit tests for the workload driver and the experiment harness.
 */

#include "harness/experiment.hh"
#include "harness/table.hh"
#include "test_common.hh"
#include "workloads/synthetic.hh"

namespace tpp {
namespace {

using test::TestMachine;

WorkloadProfile
smallProfile()
{
    WorkloadProfile p;
    p.name = "small";
    p.opsPerBatch = 100;
    p.accessesPerOp = 2;
    p.thinkTimePerOpNs = 500.0;
    RegionSpec r;
    r.label = "heap";
    r.type = PageType::Anon;
    r.pages = 512;
    r.hotFraction = 0.3;
    r.hotAccessShare = 0.9;
    p.regions.push_back(r);
    return p;
}

TEST(Driver, RunsToHorizonAndMeasures)
{
    TestMachine m(2048, 2048);
    SyntheticWorkload wl(smallProfile());
    DriverConfig cfg;
    cfg.runUntil = 500 * kMillisecond;
    cfg.measureFrom = 100 * kMillisecond;
    cfg.sampleEvery = 50 * kMillisecond;
    WorkloadDriver driver(m.kernel, wl, cfg);
    driver.runToCompletion();

    EXPECT_GT(driver.measuredOps(), 0u);
    EXPECT_GT(driver.throughput(), 0.0);
    EXPECT_GT(driver.meanAccessLatencyNs(), 0.0);
    EXPECT_GE(driver.samples().size(), 8u);
    EXPECT_NEAR(driver.trafficShare(0) + driver.trafficShare(1), 1.0,
                1e-9);
}

TEST(Driver, ThroughputMatchesOpsOverWindow)
{
    TestMachine m(2048, 2048);
    SyntheticWorkload wl(smallProfile());
    DriverConfig cfg;
    cfg.runUntil = 400 * kMillisecond;
    cfg.measureFrom = 200 * kMillisecond;
    WorkloadDriver driver(m.kernel, wl, cfg);
    driver.runToCompletion();
    // Window is ~0.2 s; throughput * window ~= measured ops.
    const double window_sec = 0.2;
    EXPECT_NEAR(driver.throughput() * window_sec,
                static_cast<double>(driver.measuredOps()),
                static_cast<double>(driver.measuredOps()) * 0.1);
}

TEST(Driver, SamplesCarryResidency)
{
    TestMachine m(2048, 2048);
    SyntheticWorkload wl(smallProfile());
    DriverConfig cfg;
    cfg.runUntil = 300 * kMillisecond;
    cfg.measureFrom = 50 * kMillisecond;
    WorkloadDriver driver(m.kernel, wl, cfg);
    driver.runToCompletion();
    const IntervalSample &last = driver.samples().back();
    EXPECT_GT(last.anonResident, 0u);
    EXPECT_EQ(last.fileResident, 0u);
    EXPECT_EQ(last.anonResident, last.anonOnLocal + 0u);
}

TEST(DriverDeathTest, BadWindowIsFatal)
{
    TestMachine m(2048, 2048);
    SyntheticWorkload wl(smallProfile());
    DriverConfig cfg;
    cfg.runUntil = 100;
    cfg.measureFrom = 200;
    EXPECT_DEATH({ WorkloadDriver driver(m.kernel, wl, cfg); },
                 "measurement window");
}

TEST(Harness, ParseRatio)
{
    EXPECT_NEAR(*parseRatioSpec("2:1"), 2.0 / 3.0, 1e-9);
    EXPECT_NEAR(*parseRatioSpec("1:4"), 0.2, 1e-9);
    EXPECT_NEAR(*parseRatioSpec("1:1"), 0.5, 1e-9);
}

TEST(HarnessDeathTest, BadRatioIsFatal)
{
    // A bad literal ratio is a programming error: unwrapping it trips
    // Expected's assert.
    setLogVerbose(false);
    EXPECT_DEATH((void)*parseRatioSpec("21"), "hasValue");
}

TEST(Harness, MakePolicyByName)
{
    ExperimentConfig cfg;
    for (const char *name :
         {"linux", "numa-balancing", "autotiering", "tpp"}) {
        cfg.policy = name;
        auto policy = makePolicy(cfg);
        ASSERT_NE(policy, nullptr);
        EXPECT_EQ(policy->name(), name);
    }
}

TEST(HarnessDeathTest, UnknownPolicyIsFatal)
{
    setLogVerbose(false);
    ExperimentConfig cfg;
    cfg.policy = "nope";
    EXPECT_DEATH(makePolicy(cfg), "unknown policy");
}

TEST(Harness, SmokeExperimentRuns)
{
    ExperimentConfig cfg;
    cfg.workload = "cache1";
    cfg.wssPages = 4096;
    cfg.policy = "tpp";
    cfg.runUntil = 3 * kSecond;
    cfg.measureFrom = 2 * kSecond;
    const ExperimentResult res = runExperiment(cfg);
    EXPECT_GT(res.throughput, 0.0);
    EXPECT_GE(res.localTrafficShare, 0.0);
    EXPECT_LE(res.localTrafficShare, 1.0);
    EXPECT_NEAR(res.localTrafficShare + res.cxlTrafficShare, 1.0, 1e-9);
    EXPECT_GT(res.vmstat.get(Vm::PgFault), 0u);
    EXPECT_FALSE(res.samples.empty());
}

TEST(Harness, ChameleonAttachment)
{
    ExperimentConfig cfg;
    cfg.workload = "cache1";
    cfg.wssPages = 4096;
    cfg.allLocal = true;
    cfg.policy = "linux";
    cfg.runUntil = 3 * kSecond;
    cfg.measureFrom = 2 * kSecond;
    cfg.withChameleon = true;
    cfg.chameleon.interval = 500 * kMillisecond;
    const ExperimentResult res = runExperiment(cfg);
    EXPECT_FALSE(res.chameleonIntervals.empty());
    EXPECT_GT(res.chameleonHotFraction, 0.0);
    EXPECT_LE(res.chameleonHotFraction, 1.0);
}

TEST(TextTable, FormatsAndHelpers)
{
    EXPECT_EQ(TextTable::pct(0.5), "50.0%");
    EXPECT_EQ(TextTable::pct(0.123, 2), "12.30%");
    EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
    EXPECT_EQ(TextTable::count(42), "42");
}

TEST(TextTableDeathTest, RowWidthMismatchPanics)
{
    setLogVerbose(false);
    TextTable table({"a", "b"});
    EXPECT_DEATH(table.addRow({"only-one"}), "width");
}

} // namespace
} // namespace tpp
