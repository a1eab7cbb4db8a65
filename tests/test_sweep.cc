/**
 * @file
 * Tests for the parallel sweep engine (ThreadPool, SweepRunner), the
 * policy/workload registries, and the hardened parseRatioSpec().
 */

#include <atomic>
#include <sstream>

#include "harness/export.hh"
#include "harness/sweep.hh"
#include "harness/thread_pool.hh"
#include "mm/policy_registry.hh"
#include "test_common.hh"
#include "workloads/workload_registry.hh"

namespace tpp {
namespace {

// A policy registered from this TU: proves registration needs no edits
// to the harness or the registry itself.
TPP_REGISTER_POLICY_AS(testEcho, "test-echo", [](const PolicyParams &) {
    return std::make_unique<DefaultLinuxPolicy>();
});

/** A short run so sweep tests stay fast. */
ExperimentConfig
smallConfig(const std::string &workload, const std::string &policy,
            const char *ratio)
{
    ExperimentConfig cfg;
    cfg.workload = workload;
    cfg.policy = policy;
    cfg.wssPages = 4096;
    cfg.localFraction = *parseRatioSpec(ratio);
    cfg.runUntil = 3 * kSecond;
    cfg.measureFrom = 2 * kSecond;
    return cfg;
}

/** Full serialisation — bitwise-equal doubles produce equal strings. */
std::string
fingerprint(const ExperimentResult &res)
{
    std::ostringstream out;
    writeResultJson(out, res);
    out << res.vmstat.report();
    writeSamplesCsv(out, res);
    return out.str();
}

TEST(ThreadPool, RunsAllJobsAndWaits)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.threadCount(), 4u);
    std::atomic<int> done{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&] { done++; });
    pool.wait();
    EXPECT_EQ(done.load(), 100);

    // The pool is reusable after a wait().
    pool.submit([&] { done++; });
    pool.wait();
    EXPECT_EQ(done.load(), 101);
}

TEST(ThreadPool, WaitRethrowsJobException)
{
    ThreadPool pool(2);
    pool.submit([] { throw std::runtime_error("boom"); });
    EXPECT_THROW(pool.wait(), std::runtime_error);
}

TEST(ThreadPool, HardwareConcurrencyIsPositive)
{
    EXPECT_GE(ThreadPool::hardwareConcurrency(), 1u);
}

TEST(Sweep, ParallelMatchesSerialBitForBit)
{
    // A mixed policy x ratio grid, plus the all-local baseline.
    std::vector<ExperimentConfig> cfgs;
    ExperimentConfig base = smallConfig("cache1", "linux", "2:1");
    base.allLocal = true;
    cfgs.push_back(base);
    for (const char *policy : {"linux", "tpp", "numa-balancing"})
        for (const char *ratio : {"2:1", "1:4"})
            cfgs.push_back(smallConfig("cache1", policy, ratio));

    SweepOptions serial;
    serial.jobs = 1;
    const auto serial_results = SweepRunner(serial).run(cfgs);

    SweepOptions parallel;
    parallel.jobs = 4;
    const auto parallel_results = SweepRunner(parallel).run(cfgs);

    ASSERT_EQ(serial_results.size(), cfgs.size());
    ASSERT_EQ(parallel_results.size(), cfgs.size());
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        EXPECT_EQ(fingerprint(serial_results[i]),
                  fingerprint(parallel_results[i]))
            << "config " << i << " diverged under --jobs 4";
    }
}

TEST(Sweep, ConfigsDifferingOnlyInAdaptiveRunSeparately)
{
    // Two configs that differ in nothing but an AdaptiveConfig field:
    // each must get the result of its own run, not the other's.
    ExperimentConfig fast = smallConfig("cache1", "adaptive", "1:4");
    ExperimentConfig slow = fast;
    fast.adaptive.windowPeriod = 100 * kMillisecond;
    slow.adaptive.windowPeriod = 400 * kMillisecond;

    SweepOptions opts;
    opts.jobs = 1;
    const auto results = SweepRunner(opts).run({fast, slow});

    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(fingerprint(results[0]), fingerprint(runExperiment(fast)));
    EXPECT_EQ(fingerprint(results[1]), fingerprint(runExperiment(slow)));
    EXPECT_NE(fingerprint(results[0]), fingerprint(results[1]));
}

TEST(Sweep, RejectsOneBadConfigAndRunsTheRest)
{
    // One config in the batch is malformed (tenant wss oversubscribes
    // the machine): the sweep must fail *that* config with a
    // diagnostic and still run the other one.
    ExperimentConfig good = smallConfig("web", "linux", "1:1");
    ExperimentConfig bad = smallConfig("web", "linux", "1:1");
    bad.tenants = *parseTenants("web:wss=4000;dwh:wss=4000");

    SweepOptions opts;
    opts.jobs = 1;
    const std::vector<ExperimentResult> results =
        SweepRunner(opts).run({good, bad});

    ASSERT_EQ(results.size(), 2u);
    EXPECT_FALSE(results[0].failed());
    EXPECT_GT(results[0].throughput, 0.0);
    ASSERT_TRUE(results[1].failed());
    EXPECT_NE(results[1].error.find("wss"), std::string::npos)
        << results[1].error;
    EXPECT_EQ(results[1].throughput, 0.0);
}

TEST(Sweep, RejectsAnUnknownSysctlAndRunsTheRest)
{
    // A sysctl only the kernel can judge: the run is rejected before
    // its event queue starts, and the rest of the sweep still runs.
    ExperimentConfig good = smallConfig("web", "linux", "1:1");
    ExperimentConfig bad = good;
    bad.sysctls.emplace_back("vm.bogus", "1");
    ExperimentConfig bad_value = good;
    bad_value.sysctls.emplace_back("vm.ppt.enable", "2");

    SweepOptions opts;
    opts.jobs = 1;
    const std::vector<ExperimentResult> results =
        SweepRunner(opts).run({good, bad, bad_value});

    ASSERT_EQ(results.size(), 3u);
    EXPECT_FALSE(results[0].failed());
    EXPECT_GT(results[0].throughput, 0.0);
    ASSERT_TRUE(results[1].failed());
    EXPECT_NE(results[1].error.find("vm.bogus"), std::string::npos)
        << results[1].error;
    EXPECT_EQ(results[1].throughput, 0.0);
    EXPECT_EQ(results[1].workload, "web");
    EXPECT_EQ(results[1].policy, "linux");
    ASSERT_TRUE(results[2].failed());
    EXPECT_NE(results[2].error.find("value rejected"), std::string::npos)
        << results[2].error;
    EXPECT_NE(results[2].error.find("vm.ppt.enable=2"), std::string::npos)
        << results[2].error;
}

TEST(Export, CsvQuotesHostileFields)
{
    EXPECT_EQ(csvField("plain"), "plain");
    EXPECT_EQ(csvField("a,b"), "\"a,b\"");
    EXPECT_EQ(csvField("say \"hi\""), "\"say \"\"hi\"\"\"");
    EXPECT_EQ(csvField("line\nbreak"), "\"line\nbreak\"");
    EXPECT_EQ(csvField(""), "");

    // Regression: workload/policy used to be written raw, so a comma in
    // a registered name shifted every column after it and an embedded
    // quote corrupted the row (RFC 4180 requires doubling).
    ExperimentResult res;
    res.workload = "cache,1";
    res.policy = "tpp \"patched\"";
    std::ostringstream out;
    writeResultsCsv(out, {res});
    const std::string text = out.str();
    const std::size_t row = text.find('\n') + 1;
    EXPECT_EQ(text.substr(row, text.find('\n', row) - row),
              "\"cache,1\",\"tpp \"\"patched\"\"\",0.000,0.000,0.000,"
              "0.000,0.000,0.000,0.000");
}

TEST(Registry, PoliciesSelfRegister)
{
    auto &reg = PolicyRegistry::instance();
    for (const char *name : {"linux", "numa-balancing", "numa",
                             "autotiering", "damon-reclaim", "tpp"}) {
        EXPECT_TRUE(reg.contains(name)) << name;
    }
    const auto names = reg.names();
    EXPECT_GE(names.size(), 6u);

    // A policy registered by this test TU resolves through makePolicy.
    ExperimentConfig cfg;
    cfg.policy = "test-echo";
    auto policy = makePolicy(cfg);
    ASSERT_NE(policy, nullptr);
    EXPECT_EQ(policy->name(), "linux");
}

TEST(Registry, WorkloadsSelfRegister)
{
    auto &reg = WorkloadRegistry::instance();
    for (const char *name : {"web", "cache1", "cache2", "dwh",
                             "data-warehouse", "ycsb-a", "ycsb-b",
                             "ycsb-c", "ycsb-d"}) {
        EXPECT_TRUE(reg.contains(name)) << name;
    }
    WorkloadSpec spec;
    spec.name = "web";
    spec.wssPages = 1024;
    auto workload = reg.make(spec);
    ASSERT_NE(workload, nullptr);
}

TEST(RegistryDeathTest, UnknownNamesListTheRegistered)
{
    setLogVerbose(false);
    ExperimentConfig cfg;
    cfg.policy = "no-such-policy";
    EXPECT_DEATH(makePolicy(cfg), "unknown policy.*registered.*tpp");

    WorkloadSpec spec;
    spec.name = "no-such-workload";
    spec.wssPages = 1024;
    EXPECT_DEATH(WorkloadRegistry::instance().make(spec),
                 "unknown workload.*registered.*web");
}

TEST(ParseRatio, AcceptsWellFormedRatios)
{
    EXPECT_NEAR(*parseRatioSpec("2:1"), 2.0 / 3.0, 1e-12);
    EXPECT_NEAR(*parseRatioSpec("1:4"), 0.2, 1e-12);
    EXPECT_NEAR(*parseRatioSpec("1:0"), 1.0, 1e-12); // all-local as a ratio
    EXPECT_NEAR(*parseRatioSpec("1.5:0.5"), 0.75, 1e-12);
}

/** Every ratio in `bad` must come back as an error naming the ratio. */
void
expectRatioRejected(std::initializer_list<const char *> bad)
{
    for (const char *ratio : bad) {
        const SpecResult<double> got = parseRatioSpec(ratio);
        ASSERT_FALSE(bool(got)) << ratio;
        EXPECT_NE(got.error().render().find("capacity ratio"),
                  std::string::npos)
            << ratio << " -> " << got.error().render();
    }
}

TEST(ParseRatioDeathTest, RejectsMalformedRatios)
{
    expectRatioRejected({"", "21", "2:", ":1", "2:1:3", "a:b", "2x:1",
                         "nan:1", "inf:1"});
}

TEST(ParseRatioDeathTest, RejectsNonPositiveShares)
{
    expectRatioRejected({"0:1", "-1:4", "1:-4"});
}

} // namespace
} // namespace tpp
