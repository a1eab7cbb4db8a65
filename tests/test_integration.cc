/**
 * @file
 * Integration tests: the paper's headline shapes at reduced scale.
 * These run full experiments (workload + kernel + policy + daemons)
 * and assert the qualitative results of §6.
 */

#include "harness/experiment.hh"
#include "test_common.hh"

namespace tpp {
namespace {

ExperimentConfig
smallConfig(const std::string &workload, const std::string &policy,
            const std::string &ratio)
{
    ExperimentConfig cfg;
    cfg.workload = workload;
    cfg.wssPages = 8192;
    cfg.policy = policy;
    cfg.localFraction = *parseRatioSpec(ratio);
    cfg.runUntil = 10 * kSecond;
    cfg.measureFrom = 6 * kSecond;
    return cfg;
}

double
allLocalThroughput(const std::string &workload)
{
    ExperimentConfig cfg = smallConfig(workload, "linux", "2:1");
    cfg.allLocal = true;
    return runExperiment(cfg).throughput;
}

TEST(Integration, TppBeatsLinuxOnWeb21)
{
    const double base = allLocalThroughput("web");
    const ExperimentResult linux_res =
        runExperiment(smallConfig("web", "linux", "2:1"));
    const ExperimentResult tpp_res =
        runExperiment(smallConfig("web", "tpp", "2:1"));

    // TPP close to all-local; Linux clearly behind (§6.2.1).
    EXPECT_GT(tpp_res.throughput, 0.95 * base);
    EXPECT_GT(tpp_res.throughput, linux_res.throughput);
    EXPECT_LT(linux_res.throughput, 0.97 * base);
    // TPP serves more traffic locally.
    EXPECT_GT(tpp_res.localTrafficShare, linux_res.localTrafficShare);
}

TEST(Integration, TppNearAllLocalOnCache14)
{
    const double base = allLocalThroughput("cache1");
    const ExperimentResult linux_res =
        runExperiment(smallConfig("cache1", "linux", "1:4"));
    const ExperimentResult tpp_res =
        runExperiment(smallConfig("cache1", "tpp", "1:4"));

    EXPECT_GT(tpp_res.throughput, linux_res.throughput);
    EXPECT_GT(tpp_res.throughput, 0.88 * base);
    EXPECT_GT(tpp_res.localTrafficShare,
              linux_res.localTrafficShare + 0.15);
}

TEST(Integration, TppPromotionMachineryEngages)
{
    const ExperimentResult res =
        runExperiment(smallConfig("cache1", "tpp", "1:4"));
    EXPECT_GT(res.vmstat.get(Vm::PgDemoteAnon) +
                  res.vmstat.get(Vm::PgDemoteFile),
              0u);
    EXPECT_GT(res.vmstat.get(Vm::PgPromoteSuccess), 0u);
    EXPECT_GT(res.vmstat.get(Vm::NumaHintFaults), 0u);
    // Success never exceeds attempts; candidates never exceed faults.
    EXPECT_LE(res.vmstat.get(Vm::PgPromoteSuccess),
              res.vmstat.get(Vm::PgPromoteTry));
    EXPECT_LE(res.vmstat.get(Vm::PgPromoteCandidate),
              res.vmstat.get(Vm::NumaHintFaults));
}

TEST(Integration, TppAvoidsSwapWhereLinuxPages)
{
    const ExperimentResult linux_res =
        runExperiment(smallConfig("cache1", "linux", "1:4"));
    const ExperimentResult tpp_res =
        runExperiment(smallConfig("cache1", "tpp", "1:4"));
    // Linux's only relief valve is paging; TPP demotes instead (§5.1).
    EXPECT_LT(tpp_res.vmstat.get(Vm::PswpOut),
              std::max<std::uint64_t>(1,
                                      linux_res.vmstat.get(Vm::PswpOut)));
}

TEST(Integration, DefaultLinuxNeverPromotes)
{
    const ExperimentResult res =
        runExperiment(smallConfig("web", "linux", "2:1"));
    EXPECT_EQ(res.vmstat.get(Vm::PgPromoteSuccess), 0u);
    EXPECT_EQ(res.vmstat.get(Vm::NumaHintFaults), 0u);
}

TEST(Integration, DecouplingAblationDirection)
{
    ExperimentConfig coupled = smallConfig("cache1", "tpp", "1:4");
    coupled.tpp.decoupleWatermarks = false;
    ExperimentConfig decoupled = smallConfig("cache1", "tpp", "1:4");

    const ExperimentResult r_coupled = runExperiment(coupled);
    const ExperimentResult r_decoupled = runExperiment(decoupled);
    // §6.3: without the decoupling feature promotions nearly halt.
    EXPECT_GT(r_decoupled.vmstat.get(Vm::PgPromoteSuccess),
              2 * r_coupled.vmstat.get(Vm::PgPromoteSuccess));
    EXPECT_GE(r_decoupled.throughput, r_coupled.throughput);
}

TEST(Integration, LruFilterReducesPromotionTraffic)
{
    ExperimentConfig instant = smallConfig("cache1", "tpp", "1:4");
    instant.tpp.activeLruFilter = false;
    ExperimentConfig filtered = smallConfig("cache1", "tpp", "1:4");

    const ExperimentResult r_instant = runExperiment(instant);
    const ExperimentResult r_filtered = runExperiment(filtered);
    // §6.3: the filter cuts promotion traffic and ping-pong.
    EXPECT_LT(r_filtered.vmstat.get(Vm::PgPromoteSuccess),
              r_instant.vmstat.get(Vm::PgPromoteSuccess));
    EXPECT_LT(r_filtered.vmstat.get(Vm::PgPromoteCandidateDemoted),
              r_instant.vmstat.get(Vm::PgPromoteCandidateDemoted));
}

TEST(Integration, TypeAwareAllocationShiftsFileToCxl)
{
    ExperimentConfig plain = smallConfig("cache1", "tpp", "1:4");
    ExperimentConfig aware = smallConfig("cache1", "tpp", "1:4");
    aware.tpp.typeAwareAllocation = true;

    const ExperimentResult r_plain = runExperiment(plain);
    const ExperimentResult r_aware = runExperiment(aware);
    // With the preference, fewer file pages sit on the local node.
    EXPECT_LE(r_aware.fileLocalResidency,
              r_plain.fileLocalResidency + 0.02);
    // And performance stays competitive (Table 1).
    EXPECT_GT(r_aware.throughput, 0.9 * r_plain.throughput);
}

TEST(Integration, AllLocalBaselineIsUpperBound)
{
    const double base = allLocalThroughput("cache2");
    for (const char *policy : {"linux", "tpp"}) {
        const ExperimentResult res =
            runExperiment(smallConfig("cache2", policy, "1:4"));
        EXPECT_LE(res.throughput, 1.03 * base);
    }
}

TEST(Integration, DeterministicAcrossRuns)
{
    const ExperimentResult a =
        runExperiment(smallConfig("cache1", "tpp", "1:4"));
    const ExperimentResult b =
        runExperiment(smallConfig("cache1", "tpp", "1:4"));
    EXPECT_DOUBLE_EQ(a.throughput, b.throughput);
    EXPECT_EQ(a.vmstat.get(Vm::PgPromoteSuccess),
              b.vmstat.get(Vm::PgPromoteSuccess));
    EXPECT_DOUBLE_EQ(a.localTrafficShare, b.localTrafficShare);
}

// The headline figure shapes must also hold when the full asynchronous,
// transactional engine replaces the sync mode: TPP stays close to
// all-local (the paper's central claim) and keeps beating default
// Linux, which in turn beats NUMA Balancing on cache-like workloads
// (fig 19 ordering).
TEST(MigrationAsyncShape, HeadlineOrderingHolds)
{
    auto run = [](const char *policy) {
        ExperimentConfig cfg = smallConfig("cache1", policy, "1:4");
        cfg.migration = MigrationConfig::asyncEngine();
        return runExperiment(cfg);
    };

    const double tpp16 = run("tpp").throughput;
    const double linux16 = run("linux").throughput;
    const double numa19 = run("numa-balancing").throughput;
    const double local = allLocalThroughput("cache1");

    // TPP close to all-local (§6.2 reports 1-3 % for the sync model;
    // the async engine adds queueing delay between candidate selection
    // and the actual move, so allow a slightly wider band here).
    EXPECT_GT(tpp16, 0.85 * local);
    // Ordering: TPP > default Linux > NUMA Balancing (fig 16/19).
    EXPECT_GT(tpp16, linux16);
    EXPECT_GT(linux16, numa19);
}

} // namespace
} // namespace tpp
