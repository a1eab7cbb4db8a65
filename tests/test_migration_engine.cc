/**
 * @file
 * Unit tests for the MigrationEngine: queueing and batched drains,
 * admission control (queue depth + token bucket), the transactional
 * copy window with abort-on-access, and the edge cases around munmap
 * and demotion-target OOM while requests sit in a queue.
 */

#include "test_common.hh"

#include "mm/migration/migration_engine.hh"

namespace tpp {
namespace {

using test::TestMachine;

MigrationConfig
asyncConfig()
{
    MigrationConfig cfg = MigrationConfig::asyncEngine();
    // Keep tests deterministic and fast: small batches, 1 ms cadence.
    cfg.drainBatch = 32;
    cfg.drainPeriod = 1 * kMillisecond;
    return cfg;
}

struct AsyncMachine : TestMachine {
    explicit AsyncMachine(MigrationConfig cfg = asyncConfig(),
                          std::uint64_t local_pages = 1024,
                          std::uint64_t cxl_pages = 1024)
        : TestMachine(local_pages, cxl_pages,
                      std::make_unique<DefaultLinuxPolicy>(), cfg)
    {
    }

    MigrationEngine &engine() { return kernel.migration(); }

    /** Let the migrator daemon drain everything in flight. */
    void
    settle()
    {
        // Drain ticks reschedule while queues hold work; copies finish
        // a few µs after their drain. 1 s covers any test backlog.
        eq.run(eq.now() + 1 * kSecond);
    }
};

TEST(MigrationEngine, CompatModeIsSynchronous)
{
    TestMachine m; // default MigrationConfig = sync mode
    const Vpn base = m.populate(1);
    const Pfn pfn = m.pte(base).pfn;
    auto res = m.kernel.migration().demote(pfn);
    EXPECT_EQ(res.outcome, MigrateOutcome::Completed);
    EXPECT_TRUE(res.freed);
    EXPECT_EQ(res.latencyNs, m.kernel.costs().migratePage);
    EXPECT_EQ(m.kernel.vmstat().get(Vm::PgMigrateQueued), 0u);
    EXPECT_EQ(m.mem.frame(m.pte(base).pfn).nid, m.cxl());
}

TEST(MigrationEngine, BackgroundDemotionQueuesAndDrains)
{
    AsyncMachine m;
    const Vpn base = m.populate(4);
    const Pfn pfn = m.pte(base).pfn;

    auto res = m.engine().demote(pfn, MigrateUrgency::Background);
    EXPECT_EQ(res.outcome, MigrateOutcome::Queued);
    EXPECT_FALSE(res.freed);
    EXPECT_EQ(m.engine().queuedDemotions(m.local()), 1u);
    EXPECT_EQ(m.kernel.vmstat().get(Vm::PgMigrateQueued), 1u);

    // Queued pages are isolated: off the LRU, flagged, still mapped.
    const PageFrame &frame = m.mem.frame(pfn);
    EXPECT_TRUE(frame.isolated());
    EXPECT_EQ(frame.lru, LruListId::None);
    EXPECT_EQ(m.pte(base).pfn, pfn);

    m.settle();
    EXPECT_EQ(m.engine().queuedDemotions(m.local()), 0u);
    EXPECT_TRUE(m.engine().idle());
    EXPECT_EQ(m.kernel.vmstat().get(Vm::PgMigrateSuccess), 1u);
    EXPECT_EQ(m.kernel.vmstat().get(Vm::PgDemoteAnon), 1u);
    EXPECT_EQ(m.mem.frame(m.pte(base).pfn).nid, m.cxl());
    EXPECT_TRUE(m.mem.frame(m.pte(base).pfn).demoted());
}

TEST(MigrationEngine, DirectUrgencyBypassesTheQueue)
{
    AsyncMachine m;
    const Vpn base = m.populate(1);
    auto res =
        m.engine().demote(m.pte(base).pfn, MigrateUrgency::Direct);
    EXPECT_EQ(res.outcome, MigrateOutcome::Completed);
    EXPECT_TRUE(res.freed);
    EXPECT_EQ(m.kernel.vmstat().get(Vm::PgMigrateQueued), 0u);
    EXPECT_EQ(m.mem.frame(m.pte(base).pfn).nid, m.cxl());
}

TEST(MigrationEngine, FullQueueDefersRequests)
{
    MigrationConfig cfg = asyncConfig();
    cfg.queueDepth = 2;
    AsyncMachine m(cfg);
    const Vpn base = m.populate(4);

    EXPECT_EQ(m.engine().demote(m.pte(base + 0).pfn).outcome,
              MigrateOutcome::Queued);
    EXPECT_EQ(m.engine().demote(m.pte(base + 1).pfn).outcome,
              MigrateOutcome::Queued);
    auto res = m.engine().demote(m.pte(base + 2).pfn);
    EXPECT_EQ(res.outcome, MigrateOutcome::Deferred);
    EXPECT_EQ(m.kernel.vmstat().get(Vm::PgMigrateDeferred), 1u);

    // A deferred page is untouched: still on its LRU, not isolated.
    const PageFrame &frame = m.mem.frame(m.pte(base + 2).pfn);
    EXPECT_FALSE(frame.isolated());
    EXPECT_NE(frame.lru, LruListId::None);
}

TEST(MigrationEngine, TokenBucketBoundsAdmission)
{
    MigrationConfig cfg = asyncConfig();
    // Budget of one page per 100 ms burst window: 4096 bytes / 0.1 s.
    cfg.rateLimitMBps = 4096.0 / 1e6 * 10.0;
    AsyncMachine m(cfg);
    const Vpn base = m.populate(8);

    // The bucket fills from t=0; by now it holds exactly one burst.
    std::uint64_t queued = 0, deferred = 0;
    for (std::uint64_t i = 0; i < 8; ++i) {
        const auto res = m.engine().demote(m.pte(base + i).pfn);
        if (res.outcome == MigrateOutcome::Queued)
            queued++;
        else if (res.outcome == MigrateOutcome::Deferred)
            deferred++;
    }
    EXPECT_EQ(queued, 1u);
    EXPECT_EQ(deferred, 7u);
    EXPECT_EQ(m.kernel.vmstat().get(Vm::PgMigrateDeferred), 7u);
}

TEST(MigrationEngine, RateLimitSysctlIsLive)
{
    AsyncMachine m;
    EXPECT_TRUE(m.kernel.sysctl().exists("vm.migration_rate_limit_mbps"));
    EXPECT_TRUE(m.kernel.sysctl().exists("vm.migration_queue_depth"));
    EXPECT_TRUE(m.kernel.sysctl().set("vm.migration_queue_depth", "1"));

    const Vpn base = m.populate(4);
    EXPECT_EQ(m.engine().demote(m.pte(base + 0).pfn).outcome,
              MigrateOutcome::Queued);
    EXPECT_EQ(m.engine().demote(m.pte(base + 1).pfn).outcome,
              MigrateOutcome::Deferred);
}

TEST(MigrationEngine, RateLimitEnabledMidRunStartsEmpty)
{
    // Regression: the refill clock used to start at tick 0 and the
    // sysctl wrote the rate straight into the config, so enabling a
    // limit after the sim had run treated all the elapsed unlimited
    // time as earned tokens — the first refill minted a full burst the
    // tenant never accrued.
    AsyncMachine m; // rateLimitMBps = 0: unlimited at construction
    const Vpn base = m.populate(8);
    m.eq.run(m.eq.now() + 1 * kSecond);

    ASSERT_TRUE(
        m.kernel.sysctl().set("vm.migration_rate_limit_mbps", "1"));
    // Tokens accrue only from the moment the limit was set: the very
    // next request must defer, not ride a spurious one-second burst.
    const auto res = m.engine().demote(m.pte(base).pfn);
    EXPECT_EQ(res.outcome, MigrateOutcome::Deferred);
    EXPECT_EQ(m.kernel.vmstat().get(Vm::PgMigrateDeferred), 1u);

    // After a real 100 ms of accrual the bucket admits again.
    m.eq.run(m.eq.now() + 100 * kMillisecond);
    EXPECT_EQ(m.engine().demote(m.pte(base).pfn).outcome,
              MigrateOutcome::Queued);
}

TEST(MigrationEngine, RateLimitLoweredClampsOutstandingTokens)
{
    // Regression: lowering the limit never clamped tokens already in
    // the bucket, so a tenant could spend a burst earned at the old
    // (higher) rate after being throttled down.
    MigrationConfig cfg = asyncConfig();
    cfg.rateLimitMBps = 100.0; // burst = 10 MB
    AsyncMachine m(cfg);
    const Vpn base = m.populate(8);
    m.eq.run(m.eq.now() + 1 * kSecond); // bucket is full

    // Down to one page per 100 ms burst window (as in
    // TokenBucketBoundsAdmission): the old 10 MB of tokens must not
    // survive the change.
    ASSERT_TRUE(m.kernel.sysctl().set("vm.migration_rate_limit_mbps",
                                      "0.04096"));
    std::uint64_t queued = 0, deferred = 0;
    for (std::uint64_t i = 0; i < 8; ++i) {
        const auto res = m.engine().demote(m.pte(base + i).pfn);
        if (res.outcome == MigrateOutcome::Queued)
            queued++;
        else if (res.outcome == MigrateOutcome::Deferred)
            deferred++;
    }
    EXPECT_EQ(queued, 1u);
    EXPECT_EQ(deferred, 7u);
}

TEST(MigrationEngine, RateLimitSysctlRejectsHostileValues)
{
    AsyncMachine m;
    SysctlRegistry &sysctl = m.kernel.sysctl();
    EXPECT_FALSE(sysctl.set("vm.migration_rate_limit_mbps", "nan"));
    EXPECT_FALSE(sysctl.set("vm.migration_rate_limit_mbps", "inf"));
    EXPECT_FALSE(sysctl.set("vm.migration_rate_limit_mbps", "-1"));
    EXPECT_EQ(sysctl.get("vm.migration_rate_limit_mbps"), "0");
    // The queue depth knob floors at 1: a zero-depth queue would defer
    // every request forever.
    EXPECT_FALSE(sysctl.set("vm.migration_queue_depth", "0"));
    EXPECT_FALSE(sysctl.set("vm.migration_queue_depth", "-1"));
}

TEST(MigrationEngine, AbortOnAccessDuringCopyWindow)
{
    AsyncMachine m;
    const Vpn base = m.populate(2);
    const Pfn pfn = m.pte(base).pfn;

    ASSERT_EQ(m.engine().demote(pfn).outcome, MigrateOutcome::Queued);
    // Run just past the drain tick: the copy is now in flight but not
    // complete (copy cost ~ 1 µs at test scale).
    m.eq.run(m.eq.now() + asyncConfig().drainPeriod);
    ASSERT_EQ(m.engine().inFlightCount(), 1u);
    ASSERT_TRUE(m.mem.frame(pfn).underMigration());

    // The access wins the race: the transaction aborts, the page stays
    // on its source node, and the busy failure is counted.
    const AccessResult res =
        m.kernel.access(m.asid, base, AccessKind::Load, 0);
    EXPECT_EQ(res.servedBy, m.local());
    EXPECT_EQ(m.engine().inFlightCount(), 0u);
    EXPECT_EQ(m.kernel.vmstat().get(Vm::PgMigrateFailBusy), 1u);
    EXPECT_EQ(m.pte(base).pfn, pfn);

    const PageFrame &frame = m.mem.frame(pfn);
    EXPECT_FALSE(frame.underMigration());
    EXPECT_FALSE(frame.isolated());
    EXPECT_NE(frame.lru, LruListId::None);

    // The aborted copy's completion event must not fire later.
    m.settle();
    EXPECT_EQ(m.kernel.vmstat().get(Vm::PgMigrateSuccess), 0u);
    EXPECT_EQ(m.mem.frame(m.pte(base).pfn).nid, m.local());
}

TEST(MigrationEngine, MunmapWhileQueuedDropsStaleRequest)
{
    AsyncMachine m;
    const Vpn base = m.populate(2);
    const Pfn pfn = m.pte(base).pfn;

    ASSERT_EQ(m.engine().demote(pfn).outcome, MigrateOutcome::Queued);
    m.kernel.munmap(m.asid, base, 2);
    EXPECT_TRUE(m.mem.frame(pfn).isFree());
    // The queue still holds the request; the drain detects it stale.
    EXPECT_EQ(m.engine().queuedDemotions(m.local()), 1u);

    m.settle();
    EXPECT_TRUE(m.engine().idle());
    EXPECT_EQ(m.kernel.vmstat().get(Vm::PgMigrateSuccess), 0u);
    EXPECT_EQ(m.kernel.vmstat().get(Vm::PgMigrateFail), 1u);
}

TEST(MigrationEngine, MunmapDuringCopyWindowAbortsInFlight)
{
    AsyncMachine m;
    const Vpn base = m.populate(2);
    const Pfn pfn = m.pte(base).pfn;

    ASSERT_EQ(m.engine().demote(pfn).outcome, MigrateOutcome::Queued);
    m.eq.run(m.eq.now() + asyncConfig().drainPeriod);
    ASSERT_EQ(m.engine().inFlightCount(), 1u);

    const std::uint64_t cxl_free_before = m.mem.node(m.cxl()).freePages();
    m.kernel.munmap(m.asid, base, 2);
    EXPECT_EQ(m.engine().inFlightCount(), 0u);
    EXPECT_TRUE(m.mem.frame(pfn).isFree());
    // The reserved destination frame went back to its free list.
    EXPECT_EQ(m.mem.node(m.cxl()).freePages(), cxl_free_before + 1);
    EXPECT_EQ(m.kernel.vmstat().get(Vm::PgMigrateFail), 1u);

    m.settle();
    EXPECT_EQ(m.kernel.vmstat().get(Vm::PgMigrateSuccess), 0u);
}

TEST(MigrationEngine, DemotionTargetOomFallsBackMidBatch)
{
    // CXL node with almost no headroom: the first queued demotions fill
    // it, the rest find it OOM at drain time and fall back to classic
    // reclaim (swap-out) exactly as the sync path does.
    AsyncMachine m(asyncConfig(), 1024, 16);
    const Vpn base = m.populate(32);

    std::uint64_t queued = 0;
    for (std::uint64_t i = 0; i < 32; ++i)
        if (m.engine().demote(m.pte(base + i).pfn).outcome ==
            MigrateOutcome::Queued)
            queued++;
    ASSERT_EQ(queued, 32u);

    m.settle();
    EXPECT_TRUE(m.engine().idle());
    const VmStat &vs = m.kernel.vmstat();
    EXPECT_GT(vs.get(Vm::PgMigrateSuccess), 0u);
    EXPECT_GT(vs.get(Vm::PgDemoteFail), 0u);
    EXPECT_GT(vs.get(Vm::PswpOut), 0u);
    EXPECT_EQ(vs.get(Vm::PgMigrateSuccess) + vs.get(Vm::PgDemoteFail),
              32u);
    // No page may be stranded: every one is resident somewhere or
    // swapped out.
    for (std::uint64_t i = 0; i < 32; ++i) {
        const Pte &pte = m.pte(base + i);
        EXPECT_TRUE(pte.present() || pte.swapped()) << i;
    }
}

TEST(MigrationEngine, AsyncPromotionMovesPageUpward)
{
    AsyncMachine m;
    const Vpn base = m.populate(2);
    const Pfn pfn = m.pte(base).pfn;
    // Demote synchronously first so there is a CXL page to promote.
    ASSERT_TRUE(m.kernel
                    .migration()
                    .demote(pfn, MigrateUrgency::Direct)
                    .freed);
    const Pfn cxl_pfn = m.pte(base).pfn;
    ASSERT_EQ(m.mem.frame(cxl_pfn).nid, m.cxl());

    auto res = m.engine().promote(cxl_pfn, m.cxl(), m.local());
    EXPECT_EQ(res.outcome, MigrateOutcome::Queued);
    EXPECT_EQ(m.engine().queuedPromotions(m.local()), 1u);

    m.settle();
    EXPECT_TRUE(m.engine().idle());
    EXPECT_EQ(m.mem.frame(m.pte(base).pfn).nid, m.local());
    EXPECT_EQ(m.kernel.vmstat().get(Vm::PgPromoteSuccess), 1u);
    // Promotion cleared PG_demoted (ping-pong detector contract).
    EXPECT_FALSE(m.mem.frame(m.pte(base).pfn).demoted());
}

TEST(MigrationEngine, BandwidthCostExceedsFlatUnderLoad)
{
    // With bandwidthCost the copy charge couples to node utilisation
    // through the latency model; at idle it is flat + transfer time.
    AsyncMachine m;
    const Vpn base = m.populate(1);
    auto res =
        m.engine().demote(m.pte(base).pfn, MigrateUrgency::Direct);
    EXPECT_GT(res.latencyNs, m.kernel.costs().migratePage);
}

} // namespace
} // namespace tpp
