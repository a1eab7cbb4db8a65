/**
 * @file
 * Unit tests for the synthetic workload engine, the profile factories
 * and the trace-replay workload.
 */

#include "test_common.hh"
#include "workloads/profiles.hh"
#include "workloads/synthetic.hh"
#include "workloads/trace.hh"

namespace tpp {
namespace {

using test::TestMachine;

WorkloadProfile
tinyProfile()
{
    WorkloadProfile p;
    p.name = "tiny";
    p.opsPerBatch = 50;
    p.accessesPerOp = 2;
    RegionSpec r;
    r.label = "heap";
    r.type = PageType::Anon;
    r.pages = 256;
    r.hotFraction = 0.25;
    r.hotAccessShare = 0.9;
    p.regions.push_back(r);
    return p;
}

TEST(SyntheticWorkload, InitReservesRegions)
{
    TestMachine m(2048, 2048);
    SyntheticWorkload wl(tinyProfile());
    wl.init(m.kernel);
    const AddressSpace &as = m.kernel.addressSpace(wl.asid());
    ASSERT_EQ(as.vmas().size(), 1u);
    EXPECT_EQ(as.vmas()[0].pages, 256u);
    EXPECT_EQ(wl.totalReservedPages(), 256u);
    EXPECT_TRUE(wl.warmedUp()); // no sequential warm-up region
}

TEST(SyntheticWorkload, BatchIssuesConfiguredAccesses)
{
    TestMachine m(2048, 2048);
    SyntheticWorkload wl(tinyProfile());
    wl.init(m.kernel);
    const BatchResult res = wl.runBatch(m.kernel);
    EXPECT_EQ(res.ops, 50u);
    EXPECT_EQ(res.accesses, 100u);
    EXPECT_GT(res.durationNs, 0.0);
    EXPECT_GT(res.memLatencyNs, 0.0);
}

TEST(SyntheticWorkload, WarmupTouchesSequentially)
{
    TestMachine m(2048, 2048);
    WorkloadProfile p = tinyProfile();
    p.regions[0].sequentialWarmup = true;
    p.warmupChunkPages = 64;
    SyntheticWorkload wl(p);
    wl.init(m.kernel);
    EXPECT_FALSE(wl.warmedUp());
    int chunks = 0;
    while (!wl.warmedUp()) {
        const BatchResult res = wl.runBatch(m.kernel);
        EXPECT_EQ(res.ops, 0u); // warm-up completes no operations
        chunks++;
        ASSERT_LT(chunks, 100);
    }
    EXPECT_EQ(chunks, 4); // 256 pages / 64 per chunk
    EXPECT_EQ(m.kernel.addressSpace(wl.asid()).residentPages(), 256u);
}

TEST(SyntheticWorkload, DeterministicAcrossSeeds)
{
    TestMachine m1(2048, 2048);
    TestMachine m2(2048, 2048);
    SyntheticWorkload a(tinyProfile()), b(tinyProfile());
    a.init(m1.kernel);
    b.init(m2.kernel);
    for (int i = 0; i < 5; ++i) {
        const BatchResult ra = a.runBatch(m1.kernel);
        const BatchResult rb = b.runBatch(m2.kernel);
        EXPECT_DOUBLE_EQ(ra.durationNs, rb.durationNs);
        EXPECT_EQ(ra.accesses, rb.accesses);
    }
    EXPECT_EQ(m1.kernel.vmstat().get(Vm::PgFault),
              m2.kernel.vmstat().get(Vm::PgFault));
}

TEST(SyntheticWorkload, GrowthExpandsActiveSet)
{
    TestMachine m(4096, 4096);
    WorkloadProfile p = tinyProfile();
    p.regions[0].pages = 1024;
    p.regions[0].initialActiveFraction = 0.1;
    p.regions[0].growthPagesPerSec = 4096.0;
    SyntheticWorkload wl(p);
    wl.init(m.kernel);
    wl.runBatch(m.kernel);
    const std::uint64_t early =
        m.kernel.addressSpace(wl.asid()).residentPages();
    m.eq.run(m.eq.now() + 200 * kMillisecond);
    for (int i = 0; i < 20; ++i)
        wl.runBatch(m.kernel);
    EXPECT_GT(m.kernel.addressSpace(wl.asid()).residentPages(), early);
}

TEST(SyntheticWorkload, TransientsAllocateAndRetire)
{
    TestMachine m(4096, 4096);
    WorkloadProfile p = tinyProfile();
    p.transient.regionsPerSecond = 1000.0;
    p.transient.regionPages = 8;
    p.transient.lifetime = 50 * kMillisecond;
    SyntheticWorkload wl(p);
    wl.init(m.kernel);
    // Advance time so the allocation credit accrues, then run batches.
    for (int round = 0; round < 10; ++round) {
        m.eq.run(m.eq.now() + 20 * kMillisecond);
        wl.runBatch(m.kernel);
    }
    const AddressSpace &as = m.kernel.addressSpace(wl.asid());
    // Transient VMAs exist but old ones must have been retired: with a
    // 50 ms lifetime at 1000 regions/s, far fewer than the ~200 created
    // can be live at once.
    EXPECT_GT(as.vmas().size(), 1u);
    EXPECT_LT(as.vmas().size(), 80u);
}

TEST(SyntheticWorkload, ChurnReplacesRegion)
{
    TestMachine m(4096, 4096);
    WorkloadProfile p = tinyProfile();
    p.regions[0].churnPeriod = 100 * kMillisecond;
    SyntheticWorkload wl(p);
    wl.init(m.kernel);
    wl.runBatch(m.kernel);
    const std::uint64_t faults_before =
        m.kernel.vmstat().get(Vm::PgFault);
    m.eq.run(m.eq.now() + 200 * kMillisecond);
    wl.runBatch(m.kernel);
    // The region was dropped and re-faulted.
    EXPECT_GT(m.kernel.vmstat().get(Vm::PgFault), faults_before);
}

TEST(SyntheticWorkload, ObserverSeesEveryAccess)
{
    TestMachine m(2048, 2048);
    SyntheticWorkload wl(tinyProfile());
    std::uint64_t observed = 0;
    wl.setObserver([&](const AccessRecord &) { observed++; });
    wl.init(m.kernel);
    const BatchResult res = wl.runBatch(m.kernel);
    EXPECT_EQ(observed, res.accesses);
}

/**
 * FNV-1a hash of every (vpn, kind) a workload makes over `batches`
 * batches of 200 operations, one batch per 20 ms of simulated time.
 */
std::uint64_t
accessStreamHash(WorkloadProfile profile, int batches)
{
    profile.opsPerBatch = 200;
    TestMachine m(2048, 8192);
    SyntheticWorkload wl(std::move(profile));
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    const auto mix = [&hash](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            hash ^= (v >> (8 * i)) & 0xff;
            hash *= 0x100000001b3ULL;
        }
    };
    wl.setObserver([&](const AccessRecord &rec) {
        mix(rec.vpn);
        mix(static_cast<std::uint64_t>(rec.kind));
    });
    wl.init(m.kernel);
    for (int i = 0; i < batches; ++i) {
        wl.runBatch(m.kernel);
        m.eq.run(m.eq.now() + 20 * kMillisecond);
    }
    return hash;
}

/**
 * Three regions for the generator's edge paths: an echo zone over a
 * hot window as large as the region, a growing region gated off for
 * most of each phase (its sampler must be rebuilt only when it is next
 * drawn), and a hot window wider than the region (offsets wrap more
 * than once).
 */
WorkloadProfile
edgeProfile()
{
    WorkloadProfile p;
    p.name = "edges";
    p.seed = 7;
    RegionSpec echo;
    echo.label = "echo";
    echo.pages = 1024;
    echo.initialActiveFraction = 0.5;
    echo.growthPagesPerSec = 256.0;
    echo.hotFraction = 1.0;
    echo.hotAccessShare = 0.6;
    echo.echoShare = 0.3;
    echo.zipfTheta = 0.99;
    echo.rotationPeriod = 250 * kMillisecond;
    echo.rotationStep = 0.3;
    p.regions.push_back(echo);
    RegionSpec gated;
    gated.label = "gated";
    gated.pages = 1024;
    gated.initialActiveFraction = 0.25;
    gated.growthPagesPerSec = 300.0;
    gated.hotFraction = 0.3;
    gated.hotAccessShare = 0.8;
    gated.phasePeriod = 2 * kSecond;
    gated.phaseDuty = 0.25;
    gated.phaseOffWeight = 0.0;
    p.regions.push_back(gated);
    RegionSpec wide;
    wide.label = "wide";
    wide.pages = 512;
    wide.accessWeight = 0.3;
    wide.hotFraction = 1.5;
    wide.hotAccessShare = 0.5;
    wide.echoShare = 0.3;
    wide.rotationPeriod = 100 * kMillisecond;
    wide.rotationStep = 0.4;
    p.regions.push_back(wide);
    return p;
}

TEST(SyntheticWorkload, AccessStreamIsPinned)
{
    // Hashes captured before the generator's per-batch hoisting and the
    // Zipf bucket table; both must leave every access unchanged. 200
    // batches span 4 simulated seconds: web's growth, growth-anchored
    // hot window, rotation and transients; phased's first phase flip;
    // churn's first whole-region churn.
    EXPECT_EQ(accessStreamHash(profiles::web(4096, 7), 200),
              2334173791130076180ULL);
    EXPECT_EQ(accessStreamHash(profiles::phased(4096, 7), 200),
              3420034905426392298ULL);
    EXPECT_EQ(accessStreamHash(profiles::churn(4096, 7), 200),
              10611057171459181640ULL);
    EXPECT_EQ(accessStreamHash(edgeProfile(), 200),
              6431021026025038742ULL);
}

TEST(Profiles, AllFourBuildAndSumNearWss)
{
    for (const char *name : {"web", "cache1", "cache2", "dwh"}) {
        const WorkloadProfile p = profiles::byName(name, 10000);
        EXPECT_FALSE(p.regions.empty());
        std::uint64_t total = 0;
        for (const RegionSpec &r : p.regions)
            total += r.pages;
        EXPECT_GE(total, 9000u);
        EXPECT_LE(total, 10500u);
    }
}

TEST(Profiles, WebShape)
{
    const WorkloadProfile p = profiles::web(10000);
    ASSERT_EQ(p.regions.size(), 2u);
    EXPECT_EQ(p.regions[0].type, PageType::File);
    EXPECT_TRUE(p.regions[0].diskBacked);
    EXPECT_TRUE(p.regions[0].sequentialWarmup);
    EXPECT_EQ(p.regions[1].type, PageType::Anon);
    EXPECT_GT(p.regions[1].growthPagesPerSec, 0.0);
    EXPECT_TRUE(p.regions[1].hotFollowsGrowth);
    EXPECT_GT(p.transient.regionsPerSecond, 0.0);
}

TEST(Profiles, CacheUsesTmpfs)
{
    for (const char *name : {"cache1", "cache2"}) {
        const WorkloadProfile p = profiles::byName(name, 10000);
        bool has_tmpfs = false;
        for (const RegionSpec &r : p.regions) {
            if (r.type == PageType::File) {
                EXPECT_FALSE(r.diskBacked); // tmpfs is swap-backed
                has_tmpfs = true;
            }
        }
        EXPECT_TRUE(has_tmpfs);
    }
}

TEST(Profiles, DwhIsAnonDominated)
{
    const WorkloadProfile p = profiles::dataWarehouse(10000);
    std::uint64_t anon = 0, file = 0;
    for (const RegionSpec &r : p.regions) {
        if (r.type == PageType::Anon)
            anon += r.pages;
        else
            file += r.pages;
    }
    EXPECT_GT(anon, 4 * file);
}

TEST(ProfilesDeathTest, UnknownNameIsFatal)
{
    setLogVerbose(false);
    EXPECT_DEATH(profiles::byName("nope", 1000), "unknown workload");
}

TEST(TraceWorkload, ReplaysInOrder)
{
    TestMachine m(2048, 2048);
    std::vector<TraceEntry> trace;
    for (int i = 0; i < 10; ++i)
        trace.push_back({static_cast<std::uint64_t>(i % 4),
                         AccessKind::Load});
    TraceWorkload wl(4, trace, PageType::Anon, 6);
    wl.init(m.kernel);
    BatchResult r1 = wl.runBatch(m.kernel);
    EXPECT_EQ(r1.accesses, 6u);
    EXPECT_FALSE(wl.done());
    BatchResult r2 = wl.runBatch(m.kernel);
    EXPECT_EQ(r2.accesses, 4u);
    EXPECT_TRUE(wl.done());
    EXPECT_EQ(m.kernel.addressSpace(wl.asid()).residentPages(), 4u);
}

TEST(TraceWorkloadDeathTest, OutOfRangeEntryIsFatal)
{
    setLogVerbose(false);
    EXPECT_DEATH(TraceWorkload(4, {{9, AccessKind::Load}}),
                 "beyond region");
}

} // namespace
} // namespace tpp
