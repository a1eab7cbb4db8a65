/**
 * @file
 * Golden fingerprints: bit-exact pins of whole runs, one row per config.
 *
 * Every figure in EXPERIMENTS.md rests on these rows. Each row runs one
 * test-scale config and compares its result, to the last bit (%.17g),
 * with a fingerprint captured earlier:
 *
 *  - fig15/16/19: the sync migration mode (the default MigrationConfig)
 *    reproduces the pre-engine kernel, which migrated inline at a flat
 *    per-page cost.
 *  - three_tier / dual_socket: the --topology machines.
 *  - async_cache1: the asynchronous, transactional engine with PPT and
 *    the adaptive policy left at their defaults (off).
 *  - web_*: the closed-loop, open-loop and harvest outputs (hot-set
 *    recall, the tail summary, the Chameleon profile, the sampler
 *    series) of one workload; tenants_*: two co-located tenants.
 *
 * An "off == pre-feature" equivalence is a row of its own: it copies
 * the row whose pin it must reproduce and spells the feature's off
 * state out (vm.ppt.enable=0), or attaches an observer that must not
 * move a result.
 *
 * Subsystems a row leaves off must stay silent: PPT and the adaptive
 * policy everywhere, the async engine on sync rows, memcg protection
 * when there are no tenants.
 */

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness/experiment.hh"
#include "mm/vmstat.hh"

namespace tpp {
namespace {

/** Counters of the pre-engine seed tree, covered by seedVmHash. */
constexpr std::size_t kSeedVmCounters = 35;
/**
 * Counters that existed when the full hashes were captured. Counters
 * appended later do not disturb them; the silent checks cover them.
 */
constexpr std::size_t kPinnedVmCounters = 56;
static_assert(kNumVmCounters >= kPinnedVmCounters);

std::uint64_t
vmHash(const VmStat &vmstat, std::size_t n)
{
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < n; ++i)
        sum = sum * 1000003u + vmstat.get(static_cast<Vm>(i));
    return sum;
}

struct TenantPin {
    double throughput;
    double meanLatencyNs;
    std::uint64_t pagesLocal;
    std::uint64_t pagesTotal;
};

struct OpenLoopPin {
    std::uint64_t requests;
    double p99Ns;
    double p999Ns;
    double sloAttainment;
    double goodputQps;
    double meanQueueDepth;
};

/**
 * What a row's run must reproduce; unset harvest fields must read zero.
 * Each number its original per-feature suite pinned is kept as it was;
 * the rest (localTrafficShare and vmHash everywhere, seedVmHash and the
 * four counters where that suite had none) were captured when those
 * suites were merged into this table.
 */
struct Fingerprint {
    double throughput;
    double meanLatencyNs;
    double localTrafficShare;
    std::uint64_t seedVmHash;
    std::uint64_t vmHash;
    std::uint64_t migrateSuccess;
    std::uint64_t demoteAnon;
    std::uint64_t promoteSuccess;
    std::uint64_t swapOut;
    std::vector<TenantPin> tenants = {};
    std::optional<OpenLoopPin> openLoop = {};
    double hotSetRecall = 0.0;
    std::uint64_t hotSetPages = 0;
    std::size_t chameleonIntervals = 0;
    double chameleonHotFraction = 0.0;
    std::size_t seriesPoints = 0;
};

struct GoldenRow {
    std::string tag;
    ExperimentConfig config;
    Fingerprint expected;
};

// gtest prints a parameter into the test name. Without this, the name
// would be a byte dump of the row, pointers included, and change from
// build to build; the tag is stable.
void
PrintTo(const GoldenRow &row, std::ostream *os)
{
    *os << row.tag;
}

/** fig15/16/19 at test scale: 8k pages, 10 s, the last 4 s measured. */
ExperimentConfig
paperConfig(const char *workload, const char *policy,
            double local_fraction)
{
    ExperimentConfig cfg;
    cfg.workload = workload;
    cfg.policy = policy;
    cfg.localFraction = local_fraction;
    cfg.wssPages = 8192;
    cfg.runUntil = 10 * kSecond;
    cfg.measureFrom = 6 * kSecond;
    cfg.seed = 1;
    return cfg;
}

ExperimentConfig
topologyConfig(const char *topology, const char *policy)
{
    ExperimentConfig cfg = paperConfig("web", policy, 2.0 / 3.0);
    cfg.topology = topology;
    return cfg;
}

/** cache1 on the async engine: 8k pages, 4 s, the last 2 s measured. */
ExperimentConfig
asyncConfig(const char *policy)
{
    ExperimentConfig cfg;
    cfg.workload = "cache1";
    cfg.policy = policy;
    cfg.wssPages = 8192;
    cfg.runUntil = 4 * kSecond;
    cfg.measureFrom = 2 * kSecond;
    cfg.seed = 7;
    cfg.migration = MigrationConfig::asyncEngine();
    return cfg;
}

/** tpp on 4k pages, 6 s, the last 3 s measured. */
ExperimentConfig
smallConfig(double local_fraction)
{
    ExperimentConfig cfg;
    cfg.workload = "web";
    cfg.policy = "tpp";
    cfg.wssPages = 4096;
    cfg.localFraction = local_fraction;
    cfg.runUntil = 6 * kSecond;
    cfg.measureFrom = 3 * kSecond;
    return cfg;
}

constexpr const char *kThreeTier =
    "local:pages=2048;cxl:pages=2048:lat=150;cxl-far:pages=8192:lat=300:"
    "bw=32";
constexpr const char *kDualSocket =
    "socket0:pages=2048;socket1:pages=4096;cxl:pages=4096:lat=150";

const GoldenRow &
rowTagged(const std::vector<GoldenRow> &rows, const std::string &tag)
{
    for (const GoldenRow &row : rows)
        if (row.tag == tag)
            return row;
    throw std::invalid_argument("no golden row " + tag);
}

std::vector<GoldenRow>
goldenRows()
{
    ExperimentConfig open_loop = smallConfig(0.5);
    open_loop.measureHotness = true;
    open_loop.openLoop.qps = 2e5;
    open_loop.openLoop.sloP99Us = 50.0;
    ExperimentConfig tenants = smallConfig(0.4);
    tenants.tenants = *parseTenants("cache1:low=0.5;churn");

    std::vector<GoldenRow> rows = {
        // The sync mode against the pre-engine kernel.
        {"fig15_web_linux", paperConfig("web", "linux", 2.0 / 3.0),
         {.throughput = 735435.18811931787,
          .meanLatencyNs = 105.92796876281473,
          .localTrafficShare = 0.87191539594818457,
          .seedVmHash = 17696498189085516543ull,
          .vmHash = 11968871844805853965ull,
          .migrateSuccess = 0, .demoteAnon = 0, .promoteSuccess = 0,
          .swapOut = 2104}},
        {"fig15_web_tpp", paperConfig("web", "tpp", 2.0 / 3.0),
         {.throughput = 785205.14820370195,
          .meanLatencyNs = 84.197993223045387,
          .localTrafficShare = 0.99971247743051139,
          .seedVmHash = 7071264301307134540ull,
          .vmHash = 3980707737189411364ull,
          .migrateSuccess = 8324, .demoteAnon = 2581,
          .promoteSuccess = 2358, .swapOut = 167}},
        {"fig16_cache1_linux", paperConfig("cache1", "linux", 0.2),
         {.throughput = 779422.65009620448,
          .meanLatencyNs = 120.50352733415521,
          .localTrafficShare = 0.45165997846098616,
          .seedVmHash = 16959053233026845536ull,
          .vmHash = 13692472458249858080ull,
          .migrateSuccess = 0, .demoteAnon = 0, .promoteSuccess = 0,
          .swapOut = 1183}},
        {"fig16_cache1_tpp", paperConfig("cache1", "tpp", 0.2),
         {.throughput = 828966.16160128347,
          .meanLatencyNs = 101.45804977284561,
          .localTrafficShare = 0.81992325010850176,
          .seedVmHash = 9021928028290526116ull,
          .vmHash = 7821187926501351596ull,
          .migrateSuccess = 179945, .demoteAnon = 3055,
          .promoteSuccess = 89835, .swapOut = 313}},
        {"fig19_cache1_numa", paperConfig("cache1", "numa-balancing", 0.2),
         {.throughput = 397460.99019746465,
          .meanLatencyNs = 427.919474596714,
          .localTrafficShare = 0.89684249208502942,
          .seedVmHash = 2756995061359096909ull,
          .vmHash = 4094444419576321559ull,
          .migrateSuccess = 38543, .demoteAnon = 0,
          .promoteSuccess = 38543, .swapOut = 60360}},
        {"fig19_cache1_at", paperConfig("cache1", "autotiering", 0.2),
         {.throughput = 838352.45415983011,
          .meanLatencyNs = 98.068991513717179,
          .localTrafficShare = 0.83918657178955403,
          .seedVmHash = 11536311823795798144ull,
          .vmHash = 5161637313706801536ull,
          .migrateSuccess = 40938, .demoteAnon = 1807,
          .promoteSuccess = 20423, .swapOut = 121}},

        // The tier hierarchy.
        {"three_tier_linux", topologyConfig(kThreeTier, "linux"),
         {.throughput = 622207.88568627601,
          .meanLatencyNs = 166.94136752960515,
          .localTrafficShare = 0.57646521027812525,
          .seedVmHash = 3235183705022800817ull,
          .vmHash = 128666712972510723ull,
          .migrateSuccess = 0, .demoteAnon = 0, .promoteSuccess = 0,
          .swapOut = 7502}},
        {"three_tier_tpp", topologyConfig(kThreeTier, "tpp"),
         {.throughput = 772102.93216927908,
          .meanLatencyNs = 89.555046479960282,
          .localTrafficShare = 0.94554889716339563,
          .seedVmHash = 8102812937963595728ull,
          .vmHash = 8218319802887477872ull,
          .migrateSuccess = 85103, .demoteAnon = 48909,
          .promoteSuccess = 28788, .swapOut = 0}},
        {"dual_socket_linux", topologyConfig(kDualSocket, "linux"),
         {.throughput = 741071.02862659865,
          .meanLatencyNs = 103.2713631037433,
          .localTrafficShare = 1,
          .seedVmHash = 14576798485097781451ull,
          .vmHash = 14754306036290473905ull,
          .migrateSuccess = 0, .demoteAnon = 0, .promoteSuccess = 0,
          .swapOut = 8604}},
        {"dual_socket_tpp", topologyConfig(kDualSocket, "tpp"),
         {.throughput = 781817.74948714487,
          .meanLatencyNs = 85.628501935122983,
          .localTrafficShare = 0.99965587322468585,
          .seedVmHash = 4176142575668096305ull,
          .vmHash = 10745300266852780675ull,
          .migrateSuccess = 28067, .demoteAnon = 20394,
          .promoteSuccess = 4637, .swapOut = 758}},

        // The async engine.
        {"async_cache1_tpp", asyncConfig("tpp"),
         {.throughput = 885032.08466061088,
          .meanLatencyNs = 82.177093674366191,
          .localTrafficShare = 0.99966440303221726,
          .seedVmHash = 8277222205083437108ull,
          .vmHash = 11937121443277445826ull,
          .migrateSuccess = 3211, .demoteAnon = 0,
          .promoteSuccess = 1348, .swapOut = 795}},
        {"async_cache1_linux", asyncConfig("linux"),
         {.throughput = 877081.35376088426,
          .meanLatencyNs = 84.851580286840516,
          .localTrafficShare = 0.99443086353701848,
          .seedVmHash = 3097187937878197799ull,
          .vmHash = 13885907298879728133ull,
          .migrateSuccess = 0, .demoteAnon = 0, .promoteSuccess = 0,
          .swapOut = 832}},
        {"async_cache1_hotness", asyncConfig("hotness"),
         {.throughput = 882147.07845425489,
          .meanLatencyNs = 83.29278817904779,
          .localTrafficShare = 0.9987690723049758,
          .seedVmHash = 5167669638709773114ull,
          .vmHash = 13709876617918270669ull,
          .migrateSuccess = 2106, .demoteAnon = 0,
          .promoteSuccess = 805, .swapOut = 880}},

        // One workload closed and open loop, and two tenants.
        {"web_closed_loop", smallConfig(0.5),
         {.throughput = 642830.21904824418,
          .meanLatencyNs = 82.74894846040668,
          .localTrafficShare = 0.99946905653739493,
          .seedVmHash = 16194574156810216023ull,
          .vmHash = 4920376970287881109ull,
          .migrateSuccess = 5568, .demoteAnon = 2308,
          .promoteSuccess = 1615, .swapOut = 125}},
        {"web_open_loop_hot_set", open_loop,
         {.throughput = 200189.78297693058,
          .meanLatencyNs = 86.326363122650022,
          .localTrafficShare = 0.9992853580004275,
          .seedVmHash = 15622331123437158833ull,
          .vmHash = 9442537201975640067ull,
          .migrateSuccess = 4185, .demoteAnon = 1637,
          .promoteSuccess = 904, .swapOut = 113,
          .openLoop = OpenLoopPin{600569, 5761.6746245058985,
                                  77328.974769234657, 0.99775046664080236,
                                  199739.44938195343, 0.85879602862715931},
          .hotSetRecall = 0.65312190287413285,
          .hotSetPages = 2018}},
        {"tenants_cache1_churn", tenants,
         {.throughput = 1492679.134195684,
          .meanLatencyNs = 114.87439717567175,
          .localTrafficShare = 0.69226481743256985,
          .seedVmHash = 14520130947402936781ull,
          .vmHash = 15475863538949867787ull,
          .migrateSuccess = 67756, .demoteAnon = 48841,
          .promoteSuccess = 12676, .swapOut = 56322,
          .tenants = {{843638.69766707905, 96.103095993565432, 659, 1571},
                      {649040.43652860483, 139.27323423578116, 978,
                       2553}}}},
    };

    // vm.ppt.enable=0 spelled out is invisible to the last bit, on the
    // sync kernel and on the async engine alike.
    for (const char *tag : {"fig15_web_tpp", "fig16_cache1_linux",
                            "async_cache1_tpp", "async_cache1_linux",
                            "async_cache1_hotness"}) {
        GoldenRow off = rowTagged(rows, tag);
        off.tag += "_ppt_off";
        off.config.sysctls.emplace_back("vm.ppt.enable", "0");
        rows.push_back(off);
    }

    // The Chameleon profiler and the sampler only observe: the run
    // reproduces web_closed_loop and adds its profile and series.
    GoldenRow profiled = rowTagged(rows, "web_closed_loop");
    profiled.tag += "_profiled";
    profiled.config.withChameleon = true;
    profiled.config.sampleSeries = true;
    profiled.expected.chameleonIntervals = 6;
    profiled.expected.chameleonHotFraction = 0.19561638712425625;
    profiled.expected.seriesPoints = 60;
    rows.push_back(profiled);
    return rows;
}

void
expectSilent(const VmStat &vmstat, std::initializer_list<Vm> counters)
{
    for (Vm counter : counters)
        EXPECT_EQ(vmstat.get(counter), 0u) << vmName(counter);
}

class Golden : public ::testing::TestWithParam<GoldenRow> {};

TEST_P(Golden, MatchesPin)
{
    const GoldenRow &row = GetParam();
    const Fingerprint &pin = row.expected;
    const ExperimentResult r = runExperiment(row.config);

    EXPECT_EQ(r.throughput, pin.throughput);
    EXPECT_EQ(r.meanAccessLatencyNs, pin.meanLatencyNs);
    EXPECT_EQ(r.localTrafficShare, pin.localTrafficShare);
    EXPECT_EQ(vmHash(r.vmstat, kSeedVmCounters), pin.seedVmHash);
    EXPECT_EQ(vmHash(r.vmstat, kPinnedVmCounters), pin.vmHash);
    EXPECT_EQ(r.vmstat.get(Vm::PgMigrateSuccess), pin.migrateSuccess);
    EXPECT_EQ(r.vmstat.get(Vm::PgDemoteAnon), pin.demoteAnon);
    EXPECT_EQ(r.vmstat.get(Vm::PgPromoteSuccess), pin.promoteSuccess);
    EXPECT_EQ(r.vmstat.get(Vm::PswpOut), pin.swapOut);

    expectSilent(r.vmstat,
                 {Vm::PptThrottledPromote, Vm::PptThrottledDemote,
                  Vm::PptEscalated, Vm::PptHistoryEvict,
                  Vm::AdaptiveWindow, Vm::AdaptiveTune,
                  Vm::AdaptiveRevert, Vm::AdaptiveSettled,
                  Vm::AdaptiveWake, Vm::AdaptiveFiltered,
                  Vm::AdaptiveFlapBias});
    if (!row.config.migration.async) {
        expectSilent(r.vmstat, {Vm::PgMigrateQueued, Vm::PgMigrateDeferred,
                                Vm::PgMigrateFailBusy});
    }
    if (row.config.tenants.empty()) {
        // memcg charges every fault, free and migration even with no
        // cgroup; with no floor or budget that stays invisible.
        expectSilent(r.vmstat, {Vm::MemcgReclaimProtected,
                                Vm::MemcgReclaimLow,
                                Vm::MemcgMigrateThrottled});
    }

    ASSERT_EQ(r.tenants.size(), pin.tenants.size());
    for (std::size_t i = 0; i < pin.tenants.size(); ++i) {
        EXPECT_EQ(r.tenants[i].throughput, pin.tenants[i].throughput) << i;
        EXPECT_EQ(r.tenants[i].meanAccessLatencyNs,
                  pin.tenants[i].meanLatencyNs) << i;
        EXPECT_EQ(r.tenants[i].pagesLocal, pin.tenants[i].pagesLocal) << i;
        EXPECT_EQ(r.tenants[i].pagesTotal, pin.tenants[i].pagesTotal) << i;
    }

    ASSERT_EQ(r.openLoop.enabled, pin.openLoop.has_value());
    if (pin.openLoop) {
        EXPECT_EQ(r.openLoop.requests, pin.openLoop->requests);
        EXPECT_EQ(r.openLoop.p99Ns, pin.openLoop->p99Ns);
        EXPECT_EQ(r.openLoop.p999Ns, pin.openLoop->p999Ns);
        EXPECT_EQ(r.openLoop.sloAttainment, pin.openLoop->sloAttainment);
        EXPECT_EQ(r.openLoop.goodputQps, pin.openLoop->goodputQps);
        EXPECT_EQ(r.openLoop.meanQueueDepth, pin.openLoop->meanQueueDepth);
    }

    EXPECT_EQ(r.hotSetRecall, pin.hotSetRecall);
    EXPECT_EQ(r.hotSetPages, pin.hotSetPages);
    EXPECT_EQ(r.chameleonIntervals.size(), pin.chameleonIntervals);
    EXPECT_EQ(r.chameleonHotFraction, pin.chameleonHotFraction);
    EXPECT_EQ(r.series.size(), pin.seriesPoints);
}

INSTANTIATE_TEST_SUITE_P(Rows, Golden, ::testing::ValuesIn(goldenRows()),
                         ::testing::PrintToStringParamName());

} // namespace
} // namespace tpp
