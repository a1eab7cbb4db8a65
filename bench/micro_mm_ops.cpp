/**
 * @file
 * google-benchmark microbenchmarks for the hot mechanisms: the access
 * path, fault path, allocator, LRU surgery, migration, reclaim scan,
 * and the simulation primitives they sit on. These bound the simulator's
 * own overheads and document the relative costs the policies pay.
 *
 * The BM_E2E* benchmarks run whole fault+reclaim / promote passes over
 * a 2^18-page footprint and report pages/sec rate counters. No gate
 * reads these numbers: they explain where the time of an end-to-end
 * perfbench run goes (see README "Performance & perf gate").
 */

#include <benchmark/benchmark.h>

#include <memory>

#include "core/tpp_policy.hh"
#include "mm/kernel.hh"
#include "policy/adaptive/adaptive_policy.hh"
#include "policy/default_linux.hh"
#include "sim/distributions.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"

namespace {

using namespace tpp;

/** Fixture bundle: one small tiered machine + kernel + one process. */
struct Machine {
    EventQueue eq;
    MemorySystem mem;
    Kernel kernel;
    Asid asid;

    explicit Machine(std::uint64_t local = 8192, std::uint64_t cxl = 8192,
                     std::unique_ptr<PlacementPolicy> policy =
                         std::make_unique<DefaultLinuxPolicy>())
        : mem(TopologyBuilder::cxlSystem(local, cxl)),
          kernel(mem, eq, std::move(policy)), asid(kernel.createProcess())
    {
        setLogVerbose(false);
        kernel.start();
    }
};

void
BM_RngNext(benchmark::State &state)
{
    Rng rng(42);
    for (auto _ : state)
        benchmark::DoNotOptimize(rng.next());
}
BENCHMARK(BM_RngNext);

/** Args: population n, theta in thousandths. The steady state is timed,
 *  so the sampler's bucket table is built and serving draws. */
void
BM_ZipfSample(benchmark::State &state)
{
    Rng rng(42);
    ZipfDistribution zipf(static_cast<std::uint64_t>(state.range(0)),
                          static_cast<double>(state.range(1)) / 1000.0);
    for (auto _ : state)
        benchmark::DoNotOptimize(zipf(rng));
}
// 1024 and 2^20 at the YCSB default skew, then cache1's two hot windows
// at the default working set (heap: 3145 pages, store: 6225 pages).
BENCHMARK(BM_ZipfSample)
    ->ArgNames({"n", "theta_milli"})
    ->Args({1024, 990})
    ->Args({1048576, 990})
    ->Args({3145, 900})
    ->Args({6225, 990});

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    EventQueue eq;
    for (auto _ : state) {
        eq.scheduleAfter(10, [] {});
        eq.run(eq.now() + 10);
    }
}
BENCHMARK(BM_EventQueueScheduleRun);

void
BM_AccessResident(benchmark::State &state)
{
    Machine m;
    const Vpn base = m.kernel.mmap(m.asid, 1024, PageType::Anon, "bench");
    for (Vpn v = 0; v < 1024; ++v)
        m.kernel.access(m.asid, base + v, AccessKind::Store, 0);
    Vpn v = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            m.kernel.access(m.asid, base + (v++ & 1023),
                            AccessKind::Load, 0));
    }
}
BENCHMARK(BM_AccessResident);

void
BM_MinorFault(benchmark::State &state)
{
    Machine m(1 << 20, 1 << 20);
    const Vpn base =
        m.kernel.mmap(m.asid, 1 << 20, PageType::Anon, "bench");
    Vpn v = 0;
    for (auto _ : state) {
        if (v >= (1 << 20)) {
            state.PauseTiming();
            m.kernel.munmap(m.asid, base, 1 << 20);
            m.kernel.mmap(m.asid, 1 << 20, PageType::Anon, "bench");
            v = 0;
            state.ResumeTiming();
        }
        benchmark::DoNotOptimize(
            m.kernel.access(m.asid, base + v++, AccessKind::Store, 0));
    }
    state.counters["pages_per_sec"] = benchmark::Counter(
        static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_MinorFault);

void
BM_AllocFree(benchmark::State &state)
{
    Machine m;
    const Vpn base = m.kernel.mmap(m.asid, 1, PageType::Anon, "bench");
    for (auto _ : state) {
        m.kernel.access(m.asid, base, AccessKind::Store, 0);
        m.kernel.freeFrame(m.kernel.addressSpace(m.asid).pte(base).pfn);
    }
}
BENCHMARK(BM_AllocFree);

void
BM_LruActivateDeactivate(benchmark::State &state)
{
    Machine m;
    const Vpn base = m.kernel.mmap(m.asid, 512, PageType::Anon, "bench");
    for (Vpn v = 0; v < 512; ++v)
        m.kernel.access(m.asid, base + v, AccessKind::Store, 0);
    const Pfn pfn = m.kernel.addressSpace(m.asid).pte(base).pfn;
    LruSet &lru = m.kernel.lru(m.mem.frame(pfn).nid);
    for (auto _ : state) {
        lru.activate(pfn);
        lru.deactivate(pfn);
    }
    state.counters["lru_ops_per_sec"] = benchmark::Counter(
        static_cast<double>(state.iterations()) * 2.0,
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_LruActivateDeactivate);

void
BM_MigratePage(benchmark::State &state)
{
    Machine m;
    const Vpn base = m.kernel.mmap(m.asid, 256, PageType::Anon, "bench");
    for (Vpn v = 0; v < 256; ++v)
        m.kernel.access(m.asid, base + v, AccessKind::Store, 0);
    const NodeId cxl = m.mem.cxlNodes().front();
    const NodeId local = m.mem.cpuNodes().front();
    bool to_cxl = true;
    for (auto _ : state) {
        const Pfn pfn = m.kernel.addressSpace(m.asid).pte(base).pfn;
        benchmark::DoNotOptimize(m.kernel.migratePage(
            pfn, to_cxl ? cxl : local, AllocReason::Demotion));
        to_cxl = !to_cxl;
    }
}
BENCHMARK(BM_MigratePage);

void
BM_ReclaimScan(benchmark::State &state)
{
    for (auto _ : state) {
        state.PauseTiming();
        Machine m(2048, 65536);
        const Vpn base =
            m.kernel.mmap(m.asid, 1800, PageType::Anon, "bench");
        for (Vpn v = 0; v < 1800; ++v)
            m.kernel.access(m.asid, base + v, AccessKind::Store, 0);
        state.ResumeTiming();
        benchmark::DoNotOptimize(m.kernel.directReclaim(0, 64));
    }
    state.counters["pages_per_sec"] = benchmark::Counter(
        static_cast<double>(state.iterations()) * 64.0,
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ReclaimScan)->Unit(benchmark::kMicrosecond);

void
BM_NumaSample(benchmark::State &state)
{
    Machine m(8192, 8192, std::make_unique<TppPolicy>());
    const Vpn base = m.kernel.mmap(m.asid, 4096, PageType::Anon, "bench");
    for (Vpn v = 0; v < 4096; ++v)
        m.kernel.access(m.asid, base + v, AccessKind::Store, 0);
    const NodeId local = m.mem.cpuNodes().front();
    for (auto _ : state)
        benchmark::DoNotOptimize(m.kernel.sampleNode(local, 64));
}
BENCHMARK(BM_NumaSample);

void
BM_AdaptiveWindowTick(benchmark::State &state)
{
    // Per-window cost of the adaptive tuner's profile/infer step:
    // vmstat snapshot differencing, objective scoring, touch-filter
    // epoch upkeep and the occasional knob step through the sysctl
    // surface. Every window pays this whether or not a knob
    // moves, so it is reported as seconds per window (smaller is
    // better) rather than as a rate.
    PolicyParams params;
    params.adaptive.windowPeriod = 1 * kMillisecond;
    Machine m(8192, 8192, std::make_unique<AdaptivePolicy>(params));
    const Vpn base = m.kernel.mmap(m.asid, 2048, PageType::Anon, "bench");
    for (Vpn v = 0; v < 2048; ++v)
        m.kernel.access(m.asid, base + v, AccessKind::Store, 0);
    for (auto _ : state)
        m.eq.run(m.eq.now() + 1 * kMillisecond);
    state.counters["sec_per_window"] = benchmark::Counter(
        static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_AdaptiveWindowTick);

// ---------------------------------------------------------------------
// End-to-end throughput: whole passes over a large footprint under TPP,
// exercising fault, watermark reclaim/demotion, NUMA sampling and
// promotion together — the paths the SoA frame table was built for.
// ---------------------------------------------------------------------

/** Footprint for the BM_E2E* passes, in pages (1 GiB). */
constexpr std::uint64_t kE2EPages = 1ULL << 18;

/** A 2:1 tiered machine with 3% headroom over `wss`, running TPP. */
struct E2EMachine {
    std::uint64_t wss;
    EventQueue eq;
    MemorySystem mem;
    Kernel kernel;
    Asid asid;
    Vpn base;

    explicit E2EMachine(std::uint64_t wss_pages)
        : wss(wss_pages),
          mem(TopologyBuilder::cxlSystem(
              static_cast<std::uint64_t>(
                  static_cast<double>(wss_pages) * 1.03 * (2.0 / 3.0)),
              static_cast<std::uint64_t>(
                  static_cast<double>(wss_pages) * 1.03) -
                  static_cast<std::uint64_t>(static_cast<double>(
                      wss_pages) * 1.03 * (2.0 / 3.0)))),
          kernel(mem, eq, std::make_unique<TppPolicy>()),
          asid(kernel.createProcess()),
          base(kernel.mmap(asid, wss_pages, PageType::Anon, "bench"))
    {
        setLogVerbose(false);
        kernel.start();
    }

    /** Touch every page once, stepping the clock so daemons run. */
    void
    sweep(AccessKind kind)
    {
        for (Vpn v = 0; v < wss; ++v) {
            kernel.access(asid, base + v, kind, 0);
            eq.run(eq.now() + 200);
        }
    }
};

void
BM_E2EFaultReclaim(benchmark::State &state)
{
    // Cold pass: every access faults, and the local tier fills at 2/3
    // of the footprint, so the back third of the sweep runs against
    // active watermark reclaim and demotion.
    for (auto _ : state) {
        state.PauseTiming();
        auto m = std::make_unique<E2EMachine>(kE2EPages);
        state.ResumeTiming();
        m->sweep(AccessKind::Store);
    }
    state.counters["pages_per_sec"] = benchmark::Counter(
        static_cast<double>(state.iterations()) *
            static_cast<double>(kE2EPages),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_E2EFaultReclaim)->Unit(benchmark::kMillisecond);

void
BM_E2EPromoteChurn(benchmark::State &state)
{
    // Steady state: the machine is warm, so each pass re-touches every
    // resident page — NUMA hint faults, promotions of CXL pages the
    // sweep keeps hitting, and the demotions they displace.
    E2EMachine m(kE2EPages);
    m.sweep(AccessKind::Store);
    for (auto _ : state)
        m.sweep(AccessKind::Load);
    state.counters["pages_per_sec"] = benchmark::Counter(
        static_cast<double>(state.iterations()) *
            static_cast<double>(kE2EPages),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_E2EPromoteChurn)->Unit(benchmark::kMillisecond);

void
BM_E2EPromoteDemoteChurn(benchmark::State &state)
{
    // Worst-case ping-pong: the sweep alternates between the two halves
    // of a footprint that does not fit the local tier, so the half just
    // promoted is exactly what the next half's promotions displace. Runs
    // with vm.ppt.enable=1 so every migration request crosses the PPT
    // admission check with a populated history table.
    E2EMachine m(kE2EPages);
    m.kernel.sysctl().set("vm.ppt.enable", "1");
    m.sweep(AccessKind::Store);
    const std::uint64_t half = m.wss / 2;
    bool low = true;
    for (auto _ : state) {
        const Vpn start = low ? 0 : half;
        for (Vpn v = 0; v < half; ++v) {
            m.kernel.access(m.asid, m.base + start + v, AccessKind::Load,
                            0);
            m.eq.run(m.eq.now() + 200);
        }
        low = !low;
    }
    state.counters["pages_per_sec"] = benchmark::Counter(
        static_cast<double>(state.iterations()) *
            static_cast<double>(half),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_E2EPromoteDemoteChurn)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
