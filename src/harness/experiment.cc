#include "harness/experiment.hh"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <unordered_map>

#include "hotness/hotness_policy.hh"
#include "policy/adaptive/adaptive_policy.hh"
#include "mem/node.hh"
#include "mm/kernel.hh"
#include "mm/policy_registry.hh"
#include "sim/logging.hh"
#include "workloads/workload_registry.hh"

namespace tpp {

std::unique_ptr<PlacementPolicy>
makePolicy(const ExperimentConfig &cfg)
{
    return PolicyRegistry::instance().make(cfg.policy, cfg);
}

namespace {

/** Decode one tenant entry's fields into a TenantSpec. */
SpecResult<TenantSpec>
parseTenantEntry(const SpecEntry &entry)
{
    TenantSpec tenant;
    tenant.workload = entry.head();
    if (auto r = entry.getU64("wss", &tenant.wssPages); !r)
        return makeUnexpected(r.error());
    if (auto r = entry.getDouble("low", &tenant.lowFraction, 0.0, 1.0); !r)
        return makeUnexpected(r.error());
    if (auto r = entry.getDouble("budget", &tenant.budgetMBps, 0.0, 1e9);
        !r) {
        return makeUnexpected(r.error());
    }
    if (auto r = entry.getKeyword("place", &tenant.placement,
                                  {"none", "local_only", "cxl_only"});
        !r) {
        return makeUnexpected(r.error());
    }
    if (auto r = entry.getDouble("qps", &tenant.openLoop.qps, 0.0, 1e9);
        !r) {
        return makeUnexpected(r.error());
    }
    if (auto r = entry.getKeyword("arrival", &tenant.openLoop.arrival,
                                  {"poisson", "bursty", "diurnal"});
        !r) {
        return makeUnexpected(r.error());
    }
    if (auto r =
            entry.getDouble("slo", &tenant.openLoop.sloP99Us, 0.0, 1e9);
        !r) {
        return makeUnexpected(r.error());
    }
    if (auto r =
            entry.finish("wss, low, budget, place, qps, arrival, slo");
        !r) {
        return makeUnexpected(r.error());
    }
    return tenant;
}

} // namespace

SpecResult<std::vector<TenantSpec>>
parseTenants(const std::string &spec)
{
    const auto entries = parseSpec(spec, /*with_head=*/true);
    if (!entries)
        return makeUnexpected(entries.error());
    std::vector<TenantSpec> tenants;
    for (const SpecEntry &entry : *entries) {
        SpecResult<TenantSpec> tenant = parseTenantEntry(entry);
        if (!tenant)
            return makeUnexpected(tenant.error());
        tenants.push_back(std::move(*tenant));
    }
    if (tenants.empty())
        return specError("--tenants spec names no tenants", spec);
    return tenants;
}

SpecResult<MemoryConfig>
parseTopology(const std::string &spec)
{
    const auto entries = parseSpec(spec, /*with_head=*/true);
    if (!entries)
        return makeUnexpected(entries.error());

    MemoryConfig cfg;
    for (const SpecEntry &entry : *entries) {
        if (entry.head().empty())
            return specError("--topology node entry has no name",
                             entry.raw());
        for (const NodeConfig &prev : cfg.nodes) {
            if (prev.profile.name == entry.head()) {
                return specError("--topology node name repeats",
                                 entry.head());
            }
        }

        std::uint64_t pages = 0;
        if (auto r = entry.getU64("pages", &pages, /*min_value=*/1); !r)
            return makeUnexpected(r.error());
        // `lat` present marks a lower tier: the node is CPU-less unless
        // the entry also says cpu=1 (a slow socket is still toptier).
        const bool has_lat = entry.has("lat");
        double lat = TopologyBuilder::kLocalLatencyNs;
        if (auto r = entry.getDouble("lat", &lat, 1.0, 1e9); !r)
            return makeUnexpected(r.error());
        std::uint64_t cpu = has_lat ? 0 : 1;
        if (auto r = entry.getU64("cpu", &cpu, 0, 1); !r)
            return makeUnexpected(r.error());
        const bool cpu_less = cpu == 0;
        double bw = cpu_less ? TopologyBuilder::kCxlBandwidthGBps
                             : TopologyBuilder::kLocalBandwidthGBps;
        if (auto r = entry.getDouble("bw", &bw, 0.1, 1e9); !r)
            return makeUnexpected(r.error());
        if (auto r = entry.finish("pages, lat, bw, cpu"); !r)
            return makeUnexpected(r.error());

        if (pages == 0)
            return specError("--topology node has no pages", entry.head());
        cfg.nodes.push_back(
            NodeConfig{pages, NodeProfile{lat, bw, cpu_less,
                                          entry.head()}});
    }
    if (cfg.nodes.empty())
        return specError("--topology spec names no nodes", spec);

    bool any_cpu = false;
    for (const NodeConfig &nc : cfg.nodes)
        any_cpu = any_cpu || !nc.profile.cpuLess;
    if (!any_cpu) {
        return specError("--topology has no CPU-attached node (every "
                         "entry sets lat= without cpu=1)",
                         spec);
    }

    // Distances follow the tier structure the same way the canned
    // machines do: 10 on the diagonal, one extra 10 per hop away from
    // the CPU. A CPU node is hop 0; the k-th distinct CPU-less latency
    // class (ascending) is hop k.
    std::vector<double> latencies;
    for (const NodeConfig &nc : cfg.nodes)
        if (nc.profile.cpuLess)
            latencies.push_back(nc.profile.idleLatencyNs);
    std::sort(latencies.begin(), latencies.end());
    latencies.erase(std::unique(latencies.begin(), latencies.end()),
                    latencies.end());
    std::vector<std::uint32_t> hop;
    for (const NodeConfig &nc : cfg.nodes) {
        if (!nc.profile.cpuLess) {
            hop.push_back(0);
            continue;
        }
        const auto it =
            std::lower_bound(latencies.begin(), latencies.end(),
                             nc.profile.idleLatencyNs);
        hop.push_back(1 + static_cast<std::uint32_t>(
                              it - latencies.begin()));
    }
    const std::size_t n = cfg.nodes.size();
    cfg.distances.assign(n, std::vector<std::uint32_t>(n, 10));
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            if (i == j)
                continue;
            cfg.distances[i][j] =
                10 + 10 * std::max<std::uint32_t>(
                              1, std::max(hop[i], hop[j]));
        }
    }
    return cfg;
}

namespace {

/** Refuse a name @p registry does not have, listing the ones it has. */
template <typename Registry>
SpecResult<void>
checkRegistered(const Registry &registry, const char *what,
                const std::string &name)
{
    if (registry.contains(name))
        return {};
    std::string list;
    for (const std::string &known : registry.names())
        list += (list.empty() ? "" : ", ") + known;
    return specError(std::string("unknown ") + what + " (registered: " +
                         list + ")",
                     name);
}

} // namespace

SpecResult<void>
ExperimentConfig::validate() const
{
    const WorkloadRegistry &workloads = WorkloadRegistry::instance();
    if (auto r = checkRegistered(PolicyRegistry::instance(), "policy", policy);
        !r)
        return r;
    if (auto r = checkRegistered(workloads, "workload", workload); !r)
        return r;
    if (wssPages == 0)
        return specError("config wssPages must be > 0");
    if (!std::isfinite(capacityHeadroom) || capacityHeadroom < 1.0) {
        return specError("config capacityHeadroom must be >= 1",
                         std::to_string(capacityHeadroom));
    }
    if (!allLocal &&
        !(localFraction > 0.0 && localFraction <= 1.0)) {
        return specError("config localFraction out of (0, 1]",
                         std::to_string(localFraction));
    }
    if (measureFrom > runUntil)
        return specError("config measureFrom is after runUntil");
    if (sampleEvery == 0)
        return specError("config sampleEvery must be > 0");

    if (!topology.empty()) {
        if (allLocal) {
            return specError("config topology and allLocal are mutually "
                             "exclusive (describe the one node in the "
                             "topology instead)",
                             topology);
        }
        if (auto topo = parseTopology(topology); !topo)
            return makeUnexpected(topo.error());
    }

    const auto check_open_loop =
        [](const OpenLoopSpec &ol,
           const std::string &who) -> SpecResult<void> {
        if (!(ol.qps >= 0.0) || !std::isfinite(ol.qps))
            return specError(who + " qps must be finite and >= 0",
                             std::to_string(ol.qps));
        if (!(ol.sloP99Us >= 0.0) || !std::isfinite(ol.sloP99Us))
            return specError(who + " slo must be finite and >= 0",
                             std::to_string(ol.sloP99Us));
        if (ol.enabled() && !ArrivalProcess::known(ol.arrival)) {
            return specError(who + " arrival process is unknown (want " +
                                 ArrivalProcess::knownNames() + ")",
                             ol.arrival);
        }
        return {};
    };
    if (auto r = check_open_loop(openLoop, "config"); !r)
        return r;
    if (openLoop.enabled() && !tenants.empty()) {
        return specError("config-level open loop and tenants are "
                         "mutually exclusive; give each tenant its own "
                         "qps= instead");
    }
    if (withChameleon && !tenants.empty()) {
        return specError("config tenants and the Chameleon profiler are "
                         "mutually exclusive (the profiler assumes one "
                         "workload)");
    }

    std::uint64_t explicit_wss = 0;
    for (const TenantSpec &tenant : tenants) {
        if (tenant.workload.empty())
            return specError("tenant entry has no workload name");
        if (auto r = checkRegistered(workloads, "workload", tenant.workload);
            !r)
            return r;
        if (!(tenant.lowFraction >= 0.0 && tenant.lowFraction <= 1.0)) {
            return specError("tenant low out of [0, 1]",
                             std::to_string(tenant.lowFraction));
        }
        if (!(tenant.budgetMBps >= 0.0) ||
            !std::isfinite(tenant.budgetMBps)) {
            return specError("tenant budget must be finite and >= 0",
                             std::to_string(tenant.budgetMBps));
        }
        if (tenant.placement != "none" &&
            tenant.placement != "local_only" &&
            tenant.placement != "cxl_only") {
            return specError("tenant place must be none, local_only or "
                             "cxl_only",
                             tenant.placement);
        }
        if (auto r = check_open_loop(tenant.openLoop,
                                     "tenant " + tenant.workload);
            !r) {
            return r;
        }
        if (tenant.wssPages == 0 && wssPages / tenants.size() == 0) {
            return specError("tenant resolves to a zero-page working set "
                             "(wssPages split " +
                                 std::to_string(tenants.size()) +
                                 " ways)",
                             tenant.workload);
        }
        explicit_wss += tenant.wssPages;
    }
    if (!tenants.empty() && explicit_wss > wssPages) {
        return specError("tenant wss sum exceeds the config's wssPages",
                         std::to_string(explicit_wss));
    }
    return {};
}

namespace {

/** Tail-latency summary of one finished open-loop driver. */
OpenLoopResult
harvestOpenLoop(const WorkloadDriver &driver, const OpenLoopSpec &spec)
{
    OpenLoopResult ol;
    ol.enabled = true;
    ol.offeredQps = spec.qps;
    ol.arrival = spec.arrival;
    const LatencyHistogram &hist = driver.requestLatency();
    ol.requests = hist.count();
    ol.dropped = driver.windowDropped();
    ol.p50Ns = hist.percentileNs(50.0);
    ol.p99Ns = hist.percentileNs(99.0);
    ol.p999Ns = hist.percentileNs(99.9);
    ol.maxNs = hist.maxNs();
    ol.meanNs = hist.mean();
    ol.meanQueueDepth = driver.meanQueueDepth();
    ol.maxQueueDepth = driver.maxQueueDepth();
    ol.goodputQps = driver.goodputQps();
    ol.sloP99Us = spec.sloP99Us;
    ol.sloAttainment = driver.sloAttainment();
    return ol;
}

/** Arrival seed decorrelated from the workload's access-pattern seed. */
std::uint64_t
arrivalSeed(std::uint64_t seed)
{
    return seed ^ 0x9e3779b97f4a7c15ULL;
}

/**
 * The machine a config describes: the explicit --topology spec when one
 * is given, else the canned all-local / two-node build sized from the
 * working set. validate() already vetted the spec, so a parse failure
 * here is a programming error, not user input.
 */
MemoryConfig
machineConfig(const ExperimentConfig &cfg, std::uint64_t total_pages)
{
    if (!cfg.topology.empty()) {
        SpecResult<MemoryConfig> topo = parseTopology(cfg.topology);
        if (!topo)
            tpp_fatal("%s", topo.error().render().c_str());
        return std::move(*topo);
    }
    if (cfg.allLocal)
        return TopologyBuilder::allLocal(total_pages);
    const std::uint64_t local_pages = static_cast<std::uint64_t>(
        static_cast<double>(total_pages) * cfg.localFraction);
    return TopologyBuilder::cxlSystem(local_pages,
                                      total_pages - local_pages);
}

/**
 * Fraction of measurement-window accesses served by the toptier,
 * summed over every CPU node: on a multi-socket machine socket-1
 * traffic is just as local as socket-0's.
 */
double
localShareOf(const WorkloadDriver &driver, const MemorySystem &mem)
{
    double share = 0.0;
    for (NodeId nid : mem.tiers().toptierNodes())
        share += driver.trafficShare(nid);
    return share;
}

/**
 * End-of-run residency split for one page type: toptier-resident pages
 * over pages resident on *any* node. Both sums walk every node, so a
 * second socket neither drops out of the numerator nor the denominator.
 */
double
localResidencyOf(const Kernel &kernel, const MemorySystem &mem,
                 PageType type)
{
    std::uint64_t on_local = 0;
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < mem.numNodes(); ++i) {
        const NodeId nid = static_cast<NodeId>(i);
        const std::uint64_t resident = kernel.residentPages(nid, type);
        total += resident;
        if (mem.tiers().isToptier(nid))
            on_local += resident;
    }
    return total ? static_cast<double>(on_local) /
                       static_cast<double>(total)
                 : 0.0;
}

/**
 * Per-node residency and traffic rows. Populated only past the plain
 * two-node shapes (an explicit topology or > 2 nodes), so existing
 * two-node CSV/JSON output stays byte-identical.
 */
void
collectNodeRows(const ExperimentConfig &cfg, const Kernel &kernel,
                const MemorySystem &mem, const WorkloadDriver &driver,
                ExperimentResult *result)
{
    if (cfg.topology.empty() && mem.numNodes() <= 2)
        return;
    for (std::size_t i = 0; i < mem.numNodes(); ++i) {
        const NodeId nid = static_cast<NodeId>(i);
        const MemoryNode &node = mem.node(nid);
        NodeResult row;
        row.name = node.profile().name;
        row.tierRank = mem.tiers().rank(nid);
        row.capacityPages = node.capacity();
        row.anonPages = kernel.residentPages(nid, PageType::Anon);
        row.filePages = kernel.residentPages(nid, PageType::File);
        row.freePages = node.freePages();
        row.trafficShare = driver.trafficShare(nid);
        result->nodes.push_back(std::move(row));
    }
}

/** Cadence of the live SLO feed into the adaptive tuner. */
constexpr Tick kAdaptiveSloSyncPeriod = 50 * kMillisecond;

/**
 * Push cumulative open-loop request totals into an attached
 * AdaptivePolicy on a fixed cadence, so the tuner can difference live
 * SLO attainment per profiling window (its tie-breaker objective)
 * without the drivers knowing the policy exists. Observation only: the
 * event mutates no simulation state, so runs are bit-identical whether
 * or not it fires (the tuner-disabled goldens rely on this).
 */
class AdaptiveSloFeed
{
  public:
    AdaptiveSloFeed(EventQueue &eq, AdaptivePolicy &policy,
                    std::vector<const WorkloadDriver *> drivers,
                    Tick run_until)
        : eq_(eq), policy_(policy), drivers_(std::move(drivers)),
          runUntil_(run_until)
    {
        eq_.scheduleAfter(kAdaptiveSloSyncPeriod, [this] { tick(); });
    }

  private:
    void
    tick()
    {
        std::uint64_t met = 0;
        std::uint64_t offered = 0;
        for (const WorkloadDriver *driver : drivers_) {
            met += driver->windowSloMet();
            offered +=
                driver->windowRequests() + driver->windowDropped();
        }
        policy_.noteSloTotals(met, offered);
        if (eq_.now() < runUntil_)
            eq_.scheduleAfter(kAdaptiveSloSyncPeriod, [this] { tick(); });
    }

    EventQueue &eq_;
    AdaptivePolicy &policy_;
    std::vector<const WorkloadDriver *> drivers_;
    Tick runUntil_;
};

/** Wire the feed when the policy is adaptive and open-loop tenants run. */
std::unique_ptr<AdaptiveSloFeed>
makeAdaptiveSloFeed(EventQueue &eq, Kernel &kernel,
                    std::vector<const WorkloadDriver *> open_loop,
                    Tick run_until)
{
    auto *adaptive = dynamic_cast<AdaptivePolicy *>(&kernel.policy());
    if (!adaptive || open_loop.empty())
        return nullptr;
    return std::make_unique<AdaptiveSloFeed>(eq, *adaptive,
                                             std::move(open_loop),
                                             run_until);
}

/**
 * The tenants a config runs: cfg.tenants, or without them the config's
 * own workload as one implicit tenant {workload, wssPages, openLoop}.
 */
std::vector<TenantSpec>
tenantsOf(const ExperimentConfig &cfg)
{
    if (!cfg.tenants.empty())
        return cfg.tenants;
    TenantSpec tenant;
    tenant.workload = cfg.workload;
    tenant.wssPages = cfg.wssPages;
    tenant.openLoop = cfg.openLoop;
    return {tenant};
}

/** A tenant's memory cgroup "t<index>-<workload>", configured. */
CgroupId
createTenantCgroup(MemcgController &memcg, std::size_t index,
                   const TenantSpec &tenant, std::uint64_t wss)
{
    const CgroupId id =
        memcg.create("t" + std::to_string(index) + "-" + tenant.workload);
    MemCgroup &cg = memcg.cgroup(id);
    cg.low = static_cast<std::uint64_t>(static_cast<double>(wss) *
                                        tenant.lowFraction);
    if (tenant.placement == "local_only")
        cg.placement = MemcgPlacement::LocalOnly;
    else if (tenant.placement == "cxl_only")
        cg.placement = MemcgPlacement::CxlOnly;
    memcg.setMigrationBudget(id, tenant.budgetMBps);
    cg.sloP99Us = tenant.openLoop.sloP99Us;
    return id;
}

} // namespace

ExperimentResult
runExperiment(const ExperimentConfig &cfg)
{
    // The implicit tenant of a config without tenants stays in the root
    // cgroup: no cgroup is created for it and it gets no per-tenant row.
    const bool implicit = cfg.tenants.empty();
    const std::vector<TenantSpec> tenants = tenantsOf(cfg);

    // The headline row names every tenant's workload.
    ExperimentResult result;
    for (const TenantSpec &tenant : tenants) {
        if (!result.workload.empty())
            result.workload += '+';
        result.workload += tenant.workload;
    }
    result.policy = cfg.policy;

    if (const SpecResult<void> valid = cfg.validate(); !valid) {
        result.error = valid.error().render();
        return result;
    }

    // Resolve tenant working sets: explicit pages, or an equal share of
    // the config's total (validate() rejects a zero-page share).
    std::vector<std::uint64_t> wss;
    std::uint64_t total_wss = 0;
    for (const TenantSpec &tenant : tenants) {
        wss.push_back(tenant.wssPages ? tenant.wssPages
                                      : cfg.wssPages / tenants.size());
        total_wss += wss.back();
    }

    // Build the machine.
    const std::uint64_t total_pages = static_cast<std::uint64_t>(
        static_cast<double>(total_wss) * cfg.capacityHeadroom);
    const MemoryConfig mem_cfg = machineConfig(cfg, total_pages);

    EventQueue eq;
    MemorySystem mem(mem_cfg);
    Kernel kernel(mem, eq, makePolicy(cfg), MmCosts{}, cfg.migration);

    // Telemetry attaches before anything is scheduled so the sampler's
    // events always precede same-tick simulation events; both layers
    // only observe, so results are bit-identical with them on or off
    // (tests/test_trace.cc asserts this).
    if (cfg.traceEnabled) {
        kernel.trace().setCapacity(
            static_cast<std::size_t>(cfg.traceCapacity));
        kernel.trace().enable();
    }
    std::unique_ptr<TimeSeriesSampler> sampler;
    if (cfg.sampleSeries) {
        const Tick period =
            cfg.samplePeriod ? cfg.samplePeriod : cfg.sampleEvery;
        sampler = std::make_unique<TimeSeriesSampler>(kernel, period,
                                                      cfg.runUntil);
        sampler->start();
    }

    // Cgroups exist before cfg.sysctls are applied, so a config can
    // also address the per-cgroup memcg.<name>.* knobs directly.
    MemcgController &memcg = kernel.memcg();
    std::vector<CgroupId> cgids(tenants.size(), kRootCgroup);
    if (!implicit) {
        for (std::size_t i = 0; i < tenants.size(); ++i)
            cgids[i] = createTenantCgroup(memcg, i, tenants[i], wss[i]);
    }

    // Admin surface: apply requested sysctls before anything runs. A
    // knob the kernel does not have, or a value it refuses, rejects the
    // run before the event queue starts.
    for (const auto &[name, value] : cfg.sysctls) {
        if (!kernel.sysctl().set(name, value)) {
            const SpecError error{kernel.sysctl().exists(name)
                                      ? "sysctl value rejected"
                                      : "unknown sysctl",
                                  name + "=" + value};
            result.error = error.render();
            return result;
        }
    }

    // Workload-side observers, shared by every tenant's workload. Up to
    // three consumers may want the access stream (the Chameleon
    // profiler, which validate() allows only without tenants, a hotness
    // source modelling a user-space profiler, and the hot-set ground
    // truth); the single observer slot gets a fan-out lambda only when
    // more than one is live, so the common single-consumer path stays
    // flat.
    std::vector<AccessObserver> observers;
    std::unique_ptr<Chameleon> chameleon;
    if (cfg.withChameleon) {
        chameleon = std::make_unique<Chameleon>(kernel, cfg.chameleon);
        observers.push_back(chameleon->observer());
    }
    if (auto *hotness = dynamic_cast<HotnessPolicy *>(&kernel.policy())) {
        if (AccessObserver observer = hotness->accessObserver())
            observers.push_back(std::move(observer));
    }
    std::unordered_map<std::uint64_t, std::uint64_t> true_counts;
    if (cfg.measureHotness) {
        observers.push_back([&true_counts, &cfg](const AccessRecord &r) {
            if (r.tick < cfg.measureFrom)
                return;
            true_counts[(static_cast<std::uint64_t>(r.asid) << 48) |
                        r.vpn]++;
        });
    }
    AccessObserver observer;
    if (observers.size() == 1) {
        observer = observers.front();
    } else if (observers.size() > 1) {
        observer = [observers](const AccessRecord &r) {
            for (const AccessObserver &each : observers)
                each(r);
        };
    }

    // Each tenant drives its own (possibly open-loop) request stream
    // from its own workload seed; the arrival RNG is decorrelated per
    // tenant.
    DriverConfig driver_cfg;
    driver_cfg.runUntil = cfg.runUntil;
    driver_cfg.measureFrom = cfg.measureFrom;
    driver_cfg.sampleEvery = cfg.sampleEvery;
    std::vector<std::unique_ptr<Workload>> workloads;
    std::vector<std::unique_ptr<WorkloadDriver>> drivers;
    std::vector<const WorkloadDriver *> open_loop_drivers;
    for (std::size_t i = 0; i < tenants.size(); ++i) {
        workloads.push_back(WorkloadRegistry::instance().make(WorkloadSpec{
            tenants[i].workload, wss[i], cfg.seed + i}));
        workloads.back()->setTaskNode(mem.tiers().toptierNodes().front());
        workloads.back()->setObserver(observer);
        driver_cfg.openLoop = tenants[i].openLoop;
        driver_cfg.openLoopSeed = arrivalSeed(cfg.seed + i);
        drivers.push_back(std::make_unique<WorkloadDriver>(
            kernel, *workloads.back(), driver_cfg));
        if (drivers.back()->openLoop())
            open_loop_drivers.push_back(drivers.back().get());
    }

    // Live SLO feed for the adaptive tuner's tie-breaker objective.
    const std::unique_ptr<AdaptiveSloFeed> slo_feed = makeAdaptiveSloFeed(
        eq, kernel, std::move(open_loop_drivers), cfg.runUntil);

    kernel.start();
    if (chameleon)
        chameleon->start();
    // Each driver's init runs with the spawn cgroup pointed at its
    // tenant, so the processes a workload creates land in the right
    // cgroup without the workloads knowing cgroups exist.
    for (std::size_t i = 0; i < drivers.size(); ++i) {
        memcg.setSpawnCgroup(cgids[i]);
        drivers[i]->start();
    }
    memcg.setSpawnCgroup(kRootCgroup);
    eq.run(cfg.runUntil);

    // Harvest: headline row first (aggregate over tenants).
    double latency_sum = 0.0;
    double latency_weight = 0.0;
    for (const auto &driver : drivers) {
        result.throughput += driver->throughput();
        const double ops = static_cast<double>(driver->measuredOps());
        latency_sum += driver->meanAccessLatencyNs() * ops;
        latency_weight += ops;
    }
    // A lone driver's mean is taken as is: x * n / n need not round
    // back to x in floating point.
    if (drivers.size() == 1)
        result.meanAccessLatencyNs = drivers.front()->meanAccessLatencyNs();
    else if (latency_weight > 0.0)
        result.meanAccessLatencyNs = latency_sum / latency_weight;
    // Every driver sees the same kernel-global traffic window, so one
    // driver's view is the machine's.
    result.localTrafficShare = localShareOf(*drivers.front(), mem);
    result.cxlTrafficShare = 1.0 - result.localTrafficShare;
    result.samples = drivers.front()->samples();
    result.vmstat = kernel.vmstat();
    result.meminfo = collectMemInfo(kernel);
    if (cfg.traceEnabled) {
        result.trace = kernel.trace().snapshot();
        result.traceEmitted = kernel.trace().emitted();
        result.traceDropped = kernel.trace().dropped();
    }
    if (sampler)
        result.series = sampler->takeSeries();
    result.anonLocalResidency =
        localResidencyOf(kernel, mem, PageType::Anon);
    result.fileLocalResidency =
        localResidencyOf(kernel, mem, PageType::File);
    collectNodeRows(cfg, kernel, mem, *drivers.front(), &result);

    // Per-tenant rows, for explicit tenants only.
    for (std::size_t i = 0; !implicit && i < tenants.size(); ++i) {
        TenantResult row;
        row.name = memcg.cgroup(cgids[i]).name();
        row.workload = tenants[i].workload;
        row.throughput = drivers[i]->throughput();
        row.meanAccessLatencyNs = drivers[i]->meanAccessLatencyNs();
        if (drivers[i]->openLoop()) {
            // Request accounting lands in memory.stat before the stats
            // snapshot below, so the row and the sysctl surface agree.
            memcg.noteRequests(cgids[i],
                               drivers[i]->windowRequests() +
                                   drivers[i]->windowDropped(),
                               drivers[i]->windowSloMet());
            row.openLoop = harvestOpenLoop(*drivers[i], tenants[i].openLoop);
        }
        const MemCgroup &cg = memcg.cgroup(cgids[i]);
        row.pagesTotal = cg.usage();
        for (NodeId nid : mem.cpuNodes())
            row.pagesLocal += cg.usageOnNode(nid);
        row.localResidency =
            row.pagesTotal ? static_cast<double>(row.pagesLocal) /
                                 static_cast<double>(row.pagesTotal)
                           : 0.0;
        row.memcg = cg.stats;
        result.tenants.push_back(std::move(row));
    }

    // Merged open-loop headline over every tenant that ran one.
    {
        LatencyHistogram merged;
        std::uint64_t met = 0;
        std::uint64_t dropped = 0;
        bool any = false;
        bool same_slo = true;
        double slo = -1.0;
        for (std::size_t i = 0; i < drivers.size(); ++i) {
            if (!drivers[i]->openLoop())
                continue;
            const OpenLoopSpec &spec = tenants[i].openLoop;
            any = true;
            merged.merge(drivers[i]->requestLatency());
            met += drivers[i]->windowSloMet();
            dropped += drivers[i]->windowDropped();
            result.openLoop.offeredQps += spec.qps;
            result.openLoop.goodputQps += drivers[i]->goodputQps();
            result.openLoop.meanQueueDepth += drivers[i]->meanQueueDepth();
            result.openLoop.maxQueueDepth =
                std::max(result.openLoop.maxQueueDepth,
                         drivers[i]->maxQueueDepth());
            if (result.openLoop.arrival.empty())
                result.openLoop.arrival = spec.arrival;
            else if (result.openLoop.arrival != spec.arrival)
                result.openLoop.arrival = "mixed";
            if (slo < 0.0)
                slo = spec.sloP99Us;
            else if (slo != spec.sloP99Us)
                same_slo = false;
        }
        if (any) {
            result.openLoop.enabled = true;
            result.openLoop.requests = merged.count();
            result.openLoop.dropped = dropped;
            result.openLoop.p50Ns = merged.percentileNs(50.0);
            result.openLoop.p99Ns = merged.percentileNs(99.0);
            result.openLoop.p999Ns = merged.percentileNs(99.9);
            result.openLoop.maxNs = merged.maxNs();
            result.openLoop.meanNs = merged.mean();
            result.openLoop.sloP99Us = same_slo ? slo : 0.0;
            const std::uint64_t offered = merged.count() + dropped;
            result.openLoop.sloAttainment =
                offered ? static_cast<double>(met) /
                              static_cast<double>(offered)
                        : 1.0;
        }
    }

    if (cfg.measureHotness) {
        // Tenant hot sets: each tenant's top pages by measured access
        // count, up to its *capacity share* of the local tier (a tenant
        // is entitled to local_capacity * wss_i / total_wss pages; the
        // implicit tenant to all of it). Recall = the fraction of them
        // the policy actually got (or kept) local by the end.
        std::uint64_t local_capacity = 0;
        for (NodeId nid : mem.tiers().toptierNodes())
            local_capacity += mem.node(nid).capacity();

        using Entry = std::pair<std::uint64_t, std::uint64_t>;
        std::vector<std::vector<Entry>> per_tenant(tenants.size());
        std::unordered_map<CgroupId, std::size_t> by_cgid;
        for (std::size_t i = 0; i < cgids.size(); ++i)
            by_cgid[cgids[i]] = i;
        for (const auto &[key, count] : true_counts) {
            const Asid asid = static_cast<Asid>(key >> 48);
            const auto it = by_cgid.find(memcg.cgroupOf(asid));
            if (it != by_cgid.end())
                per_tenant[it->second].emplace_back(key, count);
        }

        std::uint64_t considered_all = 0;
        std::uint64_t resident_all = 0;
        for (std::size_t i = 0; i < per_tenant.size(); ++i) {
            auto &ranked = per_tenant[i];
            std::sort(ranked.begin(), ranked.end(),
                      [](const Entry &a, const Entry &b) {
                          return a.second != b.second
                                     ? a.second > b.second
                                     : a.first < b.first;
                      });
            const std::uint64_t share = static_cast<std::uint64_t>(
                static_cast<double>(local_capacity) *
                static_cast<double>(wss[i]) /
                static_cast<double>(total_wss));
            if (ranked.size() > share)
                ranked.resize(share);
            std::uint64_t considered = 0;
            std::uint64_t resident_local = 0;
            for (const auto &[key, count] : ranked) {
                const Asid asid = static_cast<Asid>(key >> 48);
                const Vpn vpn = key & ((std::uint64_t{1} << 48) - 1);
                const AddressSpace &as = kernel.addressSpace(asid);
                if (vpn >= as.tableSize() || !as.pte(vpn).present())
                    continue;
                considered++;
                if (mem.tiers().isToptier(mem.frame(as.pte(vpn).pfn).nid))
                    resident_local++;
            }
            if (!implicit) {
                result.tenants[i].hotSetPages = considered;
                result.tenants[i].hotSetRecall =
                    considered ? static_cast<double>(resident_local) /
                                     static_cast<double>(considered)
                               : 0.0;
            }
            considered_all += considered;
            resident_all += resident_local;
        }
        result.hotSetPages = considered_all;
        result.hotSetRecall =
            considered_all ? static_cast<double>(resident_all) /
                                 static_cast<double>(considered_all)
                           : 0.0;
    }

    if (chameleon) {
        result.chameleonIntervals = chameleon->intervals();
        result.chameleonHotFraction = chameleon->meanHotFraction();
        result.chameleonHotFractionAnon =
            chameleon->meanHotFraction(PageType::Anon);
        result.chameleonHotFractionFile =
            chameleon->meanHotFraction(PageType::File);
    }
    return result;
}

} // namespace tpp
