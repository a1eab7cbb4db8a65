/**
 * @file
 * A lightweight memory-cgroup layer for multi-tenant runs.
 *
 * The paper evaluates TPP with co-located applications and leans on
 * per-application control — cpuset/mempolicy opt-out (§5.4) and reclaim
 * protection — to keep one tenant's churn from evicting another's hot
 * set. MemcgController reproduces that control surface at simulator
 * scale: every process belongs to exactly one MemCgroup carrying
 *
 *  - per-node resident-page counters (charged on fault, moved on
 *    migration, uncharged on free),
 *  - a `memory.low`-style protection floor that reclaim honours with
 *    the kernel's two-pass scheme (unprotected pages first; floors are
 *    broken only when a pass over the node made no progress),
 *  - an optional placement preference (`local_only` / `cxl_only`) — the
 *    paper's mempolicy opt-out, applied as an allocation preference
 *    that pressure may still spill past, and
 *  - a per-cgroup migration token budget layered on top of the
 *    MigrationEngine's per-destination buckets (TierBPF-style
 *    per-tenant admission control).
 *
 * Deviation from Linux, on purpose: the floor is applied *per node* —
 * a cgroup is protected on the node under reclaim while its residency
 * there is at or below `low`. In a tiered machine the scarce resource
 * is fast-tier residency, so protecting the local footprint directly
 * is what insulates the tenant (Linux's global-usage floor would let
 * local pages be demoted as long as total usage stays high).
 *
 * Everything here is accounting until a floor, budget or placement is
 * configured: with no cgroups created (or all knobs at their defaults)
 * every code path the controller touches behaves bit-identically to
 * the pre-memcg kernel, which tests/test_golden.cc pins.
 */

#ifndef TPP_MM_MEMCG_MEMCG_HH
#define TPP_MM_MEMCG_MEMCG_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace tpp {

class SysctlRegistry;

/** Cgroup identifier; 0 is the root cgroup every process starts in. */
using CgroupId = std::uint32_t;

inline constexpr CgroupId kRootCgroup = 0;

/** Placement preference: the paper's per-application mempolicy opt-out. */
enum class MemcgPlacement : std::uint8_t {
    None = 0,   //!< policy decides (default)
    LocalOnly,  //!< prefer the fast tier for new allocations
    CxlOnly,    //!< prefer the CXL tier for new allocations
};

/** What a MemcgEvent tracepoint's aux low byte means. */
enum class MemcgEventKind : std::uint8_t {
    ProtectedSkip = 0, //!< reclaim rotated past a protected page
    LowBreach = 1,     //!< pass 2 reclaimed a page under its floor
    Throttled = 2,     //!< migration deferred by the cgroup budget
};

/** Pack a MemcgEvent aux word: cgroup id in the high bits, kind low. */
inline std::uint32_t
memcgEventAux(CgroupId cgid, MemcgEventKind kind)
{
    return (cgid << 8) | static_cast<std::uint32_t>(kind);
}

/** memory.stat-style event counters, one block per cgroup. */
struct MemcgStats {
    std::uint64_t pagesCharged = 0;     //!< faults charged to the group
    std::uint64_t pagesUncharged = 0;   //!< frees uncharged
    std::uint64_t promoteCandidates = 0;//!< hint-faulted candidates
    std::uint64_t promoteSuccess = 0;   //!< pages promoted to local
    std::uint64_t demotions = 0;        //!< pages demoted to CXL
    std::uint64_t reclaimProtected = 0; //!< pages skipped by the floor
    std::uint64_t reclaimLow = 0;       //!< pages reclaimed under floor
    std::uint64_t migrateThrottled = 0; //!< migrations budget-deferred
    /** Open-loop request accounting (harness noteRequests; both stay 0
     *  for closed-loop tenants). */
    std::uint64_t requestsTotal = 0;    //!< offered in the window
    std::uint64_t requestsSloMet = 0;   //!< completed within the SLO
};

/**
 * One cgroup: configuration knobs plus per-node usage and event
 * counters. Created and owned by the MemcgController; configuration is
 * writable directly (harness) or through the per-cgroup sysctls
 * (`memcg.<name>.low`, `memcg.<name>.placement`,
 * `memcg.<name>.migration_budget_mbps`).
 */
class MemCgroup
{
  public:
    MemCgroup(CgroupId id, std::string name, std::size_t num_nodes)
        : id_(id), name_(std::move(name)), usageByNode_(num_nodes, 0)
    {
    }

    CgroupId id() const { return id_; }
    const std::string &name() const { return name_; }

    /** memory.low equivalent: protected residency floor, in pages. */
    std::uint64_t low = 0;
    /** Allocation preference (mempolicy opt-out). */
    MemcgPlacement placement = MemcgPlacement::None;
    /** Migration budget in MB/s; 0 = unlimited (no bucket). */
    double migrationBudgetMBps = 0.0;
    /** p99 request-latency SLO in microseconds; 0 = none. Purely
     *  declarative: the harness scores open-loop completions against
     *  it and reports attainment in memory.stat. */
    double sloP99Us = 0.0;

    std::uint64_t usageOnNode(NodeId nid) const
    {
        return usageByNode_[nid];
    }

    std::uint64_t
    usage() const
    {
        std::uint64_t total = 0;
        for (std::uint64_t u : usageByNode_)
            total += u;
        return total;
    }

    MemcgStats stats;

    /** Render a memory.stat-style report (one "name value" per line). */
    std::string memoryStat() const;

  private:
    friend class MemcgController;

    CgroupId id_;
    std::string name_;
    std::vector<std::uint64_t> usageByNode_;

    // Migration budget token bucket (same math as the engine's
    // per-destination buckets; see MemcgController::chargeMigration).
    double tokens_ = 0.0;
    Tick tokensRefilledAt_ = 0;
};

/**
 * Owns every cgroup and the asid→cgroup attachment map; one per
 * Kernel, queried from the fault, reclaim and migration hot paths.
 */
class MemcgController
{
  public:
    MemcgController(std::size_t num_nodes, SysctlRegistry &sysctl,
                    EventQueue &eq);

    MemcgController(const MemcgController &) = delete;
    MemcgController &operator=(const MemcgController &) = delete;

    /**
     * Create a cgroup and register its `memcg.<name>.*` sysctls.
     * Names must be unique; re-creating an existing name fatals.
     * @return the new cgroup's id.
     */
    CgroupId create(const std::string &name);

    std::size_t numCgroups() const { return cgroups_.size(); }
    MemCgroup &cgroup(CgroupId id);
    const MemCgroup &cgroup(CgroupId id) const;
    /** @return the cgroup named `name`, or nullptr. */
    MemCgroup *find(const std::string &name);

    // ---- process attachment -----------------------------------------

    /** Attach an existing process to a cgroup (moves future charges;
     *  already-resident pages keep their original accounting). */
    void attach(Asid asid, CgroupId id);

    /**
     * Processes created while a spawn cgroup is set attach to it
     * automatically (Kernel::createProcess calls noteProcess). This is
     * how the harness binds a workload's processes to its tenant
     * cgroup without threading cgroup ids through workload code.
     */
    void setSpawnCgroup(CgroupId id) { spawnCgroup_ = id; }
    CgroupId spawnCgroup() const { return spawnCgroup_; }

    /** Called by the kernel for every new process. */
    void noteProcess(Asid asid);

    /** @return the cgroup a process belongs to (root if never seen). */
    CgroupId
    cgroupOf(Asid asid) const
    {
        return asid < byAsid_.size() ? byAsid_[asid] : kRootCgroup;
    }

    // ---- charging (kernel fault/free/migrate paths) -----------------

    void charge(Asid asid, NodeId nid);
    void uncharge(Asid asid, NodeId nid);
    void transfer(Asid asid, NodeId src, NodeId dst);

    // ---- reclaim protection -----------------------------------------

    /** @return true when any cgroup has a floor configured: reclaim
     *  only takes the two-pass path when this holds. */
    bool protectionActive() const;

    /**
     * @return true when `asid`'s cgroup is at or below its floor on
     * `nid`: reclaim's first pass must skip the page.
     */
    bool
    protectedOnNode(Asid asid, NodeId nid) const
    {
        const MemCgroup &cg = *cgroups_[cgroupOf(asid)];
        return cg.low > 0 && cg.usageOnNode(nid) <= cg.low;
    }

    // ---- migration budget -------------------------------------------

    /**
     * Charge `bytes` against the cgroup's migration budget. Without a
     * configured budget this admits for free. Tokens accrue from the
     * moment the budget is set (no boot burst: a tenant cannot spend
     * bandwidth it never earned).
     * @return false when the bucket is dry — defer the migration.
     */
    bool chargeMigration(Asid asid, std::uint64_t bytes);

    /** Budget setter shared by the sysctl and the harness: settles the
     *  bucket at the old rate up to now before applying the new one. */
    void setMigrationBudget(CgroupId id, double mbps);

    // ---- request accounting -----------------------------------------

    /** Record an open-loop run's offered/SLO-met request counts so
     *  memory.stat can report per-tenant SLO attainment. */
    void noteRequests(CgroupId id, std::uint64_t total,
                      std::uint64_t slo_met);

    // ---- placement ---------------------------------------------------

    MemcgPlacement
    placementOf(Asid asid) const
    {
        return cgroups_[cgroupOf(asid)]->placement;
    }

  private:
    std::size_t numNodes_;
    SysctlRegistry &sysctl_;
    EventQueue &eq_;
    /** unique_ptr for stable addresses: sysctl closures bind cgroups. */
    std::vector<std::unique_ptr<MemCgroup>> cgroups_;
    std::vector<CgroupId> byAsid_;
    CgroupId spawnCgroup_ = kRootCgroup;
};

} // namespace tpp

#endif // TPP_MM_MEMCG_MEMCG_HH
