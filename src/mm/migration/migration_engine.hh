/**
 * @file
 * MigrationEngine: page migration as a first-class mm subsystem.
 *
 * The engine owns every page move between memory nodes. Three layers of
 * realism stack on top of the raw move, each gated by MigrationConfig:
 *
 *  - *Asynchrony*: demotion/promotion requests enter per-node queues
 *    and a migrator daemon on the event queue drains them in batches,
 *    so migration can lag allocation — the backlog and deferral
 *    behaviour Nomad and TierBPF show dominate tiered-memory dynamics
 *    under pressure.
 *  - *Transactions* (Nomad-style two-phase copy): a page being copied
 *    carries FlagUnderMigration for the modelled copy duration; an
 *    access during the window aborts the transaction
 *    (pgmigrate_fail_busy) and the page stays on its source node.
 *  - *Admission control* (TierBPF-style): a per-destination-node token
 *    bucket (vm.migration_rate_limit_mbps) plus a bounded queue
 *    (vm.migration_queue_depth) defer requests when the destination
 *    tier is contended, bounding migration traffic.
 *
 * The copy cost is either the flat MmCosts::migratePage constant
 * (sync mode) or the bandwidth-contention transfer time from the latency
 * model (MigrationConfig::bandwidthCost).
 *
 * With the default config the engine is in **sync mode** and
 * reproduces the pre-engine kernel bit-for-bit; every existing figure
 * stays anchored (tests/test_golden.cc).
 */

#ifndef TPP_MM_MIGRATION_MIGRATION_ENGINE_HH
#define TPP_MM_MIGRATION_MIGRATION_ENGINE_HH

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <utility>
#include <vector>

#include "mm/migration/migration_config.hh"
#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace tpp {

class Kernel;
enum class LruListId : std::uint8_t;

/** What became of one migration request. */
enum class MigrateOutcome : std::uint8_t {
    Completed, //!< page moved synchronously; source frame freed
    Queued,    //!< accepted into a queue; the daemon will move it later
    Deferred,  //!< admission control / full queue: retry later, page untouched
    Fallback,  //!< demotion fell back to classic reclaim of the page
    Failed,    //!< request failed outright (no target, stale page)
};

/** Result of MigrationEngine::demote / promote. */
struct MigrateResult {
    MigrateOutcome outcome = MigrateOutcome::Failed;
    /** The source frame was freed (Completed, or successful Fallback). */
    bool freed = false;
    /** Latency charged to the requester, in nanoseconds. */
    double latencyNs = 0.0;
};

/** Who is asking for a demotion; selects sync vs queued execution. */
enum class MigrateUrgency : std::uint8_t {
    Background, //!< kswapd / proactive daemons: may queue in async mode
    Direct,     //!< direct reclaim: always synchronous (allocator stalls)
};

/**
 * The migration subsystem. One engine per Kernel; constructed by the
 * Kernel, which hands it friend access to the mm internals (LRUs, PTE
 * lookup, allocator) exactly as kernel_migrate.cc had before the
 * extraction.
 */
class MigrationEngine
{
  public:
    MigrationEngine(Kernel &kernel, MigrationConfig cfg);

    MigrationEngine(const MigrationEngine &) = delete;
    MigrationEngine &operator=(const MigrationEngine &) = delete;

    const MigrationConfig &config() const { return cfg_; }

    // ---- the request surface ----------------------------------------

    /**
     * Demote one page towards the slower tier (distance-ordered target
     * selection, §5.1). Background urgency may queue in async mode;
     * Direct always executes synchronously. On sync migration failure
     * falls back to classic reclaim of the page.
     */
    MigrateResult demote(Pfn pfn,
                         MigrateUrgency urgency = MigrateUrgency::Background);

    /**
     * Promote one page to `dst`. `src` is the caller-known source node
     * of the candidate — used for failure tracing even when the frame
     * has been freed or isolated since the caller examined it.
     */
    MigrateResult promote(Pfn pfn, NodeId src, NodeId dst);

    /** Promote with the source node read from the frame (convenience
     *  for callers holding a known-mapped pfn). */
    MigrateResult promote(Pfn pfn, NodeId dst);

    // ---- hooks from the kernel hot paths ----------------------------

    /**
     * An access hit a page whose transactional copy is in flight:
     * abort the transaction (pgmigrate_fail_busy), return the page to
     * its source LRU, release the reserved destination frame.
     */
    void abortOnAccess(Pfn pfn);

    /**
     * The frame is being freed (munmap) while its copy is in flight:
     * cancel the transaction and release the destination frame. Counts
     * pgmigrate_fail (the page is gone, not busy).
     */
    void abortOnFree(Pfn pfn);

    // ---- introspection (tests, benches) -----------------------------

    /** Demotion requests queued on `src`'s queue. */
    std::uint64_t queuedDemotions(NodeId src) const;
    /** Promotion requests queued towards `dst`. */
    std::uint64_t queuedPromotions(NodeId dst) const;
    /** Transactional copies currently in flight. */
    std::uint64_t inFlightCount() const { return inflight_.size(); }
    /** True when no queue holds requests and nothing is in flight. */
    bool idle() const;

  private:
    /** One queued migration request. Owner identity is captured at
     *  enqueue time so a munmap'd-and-reused frame is detected stale. */
    struct Request {
        Pfn pfn = kInvalidPfn;
        Asid asid = 0;
        Vpn vpn = 0;
        NodeId src = kInvalidNode;
        /** Promotion target; kInvalidNode for demotions (the daemon
         *  picks the distance-ordered target at drain time). */
        NodeId dst = kInvalidNode;
        PageType type = PageType::Anon;
        bool wasActive = false;
        bool promotion = false;
    };

    /** A two-phase copy between reservation and completion. */
    struct InFlight {
        Request req;
        Pfn dstPfn = kInvalidPfn;
        NodeId dstNid = kInvalidNode;
        /** The scheduled phase-2 event; cancelled on abort. */
        EventId completion = 0;
    };

    // Sync paths: the pre-engine kernel_migrate.cc code, verbatim in
    // behaviour (flat cost unless cfg_.bandwidthCost).
    MigrateResult syncDemote(Pfn pfn);
    MigrateResult syncPromote(Pfn pfn, NodeId src, NodeId dst);

    // Async path.
    MigrateResult enqueue(Pfn pfn, bool promotion, NodeId dst);
    bool admit(NodeId dst);
    /**
     * Apply a new rate limit (sysctl setter): settle every bucket at
     * the old rate up to now, stamp the refill time, clamp outstanding
     * tokens to the new burst. A live rate change therefore never
     * grants tokens for time that elapsed under a different (or zero)
     * rate.
     */
    void setRateLimit(double mbps);
    void scheduleDrain();
    void drainTick();
    void drainQueue(std::deque<Request> &queue, std::uint64_t budget);
    void drainOne(const Request &req);
    /** True when the queued request no longer matches a live page. */
    bool stale(const Request &req) const;
    /** Return a queued/aborted page to its source LRU. */
    void putBack(const Request &req);
    /** Start (or, untransactional, instantly finish) the copy. */
    void beginCopy(const Request &req, Pfn dst_pfn, NodeId dst_nid,
                   double stall_ns);
    /** Phase 2: remap the PTE, move LRU membership, count. */
    void finishMove(const Request &req, Pfn dst_pfn, NodeId dst_nid);
    void abortInFlight(Pfn pfn, bool busy);

    /** Per-page copy latency between two nodes at `now`. */
    double copyCostNs(NodeId src, NodeId dst) const;

    /**
     * Ping-pong admission (mm/ppt): false when the page is inside its
     * reverse-hop cooldown window. A second admission dimension beside
     * the per-dst token buckets, consulted on every request and again
     * at drain time. Free frames pass (staleness is handled
     * downstream), as does a disabled throttle.
     */
    bool pptAdmit(Pfn pfn, bool promotion) const;
    /** Report one completed hop to the history table. */
    void pptRecord(Asid asid, Vpn vpn, bool promotion, NodeId node,
                   PageType type, Pfn pfn) const;

    Kernel &kernel_;
    MigrationConfig cfg_;

    /** Demotion queues indexed by source node; promotion by target. */
    std::vector<std::deque<Request>> demoteQueues_;
    std::vector<std::deque<Request>> promoteQueues_;
    /** In-flight transactional copies keyed by source pfn. */
    std::unordered_map<Pfn, InFlight> inflight_;

    /** Admission token buckets (bytes) per destination node. */
    std::vector<double> tokens_;
    std::vector<Tick> tokensRefilledAt_;

    bool drainScheduled_ = false;
};

} // namespace tpp

#endif // TPP_MM_MIGRATION_MIGRATION_ENGINE_HH
