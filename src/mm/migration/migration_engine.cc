/**
 * @file
 * MigrationEngine implementation. The synchronous paths reproduce the
 * pre-engine Kernel::demotePage / promotePage behaviour exactly — same
 * counters, tracepoints and traffic accounting in the same order — so
 * the default sync config is bit-identical to the old code. The
 * asynchronous paths add queueing, admission control and the two-phase
 * transactional copy on top of the same building blocks.
 */

#include "mm/migration/migration_engine.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "mm/kernel.hh"
#include "mm/ppt/ppt.hh"
#include "sim/logging.hh"

namespace tpp {

MigrationEngine::MigrationEngine(Kernel &kernel, MigrationConfig cfg)
    : kernel_(kernel), cfg_(cfg)
{
    const std::size_t n = kernel_.mem_.numNodes();
    demoteQueues_.resize(n);
    promoteQueues_.resize(n);
    // Buckets start full (one burst) so admission control limits the
    // sustained rate, not the first requests after boot. The refill
    // clock starts at *now*, not tick 0: an engine constructed after
    // sim time has advanced must not treat the elapsed time as earned
    // tokens on its first refill.
    tokens_.assign(n, cfg_.rateLimitMBps * 1e6 * 0.1);
    tokensRefilledAt_.assign(n, kernel_.eq_.now());

    SysctlRegistry &sysctl = kernel_.sysctl_;
    sysctl.registerKnob(
        "vm.migration_rate_limit_mbps",
        [this] {
            char buf[64];
            std::snprintf(buf, sizeof(buf), "%g", cfg_.rateLimitMBps);
            return std::string(buf);
        },
        [this](const std::string &text) {
            char *end = nullptr;
            const double parsed = std::strtod(text.c_str(), &end);
            if (end == text.c_str() || *end != '\0' ||
                !std::isfinite(parsed) || parsed < 0.0)
                return false;
            setRateLimit(parsed);
            return true;
        });
    sysctl.registerU64("vm.migration_queue_depth", &cfg_.queueDepth,
                       nullptr, /*min=*/1);
}

std::uint64_t
MigrationEngine::queuedDemotions(NodeId src) const
{
    return demoteQueues_[src].size();
}

std::uint64_t
MigrationEngine::queuedPromotions(NodeId dst) const
{
    return promoteQueues_[dst].size();
}

bool
MigrationEngine::idle() const
{
    if (!inflight_.empty())
        return false;
    for (const auto &q : demoteQueues_)
        if (!q.empty())
            return false;
    for (const auto &q : promoteQueues_)
        if (!q.empty())
            return false;
    return true;
}

double
MigrationEngine::copyCostNs(NodeId src, NodeId dst) const
{
    // The flat constant models the software side of migrate_pages():
    // unmap, TLB shootdown, remap. With bandwidthCost the data movement
    // itself is charged on top, through the latency model so both legs
    // inflate with their node's bandwidth utilisation.
    double cost = kernel_.costs_.migratePage;
    if (cfg_.bandwidthCost) {
        cost += kernel_.mem_.latencyModel().pageCopyLatencyNs(
            kernel_.mem_.node(src), kernel_.mem_.node(dst),
            kernel_.eq_.now());
    }
    return cost;
}

// ---- ping-pong admission (mm/ppt) -----------------------------------

bool
MigrationEngine::pptAdmit(Pfn pfn, bool promotion) const
{
    PingPongThrottle &ppt = *kernel_.ppt_;
    if (!ppt.enabled())
        return true;
    const PageFrame &frame = kernel_.mem_.frame(pfn);
    if (frame.isFree())
        return true;
    const PageFrameCold &cold = kernel_.mem_.frameCold(pfn);
    return ppt.admit(cold.ownerAsid, cold.ownerVpn,
                     promotion ? PptHop::Promote : PptHop::Demote,
                     kernel_.eq_.now(), frame.nid, frame.type, pfn);
}

void
MigrationEngine::pptRecord(Asid asid, Vpn vpn, bool promotion,
                           NodeId node, PageType type, Pfn pfn) const
{
    kernel_.ppt_->recordHop(asid, vpn,
                            promotion ? PptHop::Promote : PptHop::Demote,
                            kernel_.eq_.now(), node, type, pfn);
}

// ---- synchronous paths (pre-engine behaviour) -----------------------

MigrateResult
MigrationEngine::syncDemote(Pfn pfn)
{
    Kernel &k = kernel_;
    PageFrame &frame = k.mem_.frame(pfn);
    const NodeId src = frame.nid;
    const PageType type = frame.type;
    const Asid owner_asid = k.mem_.frameCold(pfn).ownerAsid;
    const Vpn owner_vpn = k.mem_.frameCold(pfn).ownerVpn;

    // Distance-ordered static target selection (§5.1).
    for (NodeId dst : k.mem_.demotionOrder(src)) {
        double stall_ns = 0.0;
        const Pfn new_pfn =
            k.migratePage(pfn, dst, AllocReason::Demotion, &stall_ns);
        if (new_pfn != kInvalidPfn) {
            k.mem_.frame(new_pfn).setFlag(PageFrame::FlagDemoted);
            k.vmstat_.inc(type == PageType::Anon ? Vm::PgDemoteAnon
                                                 : Vm::PgDemoteFile);
            k.memcg_.cgroup(k.memcg_.cgroupOf(owner_asid))
                .stats.demotions++;
            k.trace_.emitPage(TraceEvent::Demote, k.eq_.now(), src, type,
                              new_pfn, owner_asid, owner_vpn, dst);
            pptRecord(owner_asid, owner_vpn, /*promotion=*/false, src,
                      type, new_pfn);
            return {MigrateOutcome::Completed, true,
                    copyCostNs(src, dst) + stall_ns};
        }
    }

    // Migration failed (no CXL node, or all of them full): fall back to
    // the default reclamation mechanism for this page.
    k.vmstat_.inc(Vm::PgDemoteFail);
    k.trace_.emitPage(TraceEvent::DemoteFail, k.eq_.now(), src, type, pfn,
                      owner_asid, owner_vpn);
    const auto [freed, cost] = k.reclaimOnePage(pfn, false);
    return {freed ? MigrateOutcome::Fallback : MigrateOutcome::Failed,
            freed, cost};
}

MigrateResult
MigrationEngine::syncPromote(Pfn pfn, NodeId src, NodeId dst)
{
    Kernel &k = kernel_;
    k.vmstat_.inc(Vm::PgPromoteTry);

    PageFrame &frame = k.mem_.frame(pfn);
    if (frame.isFree() || frame.lru == LruListId::None) {
        // The frame's owner fields are gone; trace node-scoped only,
        // with the source node the caller saw when it picked the page.
        k.trace_.emit(TraceEvent::PromoteTry, k.eq_.now(), src, dst);
        k.vmstat_.inc(Vm::PgPromoteFailIsolate);
        k.trace_.emit(TraceEvent::PromoteFailIsolate, k.eq_.now(), src,
                      dst);
        return {MigrateOutcome::Failed, false, 0.0};
    }

    const PageType type = frame.type;
    const Asid owner_asid = k.mem_.frameCold(pfn).ownerAsid;
    const Vpn owner_vpn = k.mem_.frameCold(pfn).ownerVpn;
    k.trace_.emitPage(TraceEvent::PromoteTry, k.eq_.now(), src, type, pfn,
                      owner_asid, owner_vpn, dst);

    double stall_ns = 0.0;
    const Pfn new_pfn =
        k.migratePage(pfn, dst, AllocReason::Promotion, &stall_ns);
    if (new_pfn == kInvalidPfn) {
        k.vmstat_.inc(Vm::PgPromoteFailLowMem);
        k.trace_.emitPage(TraceEvent::PromoteFailLowMem, k.eq_.now(), src,
                          type, pfn, owner_asid, owner_vpn, dst);
        return {MigrateOutcome::Failed, false, 0.0};
    }

    // A successful promotion clears PG_demoted: the ping-pong detector
    // only counts pages that get demoted *again* afterwards.
    k.mem_.frame(new_pfn).clearFlag(PageFrame::FlagDemoted);
    k.vmstat_.inc(Vm::PgPromoteSuccess);
    k.memcg_.cgroup(k.memcg_.cgroupOf(owner_asid))
        .stats.promoteSuccess++;
    k.trace_.emitPage(TraceEvent::PromoteSuccess, k.eq_.now(), src, type,
                      new_pfn, owner_asid, owner_vpn, dst);
    pptRecord(owner_asid, owner_vpn, /*promotion=*/true, src, type,
              new_pfn);
    return {MigrateOutcome::Completed, true,
            copyCostNs(src, dst) + stall_ns};
}

// ---- the request surface --------------------------------------------

MigrateResult
MigrationEngine::demote(Pfn pfn, MigrateUrgency urgency)
{
    // Ping-pong admission first: a page promoted inside its cooldown
    // window must not bounce straight back down. Denied hops look like
    // any other deferral to the caller (reclaim rotates the page and
    // moves on); only the ppt_* accounting records what happened.
    if (!pptAdmit(pfn, /*promotion=*/false))
        return {MigrateOutcome::Deferred, false, 0.0};

    // Direct reclaim needs pages *now*: it always demotes synchronously,
    // as the real kernel's direct reclaim calls migrate_pages() inline.
    if (!cfg_.async || urgency == MigrateUrgency::Direct)
        return syncDemote(pfn);

    PageFrame &frame = kernel_.mem_.frame(pfn);
    if (frame.isFree() || frame.lru == LruListId::None) {
        kernel_.vmstat_.inc(Vm::PgMigrateFail);
        return {MigrateOutcome::Failed, false, 0.0};
    }
    // No demotion target exists at all: skip the queue and take the
    // classic-reclaim fallback immediately.
    const std::vector<NodeId> &order =
        kernel_.mem_.demotionOrder(frame.nid);
    if (order.empty())
        return syncDemote(pfn);
    // Walk the tier-aware order for the admission target: a full near
    // node should not eat the queue budget when a farther lower-tier
    // node still has room. drainOne re-picks at drain time anyway, so
    // this only has to be a good guess, not a reservation.
    NodeId dst = order.front();
    for (NodeId cand : order) {
        if (kernel_.mem_.node(cand).freePages() > 0) {
            dst = cand;
            break;
        }
    }
    return enqueue(pfn, false, dst);
}

MigrateResult
MigrationEngine::promote(Pfn pfn, NodeId src, NodeId dst)
{
    // Ping-pong admission before any try/failure accounting: a denied
    // promotion was never attempted, it is cooling down.
    if (!pptAdmit(pfn, /*promotion=*/true))
        return {MigrateOutcome::Deferred, false, 0.0};

    if (!cfg_.async)
        return syncPromote(pfn, src, dst);

    Kernel &k = kernel_;
    PageFrame &frame = k.mem_.frame(pfn);
    if (frame.isFree() || frame.lru == LruListId::None) {
        // Mirror the sync isolate-fail accounting so failure counters
        // mean the same thing in both modes.
        k.vmstat_.inc(Vm::PgPromoteTry);
        k.trace_.emit(TraceEvent::PromoteTry, k.eq_.now(), src, dst);
        k.vmstat_.inc(Vm::PgPromoteFailIsolate);
        k.trace_.emit(TraceEvent::PromoteFailIsolate, k.eq_.now(), src,
                      dst);
        return {MigrateOutcome::Failed, false, 0.0};
    }
    return enqueue(pfn, true, dst);
}

MigrateResult
MigrationEngine::promote(Pfn pfn, NodeId dst)
{
    return promote(pfn, kernel_.mem_.frame(pfn).nid, dst);
}

// ---- admission + queueing -------------------------------------------

void
MigrationEngine::setRateLimit(double mbps)
{
    const Tick now = kernel_.eq_.now();
    const double old_rate_bpn = cfg_.rateLimitMBps * 1e6 / 1e9;
    const double old_burst = cfg_.rateLimitMBps * 1e6 * 0.1;
    const double new_burst = mbps * 1e6 * 0.1;
    for (std::size_t i = 0; i < tokens_.size(); ++i) {
        // Settle at the old rate: tokens earned so far survive (capped
        // at the old burst), but time elapsed under rate 0 earns none.
        if (cfg_.rateLimitMBps > 0.0) {
            tokens_[i] += static_cast<double>(now - tokensRefilledAt_[i]) *
                          old_rate_bpn;
            if (tokens_[i] > old_burst)
                tokens_[i] = old_burst;
        }
        tokensRefilledAt_[i] = now;
        if (tokens_[i] > new_burst)
            tokens_[i] = new_burst;
    }
    cfg_.rateLimitMBps = mbps;
}

bool
MigrationEngine::admit(NodeId dst)
{
    if (cfg_.rateLimitMBps <= 0.0)
        return true;
    const Tick now = kernel_.eq_.now();
    const double bytes_per_ns = cfg_.rateLimitMBps * 1e6 / 1e9;
    const double burst = cfg_.rateLimitMBps * 1e6 * 0.1; // 100 ms
    tokens_[dst] +=
        static_cast<double>(now - tokensRefilledAt_[dst]) * bytes_per_ns;
    tokensRefilledAt_[dst] = now;
    if (tokens_[dst] > burst)
        tokens_[dst] = burst;
    if (tokens_[dst] < static_cast<double>(kPageSize))
        return false;
    tokens_[dst] -= static_cast<double>(kPageSize);
    return true;
}

MigrateResult
MigrationEngine::enqueue(Pfn pfn, bool promotion, NodeId dst)
{
    Kernel &k = kernel_;
    PageFrame &frame = k.mem_.frame(pfn);
    const PageFrameCold &cold = k.mem_.frameCold(pfn);
    const NodeId src = frame.nid;
    std::deque<Request> &queue =
        promotion ? promoteQueues_[dst] : demoteQueues_[src];

    // Admission control: a full queue, a dry cgroup migration budget,
    // or an exhausted token bucket for the destination defers the
    // request; the page stays where it is and the caller may retry on
    // a later scan. The cgroup budget is checked before the per-node
    // bucket so a throttled tenant cannot drain the shared tokens.
    bool defer = queue.size() >= cfg_.queueDepth;
    bool throttled = false;
    if (!defer && !k.memcg_.chargeMigration(cold.ownerAsid, kPageSize)) {
        defer = true;
        throttled = true;
    }
    if (!defer && !admit(dst))
        defer = true;
    if (defer) {
        if (throttled) {
            const CgroupId cgid = k.memcg_.cgroupOf(cold.ownerAsid);
            k.memcg_.cgroup(cgid).stats.migrateThrottled++;
            k.vmstat_.inc(Vm::MemcgMigrateThrottled);
            k.trace_.emit(TraceEvent::MemcgEvent, k.eq_.now(), src,
                          memcgEventAux(cgid, MemcgEventKind::Throttled));
        }
        k.vmstat_.inc(Vm::PgMigrateDeferred);
        k.trace_.emitPage(TraceEvent::MigrateDeferred, k.eq_.now(), src,
                          frame.type, pfn, cold.ownerAsid,
                          cold.ownerVpn, dst);
        return {MigrateOutcome::Deferred, false, 0.0};
    }

    Request req;
    req.pfn = pfn;
    req.asid = cold.ownerAsid;
    req.vpn = cold.ownerVpn;
    req.src = src;
    req.dst = promotion ? dst : kInvalidNode;
    req.type = frame.type;
    req.wasActive = lruIsActive(frame.lru);
    req.promotion = promotion;

    // Isolate the page: off the LRU so reclaim and rival migrations
    // cannot pick it while it waits.
    k.lrus_[src].remove(pfn);
    frame.setFlag(PageFrame::FlagIsolated);
    queue.push_back(req);

    k.vmstat_.inc(Vm::PgMigrateQueued);
    k.trace_.emitPage(TraceEvent::MigrateQueued, k.eq_.now(), src,
                      req.type, pfn, req.asid, req.vpn, dst);
    scheduleDrain();
    return {MigrateOutcome::Queued, false, 0.0};
}

void
MigrationEngine::scheduleDrain()
{
    if (drainScheduled_)
        return;
    drainScheduled_ = true;
    kernel_.eq_.scheduleAfter(cfg_.drainPeriod, [this] { drainTick(); });
}

void
MigrationEngine::drainTick()
{
    drainScheduled_ = false;
    const std::size_t n = demoteQueues_.size();
    for (std::size_t i = 0; i < n; ++i)
        drainQueue(demoteQueues_[i], cfg_.drainBatch);
    for (std::size_t i = 0; i < n; ++i)
        drainQueue(promoteQueues_[i], cfg_.drainBatch);
    for (const auto &q : demoteQueues_)
        if (!q.empty()) {
            scheduleDrain();
            return;
        }
    for (const auto &q : promoteQueues_)
        if (!q.empty()) {
            scheduleDrain();
            return;
        }
}

void
MigrationEngine::drainQueue(std::deque<Request> &queue,
                            std::uint64_t budget)
{
    for (std::uint64_t i = 0; i < budget && !queue.empty(); ++i) {
        const Request req = queue.front();
        queue.pop_front();
        drainOne(req);
    }
}

bool
MigrationEngine::stale(const Request &req) const
{
    const PageFrame &frame = kernel_.mem_.frame(req.pfn);
    const PageFrameCold &cold = kernel_.mem_.frameCold(req.pfn);
    // The frame was freed (e.g. munmap) — and possibly reused for a new
    // mapping — since the request was queued. A live queued page keeps
    // FlagIsolated; a reused frame never has it.
    return frame.isFree() || !frame.isolated() ||
           cold.ownerAsid != req.asid || cold.ownerVpn != req.vpn ||
           frame.nid != req.src;
}

void
MigrationEngine::putBack(const Request &req)
{
    PageFrame &frame = kernel_.mem_.frame(req.pfn);
    frame.clearFlag(PageFrame::FlagIsolated);
    kernel_.lrus_[req.src].addHead(lruListFor(req.type, req.wasActive),
                                   req.pfn);
}

void
MigrationEngine::drainOne(const Request &req)
{
    Kernel &k = kernel_;
    if (stale(req)) {
        // The owner unmapped (or remapped) the page while it waited.
        k.vmstat_.inc(Vm::PgMigrateFail);
        return;
    }

    // Drain-time re-pick re-checks ping-pong admission too: the knobs
    // may have changed (or the throttle been enabled) while the
    // request sat queued. A denied page goes back on its LRU whole.
    if (!pptAdmit(req.pfn, req.promotion)) {
        putBack(req);
        return;
    }

    if (req.promotion) {
        k.vmstat_.inc(Vm::PgPromoteTry);
        k.trace_.emitPage(TraceEvent::PromoteTry, k.eq_.now(), req.src,
                          req.type, req.pfn, req.asid, req.vpn, req.dst);
        double stall_ns = 0.0;
        const Pfn dst_pfn = k.allocPage(req.dst, req.type,
                                        AllocReason::Promotion,
                                        &stall_ns);
        if (dst_pfn == kInvalidPfn) {
            k.vmstat_.inc(Vm::PgMigrateFail);
            k.vmstat_.inc(Vm::PgPromoteFailLowMem);
            k.trace_.emitPage(TraceEvent::PromoteFailLowMem, k.eq_.now(),
                              req.src, req.type, req.pfn, req.asid,
                              req.vpn, req.dst);
            putBack(req);
            return;
        }
        beginCopy(req, dst_pfn, req.dst, stall_ns);
        return;
    }

    // Demotion: pick the target at drain time so a queue-full node can
    // be skipped for the next one in distance order.
    for (NodeId dst : k.mem_.demotionOrder(req.src)) {
        double stall_ns = 0.0;
        const Pfn dst_pfn =
            k.allocPage(dst, req.type, AllocReason::Demotion, &stall_ns);
        if (dst_pfn != kInvalidPfn) {
            beginCopy(req, dst_pfn, dst, stall_ns);
            return;
        }
        k.vmstat_.inc(Vm::PgMigrateFail);
    }

    // Every demotion target is OOM mid-batch: classic-reclaim fallback,
    // exactly as the sync path falls back.
    k.vmstat_.inc(Vm::PgDemoteFail);
    k.trace_.emitPage(TraceEvent::DemoteFail, k.eq_.now(), req.src,
                      req.type, req.pfn, req.asid, req.vpn);
    const auto [freed, cost] = k.reclaimOnePage(req.pfn, false);
    (void)cost;
    if (!freed)
        putBack(req);
}

void
MigrationEngine::beginCopy(const Request &req, Pfn dst_pfn, NodeId dst_nid,
                           double stall_ns)
{
    Kernel &k = kernel_;
    // The copy moves one page of data off the source and onto the
    // destination node; record it when the copy starts so concurrent
    // accesses see the bandwidth pressure.
    k.mem_.node(req.src).recordTraffic(k.eq_.now(), kPageSize);
    k.mem_.node(dst_nid).recordTraffic(k.eq_.now(), kPageSize);

    if (!cfg_.transactional) {
        finishMove(req, dst_pfn, dst_nid);
        return;
    }

    // Two-phase transactional copy (Nomad): the source page stays
    // mapped and readable but carries FlagUnderMigration until the
    // modelled copy completes; an access during the window aborts.
    PageFrame &frame = k.mem_.frame(req.pfn);
    frame.setFlag(PageFrame::FlagUnderMigration);
    const double copy_ns = copyCostNs(req.src, dst_nid) + stall_ns;
    const Tick done = std::max<Tick>(static_cast<Tick>(copy_ns), 1);

    InFlight inf;
    inf.req = req;
    inf.dstPfn = dst_pfn;
    inf.dstNid = dst_nid;
    const Pfn src_pfn = req.pfn;
    inf.completion = k.eq_.scheduleAfter(done, [this, src_pfn] {
        auto it = inflight_.find(src_pfn);
        if (it == inflight_.end())
            tpp_panic("migration completion for unknown pfn %u", src_pfn);
        const InFlight done_inf = it->second;
        inflight_.erase(it);
        PageFrame &src = kernel_.mem_.frame(src_pfn);
        src.clearFlag(PageFrame::FlagUnderMigration);
        finishMove(done_inf.req, done_inf.dstPfn, done_inf.dstNid);
    });
    inflight_.emplace(src_pfn, inf);
}

void
MigrationEngine::finishMove(const Request &req, Pfn dst_pfn,
                            NodeId dst_nid)
{
    Kernel &k = kernel_;
    k.moveFrame(req.pfn, dst_pfn, req.wasActive);
    PageFrame &new_frame = k.mem_.frame(dst_pfn);

    MemcgStats &cg_stats =
        k.memcg_.cgroup(k.memcg_.cgroupOf(req.asid)).stats;
    if (req.promotion) {
        new_frame.clearFlag(PageFrame::FlagDemoted);
        k.vmstat_.inc(Vm::PgPromoteSuccess);
        cg_stats.promoteSuccess++;
        k.trace_.emitPage(TraceEvent::PromoteSuccess, k.eq_.now(),
                          req.src, req.type, dst_pfn, req.asid, req.vpn,
                          dst_nid);
    } else {
        new_frame.setFlag(PageFrame::FlagDemoted);
        k.vmstat_.inc(req.type == PageType::Anon ? Vm::PgDemoteAnon
                                                 : Vm::PgDemoteFile);
        cg_stats.demotions++;
        k.trace_.emitPage(TraceEvent::Demote, k.eq_.now(), req.src,
                          req.type, dst_pfn, req.asid, req.vpn, dst_nid);
    }
    pptRecord(req.asid, req.vpn, req.promotion, req.src, req.type,
              dst_pfn);
}

// ---- aborts ---------------------------------------------------------

void
MigrationEngine::abortInFlight(Pfn pfn, bool busy)
{
    auto it = inflight_.find(pfn);
    if (it == inflight_.end())
        tpp_panic("abort for pfn %u with no in-flight migration", pfn);
    const InFlight inf = it->second;
    inflight_.erase(it);
    Kernel &k = kernel_;
    k.eq_.cancel(inf.completion);

    // Release the reserved destination frame; it was never mapped, so
    // it still carries its pristine free-state.
    k.mem_.node(inf.dstNid).putFree(inf.dstPfn);

    PageFrame &frame = k.mem_.frame(pfn);
    frame.clearFlag(PageFrame::FlagUnderMigration);
    k.vmstat_.inc(busy ? Vm::PgMigrateFailBusy : Vm::PgMigrateFail);
    k.trace_.emitPage(TraceEvent::MigrateAbort, k.eq_.now(), inf.req.src,
                      inf.req.type, pfn, inf.req.asid, inf.req.vpn,
                      inf.dstNid);
    if (busy)
        putBack(inf.req);
}

void
MigrationEngine::abortOnAccess(Pfn pfn)
{
    abortInFlight(pfn, true);
}

void
MigrationEngine::abortOnFree(Pfn pfn)
{
    abortInFlight(pfn, false);
}

} // namespace tpp
