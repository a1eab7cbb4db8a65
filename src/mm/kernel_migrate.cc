/**
 * @file
 * The raw page-move mechanism and the Kernel's migration entry points.
 *
 * Demotion/promotion policy choreography (target selection, gate
 * checking, failure accounting, queueing, transactions) lives in the
 * MigrationEngine (mm/migration/); the Kernel keeps the raw frame move
 * used by the engine's synchronous paths and by policies that migrate
 * directly (AutoTiering), plus thin delegating wrappers so existing
 * callers keep their API.
 */

#include "mm/kernel.hh"
#include "mm/migration/migration_engine.hh"
#include "sim/logging.hh"

namespace tpp {

Pfn
Kernel::migratePage(Pfn pfn, NodeId dst, AllocReason reason,
                    double *stall_ns)
{
    PageFrame &frame = mem_.frame(pfn);
    if (frame.isFree() || frame.lru == LruListId::None) {
        vmstat_.inc(Vm::PgMigrateFail);
        return kInvalidPfn;
    }
    if (frame.nid == dst)
        tpp_panic("migratePage: pfn %u already on node %u", pfn, dst);

    const Pfn new_pfn = allocPage(dst, frame.type, reason, stall_ns);
    if (new_pfn == kInvalidPfn) {
        vmstat_.inc(Vm::PgMigrateFail);
        return kInvalidPfn;
    }

    const bool was_active = lruIsActive(frame.lru);
    const NodeId src = frame.nid;
    lrus_[src].remove(pfn);
    moveFrame(pfn, new_pfn, was_active);

    // The copy moves one page of data off the source and onto the node
    // the new frame landed on (App/SwapIn-reason allocations may fall
    // back off the requested node).
    mem_.node(src).recordTraffic(eq_.now(), kPageSize);
    mem_.node(mem_.frame(new_pfn).nid).recordTraffic(eq_.now(), kPageSize);
    return new_pfn;
}

void
Kernel::moveFrame(Pfn pfn, Pfn new_pfn, bool was_active)
{
    PageFrame &frame = mem_.frame(pfn);
    Pte &pte = pteOf(frame);
    const NodeId src = frame.nid;

    PageFrame &new_frame = mem_.frame(new_pfn);
    new_frame.markAllocated();
    new_frame.type = frame.type;
    mem_.frameCold(new_pfn) = mem_.frameCold(pfn);
    if (frame.referenced())
        new_frame.setFlag(PageFrame::FlagReferenced);
    if (frame.dirty())
        new_frame.setFlag(PageFrame::FlagDirty);
    if (frame.demoted())
        new_frame.setFlag(PageFrame::FlagDemoted);
    if (frame.hintPending())
        new_frame.setFlag(PageFrame::FlagHintPending);

    pte.pfn = new_pfn;

    mem_.node(src).putFree(pfn);
    frame.resetForFree();
    mem_.frameCold(pfn).resetForFree();

    const NodeId dst = new_frame.nid;
    lrus_[dst].addHead(lruListFor(new_frame.type, was_active), new_pfn);
    memcg_.transfer(mem_.frameCold(new_pfn).ownerAsid, src, dst);
    vmstat_.inc(Vm::PgMigrateSuccess);
}

void
Kernel::notePromoteCandidate(const PageFrame &frame)
{
    vmstat_.inc(Vm::PgPromoteCandidate);
    vmstat_.inc(frame.type == PageType::Anon ? Vm::PgPromoteCandidateAnon
                                             : Vm::PgPromoteCandidateFile);
    if (frame.demoted())
        vmstat_.inc(Vm::PgPromoteCandidateDemoted);
    const PageFrameCold &cold = mem_.frameCold(frame.pfn);
    memcg_.cgroup(memcg_.cgroupOf(cold.ownerAsid))
        .stats.promoteCandidates++;
    trace_.emitPage(TraceEvent::PromoteCandidate, eq_.now(), frame.nid,
                    frame.type, frame.pfn, cold.ownerAsid,
                    cold.ownerVpn, frame.demoted() ? 1 : 0);
}

std::pair<bool, double>
Kernel::demotePage(Pfn pfn)
{
    const MigrateResult res = migration_->demote(pfn);
    return {res.freed, res.latencyNs};
}

std::pair<bool, double>
Kernel::promotePage(Pfn pfn, NodeId dst)
{
    return promotePage(pfn, mem_.frame(pfn).nid, dst);
}

std::pair<bool, double>
Kernel::promotePage(Pfn pfn, NodeId src, NodeId dst)
{
    const MigrateResult res = migration_->promote(pfn, src, dst);
    return {res.outcome == MigrateOutcome::Completed, res.latencyNs};
}

} // namespace tpp
