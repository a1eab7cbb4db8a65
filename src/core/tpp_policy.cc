#include "core/tpp_policy.hh"

#include <memory>

#include "mm/kernel.hh"
#include "mm/policy_registry.hh"
#include "sim/logging.hh"

namespace tpp {

void
TppPolicy::applyWatermarks()
{
    // Derive the watermark set of every demoting node from the
    // configured demote_scale_factor (§5.2). With demotion chains this
    // covers the middle tiers too, so a cxl node holds headroom for the
    // demotions arriving from above just as local does for allocations.
    MemorySystem &mem = kernel_->mem();
    for (std::size_t i = 0; i < mem.numNodes(); ++i) {
        const NodeId nid = static_cast<NodeId>(i);
        if (!demotesFrom(nid))
            continue;
        MemoryNode &node = mem.node(nid);
        node.setWatermarks(Watermarks::forCapacity(node.capacity(),
                                                   cfg_.demoteScaleFactor));
    }
}

void
TppPolicy::attach(Kernel &kernel)
{
    PlacementPolicy::attach(kernel);
    kernel.setPromotionIgnoresWatermark(cfg_.decoupleWatermarks);
    applyWatermarks();

    // Mode resolution (§5.3): Classic NUMA balancing on a machine with
    // a single toptier node is automatically downgraded to the tiered
    // mode; auto-detection picks Tiered whenever lower tiers exist.
    const TierHierarchy &tiers = kernel.mem().tiers();
    switch (cfg_.mode) {
      case NumaMode::Tiered:
        effectiveMode_ = NumaMode::Tiered;
        break;
      case NumaMode::Classic:
        effectiveMode_ = (tiers.toptierNodes().size() == 1 &&
                          !tiers.belowToptier().empty())
                             ? NumaMode::Tiered
                             : NumaMode::Classic;
        break;
      case NumaMode::AutoDetect:
        effectiveMode_ = tiers.belowToptier().empty() ? NumaMode::Classic
                                                      : NumaMode::Tiered;
        break;
    }

    // Administration surface: the sysctl knobs the paper describes.
    SysctlRegistry &sysctl = kernel.sysctl();
    // demote_scale_factor is tenths of a percent of node capacity in
    // the kernel patchset; beyond 100% the watermark maths degenerates.
    sysctl.registerDouble("vm.demote_scale_factor",
                          &cfg_.demoteScaleFactor,
                          [this] { applyWatermarks(); },
                          /*min_value=*/0.0, /*max_value=*/100.0);
    sysctl.registerBool("vm.tpp.type_aware_allocation",
                        &cfg_.typeAwareAllocation);
    sysctl.registerBool("vm.tpp.active_lru_filter",
                        &cfg_.activeLruFilter);
    sysctl.registerBool("vm.tpp.demote_chain", &cfg_.demoteChain,
                        [this] { applyWatermarks(); });
    sysctl.registerDouble("kernel.numa_balancing_promote_rate_limit_MBps",
                          &cfg_.promoteRateLimitMBps, nullptr,
                          /*min_value=*/0.0);
    sysctl.registerU64("kernel.numa_balancing_scan_size_pages",
                       &cfg_.scanBatch, nullptr, /*min_value=*/1);
    sysctl.registerReadOnly("kernel.numa_balancing", [this] {
        return std::string(effectiveMode_ == NumaMode::Tiered
                               ? "2 (NUMA_BALANCING_TIERED)"
                               : "1 (NUMA_BALANCING)");
    });
}

void
TppPolicy::start()
{
    kernel_->eventQueue().scheduleAfter(cfg_.scanPeriod,
                                        [this] { scanTick(); });
}

NodeId
TppPolicy::allocPreferredNode(PageType type, NodeId task_nid)
{
    if (cfg_.typeAwareAllocation && type == PageType::File) {
        // Prefer caches on the CXL node (§5.4); hot ones will be
        // promoted by the regular mechanism later.
        const auto &targets = kernel_->mem().demotionOrder(task_nid);
        if (!targets.empty())
            return targets.front();
    }
    return task_nid;
}

bool
TppPolicy::demotesFrom(NodeId nid) const
{
    // The toptier always demotes (§5.1) — even on a DRAM-only machine,
    // where the empty demotion order makes the attempt fall through to
    // swap page by page, preserving the historical counters. Middle
    // tiers chain downward only when vm.tpp.demote_chain is on; the
    // bottom tier always reclaims by swapping.
    const TierHierarchy &tiers = kernel_->mem().tiers();
    if (tiers.isToptier(nid))
        return true;
    return cfg_.demoteChain && !tiers.isBottomTier(nid);
}

bool
TppPolicy::reclaimByDemotion(NodeId nid) const
{
    return demotesFrom(nid);
}

ReclaimMarks
TppPolicy::kswapdMarks(NodeId nid) const
{
    const Watermarks &wm = kernel_->mem().node(nid).watermarks();
    if (cfg_.decoupleWatermarks && demotesFrom(nid))
        return ReclaimMarks{wm.demoteTrigger, wm.demoteTarget};
    return ReclaimMarks{wm.low, wm.high};
}

bool
TppPolicy::scanNode(NodeId nid) const
{
    if (effectiveMode_ == NumaMode::Classic)
        return true; // classic AutoNUMA samples everything
    // NUMA_BALANCING_TIERED: sample only below-toptier nodes; poisoning
    // toptier pages would only generate useless hint-fault overhead
    // (§5.3).
    return !kernel_->mem().tiers().isToptier(nid);
}

void
TppPolicy::scanTick()
{
    if (effectiveMode_ == NumaMode::Classic) {
        for (std::size_t i = 0; i < kernel_->mem().numNodes(); ++i)
            kernel_->sampleNode(static_cast<NodeId>(i), cfg_.scanBatch);
    } else {
        for (NodeId nid : kernel_->mem().tiers().belowToptier())
            kernel_->sampleNode(nid, cfg_.scanBatch);
    }
    kernel_->eventQueue().scheduleAfter(cfg_.scanPeriod,
                                        [this] { scanTick(); });
}

bool
TppPolicy::promotionWithinRateLimit()
{
    if (cfg_.promoteRateLimitMBps <= 0.0)
        return true;
    const Tick now = kernel_->eventQueue().now();
    const double bytes_per_ns = cfg_.promoteRateLimitMBps * 1e6 / 1e9;
    const double burst = cfg_.promoteRateLimitMBps * 1e6 * 0.1; // 100 ms
    promoteTokensBytes_ +=
        static_cast<double>(now - promoteTokensRefilledAt_) *
        bytes_per_ns;
    promoteTokensRefilledAt_ = now;
    if (promoteTokensBytes_ > burst)
        promoteTokensBytes_ = burst;
    if (promoteTokensBytes_ < static_cast<double>(kPageSize))
        return false;
    promoteTokensBytes_ -= static_cast<double>(kPageSize);
    return true;
}

NodeId
TppPolicy::promotionTarget(NodeId task_nid) const
{
    const MemorySystem &mem = kernel_->mem();
    const TierHierarchy &tiers = mem.tiers();
    if (tiers.isToptier(task_nid))
        return task_nid;
    // Task nominally on a lower-tier node (shared-memory case): pick
    // the toptier node with the lowest memory pressure (§5.3).
    NodeId best = tiers.toptierNodes().front();
    std::uint64_t best_free = mem.node(best).freePages();
    for (NodeId nid : tiers.toptierNodes()) {
        if (mem.node(nid).freePages() > best_free) {
            best = nid;
            best_free = mem.node(nid).freePages();
        }
    }
    return best;
}

double
TppPolicy::onHintFault(Pfn pfn, NodeId task_nid)
{
    Kernel &k = *kernel_;
    PageFrame &frame = k.mem().frame(pfn);
    k.mem().frameCold(pfn).lastHintFault = k.eventQueue().now();

    if (effectiveMode_ == NumaMode::Classic) {
        // Classic AutoNUMA: promote any remote page towards the
        // faulting CPU's node instantly, no tiered filtering.
        if (frame.nid == task_nid)
            return 0.0;
        auto [ok, cost] = k.promotePage(pfn, frame.nid, task_nid);
        (void)ok;
        return cost;
    }

    if (k.mem().tiers().isToptier(frame.nid)) {
        // Only lower-tier pages are sampled; a toptier hint fault would
        // mean the page migrated between sampling and faulting. Nothing
        // to do.
        return 0.0;
    }

    if (frame.lru == LruListId::None) {
        // Sampled before it was isolated for a queued migration (a
        // lower tier can sit in the demote queue now): it is off the
        // LRU, so neither the activate step nor promotion applies —
        // the pending move wins.
        return 0.0;
    }

    if (cfg_.activeLruFilter && !lruIsActive(frame.lru)) {
        // Fig 14 (2): faulted page found on the inactive LRU is not yet
        // a candidate — mark it accessed so it moves to the active list
        // immediately. If it is still hot at the next hint fault it will
        // be found active and promoted.
        frame.clearFlag(PageFrame::FlagReferenced);
        k.lru(frame.nid).activate(pfn);
        k.vmstat().inc(Vm::PgActivate);
        return 0.0;
    }

    // Candidate accepted (Fig 14 (1)/(3)).
    if (!promotionWithinRateLimit()) {
        k.vmstat().inc(Vm::PgPromoteFailRateLimit);
        k.trace().emitPage(TraceEvent::PromoteFailRateLimit,
                           k.eventQueue().now(), frame.nid, frame.type,
                           pfn, k.mem().frameCold(pfn).ownerAsid,
                           k.mem().frameCold(pfn).ownerVpn);
        return 0.0;
    }
    k.notePromoteCandidate(frame);

    auto [ok, cost] =
        k.promotePage(pfn, frame.nid, promotionTarget(task_nid));
    (void)ok;
    return cost;
}

TPP_REGISTER_POLICY(tpp, [](const PolicyParams &p) {
    return std::make_unique<TppPolicy>(p.tpp);
});

} // namespace tpp
