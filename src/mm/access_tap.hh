/**
 * @file
 * Device-side access observation hook.
 *
 * A KernelAccessTap sees every resolved memory access on the physical
 * side — the frame actually served, after fault handling and hint-fault
 * processing. It models hardware that sits on the memory path (NeoMem's
 * CXL-device counter engine), as opposed to the workload-side
 * AccessObserver which models user-space profilers seeing virtual
 * references.
 *
 * The interface lives in src/mm so the Kernel can carry a null-gated
 * pointer without depending on src/hotness; implementations must only
 * observe simulation state, never steer it — with the tap detached the
 * simulation is bit-identical (the golden fingerprints in
 * tests/test_golden.cc pin this down for the default configuration).
 */

#ifndef TPP_MM_ACCESS_TAP_HH
#define TPP_MM_ACCESS_TAP_HH

#include "sim/types.hh"

namespace tpp {

struct PageFrame;

/** Observer of resolved (physical) memory accesses. */
class KernelAccessTap
{
  public:
    virtual ~KernelAccessTap() = default;

    /**
     * One access served by `frame`, issued by a task on `task_nid` at
     * simulated time `now`. Called after fault and hint-fault handling,
     * so `frame` is the frame that actually satisfied the access.
     */
    virtual void onKernelAccess(const PageFrame &frame, NodeId task_nid,
                                Tick now) = 0;
};

} // namespace tpp

#endif // TPP_MM_ACCESS_TAP_HH
