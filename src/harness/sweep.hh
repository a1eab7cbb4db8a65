/**
 * @file
 * Parallel sweep engine for the experiment harness.
 *
 * Every paper figure is a set of *independent, deterministic*
 * simulations. SweepRunner fans a vector of ExperimentConfigs out
 * across a ThreadPool — each simulation stays single-threaded and
 * seeded, so results are bit-for-bit identical to a serial
 * runExperiment() loop — and returns results in submission order.
 * Every config given is simulated: a bench that wants one point in
 * several tables submits it once and reads that row in each.
 */

#ifndef TPP_HARNESS_SWEEP_HH
#define TPP_HARNESS_SWEEP_HH

#include <vector>

#include "harness/experiment.hh"

namespace tpp {

/** Knobs for one sweep. */
struct SweepOptions {
    /** Worker threads; 0 = all hardware threads. */
    unsigned jobs = 1;
    /** \r-style progress meter on stderr while runs complete. */
    bool progress = false;
};

/**
 * Runs a batch of experiments, possibly in parallel.
 */
class SweepRunner
{
  public:
    explicit SweepRunner(SweepOptions opts = {});

    /** Run every config and return results in submission order. */
    std::vector<ExperimentResult>
    run(const std::vector<ExperimentConfig> &configs);

  private:
    SweepOptions opts_;
};

} // namespace tpp

#endif // TPP_HARNESS_SWEEP_HH
