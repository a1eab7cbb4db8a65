/**
 * @file
 * Measurement from outside the simulator: forwarding decorators that the
 * benchmark registers under its own names (`bench.<workload>`,
 * `bench.tpp`) through the public registries, so an unmodified
 * runExperiment() runs the real workload and policy while the benchmark
 * watches the calls between the harness and each layer.
 *
 * Every run goes through the workload decorator, which records when the
 * last init() returned (the end of set-up), the accesses each batch
 * issued and, for closed-loop batches inside the measurement window, the
 * simulated time per operation. In a timed run it also runs calibration
 * slices between batches. A traced run additionally records spans
 * around every batch and policy call and around a 1-in-N sample of
 * access-observer calls.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/types.hh"
#include "workloads/latency.hh"

namespace perfbench {

/** Host time in nanoseconds on the steady clock. */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

enum class SpanKind : std::uint8_t {
    Run,       //!< one runExperiment() call
    Init,      //!< a workload's init(): process creation and region mmap
    Batch,     //!< a closed-loop runBatch()
    Ops,       //!< an open-loop runOps()
    HintFault, //!< PlacementPolicy::onHintFault
    Alloc,     //!< PlacementPolicy::allocPreferredNode
    Observer,  //!< one sampled access-observer call
};

const char *spanName(SpanKind kind);

struct Span {
    std::int64_t start = 0;
    std::int64_t end = 0;
    std::uint32_t parent = 0; //!< index of the enclosing span
    std::uint32_t run = 0;
    SpanKind kind = SpanKind::Run;
};

/** Exact per-layer totals, accumulated as the calls happen. */
struct LayerTotals {
    std::uint64_t batches = 0;
    std::int64_t batchNs = 0;
    /** Host time of policy and (estimated) observer calls nested inside
     *  batches; batch self time is batchNs minus this. */
    double batchChildNs = 0.0;
    tpp::LatencyHistogram batchHist; //!< host ns per batch
    std::uint64_t hintFaultCalls = 0;
    std::int64_t hintFaultNs = 0;
    std::uint64_t allocCalls = 0;
    std::int64_t allocNs = 0;
    std::uint64_t observerCalls = 0;
    std::int64_t observerSampledNs = 0;
    std::int64_t lastBatchEnd = 0;

    /** Observer host time scaled up from the sampled calls. */
    double observerNs() const;
};

/**
 * What the benchmark learns about one runExperiment() call. Install one
 * with ProbeScope around the call; the decorators report into it.
 */
struct RunProbe {
    /** Record spans and layer totals (the traced run). */
    bool traced = false;
    /** Start of the measurement window (closed-loop op latencies). */
    tpp::Tick measureFrom = 0;
    std::uint32_t runId = 0;

    std::int64_t startNs = 0;
    std::int64_t setupEndNs = 0; //!< when the last init() returned
    std::int64_t endNs = 0;
    std::uint64_t accesses = 0;  //!< sum of BatchResult::accesses
    /** Interleave calibration slices between batches (timed runs). */
    bool calibrate = false;
    std::int64_t calibrationNs = 0;
    std::uint64_t calibrationSlices = 0;
    std::int64_t lastCalibrationNs = 0;
    std::uint64_t batchCalls = 0;
    /** When non-zero, end the run by throwing SetupDone once this many
     *  workloads have returned from init(): a set-up-only sample. */
    std::size_t stopAfterInits = 0;
    std::size_t initsDone = 0;
    /** Closed-loop batches in the window: (simulated ns per op, ops). */
    std::vector<std::pair<double, std::uint64_t>> closedLoopOps;

    LayerTotals layers;
    std::vector<Span> spans;
    std::uint64_t spansDropped = 0;
    /** Index of the innermost open batch span, or of the run span. */
    std::uint32_t openSpan = 0;
    bool inBatch = false;
    int nestedDepth = 0; //!< policy/observer calls currently open
    std::int64_t openBatchChildNs = 0;

    /** Append a span if the store has room; @return its index. */
    std::uint32_t addSpan(SpanKind kind, std::int64_t start,
                          std::int64_t end);
};

/**
 * Host speed on a shared machine drifts by a fifth or more within
 * seconds, per core, and the simulator's rate drifts with it. A
 * calibration slice is a fixed amount of random read-modify-writes over
 * a 2 MiB buffer; run on the simulator's thread every
 * kCalibrationEveryNs between batches, its time tracks the host's speed
 * during the run. @return the slice's host time in nanoseconds.
 */
std::int64_t calibrationSliceNs();

/** Thrown out of runExperiment() to end a set-up-only sample. */
struct SetupDone {};

/** Makes `probe` the target of the decorators while in scope. */
class ProbeScope
{
  public:
    explicit ProbeScope(RunProbe &probe);
    ~ProbeScope();
    ProbeScope(const ProbeScope &) = delete;
    ProbeScope &operator=(const ProbeScope &) = delete;
};

/** Register `bench.<name>` forwarding to each named workload, and
 *  `bench.tpp` forwarding to the tpp policy. Call once. */
void registerDecorators(const std::vector<std::string> &workloads);

/** Weighted percentile of closed-loop per-op latencies (ns). */
double closedLoopPercentileNs(
    std::vector<std::pair<double, std::uint64_t>> ops, double p);

/** Write spans as CSV (run,id,parent,name,start_ns,end_ns). */
bool writeSpans(const std::string &path,
                const std::vector<const RunProbe *> &runs);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
