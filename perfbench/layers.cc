#include "layers.hh"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <limits>
#include <memory>

#include "mm/kernel.hh"
#include "mm/placement_policy.hh"
#include "mm/policy_registry.hh"
#include "workloads/workload.hh"
#include "workloads/workload_registry.hh"

namespace perfbench {

namespace {

/** Spans kept per run; later ones still count into LayerTotals. */
constexpr std::size_t kMaxSpans = 1u << 18;
/** One observer call in this many is timed; the total is scaled up. */
constexpr std::uint64_t kObserverSampleEvery = 64;
constexpr std::uint32_t kNoSpan = std::numeric_limits<std::uint32_t>::max();
/** Host time between calibration slices in a timed run. */
constexpr std::int64_t kCalibrationEveryNs = 20'000'000;
/** Batches between clock reads that decide whether a slice is due. */
constexpr std::uint64_t kCalibrationCheckEvery = 16;

RunProbe *active = nullptr;

/** Times one call into a layer below the workload (policy, observer). */
class NestedCall
{
  public:
    NestedCall(RunProbe &probe, SpanKind kind)
        : probe_(probe), kind_(kind), start_(nowNs()),
          parent_(probe.openSpan), depth_(probe.nestedDepth++)
    {
        span_ = probe_.addSpan(kind_, start_, start_);
        if (span_ != kNoSpan)
            probe_.openSpan = span_;
    }

    ~NestedCall()
    {
        const std::int64_t end = nowNs();
        const std::int64_t ns = end - start_;
        if (span_ != kNoSpan)
            probe_.spans[span_].end = end;
        probe_.openSpan = parent_;
        --probe_.nestedDepth;
        LayerTotals &t = probe_.layers;
        switch (kind_) {
        case SpanKind::HintFault:
            t.hintFaultCalls++;
            t.hintFaultNs += ns;
            break;
        case SpanKind::Alloc:
            t.allocCalls++;
            t.allocNs += ns;
            break;
        default:
            t.observerSampledNs += ns;
            break;
        }
        // Only the outermost nested call is subtracted from the batch.
        if (probe_.inBatch && depth_ == 0) {
            probe_.openBatchChildNs +=
                kind_ == SpanKind::Observer
                    ? ns * static_cast<std::int64_t>(kObserverSampleEvery)
                    : ns;
        }
    }

    NestedCall(const NestedCall &) = delete;
    NestedCall &operator=(const NestedCall &) = delete;

  private:
    RunProbe &probe_;
    SpanKind kind_;
    std::int64_t start_;
    std::uint32_t parent_;
    int depth_;
    std::uint32_t span_ = kNoSpan;
};

tpp::AccessObserver
wrapObserver(tpp::AccessObserver observer, RunProbe *probe)
{
    if (!observer || !probe || !probe->traced)
        return observer;
    return [observer = std::move(observer),
            probe](const tpp::AccessRecord &r) {
        if (probe->layers.observerCalls++ % kObserverSampleEvery != 0) {
            observer(r);
            return;
        }
        NestedCall call(*probe, SpanKind::Observer);
        observer(r);
    };
}

/** Forwards every Workload call to the registered workload it wraps. */
class ForwardingWorkload final : public tpp::Workload
{
  public:
    explicit ForwardingWorkload(std::unique_ptr<tpp::Workload> inner)
        : inner_(std::move(inner))
    {
    }

    std::string name() const override { return inner_->name(); }

    void
    init(tpp::Kernel &kernel) override
    {
        // The harness set the observer and task node on this wrapper
        // before WorkloadDriver called init(); hand them to the real one.
        inner_->setTaskNode(taskNode());
        inner_->setObserver(wrapObserver(observer_, active));
        const std::int64_t start = nowNs();
        inner_->init(kernel);
        const std::int64_t end = nowNs();
        if (active) {
            active->setupEndNs = end;
            if (active->traced)
                active->addSpan(SpanKind::Init, start, end);
            if (++active->initsDone == active->stopAfterInits)
                throw SetupDone{};
        }
    }

    double warmup(tpp::Kernel &kernel) override
    {
        return inner_->warmup(kernel);
    }

    tpp::BatchResult
    runBatch(tpp::Kernel &kernel) override
    {
        return measured(kernel, SpanKind::Batch,
                        [&] { return inner_->runBatch(kernel); });
    }

    tpp::BatchResult
    runOps(tpp::Kernel &kernel, std::uint64_t ops) override
    {
        return measured(kernel, SpanKind::Ops,
                        [&] { return inner_->runOps(kernel, ops); });
    }

    bool done() const override { return inner_->done(); }
    bool warmedUp() const override { return inner_->warmedUp(); }

  private:
    template <typename Fn>
    tpp::BatchResult
    measured(tpp::Kernel &kernel, SpanKind kind, Fn &&fn)
    {
        RunProbe *probe = active;
        if (!probe)
            return fn();
        const tpp::Tick sim_now = kernel.eventQueue().now();
        tpp::BatchResult result;
        if (!probe->traced) {
            result = fn();
        } else {
            const std::int64_t start = nowNs();
            const std::uint32_t span = probe->addSpan(kind, start, start);
            const std::uint32_t parent = probe->openSpan;
            if (span != kNoSpan)
                probe->openSpan = span;
            probe->inBatch = true;
            probe->openBatchChildNs = 0;
            result = fn();
            const std::int64_t end = nowNs();
            probe->inBatch = false;
            probe->openSpan = parent;
            if (span != kNoSpan)
                probe->spans[span].end = end;
            LayerTotals &t = probe->layers;
            t.batches++;
            t.lastBatchEnd = end;
            t.batchNs += end - start;
            t.batchChildNs += static_cast<double>(probe->openBatchChildNs);
            t.batchHist.record(static_cast<double>(end - start));
        }
        probe->accesses += result.accesses;
        if (probe->calibrate &&
            probe->batchCalls++ % kCalibrationCheckEvery == 0 &&
            nowNs() - probe->lastCalibrationNs >= kCalibrationEveryNs) {
            probe->calibrationNs += calibrationSliceNs();
            probe->calibrationSlices++;
            probe->lastCalibrationNs = nowNs();
        }
        if (kind == SpanKind::Batch && result.ops &&
            sim_now >= probe->measureFrom) {
            probe->closedLoopOps.emplace_back(
                result.durationNs / static_cast<double>(result.ops),
                result.ops);
        }
        return result;
    }

    std::unique_ptr<tpp::Workload> inner_;
};

/** Forwards every PlacementPolicy hook, timing the per-fault ones. */
class TimedPolicy final : public tpp::PlacementPolicy
{
  public:
    explicit TimedPolicy(std::unique_ptr<tpp::PlacementPolicy> inner)
        : inner_(std::move(inner))
    {
    }

    std::string name() const override { return inner_->name(); }

    void
    attach(tpp::Kernel &kernel) override
    {
        PlacementPolicy::attach(kernel);
        inner_->attach(kernel);
    }

    void start() override { inner_->start(); }

    tpp::NodeId
    allocPreferredNode(tpp::PageType type, tpp::NodeId task_nid) override
    {
        if (!active || !active->traced)
            return inner_->allocPreferredNode(type, task_nid);
        NestedCall call(*active, SpanKind::Alloc);
        return inner_->allocPreferredNode(type, task_nid);
    }

    bool reclaimByDemotion(tpp::NodeId nid) const override
    {
        return inner_->reclaimByDemotion(nid);
    }

    tpp::ReclaimMarks kswapdMarks(tpp::NodeId nid) const override
    {
        return inner_->kswapdMarks(nid);
    }

    bool scanNode(tpp::NodeId nid) const override
    {
        return inner_->scanNode(nid);
    }

    double
    onHintFault(tpp::Pfn pfn, tpp::NodeId task_nid) override
    {
        if (!active || !active->traced)
            return inner_->onHintFault(pfn, task_nid);
        NestedCall call(*active, SpanKind::HintFault);
        return inner_->onHintFault(pfn, task_nid);
    }

  private:
    std::unique_ptr<tpp::PlacementPolicy> inner_;
};

} // namespace

const char *
spanName(SpanKind kind)
{
    switch (kind) {
    case SpanKind::Run: return "run";
    case SpanKind::Init: return "workloads.init";
    case SpanKind::Batch: return "workloads.run_batch";
    case SpanKind::Ops: return "workloads.run_ops";
    case SpanKind::HintFault: return "policy.hint_fault";
    case SpanKind::Alloc: return "policy.alloc";
    case SpanKind::Observer: return "observer";
    }
    return "?";
}

std::int64_t
calibrationSliceNs()
{
    static std::vector<std::uint64_t> buffer(1u << 18);
    static std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    std::uint64_t sum = 0;
    const std::int64_t start = nowNs();
    for (int i = 0; i < 20000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        sum += buffer[x & (buffer.size() - 1)]++;
    }
    const std::int64_t end = nowNs();
    buffer[0] += sum;
    return end - start;
}

double
LayerTotals::observerNs() const
{
    return static_cast<double>(observerSampledNs) *
           static_cast<double>(kObserverSampleEvery);
}

std::uint32_t
RunProbe::addSpan(SpanKind kind, std::int64_t start, std::int64_t end)
{
    if (!traced)
        return kNoSpan;
    if (spans.size() >= kMaxSpans) {
        spansDropped++;
        return kNoSpan;
    }
    spans.push_back(Span{start, end, openSpan, runId, kind});
    return static_cast<std::uint32_t>(spans.size() - 1);
}

ProbeScope::ProbeScope(RunProbe &probe)
{
    active = &probe;
}

ProbeScope::~ProbeScope()
{
    active = nullptr;
}

void
registerDecorators(const std::vector<std::string> &workloads)
{
    for (const std::string &name : workloads) {
        tpp::WorkloadRegistry::instance().add(
            "bench." + name, [name](const tpp::WorkloadSpec &spec) {
                tpp::WorkloadSpec inner = spec;
                inner.name = name;
                return std::make_unique<ForwardingWorkload>(
                    tpp::WorkloadRegistry::instance().make(inner));
            });
    }
    tpp::PolicyRegistry::instance().add(
        "bench.tpp", [](const tpp::PolicyParams &params) {
            return std::make_unique<TimedPolicy>(
                tpp::PolicyRegistry::instance().make("tpp", params));
        });
}

double
closedLoopPercentileNs(std::vector<std::pair<double, std::uint64_t>> ops,
                       double p)
{
    std::sort(ops.begin(), ops.end());
    std::uint64_t total = 0;
    for (const auto &entry : ops)
        total += entry.second;
    const double rank = p / 100.0 * static_cast<double>(total);
    std::uint64_t seen = 0;
    for (const auto &[ns, count] : ops) {
        seen += count;
        if (static_cast<double>(seen) >= rank)
            return ns;
    }
    return ops.empty() ? 0.0 : ops.back().first;
}

bool
writeSpans(const std::string &path,
           const std::vector<const RunProbe *> &runs)
{
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (!out)
        return false;
    std::fprintf(out, "run,id,parent,name,start_ns,end_ns\n");
    for (const RunProbe *run : runs) {
        for (std::size_t i = 0; i < run->spans.size(); ++i) {
            const Span &s = run->spans[i];
            std::fprintf(out, "%u,%zu,%u,%s,%lld,%lld\n", s.run, i,
                         s.parent, spanName(s.kind),
                         static_cast<long long>(s.start - run->startNs),
                         static_cast<long long>(s.end - run->startNs));
        }
    }
    return std::fclose(out) == 0;
}

} // namespace perfbench
