/**
 * @file
 * End-to-end benchmark of the simulator: runs one pinned
 * runExperiment() configuration repeatedly on one thread, checks its
 * outputs, and prints host-speed and simulated-outcome metrics. With
 * --trace 1 it instead makes one traced run through the forwarding
 * decorators (layers.hh) and prints the per-layer split.
 *
 *     tpp_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                   [--spans-out PATH] [--source-rev REV]
 *
 * The last line of stdout is one JSON object:
 * {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
 * The exit status is 1 when any run fails a check.
 */

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "layers.hh"
#include "mm/migration/migration_config.hh"

namespace perfbench {
namespace {

using tpp::ExperimentConfig;
using tpp::ExperimentResult;
using tpp::kSecond;
using tpp::Vm;

/** One pinned configuration. */
struct Workload {
    const char *name;
    const char *loop; //!< "closed" or "open+closed"
    /** Input seeds simulated per invocation. Simulated outcomes of a
     *  short run vary from seed to seed; their median over this many
     *  seeds is what the benchmark reports. */
    int seeds;
    ExperimentConfig (*make)(std::uint64_t seed);
};

/**
 * What every workload shares: tpp at Fig 16's memory-expansion point
 * (local:CXL = 1:4) with the default working set. Six simulated seconds
 * measured from 4 s, not the figure's 20 s from 12 s: a 20 s run takes
 * 8-10 s of host time, too few runs per measurement for a median, and
 * cache1's local share at 6 s stays within a point of the 20 s figure.
 */
ExperimentConfig
baseConfig(std::uint64_t seed)
{
    ExperimentConfig cfg;
    cfg.policy = "tpp";
    cfg.localFraction = 0.2;
    cfg.wssPages = 32768;
    cfg.runUntil = 6 * kSecond;
    cfg.measureFrom = 4 * kSecond;
    cfg.seed = seed;
    return cfg;
}

ExperimentConfig
expandCache1(std::uint64_t seed)
{
    ExperimentConfig cfg = baseConfig(seed);
    cfg.workload = "bench.cache1";
    return cfg;
}

ExperimentConfig
churnAsyncTraced(std::uint64_t seed)
{
    ExperimentConfig cfg = baseConfig(seed);
    cfg.workload = "bench.churn";
    cfg.migration = tpp::MigrationConfig::asyncEngine();
    cfg.sysctls.emplace_back("vm.ppt.enable", "1");
    cfg.measureHotness = true;
    cfg.traceEnabled = true;
    cfg.sampleSeries = true;
    return cfg;
}

ExperimentConfig
tenantsOpenLoop(std::uint64_t seed)
{
    ExperimentConfig cfg = baseConfig(seed);
    // Two tenants plus the ground-truth observer make this the slowest
    // run per simulated second; 4 s (window from 2 s) keeps enough runs
    // in a measurement for a steady median.
    cfg.runUntil = 4 * kSecond;
    cfg.measureFrom = 2 * kSecond;
    cfg.measureHotness = true;
    tpp::TenantSpec victim;
    victim.workload = "bench.dwh";
    victim.lowFraction = 0.5;
    victim.openLoop.qps = 200000.0;
    victim.openLoop.arrival = "poisson";
    victim.openLoop.sloP99Us = 500.0;
    tpp::TenantSpec antagonist;
    antagonist.workload = "bench.churn";
    cfg.tenants = {victim, antagonist};
    return cfg;
}

const Workload kWorkloads[] = {
    {"expand_cache1", "closed", 4, expandCache1},
    {"churn_async_traced", "closed", 24, churnAsyncTraced},
    {"tenants_openloop", "open+closed", 4, tenantsOpenLoop},
};

/** A calibration slice's time on the reference host (a 4-vCPU Intel
 *  Xeon VM at a quiet moment): normalised host times read as that
 *  host's. */
constexpr double kReferenceSliceNs = 250000.0;

/** Fig 16: TPP serves about 85% of Cache1's traffic locally at 1:4. */
constexpr double kPaperCache1TppLocalShare = 0.85;

struct Run {
    ExperimentResult result;
    std::unique_ptr<RunProbe> probe;
    double wallS = 0.0;
    double setupS = 0.0;
};

Run
runOnce(const ExperimentConfig &cfg, bool traced, std::uint32_t run_id,
        bool calibrate = false)
{
    Run run;
    run.probe = std::make_unique<RunProbe>();
    RunProbe &probe = *run.probe;
    probe.traced = traced;
    probe.calibrate = calibrate;
    probe.measureFrom = cfg.measureFrom;
    probe.runId = run_id;
    {
        ProbeScope scope(probe);
        probe.startNs = nowNs();
        probe.addSpan(SpanKind::Run, probe.startNs, probe.startNs);
        run.result = tpp::runExperiment(cfg);
        probe.endNs = nowNs();
    }
    if (!probe.spans.empty())
        probe.spans.front().end = probe.endNs;
    run.wallS = static_cast<double>(probe.endNs - probe.startNs) / 1e9;
    run.setupS =
        static_cast<double>(probe.setupEndNs - probe.startNs) / 1e9;
    return run;
}

/**
 * Time one set-up: enter runExperiment(), and leave it by exception as
 * soon as the last workload's init() returns. The harness builds the
 * machine, kernel, policy and workloads exactly as in a full run.
 * @return seconds, or a negative value if set-up end was never seen.
 */
double
setupOnce(const ExperimentConfig &cfg)
{
    RunProbe probe;
    probe.measureFrom = cfg.measureFrom;
    probe.stopAfterInits = cfg.tenants.empty() ? 1 : cfg.tenants.size();
    ProbeScope scope(probe);
    probe.startNs = nowNs();
    try {
        tpp::runExperiment(cfg);
    } catch (const SetupDone &) {
        return static_cast<double>(probe.setupEndNs - probe.startNs) / 1e9;
    }
    return -1.0;
}

/** The simulated outcome of a run, except hot-set recall (which needs
 *  the ground-truth observer): every number must repeat exactly for a
 *  given seed, traced or not, observed or not. */
std::vector<double>
fingerprint(const Run &run)
{
    const ExperimentResult &r = run.result;
    std::vector<double> fp = {
        r.throughput,
        r.meanAccessLatencyNs,
        r.localTrafficShare,
        r.cxlTrafficShare,
        r.anonLocalResidency,
        r.fileLocalResidency,
        static_cast<double>(run.probe->accesses),
        static_cast<double>(r.openLoop.requests),
        static_cast<double>(r.openLoop.dropped),
        r.openLoop.p99Ns,
        r.openLoop.sloAttainment,
        static_cast<double>(r.traceEmitted),
        static_cast<double>(r.traceDropped),
    };
    for (std::size_t i = 0; i < tpp::kNumVmCounters; ++i)
        fp.push_back(static_cast<double>(r.vmstat.get(static_cast<Vm>(i))));
    for (const auto &[ns, ops] : run.probe->closedLoopOps) {
        fp.push_back(ns);
        fp.push_back(static_cast<double>(ops));
    }
    return fp;
}

/** Output invariants of one run; @return the violations found. */
std::vector<std::string>
checkRun(const ExperimentConfig &cfg, const Run &run)
{
    const ExperimentResult &r = run.result;
    std::vector<std::string> bad;
    auto in01 = [](double v) { return v >= 0.0 && v <= 1.0; };
    if (r.failed())
        bad.push_back("run rejected: " + r.error);
    if (std::fabs(r.localTrafficShare + r.cxlTrafficShare - 1.0) > 1e-9)
        bad.push_back("local and CXL traffic shares do not sum to 1");
    if (!in01(r.localTrafficShare))
        bad.push_back("local traffic share outside [0, 1]");
    if (run.probe->accesses == 0 || !(r.throughput > 0.0))
        bad.push_back("run made no progress");
    if (cfg.measureHotness &&
        (!in01(r.hotSetRecall) || r.hotSetPages == 0)) {
        bad.push_back("hot-set recall outside [0, 1] or empty hot set");
    }
    if (!in01(r.openLoop.sloAttainment))
        bad.push_back("SLO attainment outside [0, 1]");
    bool open_loop = false;
    for (const tpp::TenantSpec &t : cfg.tenants)
        open_loop = open_loop || t.openLoop.enabled();
    if (open_loop && (!r.openLoop.enabled || r.openLoop.requests == 0))
        bad.push_back("open-loop run completed no requests");
    if (!(run.setupS > 0.0) || run.setupS > run.wallS)
        bad.push_back("set-up end not observed inside the run");
    return bad;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Peak resident set of this process image (VmHWM), in MB. Unlike
 *  getrusage(), it does not carry over the parent's peak across exec. */
double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0.0;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos && colon + 2 <= line.size())
                return line.substr(colon + 2);
        }
    }
    return "unknown";
}

const char *
compilerName()
{
#if defined(__clang__)
    return "clang " __clang_version__;
#elif defined(__GNUC__)
    return "gcc " __VERSION__;
#else
    return "unknown";
#endif
}

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

/** Named metrics in report order, printed as a table and as JSON (a
 *  non-finite value prints as 0 and fails the report). */
class Report
{
  public:
    void add(std::string name, double value, std::string unit)
    {
        metrics_.push_back({std::move(name), value, std::move(unit)});
    }

    void
    printTable() const
    {
        for (const Metric &m : metrics_)
            std::printf("  %-40s %18.6g %s\n", m.name.c_str(), m.value,
                        m.unit.c_str());
    }

    bool
    allFinite() const
    {
        return std::all_of(metrics_.begin(), metrics_.end(),
                           [](const Metric &m) {
                               return std::isfinite(m.value);
                           });
    }

    void
    printJson(bool correct, int attempted, int failed) const
    {
        std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
                    "\"metrics\": {",
                    correct ? "true" : "false", attempted, failed);
        for (std::size_t i = 0; i < metrics_.size(); ++i) {
            const Metric &m = metrics_[i];
            const double v = std::isfinite(m.value) ? m.value : 0.0;
            std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                        i ? ", " : "", m.name.c_str(), v, m.unit.c_str());
        }
        std::printf("}}\n");
    }

  private:
    std::vector<Metric> metrics_;
};

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string spansOut;
    std::string sourceRev = "unknown";
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "tpp_perfbench: %s\nusage: tpp_perfbench --workload "
                 "NAME --seed N --seconds S --trace 0|1 [--spans-out "
                 "PATH] [--source-rev REV]\n",
                 why);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + arg).c_str());
        const std::string value = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            opt.workload = value;
        } else if (arg == "--seed") {
            opt.seed = std::strtoull(value.c_str(), &end, 10);
            if (value.empty() || value[0] == '-' || *end)
                usage("--seed takes a non-negative integer");
        } else if (arg == "--seconds") {
            opt.seconds = std::strtod(value.c_str(), &end);
            if (value.empty() || *end || !(opt.seconds > 0.0) ||
                opt.seconds > 600.0) {
                usage("--seconds takes a number in (0, 600]");
            }
        } else if (arg == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace takes 0 or 1");
            opt.trace = value == "1";
        } else if (arg == "--spans-out") {
            opt.spansOut = value;
        } else if (arg == "--source-rev") {
            opt.sourceRev = value;
        } else {
            usage(("unknown flag " + arg).c_str());
        }
    }
    return opt;
}

/** Set-up is short next to a run, so it is sampled on its own this many
 *  times after every timed run; spreading the samples over the whole
 *  measurement averages out the host's slow phases. */
constexpr int kSetupSamplesPerRun = 3;
constexpr int kMaxReps = 400;

/** The input seed of the i-th configuration an invocation simulates. */
std::uint64_t
inputSeed(std::uint64_t seed, const Workload &wl, int i)
{
    return seed * static_cast<std::uint64_t>(wl.seeds) +
           static_cast<std::uint64_t>(i);
}

/** What one input seed's run gives a user of the simulator. */
struct Outcome {
    double opsPerS = 0.0;
    double localShare = 0.0;
    double latencyNs = 0.0;
    double recall = 0.0;
    double p99Us = 0.0;
    double sloAttainment = 0.0;
};

Outcome
outcomeOf(const Run &run)
{
    const ExperimentResult &r = run.result;
    Outcome o;
    o.opsPerS = r.throughput;
    o.localShare = r.localTrafficShare;
    o.latencyNs = r.meanAccessLatencyNs;
    o.recall = r.hotSetRecall;
    o.sloAttainment = r.openLoop.sloAttainment;
    o.p99Us = r.openLoop.p99Ns / 1000.0;
    if (!r.openLoop.enabled) {
        // A closed-loop request waits in no queue: its latency is its
        // service time, which WorkloadDriver spreads evenly over the ops of
        // a batch (as the open-loop path does).
        o.p99Us = closedLoopPercentileNs(run.probe->closedLoopOps, 99.0) /
                  1000.0;
    }
    return o;
}

template <typename Field>
double
medianOf(const std::vector<Outcome> &outcomes, Field field)
{
    std::vector<double> v;
    for (const Outcome &o : outcomes)
        v.push_back(o.*field);
    return median(v);
}

/** Counts runs and failed runs; prints each failed check. */
struct Tally {
    int attempted = 0;
    int failed = 0;

    void
    record(const char *what, const std::vector<std::string> &bad)
    {
        ++attempted;
        for (const std::string &b : bad)
            std::printf("CHECK FAILED (%s): %s\n", what, b.c_str());
        failed += bad.empty() ? 0 : 1;
    }
};

void
printManifest(const Options &opt, const Workload &wl,
              const ExperimentConfig &cfg)
{
    std::printf("manifest: source_rev=%s build_type=%s compiler=\"%s\" "
                "nproc=%ld cpu=\"%s\" jobs=1\n",
                opt.sourceRev.c_str(), PERFBENCH_BUILD_TYPE,
                compilerName(), sysconf(_SC_NPROCESSORS_ONLN),
                cpuModel().c_str());
    std::printf("workload: %s loop=%s seed=%llu input_seeds=%llu..%llu "
                "simulated_run_s=%g window_from_s=%g wss_pages=%llu "
                "trace=%d\n",
                wl.name, wl.loop, static_cast<unsigned long long>(opt.seed),
                static_cast<unsigned long long>(inputSeed(opt.seed, wl, 0)),
                static_cast<unsigned long long>(
                    inputSeed(opt.seed, wl, wl.seeds - 1)),
                static_cast<double>(cfg.runUntil) / kSecond,
                static_cast<double>(cfg.measureFrom) / kSecond,
                static_cast<unsigned long long>(cfg.wssPages),
                opt.trace ? 1 : 0);
}

/**
 * End-to-end metrics: one pass over the workload's input seeds, then
 * more passes until the time budget is spent, and at least one seed run
 * twice. Host rates come from every run; simulated metrics are medians
 * over the input seeds.
 */
void
measureEndToEnd(const Options &opt, const Workload &wl, Tally &tally,
                Report &report)
{
    std::vector<ExperimentConfig> cfgs;
    for (int i = 0; i < wl.seeds; ++i)
        cfgs.push_back(wl.make(inputSeed(opt.seed, wl, i)));

    std::vector<std::vector<double>> reference(cfgs.size());
    std::vector<Outcome> outcomes(cfgs.size());
    std::vector<double> raw_rate;
    std::vector<double> norm_rate;
    std::vector<double> slice_ns;
    std::vector<double> setup_s;
    double rss_mb = 0.0;
    const std::int64_t begin = nowNs();
    double last_wall_s = 0.0;
    for (int rep = 0; rep < kMaxReps; ++rep) {
        // Stop once the next run would overrun the budget, after one
        // pass over the input seeds and a repeat of the first.
        const double elapsed = static_cast<double>(nowNs() - begin) / 1e9;
        if (rep > wl.seeds && elapsed + last_wall_s > opt.seconds)
            break;
        const std::size_t i = static_cast<std::size_t>(rep % wl.seeds);
        // The first run is the cold one: it gives peak RSS before any
        // calibration buffer exists, and no rate.
        const Run run = runOnce(cfgs[i], false,
                                static_cast<std::uint32_t>(rep), rep > 0);
        if (rep == 0)
            rss_mb = peakRssMb();
        last_wall_s = run.wallS;
        std::vector<std::string> bad = checkRun(cfgs[i], run);
        const std::vector<double> fp = fingerprint(run);
        if (reference[i].empty()) {
            reference[i] = fp;
            outcomes[i] = outcomeOf(run);
        } else if (fp != reference[i] ||
                   run.result.hotSetRecall != outcomes[i].recall) {
            bad.push_back("simulated metrics differ from the seed's "
                          "first run");
        }
        for (int k = 0; k < kSetupSamplesPerRun; ++k) {
            setup_s.push_back(setupOnce(cfgs[i]));
            if (setup_s.back() <= 0.0)
                bad.push_back("set-up sample did not reach set-up end");
        }
        tally.record("timed run", bad);
        const RunProbe &p = *run.probe;
        const double sim_s =
            run.wallS - static_cast<double>(p.calibrationNs) / 1e9;
        const double rate = static_cast<double>(p.accesses) / sim_s;
        double slice = 0.0;
        if (p.calibrationSlices) {
            slice = static_cast<double>(p.calibrationNs) /
                    static_cast<double>(p.calibrationSlices);
            raw_rate.push_back(rate);
            norm_rate.push_back(rate * slice / kReferenceSliceNs);
            slice_ns.push_back(slice);
        }
        std::printf("rep %d: input_seed=%llu wall_s=%.4f accesses=%llu "
                    "accesses_per_s=%.6g calibration_slices=%llu "
                    "slice_ns=%.0f\n",
                    rep, static_cast<unsigned long long>(cfgs[i].seed),
                    run.wallS, static_cast<unsigned long long>(p.accesses),
                    rate,
                    static_cast<unsigned long long>(p.calibrationSlices),
                    slice);
    }
    if (norm_rate.empty()) {
        tally.record("calibration", {"no calibrated run"});
        norm_rate.push_back(0.0);
        raw_rate.push_back(0.0);
        slice_ns.push_back(0.0);
    }

    // Recall needs the ground-truth observer, which a pinned config may
    // leave off so that its timed runs do not pay for it. The observer
    // only observes: its run must reproduce every other simulated number.
    double recall = medianOf(outcomes, &Outcome::recall);
    if (!cfgs.front().measureHotness) {
        ExperimentConfig observed = cfgs.front();
        observed.measureHotness = true;
        const Run run = runOnce(observed, false, kMaxReps);
        std::vector<std::string> bad = checkRun(observed, run);
        if (fingerprint(run) != reference.front())
            bad.push_back("observed run changed simulated metrics");
        recall = run.result.hotSetRecall;
        tally.record("recall run", bad);
    }

    report.add("sim_accesses_per_ref_s", median(norm_rate), "1/s");
    report.add("setup_s", median(setup_s), "s");
    report.add("peak_rss_mb", rss_mb, "MB");
    report.add("sim_ops_per_s", medianOf(outcomes, &Outcome::opsPerS),
               "1/s");
    report.add("local_traffic_share",
               medianOf(outcomes, &Outcome::localShare), "share");
    report.add("mean_access_latency_ns",
               medianOf(outcomes, &Outcome::latencyNs), "ns");
    report.add("hot_set_recall", recall, "share");
    report.add("slo_attainment",
               medianOf(outcomes, &Outcome::sloAttainment), "share");

    std::printf("host: %zu calibrated runs, sim_accesses_per_s median "
                "%.6g (min %.6g max %.6g), slice_ns median %.0f (reference "
                "%.0f); "
                "%zu set-up samples: median %.6f s (min %.6f max %.6f)\n",
                raw_rate.size(), median(raw_rate),
                *std::min_element(raw_rate.begin(), raw_rate.end()),
                *std::max_element(raw_rate.begin(), raw_rate.end()),
                median(slice_ns), kReferenceSliceNs, setup_s.size(),
                median(setup_s),
                *std::min_element(setup_s.begin(), setup_s.end()),
                *std::max_element(setup_s.begin(), setup_s.end()));
    std::printf("request_p99_us median over input seeds %.6g (ungated: "
                "its spread across seeds exceeds any usable bound)\n",
                medianOf(outcomes, &Outcome::p99Us));
    if (std::string(wl.name) == "expand_cache1") {
        const double local = medianOf(outcomes, &Outcome::localShare);
        std::printf("paper reference (Fig 16, Cache1 TPP at 1:4): local "
                    "traffic %.1f%% vs paper ~%.0f%%, gap %+.1f points; "
                    "the model is otherwise unvalidated (reported, not "
                    "gated)\n",
                    100.0 * local, 100.0 * kPaperCache1TppLocalShare,
                    100.0 * (local - kPaperCache1TppLocalShare));
    }
}

/**
 * Per-layer metrics: untraced runs of the first input seed for half the
 * budget, then one traced run of it through the timed policy. The traced
 * run must reproduce the untraced simulated metrics exactly; its wall
 * time beside the untraced median is the tracing overhead.
 */
void
measureLayers(const Options &opt, const Workload &wl, Tally &tally,
              Report &report)
{
    const ExperimentConfig cfg = wl.make(inputSeed(opt.seed, wl, 0));
    std::vector<double> reference;
    double reference_recall = 0.0;
    std::vector<double> untraced_s;
    const std::int64_t begin = nowNs();
    for (int rep = 0; rep < kMaxReps; ++rep) {
        const double elapsed = static_cast<double>(nowNs() - begin) / 1e9;
        if (rep > 0 && elapsed >= opt.seconds / 2.0)
            break;
        const Run run = runOnce(cfg, false, static_cast<std::uint32_t>(rep));
        std::vector<std::string> bad = checkRun(cfg, run);
        if (reference.empty()) {
            reference = fingerprint(run);
            reference_recall = run.result.hotSetRecall;
        } else if (fingerprint(run) != reference ||
                   run.result.hotSetRecall != reference_recall) {
            bad.push_back("simulated metrics differ from the first run");
        }
        tally.record("untraced run", bad);
        untraced_s.push_back(run.wallS);
    }

    ExperimentConfig traced_cfg = cfg;
    traced_cfg.policy = "bench." + cfg.policy;
    const Run traced = runOnce(traced_cfg, true, kMaxReps);
    std::vector<std::string> bad = checkRun(traced_cfg, traced);
    if (fingerprint(traced) != reference ||
        traced.result.hotSetRecall != reference_recall) {
        bad.push_back("traced run changed simulated metrics");
    }
    tally.record("traced run", bad);

    const RunProbe &p = *traced.probe;
    const LayerTotals &t = p.layers;
    const ExperimentResult &r = traced.result;
    auto vm = [&r](Vm c) { return static_cast<double>(r.vmstat.get(c)); };
    const double self_ns = static_cast<double>(t.batchNs) - t.batchChildNs;
    const double untraced = median(untraced_s);
    report.add("workloads.batch_self_s", self_ns / 1e9, "s");
    report.add("workloads.ns_per_access",
               ratio(self_ns, static_cast<double>(p.accesses)), "ns");
    report.add("workloads.batches", static_cast<double>(t.batches), "count");
    report.add("workloads.accesses", static_cast<double>(p.accesses),
               "count");
    report.add("workloads.batch_us_p50",
               t.batchHist.percentileNs(50.0) / 1000.0, "us");
    report.add("workloads.batch_us_p99",
               t.batchHist.percentileNs(99.0) / 1000.0, "us");
    report.add("workloads.request_p99_us", outcomeOf(traced).p99Us, "us");
    report.add("policy.hint_fault_s",
               static_cast<double>(t.hintFaultNs) / 1e9, "s");
    report.add("policy.hint_fault_calls",
               static_cast<double>(t.hintFaultCalls), "count");
    report.add("policy.alloc_s", static_cast<double>(t.allocNs) / 1e9, "s");
    report.add("policy.alloc_calls", static_cast<double>(t.allocCalls),
               "count");
    report.add("observer.s", t.observerNs() / 1e9, "s");
    report.add("observer.calls", static_cast<double>(t.observerCalls),
               "count");
    report.add("harness.setup_s", traced.setupS, "s");
    report.add("sim.daemon_s",
               static_cast<double>(t.lastBatchEnd - p.setupEndNs -
                                   t.batchNs) /
                   1e9,
               "s");
    report.add("harness.harvest_s",
               static_cast<double>(p.endNs - t.lastBatchEnd) / 1e9, "s");
    const double scan = vm(Vm::PgScanKswapd) + vm(Vm::PgScanDirect);
    const double steal = vm(Vm::PgStealKswapd) + vm(Vm::PgStealDirect);
    report.add("mm.pgfault", vm(Vm::PgFault), "count");
    report.add("mm.allocstall", vm(Vm::AllocStall), "count");
    report.add("mm.pgscan", scan, "count");
    report.add("mm.pgsteal", steal, "count");
    report.add("mm.reclaim_efficiency", ratio(steal, scan), "share");
    report.add("mm.numa_hint_faults", vm(Vm::NumaHintFaults), "count");
    report.add("mm.pgpromote_try", vm(Vm::PgPromoteTry), "count");
    report.add("mm.pgpromote_success", vm(Vm::PgPromoteSuccess), "count");
    report.add("mm.promote_yield",
               ratio(vm(Vm::PgPromoteSuccess), vm(Vm::PgPromoteTry)),
               "share");
    report.add("mm.pgdemote", vm(Vm::PgDemoteAnon) + vm(Vm::PgDemoteFile),
               "count");
    report.add("mm.pingpong_share",
               ratio(vm(Vm::PgPromoteCandidateDemoted),
                     vm(Vm::PgPromoteCandidate)),
               "share");
    const double queued = vm(Vm::PgMigrateQueued);
    const double deferred = vm(Vm::PgMigrateDeferred);
    report.add("mm.migration.queued", queued, "count");
    report.add("mm.migration.deferred", deferred, "count");
    report.add("mm.migration.admit_ratio", ratio(queued, queued + deferred),
               "share");
    report.add("mm.migration.fail_busy", vm(Vm::PgMigrateFailBusy), "count");
    report.add("mm.ppt.throttled",
               vm(Vm::PptThrottledPromote) + vm(Vm::PptThrottledDemote),
               "count");
    report.add("mm.ppt.escalated", vm(Vm::PptEscalated), "count");
    report.add("mm.memcg.reclaim_protected", vm(Vm::MemcgReclaimProtected),
               "count");
    report.add("mm.memcg.reclaim_low", vm(Vm::MemcgReclaimLow), "count");
    report.add("mm.memcg.migrate_throttled", vm(Vm::MemcgMigrateThrottled),
               "count");
    report.add("workloads.openloop.mean_queue_depth",
               r.openLoop.meanQueueDepth, "count");
    report.add("workloads.openloop.max_queue_depth",
               static_cast<double>(r.openLoop.maxQueueDepth), "count");
    report.add("workloads.openloop.dropped",
               static_cast<double>(r.openLoop.dropped), "count");
    report.add("trace.emitted", static_cast<double>(r.traceEmitted),
               "count");
    report.add("trace.dropped", static_cast<double>(r.traceDropped),
               "count");
    report.add("bench.untraced_wall_s", untraced, "s");
    report.add("bench.traced_wall_s", traced.wallS, "s");
    report.add("bench.trace_overhead", traced.wallS / untraced - 1.0,
               "share");
    std::printf("traced run: %.4f s vs untraced median %.4f s over %zu "
                "runs (overhead %+.2f%%); %zu spans kept, %llu over the "
                "cap counted only\n",
                traced.wallS, untraced, untraced_s.size(),
                100.0 * (traced.wallS / untraced - 1.0), p.spans.size(),
                static_cast<unsigned long long>(p.spansDropped));
    if (!opt.spansOut.empty()) {
        if (writeSpans(opt.spansOut, {&p})) {
            std::printf("spans written to %s\n", opt.spansOut.c_str());
        } else {
            tally.record("span export",
                         {"could not write " + opt.spansOut});
        }
    }
}

int
runBenchmark(const Options &opt, const Workload &wl)
{
    printManifest(opt, wl, wl.make(inputSeed(opt.seed, wl, 0)));
    Tally tally;
    Report report;
    if (opt.trace) {
        measureLayers(opt, wl, tally, report);
    } else {
        measureEndToEnd(opt, wl, tally, report);
        // run.py prints the traced table itself, beside layers.json.
        report.printTable();
    }
    bool correct = tally.failed == 0;
    if (!report.allFinite()) {
        std::printf("CHECK FAILED (report): a metric is not finite\n");
        correct = false;
    }
    std::printf("failed_run_share: %d/%d = %.4f\n", tally.failed,
                tally.attempted, ratio(tally.failed, tally.attempted));
    report.printJson(correct, tally.attempted, tally.failed);
    return correct ? 0 : 1;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    const Options opt = parseArgs(argc, argv);
    const Workload *wl = nullptr;
    for (const Workload &w : kWorkloads)
        if (opt.workload == w.name)
            wl = &w;
    if (!wl)
        usage(("unknown workload '" + opt.workload + "'").c_str());
    registerDecorators({"cache1", "churn", "dwh"});
    return runBenchmark(opt, *wl);
}
