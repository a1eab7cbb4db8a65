/**
 * @file
 * Shared plumbing for the figure/table reproduction binaries (and the
 * sweep-shaped examples): a common option parser, sweep wiring, CSV
 * export and headline banners.
 *
 * Every binary accepts:
 *
 *   --wss PAGES   working-set size in pages (default 32768 = 128 MiB)
 *   --jobs N      run sweep configs on N worker threads (0 = all
 *                 hardware threads; results are bit-for-bit identical
 *                 to --jobs 1)
 *   --seed S      simulation seed
 *   --csv PATH    also write the run's ExperimentResults as CSV
 *   --trace       enable kernel tracepoints (src/trace) for every run
 *   --trace-out PATH  write tracepoint events + sampler series as
 *                 JSONL (implies --trace; tools/trace_summary reads it)
 *   --sample-ms N attach the TimeSeriesSampler at an N ms period
 *   --sysctl N=V  apply a sysctl to every run (repeatable)
 *   --qps Q       open-loop offered load in requests/s (0 = closed loop)
 *   --arrival A   arrival process: poisson | bursty | diurnal
 *   --slo US      p99 latency SLO in microseconds (0 = none)
 *   --topology SPEC  explicit machine description, one node per entry:
 *                 "local:pages=N;cxl:pages=M:lat=150:bw=64;
 *                 cxl-far:pages=K:lat=300" — lat marks a lower tier
 *                 (CPU-less unless cpu=1); overrides the canned
 *                 two-node build (see ExperimentConfig::topology)
 *   --verbose     enable inform()/warn() logging + sweep progress
 *   PAGES         bare positional working-set size (backward compat)
 *
 * Tracing and sampling are observational: enabling them changes what a
 * run *records*, never what it computes — the printed tables are
 * byte-identical with or without these flags (tests/test_trace.cc).
 *
 * An unknown argument, a flag missing its value, malformed spec-valued
 * flags (--tenants, --sysctl, --qps, --arrival, --slo, --topology),
 * malformed counts (--wss, --jobs, --seed, --sample-ms and PAGES:
 * base-10 digits only, via parseSpecU64), flag combinations
 * ExperimentConfig::validate() refuses, an unknown workload or policy
 * name (validate() lists the registered ones; a --tenants entry
 * included), a --sysctl the kernel does not have or whose value it
 * refuses, and (trace_summary) a trace file it cannot open print the
 * diagnostic — naming the bad token — and exit with status 2
 * (badInvocation), so scripts can tell "bad invocation" from a
 * simulator failure.
 */

#ifndef TPP_BENCH_BENCH_COMMON_HH
#define TPP_BENCH_BENCH_COMMON_HH

#include <climits>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "harness/export.hh"
#include "harness/spec.hh"
#include "harness/sweep.hh"
#include "harness/table.hh"
#include "sim/logging.hh"

namespace tpp {
namespace bench {

inline constexpr std::uint64_t kDefaultWssPages = 32768;

/** Options shared by every bench binary. */
struct BenchOptions {
    std::uint64_t wssPages = kDefaultWssPages;
    /** Sweep worker threads; 0 = all hardware threads. */
    unsigned jobs = 1;
    std::uint64_t seed = 1;
    /** When non-empty, results are also written here as CSV. */
    std::string csvPath;
    /** Enable kernel tracepoints for every run of the binary. */
    bool trace = false;
    /** When non-empty, write trace events + samples here as JSONL
     *  (implies trace). */
    std::string traceOutPath;
    /** Sampler period in milliseconds; 0 = sampler off. */
    std::uint64_t sampleMs = 0;
    bool verbose = false;
    /** --tenants spec (see parseTenants); empty = single workload. */
    std::string tenantsSpec;
    /** --topology spec (see parseTopology); empty = canned machine. */
    std::string topologySpec;
    /** --sysctl name=value assignments, applied to every run. */
    std::vector<std::pair<std::string, std::string>> sysctls;
    /** Open-loop traffic (--qps/--arrival/--slo); qps 0 = closed. */
    OpenLoopSpec openLoop;
};

/** Exit status for a bad invocation (vs. 1 for fatals). */
inline constexpr int kBadSpecExit = 2;

/** Print "error: <message>" and exit(2): the invocation was bad. */
[[noreturn]] inline void badInvocation(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

inline void
badInvocation(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    std::fputs("error: ", stderr);
    std::vfprintf(stderr, fmt, args);
    std::fputc('\n', stderr);
    va_end(args);
    std::exit(kBadSpecExit);
}

/** Unwrap a spec result or print its diagnostic and exit(2). */
template <typename T>
inline T
specValueOrDie(SpecResult<T> result)
{
    if (!result)
        badInvocation("%s", result.error().render().c_str());
    return std::move(*result);
}

/** The value after flag argv[i], advancing i; exit(2) if there is none. */
inline std::string
flagValue(int argc, char **argv, int &i)
{
    if (i + 1 >= argc)
        badInvocation("missing value after %s", argv[i]);
    return argv[++i];
}

/** Exit 2 unless `value`, given to `flag`, is one of `choices`. */
inline void
requireChoice(const std::string &flag, const std::string &value,
              const std::vector<std::string> &choices)
{
    std::string known;
    for (const std::string &choice : choices) {
        if (choice == value)
            return;
        known += (known.empty() ? "" : "|") + choice;
    }
    badInvocation("%s expects %s, got '%s'", flag.c_str(), known.c_str(),
                  value.c_str());
}

/**
 * Take "FLAG VALUE" out of argv (shrinking argc), so that the rest can
 * go to parseBenchArgs. Returns VALUE, or choices.front() when FLAG is
 * absent; a VALUE outside `choices` exits 2.
 */
inline std::string
peelChoice(int &argc, char **argv, const std::string &flag,
           const std::vector<std::string> &choices)
{
    std::string value = choices.front();
    int kept = 1;
    for (int i = 1; i < argc; ++i) {
        if (argv[i] == flag)
            value = flagValue(argc, argv, i);
        else
            argv[kept++] = argv[i];
    }
    argc = kept;
    requireChoice(flag, value, choices);
    return value;
}

/** Split a comma-separated name list; an empty list exits 2. */
inline std::vector<std::string>
splitList(const std::string &text)
{
    std::vector<std::string> out;
    std::string::size_type start = 0;
    while (start <= text.size()) {
        const auto comma = text.find(',', start);
        const auto end = comma == std::string::npos ? text.size() : comma;
        if (end > start)
            out.push_back(text.substr(start, end - start));
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    if (out.empty())
        badInvocation("empty name list '%s'", text.c_str());
    return out;
}

inline void
printUsage(const char *argv0)
{
    const int pad = static_cast<int>(std::string(argv0).size());
    std::printf("usage: %s [PAGES] [--wss PAGES] [--jobs N] [--seed S]\n"
                "       %*s [--csv PATH] [--trace] [--trace-out PATH]\n"
                "       %*s [--sample-ms N] [--tenants SPEC] [--verbose]\n"
                "       %*s [--sysctl NAME=VALUE] [--qps QPS]\n"
                "       %*s [--arrival poisson|bursty|diurnal] [--slo US]\n"
                "       %*s [--topology SPEC]\n",
                argv0, pad, "", pad, "", pad, "", pad, "", pad, "");
}

/**
 * Parse the shared bench argv. The first bare non-flag argument is the
 * working-set size in pages, as it always was.
 */
inline BenchOptions
parseBenchArgs(int argc, char **argv)
{
    setLogVerbose(false);
    BenchOptions opt;
    bool saw_positional = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&] { return flagValue(argc, argv, i); };
        if (arg == "--wss") {
            opt.wssPages = specValueOrDie(parseSpecU64(next()));
        } else if (arg == "--jobs") {
            opt.jobs = static_cast<unsigned>(
                specValueOrDie(parseSpecU64(next(), 0, UINT_MAX)));
        } else if (arg == "--seed") {
            opt.seed = specValueOrDie(parseSpecU64(next()));
        } else if (arg == "--csv") {
            opt.csvPath = next();
        } else if (arg == "--trace") {
            opt.trace = true;
        } else if (arg == "--trace-out") {
            opt.traceOutPath = next();
            opt.trace = true;
        } else if (arg == "--sample-ms") {
            opt.sampleMs = specValueOrDie(
                parseSpecU64(next(), 1, UINT64_MAX / kMillisecond));
        } else if (arg == "--tenants") {
            opt.tenantsSpec = next();
        } else if (arg == "--topology") {
            opt.topologySpec = next();
        } else if (arg == "--sysctl") {
            opt.sysctls.push_back(
                specValueOrDie(parseAssignment(next())));
        } else if (arg == "--qps") {
            opt.openLoop.qps =
                specValueOrDie(parseSpecDouble(next(), 0.0, 1e9));
        } else if (arg == "--arrival") {
            const std::string name = next();
            if (!ArrivalProcess::known(name))
                badInvocation("unknown --arrival '%s' (want %s)",
                              name.c_str(), ArrivalProcess::knownNames());
            opt.openLoop.arrival = name;
        } else if (arg == "--slo") {
            opt.openLoop.sloP99Us =
                specValueOrDie(parseSpecDouble(next(), 0.0, 1e9));
        } else if (arg == "--verbose") {
            opt.verbose = true;
        } else if (arg == "--help" || arg == "-h") {
            printUsage(argv[0]);
            std::exit(0);
        } else if (!arg.empty() && arg[0] != '-' && !saw_positional) {
            opt.wssPages = specValueOrDie(parseSpecU64(arg));
            saw_positional = true;
        } else {
            badInvocation("unknown argument '%s' (try --help)", arg.c_str());
        }
    }
    setLogVerbose(opt.verbose);
    return opt;
}

/**
 * Reject a config the flags assembled into something invalid (a bad
 * spec, or a combination validate() refuses) here, with the spec-flag
 * exit status, instead of fataling mid-run: scripts can tell "bad
 * invocation" from a simulator failure.
 */
inline void
requireValid(const ExperimentConfig &cfg)
{
    if (SpecResult<void> valid = cfg.validate(); !valid)
        badInvocation("%s", valid.error().render().c_str());
}

/**
 * An ExperimentConfig carrying the shared options (wss, seed), checked
 * with requireValid(). A binary that goes on to set fields the flags
 * can contradict (withChameleon) checks its final config again.
 */
inline ExperimentConfig
makeConfig(const BenchOptions &opt)
{
    ExperimentConfig cfg;
    cfg.wssPages = opt.wssPages;
    cfg.seed = opt.seed;
    cfg.traceEnabled = opt.trace;
    if (opt.sampleMs) {
        cfg.sampleSeries = true;
        cfg.samplePeriod = opt.sampleMs * kMillisecond;
    }
    for (const auto &assignment : opt.sysctls)
        cfg.sysctls.push_back(assignment);
    if (!opt.tenantsSpec.empty())
        cfg.tenants = specValueOrDie(parseTenants(opt.tenantsSpec));
    cfg.topology = opt.topologySpec;
    if (opt.openLoop.enabled()) {
        if (!cfg.tenants.empty()) {
            // With --tenants, the run-wide flags are a default each
            // tenant inherits unless its spec sets its own qps=.
            for (TenantSpec &tenant : cfg.tenants)
                if (!tenant.openLoop.enabled())
                    tenant.openLoop = opt.openLoop;
        } else {
            cfg.openLoop = opt.openLoop;
        }
    }
    requireValid(cfg);
    return cfg;
}

/**
 * Exit 2 when the simulator rejected any run (a config validate()
 * refuses, or a sysctl the kernel will not take): the invocation was
 * bad, and a table of zeros would hide it.
 */
inline void
requireSimulated(const std::vector<ExperimentResult> &results)
{
    for (const ExperimentResult &r : results)
        if (r.failed())
            badInvocation("%s", r.error.c_str());
}

/** Run the binary's sweep under --jobs/--verbose; requireSimulated(). */
inline std::vector<ExperimentResult>
runSweep(const BenchOptions &opt, const std::vector<ExperimentConfig> &cfgs)
{
    SweepOptions sweep;
    sweep.jobs = opt.jobs;
    sweep.progress = opt.verbose;
    std::vector<ExperimentResult> results = SweepRunner(sweep).run(cfgs);
    requireSimulated(results);
    return results;
}

/** Honour --csv: dump every result of the run in submission order. */
inline void
maybeWriteCsv(const BenchOptions &opt,
              const std::vector<ExperimentResult> &results)
{
    if (opt.csvPath.empty())
        return;
    std::ofstream out(opt.csvPath);
    if (!out)
        tpp_fatal("cannot open --csv path '%s'", opt.csvPath.c_str());
    writeResultsCsv(out, results);
    // Multi-tenant runs get their per-tenant rows next to the headline
    // CSV, in "<path>.tenants.csv".
    for (const ExperimentResult &r : results) {
        if (r.tenants.empty())
            continue;
        const std::string tenant_path = opt.csvPath + ".tenants.csv";
        std::ofstream tout(tenant_path);
        if (!tout)
            tpp_fatal("cannot open tenants CSV path '%s'",
                      tenant_path.c_str());
        writeTenantsCsv(tout, results);
        break;
    }
}

/**
 * Honour --trace-out: append every result's tracepoint events and
 * sampler series to one JSONL file, tagged by workload/policy so a
 * whole sweep shares the file.
 */
inline void
maybeWriteTrace(const BenchOptions &opt,
                const std::vector<ExperimentResult> &results)
{
    if (opt.traceOutPath.empty())
        return;
    std::ofstream out(opt.traceOutPath);
    if (!out)
        tpp_fatal("cannot open --trace-out path '%s'",
                  opt.traceOutPath.c_str());
    for (const ExperimentResult &r : results)
        writeTraceJsonl(out, r);
}

/** Print the figure banner. */
inline void
banner(const char *id, const char *title)
{
    std::printf("==============================================================\n");
    std::printf("%s — %s\n", id, title);
    std::printf("==============================================================\n\n");
}

} // namespace bench
} // namespace tpp

#endif // TPP_BENCH_BENCH_COMMON_HH
