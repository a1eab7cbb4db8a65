/**
 * @file
 * The full-surface lab CLI: run any (workload, policy, topology)
 * combination, poke sysctl knobs before the run, and export results as
 * CSV/JSON — the one binary that exercises the whole public API
 * (topologies, every registered policy and workload, sysctl, meminfo,
 * export, and the parallel sweep engine).
 *
 * --workload and --policy accept comma-separated lists; the lab runs
 * the full cross product through SweepRunner, so `--jobs N` fans the
 * grid out across N threads with bit-identical results.
 *
 * Usage:
 *   tiering_lab [--workload NAME[,NAME...]] [--policy NAME[,NAME...]]
 *               [--ratio L:C | --all-local | --topology SPEC]
 *               [--wss pages] [--seed S]
 *               [--jobs N] [--sysctl name=value]...
 *               [--csv] [--json] [--meminfo] [--verbose]
 *
 * Unknown workload or policy names fatal() with the registered list.
 * An unknown argument, a flag missing its value, a malformed --ratio
 * or --sysctl, or a sysctl the kernel refuses prints the diagnostic and
 * exits 2.
 */

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "mm/meminfo.hh"

namespace {

using namespace tpp;

struct Options {
    std::vector<std::string> workloads = {"cache1"};
    std::vector<std::string> policies = {"tpp"};
    double localFraction = 2.0 / 3.0; //!< --ratio, default 2:1
    bool allLocal = false;
    std::string topologySpec;
    std::uint64_t wss = 32768;
    std::uint64_t seed = 1;
    unsigned jobs = 1;
    std::vector<std::pair<std::string, std::string>> sysctls;
    bool csv = false;
    bool json = false;
    bool meminfo = false;
    bool verbose = false;
};

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&] { return bench::flagValue(argc, argv, i); };
        if (arg == "--workload") {
            opt.workloads = bench::splitList(next());
        } else if (arg == "--policy") {
            opt.policies = bench::splitList(next());
        } else if (arg == "--ratio") {
            opt.localFraction =
                bench::specValueOrDie(parseRatioSpec(next()));
        } else if (arg == "--all-local") {
            opt.allLocal = true;
        } else if (arg == "--topology") {
            opt.topologySpec = next();
        } else if (arg == "--wss") {
            opt.wss = bench::specValueOrDie(parseSpecU64(next()));
        } else if (arg == "--seed") {
            opt.seed = bench::specValueOrDie(parseSpecU64(next()));
        } else if (arg == "--jobs") {
            opt.jobs = static_cast<unsigned>(bench::specValueOrDie(
                parseSpecU64(next(), 0, UINT_MAX)));
        } else if (arg == "--sysctl") {
            opt.sysctls.push_back(
                bench::specValueOrDie(parseAssignment(next())));
        } else if (arg == "--csv") {
            opt.csv = true;
        } else if (arg == "--json") {
            opt.json = true;
        } else if (arg == "--meminfo") {
            opt.meminfo = true;
        } else if (arg == "--verbose") {
            opt.verbose = true;
        } else {
            bench::badInvocation("unknown argument '%s'", arg.c_str());
        }
    }
    return opt;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    setLogVerbose(opt.verbose);

    std::vector<ExperimentConfig> cfgs;
    for (const std::string &workload : opt.workloads) {
        for (const std::string &policy : opt.policies) {
            ExperimentConfig cfg;
            cfg.workload = workload;
            cfg.policy = policy;
            cfg.wssPages = opt.wss;
            cfg.seed = opt.seed;
            cfg.sysctls = opt.sysctls;
            if (!opt.topologySpec.empty())
                cfg.topology = opt.topologySpec;
            else if (opt.allLocal)
                cfg.allLocal = true;
            else
                cfg.localFraction = opt.localFraction;
            cfgs.push_back(cfg);
        }
    }

    SweepOptions sweep;
    sweep.jobs = opt.jobs;
    sweep.progress = opt.verbose;
    const std::vector<ExperimentResult> results =
        SweepRunner(sweep).run(cfgs);
    bench::requireSimulated(results);

    if (opt.csv)
        writeResultsCsv(std::cout, results);
    for (std::size_t i = 0; i < results.size(); ++i) {
        const ExperimentResult &result = results[i];
        if (opt.json) {
            writeResultJson(std::cout, result);
        } else if (!opt.csv) {
            std::printf("%s / %s: %.0f ops/s, %.1f%% local traffic, "
                        "%.1f ns mean access\n",
                        result.workload.c_str(), result.policy.c_str(),
                        result.throughput,
                        100.0 * result.localTrafficShare,
                        result.meanAccessLatencyNs);
            if (results.size() == 1) {
                std::printf("\n-- vmstat --\n%s",
                            result.vmstat.report().c_str());
            }
        }
        if (opt.meminfo) {
            std::printf("\n-- meminfo (%s / %s) --\n%s",
                        result.workload.c_str(), result.policy.c_str(),
                        renderMemInfo(result.meminfo).c_str());
        }
    }
    return 0;
}
