/**
 * @file
 * Scenario example: the Web story of §6.2.1, told end to end.
 *
 * A JIT web-serving workload preloads its binary/bytecode files, then
 * its request-serving heap grows and collides with the file cache on a
 * 2:1 tiered machine. The example runs the same machine under all four
 * policies and narrates what each one did — where allocations landed,
 * what got demoted or promoted, how much traffic stayed local, and the
 * throughput cost — demonstrating the full public API: topology
 * building, policy configuration, workload profiles, the driver and
 * the vmstat counters.
 *
 * Usage: web_tiering [wss_pages]
 */

#include <cstdio>

#include "bench_common.hh"

namespace {

void
narrate(const tpp::ExperimentResult &res, double baseline_tput)
{
    using namespace tpp;
    std::printf("\n### policy: %s\n", res.policy.c_str());
    std::printf("  throughput: %.0f ops/s (%.1f%% of all-local)\n",
                res.throughput, 100.0 * res.throughput / baseline_tput);
    std::printf("  traffic:    %.1f%% local / %.1f%% CXL\n",
                100.0 * res.localTrafficShare,
                100.0 * res.cxlTrafficShare);
    std::printf("  residency:  %.0f%% of anons and %.0f%% of files on "
                "the local node\n",
                100.0 * res.anonLocalResidency,
                100.0 * res.fileLocalResidency);

    const VmStat &vs = res.vmstat;
    if (vs.get(Vm::PgDemoteAnon) + vs.get(Vm::PgDemoteFile) > 0) {
        std::printf("  demotion:   %llu anon + %llu file pages migrated "
                    "to CXL (%llu fell back to classic reclaim)\n",
                    (unsigned long long)vs.get(Vm::PgDemoteAnon),
                    (unsigned long long)vs.get(Vm::PgDemoteFile),
                    (unsigned long long)vs.get(Vm::PgDemoteFail));
    }
    if (vs.get(Vm::PswpOut) > 0) {
        std::printf("  paging:     %llu pages swapped out, %llu major "
                    "faults waited on the swap device\n",
                    (unsigned long long)vs.get(Vm::PswpOut),
                    (unsigned long long)vs.get(Vm::PgMajFault));
    }
    if (vs.get(Vm::NumaHintFaults) > 0) {
        std::printf("  promotion:  %llu hint faults -> %llu candidates "
                    "-> %llu promoted (%llu refused: low memory)\n",
                    (unsigned long long)vs.get(Vm::NumaHintFaults),
                    (unsigned long long)vs.get(Vm::PgPromoteCandidate),
                    (unsigned long long)vs.get(Vm::PgPromoteSuccess),
                    (unsigned long long)vs.get(Vm::PgPromoteFailLowMem));
        std::printf("  ping-pong:  %llu promotion candidates had been "
                    "demoted earlier\n",
                    (unsigned long long)
                        vs.get(Vm::PgPromoteCandidateDemoted));
    }
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace tpp;
    setLogVerbose(false);

    ExperimentConfig cfg;
    cfg.workload = "web";
    cfg.localFraction = *parseRatioSpec("2:1");
    if (argc > 1)
        cfg.wssPages = bench::specValueOrDie(parseSpecU64(argv[1]));

    std::printf("Web serving on a 2:1 tiered machine — "
                "%llu-page working set\n",
                (unsigned long long)cfg.wssPages);
    std::printf("The file preload fills the local node; the heap then "
                "grows into it.\n");

    ExperimentConfig base = cfg;
    base.allLocal = true;
    base.policy = "linux";
    const ExperimentResult baseline = runExperiment(base);
    bench::requireSimulated({baseline});
    std::printf("\nall-local reference: %.0f ops/s\n",
                baseline.throughput);

    for (const char *policy :
         {"linux", "numa-balancing", "autotiering", "tpp"}) {
        ExperimentConfig run = cfg;
        run.policy = policy;
        narrate(runExperiment(run), baseline.throughput);
    }
    return 0;
}
