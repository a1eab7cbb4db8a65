/**
 * @file
 * Open-loop tail-latency ablation (src/workloads/arrival): offer the
 * victim workload a fixed request rate that sits *between* the linux
 * and tpp service capacities on a 1:4 tiered machine, next to the
 * churn antagonist.
 *
 * Closed-loop drivers hide placement quality: a slow kernel simply
 * issues fewer ops. An open-loop arrival process keeps offering load
 * regardless of service latency, so the difference shows up where
 * production sees it — the tail. With tpp the victim's service rate
 * stays above the offered rate and p99 stays near the service time;
 * with linux the CXL-heavy placement drops the service rate below the
 * arrival rate and the queue grows without bound, so p99 climbs to the
 * length of the measurement window. The per-tenant CSV carries
 * offered qps, p50/p99/p999 and SLO attainment per tenant.
 *
 * Extra flags beyond the shared bench options:
 *
 *   --preset smoke|full   smoke shortens the run for CI (default full)
 *   --qps/--arrival/--slo override the victim's canned spike
 */

#include "bench_common.hh"

namespace {

using namespace tpp;

/** dwh leans hardest on memory (6 accesses/op), so placement moves
 *  its service rate the most; see the capacity table in the file
 *  header comment of the test (tests/test_openloop.cc). */
constexpr const char *kVictim = "dwh";
constexpr const char *kAntagonist = "churn";
const std::vector<std::string> kPolicies = {"linux", "tpp"};

/** Offered rate between the two capacities (~470k vs ~531k req/s at
 *  --wss 8192), and a p99 target comfortably above the loaded-but-
 *  stable tail yet far below a collapsed queue. */
constexpr double kDefaultQps = 5.0e5;
constexpr double kDefaultSloUs = 500.0;

ExperimentConfig
spikeConfig(const bench::BenchOptions &opt, bool smoke,
            const std::string &policy)
{
    ExperimentConfig cfg = bench::makeConfig(opt);
    // makeConfig() routes --qps to the config level when no --tenants
    // spec is given; this bench builds its own tenants and hands any
    // run-wide override to the victim below instead.
    cfg.openLoop = OpenLoopSpec{};
    cfg.policy = policy;
    // The paper's 1:4 expansion point: small local tier, most capacity
    // on CXL — placement quality decides the victim's service rate.
    cfg.localFraction = *parseRatioSpec("1:4");
    if (smoke) {
        // Short, but long enough for tpp to converge placement and
        // drain its warm-up backlog before the window opens; with a
        // 6s/3s window both policies still tail on the backlog.
        cfg.runUntil = 12 * kSecond;
        cfg.measureFrom = 8 * kSecond;
    }

    TenantSpec victim;
    victim.workload = kVictim;
    victim.lowFraction = 0.5;
    victim.openLoop.qps = kDefaultQps;
    victim.openLoop.arrival = "poisson";
    victim.openLoop.sloP99Us = kDefaultSloUs;
    if (opt.openLoop.enabled())
        victim.openLoop = opt.openLoop;

    TenantSpec antagonist;
    antagonist.workload = kAntagonist;

    cfg.tenants = {victim, antagonist};
    return cfg;
}

void
printTable(const std::vector<ExperimentResult> &results)
{
    TextTable table({"policy", "tenant", "offered (req/s)", "p50 (us)",
                     "p99 (us)", "p99.9 (us)", "mean queue",
                     "goodput (req/s)", "SLO attainment"});
    for (const ExperimentResult &r : results) {
        for (const TenantResult &t : r.tenants) {
            if (!t.openLoop.enabled)
                continue;
            const OpenLoopResult &ol = t.openLoop;
            table.addRow({r.policy, t.workload,
                          TextTable::num(ol.offeredQps, 0),
                          TextTable::num(ol.p50Ns / 1000.0, 1),
                          TextTable::num(ol.p99Ns / 1000.0, 1),
                          TextTable::num(ol.p999Ns / 1000.0, 1),
                          TextTable::num(ol.meanQueueDepth, 1),
                          TextTable::num(ol.goodputQps, 0),
                          TextTable::pct(ol.sloAttainment)});
        }
    }
    table.print();
    std::printf("\n");
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace tpp;

    const std::string preset =
        bench::peelChoice(argc, argv, "--preset", {"full", "smoke"});
    const bench::BenchOptions opt = bench::parseBenchArgs(argc, argv);
    const bool smoke = preset == "smoke";

    bench::banner("Ablation: open-loop tail latency",
                  "dwh victim at a fixed offered rate + churn "
                  "antagonist (1:4 local:CXL)");

    std::vector<ExperimentConfig> cfgs;
    for (const std::string &policy : kPolicies)
        cfgs.push_back(spikeConfig(opt, smoke, policy));

    const std::vector<ExperimentResult> results = bench::runSweep(opt, cfgs);

    printTable(results);

    // The tail-latency claim, checked loudly: under the same offered
    // rate, tpp must hold a p99 far below linux's collapsed queue and
    // keep SLO attainment strictly higher.
    const OpenLoopResult &linux_ol =
        results.front().tenants.front().openLoop;
    const OpenLoopResult &tpp_ol =
        results.back().tenants.front().openLoop;
    if (tpp_ol.p99Ns * 2.0 >= linux_ol.p99Ns) {
        std::printf("WARNING: tpp p99 (%.1f us) is not well below "
                    "linux p99 (%.1f us)\n",
                    tpp_ol.p99Ns / 1000.0, linux_ol.p99Ns / 1000.0);
    }
    if (tpp_ol.sloAttainment <= linux_ol.sloAttainment) {
        std::printf("WARNING: tpp SLO attainment (%.3f) does not beat "
                    "linux (%.3f)\n",
                    tpp_ol.sloAttainment, linux_ol.sloAttainment);
    }

    bench::maybeWriteCsv(opt, results);
    bench::maybeWriteTrace(opt, results);
    return 0;
}
