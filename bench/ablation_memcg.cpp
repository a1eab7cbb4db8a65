/**
 * @file
 * Memory-cgroup protection ablation (src/mm/memcg): co-locate a
 * latency-sensitive victim workload with the churn antagonist on one
 * tiered machine and toggle the victim's memory.low-style floor.
 *
 * Without protection the antagonist's allocation storm drags the
 * victim's hot set off the local tier; with a floor, reclaim skips the
 * victim's local pages (two-pass, memcg_reclaim_protected) and the
 * victim keeps its residency and latency. The claim, checked loudly on
 * every pairing: protection on gives the victim strictly higher
 * hot-set residency AND strictly lower mean access latency than
 * protection off.
 *
 * Extra flag beyond the shared bench options:
 *
 *   --preset smoke|full   smoke shortens the run for CI (default full).
 */

#include "bench_common.hh"

namespace {

using namespace tpp;

/** The latency-sensitive tenants to protect from the antagonist. */
const std::vector<std::string> kVictims = {"cache1", "web"};
constexpr const char *kAntagonist = "churn";
/** memory.low floor, as a fraction of the victim's working set. */
constexpr double kLowFraction = 0.6;

ExperimentConfig
baseConfig(const bench::BenchOptions &opt, bool smoke)
{
    ExperimentConfig cfg = bench::makeConfig(opt);
    // A small local tier: the two tenants' combined hot sets oversubscribe
    // it, so fast-tier residency is genuinely contended.
    cfg.localFraction = *parseRatioSpec("2:3");
    cfg.policy = "tpp";
    cfg.measureHotness = true;
    if (smoke) {
        cfg.runUntil = 6 * kSecond;
        cfg.measureFrom = 3 * kSecond;
    }
    return cfg;
}

ExperimentConfig
pairingConfig(const bench::BenchOptions &opt, bool smoke,
              const std::string &victim, bool protection)
{
    ExperimentConfig cfg = baseConfig(opt, smoke);
    TenantSpec v;
    v.workload = victim;
    v.lowFraction = protection ? kLowFraction : 0.0;
    TenantSpec a;
    a.workload = kAntagonist;
    cfg.tenants = {v, a};
    return cfg;
}

void
printPairingTable(const std::string &victim, const ExperimentResult &off,
                  const ExperimentResult &on)
{
    std::printf("-- %s + %s --\n", victim.c_str(), kAntagonist);
    TextTable table({"protection", "tenant", "tput (ops/s)",
                     "latency (ns)", "local residency", "hot-set recall",
                     "reclaim protected", "reclaim low"});
    for (const auto *res : {&off, &on}) {
        const bool is_on = res == &on;
        for (const TenantResult &t : res->tenants) {
            table.addRow({is_on ? "memory.low" : "off", t.workload,
                          TextTable::num(t.throughput, 0),
                          TextTable::num(t.meanAccessLatencyNs, 1),
                          TextTable::pct(t.localResidency),
                          TextTable::pct(t.hotSetRecall),
                          TextTable::count(t.memcg.reclaimProtected),
                          TextTable::count(t.memcg.reclaimLow)});
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

    bench::banner("Ablation: memcg protection",
                  "victim + churn antagonist, memory.low floor on/off "
                  "(2:3 local tier)");

    std::vector<ExperimentConfig> cfgs;
    for (const std::string &victim : kVictims) {
        cfgs.push_back(pairingConfig(opt, smoke, victim, false));
        cfgs.push_back(pairingConfig(opt, smoke, victim, true));
    }

    const std::vector<ExperimentResult> results = bench::runSweep(opt, cfgs);

    for (std::size_t i = 0; i < kVictims.size(); ++i)
        printPairingTable(kVictims[i], results[2 * i],
                          results[2 * i + 1]);

    // The isolation claim, per pairing. Loud failure beats a silent
    // table.
    for (std::size_t i = 0; i < kVictims.size(); ++i) {
        const TenantResult &off = results[2 * i].tenants.front();
        const TenantResult &on = results[2 * i + 1].tenants.front();
        if (on.hotSetRecall <= off.hotSetRecall)
            std::printf("WARNING: protected %s hot-set recall (%.3f) "
                        "does not beat unprotected (%.3f)\n",
                        kVictims[i].c_str(), on.hotSetRecall,
                        off.hotSetRecall);
        if (on.meanAccessLatencyNs >= off.meanAccessLatencyNs)
            std::printf("WARNING: protected %s latency (%.1f ns) is not "
                        "below unprotected (%.1f ns)\n",
                        kVictims[i].c_str(), on.meanAccessLatencyNs,
                        off.meanAccessLatencyNs);
    }

    bench::maybeWriteCsv(opt, results);
    bench::maybeWriteTrace(opt, results);
    return 0;
}
