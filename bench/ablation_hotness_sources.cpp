/**
 * @file
 * Hotness-source ablation (src/hotness): the same demotion machinery
 * and epoch-batched promotion pipeline, swapping only the temperature
 * signal — hint-fault sampling, DAMON-lite regions, the Chameleon
 * profiler and the NeoProf device counter engine — plus stock TPP as
 * the instant-promotion reference.
 *
 * For every source × workload cell the harness also measures hot-set
 * recall: the fraction of the true hot set (top pages by access count
 * in the measurement window, up to local capacity) resident locally at
 * the end of the run. The headline claim, checked loudly: on the
 * cache-expansion workload the device counters (neoprof) beat
 * hint-fault sampling on recall without migrating more pages.
 *
 * Extra flag beyond the shared bench options:
 *
 *   --preset smoke|full   smoke shortens the run for CI (default full).
 */

#include "bench_common.hh"
#include "hotness/hotness_source.hh"

namespace {

using namespace tpp;

const std::vector<std::string> kSources = {"hintfault", "damon",
                                           "chameleon", "neoprof"};
const std::vector<std::string> kWorkloads = {"cache1", "web"};

ExperimentConfig
baseConfig(const bench::BenchOptions &opt, bool smoke)
{
    ExperimentConfig cfg = bench::makeConfig(opt);
    cfg.localFraction = *parseRatioSpec("1:4");
    cfg.measureHotness = true;
    if (smoke) {
        cfg.runUntil = 6 * kSecond;
        cfg.measureFrom = 3 * kSecond;
    }
    return cfg;
}

void
printSourceTable(const std::string &workload,
                 const std::vector<std::string> &labels,
                 const std::vector<ExperimentResult> &results)
{
    std::printf("-- %s --\n", workload.c_str());
    TextTable table({"source", "tput (ops/s)", "local traffic",
                     "hot-set recall", "hot pages", "migrated",
                     "ctr evictions"});
    for (std::size_t i = 0; i < labels.size(); ++i) {
        const ExperimentResult &res = results[i];
        table.addRow(
            {labels[i], TextTable::num(res.throughput, 0),
             TextTable::pct(res.localTrafficShare),
             TextTable::pct(res.hotSetRecall),
             TextTable::count(res.hotSetPages),
             TextTable::count(res.vmstat.get(Vm::PgMigrateSuccess)),
             TextTable::count(
                 res.vmstat.get(Vm::HotnessCounterEvict))});
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

    bench::banner("Ablation: hotness sources",
                  "one promotion pipeline, four temperature signals "
                  "(1:4, hot-set recall)");

    // Per workload: the four sources through the hotness policy, then
    // stock TPP (instant hint-fault promotion) as the reference row.
    std::vector<ExperimentConfig> cfgs;
    std::vector<std::string> labels;
    for (const std::string &workload : kWorkloads) {
        for (const std::string &source : kSources) {
            ExperimentConfig cfg = baseConfig(opt, smoke);
            cfg.workload = workload;
            cfg.policy = "hotness";
            cfg.hotness.source = source;
            cfgs.push_back(cfg);
        }
        ExperimentConfig tpp_ref = baseConfig(opt, smoke);
        tpp_ref.workload = workload;
        tpp_ref.policy = "tpp";
        cfgs.push_back(tpp_ref);
    }
    labels = kSources;
    labels.push_back("tpp (reference)");

    const std::vector<ExperimentResult> results = bench::runSweep(opt, cfgs);

    const std::size_t per_workload = labels.size();
    for (std::size_t w = 0; w < kWorkloads.size(); ++w) {
        const auto begin = results.begin() +
                           static_cast<std::ptrdiff_t>(w * per_workload);
        printSourceTable(
            kWorkloads[w], labels,
            {begin, begin + static_cast<std::ptrdiff_t>(per_workload)});
    }

    // The headline claim on the cache-expansion workload: device
    // counters see every CXL access, so they must recover more of the
    // hot set than hint-fault sampling without moving more pages.
    // Loud failure beats a silent table.
    const std::size_t cache1 = 0; // kWorkloads[0]
    const ExperimentResult &hintfault =
        results[cache1 * per_workload + 0];
    const ExperimentResult &neoprof = results[cache1 * per_workload + 3];
    if (neoprof.hotSetRecall <= hintfault.hotSetRecall)
        std::printf("WARNING: neoprof recall (%.3f) does not beat "
                    "hintfault (%.3f) on cache1\n",
                    neoprof.hotSetRecall, hintfault.hotSetRecall);
    if (neoprof.vmstat.get(Vm::PgMigrateSuccess) >
        hintfault.vmstat.get(Vm::PgMigrateSuccess))
        std::printf("WARNING: neoprof migrated more pages (%llu) than "
                    "hintfault (%llu) on cache1\n",
                    static_cast<unsigned long long>(
                        neoprof.vmstat.get(Vm::PgMigrateSuccess)),
                    static_cast<unsigned long long>(
                        hintfault.vmstat.get(Vm::PgMigrateSuccess)));

    bench::maybeWriteCsv(opt, results);
    bench::maybeWriteTrace(opt, results);
    return 0;
}
