/**
 * @file
 * MigrationEngine ablation: what does making migration asynchronous,
 * transactional and bandwidth-priced buy (or cost), and does the
 * token-bucket admission controller actually bound migration traffic?
 *
 * Two sweeps on the stress case (Cache1, 1:4, TPP):
 *
 *  1. Engine-mode ladder — sync-compat (the pre-engine kernel,
 *     bit-identical), async queueing only, + transactional copy,
 *     + bandwidth-coupled copy cost (= MigrationConfig::asyncEngine()).
 *  2. Admission sweep — vm.migration_rate_limit_mbps from unlimited
 *     down to a starved budget, async engine; the deferred counter
 *     must rise and successful migrations fall monotonically as the
 *     budget shrinks.
 *
 * Extra flag beyond the shared bench options:
 *
 *   --mode sync|async|all   which sweep(s) to run (default all).
 *                           `sync` and `async` are the CI smoke
 *                           entries: one config each, small and fast.
 */

#include "bench_common.hh"

namespace {

using namespace tpp;

ExperimentConfig
baseConfig(const bench::BenchOptions &opt)
{
    ExperimentConfig cfg = bench::makeConfig(opt);
    cfg.workload = "cache1";
    cfg.localFraction = *parseRatioSpec("1:4");
    cfg.policy = "tpp";
    return cfg;
}

struct EngineMode {
    MigrationConfig migration;
    const char *label;
};

std::vector<EngineMode>
engineLadder()
{
    std::vector<EngineMode> modes;
    modes.push_back({MigrationConfig{}, "sync-compat"});

    MigrationConfig queued;
    queued.async = true;
    queued.queueDepth = 512;
    modes.push_back({queued, "async queueing"});

    MigrationConfig txn = queued;
    txn.transactional = true;
    modes.push_back({txn, "+ transactional"});

    modes.push_back({MigrationConfig::asyncEngine(), "+ bandwidth cost"});
    return modes;
}

void
printEngineTable(const std::vector<EngineMode> &modes,
                 const std::vector<ExperimentResult> &results)
{
    TextTable table({"engine mode", "tput (ops/s)", "local traffic",
                     "migrated", "queued", "deferred", "busy aborts"});
    for (std::size_t i = 0; i < modes.size(); ++i) {
        const ExperimentResult &res = results[i];
        table.addRow(
            {modes[i].label, TextTable::num(res.throughput, 0),
             TextTable::pct(res.localTrafficShare),
             TextTable::count(res.vmstat.get(Vm::PgMigrateSuccess)),
             TextTable::count(res.vmstat.get(Vm::PgMigrateQueued)),
             TextTable::count(res.vmstat.get(Vm::PgMigrateDeferred)),
             TextTable::count(res.vmstat.get(Vm::PgMigrateFailBusy))});
    }
    table.print();
    std::printf("\n");
}

void
printAdmissionTable(const std::vector<double> &limits,
                    const std::vector<ExperimentResult> &results)
{
    TextTable table({"rate limit (MB/s)", "tput (ops/s)", "migrated",
                     "deferred", "deferred share"});
    for (std::size_t i = 0; i < limits.size(); ++i) {
        const ExperimentResult &res = results[i];
        const std::uint64_t moved =
            res.vmstat.get(Vm::PgMigrateSuccess);
        const std::uint64_t deferred =
            res.vmstat.get(Vm::PgMigrateDeferred);
        const std::uint64_t asked = moved + deferred;
        table.addRow(
            {limits[i] == 0.0 ? std::string("unlimited")
                              : TextTable::num(limits[i], 0),
             TextTable::num(res.throughput, 0),
             TextTable::count(moved), TextTable::count(deferred),
             asked ? TextTable::pct(static_cast<double>(deferred) /
                                    static_cast<double>(asked))
                   : std::string("-")});
    }
    table.print();
    std::printf("\n");
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace tpp;

    const std::string mode =
        bench::peelChoice(argc, argv, "--mode", {"all", "sync", "async"});
    const bench::BenchOptions opt = bench::parseBenchArgs(argc, argv);

    bench::banner("Ablation: MigrationEngine",
                  "async/transactional migration + admission control "
                  "(Cache1, 1:4, TPP)");

    std::vector<EngineMode> modes = engineLadder();
    if (mode == "sync")
        modes = {modes.front()};
    else if (mode == "async")
        modes = {modes.back()};

    const std::vector<double> limits = {0.0, 512.0, 128.0, 32.0};

    // Every table slot names the row it reads. The unlimited admission
    // point is the ladder's last rung (asyncEngine()), so it reads that
    // row instead of being submitted twice.
    std::vector<ExperimentConfig> cfgs;
    std::vector<std::size_t> rows;
    for (const EngineMode &m : modes) {
        ExperimentConfig cfg = baseConfig(opt);
        cfg.migration = m.migration;
        cfgs.push_back(cfg);
        rows.push_back(cfgs.size() - 1);
    }
    if (mode == "all") {
        for (double limit : limits) {
            if (limit == MigrationConfig::asyncEngine().rateLimitMBps) {
                rows.push_back(modes.size() - 1);
                continue;
            }
            ExperimentConfig cfg = baseConfig(opt);
            cfg.migration = MigrationConfig::asyncEngine();
            cfg.migration.rateLimitMBps = limit;
            cfgs.push_back(cfg);
            rows.push_back(cfgs.size() - 1);
        }
    }

    const std::vector<ExperimentResult> ran = bench::runSweep(opt, cfgs);
    std::vector<ExperimentResult> results;
    for (std::size_t row : rows)
        results.push_back(ran[row]);

    std::printf("-- engine mode ladder --\n");
    printEngineTable(modes,
                     {results.begin(), results.begin() + modes.size()});

    if (mode == "all") {
        std::printf("-- admission control (async engine) --\n");
        std::vector<ExperimentResult> tail(
            results.begin() + modes.size(), results.end());
        printAdmissionTable(limits, tail);

        // The headline claim: a shrinking budget monotonically defers
        // more and moves less. Loud failure beats a silent table.
        for (std::size_t i = 1; i < limits.size(); ++i) {
            const auto &prev = tail[i - 1].vmstat;
            const auto &cur = tail[i].vmstat;
            if (cur.get(Vm::PgMigrateSuccess) >
                    prev.get(Vm::PgMigrateSuccess) ||
                cur.get(Vm::PgMigrateDeferred) <
                    prev.get(Vm::PgMigrateDeferred)) {
                std::printf("WARNING: admission control not monotone "
                            "between %.0f and %.0f MB/s\n",
                            limits[i - 1], limits[i]);
            }
        }
    }

    bench::maybeWriteCsv(opt, results);
    bench::maybeWriteTrace(opt, results);
    return 0;
}
