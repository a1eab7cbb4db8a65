/**
 * @file
 * Design-choice ablations beyond the paper's figures, for the knobs
 * DESIGN.md calls out:
 *
 *  1. demote_scale_factor sweep — how much free headroom should the
 *     demotion daemon maintain? The paper defaults to 2 % (§5.2).
 *  2. hint-fault scan cadence sweep — promotion responsiveness vs
 *     sampling overhead (§5.3).
 *  3. promotion rate limit sweep — the upstream follow-up knob
 *     (numa_balancing_promote_rate_limit_MBps); 0 = the paper's TPP.
 *
 * All on the stress case (Cache1, 1:4). The three sweeps are submitted
 * as one batch, so --jobs parallelises across them. The default point
 * shared by all three (factor 2.0 / 512 per 20ms / no limit) is
 * submitted once, and each table reads that one row.
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

struct Cadence {
    std::uint64_t batch;
    Tick period;
    const char *label;
};

} // namespace

int
main(int argc, char **argv)
{
    using namespace tpp;
    const bench::BenchOptions opt = bench::parseBenchArgs(argc, argv);

    bench::banner("Ablation sweeps",
                  "TPP design-choice sensitivity (Cache1, 1:4)");

    const std::vector<double> factors = {0.5, 1.0, 2.0, 4.0, 8.0};
    const std::vector<Cadence> cadences = {
        {128, 40 * kMillisecond, "128 / 40ms (slow)"},
        {512, 20 * kMillisecond, "512 / 20ms (default)"},
        {2048, 10 * kMillisecond, "2048 / 10ms (aggressive)"},
    };
    const std::vector<double> limits = {0.0, 16.0, 64.0, 256.0};

    // Row 0 is the default point. Every table slot names the row it
    // reads; a slot that sets a knob to its default reads row 0.
    const ExperimentConfig base = baseConfig(opt);
    std::vector<ExperimentConfig> cfgs = {base};
    std::vector<std::size_t> rows;
    auto slot = [&](const ExperimentConfig &cfg, bool is_default) {
        if (!is_default)
            cfgs.push_back(cfg);
        rows.push_back(is_default ? 0 : cfgs.size() - 1);
    };
    for (double factor : factors) {
        ExperimentConfig cfg = base;
        cfg.tpp.demoteScaleFactor = factor;
        slot(cfg, factor == base.tpp.demoteScaleFactor);
    }
    for (const Cadence &c : cadences) {
        ExperimentConfig cfg = base;
        cfg.tpp.scanBatch = c.batch;
        cfg.tpp.scanPeriod = c.period;
        slot(cfg, c.batch == base.tpp.scanBatch &&
                      c.period == base.tpp.scanPeriod);
    }
    for (double limit : limits) {
        ExperimentConfig cfg = base;
        cfg.tpp.promoteRateLimitMBps = limit;
        slot(cfg, limit == base.tpp.promoteRateLimitMBps);
    }
    const std::vector<ExperimentResult> ran = bench::runSweep(opt, cfgs);
    std::vector<ExperimentResult> results;
    for (std::size_t row : rows)
        results.push_back(ran[row]);

    std::printf("-- demote_scale_factor --\n");
    {
        TextTable table({"scale factor", "local traffic", "tput (ops/s)",
                         "demotions", "promo success rate"});
        for (std::size_t i = 0; i < factors.size(); ++i) {
            const ExperimentResult &res = results[i];
            const std::uint64_t tries = res.vmstat.get(Vm::PgPromoteTry);
            table.addRow(
                {TextTable::num(factors[i], 1),
                 TextTable::pct(res.localTrafficShare),
                 TextTable::num(res.throughput, 0),
                 TextTable::count(res.vmstat.get(Vm::PgDemoteAnon) +
                                  res.vmstat.get(Vm::PgDemoteFile)),
                 TextTable::pct(
                     tries ? static_cast<double>(res.vmstat.get(
                                 Vm::PgPromoteSuccess)) /
                                 static_cast<double>(tries)
                           : 0.0)});
        }
        table.print();
    }

    std::printf("\n-- hint-fault scan cadence --\n");
    {
        TextTable table({"batch/period", "hint faults", "promotions",
                         "local traffic", "tput (ops/s)"});
        for (std::size_t i = 0; i < cadences.size(); ++i) {
            const ExperimentResult &res = results[factors.size() + i];
            table.addRow(
                {cadences[i].label,
                 TextTable::count(res.vmstat.get(Vm::NumaHintFaults)),
                 TextTable::count(res.vmstat.get(Vm::PgPromoteSuccess)),
                 TextTable::pct(res.localTrafficShare),
                 TextTable::num(res.throughput, 0)});
        }
        table.print();
    }

    std::printf("\n-- promotion rate limit (MB/s) --\n");
    {
        TextTable table({"limit", "promotions", "rate-limited",
                         "local traffic", "tput (ops/s)"});
        for (std::size_t i = 0; i < limits.size(); ++i) {
            const ExperimentResult &res =
                results[factors.size() + cadences.size() + i];
            table.addRow(
                {limits[i] == 0.0 ? "off" : TextTable::num(limits[i], 0),
                 TextTable::count(res.vmstat.get(Vm::PgPromoteSuccess)),
                 TextTable::count(
                     res.vmstat.get(Vm::PgPromoteFailRateLimit)),
                 TextTable::pct(res.localTrafficShare),
                 TextTable::num(res.throughput, 0)});
        }
        table.print();
    }
    bench::maybeWriteCsv(opt, results);
    bench::maybeWriteTrace(opt, results);
    return 0;
}
