/**
 * @file
 * Figure 18: active-LRU-based hot-page detection ablation (§6.3).
 *
 * Cache1 on the 1:4 configuration, TPP with instant promotion versus
 * the active-LRU filter. Reports promotion traffic, the ping-pong
 * counter (demoted pages that become promotion candidates), promotion
 * success rate and traffic convergence.
 *
 * Paper shape: the filter cuts the promotion rate ~11x and halves the
 * number of demoted-then-promoted pages; the promotion success rate
 * improves ~48 %; local traffic improves ~4 % and throughput ~2.4 %,
 * while convergence takes a few extra minutes.
 */

#include "bench_common.hh"
#include "sim/stats.hh"

namespace {

using namespace tpp;

ExperimentConfig
caseConfig(const bench::BenchOptions &opt, bool filter)
{
    ExperimentConfig cfg = bench::makeConfig(opt);
    cfg.workload = "cache1";
    cfg.localFraction = *parseRatioSpec("1:4");
    cfg.policy = "tpp";
    cfg.tpp.activeLruFilter = filter;
    return cfg;
}

double
promoRate(const ExperimentResult &res)
{
    TimeSeries promo;
    for (const IntervalSample &s : res.samples)
        promo.record(s.tick, s.promotionRate);
    return promo.meanValue();
}

/** First tick at which local traffic reaches 95 % of its final level. */
double
convergenceSeconds(const ExperimentResult &res)
{
    if (res.samples.empty())
        return 0.0;
    double final_share = res.samples.back().localShare;
    for (const IntervalSample &s : res.samples) {
        if (s.localShare >= 0.95 * final_share)
            return static_cast<double>(s.tick) / 1e9;
    }
    return static_cast<double>(res.samples.back().tick) / 1e9;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace tpp;
    const bench::BenchOptions opt = bench::parseBenchArgs(argc, argv);

    bench::banner("Figure 18",
                  "active-LRU promotion filter ablation (Cache1, 1:4)");

    const std::vector<ExperimentConfig> cfgs = {caseConfig(opt, false),
                                                caseConfig(opt, true)};
    const std::vector<ExperimentResult> results = bench::runSweep(opt, cfgs);

    const ExperimentResult &instant = results[0];
    const ExperimentResult &filtered = results[1];

    auto successRate = [](const ExperimentResult &r) {
        const std::uint64_t tries = r.vmstat.get(Vm::PgPromoteTry);
        return tries ? static_cast<double>(
                           r.vmstat.get(Vm::PgPromoteSuccess)) /
                           static_cast<double>(tries)
                     : 0.0;
    };

    TextTable table({"variant", "promo rate (pg/s)", "demoted-candidates",
                     "promo success", "local traffic", "tput (ops/s)",
                     "converged (s)"});
    table.addRow(
        {"instant promotion", TextTable::num(promoRate(instant), 0),
         TextTable::count(
             instant.vmstat.get(Vm::PgPromoteCandidateDemoted)),
         TextTable::pct(successRate(instant)),
         TextTable::pct(instant.localTrafficShare),
         TextTable::num(instant.throughput, 0),
         TextTable::num(convergenceSeconds(instant), 1)});
    table.addRow(
        {"active-LRU filter (TPP)", TextTable::num(promoRate(filtered), 0),
         TextTable::count(
             filtered.vmstat.get(Vm::PgPromoteCandidateDemoted)),
         TextTable::pct(successRate(filtered)),
         TextTable::pct(filtered.localTrafficShare),
         TextTable::num(filtered.throughput, 0),
         TextTable::num(convergenceSeconds(filtered), 1)});
    table.print();

    const double r_instant = promoRate(instant);
    const double r_filtered = promoRate(filtered);
    if (r_filtered > 0.0) {
        std::printf("\npromotion rate reduction: %.1fx (paper: ~11x)\n",
                    r_instant / r_filtered);
    }
    const auto d_i = instant.vmstat.get(Vm::PgPromoteCandidateDemoted);
    const auto d_f = filtered.vmstat.get(Vm::PgPromoteCandidateDemoted);
    if (d_i > 0) {
        std::printf("ping-pong (demoted candidates) reduction: %.0f%% "
                    "(paper: ~50%%)\n",
                    100.0 * (1.0 - static_cast<double>(d_f) /
                                       static_cast<double>(d_i)));
    }
    bench::maybeWriteCsv(opt, results);
    bench::maybeWriteTrace(opt, results);
    return 0;
}
