/**
 * @file
 * Figure 17: impact of decoupling allocation from reclamation (§6.3).
 *
 * Case study from the paper: Cache1 on the 1:4 configuration, TPP with
 * and without the decoupled demotion watermarks. Reports the local-node
 * allocation rate (mean and 95th percentile) and the promotion rate
 * (mean and 99th percentile), plus CXL traffic and throughput.
 *
 * Paper shape: with decoupling the p95 local allocation rate rises
 * ~1.6x; without it promotion nearly halts (trapped pages drive ~55 %
 * of traffic and a ~12 % throughput drop), with it promotion sustains a
 * steady rate and CXL traffic falls to ~15 %.
 */

#include "bench_common.hh"
#include "sim/stats.hh"

namespace {

using namespace tpp;

ExperimentConfig
caseConfig(const bench::BenchOptions &opt, bool decouple)
{
    ExperimentConfig cfg = bench::makeConfig(opt);
    cfg.workload = "cache1";
    cfg.localFraction = *parseRatioSpec("1:4");
    cfg.policy = "tpp";
    // The paper's decoupling feature is a unit: the separate demotion
    // watermarks (5.2) plus the allocation-watermark bypass for
    // promotions (5.3). The coupled variant disables both.
    cfg.tpp.decoupleWatermarks = decouple;
    return cfg;
}

struct Row {
    double allocMean, allocP95, promoMean, promoP99;
    ExperimentResult res;
};

Row
makeRow(const ExperimentResult &res)
{
    Row row;
    row.res = res;
    TimeSeries alloc, promo;
    for (const IntervalSample &s : row.res.samples) {
        alloc.record(s.tick, s.localAllocRate);
        promo.record(s.tick, s.promotionRate);
    }
    row.allocMean = alloc.meanValue();
    row.allocP95 = alloc.percentile(95.0);
    row.promoMean = promo.meanValue();
    row.promoP99 = promo.percentile(99.0);
    return row;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace tpp;
    const bench::BenchOptions opt = bench::parseBenchArgs(argc, argv);

    bench::banner("Figure 17",
                  "allocation/reclamation decoupling ablation "
                  "(Cache1, 1:4)");

    const std::vector<ExperimentConfig> cfgs = {caseConfig(opt, false),
                                                caseConfig(opt, true)};
    const std::vector<ExperimentResult> results = bench::runSweep(opt, cfgs);

    const Row coupled = makeRow(results[0]);
    const Row decoupled = makeRow(results[1]);

    TextTable table({"variant", "alloc->local mean (pg/s)",
                     "alloc->local p95", "promo mean (pg/s)", "promo p99",
                     "cxl traffic", "throughput (ops/s)"});
    table.addRow({"coupled (no decoupling)",
                  TextTable::num(coupled.allocMean, 0),
                  TextTable::num(coupled.allocP95, 0),
                  TextTable::num(coupled.promoMean, 0),
                  TextTable::num(coupled.promoP99, 0),
                  TextTable::pct(coupled.res.cxlTrafficShare),
                  TextTable::num(coupled.res.throughput, 0)});
    table.addRow({"decoupled (TPP)",
                  TextTable::num(decoupled.allocMean, 0),
                  TextTable::num(decoupled.allocP95, 0),
                  TextTable::num(decoupled.promoMean, 0),
                  TextTable::num(decoupled.promoP99, 0),
                  TextTable::pct(decoupled.res.cxlTrafficShare),
                  TextTable::num(decoupled.res.throughput, 0)});
    table.print();

    if (coupled.allocP95 > 0.0) {
        std::printf("\np95 local allocation rate gain: %.2fx "
                    "(paper: ~1.6x)\n",
                    decoupled.allocP95 / coupled.allocP95);
    }
    std::printf("paper: without decoupling promotion almost halts, CXL "
                "traffic ~55%%, throughput -12%%\n");
    bench::maybeWriteCsv(opt, results);
    bench::maybeWriteTrace(opt, results);
    return 0;
}
