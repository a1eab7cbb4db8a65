/**
 * @file
 * Figure 10: throughput vs memory-type utilisation.
 *
 * All-local runs printing, per interval, normalised throughput against
 * anon and file utilisation, plus the correlation between each type's
 * utilisation and throughput over the run.
 *
 * Paper shape: Web's and Cache2's throughput track anon utilisation;
 * Cache1 shows no strong relation (fixed anons + preloaded tmpfs); DWH
 * peaks when anon usage peaks.
 */

#include <cmath>

#include "bench_common.hh"

namespace {

/** Pearson correlation of two equally sized series. */
double
correlation(const std::vector<double> &a, const std::vector<double> &b)
{
    const std::size_t n = std::min(a.size(), b.size());
    if (n < 2)
        return 0.0;
    double ma = 0, mb = 0;
    for (std::size_t i = 0; i < n; ++i) {
        ma += a[i];
        mb += b[i];
    }
    ma /= static_cast<double>(n);
    mb /= static_cast<double>(n);
    double cov = 0, va = 0, vb = 0;
    for (std::size_t i = 0; i < n; ++i) {
        cov += (a[i] - ma) * (b[i] - mb);
        va += (a[i] - ma) * (a[i] - ma);
        vb += (b[i] - mb) * (b[i] - mb);
    }
    if (va <= 0.0 || vb <= 0.0)
        return 0.0;
    return cov / std::sqrt(va * vb);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace tpp;
    const bench::BenchOptions opt = bench::parseBenchArgs(argc, argv);

    bench::banner("Figure 10",
                  "throughput sensitivity to anon/file utilisation "
                  "(all-local)");

    TextTable table({"workload", "corr(anon, tput)", "corr(file, tput)",
                     "tput swing", "peak tput at anon util"});

    std::vector<ExperimentConfig> cfgs;
    for (const char *wl : {"web", "cache1", "cache2", "dwh"}) {
        ExperimentConfig cfg = bench::makeConfig(opt);
        cfg.workload = wl;
        cfg.allLocal = true;
        cfg.policy = "linux";
        cfgs.push_back(cfg);
    }
    const std::vector<ExperimentResult> results = bench::runSweep(opt, cfgs);

    for (std::size_t w = 0; w < cfgs.size(); ++w) {
        const ExperimentResult &res = results[w];

        std::vector<double> anon, file, tput;
        double best_tput = 0.0, best_anon = 0.0;
        double min_tput = 0.0;
        for (const IntervalSample &s : res.samples) {
            if (s.throughput <= 0.0)
                continue;
            anon.push_back(static_cast<double>(s.anonResident));
            file.push_back(static_cast<double>(s.fileResident));
            tput.push_back(s.throughput);
            if (s.throughput > best_tput) {
                best_tput = s.throughput;
                best_anon = static_cast<double>(s.anonResident) /
                            static_cast<double>(opt.wssPages);
            }
            if (min_tput == 0.0 || s.throughput < min_tput)
                min_tput = s.throughput;
        }
        // A small swing means throughput is insensitive to placement
        // (Cache1 in the paper); correlations on a flat series are
        // incidental.
        const double swing =
            best_tput > 0.0 ? (best_tput - min_tput) / best_tput : 0.0;
        table.addRow({cfgs[w].workload,
                      TextTable::num(correlation(anon, tput), 2),
                      TextTable::num(correlation(file, tput), 2),
                      TextTable::pct(swing), TextTable::pct(best_anon)});
    }
    table.print();
    std::printf("\npaper: Web/Cache2/DWH throughput rises with anon "
                "utilisation; Cache1 shows no clear relation\n");
    bench::maybeWriteCsv(opt, results);
    bench::maybeWriteTrace(opt, results);
    return 0;
}
