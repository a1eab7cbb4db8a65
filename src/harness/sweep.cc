#include "harness/sweep.hh"

#include <algorithm>
#include <cstdio>
#include <mutex>

#include "harness/thread_pool.hh"

namespace tpp {

namespace {

ExperimentResult
runAndReport(const ExperimentConfig &cfg)
{
    ExperimentResult result = runExperiment(cfg);
    // A rejected config fails alone, with a diagnostic; the other N-1
    // still run.
    if (result.failed()) {
        std::fprintf(stderr, "sweep: rejected %s/%s: %s\n",
                     result.workload.c_str(), result.policy.c_str(),
                     result.error.c_str());
    }
    return result;
}

} // namespace

SweepRunner::SweepRunner(SweepOptions opts) : opts_(opts)
{
    if (opts_.jobs == 0)
        opts_.jobs = ThreadPool::hardwareConcurrency();
}

std::vector<ExperimentResult>
SweepRunner::run(const std::vector<ExperimentConfig> &configs)
{
    const std::size_t n = configs.size();
    std::vector<ExperimentResult> results(n);
    if (n == 0)
        return results;

    const unsigned jobs =
        static_cast<unsigned>(std::min<std::size_t>(opts_.jobs, n));

    std::mutex progress_mutex;
    std::size_t completed = 0;
    auto report = [&](const ExperimentConfig &cfg) {
        if (!opts_.progress)
            return;
        std::lock_guard<std::mutex> lock(progress_mutex);
        completed++;
        std::fprintf(stderr, "\r[sweep %zu/%zu] %s/%s%s", completed, n,
                     cfg.workload.c_str(), cfg.policy.c_str(),
                     completed == n ? "\n" : " ");
        std::fflush(stderr);
    };

    if (jobs <= 1) {
        // Serial path: same code path runExperiment loops always took.
        for (std::size_t i = 0; i < n; ++i) {
            results[i] = runAndReport(configs[i]);
            report(configs[i]);
        }
    } else {
        ThreadPool pool(jobs);
        for (std::size_t i = 0; i < n; ++i) {
            pool.submit([&, i] {
                results[i] = runAndReport(configs[i]);
                report(configs[i]);
            });
        }
        pool.wait();
    }
    return results;
}

} // namespace tpp
