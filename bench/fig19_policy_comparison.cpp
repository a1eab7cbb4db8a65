/**
 * @file
 * Figure 19: TPP against NUMA Balancing and AutoTiering (§6.4).
 *
 * Web on the 2:1 production configuration and Cache1 on the 1:4
 * expansion configuration, under all four policies.
 *
 * Paper shape: Web — NUMA Balancing's reclaim is ~42x slower than
 * TPP's demotion and its promotions stall (20 % local traffic, -17.2 %);
 * AutoTiering's fixed promotion reserve fills up (70 % of traffic from
 * CXL, -13 %); TPP stays at ~99.5 %. Cache1 1:4 — NUMA Balancing stops
 * promoting (46 % local, -10 %); AutoTiering crashes outright in the
 * paper (here it runs, degraded); TPP ~99.5 %.
 */

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace tpp;
    const bench::BenchOptions opt = bench::parseBenchArgs(argc, argv);

    bench::banner("Figure 19",
                  "TPP vs NUMA Balancing vs AutoTiering");

    struct Case {
        const char *workload;
        const char *ratio;
    };
    const std::vector<Case> cases = {{"web", "2:1"}, {"cache1", "1:4"}};
    // `adaptive` is TPP plus the phase-adaptive tuner (PR 10); it rides
    // along here so the policy zoo table keeps one row per policy.
    const std::vector<const char *> policies = {
        "linux", "numa-balancing", "autotiering", "tpp", "adaptive"};

    TextTable table({"workload", "config", "policy", "local traffic",
                     "tput vs all-local", "promotions", "hint faults"});

    // Per case: the all-local baseline followed by each policy run.
    std::vector<ExperimentConfig> cfgs;
    for (const Case &c : cases) {
        ExperimentConfig base = bench::makeConfig(opt);
        base.workload = c.workload;
        base.allLocal = true;
        // The baseline is the canned all-local box even when --topology
        // reshapes the comparison runs.
        base.topology.clear();
        base.policy = "linux";
        cfgs.push_back(base);
        for (const char *policy : policies) {
            ExperimentConfig cfg = base;
            cfg.allLocal = false;
            cfg.topology = opt.topologySpec;
            cfg.localFraction = *parseRatioSpec(c.ratio);
            cfg.policy = policy;
            // The tuner profiles the PPT flip history, so the throttle
            // goes live with it.
            if (std::string(policy) == "adaptive")
                cfg.sysctls.emplace_back("vm.ppt.enable", "1");
            cfgs.push_back(cfg);
        }
    }
    const std::vector<ExperimentResult> results = bench::runSweep(opt, cfgs);

    const std::size_t stride = 1 + policies.size();
    for (std::size_t k = 0; k < cases.size(); ++k) {
        const ExperimentResult &baseline = results[k * stride];
        for (std::size_t p = 0; p < policies.size(); ++p) {
            const ExperimentResult &res = results[k * stride + 1 + p];
            table.addRow(
                {cases[k].workload, cases[k].ratio, policies[p],
                 TextTable::pct(res.localTrafficShare),
                 TextTable::pct(res.throughput / baseline.throughput),
                 TextTable::count(res.vmstat.get(Vm::PgPromoteSuccess)),
                 TextTable::count(res.vmstat.get(Vm::NumaHintFaults))});
        }
    }
    table.print();
    std::printf("\npaper: Web 2:1 — NB 20%% local @82.8%%, AT 30%% local "
                "@87%%, TPP @99.5%%; Cache1 1:4 — NB 46%% local @90%%, "
                "AT n/a (crashes), TPP 85%% local @99.5%%\n");
    bench::maybeWriteCsv(opt, results);
    bench::maybeWriteTrace(opt, results);
    return 0;
}
