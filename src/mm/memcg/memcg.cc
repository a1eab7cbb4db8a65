#include "mm/memcg/memcg.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "mm/sysctl.hh"
#include "sim/logging.hh"

namespace tpp {

std::string
MemCgroup::memoryStat() const
{
    std::ostringstream out;
    out << "usage " << usage() << '\n';
    for (std::size_t nid = 0; nid < usageByNode_.size(); ++nid)
        out << "usage_node" << nid << ' ' << usageByNode_[nid] << '\n';
    out << "low " << low << '\n';
    out << "pages_charged " << stats.pagesCharged << '\n';
    out << "pages_uncharged " << stats.pagesUncharged << '\n';
    out << "promote_candidates " << stats.promoteCandidates << '\n';
    out << "promote_success " << stats.promoteSuccess << '\n';
    out << "demotions " << stats.demotions << '\n';
    out << "reclaim_protected " << stats.reclaimProtected << '\n';
    out << "reclaim_low " << stats.reclaimLow << '\n';
    out << "migrate_throttled " << stats.migrateThrottled << '\n';
    out << "requests_total " << stats.requestsTotal << '\n';
    out << "requests_slo_met " << stats.requestsSloMet << '\n';
    {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%g", sloP99Us);
        out << "slo_p99_us " << buf << '\n';
        const double attainment =
            stats.requestsTotal
                ? static_cast<double>(stats.requestsSloMet) /
                      static_cast<double>(stats.requestsTotal)
                : 1.0;
        std::snprintf(buf, sizeof(buf), "%g", attainment);
        out << "slo_attainment " << buf << '\n';
    }
    return out.str();
}

MemcgController::MemcgController(std::size_t num_nodes,
                                 SysctlRegistry &sysctl, EventQueue &eq)
    : numNodes_(num_nodes), sysctl_(sysctl), eq_(eq)
{
    // The root cgroup exists from boot; every process starts there.
    // It never carries a floor, so a freshly built kernel behaves
    // exactly like the pre-memcg one.
    cgroups_.push_back(
        std::make_unique<MemCgroup>(kRootCgroup, "root", numNodes_));
}

CgroupId
MemcgController::create(const std::string &name)
{
    if (name.empty())
        tpp_fatal("memcg: cgroup name must not be empty");
    if (find(name))
        tpp_fatal("memcg: cgroup '%s' already exists", name.c_str());
    const CgroupId id = static_cast<CgroupId>(cgroups_.size());
    cgroups_.push_back(
        std::make_unique<MemCgroup>(id, name, numNodes_));
    MemCgroup *cg = cgroups_.back().get();

    const std::string prefix = "memcg." + name + ".";
    sysctl_.registerU64(prefix + "low", &cg->low);
    sysctl_.registerKnob(
        prefix + "placement",
        [cg] {
            switch (cg->placement) {
              case MemcgPlacement::LocalOnly: return std::string("local_only");
              case MemcgPlacement::CxlOnly: return std::string("cxl_only");
              case MemcgPlacement::None: break;
            }
            return std::string("none");
        },
        [cg](const std::string &text) {
            if (text == "none")
                cg->placement = MemcgPlacement::None;
            else if (text == "local_only")
                cg->placement = MemcgPlacement::LocalOnly;
            else if (text == "cxl_only")
                cg->placement = MemcgPlacement::CxlOnly;
            else
                return false;
            return true;
        });
    sysctl_.registerKnob(
        prefix + "migration_budget_mbps",
        [cg] {
            char buf[64];
            std::snprintf(buf, sizeof(buf), "%g", cg->migrationBudgetMBps);
            return std::string(buf);
        },
        [this, id](const std::string &text) {
            char *end = nullptr;
            const double parsed = std::strtod(text.c_str(), &end);
            if (end == text.c_str() || *end != '\0' ||
                !std::isfinite(parsed) || parsed < 0.0)
                return false;
            setMigrationBudget(id, parsed);
            return true;
        });
    sysctl_.registerKnob(
        prefix + "slo_p99_us",
        [cg] {
            char buf[64];
            std::snprintf(buf, sizeof(buf), "%g", cg->sloP99Us);
            return std::string(buf);
        },
        [cg](const std::string &text) {
            char *end = nullptr;
            const double parsed = std::strtod(text.c_str(), &end);
            if (end == text.c_str() || *end != '\0' ||
                !std::isfinite(parsed) || parsed < 0.0)
                return false;
            cg->sloP99Us = parsed;
            return true;
        });
    sysctl_.registerReadOnly(prefix + "stat",
                             [cg] { return cg->memoryStat(); });
    return id;
}

MemCgroup &
MemcgController::cgroup(CgroupId id)
{
    if (id >= cgroups_.size())
        tpp_panic("memcg: bad cgroup id %u", id);
    return *cgroups_[id];
}

const MemCgroup &
MemcgController::cgroup(CgroupId id) const
{
    if (id >= cgroups_.size())
        tpp_panic("memcg: bad cgroup id %u", id);
    return *cgroups_[id];
}

MemCgroup *
MemcgController::find(const std::string &name)
{
    for (auto &cg : cgroups_)
        if (cg->name() == name)
            return cg.get();
    return nullptr;
}

void
MemcgController::attach(Asid asid, CgroupId id)
{
    if (id >= cgroups_.size())
        tpp_panic("memcg: attach to bad cgroup id %u", id);
    if (asid >= byAsid_.size())
        byAsid_.resize(asid + 1, kRootCgroup);
    byAsid_[asid] = id;
}

void
MemcgController::noteProcess(Asid asid)
{
    attach(asid, spawnCgroup_);
}

void
MemcgController::charge(Asid asid, NodeId nid)
{
    MemCgroup &cg = *cgroups_[cgroupOf(asid)];
    cg.usageByNode_[nid]++;
    cg.stats.pagesCharged++;
}

void
MemcgController::uncharge(Asid asid, NodeId nid)
{
    MemCgroup &cg = *cgroups_[cgroupOf(asid)];
    if (cg.usageByNode_[nid] == 0)
        tpp_panic("memcg: uncharge below zero on node %u (cgroup %s)",
                  nid, cg.name().c_str());
    cg.usageByNode_[nid]--;
    cg.stats.pagesUncharged++;
}

void
MemcgController::transfer(Asid asid, NodeId src, NodeId dst)
{
    MemCgroup &cg = *cgroups_[cgroupOf(asid)];
    if (cg.usageByNode_[src] == 0)
        tpp_panic("memcg: transfer below zero on node %u (cgroup %s)",
                  src, cg.name().c_str());
    cg.usageByNode_[src]--;
    cg.usageByNode_[dst]++;
}

bool
MemcgController::protectionActive() const
{
    for (const auto &cg : cgroups_)
        if (cg->low > 0)
            return true;
    return false;
}

bool
MemcgController::chargeMigration(Asid asid, std::uint64_t bytes)
{
    MemCgroup &cg = *cgroups_[cgroupOf(asid)];
    if (cg.migrationBudgetMBps <= 0.0)
        return true;
    const Tick now = eq_.now();
    const double bytes_per_ns = cg.migrationBudgetMBps * 1e6 / 1e9;
    const double burst = cg.migrationBudgetMBps * 1e6 * 0.1; // 100 ms
    cg.tokens_ += static_cast<double>(now - cg.tokensRefilledAt_) *
                  bytes_per_ns;
    cg.tokensRefilledAt_ = now;
    if (cg.tokens_ > burst)
        cg.tokens_ = burst;
    if (cg.tokens_ < static_cast<double>(bytes))
        return false;
    cg.tokens_ -= static_cast<double>(bytes);
    return true;
}

void
MemcgController::noteRequests(CgroupId id, std::uint64_t total,
                              std::uint64_t slo_met)
{
    MemCgroup &cg = cgroup(id);
    cg.stats.requestsTotal += total;
    cg.stats.requestsSloMet += slo_met;
}

void
MemcgController::setMigrationBudget(CgroupId id, double mbps)
{
    MemCgroup &cg = cgroup(id);
    const Tick now = eq_.now();
    // Settle the bucket at the old rate before switching: tokens earned
    // so far survive (clamped to the old burst), but a rate change
    // never mints a fresh burst out of thin air.
    if (cg.migrationBudgetMBps > 0.0) {
        const double old_rate = cg.migrationBudgetMBps * 1e6 / 1e9;
        const double old_burst = cg.migrationBudgetMBps * 1e6 * 0.1;
        cg.tokens_ += static_cast<double>(now - cg.tokensRefilledAt_) *
                      old_rate;
        if (cg.tokens_ > old_burst)
            cg.tokens_ = old_burst;
    }
    cg.tokensRefilledAt_ = now;
    cg.migrationBudgetMBps = mbps;
    const double new_burst = mbps * 1e6 * 0.1;
    if (cg.tokens_ > new_burst)
        cg.tokens_ = new_burst;
}

} // namespace tpp
