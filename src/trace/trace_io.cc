#include "trace/trace_io.hh"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <istream>
#include <ostream>

#include "sim/logging.hh"

namespace tpp {

const char *
traceEventName(TraceEvent event)
{
    switch (event) {
      case TraceEvent::AllocFallback: return "pgalloc_fallback";
      case TraceEvent::AllocStall: return "allocstall";
      case TraceEvent::HintFault: return "numa_hint_fault";
      case TraceEvent::PromoteCandidate: return "pgpromote_candidate";
      case TraceEvent::PromoteTry: return "pgpromote_try";
      case TraceEvent::PromoteSuccess: return "pgpromote_success";
      case TraceEvent::PromoteFailLowMem: return "pgpromote_fail_lowmem";
      case TraceEvent::PromoteFailIsolate: return "pgpromote_fail_isolate";
      case TraceEvent::PromoteFailRateLimit:
        return "pgpromote_fail_ratelimit";
      case TraceEvent::Demote: return "pgdemote";
      case TraceEvent::DemoteFail: return "pgdemote_fail";
      case TraceEvent::KswapdWake: return "kswapd_wake";
      case TraceEvent::KswapdSleep: return "kswapd_sleep";
      case TraceEvent::DirectReclaim: return "direct_reclaim";
      case TraceEvent::SwapOut: return "pswpout";
      case TraceEvent::SwapIn: return "pswpin";
      case TraceEvent::MigrateQueued: return "migrate_queued";
      case TraceEvent::MigrateDeferred: return "migrate_deferred";
      case TraceEvent::MigrateAbort: return "migrate_abort";
      case TraceEvent::HotnessEpoch: return "hotness_epoch";
      case TraceEvent::HotnessThreshold: return "hotness_threshold";
      case TraceEvent::HotnessEvict: return "hotness_evict";
      case TraceEvent::MemcgEvent: return "memcg_event";
      case TraceEvent::PptThrottle: return "ppt_throttle";
      case TraceEvent::PptEscalate: return "ppt_escalate";
      case TraceEvent::PptEvict: return "ppt_evict";
      case TraceEvent::AdaptiveWindow: return "adaptive_window";
      case TraceEvent::AdaptiveTune: return "adaptive_tune";
      case TraceEvent::AdaptiveRevert: return "adaptive_revert";
      case TraceEvent::AdaptiveSettle: return "adaptive_settle";
      case TraceEvent::AdaptiveWake: return "adaptive_wake";
      case TraceEvent::NumEvents: break;
    }
    tpp_panic("traceEventName: bad event %u",
              static_cast<unsigned>(event));
}

TraceEvent
traceEventFromName(const std::string &name)
{
    for (std::size_t i = 0; i < kNumTraceEvents; ++i) {
        const TraceEvent event = static_cast<TraceEvent>(i);
        if (name == traceEventName(event))
            return event;
    }
    tpp_fatal("unknown trace event name '%s'", name.c_str());
}

std::string
jsonEscape(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    for (char c : text) {
        if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x",
                          static_cast<unsigned>(static_cast<unsigned char>(c)));
            out += buf;
            continue;
        }
        if (c == '"' || c == '\\')
            out.push_back('\\');
        out.push_back(c);
    }
    return out;
}

namespace {

const char *
pageTypeName(std::uint8_t type)
{
    if (type == static_cast<std::uint8_t>(PageType::Anon))
        return "anon";
    if (type == static_cast<std::uint8_t>(PageType::File))
        return "file";
    return "none";
}

/**
 * Extract `"key":<value>` from one flat JSON line. These helpers parse
 * only the JSONL this module writes; they are not a general JSON
 * parser, but they reject anything they cannot prove well-formed.
 */
bool
findRawValue(const std::string &line, const std::string &key,
             std::string *out)
{
    const std::string needle = "\"" + key + "\":";
    const auto pos = line.find(needle);
    if (pos == std::string::npos)
        return false;
    std::size_t start = pos + needle.size();
    while (start < line.size() &&
           std::isspace(static_cast<unsigned char>(line[start])))
        start++;
    std::size_t end = start;
    if (end < line.size() && line[end] == '"') {
        // String value: scan to the closing unescaped quote.
        end++;
        while (end < line.size() &&
               (line[end] != '"' || line[end - 1] == '\\'))
            end++;
        if (end >= line.size())
            return false;
        end++;
    } else {
        while (end < line.size() && line[end] != ',' && line[end] != '}')
            end++;
    }
    *out = line.substr(start, end - start);
    return true;
}

bool
findString(const std::string &line, const std::string &key,
           std::string *out)
{
    std::string raw;
    if (!findRawValue(line, key, &raw) || raw.size() < 2 ||
        raw.front() != '"' || raw.back() != '"')
        return false;
    // Undo the writer's escaping.
    std::string value;
    value.reserve(raw.size() - 2);
    for (std::size_t i = 1; i + 1 < raw.size(); ++i) {
        if (raw[i] == '\\' && raw[i + 1] == 'u' && i + 6 < raw.size()) {
            value.push_back(static_cast<char>(
                std::strtoul(raw.substr(i + 2, 4).c_str(), nullptr, 16)));
            i += 5;
            continue;
        }
        if (raw[i] == '\\' && i + 2 < raw.size())
            i++;
        value.push_back(raw[i]);
    }
    *out = value;
    return true;
}

bool
findU64(const std::string &line, const std::string &key,
        std::uint64_t *out)
{
    std::string raw;
    if (!findRawValue(line, key, &raw) || raw.empty())
        return false;
    errno = 0;
    char *end = nullptr;
    const unsigned long long value = std::strtoull(raw.c_str(), &end, 10);
    if (end != raw.c_str() + raw.size() || errno == ERANGE)
        return false;
    *out = value;
    return true;
}

} // namespace

void
writeTraceEventJsonl(std::ostream &out, const TraceRecord &record,
                     const std::string &workload,
                     const std::string &policy)
{
    out << "{\"kind\":\"event\",\"workload\":\"" << jsonEscape(workload)
        << "\",\"policy\":\"" << jsonEscape(policy)
        << "\",\"tick\":" << record.tick << ",\"event\":\""
        << traceEventName(record.event) << "\",\"node\":"
        << static_cast<unsigned>(record.node)
        << ",\"aux\":" << record.aux;
    if (record.type != kTraceNoType)
        out << ",\"type\":\"" << pageTypeName(record.type) << '"';
    if (record.hasPage) {
        out << ",\"pfn\":" << record.pfn << ",\"asid\":" << record.asid
            << ",\"vpn\":" << record.vpn;
    }
    out << "}\n";
}

void
writeSamplePointJsonl(std::ostream &out, const TimeSeriesPoint &point,
                      const std::string &workload,
                      const std::string &policy)
{
    out << "{\"kind\":\"sample\",\"workload\":\"" << jsonEscape(workload)
        << "\",\"policy\":\"" << jsonEscape(policy)
        << "\",\"tick\":" << point.tick << ",\"window_ns\":"
        << point.windowNs << ",\"vm\":{";
    bool first = true;
    for (std::size_t i = 0; i < kNumVmCounters; ++i) {
        if (point.vmDelta[i] == 0)
            continue;
        if (!first)
            out << ',';
        first = false;
        out << '"' << vmName(static_cast<Vm>(i)) << "\":"
            << point.vmDelta[i];
    }
    out << "},\"nodes\":[";
    for (std::size_t i = 0; i < point.nodes.size(); ++i) {
        const NodeUsagePoint &n = point.nodes[i];
        if (i)
            out << ',';
        out << "{\"nid\":" << static_cast<unsigned>(n.nid)
            << ",\"cpuless\":" << (n.cpuLess ? "true" : "false")
            << ",\"free\":" << n.freePages
            << ",\"active_anon\":" << n.activeAnon
            << ",\"inactive_anon\":" << n.inactiveAnon
            << ",\"active_file\":" << n.activeFile
            << ",\"inactive_file\":" << n.inactiveFile << '}';
    }
    out << "]}\n";
}

std::vector<TaggedTraceRecord>
readTraceEventsJsonl(std::istream &in)
{
    std::vector<TaggedTraceRecord> events;
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(in, line)) {
        lineno++;
        if (line.empty())
            continue;
        std::string kind;
        if (!findString(line, "kind", &kind))
            tpp_fatal("trace line %zu: missing \"kind\"", lineno);
        if (kind != "event")
            continue;

        TaggedTraceRecord tagged;
        std::string event_name;
        std::uint64_t tick = 0, node = 0, aux = 0;
        if (!findString(line, "workload", &tagged.workload) ||
            !findString(line, "policy", &tagged.policy) ||
            !findString(line, "event", &event_name) ||
            !findU64(line, "tick", &tick) ||
            !findU64(line, "node", &node) || !findU64(line, "aux", &aux))
            tpp_fatal("trace line %zu: malformed event", lineno);

        TraceRecord &r = tagged.record;
        r.tick = tick;
        r.event = traceEventFromName(event_name);
        r.node = static_cast<std::uint8_t>(node);
        r.aux = static_cast<std::uint32_t>(aux);

        std::string type_name;
        if (findString(line, "type", &type_name)) {
            r.type = type_name == "anon"
                         ? static_cast<std::uint8_t>(PageType::Anon)
                     : type_name == "file"
                         ? static_cast<std::uint8_t>(PageType::File)
                         : kTraceNoType;
        }
        std::uint64_t pfn = 0;
        if (findU64(line, "pfn", &pfn)) {
            std::uint64_t asid = 0, vpn = 0;
            if (!findU64(line, "asid", &asid) ||
                !findU64(line, "vpn", &vpn))
                tpp_fatal("trace line %zu: malformed page fields",
                          lineno);
            r.hasPage = 1;
            r.pfn = static_cast<std::uint32_t>(pfn);
            r.asid = static_cast<std::uint32_t>(asid);
            r.vpn = vpn;
        }
        events.push_back(std::move(tagged));
    }
    return events;
}

} // namespace tpp
