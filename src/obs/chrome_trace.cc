#include "obs/chrome_trace.hh"

#include <bit>
#include <cstdio>
#include <map>
#include <utility>

namespace neon
{
namespace obs
{

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

namespace
{

struct LaneTable
{
    std::map<std::pair<std::uint32_t, std::string>, std::uint32_t> ids;
    std::map<std::uint32_t, std::uint32_t> next;
    std::vector<ChromeLane> lanes;

    std::uint32_t
    lane(std::uint32_t pid, const std::string &label)
    {
        auto it = ids.find({pid, label});
        if (it != ids.end())
            return it->second;
        const std::uint32_t tid = next[pid]++;
        ids.emplace(std::make_pair(pid, label), tid);
        lanes.push_back({pid, tid, label});
        return tid;
    }
};

} // namespace

ChromeTimeline
buildChromeEvents(const std::vector<TraceRecord> &records)
{
    ChromeTimeline tl;
    LaneTable lanes;
    // Per-lane stack of open span names so orphan Ends (whose Begin
    // fell off the ring) can be dropped instead of emitted unbalanced.
    std::map<std::pair<std::uint32_t, std::uint32_t>,
             std::vector<std::pair<std::string, std::string>>> open;
    double lastTs = 0.0;

    for (const auto &r : records) {
        const std::uint32_t pid =
            r.device >= 0 ? static_cast<std::uint32_t>(r.device) + 1 : 0;
        if (pid + 1 > tl.processCount)
            tl.processCount = pid + 1;
        const std::string &name = traceNameOf(r.name);
        const std::string cat = traceCategoryName(r.category());
        const double ts = toUsec(r.when);
        if (ts > lastTs)
            lastTs = ts;

        ChromeEvent ev;
        ev.ts = ts;
        ev.pid = pid;
        ev.name = name;
        ev.cat = cat;
        ev.argPid = r.pid;
        ev.argA = r.arg0;
        ev.argB = r.arg1;

        switch (r.kind) {
          case TraceKind::Instant:
            ev.ph = 'i';
            ev.tid = lanes.lane(pid, "marks");
            ev.hasArgs = true;
            tl.events.push_back(std::move(ev));
            break;
          case TraceKind::Begin:
          case TraceKind::End: {
            // One lane per span name keeps the B/E stack discipline of
            // a Chrome "thread" even when differently named spans
            // overlap (execute vs. DMA engines, free-run vs. engage).
            const std::uint32_t tid = lanes.lane(pid, name);
            ev.tid = tid;
            auto &stack = open[{pid, tid}];
            if (r.kind == TraceKind::Begin) {
                ev.ph = 'B';
                ev.hasArgs = true;
                stack.emplace_back(name, cat);
            } else {
                if (stack.empty())
                    break; // orphan End: its Begin fell off the ring
                stack.pop_back();
                ev.ph = 'E';
            }
            tl.events.push_back(std::move(ev));
            break;
          }
          case TraceKind::AsyncBegin:
          case TraceKind::AsyncEnd:
            // Sessions live on the global track and overlap freely;
            // the session id keys begin/end pairing.
            ev.ph = r.kind == TraceKind::AsyncBegin ? 'b' : 'e';
            ev.pid = 0;
            ev.tid = lanes.lane(0, "sessions");
            ev.id = r.session;
            ev.hasArgs = r.kind == TraceKind::AsyncBegin;
            tl.events.push_back(std::move(ev));
            break;
          case TraceKind::FlowStart:
          case TraceKind::FlowStep:
          case TraceKind::FlowEnd:
            ev.ph = r.kind == TraceKind::FlowStart  ? 's'
                    : r.kind == TraceKind::FlowStep ? 't'
                                                    : 'f';
            ev.tid = lanes.lane(pid, "marks");
            ev.id = r.session;
            tl.events.push_back(std::move(ev));
            break;
          case TraceKind::CounterVal:
            ev.ph = 'C';
            ev.pid = 0;
            ev.tid = 0;
            ev.hasValue = true;
            ev.value = std::bit_cast<double>(r.arg0);
            tl.events.push_back(std::move(ev));
            break;
        }
    }

    // Close spans still open at the end of the capture at the last
    // seen timestamp so viewers don't stretch them to infinity.
    for (auto &[key, stack] : open) {
        while (!stack.empty()) {
            ChromeEvent ev;
            ev.ph = 'E';
            ev.ts = lastTs;
            ev.pid = key.first;
            ev.tid = key.second;
            ev.name = stack.back().first;
            ev.cat = stack.back().second;
            stack.pop_back();
            tl.events.push_back(std::move(ev));
        }
    }

    tl.lanes = std::move(lanes.lanes);
    return tl;
}

namespace
{

void
writeEvent(std::ostream &os, const ChromeEvent &e)
{
    os << "{\"name\":\"" << jsonEscape(e.name) << "\",\"cat\":\""
       << jsonEscape(e.cat) << "\",\"ph\":\"" << e.ph << "\",\"ts\":"
       << e.ts << ",\"pid\":" << e.pid << ",\"tid\":" << e.tid;
    if (e.ph == 'i')
        os << ",\"s\":\"t\"";
    if (e.id >= 0)
        os << ",\"id\":" << e.id;
    if (e.hasValue) {
        os << ",\"args\":{\"value\":" << e.value << "}";
    } else if (e.hasArgs) {
        os << ",\"args\":{";
        bool first = true;
        if (e.argPid >= 0) {
            os << "\"task\":" << e.argPid;
            first = false;
        }
        if (!first)
            os << ",";
        os << "\"a0\":" << e.argA << ",\"a1\":" << e.argB << "}";
    }
    os << "}";
}

void
writeMeta(std::ostream &os, const char *what, std::uint32_t pid,
          std::uint32_t tid, bool withTid, const std::string &name)
{
    os << "{\"name\":\"" << what << "\",\"ph\":\"M\",\"pid\":" << pid;
    if (withTid)
        os << ",\"tid\":" << tid;
    os << ",\"args\":{\"name\":\"" << jsonEscape(name) << "\"}}";
}

} // namespace

void
writeChromeTrace(std::ostream &os, const ChromeTimeline &tl)
{
    // Default stream precision (6 significant digits) would round
    // microsecond timestamps of multi-second runs onto each other and
    // break per-track monotonicity in the viewer.
    const auto saved = os.precision(15);
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    bool first = true;
    for (std::uint32_t pid = 0; pid < tl.processCount; ++pid) {
        if (!first)
            os << ",\n";
        first = false;
        const std::string pname =
            pid == 0 ? std::string("fleet")
                     : "device" + std::to_string(pid - 1);
        writeMeta(os, "process_name", pid, 0, false, pname);
    }
    for (const auto &lane : tl.lanes) {
        os << ",\n";
        writeMeta(os, "thread_name", lane.pid, lane.tid, true, lane.name);
    }
    for (const auto &e : tl.events) {
        if (!first)
            os << ",\n";
        first = false;
        writeEvent(os, e);
    }
    os << "\n]}\n";
    os.precision(saved);
}

} // namespace obs
} // namespace neon
