#include "obs/trace.hh"

#include <mutex>
#include <unordered_map>

#include "sim/event_queue.hh"
#include "sim/logging.hh"

namespace neon
{
namespace obs
{

const char *
traceCategoryName(TraceCategory c)
{
    switch (c) {
      case TraceCategory::SimCore: return "simcore";
      case TraceCategory::Sched: return "sched";
      case TraceCategory::Kernel: return "kernel";
      case TraceCategory::Device: return "device";
      case TraceCategory::Fleet: return "fleet";
      case TraceCategory::Serve: return "serve";
      case TraceCategory::Counter: return "counter";
      case TraceCategory::Fault: return "fault";
    }
    return "?";
}

namespace
{

/**
 * Process-global intern table. Lives independently of any recorder so
 * ids handed out to function-local statics in trace points stay valid
 * across recorder swaps and ring wraps. Mutex-guarded: interning is a
 * cold once-per-trace-point path, but in a sharded run that first hit
 * can happen on several worker threads at once.
 */
struct InternTable
{
    std::mutex mtx;
    std::vector<std::string> names;
    std::unordered_map<std::string, std::uint16_t> ids;
};

InternTable &
interns()
{
    static InternTable t;
    return t;
}

} // namespace

std::uint16_t
internTraceName(const char *name)
{
    auto &t = interns();
    std::lock_guard<std::mutex> lock(t.mtx);
    auto it = t.ids.find(name);
    if (it != t.ids.end())
        return it->second;
    if (t.names.size() >= 0xffff)
        panic("trace name intern table overflow");
    const auto id = static_cast<std::uint16_t>(t.names.size());
    t.names.emplace_back(name);
    t.ids.emplace(t.names.back(), id);
    return id;
}

const std::string &
traceNameOf(std::uint16_t id)
{
    auto &t = interns();
    std::lock_guard<std::mutex> lock(t.mtx);
    if (id >= t.names.size())
        panic("unknown interned trace name id ", id);
    return t.names[id];
}

TraceRecorder::TraceRecorder(std::size_t capacity)
{
    std::size_t cap = 64;
    while (cap < capacity)
        cap <<= 1;
    ring.resize(cap);
    mask = cap - 1;
}

std::vector<TraceRecord>
TraceRecorder::snapshot() const
{
    std::vector<TraceRecord> out;
    out.reserve(size());
    const std::uint64_t first = head > ring.size() ? head - ring.size() : 0;
    for (std::uint64_t i = first; i < head; ++i)
        out.push_back(ring[static_cast<std::size_t>(i) & mask]);
    return out;
}

namespace
{

// Thread-local: the thread driving a shard points its sink at the
// shard's own ring for the duration of a parallel phase, so the hot
// enabled path stays lock-free — one writer per ring, merged at export
// time.
thread_local TraceRecorder *sinkRecorder = nullptr;
thread_local const EventQueue *sinkClock = nullptr;

} // namespace

namespace detail
{

void
emitTrace(TraceCategory cat, std::uint16_t name, TraceKind kind,
          const TraceIds &ids, std::int64_t arg0, std::int64_t arg1)
{
    TraceRecorder *rec = sinkRecorder;
    if (!rec)
        return;
    TraceRecord r;
    r.when = sinkClock ? sinkClock->now() : 0;
    r.name = name;
    std::uint8_t bit = 0;
    for (std::uint32_t v = static_cast<std::uint32_t>(cat); v > 1; v >>= 1)
        ++bit;
    r.cat = bit;
    r.kind = kind;
    r.device = ids.device;
    r.pid = ids.pid;
    r.session = ids.session;
    r.arg0 = arg0;
    r.arg1 = arg1;
    rec->push(r);
}

} // namespace detail

void
setTraceSink(TraceRecorder *r, std::uint32_t mask, const EventQueue *clock)
{
    sinkRecorder = r;
    sinkClock = r ? clock : nullptr;
    detail::activeMask = r ? mask : 0;
}

ThreadTraceSink
installThreadTraceSink(const ThreadTraceSink &sink)
{
    const ThreadTraceSink outer{sinkRecorder, sinkClock};
    sinkRecorder = sink.recorder;
    sinkClock = sink.recorder ? sink.clock : nullptr;
    return outer;
}

TraceRecorder *
traceSink()
{
    return sinkRecorder;
}

} // namespace obs
} // namespace neon
