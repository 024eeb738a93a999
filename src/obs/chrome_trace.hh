/**
 * @file
 * Chrome trace-event JSON export.
 *
 * Converts a TraceRecorder snapshot into the Trace Event Format that
 * chrome://tracing and Perfetto load directly: per-device process
 * tracks (pid = device index + 1; pid 0 carries fleet/serve-wide
 * events and counter tracks), duration spans with per-track stack
 * discipline, async session spans keyed by session id (so they
 * overlap freely), flow arrows following a session across device
 * tracks (admission -> migrations -> departure), and counter tracks
 * from sampled metrics.
 *
 * Export is two-stage on purpose: buildChromeEvents() produces an
 * inspectable intermediate event list (what the integration tests
 * check for track-monotonic timestamps and span pairing) and
 * writeChromeTrace() merely serializes it.
 */

#ifndef NEON_OBS_CHROME_TRACE_HH
#define NEON_OBS_CHROME_TRACE_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "obs/trace.hh"

namespace neon
{
namespace obs
{

/** One Chrome trace event, ready to serialize. */
struct ChromeEvent
{
    char ph = 'i';          ///< B/E/i/b/e/s/t/f/C
    double ts = 0.0;        ///< microseconds
    std::uint32_t pid = 0;  ///< device track (device + 1; 0 = global)
    std::uint32_t tid = 0;  ///< lane within the track
    std::string name;
    std::string cat;
    std::int64_t id = -1;   ///< async/flow binding id (session)
    bool hasValue = false;  ///< C events carry a numeric value
    double value = 0.0;
    std::int32_t argPid = -1;     ///< "pid" arg (task id), -1 = none
    std::int64_t argA = 0;        ///< extra payload args
    std::int64_t argB = 0;
    bool hasArgs = false;
};

/** A named lane (Chrome "thread") within a device track. */
struct ChromeLane
{
    std::uint32_t pid;
    std::uint32_t tid;
    std::string name;
};

/** The built timeline: events plus track/lane naming metadata. */
struct ChromeTimeline
{
    std::vector<ChromeEvent> events;
    std::vector<ChromeLane> lanes;
    std::uint32_t processCount = 1; ///< pids 0..processCount-1 in use
};

/**
 * Lower trace records into Chrome events.
 *
 * Records must be in capture order (TraceRecorder::snapshot()). Begin/
 * End records pair up per (track, name) lane; an End with no open
 * Begin on its lane (the Begin fell off the ring) is dropped rather
 * than emitted unbalanced, and spans still open at the end of the
 * capture are closed at the last seen timestamp so viewers don't
 * extend them to infinity.
 */
ChromeTimeline buildChromeEvents(const std::vector<TraceRecord> &records);

/** Serialize a built timeline as Chrome trace JSON. */
void writeChromeTrace(std::ostream &os, const ChromeTimeline &tl);

/** Escape a string for embedding in a JSON literal (no quotes added). */
std::string jsonEscape(const std::string &s);

} // namespace obs
} // namespace neon

#endif // NEON_OBS_CHROME_TRACE_HH
