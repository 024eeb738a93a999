#include "obs/metrics.hh"

#include <bit>

#include "obs/trace.hh"

namespace neon
{
namespace obs
{

void
MetricsRegistry::probe(const std::string &name, std::function<double()> fn)
{
    for (std::size_t i = 0; i < series_.size(); ++i) {
        if (series_[i].name == name) {
            probes[i] = std::move(fn);
            return;
        }
    }
    series_.push_back({name, {}});
    probes.push_back(std::move(fn));
}

void
MetricsRegistry::sampleNow(EventQueue &q)
{
    const Tick now = q.now();
    for (std::size_t i = 0; i < series_.size(); ++i) {
        const double v = probes[i]();
        series_[i].samples.push_back({now, v});
        // Mirror into the trace ring so timeline exports grow counter
        // tracks; the name is interned per metric, not per literal, so
        // bypass the macro's static-id path.
        if (traceEnabled(TraceCategory::Counter)) {
            const std::uint16_t nid =
                internTraceName(series_[i].name.c_str());
            detail::emitTrace(TraceCategory::Counter, nid,
                              TraceKind::CounterVal, TraceIds{},
                              std::bit_cast<std::int64_t>(v), 0);
        }
    }
}

void
MetricsRegistry::printCsv(std::ostream &os) const
{
    os << "time_us";
    for (const auto &s : series_)
        os << ',' << s.name;
    os << '\n';
    // All series share the sampling cadence, so row i of each lines up;
    // a series registered late just has fewer leading rows.
    std::size_t rows = 0;
    for (const auto &s : series_)
        rows = std::max(rows, s.samples.size());
    for (std::size_t i = 0; i < rows; ++i) {
        Tick when = 0;
        for (const auto &s : series_) {
            if (i < s.samples.size()) {
                when = s.samples[i].when;
                break;
            }
        }
        os << toUsec(when);
        for (const auto &s : series_) {
            os << ',';
            if (i < s.samples.size())
                os << s.samples[i].value;
        }
        os << '\n';
    }
}

} // namespace obs
} // namespace neon
