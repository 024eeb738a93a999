/**
 * @file
 * Post-hoc analysis of a recorded serving trace.
 *
 * Reads the raw-record JSONL that the observe plane exports
 * (ObserveConfig::recordsJsonlPath, e.g. from example_trace_serving),
 * rebuilds the session lifecycle events, and prints the same phase
 * attribution / tail report the in-process analyzer produces — so a
 * run recorded once can be re-analyzed offline without re-simulating.
 * Exact when the capture was exact (the exporting example fails on
 * ring drops); sessions whose arrival fell out of a wrapped ring are
 * skipped.
 *
 * Usage: trace_analyze records.jsonl [--window MS] [--slo-sojourn MS]
 *
 *   --window MS       also print per-window arrival/departure counts
 *                     and goodput over an MS-of-virtual-time grid
 *   --slo-sojourn MS  goodput target: admit-to-depart sojourn <= MS
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "neon/neon.hh"

using namespace neon;

int
main(int argc, char **argv)
{
    std::string path;
    Tick window = 0;
    Tick slo_sojourn = 0;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--window") == 0 && i + 1 < argc)
            window = msec(std::atoll(argv[++i]));
        else if (std::strcmp(argv[i], "--slo-sojourn") == 0 && i + 1 < argc)
            slo_sojourn = msec(std::atoll(argv[++i]));
        else if (path.empty())
            path = argv[i];
        else {
            std::cerr << "unknown argument: " << argv[i] << "\n";
            return 2;
        }
    }
    if (path.empty()) {
        std::cerr << "usage: trace_analyze records.jsonl [--window MS] "
                     "[--slo-sojourn MS]\n";
        return 2;
    }

    std::ifstream in(path);
    if (!in) {
        std::cerr << "cannot open '" << path << "'\n";
        return 2;
    }

    std::uint64_t lines = 0;
    const std::vector<SessionEvent> events =
        obs::sessionEventsFromJsonl(in, &lines);
    if (events.empty()) {
        std::cerr << "no session lifecycle records in '" << path << "' ("
                  << lines << " lines) - was the serve category traced?\n";
        return 1;
    }

    obs::PhaseTracker tracker;
    Tick horizon = 0;
    for (const SessionEvent &e : events) {
        tracker.onEvent(e);
        horizon = std::max(horizon, e.when);
    }
    tracker.finalize(horizon);

    const auto class_of = [](const obs::SessionPhases &s) {
        return "class" + std::to_string(s.cls);
    };
    const obs::PhaseReport report =
        obs::buildPhaseReport(tracker.sessions(), class_of, class_of);

    std::printf("%s: %llu records, %zu lifecycle events, %zu sessions, "
                "horizon %.0fms\n\n",
                path.c_str(), static_cast<unsigned long long>(lines),
                events.size(), tracker.sessions().size(),
                toMsec(horizon));
    std::cout << obs::formatPhaseReport(report);

    if (window > 0) {
        // Windowed event counts (and goodput when a target is given)
        // over the recorded horizon.
        const std::size_t n =
            static_cast<std::size_t>((horizon + window - 1) / window);
        struct Win
        {
            std::uint64_t arrivals = 0, departures = 0, kills = 0,
                          sheds = 0, eligible = 0, met = 0;
        };
        std::vector<Win> wins(n > 0 ? n : 1);
        std::vector<Tick> admitted_at;
        for (const SessionEvent &e : events) {
            std::size_t w = static_cast<std::size_t>(e.when / window);
            if (w >= wins.size())
                w = wins.size() - 1;
            if (e.session >= admitted_at.size())
                admitted_at.resize(e.session + 1, -1);
            switch (e.kind) {
            case SessionEvent::Kind::Arrive:
                ++wins[w].arrivals;
                break;
            case SessionEvent::Kind::Admit:
                if (admitted_at[e.session] < 0)
                    admitted_at[e.session] = e.when;
                break;
            case SessionEvent::Kind::Depart:
                ++wins[w].departures;
                if (slo_sojourn > 0) {
                    ++wins[w].eligible;
                    const Tick adm = admitted_at[e.session];
                    if (adm >= 0 && e.when - adm <= slo_sojourn)
                        ++wins[w].met;
                }
                break;
            case SessionEvent::Kind::Kill:
                ++wins[w].kills;
                break;
            case SessionEvent::Kind::Shed:
                ++wins[w].sheds;
                break;
            default:
                break;
            }
        }
        std::printf("\ntimeline (%zu windows of %.0fms):\n", wins.size(),
                    toMsec(window));
        for (std::size_t i = 0; i < wins.size(); ++i) {
            std::printf("  [%6.0f, %6.0f) ms  arr %4llu  dep %4llu  "
                        "kill %3llu  shed %3llu",
                        toMsec(static_cast<Tick>(i) * window),
                        toMsec(static_cast<Tick>(i + 1) * window),
                        static_cast<unsigned long long>(wins[i].arrivals),
                        static_cast<unsigned long long>(wins[i].departures),
                        static_cast<unsigned long long>(wins[i].kills),
                        static_cast<unsigned long long>(wins[i].sheds));
            if (slo_sojourn > 0 && wins[i].eligible > 0)
                std::printf("  goodput %.2f",
                            static_cast<double>(wins[i].met) /
                                static_cast<double>(wins[i].eligible));
            std::printf("\n");
        }
    }
    return 0;
}
