/**
 * @file
 * sampleprof: a wall-clock sampling profiler loaded with LD_PRELOAD.
 *
 *   LD_PRELOAD=build/libsampleprof.so SAMPLEPROF_OUT=prof.txt <program>
 *   python3 tools/sampleprof/report.py prof.txt
 *
 * On load it arms a CLOCK_MONOTONIC POSIX timer that raises SIGPROF
 * every 100 us. The handler records the program counter the signal
 * interrupted; at exit the library writes /proc/self/maps and every
 * distinct PC with its sample count to $SAMPLEPROF_OUT (default
 * sampleprof.<pid>.out). report.py symbolizes them with nm and
 * addr2line, so shared-library time (libm, libc's malloc) is counted
 * like the program's own, and no instrumentation inflates small
 * functions.
 *
 * The timer is process-wide: each tick interrupts one thread, the one
 * the kernel picks, usually the main thread when it is running. A
 * sharded run therefore mostly shows the coordinator thread.
 */

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <string>
#include <ucontext.h>
#include <unistd.h>

namespace
{

constexpr long periodNs = 100'000;

/** 4M samples: over six minutes at 10 kHz. Pages fill as used. */
constexpr std::size_t maxSamples = std::size_t{1} << 22;

std::uintptr_t samples[maxSamples];
std::atomic<std::size_t> taken{0};
std::atomic<std::uint64_t> dropped{0};
timer_t timer;
bool armed = false;

std::uintptr_t
interruptedPc(const void *uctx)
{
    const auto *uc = static_cast<const ucontext_t *>(uctx);
#if defined(__x86_64__)
    return static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
    return static_cast<std::uintptr_t>(uc->uc_mcontext.pc);
#else
#error "sampleprof: no program-counter accessor for this architecture"
#endif
}

void
onSample(int, siginfo_t *, void *uctx)
{
    const std::size_t i = taken.fetch_add(1, std::memory_order_relaxed);
    if (i < maxSamples)
        samples[i] = interruptedPc(uctx);
    else
        dropped.fetch_add(1, std::memory_order_relaxed);
}

__attribute__((constructor)) void
startSampling()
{
    struct sigaction sa = {};
    sa.sa_sigaction = onSample;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    if (sigaction(SIGPROF, &sa, nullptr) != 0)
        return;

    struct sigevent sev = {};
    sev.sigev_notify = SIGEV_SIGNAL;
    sev.sigev_signo = SIGPROF;
    if (timer_create(CLOCK_MONOTONIC, &sev, &timer) != 0)
        return;
    struct itimerspec its = {};
    its.it_interval.tv_nsec = periodNs;
    its.it_value.tv_nsec = periodNs;
    armed = timer_settime(timer, 0, &its, nullptr) == 0;
}

__attribute__((destructor)) void
writeProfile()
{
    if (!armed)
        return;
    timer_delete(timer);
    armed = false;
    signal(SIGPROF, SIG_IGN);

    std::string path;
    if (const char *out = std::getenv("SAMPLEPROF_OUT"); out && *out)
        path = out;
    else
        path = "sampleprof." + std::to_string(getpid()) + ".out";
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return;

    const std::size_t n =
        std::min(taken.load(std::memory_order_relaxed), maxSamples);
    std::fprintf(f, "# sampleprof period_ns=%ld samples=%zu dropped=%llu\n",
                 periodNs, n,
                 static_cast<unsigned long long>(dropped.load()));

    std::fputs("maps\n", f);
    if (std::FILE *maps = std::fopen("/proc/self/maps", "r")) {
        char buf[4096];
        std::size_t got;
        while ((got = std::fread(buf, 1, sizeof buf, maps)) > 0)
            std::fwrite(buf, 1, got, f);
        std::fclose(maps);
    }

    // One line per distinct PC: "<hex pc> <count>".
    std::fputs("pcs\n", f);
    std::sort(samples, samples + n);
    for (std::size_t i = 0; i < n;) {
        std::size_t j = i;
        while (j < n && samples[j] == samples[i])
            ++j;
        std::fprintf(f, "%lx %zu\n", static_cast<unsigned long>(samples[i]),
                     j - i);
        i = j;
    }
    std::fclose(f);
}

} // namespace
