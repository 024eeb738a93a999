#include "workload/throttle.hh"

#include "sim/random.hh"

namespace neon
{

Co
throttleBody(Task &t, ThrottleParams params, std::uint64_t seed)
{
    Rng rng(seed);

    Channel *chan = co_await t.openChannel(RequestClass::Compute);
    if (!chan)
        co_return;

    // Small initial setup, as in the real microbenchmark.
    co_await t.sleepFor(usec(50));

    Tick sleep_per_round = 0;
    if (params.sleepRatio > 0.0 && params.sleepRatio < 1.0) {
        sleep_per_round = static_cast<Tick>(
            static_cast<double>(params.requestSize) * params.sleepRatio /
            (1.0 - params.sleepRatio));
    }

    const Rng::Lognormal jitter(toUsec(params.requestSize), params.jitterCv);
    for (;;) {
        t.beginRound();

        const Tick size = usec(rng.lognormal(jitter));
        const std::uint64_t ref =
            co_await t.submit(*chan, RequestClass::Compute, size);
        co_await t.waitRef(*chan, ref);

        if (sleep_per_round > 0)
            co_await t.sleepFor(sleep_per_round);

        t.endRound();
    }
}

} // namespace neon
