#include "sim/process.hh"

#include <utility>

#include "sim/logging.hh"

namespace neon
{

Process::Process(EventQueue &eq, std::string name)
    : eq(eq), procName(std::move(name))
{
}

Process::~Process()
{
    cancelResume();
    // Co's destructor reclaims the frame if the body never finished.
}

void
Process::start(Co b)
{
    if (procState != State::Created)
        panic("process ", procName, " started twice");
    if (!b.valid())
        panic("process ", procName, " started with an empty body");

    body = std::move(b);
    procState = State::Running;
    pendingResume = eq.scheduleIn(0, [this] {
        pendingResume = invalidEventId;
        stepBody();
    });
}

void
Process::kill()
{
    if (procState != State::Running)
        return;

    cancelResume();
    procState = State::Killed;
    body.destroy();
    if (onKilled)
        onKilled(*this);
}

void
Process::retire()
{
    if (procState != State::Running)
        return;

    cancelResume();
    procState = State::Done;
    body.destroy();
}

void
Process::resumeAt(Tick delay)
{
    if (procState != State::Running)
        return;
    if (pendingResume != invalidEventId)
        panic("process ", procName, " double resume");

    // Hot path: every coroutine await round-trips through here.
    auto resume = [this] {
        pendingResume = invalidEventId;
        stepBody();
    };
    static_assert(EventCallback::fitsInline<decltype(resume)>);
    pendingResume = eq.scheduleIn(delay, std::move(resume));
}

void
Process::cancelResume()
{
    if (pendingResume != invalidEventId) {
        eq.cancel(pendingResume);
        pendingResume = invalidEventId;
    }
}

void
Process::suspended(std::coroutine_handle<> h)
{
    suspendPoint = h;
}

void
Process::stepBody()
{
    if (procState != State::Running)
        return;

    body.resume();

    if (body.done()) {
        procState = State::Done;
        body.destroy();
    }
}

} // namespace neon
