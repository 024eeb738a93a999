/**
 * @file
 * Unit tests for the AdmissionController: capacity gating, queue
 * ordering under each release policy, tenant accounting, and stats;
 * a differential test against a linear-scan reference controller; and
 * a deep-queue guard that any O(queue) release path times out on.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "serve/admission.hh"
#include "sim/random.hh"

namespace neon
{
namespace
{

QueuedRequest
req(std::uint64_t id, const std::string &tenant, double demand = 1.0,
    Tick when = 0)
{
    QueuedRequest r;
    r.session = id;
    r.tenant = tenant;
    r.demand = demand;
    r.enqueued = when;
    return r;
}

TEST(Admission, AdmitsUntilCapacityThenQueues)
{
    AdmissionController adm(AdmissionKind::Fifo, 2);
    EXPECT_TRUE(adm.arrive(req(0, "a")));
    EXPECT_TRUE(adm.arrive(req(1, "b")));
    EXPECT_FALSE(adm.arrive(req(2, "c")));
    EXPECT_EQ(adm.live(), 2u);
    EXPECT_EQ(adm.pendingCount(), 1u);
    EXPECT_EQ(adm.admittedDirect(), 2u);
    EXPECT_EQ(adm.arrivals(), 3u);
}

TEST(Admission, DepartureReleasesFifoOrder)
{
    AdmissionController adm(AdmissionKind::Fifo, 1);
    EXPECT_TRUE(adm.arrive(req(0, "a")));
    EXPECT_FALSE(adm.arrive(req(1, "b", 1.0, usec(1))));
    EXPECT_FALSE(adm.arrive(req(2, "c", 1.0, usec(2))));

    auto rel = adm.depart("a");
    ASSERT_TRUE(rel.has_value());
    EXPECT_EQ(rel->session, 1u);
    rel = adm.depart("b");
    ASSERT_TRUE(rel.has_value());
    EXPECT_EQ(rel->session, 2u);
    rel = adm.depart("c");
    EXPECT_FALSE(rel.has_value());
    EXPECT_EQ(adm.live(), 0u);
    EXPECT_EQ(adm.admittedFromQueue(), 2u);
}

TEST(Admission, NoQueueJumpWhileOthersWait)
{
    // A free slot must not let a newcomer jump an existing queue.
    AdmissionController adm(AdmissionKind::ShortestDemand, 1);
    EXPECT_TRUE(adm.arrive(req(0, "a")));
    EXPECT_FALSE(adm.arrive(req(1, "b", 5.0)));
    auto rel = adm.depart("a");
    ASSERT_TRUE(rel.has_value());
    EXPECT_EQ(rel->session, 1u);
    // Queue was drained before this arrival, so it admits directly.
    EXPECT_FALSE(adm.arrive(req(2, "c", 0.1)));
    EXPECT_EQ(adm.pendingCount(), 1u);
}

TEST(Admission, ShortestDemandPicksLightestRequest)
{
    AdmissionController adm(AdmissionKind::ShortestDemand, 1);
    EXPECT_TRUE(adm.arrive(req(0, "a")));
    EXPECT_FALSE(adm.arrive(req(1, "heavy", 8.0)));
    EXPECT_FALSE(adm.arrive(req(2, "light", 0.5)));
    EXPECT_FALSE(adm.arrive(req(3, "medium", 2.0)));

    auto rel = adm.depart("a");
    ASSERT_TRUE(rel.has_value());
    EXPECT_EQ(rel->session, 2u); // lightest first
    rel = adm.depart("light");
    ASSERT_TRUE(rel.has_value());
    EXPECT_EQ(rel->session, 3u);
    rel = adm.depart("medium");
    ASSERT_TRUE(rel.has_value());
    EXPECT_EQ(rel->session, 1u);
}

TEST(Admission, ShortestDemandBreaksTiesByArrival)
{
    AdmissionController adm(AdmissionKind::ShortestDemand, 1);
    EXPECT_TRUE(adm.arrive(req(0, "a")));
    EXPECT_FALSE(adm.arrive(req(1, "b", 1.0)));
    EXPECT_FALSE(adm.arrive(req(2, "c", 1.0)));
    auto rel = adm.depart("a");
    ASSERT_TRUE(rel.has_value());
    EXPECT_EQ(rel->session, 1u);
}

TEST(Admission, FairSharePrefersTenantWithFewestLive)
{
    AdmissionController adm(AdmissionKind::FairShare, 3);
    // Tenant A fills the fleet; A and B queue behind.
    EXPECT_TRUE(adm.arrive(req(0, "A")));
    EXPECT_TRUE(adm.arrive(req(1, "A")));
    EXPECT_TRUE(adm.arrive(req(2, "A")));
    EXPECT_FALSE(adm.arrive(req(3, "A")));
    EXPECT_FALSE(adm.arrive(req(4, "B")));

    // B has zero live sessions and wins the freed slot despite
    // arriving after A's fourth request.
    auto rel = adm.depart("A");
    ASSERT_TRUE(rel.has_value());
    EXPECT_EQ(rel->session, 4u);
    EXPECT_EQ(adm.liveOf("B"), 1u);
    EXPECT_EQ(adm.liveOf("A"), 2u);

    // Now A (2 live) vs B (1 live): the queued A request still loses
    // to nothing — it is the only one left, so it admits.
    rel = adm.depart("A");
    ASSERT_TRUE(rel.has_value());
    EXPECT_EQ(rel->session, 3u);
}

QueuedRequest
qosReq(std::uint64_t id, const std::string &tenant, int rank,
       Tick deadline = 0, double demand = 1.0)
{
    QueuedRequest r = req(id, tenant, demand);
    r.qosPriority = rank;
    r.deadline = deadline;
    return r;
}

TEST(Admission, QosRankReleasesInteractiveFirst)
{
    // An interactive (rank 0) arrival beats an earlier batch (rank 1)
    // request to the freed slot.
    AdmissionController adm(AdmissionKind::Fifo, 1);
    EXPECT_TRUE(adm.arrive(req(0, "a")));
    EXPECT_FALSE(adm.arrive(qosReq(1, "batch", 1)));
    EXPECT_FALSE(adm.arrive(qosReq(2, "inter", 0)));
    auto rel = adm.depart("a");
    ASSERT_TRUE(rel.has_value());
    EXPECT_EQ(rel->session, 2u);
    rel = adm.depart("inter");
    ASSERT_TRUE(rel.has_value());
    EXPECT_EQ(rel->session, 1u);
}

TEST(Admission, DeadlineBreaksTiesWithinRank)
{
    // Same rank and policy key: the earlier absolute deadline releases
    // first, regardless of enqueue order.
    AdmissionController adm(AdmissionKind::Fifo, 1);
    EXPECT_TRUE(adm.arrive(req(0, "a")));
    EXPECT_FALSE(adm.arrive(qosReq(1, "late", 0, msec(20))));
    EXPECT_FALSE(adm.arrive(qosReq(2, "soon", 0, msec(10))));
    auto rel = adm.depart("a");
    ASSERT_TRUE(rel.has_value());
    EXPECT_EQ(rel->session, 2u);
}

TEST(Admission, NoDeadlineSortsAfterEveryRealDeadline)
{
    // deadline == 0 means "no queue budget" and must lose to any
    // session that actually has one, even a very distant one.
    AdmissionController adm(AdmissionKind::Fifo, 1);
    EXPECT_TRUE(adm.arrive(req(0, "a")));
    EXPECT_FALSE(adm.arrive(qosReq(1, "none", 0, 0)));
    EXPECT_FALSE(adm.arrive(qosReq(2, "far", 0, sec(100))));
    auto rel = adm.depart("a");
    ASSERT_TRUE(rel.has_value());
    EXPECT_EQ(rel->session, 2u);
}

TEST(Admission, SessionIdBreaksFinalTies)
{
    // Identical rank, key, and deadline: the lower session id wins —
    // a total order with no dependence on container layout.
    AdmissionController adm(AdmissionKind::Fifo, 1);
    EXPECT_TRUE(adm.arrive(req(0, "a")));
    EXPECT_FALSE(adm.arrive(qosReq(2, "x", 0, msec(5))));
    EXPECT_FALSE(adm.arrive(qosReq(1, "y", 0, msec(5))));
    auto rel = adm.depart("a");
    ASSERT_TRUE(rel.has_value());
    EXPECT_EQ(rel->session, 1u);
}

TEST(Admission, PolicyKeyOutranksDeadline)
{
    // Within a rank the release policy still rules: shortest-demand
    // picks the lighter request even against a tighter deadline.
    AdmissionController adm(AdmissionKind::ShortestDemand, 1);
    EXPECT_TRUE(adm.arrive(req(0, "a")));
    EXPECT_FALSE(adm.arrive(qosReq(1, "heavy", 0, msec(1), 5.0)));
    EXPECT_FALSE(adm.arrive(qosReq(2, "light", 0, msec(100), 1.0)));
    auto rel = adm.depart("a");
    ASSERT_TRUE(rel.has_value());
    EXPECT_EQ(rel->session, 2u);
}

TEST(Admission, RetryPriorityStillBeatsQosRank)
{
    // A fault-retry request re-enters ahead of everything, including
    // interactive newcomers — it already paid its queueing delay.
    AdmissionController adm(AdmissionKind::Fifo, 1);
    EXPECT_TRUE(adm.arrive(req(0, "a")));
    QueuedRequest retry = qosReq(1, "victim", 1);
    retry.priority = true;
    EXPECT_FALSE(adm.arrive(retry));
    EXPECT_FALSE(adm.arrive(qosReq(2, "inter", 0)));
    auto rel = adm.depart("a");
    ASSERT_TRUE(rel.has_value());
    EXPECT_EQ(rel->session, 1u);
}

TEST(Admission, QosRankDominatesFairShareKey)
{
    // Rank is compared before the fair-share live count: interactive
    // wins the slot even when its tenant already holds more sessions.
    AdmissionController adm(AdmissionKind::FairShare, 2);
    EXPECT_TRUE(adm.arrive(req(0, "I")));
    EXPECT_TRUE(adm.arrive(req(1, "I")));
    EXPECT_FALSE(adm.arrive(qosReq(2, "B", 1)));
    EXPECT_FALSE(adm.arrive(qosReq(3, "I", 0)));
    auto rel = adm.depart("I");
    ASSERT_TRUE(rel.has_value());
    EXPECT_EQ(rel->session, 3u); // rank 0 beats B's lower live count
}

TEST(Admission, PeakPendingTracksHighWaterMark)
{
    AdmissionController adm(AdmissionKind::Fifo, 1);
    EXPECT_TRUE(adm.arrive(req(0, "a")));
    EXPECT_FALSE(adm.arrive(req(1, "b")));
    EXPECT_FALSE(adm.arrive(req(2, "c")));
    EXPECT_EQ(adm.peakPending(), 2u);
    (void)adm.depart("a");
    (void)adm.depart("b");
    EXPECT_EQ(adm.pendingCount(), 0u);
    EXPECT_EQ(adm.peakPending(), 2u);
}

TEST(Admission, QueuedThroughCountsByRankAndClass)
{
    AdmissionController adm(AdmissionKind::Fifo, 1);
    // Nothing queued yet: every (rank, class) reads 0, including ones
    // never seen (the "fleet full, queue empty" prediction).
    EXPECT_EQ(adm.queuedThrough(1, 7), 0u);
    EXPECT_TRUE(adm.arrive(req(0, "a")));
    EXPECT_EQ(adm.queuedThrough(0, 0), 0u);

    QueuedRequest r = qosReq(1, "b", 1);
    r.cls = 2;
    EXPECT_FALSE(adm.arrive(r));
    r = qosReq(2, "c", 0);
    r.cls = 2;
    EXPECT_FALSE(adm.arrive(r));
    QueuedRequest retry = req(3, "d");
    retry.priority = true;
    EXPECT_FALSE(adm.arrive(retry)); // retries count at their rank

    EXPECT_EQ(adm.queuedThrough(0, 2), 1u);
    EXPECT_EQ(adm.queuedThrough(1, 2), 2u);
    EXPECT_EQ(adm.queuedThrough(0, 0), 1u);
    EXPECT_EQ(adm.queuedThrough(-1, 2), 0u);

    EXPECT_TRUE(adm.removePending(1));
    EXPECT_FALSE(adm.removePending(1));
    EXPECT_EQ(adm.queuedThrough(1, 2), 1u);
    auto rel = adm.depart("a");
    ASSERT_TRUE(rel.has_value());
    EXPECT_EQ(rel->session, 3u); // the retry
    EXPECT_EQ(adm.queuedThrough(1, 0), 0u);
}

/**
 * Reference oracle: the original flat-queue controller, whose every
 * release scans the queue for the first priority request, else the
 * minimum by the total release order. It exists only to pin the
 * indexed controller's release sequence.
 */
class LinearAdmission
{
  public:
    LinearAdmission(AdmissionKind kind, std::size_t capacity)
        : kind(kind), slots(capacity)
    {
    }

    bool
    arrive(const QueuedRequest &r)
    {
        if (liveCount < slots && (pending.empty() || r.priority)) {
            ++liveCount;
            ++liveByTenant[r.tenant];
            return true;
        }
        pending.push_back(r);
        return false;
    }

    std::optional<QueuedRequest>
    depart(const std::string &tenant)
    {
        --liveCount;
        auto it = liveByTenant.find(tenant);
        if (it != liveByTenant.end() && it->second > 0)
            --it->second;
        return releaseIfFree();
    }

    std::optional<QueuedRequest>
    releaseIfFree()
    {
        if (pending.empty() || liveCount >= slots)
            return std::nullopt;
        const std::size_t i = pickNext();
        QueuedRequest out = pending[i];
        pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(i));
        ++liveCount;
        ++liveByTenant[out.tenant];
        return out;
    }

    bool
    removePending(std::uint64_t session)
    {
        for (std::size_t i = 0; i < pending.size(); ++i) {
            if (pending[i].session == session) {
                pending.erase(pending.begin() +
                              static_cast<std::ptrdiff_t>(i));
                return true;
            }
        }
        return false;
    }

    void setCapacity(std::size_t n) { slots = n; }
    std::size_t live() const { return liveCount; }
    const std::vector<QueuedRequest> &queued() const { return pending; }

    std::size_t
    liveOf(const std::string &tenant) const
    {
        auto it = liveByTenant.find(tenant);
        return it == liveByTenant.end() ? 0 : it->second;
    }

  private:
    bool
    releasesBefore(const QueuedRequest &a, const QueuedRequest &b) const
    {
        if (a.qosPriority != b.qosPriority)
            return a.qosPriority < b.qosPriority;
        if (kind == AdmissionKind::ShortestDemand && a.demand != b.demand)
            return a.demand < b.demand;
        if (kind == AdmissionKind::FairShare) {
            const std::size_t la = liveOf(a.tenant);
            const std::size_t lb = liveOf(b.tenant);
            if (la != lb)
                return la < lb;
        }
        const Tick da = a.deadline > 0 ? a.deadline : maxTick;
        const Tick db = b.deadline > 0 ? b.deadline : maxTick;
        if (da != db)
            return da < db;
        return a.session < b.session;
    }

    std::size_t
    pickNext() const
    {
        for (std::size_t i = 0; i < pending.size(); ++i) {
            if (pending[i].priority)
                return i;
        }
        std::size_t best = 0;
        for (std::size_t i = 1; i < pending.size(); ++i) {
            if (releasesBefore(pending[i], pending[best]))
                best = i;
        }
        return best;
    }

    AdmissionKind kind;
    std::size_t slots;
    std::size_t liveCount = 0;
    std::vector<QueuedRequest> pending;
    std::map<std::string, std::size_t> liveByTenant;
};

std::optional<std::uint64_t>
sessionOf(const std::optional<QueuedRequest> &r)
{
    return r ? std::optional<std::uint64_t>(r->session) : std::nullopt;
}

/**
 * Drive one seeded random sequence through the indexed controller and
 * the reference, asserting identical outcomes after every operation.
 */
void
runDifferential(AdmissionKind kind, bool qos, std::uint64_t seed)
{
    constexpr int ranks = 3;
    constexpr std::size_t classes = 4;
    const std::string tenants[] = {"t0", "t1", "t2", "t3"};
    const double demands[] = {0.5, 1.0, 1.0, 2.0};

    Rng rng(seed);
    std::size_t capacity = 4;
    AdmissionController adm(kind, capacity);
    LinearAdmission ref(kind, capacity);

    struct Session
    {
        std::uint64_t id;
        std::string tenant;
        std::size_t cls;
    };
    std::vector<Session> live;    // admitted, in admission order
    std::vector<Session> idle;    // left a slot; may re-queue (old id)
    std::map<std::uint64_t, Session> byId;
    std::uint64_t nextId = 0;
    std::vector<Tick> holds(classes, 0);

    const auto admitted = [&](std::uint64_t id) {
        live.push_back(byId.at(id));
    };
    const auto release = [&](std::optional<QueuedRequest> got,
                             std::optional<QueuedRequest> want) {
        ASSERT_EQ(sessionOf(got), sessionOf(want));
        if (got)
            admitted(got->session);
    };
    const auto request = [&](const Session &s) {
        QueuedRequest r;
        r.session = s.id;
        r.tenant = s.tenant;
        r.cls = s.cls;
        r.demand = demands[rng.uniformInt(0, 3)];
        r.priority = rng.chance(0.1);
        if (qos) {
            r.qosPriority = static_cast<int>(rng.uniformInt(0, ranks - 1));
            // Few distinct deadlines, so ties reach the session id.
            r.deadline = rng.chance(0.3) ? 0 : msec(rng.uniformInt(1, 4));
        }
        return r;
    };
    const auto enqueue = [&](const Session &s) {
        const QueuedRequest r = request(s);
        const bool got = adm.arrive(r);
        ASSERT_EQ(got, ref.arrive(r));
        if (got)
            admitted(s.id);
    };

    for (int op = 0; op < 2000; ++op) {
        const std::int64_t dice = rng.uniformInt(0, 99);
        if (dice < 35) { // new arrival
            Session s{nextId++, tenants[rng.uniformInt(0, 3)],
                      static_cast<std::size_t>(
                          rng.uniformInt(0, classes - 1))};
            byId[s.id] = s;
            enqueue(s);
        } else if (dice < 43 && !idle.empty()) { // re-queue, old id
            const std::size_t k = rng.uniformInt(0, idle.size() - 1);
            const Session s = idle[k];
            idle.erase(idle.begin() + static_cast<std::ptrdiff_t>(k));
            enqueue(s);
        } else if (dice < 82 && !live.empty()) { // departure / eviction
            const std::size_t k = rng.uniformInt(0, live.size() - 1);
            const Session s = live[k];
            live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
            if (rng.chance(0.3))
                idle.push_back(s);
            release(adm.depart(s.tenant), ref.depart(s.tenant));
        } else if (dice < 88) { // shed a queued (or unknown) session
            std::uint64_t id = nextId + 1;
            if (!ref.queued().empty() && rng.chance(0.8)) {
                id = ref.queued()[rng.uniformInt(
                                      0, ref.queued().size() - 1)]
                         .session;
            }
            ASSERT_EQ(adm.removePending(id), ref.removePending(id));
        } else if (dice < 94) { // capacity change, 0 included
            capacity = static_cast<std::size_t>(rng.uniformInt(0, 8));
            adm.setCapacity(capacity);
            ref.setCapacity(capacity);
        } else { // drain onto free slots (device repair)
            while (true) {
                auto got = adm.releaseIfFree();
                auto want = ref.releaseIfFree();
                release(got, want);
                if (!got)
                    break;
            }
        }
        if (::testing::Test::HasFatalFailure())
            return;

        ASSERT_EQ(adm.live(), ref.live());
        ASSERT_EQ(adm.pendingCount(), ref.queued().size());
        for (const std::string &t : tenants)
            ASSERT_EQ(adm.liveOf(t), ref.liveOf(t));

        std::vector<std::uint64_t> got, want;
        for (const QueuedRequest &r : adm.queued())
            got.push_back(r.session);
        for (const QueuedRequest &r : ref.queued())
            want.push_back(r.session);
        std::sort(got.begin(), got.end());
        std::sort(want.begin(), want.end());
        ASSERT_EQ(got, want);

        // Holds drift like the EWMA; counts x current holds must equal
        // the brute-force sum over the queue at every rank.
        for (Tick &h : holds)
            h = msec(1) * rng.uniformInt(1, 50);
        for (int rank = 0; rank < ranks; ++rank) {
            Tick fast = 0;
            for (std::size_t c = 0; c < classes; ++c)
                fast += static_cast<Tick>(adm.queuedThrough(rank, c)) *
                    holds[c];
            Tick brute = 0;
            for (const QueuedRequest &r : adm.queued()) {
                if (r.qosPriority <= rank)
                    brute += holds[r.cls];
            }
            ASSERT_EQ(fast, brute) << "rank " << rank << " op " << op;
        }
    }
}

TEST(AdmissionDifferential, MatchesLinearScanReference)
{
    for (AdmissionKind kind :
         {AdmissionKind::Fifo, AdmissionKind::ShortestDemand,
          AdmissionKind::FairShare}) {
        for (bool qos : {false, true}) {
            for (std::uint64_t seed = 1; seed <= 8; ++seed) {
                SCOPED_TRACE(admissionKindName(kind) +
                             (qos ? " qos" : " no-qos") + " seed " +
                             std::to_string(seed));
                runDifferential(kind, qos, seed);
                if (HasFatalFailure())
                    return;
            }
        }
    }
}

TEST(AdmissionDeepQueue, ReleasesStayFastAt50kQueued)
{
    // Regression guard with a tight ctest TIMEOUT (CMakeLists.txt): a
    // release that scans the queue costs ~1 ms at this depth, so 20k
    // of them blow the timeout in every build type, while the indexed
    // controller finishes in well under a second.
    constexpr std::size_t depth = 50000;
    constexpr std::size_t releases = 20000;
    const std::string tenants[] = {"frontend", "tenant-a", "tenant-b"};
    AdmissionController adm(AdmissionKind::FairShare, 64);

    std::uint64_t sid = 0;
    const auto next = [&] {
        QueuedRequest r = req(sid, tenants[sid % 3]);
        r.cls = sid % 3;
        r.qosPriority = sid % 10 == 0 ? 0 : 1;
        r.deadline = sid % 10 == 0 ? msec(20) + usec(sid) : 0;
        ++sid;
        return r;
    };
    std::deque<std::string> liveTenants;
    while (adm.pendingCount() < depth) {
        const QueuedRequest r = next();
        if (adm.arrive(r))
            liveTenants.push_back(r.tenant);
    }

    for (std::size_t k = 0; k < releases; ++k) {
        auto rel = adm.depart(liveTenants.front());
        liveTenants.pop_front();
        ASSERT_TRUE(rel.has_value());
        liveTenants.push_back(rel->tenant);
        // Restore the depth, and interleave the shed estimate's read
        // as the engine does on every queued arrival.
        EXPECT_FALSE(adm.arrive(next()));
        EXPECT_LE(adm.queuedThrough(1, k % 3), depth);
    }
    EXPECT_EQ(adm.pendingCount(), depth);
    EXPECT_EQ(adm.admittedFromQueue(), releases);
}

} // namespace
} // namespace neon
