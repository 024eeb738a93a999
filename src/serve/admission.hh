/**
 * @file
 * Fleet admission control: a bounded pool of live-session slots and a
 * policy-ordered queue of placement requests waiting for one.
 *
 * The controller is pure bookkeeping — it never touches the fleet or
 * the event queue. The ServeEngine asks it on every arrival (admit now
 * or queue?) and on every departure (which queued request, if any,
 * takes the freed slot?), so the policies stay unit-testable with
 * hand-built sequences.
 *
 * The queue is indexed, not scanned: ordinary requests sit in one
 * ordered bucket per (QoS rank, tenant), so a release compares only
 * the bucket heads of the best nonempty rank — O(tenants + log n) —
 * and removal is O(log n). Per-(rank, class) counts make the shed
 * estimate O(ranks x classes) regardless of queue depth.
 */

#ifndef NEON_SERVE_ADMISSION_HH
#define NEON_SERVE_ADMISSION_HH

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "serve/serve_config.hh"
#include "sim/types.hh"

namespace neon
{

/** One queued admission request. */
struct QueuedRequest
{
    std::uint64_t session = 0; ///< serve-layer session id
    std::string tenant;        ///< fair-share principal
    double demand = 1.0;       ///< expected-demand hint
    Tick enqueued = 0;         ///< arrival time (FIFO order basis)

    /**
     * Interrupted session returning through retry: it already paid its
     * queueing delay, so it may take a free slot past the queue and is
     * released ahead of ordinary requests (FIFO among priorities).
     */
    bool priority = false;

    /**
     * QoS release rank (qosPriorityOf; lower releases first). All
     * requests share rank 0 when QoS classes are off, which keeps the
     * release order bit-identical to the pre-QoS engine.
     */
    int qosPriority = 0;

    /**
     * Absolute queue deadline (arrival + class queue budget); 0 means
     * none and sorts after every real deadline. Breaks release ties
     * within a QoS rank and policy key ahead of the session id.
     */
    Tick deadline = 0;

    /** Workload class index; keys the per-(rank, class) queue counts. */
    std::size_t cls = 0;
};

/**
 * Slot-capacity admission control with pluggable release order.
 *
 * Release order: priority requests first, FIFO among themselves; then
 * the total order QoS rank, policy key (demand / tenant live count;
 * none for FIFO), deadline, session id. It never falls back to queue
 * position, so the pick is independent of container layout
 * (sharding-safe), and with QoS off it is plain policy order with
 * arrival order for ties, since session ids are monotone in enqueue
 * order.
 */
class AdmissionController
{
  public:
    AdmissionController(AdmissionKind kind, std::size_t capacity);

    /**
     * A session arrived. Returns true if it was admitted immediately
     * (a slot was free and nothing was queued ahead of it); otherwise
     * the request is queued and false is returned. A session may be
     * queued at most once at a time.
     */
    bool arrive(const QueuedRequest &req);

    /**
     * A live session departed (retirement or kill): its slot is freed
     * and, if requests are queued, the policy picks one to admit.
     * Returns the released request, already accounted as live.
     */
    std::optional<QueuedRequest> depart(const std::string &tenant);

    /**
     * Release one queued request if a slot is free, without a
     * departure. Used when capacity grows (device repair) to drain the
     * queue onto the restored slots; call until it returns nullopt.
     */
    std::optional<QueuedRequest> releaseIfFree();

    /**
     * Retarget the slot pool (device failure/repair). 0 is legal at
     * runtime — a fully-down fleet admits nothing; live sessions above
     * the new capacity stay live and drain through departures.
     */
    void setCapacity(std::size_t n) { slots = n; }

    /** Drop a pending request (session shed while queued). */
    bool removePending(std::uint64_t session);

    std::size_t capacity() const { return slots; }
    std::size_t live() const { return liveCount; }
    std::size_t pendingCount() const { return pool.size(); }
    std::size_t peakPending() const { return peakQueue; }
    std::uint64_t arrivals() const { return nArrivals; }
    std::uint64_t admittedDirect() const { return nDirect; }
    std::uint64_t admittedFromQueue() const { return nReleased; }

    /** Live sessions of @p tenant (fair-share bookkeeping). */
    std::size_t liveOf(const std::string &tenant) const;

    /**
     * Queued requests in unspecified order (tests/metrics). Removal
     * swaps the last entry into the hole, so the order changes as the
     * queue drains.
     */
    const std::vector<QueuedRequest> &queued() const { return pool; }

    /**
     * Queued requests (priority retries included) of workload class
     * @p cls at QoS rank <= @p rank: the shed estimate's operand,
     * O(ranks) and 0 for a class or rank never queued.
     */
    std::size_t queuedThrough(int rank, std::size_t cls) const;

  private:
    /**
     * Release key inside one (rank, tenant) bucket: demand under
     * ShortestDemand (else 0), deadline (0 = none -> maxTick), session
     * id. Rank is the bucket's and the FairShare key is per tenant, so
     * the bucket head is the tenant's best request at that rank.
     */
    using BucketKey = std::tuple<double, Tick, std::uint64_t>;

    /** All queued requests of one QoS rank. */
    struct RankQueue
    {
        std::vector<std::set<BucketKey>> byTenant; ///< by tenant index
        std::size_t ordinary = 0;           ///< requests in byTenant
        std::vector<std::size_t> byClass;   ///< all requests, by class
    };

    /** Index bookkeeping of one pool entry (parallel to pool). */
    struct Slot
    {
        std::uint32_t tenant = 0;
        std::uint64_t seq = 0; ///< arrival number (priority FIFO key)
    };

    std::optional<QueuedRequest> releaseOne(); ///< unconditional pick
    void erasePending(std::size_t i);          ///< swap-and-pop pool[i]
    BucketKey keyOf(const QueuedRequest &r) const;
    std::uint32_t internTenant(const std::string &tenant);

    void
    noteLive(std::uint32_t tenant)
    {
        ++liveCount;
        ++liveByTenant[tenant];
    }

    AdmissionKind kind;
    std::size_t slots;
    std::size_t liveCount = 0;
    std::size_t peakQueue = 0;
    std::uint64_t nArrivals = 0;
    std::uint64_t nDirect = 0;
    std::uint64_t nReleased = 0;

    std::unordered_map<std::string, std::uint32_t> tenantIndex;
    std::vector<std::size_t> liveByTenant; ///< by tenant index

    std::vector<QueuedRequest> pool; ///< every queued request
    std::vector<Slot> slotOf;        ///< parallel to pool
    std::unordered_map<std::uint64_t, std::size_t> poolIndex; ///< session
    std::map<int, RankQueue> ranks;  ///< ascending = release order
    std::set<std::pair<std::uint64_t, std::uint64_t>> retries; ///< (seq, id)
};

} // namespace neon

#endif // NEON_SERVE_ADMISSION_HH
