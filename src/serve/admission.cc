#include "serve/admission.hh"

#include "obs/trace.hh"
#include "sim/logging.hh"

namespace neon
{

std::string
qosClassName(QosClass c)
{
    switch (c) {
      case QosClass::Interactive:
        return "interactive";
      case QosClass::Batch:
        return "batch";
    }
    return "?";
}

std::string
admissionKindName(AdmissionKind k)
{
    switch (k) {
      case AdmissionKind::Fifo:
        return "fifo";
      case AdmissionKind::ShortestDemand:
        return "shortest-demand";
      case AdmissionKind::FairShare:
        return "fair-share";
    }
    return "?";
}

AdmissionController::AdmissionController(AdmissionKind kind,
                                         std::size_t capacity)
    : kind(kind), slots(capacity)
{
    if (capacity == 0)
        panic("admission: capacity must be at least 1");
}

bool
AdmissionController::arrive(const QueuedRequest &req)
{
    ++nArrivals;
    const std::uint32_t tenant = internTenant(req.tenant);

    // Even with a free slot, a nonempty queue means someone is ahead;
    // jumping it would undermine the release policy's ordering. A
    // priority request (interrupted session retrying) is the exception:
    // it already served its wait before the fault.
    if (liveCount < slots && (pool.empty() || req.priority)) {
        noteLive(tenant);
        ++nDirect;
        NEON_TRACE(obs::TraceCategory::Serve, obs::TraceKind::Instant,
                   "adm.admit_direct",
                   obs::TraceIds{-1, -1,
                                 static_cast<std::int32_t>(req.session)},
                   liveCount, slots);
        return true;
    }

    if (!poolIndex.try_emplace(req.session, pool.size()).second)
        panic("admission: session ", req.session, " is already queued");
    pool.push_back(req);
    slotOf.push_back(Slot{tenant, nArrivals});

    RankQueue &rq = ranks[req.qosPriority];
    if (rq.byClass.size() <= req.cls)
        rq.byClass.resize(req.cls + 1, 0);
    ++rq.byClass[req.cls];
    if (req.priority) {
        retries.emplace(nArrivals, req.session);
    } else {
        if (rq.byTenant.size() <= tenant)
            rq.byTenant.resize(tenant + 1);
        rq.byTenant[tenant].insert(keyOf(req));
        ++rq.ordinary;
    }

    if (pool.size() > peakQueue)
        peakQueue = pool.size();
    NEON_TRACE(obs::TraceCategory::Serve, obs::TraceKind::Instant,
               "adm.enqueue",
               obs::TraceIds{-1, -1,
                             static_cast<std::int32_t>(req.session)},
               pool.size(), liveCount);
    return false;
}

std::optional<QueuedRequest>
AdmissionController::depart(const std::string &tenant)
{
    if (liveCount == 0)
        panic("admission: departure with no live sessions");
    --liveCount;
    auto it = tenantIndex.find(tenant);
    if (it != tenantIndex.end() && liveByTenant[it->second] > 0)
        --liveByTenant[it->second];

    return releaseIfFree();
}

std::optional<QueuedRequest>
AdmissionController::releaseIfFree()
{
    if (pool.empty() || liveCount >= slots)
        return std::nullopt;
    return releaseOne();
}

std::optional<QueuedRequest>
AdmissionController::releaseOne()
{
    // Interrupted sessions resume before ordinary admissions regardless
    // of policy, FIFO among themselves.
    std::uint64_t pick = 0;
    if (!retries.empty()) {
        pick = retries.begin()->second;
    } else {
        // The best rank holding an ordinary request decides; within it,
        // the least (live count, head key) over the tenant buckets.
        // Tenants are few, so scanning the heads beats keeping a
        // second index over them that every admit would re-key.
        for (const auto &[rank, rq] : ranks) {
            if (rq.ordinary == 0)
                continue;
            const BucketKey *best = nullptr;
            std::size_t bestLive = 0;
            for (std::size_t t = 0; t < rq.byTenant.size(); ++t) {
                if (rq.byTenant[t].empty())
                    continue;
                const BucketKey &head = *rq.byTenant[t].begin();
                const std::size_t live =
                    kind == AdmissionKind::FairShare ? liveByTenant[t] : 0;
                if (!best || live < bestLive ||
                    (live == bestLive && head < *best)) {
                    best = &head;
                    bestLive = live;
                }
            }
            pick = std::get<2>(*best);
            break;
        }
    }

    const std::size_t i = poolIndex.at(pick);
    QueuedRequest out = pool[i];
    const std::uint32_t tenant = slotOf[i].tenant;
    erasePending(i);
    noteLive(tenant);
    ++nReleased;
    NEON_TRACE(obs::TraceCategory::Serve, obs::TraceKind::Instant,
               "adm.release",
               obs::TraceIds{-1, -1,
                             static_cast<std::int32_t>(out.session)},
               pool.size(), 0);
    return out;
}

bool
AdmissionController::removePending(std::uint64_t session)
{
    auto it = poolIndex.find(session);
    if (it == poolIndex.end())
        return false;
    erasePending(it->second);
    return true;
}

void
AdmissionController::erasePending(std::size_t i)
{
    const QueuedRequest &r = pool[i];
    RankQueue &rq = ranks.find(r.qosPriority)->second;
    --rq.byClass[r.cls];
    if (r.priority) {
        retries.erase({slotOf[i].seq, r.session});
    } else {
        rq.byTenant[slotOf[i].tenant].erase(keyOf(r));
        --rq.ordinary;
    }
    poolIndex.erase(r.session);

    if (i + 1 != pool.size()) {
        pool[i] = std::move(pool.back());
        slotOf[i] = slotOf.back();
        poolIndex[pool[i].session] = i;
    }
    pool.pop_back();
    slotOf.pop_back();
}

AdmissionController::BucketKey
AdmissionController::keyOf(const QueuedRequest &r) const
{
    // 0 = no deadline = infinitely late.
    return {kind == AdmissionKind::ShortestDemand ? r.demand : 0.0,
            r.deadline > 0 ? r.deadline : maxTick, r.session};
}

std::uint32_t
AdmissionController::internTenant(const std::string &tenant)
{
    const auto [it, added] = tenantIndex.try_emplace(
        tenant, static_cast<std::uint32_t>(liveByTenant.size()));
    if (added)
        liveByTenant.push_back(0);
    return it->second;
}

std::size_t
AdmissionController::liveOf(const std::string &tenant) const
{
    auto it = tenantIndex.find(tenant);
    return it == tenantIndex.end() ? 0 : liveByTenant[it->second];
}

std::size_t
AdmissionController::queuedThrough(int rank, std::size_t cls) const
{
    std::size_t n = 0;
    for (const auto &[r, rq] : ranks) {
        if (r > rank)
            break;
        if (cls < rq.byClass.size())
            n += rq.byClass[cls];
    }
    return n;
}

} // namespace neon
