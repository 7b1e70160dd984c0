#include "kv/replicated_store.h"

#include <memory>
#include <utility>

#include "util/assert.h"

namespace sdf::kv {

ReplicationEngine::ReplicationEngine(sim::Simulator &sim,
                                     std::vector<ReplicaEndpoint> endpoints,
                                     Selector selector)
    : sim_(sim), endpoints_(std::move(endpoints)), selector_(std::move(selector))
{
    SDF_CHECK_MSG(!endpoints_.empty(), "need at least one replica endpoint");
    SDF_CHECK(selector_ != nullptr);
    for (const ReplicaEndpoint &e : endpoints_) {
        SDF_CHECK(e.put != nullptr && e.get != nullptr);
    }
}

void
ReplicationEngine::Put(uint64_t key, uint32_t value_size, PutCallback done,
                       std::shared_ptr<std::vector<uint8_t>> payload,
                       OpContext ctx)
{
    PutTyped(
        key, value_size,
        [done = std::move(done)](OpStatus s) {
            if (done) done(s == OpStatus::kOk);
        },
        std::move(payload), ctx);
}

void
ReplicationEngine::PutTyped(uint64_t key, uint32_t value_size,
                            PutStatusCallback done,
                            std::shared_ptr<std::vector<uint8_t>> payload,
                            OpContext ctx)
{
    ++stats_.puts;
    const std::vector<uint32_t> order = selector_(key);
    if (order.empty()) {
        // Every node that could hold the key is out of the membership.
        ++stats_.no_replica_rejects;
        ++stats_.put_failures;
        sim_.Post([done = std::move(done)]() {
            if (done) done(OpStatus::kError);
        });
        return;
    }
    const auto r = static_cast<uint32_t>(order.size());
    auto remaining = std::make_shared<uint32_t>(r);
    auto successes = std::make_shared<uint32_t>(0);
    auto worst = std::make_shared<OpStatus>(OpStatus::kOk);
    // All replicas' acks join on the move-only `done`; park it in one
    // shared box every branch can reach.
    auto done_box = std::make_shared<PutStatusCallback>(std::move(done));
    for (uint32_t i = 0; i < r; ++i) {
        const uint32_t replica = order[i];
        SDF_CHECK(replica < endpoints_.size());
        endpoints_[replica].put(
            key, value_size,
            [this, remaining, successes, worst, done_box](OpStatus s) {
                if (s == OpStatus::kOk) {
                    ++*successes;
                } else {
                    ++stats_.put_replica_failures;
                    *worst = WorseStatus(*worst, s);
                }
                if (--*remaining > 0) return;
                if (*successes > 0) {
                    if (*done_box) (*done_box)(OpStatus::kOk);
                    return;
                }
                ++stats_.put_failures;
                if (*done_box) {
                    (*done_box)(*worst == OpStatus::kOk ? OpStatus::kError
                                                        : *worst);
                }
            },
            payload, ctx);
        // Only the first replica's RPC writes the request's critical-path
        // span; a second concurrent writer would corrupt the timeline.
        // Later replicas keep the trace identity but no span.
        ctx.path = nullptr;
    }
}

void
ReplicationEngine::Get(uint64_t key, GetCallback done, OpContext ctx)
{
    ++stats_.gets;
    auto order =
        std::make_shared<const std::vector<uint32_t>>(selector_(key));
    if (order->empty()) {
        ++stats_.no_replica_rejects;
        ++stats_.failed_reads;
        sim_.Post([done = std::move(done)]() {
            if (done) {
                GetResult res;
                res.ok = false;
                res.status = OpStatus::kError;
                done(res);
            }
        });
        return;
    }
    DoGet(key, std::move(done), std::move(order), 0, 0, OpStatus::kOk,
          CurrentEpoch(), ctx);
}

namespace {

/** Typed failure a replica's GetResult contributes (kOk = clean miss). */
OpStatus
FailureStatus(const GetResult &res)
{
    if (res.ok) return OpStatus::kOk;
    // Endpoints predating typed statuses leave status at kOk on failure.
    return res.status == OpStatus::kOk ? OpStatus::kError : res.status;
}

}  // namespace

void
ReplicationEngine::DoGet(uint64_t key, GetCallback done,
                         std::shared_ptr<const std::vector<uint32_t>> order,
                         uint32_t attempt, util::TimeNs first_fail,
                         OpStatus worst, uint64_t epoch, OpContext ctx)
{
    if (attempt == order->size()) {
        // Exhausted. All clean misses -> an authoritative miss; any
        // storage failure along the way -> a failed read.
        GetResult res;
        res.found = false;
        res.ok = worst == OpStatus::kOk;
        res.status = worst;
        if (!res.ok) ++stats_.failed_reads;
        if (done) done(res);
        return;
    }
    const uint32_t replica = (*order)[attempt];
    SDF_CHECK(replica < endpoints_.size());
    endpoints_[replica].get(
        key,
        [this, key, done = std::move(done), order, attempt, first_fail,
         worst, epoch, ctx](const GetResult &res) mutable {
            if (!res.ok || !res.found) {
                const util::TimeNs t0 =
                    attempt == 0 ? sim_.Now() : first_fail;
                const OpStatus next_worst =
                    WorseStatus(worst, FailureStatus(res));
                // Membership moved while we were waiting (a node died or
                // rejoined): the replica list is stale — restart against
                // fresh placement. Bounded by the number of epoch bumps.
                if (const uint64_t now_epoch = CurrentEpoch();
                    now_epoch != epoch) {
                    ++stats_.epoch_restarts;
                    auto fresh = std::make_shared<
                        const std::vector<uint32_t>>(selector_(key));
                    if (fresh->empty()) {
                        ++stats_.no_replica_rejects;
                        ++stats_.failed_reads;
                        if (done) {
                            GetResult fail;
                            fail.ok = false;
                            fail.status = WorseStatus(next_worst,
                                                      OpStatus::kError);
                            done(fail);
                        }
                        return;
                    }
                    DoGet(key, std::move(done), std::move(fresh), 0, t0,
                          next_worst, now_epoch, ctx);
                    return;
                }
                // Storage failure — or a miss on this replica, which may
                // just have lost the put that a later replica acked
                // (degraded-mode write). Either way, ask the next one.
                DoGet(key, std::move(done), std::move(order), attempt + 1,
                      t0, next_worst, epoch, ctx);
                return;
            }
            if (attempt > 0) {
                ++stats_.degraded_reads;
                recovery_latencies_.Record(sim_.Now() - first_fail);
                // Read-repair: restore redundancy on the replicas that
                // failed or missed ahead of this one.
                Repair(key, res, *order, attempt);
            }
            if (done) done(res);
        },
        ctx);
}

void
ReplicationEngine::Repair(uint64_t key, const GetResult &good,
                          const std::vector<uint32_t> &order,
                          uint32_t failed_count)
{
    for (uint32_t i = 0; i < failed_count; ++i) {
        ++stats_.re_replications;
        endpoints_[order[i]].put(
            key, good.value_size,
            [this](OpStatus s) {
                if (s != OpStatus::kOk) ++stats_.re_replication_failures;
            },
            good.payload, OpContext{});
    }
}

}  // namespace sdf::kv
