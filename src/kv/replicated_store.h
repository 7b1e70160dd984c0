/**
 * @file
 * R-way replication for degraded-mode operation.
 *
 * The paper's web-scale setting (§2.4, §5) keeps replicas of every object
 * on independent devices precisely because SDF drops the drive-internal
 * safety nets (no parity across channels, no super-capacitors): durability
 * is the distributed system's job.
 *
 * The mechanism lives in ReplicationEngine and is abstract over *where*
 * replicas are: an endpoint is just a put/get function pair, and a
 * selector maps a key to the ordered endpoints holding it. Its one
 * deployment is cluster::ClusterRouter: keys consistent-hash-sharded over
 * N storage nodes with R-way replication, endpoints reached over the
 * network (the fault campaign runs it with N == R, every key on every
 * node).
 *
 * Semantics:
 *
 *  - Put fans out to every selected replica; the ack carries overall
 *    success (at least one durable copy) and per-replica failures are
 *    counted.
 *  - Get reads the primary replica (selector order) and transparently
 *    fails over to the next replica when storage reports a typed error
 *    (uncorrectable data, dead channel, lost block).
 *  - A degraded read triggers read-repair: the value recovered from a
 *    surviving replica is re-replicated onto the replicas that failed,
 *    restoring R-way redundancy in the background.
 */
#ifndef SDF_KV_REPLICATED_STORE_H
#define SDF_KV_REPLICATED_STORE_H

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "kv/store.h"
#include "sim/simulator.h"
#include "util/latency_recorder.h"

namespace sdf::kv {

/** Cumulative replication-layer statistics. */
struct ReplicatedKvStats
{
    uint64_t puts = 0;
    uint64_t gets = 0;
    uint64_t put_replica_failures = 0;  ///< Individual replica puts failed.
    uint64_t put_failures = 0;          ///< Puts with zero durable copies.
    uint64_t degraded_reads = 0;        ///< Served by a non-primary replica.
    uint64_t failed_reads = 0;          ///< Every replica errored.
    uint64_t re_replications = 0;       ///< Read-repair puts issued.
    uint64_t re_replication_failures = 0;
    /** Gets restarted with fresh placement after a membership change. */
    uint64_t epoch_restarts = 0;
    /** Ops rejected because the selector had no replicas (all nodes down). */
    uint64_t no_replica_rejects = 0;
};

/**
 * How the engine reaches one replica: an RPC into a cluster node, or
 * anything else with put/get semantics. `put` must ack
 * true only once the value is durable on that replica; `get` must report
 * res.ok == false on storage-level failure so the engine can fail over.
 */
struct ReplicaEndpoint
{
    std::function<void(uint64_t key, uint32_t value_size,
                       PutStatusCallback done,
                       std::shared_ptr<std::vector<uint8_t>> payload,
                       OpContext ctx)>
        put;
    std::function<void(uint64_t key, GetCallback done, OpContext ctx)> get;
};

/** Replica placement/failover mechanics over abstract endpoints. */
class ReplicationEngine
{
  public:
    /**
     * Ordered endpoint indices holding @p key: first is the primary, the
     * rest are failover targets; Put fans out to all of them. Must be
     * deterministic, non-empty, and in range.
     */
    using Selector = std::function<std::vector<uint32_t>(uint64_t key)>;

    ReplicationEngine(sim::Simulator &sim,
                      std::vector<ReplicaEndpoint> endpoints,
                      Selector selector);

    /**
     * Install a membership-epoch source (cluster use). A Get snapshots
     * the epoch up front; when a replica attempt fails and the epoch has
     * moved meanwhile — the ring changed under the op — the get restarts
     * against fresh placement instead of walking a stale replica list.
     * Without a provider, placement is assumed static.
     */
    void
    set_epoch_provider(std::function<uint64_t()> provider)
    {
        epoch_provider_ = std::move(provider);
    }

    ReplicationEngine(const ReplicationEngine &) = delete;
    ReplicationEngine &operator=(const ReplicationEngine &) = delete;

    uint32_t endpoint_count() const
    {
        return static_cast<uint32_t>(endpoints_.size());
    }

    /**
     * Store @p key on every selected replica. @p done receives true when
     * at least one replica persisted the value (the others are repaired
     * by later degraded reads).
     */
    void Put(uint64_t key, uint32_t value_size, PutCallback done,
             std::shared_ptr<std::vector<uint8_t>> payload = nullptr,
             OpContext ctx = {});

    /**
     * Typed Put: like Put, but @p done receives the aggregated
     * disposition — kOk on at least one durable copy, otherwise the most
     * backpressure-actionable failure any replica reported (overload
     * beats deadline beats storage error; see WorseStatus).
     */
    void PutTyped(uint64_t key, uint32_t value_size, PutStatusCallback done,
                  std::shared_ptr<std::vector<uint8_t>> payload = nullptr,
                  OpContext ctx = {});

    /**
     * Read @p key with transparent failover: selected replicas are tried
     * in order until one serves the value. A miss on one replica also
     * fails over (a degraded-mode put may have landed on only some
     * replicas); the read is a miss only when every replica agrees. The
     * result's ok flag is false only when a replica failed at storage
     * level and none served the value; res.status then carries the worst
     * typed failure seen across the walk.
     */
    void Get(uint64_t key, GetCallback done, OpContext ctx = {});

    const ReplicatedKvStats &stats() const { return stats_; }

    /**
     * Latency from the primary replica's failure to the moment a
     * surviving replica served the value (per degraded read).
     */
    const util::LatencyRecorder &recovery_latencies() const
    {
        return recovery_latencies_;
    }

  private:
    void DoGet(uint64_t key, GetCallback done,
               std::shared_ptr<const std::vector<uint32_t>> order,
               uint32_t attempt, util::TimeNs first_fail, OpStatus worst,
               uint64_t epoch, OpContext ctx);
    void Repair(uint64_t key, const GetResult &good,
                const std::vector<uint32_t> &order, uint32_t failed_count);
    uint64_t CurrentEpoch() const
    {
        return epoch_provider_ ? epoch_provider_() : 0;
    }

    sim::Simulator &sim_;
    std::vector<ReplicaEndpoint> endpoints_;
    Selector selector_;
    std::function<uint64_t()> epoch_provider_;
    ReplicatedKvStats stats_;
    util::LatencyRecorder recovery_latencies_;
};

}  // namespace sdf::kv

#endif  // SDF_KV_REPLICATED_STORE_H
