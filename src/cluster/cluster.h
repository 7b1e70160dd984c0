/**
 * @file
 * Sharded multi-node KV cluster over the pluggable device interface.
 *
 * The paper's deployment model (§2.4, §5): a web-scale store is many
 * storage servers, each running the CCDB slice stack on one SDF, with
 * durability provided by cross-node replication rather than drive-internal
 * redundancy. This module reproduces that shape inside one simulator:
 *
 *  - StorageNode: one storage server — its own network endpoint, storage
 *    stack (any testbed::Backend) and multi-slice kv::Store. All its
 *    metrics self-register under "node<N>.*".
 *  - ClusterRouter: the client-side library that consistent-hash-shards
 *    keys over the nodes with R-way replication, reusing
 *    kv::ReplicationEngine for fan-out, failover and read-repair; RPCs go
 *    through net::Network's timeout/backoff path, so a dead node degrades
 *    into retries + failover instead of a hang.
 *  - Cluster: convenience bundle (N nodes + router) for benches/tools.
 */
#ifndef SDF_CLUSTER_CLUSTER_H
#define SDF_CLUSTER_CLUSTER_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/breaker.h"
#include "cluster/hash_ring.h"
#include "kv/recovery.h"
#include "kv/replicated_store.h"
#include "kv/store.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "testbed/testbed.h"
#include "workload/kv_driver.h"

namespace sdf::cluster {

class Rebalancer;
class AntiEntropy;
struct RebalanceConfig;

/** How to build one storage node. */
struct NodeConfig
{
    /** Per-node storage stack + store (device, slices, ...). */
    testbed::KvStackConfig kv;
    /** Link/RPC parameters for the node's network endpoint. */
    net::NetworkSpec net;
    /** Router connections into this node (round-robined per request). */
    uint32_t clients = 4;
    /**
     * Admission control: requests concurrently admitted past the RPC
     * dispatcher before new arrivals are shed with a typed kOverloaded
     * nack. 0 disables shedding (every request queues, however deep).
     */
    uint32_t admission_cap = 0;
};

/**
 * One storage server: a network endpoint in front of a full KV stack.
 * Requests enter as RPCs and are served by the node's Store; the node
 * never sees other nodes — placement is entirely the router's job.
 *
 * The node has a process lifecycle: Stop() models the serving process
 * dying (in-flight work becomes zombie callbacks that can no longer
 * touch durable state; clients time out and fail over), and Restart()
 * rebuilds the store from the node's durable state — the WAL and the
 * patch footers on its (simulated) device — via a recovery scan that
 * charges real device reads before the node serves again.
 */
class StorageNode
{
  public:
    /** Per-node restart/recovery statistics ("node<N>.recovery.*"). */
    struct RecoveryStats
    {
        uint64_t restarts = 0;
        uint64_t patches_scanned = 0;
        uint64_t bytes_scanned = 0;
        uint64_t wal_records_replayed = 0;
        uint64_t last_recovery_ns = 0;
    };

    /** Admission-control counters ("node<N>.admission.*"). */
    struct AdmissionStats
    {
        uint64_t admitted = 0;       ///< Requests let past the cap.
        uint64_t shed_overload = 0;  ///< Typed kOverloaded nacks sent.
        uint64_t peak_inflight = 0;
    };

    /** Completion of a BatchGet: one result per requested key, in order. */
    using BatchGetCallback =
        std::function<void(std::vector<kv::GetResult> results)>;

    /** Completion of a node- or cluster-level range scan. */
    using ScanDoneCallback = std::function<void(kv::ScanResult result)>;

    StorageNode(sim::Simulator &sim, uint32_t id, const NodeConfig &cfg);
    ~StorageNode();

    StorageNode(const StorageNode &) = delete;
    StorageNode &operator=(const StorageNode &) = delete;

    uint32_t id() const { return id_; }
    kv::Store &store() { return *stack_.store; }
    testbed::KvStack &stack() { return stack_; }
    net::Network &net() { return *net_; }
    /** The node's device behind the pluggable interface (never null). */
    core::BlockDevice *device() { return stack_.storage.device(); }
    core::SdfDevice *sdf_device() { return stack_.storage.sdf.get(); }

    /** False between Stop() and the end of Restart()'s recovery scan. */
    bool running() const { return running_; }

    /**
     * Kill the serving process. The store is detached (its in-flight
     * flush/compaction callbacks become no-ops and may no longer delete
     * patches or ack anything) and kept only as a zombie until the node
     * is destroyed. RPC handlers stop replying, so clients see timeouts.
     * The device, its contents, and the WAL mirror survive.
     */
    void Stop();

    /**
     * Bring the process back: rebuild the store from the journal (WAL +
     * patch footers), reclaim orphan blocks, then run the recovery scan —
     * one full read of every recovered patch at internal priority, the
     * cost of rebuilding the DRAM index from the on-flash footers. @p done
     * fires once the node is serving again (running() == true).
     */
    void Restart(sim::Callback done = nullptr);

    const RecoveryStats &recovery() const { return recovery_; }

    /** Live keys on this node (empty when stopped); see Store::CollectLive. */
    void CollectLive(std::map<uint64_t, uint32_t> &out) const;

    /**
     * Rebalance/anti-entropy ingest path: ship one key into this node as
     * a bulk transfer (NIC + dispatch cost, no per-item RPC round trip)
     * and store it durably. @p done receives the put's durability ack.
     */
    void StreamIn(uint64_t key, uint32_t value_size, kv::PutCallback done,
                  std::shared_ptr<std::vector<uint8_t>> payload = nullptr);

    /** Rebalance egress: read one key from the local store. */
    void StreamOut(uint64_t key, kv::GetCallback done);

    /**
     * How the replication engine reaches this node: put/get as RPCs with
     * client-side timeout + retry. A put acks only once the store made the
     * value durable (a storage failure is surfaced as a timeout, so the
     * router retries and eventually fails over); a get that fails at
     * storage level replies quickly with res.ok == false so the router can
     * fail over without burning the retry budget.
     */
    kv::ReplicaEndpoint Endpoint();

    /**
     * Coalesced read: one RPC carrying @p keys, served as parallel local
     * gets, answered with one response once all complete. Costs one
     * admission slot and one dispatch regardless of batch size — the
     * client front door uses this to amortize per-message overhead. On a
     * transport-level failure (deadline, shed, dead node) every result
     * carries the same typed status.
     */
    void BatchGet(std::vector<uint64_t> keys, kv::OpContext ctx,
                  BatchGetCallback done);

    /**
     * Range scan RPC: one request carrying (start_key, limit) plus the
     * caller's ownership predicate — modeling the owned vnode ranges the
     * router ships in the request so each key is scanned by exactly one
     * node cluster-wide. Served by Store::Scan (DRAM index cut + one
     * device read per selected value), answered with one response whose
     * size charges the entries' value bytes over the wire. Costs one
     * admission slot regardless of how many keys match.
     */
    void Scan(uint64_t start_key, uint32_t limit,
              std::function<bool(uint64_t)> owned, kv::OpContext ctx,
              ScanDoneCallback done);

    /**
     * Fail-slow injection: scale everything this node does by
     * @p multiplier — RPC dispatch and payload work (via
     * net::Network::SetServiceTimeMultiplier) plus the storage service
     * time itself (replies are deferred by (m-1)x the time the local
     * store took). 1.0 restores health. The node keeps answering, just
     * slowly — the failure mode RAID-style fail-stop handling misses.
     */
    void SetFailSlow(double multiplier)
    {
        fail_slow_mult_ = multiplier;
        net_->SetServiceTimeMultiplier(multiplier);
    }

    const AdmissionStats &admission() const { return admission_; }
    uint64_t inflight() const { return inflight_; }

    /** Flush every slice's memtable (for preloading/fault audits). */
    void FlushAll();

  private:
    /** Admission check at the RPC dispatcher; counts the decision. */
    bool Admit();
    /** Emit a server-side trace event on this node's track: the handler
     *  occupancy from @p start to now, tagged with the request's
     *  distributed trace id (0 or tracing off = no-op). */
    void EmitServerEvent(const char *name, util::TimeNs start,
                         uint64_t trace_id);
    /** Release an admission slot taken in incarnation @p inc (no-op if
     *  the process restarted meanwhile — the slot died with it). */
    void Release(uint64_t inc);
    /** Run @p fn now — or, when fail-slow, after (mult-1)x the service
     *  time elapsed since @p start. Inline when healthy, so runs without
     *  injection are byte-identical to before the knob existed. */
    void Slowed(util::TimeNs start, std::function<void()> fn);

    sim::Simulator &sim_;
    uint32_t id_;
    uint32_t clients_;
    uint32_t next_client_ = 0;
    bool running_ = true;
    double fail_slow_mult_ = 1.0;
    uint32_t admission_cap_ = 0;
    uint64_t inflight_ = 0;
    /** Bumped by Stop(): lets in-flight Release()s from the previous
     *  process detect they are stale. */
    uint64_t incarnation_ = 0;
    AdmissionStats admission_;
    std::unique_ptr<net::Network> net_;
    testbed::KvStack stack_;
    /** Store construction recipe, reused by Restart(). */
    kv::StoreConfig store_cfg_;
    /** The node's durable mirror (WAL + patch footers); survives Stop(). */
    kv::StoreJournal journal_;
    /** Detached stores from previous incarnations (zombie callbacks may
     *  still reference them until the simulation drains). */
    std::vector<std::unique_ptr<kv::Store>> retired_;
    RecoveryStats recovery_;

    obs::Hub *hub_ = nullptr;       ///< Metrics registration (see obs/hub.h).
    std::string metric_prefix_;
    std::string admission_prefix_;
    /** This node's Perfetto track ("cluster"/"node<N>"); null when off. */
    obs::TraceSink *trace_ = nullptr;
    int32_t trace_track_ = -1;
};

/**
 * Client-side shard router: key -> R distinct nodes via the consistent-
 * hash ring, fan-out/failover/read-repair via kv::ReplicationEngine. The
 * nodes must outlive the router.
 */
class ClusterRouter
{
  public:
    ClusterRouter(sim::Simulator &sim,
                  const std::vector<StorageNode *> &nodes,
                  uint32_t replication, uint32_t vnodes_per_node = 64,
                  const BreakerConfig &breaker = {});
    ~ClusterRouter();

    ClusterRouter(const ClusterRouter &) = delete;
    ClusterRouter &operator=(const ClusterRouter &) = delete;

    /** Nodes currently in the membership (live nodes). */
    uint32_t node_count() const { return ring_.node_count(); }
    /** All nodes this router can reach, live or not. */
    uint32_t endpoint_count() const { return engine_.endpoint_count(); }
    uint32_t replication() const { return replication_; }
    const HashRing &ring() const { return ring_; }

    /**
     * Membership epoch: bumped on every MarkNodeDown/MarkNodeUp. The
     * replication engine snapshots it per get and restarts against fresh
     * placement when it moves mid-operation.
     */
    uint64_t epoch() const { return epoch_; }
    bool node_live(uint32_t id) const { return ring_.Contains(id); }

    /** Take @p id out of the membership (died or was stopped). */
    void MarkNodeDown(uint32_t id);

    /** Re-admit @p id (restarted and recovered). */
    void MarkNodeUp(uint32_t id);

    /** Current target replica set for @p key (clamped to live nodes). */
    std::vector<uint32_t> ReplicaNodes(uint64_t key) const
    {
        return ring_.ReplicasFor(key, replication_);
    }

    /**
     * Placement order with fail-slow policy applied: the ring's replica
     * set, with breaker-open nodes demoted to the back. This is the
     * order the engine walks and the order the client front door hedges
     * against.
     */
    std::vector<uint32_t> ReadOrder(uint64_t key);

    /** See ReplicationEngine::Put (ack == at least one durable copy). */
    void
    Put(uint64_t key, uint32_t value_size, kv::PutCallback done,
        std::shared_ptr<std::vector<uint8_t>> payload = nullptr,
        kv::OpContext ctx = {})
    {
        engine_.Put(key, value_size, std::move(done), std::move(payload),
                    ctx);
    }

    /** See ReplicationEngine::PutTyped (typed overall disposition). */
    void
    PutTyped(uint64_t key, uint32_t value_size, kv::PutStatusCallback done,
             std::shared_ptr<std::vector<uint8_t>> payload = nullptr,
             kv::OpContext ctx = {})
    {
        engine_.PutTyped(key, value_size, std::move(done),
                         std::move(payload), ctx);
    }

    /** See ReplicationEngine::Get (transparent failover + read-repair). */
    void Get(uint64_t key, kv::GetCallback done, kv::OpContext ctx = {})
    {
        engine_.Get(key, std::move(done), ctx);
    }

    /**
     * Direct single-node read, no failover — the client front door's
     * primary/hedge attempts. Counted and breaker-sampled like every
     * routed request.
     */
    void GetAt(uint32_t node, uint64_t key, kv::OpContext ctx,
               kv::GetCallback done);

    /** Direct coalesced read on one node; see StorageNode::BatchGet. */
    void BatchGetAt(uint32_t node, std::vector<uint64_t> keys,
                    kv::OpContext ctx, StorageNode::BatchGetCallback done);

    /**
     * Cluster range scan: fan one Scan RPC out to every live node, each
     * carrying the ownership predicate `PrimaryOf(key) == node` so every
     * live key is scanned by exactly its primary, then merge the per-node
     * sorted streams and truncate to @p limit. Correct by construction:
     * a key among the global first `limit` has fewer than `limit` owned
     * predecessors on its primary, so it is always inside that node's
     * window. All-or-nothing: any node's typed failure — or a membership
     * epoch change while the scan is in flight (placement moved under
     * the cursor) — fails the whole scan with a typed status so the
     * caller retries against fresh membership. The span in @p ctx rides
     * the first member RPC only (single-writer rule).
     */
    void Scan(uint64_t start_key, uint32_t limit, kv::OpContext ctx,
              StorageNode::ScanDoneCallback done);

    /** The router as a generic workload target. */
    workload::KvService Service();

    const kv::ReplicatedKvStats &stats() const { return engine_.stats(); }
    const util::LatencyRecorder &recovery_latencies() const
    {
        return engine_.recovery_latencies();
    }

    /** Requests this router sent to node @p i (placement balance). */
    uint64_t node_puts(uint32_t i) const { return node_puts_[i]; }
    uint64_t node_gets(uint32_t i) const { return node_gets_[i]; }

    /** Cluster scan accounting (also exported as cluster.scan*). */
    uint64_t scans() const { return scans_; }
    uint64_t scan_keys() const { return scan_keys_; }
    uint64_t scan_failures() const { return scan_failures_; }

    /** Fail-slow breaker state (trips/resets/reroutes, open nodes). */
    const FailSlowBreaker &breaker() const { return breaker_; }

  private:
    std::vector<kv::ReplicaEndpoint>
    BuildEndpoints(const std::vector<StorageNode *> &nodes);

    sim::Simulator &sim_;
    HashRing ring_;
    uint32_t replication_;
    uint64_t epoch_ = 0;
    std::vector<uint64_t> node_puts_;
    std::vector<uint64_t> node_gets_;
    uint64_t scans_ = 0;
    uint64_t scan_keys_ = 0;
    uint64_t scan_failures_ = 0;
    std::vector<StorageNode *> nodes_;
    FailSlowBreaker breaker_;
    /** Unwrapped per-node endpoints for GetAt (engine_ owns its own). */
    std::vector<kv::ReplicaEndpoint> direct_;
    kv::ReplicationEngine engine_;
    obs::Hub *hub_ = nullptr;
    std::string metric_prefix_;
};

/** Whole-cluster construction parameters. */
struct ClusterConfig
{
    uint32_t nodes = 4;
    uint32_t replication = 2;
    uint32_t vnodes_per_node = 64;
    /** Rebalance/anti-entropy streaming concurrency cap. */
    uint32_t rebalance_max_inflight = 4;
    /** Fail-slow breaker policy for the router (off by default). */
    BreakerConfig breaker;
    /** Template for every node (same hardware per Table 2). */
    NodeConfig node;
};

/** N storage nodes plus router, rebalancer and anti-entropy pass. */
class Cluster
{
  public:
    Cluster(sim::Simulator &sim, const ClusterConfig &cfg);
    ~Cluster();

    Cluster(const Cluster &) = delete;
    Cluster &operator=(const Cluster &) = delete;

    uint32_t node_count() const
    {
        return static_cast<uint32_t>(nodes_.size());
    }
    StorageNode &node(uint32_t i) { return *nodes_[i]; }
    ClusterRouter &router() { return *router_; }
    Rebalancer &rebalancer() { return *rebalancer_; }
    AntiEntropy &anti_entropy() { return *anti_entropy_; }
    workload::KvService Service() { return router_->Service(); }

    /**
     * Stop node @p id's process and take it out of the membership. Keys
     * it held stay under-replicated until a rebalance/anti-entropy pass
     * (or its restart) heals them.
     */
    void StopNode(uint32_t id);

    /**
     * Restart node @p id, re-admit it once its recovery scan completes,
     * and run a rebalance pass to stream back the keys whose ownership
     * returned to it. @p done fires when the rebalance pass finished.
     */
    void RestartNode(uint32_t id, sim::Callback done = nullptr);

    void FlushAll();

    /**
     * Put keys 1..@p count of @p value_bytes through the router (so
     * placement matches the read path), drain, flush every memtable and
     * drain again. @return the keys that acked, ascending — fewer than
     * @p count means the preload failed.
     */
    std::vector<uint64_t> Preload(uint32_t count, uint32_t value_bytes);

    /** Outcome of AuditKeys. */
    struct Audit
    {
        uint64_t audited = 0;
        uint64_t lost = 0;
        std::vector<uint64_t> lost_keys;  ///< The first 10 lost, in order.
    };

    /**
     * Read every key in @p keys back through the router (8 closed-loop
     * streams, so the audit itself cannot congest the RPC path into
     * timeouts) and drain. A key is lost when its read fails or misses.
     */
    Audit AuditKeys(const std::vector<uint64_t> &keys);

    /** The nodes' SDF devices (for fault::FaultInjector); skips nodes on
     *  conventional-SSD backends. */
    std::vector<core::SdfDevice *> SdfDevices();

  private:
    sim::Simulator &sim_;
    std::vector<std::unique_ptr<StorageNode>> nodes_;
    std::unique_ptr<ClusterRouter> router_;
    std::unique_ptr<Rebalancer> rebalancer_;
    std::unique_ptr<AntiEntropy> anti_entropy_;
};

}  // namespace sdf::cluster

#endif  // SDF_CLUSTER_CLUSTER_H
