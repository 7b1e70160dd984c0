/**
 * @file
 * Sharded multi-node KV cluster over SDF or conventional-SSD nodes.
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
 *    keys over the nodes with R-way replication: puts fan out to every
 *    replica, reads fail over in placement order, and a degraded read
 *    repairs the replicas it skipped. RPCs go through net::Network's
 *    timeout/backoff path, so a dead node degrades into retries +
 *    failover instead of a hang.
 *  - Cluster: convenience bundle (N nodes + router) for benches/tools.
 */
#ifndef SDF_CLUSTER_CLUSTER_H
#define SDF_CLUSTER_CLUSTER_H

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/breaker.h"
#include "cluster/hash_ring.h"
#include "kv/recovery.h"
#include "kv/store.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "testbed/testbed.h"
#include "util/latency_recorder.h"
#include "workload/kv_driver.h"

namespace sdf::cluster {

class Rebalancer;

/** How to build one storage node. */
struct NodeConfig
{
    /** Per-node storage stack + store (device, slices, ...). */
    testbed::KvStackConfig kv;
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
    /** The node's SDF device behind the device interface; null on a
     *  conventional SSD, which exposes no channels. */
    core::BlockDevice *device() { return stack_.storage.sdf.get(); }
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
     * Put RPC, with client-side timeout + retry. @p done gets kOk only
     * once the store made the value durable: a storage failure stays
     * silent, so the caller times out, retries and the router eventually
     * fails over. A shed is a fast typed kOverloaded.
     */
    void Put(uint64_t key, uint32_t value_size,
             std::shared_ptr<std::vector<uint8_t>> payload, kv::OpContext ctx,
             kv::PutStatusCallback done);

    /**
     * Get RPC. A read that fails at storage level (res.ok == false) or
     * misses replies fast with a small nack, so the router fails over
     * without burning the retry budget; a transport failure (deadline,
     * shed, dead node) carries its typed status.
     */
    void Get(uint64_t key, kv::OpContext ctx, kv::GetCallback done);

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
    /**
     * The one serving path behind Put, Get, BatchGet and Scan: send
     * @p request_bytes over RpcTyped; at the server, drop the request if
     * the process is dead, shed it with a typed nack past the admission
     * cap, else cut the span to `storage` and run @p work. When the work
     * hands back its Result: release the slot, cut the span to
     * `server_handle` and reply with @p reply_bytes(result) bytes (0 =
     * stay silent) after any fail-slow deferral. @p deliver builds the
     * caller's completion from the transport code and the served result.
     * Every handler is idempotent: a retried attempt runs it again.
     */
    template <typename Result, typename Work, typename ReplyBytes,
              typename Deliver>
    void Serve(const char *event, uint64_t request_bytes,
               const kv::OpContext &ctx, Work work, ReplyBytes reply_bytes,
               Deliver deliver);
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

/** Cumulative replication statistics ("cluster.*"). */
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
    /** Ops rejected because no replica was live (all nodes down). */
    uint64_t no_replica_rejects = 0;
};

/**
 * Client-side shard router: key -> R distinct nodes via the consistent-
 * hash ring, with the replication path on top — put fan-out, the failover
 * walk and read-repair. The nodes must outlive the router.
 */
class ClusterRouter
{
  public:
    ClusterRouter(sim::Simulator &sim,
                  const std::vector<StorageNode *> &nodes,
                  uint32_t replication, const BreakerConfig &breaker = {});
    ~ClusterRouter();

    ClusterRouter(const ClusterRouter &) = delete;
    ClusterRouter &operator=(const ClusterRouter &) = delete;

    /** Nodes currently in the membership (live nodes). */
    uint32_t node_count() const { return ring_.node_count(); }
    /** All nodes this router can reach, live or not. */
    uint32_t endpoint_count() const
    {
        return static_cast<uint32_t>(nodes_.size());
    }
    uint32_t replication() const { return replication_; }
    const HashRing &ring() const { return ring_; }

    /**
     * Membership epoch: bumped on every MarkNodeDown/MarkNodeUp. Get
     * snapshots it and restarts against fresh placement when it moves
     * mid-operation.
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
     * order puts fan out to, the order Get walks, and the order the
     * client front door hedges against.
     */
    std::vector<uint32_t> ReadOrder(uint64_t key);

    /**
     * Store @p key on every replica in ReadOrder. @p done receives true
     * when at least one replica persisted the value (the others are
     * repaired by later degraded reads).
     */
    void Put(uint64_t key, uint32_t value_size, kv::PutCallback done,
             std::shared_ptr<std::vector<uint8_t>> payload = nullptr,
             kv::OpContext ctx = {});

    /**
     * Typed Put: like Put, but @p done receives the aggregated
     * disposition — kOk on at least one durable copy, otherwise the most
     * backpressure-actionable failure any replica reported (overload
     * beats deadline beats storage error; see WorseStatus).
     */
    void PutTyped(uint64_t key, uint32_t value_size,
                  kv::PutStatusCallback done,
                  std::shared_ptr<std::vector<uint8_t>> payload = nullptr,
                  kv::OpContext ctx = {});

    /**
     * Read @p key with transparent failover: the replicas in ReadOrder
     * are tried in turn until one serves the value. A miss on one replica
     * also fails over (a degraded-mode put may have landed on only some
     * replicas); the read is a miss only when every replica agrees. The
     * result's ok flag is false only when a replica failed at storage
     * level and none served the value; res.status then carries the worst
     * typed failure seen across the walk. A degraded read re-puts the
     * value onto the replicas that failed or missed ahead of the one that
     * served it (read-repair).
     */
    void Get(uint64_t key, kv::GetCallback done, kv::OpContext ctx = {});

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

    const ReplicatedKvStats &stats() const { return stats_; }
    /**
     * Latency from the primary replica's failure to the moment a
     * surviving replica served the value (per degraded read).
     */
    const util::LatencyRecorder &recovery_latencies() const
    {
        return recovery_latencies_;
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
    /**
     * The one per-node call helper: count @p requests to node @p node in
     * @p counts (node_puts_ or node_gets_) and return @p done wrapped so
     * the node's round trip feeds the breaker's service-time EWMA — unless
     * the node shed the request: a fast refusal is not service, and must
     * not make an overloaded node look healthy.
     */
    template <typename Done>
    auto Tracked(uint32_t node, std::vector<uint64_t> &counts,
                 uint64_t requests, Done done);
    /** One step of Get's walk: ask replica (*order)[attempt]. */
    void DoGet(uint64_t key, kv::GetCallback done,
               std::shared_ptr<const std::vector<uint32_t>> order,
               uint32_t attempt, util::TimeNs first_fail,
               kv::OpStatus worst, uint64_t epoch, kv::OpContext ctx);
    /** Read-repair: re-put @p good onto the first @p failed_count
     *  replicas of @p order. */
    void Repair(uint64_t key, const kv::GetResult &good,
                const std::vector<uint32_t> &order, uint32_t failed_count);

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
    ReplicatedKvStats stats_;
    util::LatencyRecorder recovery_latencies_;
    obs::Hub *hub_ = nullptr;
    std::string metric_prefix_;
};

/** Whole-cluster construction parameters. */
struct ClusterConfig
{
    uint32_t nodes = 4;
    uint32_t replication = 2;
    /** Fail-slow breaker policy for the router (off by default). */
    BreakerConfig breaker;
    /** Template for every node (same hardware per Table 2). */
    NodeConfig node;
};

/** N storage nodes plus router and rebalancer. */
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
    workload::KvService Service() { return router_->Service(); }

    /**
     * Stop node @p id's process and take it out of the membership. Keys
     * it held stay under-replicated until a rebalance pass (or its
     * restart) heals them.
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
};

}  // namespace sdf::cluster

#endif  // SDF_CLUSTER_CLUSTER_H
