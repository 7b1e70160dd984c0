/**
 * @file
 * Async client front door for the sharded KV cluster.
 *
 * The paper's web-scale setting serves open-loop traffic: requests arrive
 * when users click, not when the previous response returns. A client
 * library facing that traffic needs three defenses the raw router lacks:
 *
 *  - a bounded outstanding-request window per destination node, with a
 *    bounded submit queue behind it — when both fill, new work is shed
 *    *at the client* with a typed kOverloaded, before it burns a NIC or
 *    a server admission slot;
 *  - request coalescing: queued reads headed for the same node ride one
 *    batched RPC (StorageNode::BatchGet), amortizing per-message dispatch
 *    cost exactly when pressure is highest — the queue only has depth
 *    when the window is full;
 *  - hedged reads: when a primary read outlives the point at which the
 *    router's fail-slow breaker would call its node slow (3x the peers'
 *    median service time, FailSlowBreaker::SlowAfter), a second request
 *    fires at the next replica and the first result wins. This converts
 *    one fail-slow node's latency into a bounded detour instead of a
 *    tail, and under a storm spreads reads over both replicas, while a
 *    node no slower than its peers is left alone.
 *
 * Every operation carries an absolute deadline (OpContext) that
 * propagates through net::Network to the server, so overload turns into
 * fast typed sheds rather than unbounded queueing.
 */
#ifndef SDF_CLIENT_KV_CLIENT_H
#define SDF_CLIENT_KV_CLIENT_H

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "obs/trace_context.h"
#include "sim/pool.h"
#include "sim/simulator.h"
#include "util/latency_recorder.h"
#include "util/units.h"
#include "workload/kv_driver.h"

namespace sdf::client {

using util::TimeNs;

/** Front-door policy knobs. */
struct KvClientConfig
{
    /** Outstanding RPCs per destination node before submits queue. A
     *  coalesced read batch counts once — it also occupies exactly one
     *  server admission slot — so pressure makes batches, not stalls. */
    uint32_t window_per_node = 64;
    /** Queued ops per node behind a full window before submits are shed
     *  client-side with kOverloaded. 0 = unbounded queue (no client shed). */
    uint32_t queue_cap = 1024;
    /** Max reads coalesced into one BatchGet RPC; 1 disables batching. */
    uint32_t batch_max = 8;
    /** Per-op deadline budget (absolute deadline = submit + this);
     *  0 = none — the transport's timeout ladder still applies. */
    TimeNs deadline = 0;
    /** Fire a second replica read once the primary has been out for
     *  the breaker's slowness point (FailSlowBreaker::SlowAfter). */
    bool hedge_reads = true;
};

/** Cumulative front-door counters ("client.*"). */
struct ClientStats
{
    uint64_t puts = 0;
    uint64_t gets = 0;
    uint64_t scans = 0;
    uint64_t shed_queue_full = 0;  ///< Client-side typed kOverloaded.
    uint64_t queued = 0;           ///< Submits that waited for a slot.
    uint64_t batches = 0;          ///< Coalesced BatchGet RPCs issued.
    uint64_t batched_gets = 0;     ///< Reads carried inside those RPCs.
    uint64_t fallback_walks = 0;   ///< Primary read failed -> router walk.
    uint64_t ok = 0;               ///< Ops served (incl. clean misses' put acks).
    uint64_t misses = 0;
    uint64_t overloaded = 0;       ///< Typed kOverloaded outcomes.
    uint64_t deadline_exceeded = 0;
    uint64_t errors = 0;
};

/** Hedged-read accounting ("client.hedge.*"). */
struct HedgeStats
{
    uint64_t launched = 0;   ///< Second requests actually sent.
    uint64_t wins = 0;       ///< Hedge delivered the value first.
    uint64_t losses = 0;     ///< Primary settled after the hedge fired.
    uint64_t cancelled = 0;  ///< Timer cancelled — primary was not slow.
};

/**
 * Asynchronous KV client over a ClusterRouter. Submit never blocks: it
 * either dispatches, queues, or sheds (typed, via the callback, on the
 * next simulator step). Single-simulator-threaded like everything else.
 */
class KvClient
{
  public:
    using PutDone = kv::PutStatusCallback;
    using GetDone = kv::GetCallback;
    using ScanDone = cluster::StorageNode::ScanDoneCallback;

    KvClient(sim::Simulator &sim, cluster::ClusterRouter &router,
             const KvClientConfig &cfg = {});
    ~KvClient();

    KvClient(const KvClient &) = delete;
    KvClient &operator=(const KvClient &) = delete;

    /** Async write through replication; @p done gets the typed outcome. */
    void Put(uint64_t key, uint32_t value_size, PutDone done);

    /**
     * Async read: primary replica first (coalesced when queued), hedged
     * once the primary counts as slow, falling back to the router's
     * failover walk when the primary cannot serve.
     */
    void Get(uint64_t key, GetDone done);

    /**
     * Async range scan (see ClusterRouter::Scan). Scans bypass the
     * per-node window and queue — they fan out to every live node, so no
     * single destination window applies and they are never coalesced —
     * but they carry the same deadline, a trace id, and their own
     * critical-path span recorded under `client.path.scan`.
     */
    void Scan(uint64_t start_key, uint32_t limit, ScanDone done);

    /** The front door as a generic workload target. */
    workload::KvService Service();

    const ClientStats &stats() const { return stats_; }
    const HedgeStats &hedge_stats() const { return hedge_; }

  private:
    struct PendingOp
    {
        bool is_put = false;
        uint64_t key = 0;
        uint32_t value_size = 0;
        PutDone put_done;
        GetDone get_done;
        obs::TraceContext trace;           ///< Distributed-trace identity.
        std::shared_ptr<obs::IoSpan> span; ///< Critical-path timeline.
    };

    /** One read in flight; shared by primary, hedge and fallback paths. */
    struct GetOp
    {
        uint64_t key = 0;
        uint32_t node = 0;       ///< Primary node (the hedge avoids it).
        TimeNs t0 = 0;           ///< Dispatch time.
        TimeNs deadline = 0;     ///< Absolute, 0 = none.
        bool settled = false;
        bool hedged = false;     ///< Hedge request actually launched.
        sim::EventId hedge_timer = sim::kInvalidEvent;
        GetDone done;
        obs::TraceContext trace;
        std::shared_ptr<obs::IoSpan> span;
    };

    struct NodeQueue
    {
        uint32_t inflight = 0;
        std::deque<PendingOp> pending;
    };

    void Submit(uint32_t node, PendingOp op);
    void Pump(uint32_t node);
    void ReleaseSlot(uint32_t node);
    void DispatchPut(uint32_t node, PendingOp op);
    void DispatchGets(uint32_t node, std::vector<PendingOp> ops);
    void OnPrimaryResult(const std::shared_ptr<GetOp> &op,
                         const kv::GetResult &res);
    void LaunchHedge(const std::shared_ptr<GetOp> &op);
    void Settle(const std::shared_ptr<GetOp> &op, const kv::GetResult &res,
                bool from_hedge);
    void CountOutcome(const kv::GetResult &res);
    TimeNs DeadlineFromNow() const;
    /** Start the op's trace identity + critical-path span (hub only). */
    void BeginPath(PendingOp &op);
    /** Finish @p span, fold it into `client.path.<op>`, emit the client
     *  track event. Safe on null spans (no hub). */
    void FinishPath(const std::shared_ptr<obs::IoSpan> &span,
                    const char *name, const char *stat_op,
                    uint64_t trace_id);
    /** Complete-event on the client track; no-op unless tracing. */
    void EmitClientEvent(const char *name, TimeNs start, uint64_t trace_id);

    sim::Simulator &sim_;
    cluster::ClusterRouter &router_;
    KvClientConfig cfg_;
    /** Per-request allocation pools: every get allocates one GetOp record
     *  and (under a hub) one IoSpan timeline — both on the hot path.
     *  Declared before the queues so outstanding pooled pointers drain
     *  back before the pools are torn down. */
    sim::BlockPool get_op_pool_;
    sim::BlockPool span_pool_;
    std::vector<NodeQueue> queues_;
    ClientStats stats_;
    HedgeStats hedge_;
    /** Served-read latencies (`client.read_latency_ns`). */
    util::LatencyRecorder read_lat_;
    /** All settled front-door ops (puts + gets); feeds windowed series. */
    util::LatencyRecorder op_lat_;
    /** Deterministic trace-id source: ids are handed out in submit order,
     *  so same-seed runs produce byte-identical traces. */
    uint64_t next_trace_id_ = 1;

    obs::Hub *hub_ = nullptr;
    obs::TraceSink *trace_ = nullptr;
    int32_t trace_track_ = -1;
    std::string metric_prefix_;
};

}  // namespace sdf::client

#endif  // SDF_CLIENT_KV_CLIENT_H
