#include "client/kv_client.h"

#include <utility>

#include "obs/hub.h"
#include "obs/metrics.h"
#include "util/assert.h"

namespace sdf::client {

KvClient::KvClient(sim::Simulator &sim, cluster::ClusterRouter &router,
                   const KvClientConfig &cfg)
    : sim_(sim), router_(router), cfg_(cfg),
      queues_(router.endpoint_count())
{
    SDF_CHECK(cfg_.window_per_node > 0);
    SDF_CHECK(cfg_.batch_max > 0);
    if (obs::Hub *hub = sim.hub()) {
        hub_ = hub;
        obs::MetricsRegistry &m = hub->metrics();
        metric_prefix_ = m.UniquePrefix("client");
        m.RegisterCounter(metric_prefix_ + ".puts", &stats_.puts);
        m.RegisterCounter(metric_prefix_ + ".gets", &stats_.gets);
        m.RegisterCounter(metric_prefix_ + ".scans", &stats_.scans);
        m.RegisterCounter(metric_prefix_ + ".shed_queue_full",
                          &stats_.shed_queue_full);
        m.RegisterCounter(metric_prefix_ + ".queued", &stats_.queued);
        m.RegisterCounter(metric_prefix_ + ".batches", &stats_.batches);
        m.RegisterCounter(metric_prefix_ + ".batched_gets",
                          &stats_.batched_gets);
        m.RegisterCounter(metric_prefix_ + ".fallback_walks",
                          &stats_.fallback_walks);
        m.RegisterCounter(metric_prefix_ + ".ok", &stats_.ok);
        m.RegisterCounter(metric_prefix_ + ".misses", &stats_.misses);
        m.RegisterCounter(metric_prefix_ + ".overloaded",
                          &stats_.overloaded);
        m.RegisterCounter(metric_prefix_ + ".deadline_exceeded",
                          &stats_.deadline_exceeded);
        m.RegisterCounter(metric_prefix_ + ".errors", &stats_.errors);
        m.RegisterCounter(metric_prefix_ + ".hedge.launched",
                          &hedge_.launched);
        m.RegisterCounter(metric_prefix_ + ".hedge.wins", &hedge_.wins);
        m.RegisterCounter(metric_prefix_ + ".hedge.losses",
                          &hedge_.losses);
        m.RegisterCounter(metric_prefix_ + ".hedge.cancelled",
                          &hedge_.cancelled);
        m.RegisterGauge(metric_prefix_ + ".pending", [this]() {
            size_t n = 0;
            for (const NodeQueue &q : queues_) n += q.pending.size();
            return static_cast<double>(n);
        });
        m.RegisterHistogram(metric_prefix_ + ".read_latency_ns",
                            [this]() { return &read_lat_.histogram(); });
        m.RegisterHistogram(metric_prefix_ + ".op_latency_ns",
                            [this]() { return &op_lat_.histogram(); });
        if (hub->trace() != nullptr) {
            trace_ = hub->trace();
            trace_track_ = trace_->RegisterTrack("cluster", "client");
        }
    }
}

void
KvClient::BeginPath(PendingOp &op)
{
    if (hub_ == nullptr) return;
    op.trace.trace_id = next_trace_id_++;
    op.span = sim::MakePooledShared<obs::IoSpan>(span_pool_);
    op.span->Start(sim_.Now());
    // The submit-side host work is instantaneous in the model; the op
    // waits in the client queue/window until dispatch.
    op.span->Enter(obs::Stage::kClientQueue, sim_.Now());
}

void
KvClient::EmitClientEvent(const char *name, TimeNs start, uint64_t trace_id)
{
    if (trace_ == nullptr || trace_id == 0) return;
    trace_->Complete(trace_track_, name, start, sim_.Now() - start,
                     trace_id);
}

void
KvClient::FinishPath(const std::shared_ptr<obs::IoSpan> &span,
                     const char *name, const char *stat_op,
                     uint64_t trace_id)
{
    if (!span) return;
    span->Finish(sim_.Now());
    hub_->stages().Record(stat_op, *span);
    op_lat_.Record(span->total_ns());
    EmitClientEvent(name, span->start_ns(), trace_id);
}

KvClient::~KvClient()
{
    if (hub_ != nullptr) hub_->metrics().UnregisterPrefix(metric_prefix_);
}

TimeNs
KvClient::DeadlineFromNow() const
{
    return cfg_.deadline == 0 ? 0 : sim_.Now() + cfg_.deadline;
}

void
KvClient::Put(uint64_t key, uint32_t value_size, PutDone done)
{
    ++stats_.puts;
    const std::vector<uint32_t> order = router_.ReadOrder(key);
    if (order.empty()) {
        ++stats_.errors;
        sim_.Post([done = std::move(done)]() {
            if (done) done(kv::OpStatus::kError);
        });
        return;
    }
    PendingOp op;
    op.is_put = true;
    op.key = key;
    op.value_size = value_size;
    op.put_done = std::move(done);
    BeginPath(op);
    Submit(order.front(), std::move(op));
}

void
KvClient::Get(uint64_t key, GetDone done)
{
    ++stats_.gets;
    const std::vector<uint32_t> order = router_.ReadOrder(key);
    if (order.empty()) {
        ++stats_.errors;
        sim_.Post([done = std::move(done)]() {
            kv::GetResult res;
            res.ok = false;
            res.status = kv::OpStatus::kError;
            if (done) done(res);
        });
        return;
    }
    PendingOp op;
    op.key = key;
    op.get_done = std::move(done);
    BeginPath(op);
    Submit(order.front(), std::move(op));
}

void
KvClient::Scan(uint64_t start_key, uint32_t limit, ScanDone done)
{
    ++stats_.scans;
    kv::OpContext ctx;
    ctx.deadline = DeadlineFromNow();
    std::shared_ptr<obs::IoSpan> span;
    if (hub_ != nullptr) {
        ctx.trace.trace_id = next_trace_id_++;
        span = sim::MakePooledShared<obs::IoSpan>(span_pool_);
        span->Start(sim_.Now());
        span->Enter(obs::Stage::kClientQueue, sim_.Now());
        // Dispatch is immediate (no window), so the queue stage is a
        // zero-length cut and the wire stage opens right away; the span
        // rides the fan-out's first member RPC (single-writer rule).
        span->Enter(obs::Stage::kRpcWire, sim_.Now());
        ctx.path = span;
    }
    router_.Scan(start_key, limit, ctx,
                 [this, span, trace_id = ctx.trace.trace_id,
                  done = std::move(done)](kv::ScanResult r) {
                     FinishPath(span, "scan", "client.path.scan", trace_id);
                     if (r.ok) {
                         ++stats_.ok;
                     } else {
                         switch (r.status) {
                             case kv::OpStatus::kOverloaded:
                                 ++stats_.overloaded;
                                 break;
                             case kv::OpStatus::kDeadlineExceeded:
                                 ++stats_.deadline_exceeded;
                                 break;
                             default: ++stats_.errors; break;
                         }
                     }
                     if (done) done(std::move(r));
                 });
}

void
KvClient::Submit(uint32_t node, PendingOp op)
{
    NodeQueue &q = queues_[node];
    if (cfg_.queue_cap != 0 && q.inflight >= cfg_.window_per_node &&
        q.pending.size() >= cfg_.queue_cap) {
        // Both the window and the queue behind it are full: shed here,
        // before this request costs anyone else anything.
        ++stats_.shed_queue_full;
        ++stats_.overloaded;
        sim_.Post([this, op = std::move(op)]() {
            // A client-side shed still settles the span: its whole (tiny)
            // lifetime is client_queue time, and the tiling stays exact.
            FinishPath(op.span, op.is_put ? "put" : "get",
                       op.is_put ? "client.path.put" : "client.path.get",
                       op.trace.trace_id);
            if (op.is_put) {
                if (op.put_done) op.put_done(kv::OpStatus::kOverloaded);
            } else if (op.get_done) {
                kv::GetResult res;
                res.ok = false;
                res.status = kv::OpStatus::kOverloaded;
                op.get_done(res);
            }
        });
        return;
    }
    if (q.inflight >= cfg_.window_per_node || !q.pending.empty()) {
        ++stats_.queued;
    }
    q.pending.push_back(std::move(op));
    Pump(node);
}

void
KvClient::Pump(uint32_t node)
{
    NodeQueue &q = queues_[node];
    while (q.inflight < cfg_.window_per_node && !q.pending.empty()) {
        if (q.pending.front().is_put) {
            PendingOp op = std::move(q.pending.front());
            q.pending.pop_front();
            DispatchPut(node, std::move(op));
            continue;
        }
        // Coalesce the contiguous run of reads at the head (FIFO order is
        // preserved; a put in between is a barrier). The batch costs one
        // window slot however many reads it carries, so depth that built
        // up while the window was full drains as batches.
        std::vector<PendingOp> gets;
        const uint32_t cap = cfg_.batch_max;
        while (gets.size() < cap && !q.pending.empty() &&
               !q.pending.front().is_put) {
            gets.push_back(std::move(q.pending.front()));
            q.pending.pop_front();
        }
        DispatchGets(node, std::move(gets));
    }
}

void
KvClient::ReleaseSlot(uint32_t node)
{
    NodeQueue &q = queues_[node];
    if (q.inflight > 0) --q.inflight;
    Pump(node);
}

void
KvClient::DispatchPut(uint32_t node, PendingOp op)
{
    NodeQueue &q = queues_[node];
    ++q.inflight;
    kv::OpContext ctx;
    ctx.deadline = DeadlineFromNow();
    ctx.trace = op.trace;
    ctx.path = op.span;
    // Dispatch closes the client-queue segment; the request is on the wire.
    if (op.span) op.span->Enter(obs::Stage::kRpcWire, sim_.Now());
    router_.PutTyped(
        op.key, op.value_size,
        [this, node, span = op.span, trace_id = op.trace.trace_id,
         done = std::move(op.put_done)](kv::OpStatus s) {
            switch (s) {
                case kv::OpStatus::kOk: ++stats_.ok; break;
                case kv::OpStatus::kOverloaded: ++stats_.overloaded; break;
                case kv::OpStatus::kDeadlineExceeded:
                    ++stats_.deadline_exceeded;
                    break;
                case kv::OpStatus::kError: ++stats_.errors; break;
            }
            FinishPath(span, "put", "client.path.put", trace_id);
            ReleaseSlot(node);
            if (done) done(s);
        },
        nullptr, ctx);
}

void
KvClient::DispatchGets(uint32_t node, std::vector<PendingOp> ops)
{
    SDF_CHECK(!ops.empty());
    NodeQueue &q = queues_[node];
    ++q.inflight;  // One RPC, one slot — batched or not.

    kv::OpContext ctx;
    ctx.deadline = DeadlineFromNow();

    std::vector<std::shared_ptr<GetOp>> recs;
    recs.reserve(ops.size());
    // The breaker's definition of slow, judged against the primary's
    // peers: load that slows every node raises the bar with it, and a
    // read hedges only once it has waited 3x what its peers take.
    const TimeNs hedge_after =
        cfg_.hedge_reads ? router_.breaker().SlowAfter(node) : 0;
    for (PendingOp &p : ops) {
        auto op = sim::MakePooledShared<GetOp>(get_op_pool_);
        op->key = p.key;
        op->node = node;
        op->t0 = sim_.Now();
        op->deadline = ctx.deadline;
        op->done = std::move(p.get_done);
        op->trace = p.trace;
        op->span = std::move(p.span);
        // Every member's queue segment ends at dispatch. Only the first
        // member's span rides the RPC (single writer); the rest spend the
        // round trip in rpc_wire — coarse but still a correct tiling.
        if (op->span) op->span->Enter(obs::Stage::kRpcWire, sim_.Now());
        if (hedge_after != 0) {
            op->hedge_timer = sim_.Schedule(
                hedge_after, [this, op]() { LaunchHedge(op); });
        }
        recs.push_back(std::move(op));
    }
    ctx.trace = recs.front()->trace;
    ctx.path = recs.front()->span;

    if (recs.size() == 1) {
        auto op = recs.front();
        router_.GetAt(node, op->key, ctx,
                      [this, node, op](const kv::GetResult &res) {
                          ReleaseSlot(node);
                          OnPrimaryResult(op, res);
                      });
        return;
    }

    ++stats_.batches;
    stats_.batched_gets += recs.size();
    std::vector<uint64_t> keys;
    keys.reserve(recs.size());
    for (const auto &r : recs) keys.push_back(r->key);
    router_.BatchGetAt(
        node, std::move(keys), ctx,
        [this, node,
         recs = std::move(recs)](std::vector<kv::GetResult> results) {
            SDF_CHECK(results.size() == recs.size());
            ReleaseSlot(node);
            for (size_t i = 0; i < recs.size(); ++i) {
                OnPrimaryResult(recs[i], results[i]);
            }
        });
}

void
KvClient::OnPrimaryResult(const std::shared_ptr<GetOp> &op,
                          const kv::GetResult &res)
{
    if (op->settled) return;  // Hedge won; this arrival is the loser.
    if (res.ok && res.found) {
        Settle(op, res, /*from_hedge=*/false);
        return;
    }
    if (!res.ok && res.status == kv::OpStatus::kDeadlineExceeded) {
        // Out of time: a failover walk would blow the budget again.
        Settle(op, res, /*from_hedge=*/false);
        return;
    }
    // Primary missed, shed, or failed: let the router walk the replicas
    // (it owns miss-authority semantics and read-repair).
    ++stats_.fallback_walks;
    kv::OpContext ctx;
    ctx.deadline = op->deadline;
    ctx.trace = op->trace;
    // The primary RPC has settled, so the walk takes over as the span's
    // (single) writer; its hops extend the same timeline.
    ctx.path = op->span;
    router_.Get(
        op->key,
        [this, op](const kv::GetResult &walked) {
            if (op->settled) return;
            Settle(op, walked, /*from_hedge=*/false);
        },
        ctx);
}

void
KvClient::LaunchHedge(const std::shared_ptr<GetOp> &op)
{
    op->hedge_timer = sim::kInvalidEvent;
    if (op->settled) return;
    // Next-best replica under current policy (breaker-aware), excluding
    // the node the primary attempt went to.
    const std::vector<uint32_t> order = router_.ReadOrder(op->key);
    uint32_t target = op->node;
    for (uint32_t n : order) {
        if (n != op->node) {
            target = n;
            break;
        }
    }
    if (target == op->node) return;  // No second replica to hedge at.
    op->hedged = true;
    ++hedge_.launched;
    // From here the parent is racing its own duplicate: attribute the
    // remaining wait to hedge_wait, not to the primary's wire time.
    if (op->span) op->span->Enter(obs::Stage::kHedgeWait, sim_.Now());
    kv::OpContext ctx;
    ctx.deadline = op->deadline;
    // The duplicate shares the parent's trace id but carries no span: the
    // parent owns the one timeline.
    ctx.trace.trace_id = op->trace.trace_id;
    const TimeNs t_hedge = sim_.Now();
    router_.GetAt(target, op->key, ctx,
                  [this, op, t_hedge](const kv::GetResult &res) {
                      // The hedge attempt's own lifetime, win or lose.
                      EmitClientEvent("hedge", t_hedge,
                                      op->trace.trace_id);
                      if (op->settled) return;
                      // Only a served value settles via the hedge; a miss
                      // or failure is not authoritative for one replica.
                      if (res.ok && res.found) {
                          Settle(op, res, /*from_hedge=*/true);
                      }
                  });
}

void
KvClient::Settle(const std::shared_ptr<GetOp> &op, const kv::GetResult &res,
                 bool from_hedge)
{
    op->settled = true;
    if (op->hedge_timer != sim::kInvalidEvent) {
        // Primary came back before it counted as slow: no hedge fired.
        sim_.Cancel(op->hedge_timer);
        op->hedge_timer = sim::kInvalidEvent;
        ++hedge_.cancelled;
    } else if (op->hedged) {
        if (from_hedge) {
            ++hedge_.wins;
        } else {
            ++hedge_.losses;
        }
    }
    if (res.ok) read_lat_.Record(sim_.Now() - op->t0);
    FinishPath(op->span, "get", "client.path.get", op->trace.trace_id);
    CountOutcome(res);
    // The window slot belongs to the primary RPC, not this op — it was
    // released when that RPC returned.
    if (op->done) op->done(res);
}

void
KvClient::CountOutcome(const kv::GetResult &res)
{
    if (res.ok) {
        if (res.found) {
            ++stats_.ok;
        } else {
            ++stats_.misses;
        }
        return;
    }
    switch (res.status) {
        case kv::OpStatus::kOverloaded: ++stats_.overloaded; break;
        case kv::OpStatus::kDeadlineExceeded:
            ++stats_.deadline_exceeded;
            break;
        default: ++stats_.errors; break;
    }
}

workload::KvService
KvClient::Service()
{
    workload::KvService svc;
    svc.put = [this](uint64_t key, uint32_t value_size,
                     kv::PutCallback done) {
        Put(key, value_size, [done = std::move(done)](kv::OpStatus s) {
            if (done) done(s == kv::OpStatus::kOk);
        });
    };
    svc.put_typed = [this](uint64_t key, uint32_t value_size,
                           kv::PutStatusCallback done) {
        Put(key, value_size, std::move(done));
    };
    svc.get = [this](uint64_t key, kv::GetCallback done) {
        Get(key, std::move(done));
    };
    svc.scan = [this](uint64_t start_key, uint32_t limit,
                      std::function<void(const kv::ScanResult &)> done) {
        Scan(start_key, limit,
             [done = std::move(done)](kv::ScanResult r) { done(r); });
    };
    return svc;
}

}  // namespace sdf::client
