#include "cluster/cluster.h"

#include <algorithm>
#include <utility>

#include "cluster/rebalancer.h"
#include "obs/hub.h"
#include "obs/metrics.h"
#include "util/assert.h"

namespace sdf::cluster {

namespace {

/** Router connections into each node (round-robined per request). */
constexpr uint32_t kConnections = 4;
/** Request-framing overhead charged on top of the payload. */
constexpr uint64_t kRpcHeaderBytes = 64;
/** Small fixed responses: a put ack, or a get miss/failure notice. */
constexpr uint64_t kAckBytes = 64;
constexpr uint64_t kNackBytes = 16;

/** Map a transport disposition onto the KV-level one. */
kv::OpStatus
CodeToStatus(net::RpcCode code)
{
    switch (code) {
        case net::RpcCode::kOk: return kv::OpStatus::kOk;
        case net::RpcCode::kOverloaded: return kv::OpStatus::kOverloaded;
        case net::RpcCode::kDeadlineExceeded:
            return kv::OpStatus::kDeadlineExceeded;
    }
    return kv::OpStatus::kError;
}

/** A read that never got served, carrying the transport's disposition. */
kv::GetResult
Unserved(net::RpcCode code)
{
    kv::GetResult res;
    res.ok = false;
    res.status = CodeToStatus(code);
    return res;
}

/** Reply size of one served read: the value, or a small miss/failure nack. */
uint64_t
GetReplyBytes(const kv::GetResult &r)
{
    return r.ok && r.found ? uint64_t{r.value_size} + kRpcHeaderBytes
                           : kNackBytes;
}

/** Whether a node's answer is an admission shed (ClusterRouter::Tracked). */
bool
IsShed(kv::OpStatus s)
{
    return s == kv::OpStatus::kOverloaded;
}

bool
IsShed(const kv::GetResult &r)
{
    return !r.ok && IsShed(r.status);
}

bool
IsShed(const std::vector<kv::GetResult> &results)
{
    return !results.empty() && IsShed(results.front());
}

/** Typed failure a replica's GetResult contributes (kOk = clean miss). */
kv::OpStatus
FailureStatus(const kv::GetResult &res)
{
    if (res.ok) return kv::OpStatus::kOk;
    // A storage-level failure may leave status at kOk.
    return res.status == kv::OpStatus::kOk ? kv::OpStatus::kError
                                           : res.status;
}

}  // namespace

StorageNode::StorageNode(sim::Simulator &sim, uint32_t id,
                         const NodeConfig &cfg)
    : sim_(sim), id_(id), admission_cap_(cfg.admission_cap),
      store_cfg_(cfg.kv.store)
{
    // Everything built inside this scope — the network endpoint, the
    // device, the block layer, every slice — self-registers its metrics
    // under "node<id>.*".
    obs::Hub *hub = sim.hub();
    obs::MetricsScope scope(hub != nullptr ? &hub->metrics() : nullptr,
                            "node" + std::to_string(id));
    net_ = std::make_unique<net::Network>(sim, kConnections);
    // One NodeConfig builds every node, so offset the flash seed by the
    // node id: replicas must draw independent bit errors and CRC windows.
    testbed::KvStackConfig kv = cfg.kv;
    kv.stack.tune_sdf = [tune = cfg.kv.stack.tune_sdf,
                         id](core::SdfConfig &dc) {
        if (tune) tune(dc);
        dc.flash.seed += 0x9e3779b9ULL * (id + 1);
    };
    stack_ = testbed::BuildKvStack(sim, kv, &journal_);

    if (hub != nullptr) {
        obs::MetricsRegistry &m = hub->metrics();
        metric_prefix_ = m.UniquePrefix("recovery");
        hub_ = hub;
        m.RegisterCounter(metric_prefix_ + ".restarts", &recovery_.restarts);
        m.RegisterCounter(metric_prefix_ + ".patches_scanned",
                          &recovery_.patches_scanned);
        m.RegisterCounter(metric_prefix_ + ".bytes_scanned",
                          &recovery_.bytes_scanned);
        m.RegisterCounter(metric_prefix_ + ".wal_records_replayed",
                          &recovery_.wal_records_replayed);
        m.RegisterGauge(metric_prefix_ + ".last_recovery_ms", [this]() {
            return static_cast<double>(recovery_.last_recovery_ns) / 1e6;
        });
        m.RegisterGauge(metric_prefix_ + ".running", [this]() {
            return running_ ? 1.0 : 0.0;
        });
        admission_prefix_ = m.UniquePrefix("admission");
        m.RegisterCounter(admission_prefix_ + ".admitted",
                          &admission_.admitted);
        m.RegisterCounter(admission_prefix_ + ".shed_overload",
                          &admission_.shed_overload);
        m.RegisterCounter(admission_prefix_ + ".peak_inflight",
                          &admission_.peak_inflight);
        m.RegisterGauge(admission_prefix_ + ".inflight", [this]() {
            return static_cast<double>(inflight_);
        });
        if (hub->trace() != nullptr) {
            trace_ = hub->trace();
            trace_track_ = trace_->RegisterTrack(
                "cluster", "node" + std::to_string(id));
        }
    }
}

void
StorageNode::EmitServerEvent(const char *name, util::TimeNs start,
                             uint64_t trace_id)
{
    if (trace_ == nullptr || trace_id == 0) return;
    trace_->Complete(trace_track_, name, start, sim_.Now() - start,
                     trace_id);
}

StorageNode::~StorageNode()
{
    if (hub_ != nullptr) {
        hub_->metrics().UnregisterPrefix(metric_prefix_);
        hub_->metrics().UnregisterPrefix(admission_prefix_);
    }
}

bool
StorageNode::Admit()
{
    if (admission_cap_ != 0 && inflight_ >= admission_cap_) {
        ++admission_.shed_overload;
        return false;
    }
    ++admission_.admitted;
    ++inflight_;
    admission_.peak_inflight = std::max(admission_.peak_inflight, inflight_);
    return true;
}

void
StorageNode::Release(uint64_t inc)
{
    if (inc != incarnation_ || inflight_ == 0) return;
    --inflight_;
}

void
StorageNode::Slowed(util::TimeNs start, std::function<void()> fn)
{
    if (fail_slow_mult_ <= 1.0) {
        fn();
        return;
    }
    const auto extra = static_cast<util::TimeNs>(
        (fail_slow_mult_ - 1.0) * static_cast<double>(sim_.Now() - start));
    if (extra == 0) {
        fn();
        return;
    }
    sim_.Schedule(extra, std::move(fn));
}

void
StorageNode::Stop()
{
    SDF_CHECK_MSG(running_, "node already stopped");
    running_ = false;
    // In-flight admissions die with the process; their Release()s carry
    // the old incarnation and become no-ops.
    ++incarnation_;
    inflight_ = 0;
    stack_.store->Detach();
    retired_.push_back(std::move(stack_.store));
}

void
StorageNode::Restart(sim::Callback done)
{
    SDF_CHECK_MSG(!running_, "node is still running");
    SDF_CHECK_MSG(stack_.store == nullptr, "restart already in progress");
    ++recovery_.restarts;
    const util::TimeNs t0 = sim_.Now();
    recovery_.wal_records_replayed += journal_.TotalWalRecords();
    // Patches to scan: snapshot before the store replays the WAL (replay
    // can flush new patches, which need no scan — they were just written).
    std::vector<uint64_t> scan;
    for (const kv::SliceJournal &sj : journal_.slices) {
        for (const auto &[pid, footer] : sj.patches) scan.push_back(pid);
    }
    {
        obs::Hub *hub = sim_.hub();
        obs::MetricsScope scope(hub != nullptr ? &hub->metrics() : nullptr,
                                "node" + std::to_string(id_));
        stack_.store = std::make_unique<kv::Store>(
            sim_, *stack_.storage.storage, store_cfg_, &journal_);
    }
    // The recovery scan: one full read of every recovered patch (footer +
    // entry table) at internal priority. Only after the last read lands
    // does the node serve again.
    auto finish = [this, t0, done = std::move(done)]() {
        recovery_.last_recovery_ns = sim_.Now() - t0;
        running_ = true;
        if (done) done();
    };
    if (scan.empty()) {
        sim_.Post(std::move(finish));
        return;
    }
    auto remaining = std::make_shared<size_t>(scan.size());
    auto shared_finish =
        std::make_shared<sim::Callback>(std::move(finish));
    for (uint64_t pid : scan) {
        ++recovery_.patches_scanned;
        recovery_.bytes_scanned += stack_.storage.storage->patch_bytes();
        stack_.storage.storage->GetRange(
            pid, 0, stack_.storage.storage->patch_bytes(),
            [remaining, shared_finish](core::IoStatus) {
                if (--*remaining == 0) (*shared_finish)();
            },
            nullptr, blocklayer::kInternalPriority);
    }
}

void
StorageNode::CollectLive(std::map<uint64_t, uint32_t> &out) const
{
    if (!running_ || stack_.store == nullptr) return;
    stack_.store->CollectLive(out);
}

void
StorageNode::StreamIn(uint64_t key, uint32_t value_size,
                      kv::PutCallback done,
                      std::shared_ptr<std::vector<uint8_t>> payload)
{
    if (!running_) {
        sim_.Post([done = std::move(done)]() {
            if (done) done(false);
        });
        return;
    }
    const uint32_t client = next_client_++ % kConnections;
    net_->Bulk(client, uint64_t{value_size} + kRpcHeaderBytes,
               [this, key, value_size, done = std::move(done),
                payload = std::move(payload)]() mutable {
                   if (!running_) {
                       if (done) done(false);
                       return;
                   }
                   store().Put(key, value_size, std::move(done),
                               std::move(payload));
               });
}

void
StorageNode::StreamOut(uint64_t key, kv::GetCallback done)
{
    if (!running_) {
        sim_.Post([done = std::move(done)]() {
            kv::GetResult dead;
            dead.ok = false;
            done(dead);
        });
        return;
    }
    store().Get(key, [this, done = std::move(done)](const kv::GetResult &r) {
        if (!running_) {
            kv::GetResult dead;
            dead.ok = false;
            done(dead);
            return;
        }
        done(r);
    });
}

template <typename Result, typename Work, typename ReplyBytes,
          typename Deliver>
void
StorageNode::Serve(const char *event, uint64_t request_bytes,
                   const kv::OpContext &ctx, Work work,
                   ReplyBytes reply_bytes, Deliver deliver)
{
    const uint32_t client = next_client_++ % kConnections;
    auto result = std::make_shared<Result>();
    net_->RpcTyped(
        client, request_bytes, ctx.deadline,
        [this, event, result, work = std::move(work),
         reply_bytes = std::move(reply_bytes), span = ctx.path,
         trace_id = ctx.trace.trace_id](util::TimeNs /*deadline*/,
                                        net::Network::TypedReply reply) {
            // A stopped process doesn't answer: the request just dies and
            // the client times out + fails over.
            if (!running_) return;
            const util::TimeNs t0 = sim_.Now();
            if (!Admit()) {
                // Shed before any storage work: a fast typed nack the
                // caller must not blindly retry.
                EmitServerEvent(event, t0, trace_id);
                reply(kNackBytes, net::RpcCode::kOverloaded);
                return;
            }
            const uint64_t inc = incarnation_;
            if (span) span->Enter(obs::Stage::kStorage, t0);
            work([this, event, inc, t0, result, reply_bytes, span, trace_id,
                  reply = std::move(reply)](const Result &r) {
                Release(inc);
                // The process died while the store worked: no reply.
                if (!running_) return;
                if (span) span->Enter(obs::Stage::kServerHandle, sim_.Now());
                *result = r;
                const uint64_t bytes = reply_bytes(r);
                if (bytes == 0) return;
                Slowed(t0, [this, event, reply, bytes, t0, trace_id]() {
                    if (running_) {
                        EmitServerEvent(event, t0, trace_id);
                        reply(bytes, net::RpcCode::kOk);
                    }
                });
            });
        },
        [result, deliver = std::move(deliver)](net::RpcCode code) {
            deliver(code, *result);
        },
        ctx.path);
}

void
StorageNode::Put(uint64_t key, uint32_t value_size,
                 std::shared_ptr<std::vector<uint8_t>> payload,
                 kv::OpContext ctx, kv::PutStatusCallback done)
{
    Serve<bool>(
        "server.put", uint64_t{value_size} + kRpcHeaderBytes, ctx,
        // Re-puts from RPC retries are idempotent: the LSM just writes the
        // same (key, size) again.
        [this, key, value_size, payload](auto finish) {
            store().Put(key, value_size, std::move(finish), payload);
        },
        // Only a durable put acks; a storage failure stays silent so the
        // client times out and retries (and the router eventually fails
        // over).
        [](bool ok) { return ok ? kAckBytes : 0; },
        [done = std::move(done)](net::RpcCode code, bool) {
            if (done) done(CodeToStatus(code));
        });
}

void
StorageNode::Get(uint64_t key, kv::OpContext ctx, kv::GetCallback done)
{
    Serve<kv::GetResult>(
        "server.get", kRpcHeaderBytes, ctx,
        [this, key](auto finish) { store().Get(key, std::move(finish)); },
        GetReplyBytes,
        [done = std::move(done)](net::RpcCode code, kv::GetResult &res) {
            done(code == net::RpcCode::kOk ? res : Unserved(code));
        });
}

void
StorageNode::BatchGet(std::vector<uint64_t> keys, kv::OpContext ctx,
                      BatchGetCallback done)
{
    SDF_CHECK_MSG(!keys.empty(), "empty batch");
    const size_t n = keys.size();
    // The whole batch costs one admission slot: coalescing is how a client
    // *reduces* pressure, so it must not multiply it.
    Serve<std::vector<kv::GetResult>>(
        "server.batch_get", kRpcHeaderBytes + 8 * n, ctx,
        [this, keys = std::move(keys)](auto finish) {
            auto results = std::make_shared<std::vector<kv::GetResult>>(
                keys.size());
            auto remaining = std::make_shared<size_t>(keys.size());
            auto shared_finish =
                std::make_shared<decltype(finish)>(std::move(finish));
            for (size_t i = 0; i < keys.size(); ++i) {
                store().Get(keys[i], [i, results, remaining, shared_finish](
                                         const kv::GetResult &r) {
                    (*results)[i] = r;
                    if (--*remaining == 0) (*shared_finish)(*results);
                });
            }
        },
        [](const std::vector<kv::GetResult> &results) {
            uint64_t bytes = kRpcHeaderBytes;
            for (const kv::GetResult &r : results) bytes += GetReplyBytes(r);
            return bytes;
        },
        [n, done = std::move(done)](net::RpcCode code,
                                    std::vector<kv::GetResult> &results) {
            if (code != net::RpcCode::kOk) {
                done(std::vector<kv::GetResult>(n, Unserved(code)));
            } else {
                done(results);
            }
        });
}

void
StorageNode::Scan(uint64_t start_key, uint32_t limit,
                  std::function<bool(uint64_t)> owned, kv::OpContext ctx,
                  ScanDoneCallback done)
{
    // The request carries (start_key, limit) plus the caller's owned
    // vnode ranges; the range list is modeled at a flat 256 bytes. Like a
    // batch, the whole scan costs one admission slot: it is one request
    // however many keys it touches.
    Serve<kv::ScanResult>(
        "server.scan", kRpcHeaderBytes + 16 + 256, ctx,
        [this, start_key, limit, owned = std::move(owned)](auto finish) {
            store().Scan(start_key, limit, std::move(finish), owned);
        },
        // The response streams the scanned values plus 16 bytes of
        // (key, size) framing per entry.
        [](const kv::ScanResult &r) {
            return r.ok ? kRpcHeaderBytes + r.scanned_bytes +
                              16 * r.entries.size()
                        : kNackBytes;
        },
        [done = std::move(done)](net::RpcCode code, kv::ScanResult &result) {
            if (code != net::RpcCode::kOk) {
                kv::ScanResult fail;
                fail.ok = false;
                fail.status = CodeToStatus(code);
                done(std::move(fail));
            } else {
                done(std::move(result));
            }
        });
}

void
StorageNode::FlushAll()
{
    if (!running_) return;
    kv::Store &s = store();
    for (uint32_t i = 0; i < s.slice_count(); ++i) s.slice(i).Flush();
}

ClusterRouter::ClusterRouter(sim::Simulator &sim,
                             const std::vector<StorageNode *> &nodes,
                             uint32_t replication,
                             const BreakerConfig &breaker)
    : sim_(sim),
      ring_(static_cast<uint32_t>(nodes.size())),
      replication_(replication),
      node_puts_(nodes.size(), 0),
      node_gets_(nodes.size(), 0),
      nodes_(nodes),
      breaker_(static_cast<uint32_t>(nodes.size()), breaker)
{
    SDF_CHECK_MSG(replication >= 1 && replication <= nodes.size(),
                  "replication must be in [1, nodes]");
    hub_ = sim.hub();
    if (hub_ != nullptr) {
        obs::MetricsRegistry &m = hub_->metrics();
        metric_prefix_ = m.UniquePrefix("cluster");
        const ReplicatedKvStats &st = stats_;
        m.RegisterCounter(metric_prefix_ + ".puts", &st.puts);
        m.RegisterCounter(metric_prefix_ + ".gets", &st.gets);
        m.RegisterCounter(metric_prefix_ + ".put_failures",
                          &st.put_failures);
        m.RegisterCounter(metric_prefix_ + ".put_replica_failures",
                          &st.put_replica_failures);
        m.RegisterCounter(metric_prefix_ + ".degraded_reads",
                          &st.degraded_reads);
        m.RegisterCounter(metric_prefix_ + ".failed_reads",
                          &st.failed_reads);
        m.RegisterCounter(metric_prefix_ + ".re_replications",
                          &st.re_replications);
        m.RegisterCounter(metric_prefix_ + ".epoch_restarts",
                          &st.epoch_restarts);
        m.RegisterCounter(metric_prefix_ + ".no_replica_rejects",
                          &st.no_replica_rejects);
        m.RegisterCounter(metric_prefix_ + ".scans", &scans_);
        m.RegisterCounter(metric_prefix_ + ".scan_keys", &scan_keys_);
        m.RegisterCounter(metric_prefix_ + ".scan_failures",
                          &scan_failures_);
        m.RegisterGauge(metric_prefix_ + ".epoch", [this]() {
            return static_cast<double>(epoch_);
        });
        m.RegisterGauge(metric_prefix_ + ".live_nodes", [this]() {
            return static_cast<double>(ring_.node_count());
        });
        m.RegisterHistogram(metric_prefix_ + ".recovery_latency_ns",
                            [this]() {
                                return &recovery_latencies().histogram();
                            });
        m.RegisterCounter(metric_prefix_ + ".breaker.trips",
                          &breaker_.stats().trips);
        m.RegisterCounter(metric_prefix_ + ".breaker.resets",
                          &breaker_.stats().resets);
        m.RegisterCounter(metric_prefix_ + ".breaker.reroutes",
                          &breaker_.stats().reroutes);
        m.RegisterGauge(metric_prefix_ + ".breaker.open_nodes", [this]() {
            return static_cast<double>(breaker_.open_count());
        });
    }
}

std::vector<uint32_t>
ClusterRouter::ReadOrder(uint64_t key)
{
    std::vector<uint32_t> order = ring_.ReplicasFor(key, replication_);
    if (!breaker_.AnyOpen() || order.size() < 2) return order;
    const uint32_t head = order.front();
    std::stable_partition(order.begin(), order.end(), [this](uint32_t n) {
        return !breaker_.IsOpen(n);
    });
    if (order.front() != head) breaker_.CountReroute();
    return order;
}

template <typename Done>
auto
ClusterRouter::Tracked(uint32_t node, std::vector<uint64_t> &counts,
                       uint64_t requests, Done done)
{
    counts[node] += requests;
    const util::TimeNs t0 = sim_.Now();
    return [this, node, t0, done = std::move(done)](auto &&result) mutable {
        if (!IsShed(result)) breaker_.Record(node, sim_.Now() - t0);
        done(std::forward<decltype(result)>(result));
    };
}

void
ClusterRouter::Put(uint64_t key, uint32_t value_size, kv::PutCallback done,
                   std::shared_ptr<std::vector<uint8_t>> payload,
                   kv::OpContext ctx)
{
    PutTyped(
        key, value_size,
        [done = std::move(done)](kv::OpStatus s) {
            if (done) done(s == kv::OpStatus::kOk);
        },
        std::move(payload), ctx);
}

void
ClusterRouter::PutTyped(uint64_t key, uint32_t value_size,
                        kv::PutStatusCallback done,
                        std::shared_ptr<std::vector<uint8_t>> payload,
                        kv::OpContext ctx)
{
    ++stats_.puts;
    const std::vector<uint32_t> order = ReadOrder(key);
    if (order.empty()) {
        // Every node that could hold the key is out of the membership.
        ++stats_.no_replica_rejects;
        ++stats_.put_failures;
        sim_.Post([done = std::move(done)]() {
            if (done) done(kv::OpStatus::kError);
        });
        return;
    }
    // Every replica's ack joins here; the move-only `done` waits in it.
    struct Join
    {
        size_t remaining = 0;
        uint32_t successes = 0;
        kv::OpStatus worst = kv::OpStatus::kOk;
        kv::PutStatusCallback done;
    };
    auto join = std::make_shared<Join>();
    join->remaining = order.size();
    join->done = std::move(done);
    const auto on_ack = [this, join](kv::OpStatus s) {
        if (s == kv::OpStatus::kOk) {
            ++join->successes;
        } else {
            ++stats_.put_replica_failures;
            join->worst = kv::WorseStatus(join->worst, s);
        }
        if (--join->remaining > 0) return;
        if (join->successes > 0) {
            if (join->done) join->done(kv::OpStatus::kOk);
            return;
        }
        ++stats_.put_failures;
        if (join->done) {
            join->done(join->worst == kv::OpStatus::kOk ? kv::OpStatus::kError
                                                        : join->worst);
        }
    };
    for (const uint32_t node : order) {
        nodes_[node]->Put(key, value_size, payload, ctx,
                          Tracked(node, node_puts_, 1, on_ack));
        // Only the first replica's RPC writes the request's critical-path
        // span; a second concurrent writer would corrupt the timeline.
        // Later replicas keep the trace identity but no span.
        ctx.path = nullptr;
    }
}

void
ClusterRouter::Get(uint64_t key, kv::GetCallback done, kv::OpContext ctx)
{
    ++stats_.gets;
    auto order =
        std::make_shared<const std::vector<uint32_t>>(ReadOrder(key));
    if (order->empty()) {
        ++stats_.no_replica_rejects;
        ++stats_.failed_reads;
        sim_.Post([done = std::move(done)]() {
            if (done) {
                kv::GetResult res;
                res.ok = false;
                res.status = kv::OpStatus::kError;
                done(res);
            }
        });
        return;
    }
    DoGet(key, std::move(done), std::move(order), 0, 0, kv::OpStatus::kOk,
          epoch_, ctx);
}

void
ClusterRouter::DoGet(uint64_t key, kv::GetCallback done,
                     std::shared_ptr<const std::vector<uint32_t>> order,
                     uint32_t attempt, util::TimeNs first_fail,
                     kv::OpStatus worst, uint64_t epoch, kv::OpContext ctx)
{
    if (attempt == order->size()) {
        // Exhausted. All clean misses -> an authoritative miss; any
        // storage failure along the way -> a failed read.
        kv::GetResult res;
        res.found = false;
        res.ok = worst == kv::OpStatus::kOk;
        res.status = worst;
        if (!res.ok) ++stats_.failed_reads;
        if (done) done(res);
        return;
    }
    const uint32_t node = (*order)[attempt];
    auto on_reply = [this, key, done = std::move(done), order, attempt,
                     first_fail, worst, epoch,
                     ctx](const kv::GetResult &res) mutable {
        if (!res.ok || !res.found) {
            const util::TimeNs t0 = attempt == 0 ? sim_.Now() : first_fail;
            const kv::OpStatus next_worst =
                kv::WorseStatus(worst, FailureStatus(res));
            // Membership moved while we were waiting (a node died or
            // rejoined): the replica list is stale — restart against fresh
            // placement. Bounded by the number of epoch bumps.
            if (epoch_ != epoch) {
                ++stats_.epoch_restarts;
                auto fresh = std::make_shared<const std::vector<uint32_t>>(
                    ReadOrder(key));
                if (fresh->empty()) {
                    ++stats_.no_replica_rejects;
                    ++stats_.failed_reads;
                    if (done) {
                        kv::GetResult fail;
                        fail.ok = false;
                        fail.status =
                            kv::WorseStatus(next_worst, kv::OpStatus::kError);
                        done(fail);
                    }
                    return;
                }
                DoGet(key, std::move(done), std::move(fresh), 0, t0,
                      next_worst, epoch_, ctx);
                return;
            }
            // Storage failure — or a miss on this replica, which may just
            // have lost the put that a later replica acked (degraded-mode
            // write). Either way, ask the next one.
            DoGet(key, std::move(done), std::move(order), attempt + 1, t0,
                  next_worst, epoch, ctx);
            return;
        }
        if (attempt > 0) {
            ++stats_.degraded_reads;
            recovery_latencies_.Record(sim_.Now() - first_fail);
            // Read-repair: restore redundancy on the replicas that failed
            // or missed ahead of this one.
            Repair(key, res, *order, attempt);
        }
        if (done) done(res);
    };
    nodes_[node]->Get(key, ctx,
                      Tracked(node, node_gets_, 1, std::move(on_reply)));
}

void
ClusterRouter::Repair(uint64_t key, const kv::GetResult &good,
                      const std::vector<uint32_t> &order,
                      uint32_t failed_count)
{
    for (uint32_t i = 0; i < failed_count; ++i) {
        ++stats_.re_replications;
        const uint32_t node = order[i];
        nodes_[node]->Put(
            key, good.value_size, good.payload, kv::OpContext{},
            Tracked(node, node_puts_, 1, [this](kv::OpStatus s) {
                if (s != kv::OpStatus::kOk) ++stats_.re_replication_failures;
            }));
    }
}

void
ClusterRouter::GetAt(uint32_t node, uint64_t key, kv::OpContext ctx,
                     kv::GetCallback done)
{
    SDF_CHECK(node < nodes_.size());
    nodes_[node]->Get(key, ctx,
                      Tracked(node, node_gets_, 1, std::move(done)));
}

void
ClusterRouter::BatchGetAt(uint32_t node, std::vector<uint64_t> keys,
                          kv::OpContext ctx,
                          StorageNode::BatchGetCallback done)
{
    SDF_CHECK(node < nodes_.size());
    const uint64_t n = keys.size();
    nodes_[node]->BatchGet(std::move(keys), ctx,
                           Tracked(node, node_gets_, n, std::move(done)));
}

void
ClusterRouter::Scan(uint64_t start_key, uint32_t limit, kv::OpContext ctx,
                    StorageNode::ScanDoneCallback done)
{
    ++scans_;
    const std::vector<uint32_t> members = ring_.node_ids();
    if (members.empty() || limit == 0) {
        kv::ScanResult r;
        if (members.empty()) {
            r.ok = false;
            r.status = kv::OpStatus::kError;
            ++scan_failures_;
        }
        sim_.Post([done = std::move(done), r]() mutable {
            done(std::move(r));
        });
        return;
    }
    const uint64_t start_epoch = epoch_;
    auto merged = std::make_shared<std::map<uint64_t, uint32_t>>();
    auto ok = std::make_shared<bool>(true);
    auto status = std::make_shared<kv::OpStatus>(kv::OpStatus::kOk);
    auto remaining = std::make_shared<size_t>(members.size());
    auto boxed = std::make_shared<StorageNode::ScanDoneCallback>(
        std::move(done));
    for (size_t i = 0; i < members.size(); ++i) {
        const uint32_t node = members[i];
        kv::OpContext member_ctx = ctx;
        // Single span writer: the critical path rides the first member
        // RPC; the rest keep the trace id only.
        if (i != 0) member_ctx.path = nullptr;
        nodes_[node]->Scan(
            start_key, limit,
            [this, node](uint64_t key) {
                return ring_.PrimaryOf(key) == node;
            },
            member_ctx,
            [this, merged, ok, status, remaining, boxed, start_epoch,
             limit](kv::ScanResult r) {
                if (!r.ok) {
                    *ok = false;
                    *status = kv::WorseStatus(*status, r.status);
                } else {
                    for (const kv::ScanEntry &e : r.entries)
                        (*merged)[e.key] = e.value_size;
                }
                if (--*remaining > 0) return;
                kv::ScanResult out;
                // Placement moved under the cursor: the per-node
                // ownership predicates no longer tile the key space, so
                // the union may have holes — fail typed, caller retries.
                if (epoch_ != start_epoch) {
                    *ok = false;
                    *status = kv::WorseStatus(*status,
                                              kv::OpStatus::kError);
                }
                out.ok = *ok;
                out.status = *status;
                if (*ok) {
                    for (const auto &[key, value_size] : *merged) {
                        if (out.entries.size() >= limit) break;
                        out.entries.push_back(
                            kv::ScanEntry{key, value_size});
                        out.scanned_bytes += value_size;
                    }
                    scan_keys_ += out.entries.size();
                } else {
                    ++scan_failures_;
                }
                (*boxed)(std::move(out));
            });
    }
}

void
ClusterRouter::MarkNodeDown(uint32_t id)
{
    SDF_CHECK_MSG(ring_.Contains(id), "node not in membership");
    ring_.RemoveNode(id);
    ++epoch_;
}

void
ClusterRouter::MarkNodeUp(uint32_t id)
{
    SDF_CHECK_MSG(!ring_.Contains(id), "node already in membership");
    ring_.AddNode(id);
    ++epoch_;
}

ClusterRouter::~ClusterRouter()
{
    if (hub_ != nullptr) hub_->metrics().UnregisterPrefix(metric_prefix_);
}

workload::KvService
ClusterRouter::Service()
{
    workload::KvService svc;
    svc.put = [this](uint64_t key, uint32_t value_size,
                     kv::PutCallback done) {
        Put(key, value_size, std::move(done));
    };
    svc.put_typed = [this](uint64_t key, uint32_t value_size,
                           kv::PutStatusCallback done) {
        PutTyped(key, value_size, std::move(done));
    };
    svc.get = [this](uint64_t key, kv::GetCallback done) {
        Get(key, std::move(done));
    };
    svc.scan = [this](uint64_t start_key, uint32_t limit,
                      std::function<void(const kv::ScanResult &)> done) {
        Scan(start_key, limit, kv::OpContext{},
             [done = std::move(done)](kv::ScanResult r) { done(r); });
    };
    return svc;
}

Cluster::Cluster(sim::Simulator &sim, const ClusterConfig &cfg) : sim_(sim)
{
    SDF_CHECK(cfg.nodes > 0);
    nodes_.reserve(cfg.nodes);
    for (uint32_t i = 0; i < cfg.nodes; ++i) {
        nodes_.push_back(std::make_unique<StorageNode>(sim, i, cfg.node));
    }
    std::vector<StorageNode *> ptrs;
    ptrs.reserve(nodes_.size());
    for (auto &n : nodes_) ptrs.push_back(n.get());
    router_ = std::make_unique<ClusterRouter>(sim, ptrs, cfg.replication,
                                              cfg.breaker);
    rebalancer_ = std::make_unique<Rebalancer>(sim, ptrs, *router_);
}

Cluster::~Cluster() = default;

void
Cluster::StopNode(uint32_t id)
{
    SDF_CHECK(id < nodes_.size());
    router_->MarkNodeDown(id);
    nodes_[id]->Stop();
}

void
Cluster::RestartNode(uint32_t id, sim::Callback done)
{
    SDF_CHECK(id < nodes_.size());
    nodes_[id]->Restart([this, id, done = std::move(done)]() mutable {
        router_->MarkNodeUp(id);
        rebalancer_->RunPass(std::move(done));
    });
}

void
Cluster::FlushAll()
{
    for (auto &n : nodes_) n->FlushAll();
}

std::vector<uint64_t>
Cluster::Preload(uint32_t count, uint32_t value_bytes)
{
    std::vector<bool> acked(count, false);
    for (uint32_t k = 0; k < count; ++k) {
        router_->Put(k + 1, value_bytes,
                     [&acked, k](bool ok) { acked[k] = ok; });
    }
    sim_.Run();
    FlushAll();
    sim_.Run();
    std::vector<uint64_t> keys;
    for (uint32_t k = 0; k < count; ++k) {
        if (acked[k]) keys.push_back(k + 1);
    }
    return keys;
}

Cluster::Audit
Cluster::AuditKeys(const std::vector<uint64_t> &keys)
{
    Audit out;
    size_t next = 0;
    std::function<void()> step = [&]() {
        if (next >= keys.size()) return;
        const uint64_t key = keys[next++];
        router_->Get(key, [&, key](const kv::GetResult &res) {
            ++out.audited;
            if (!res.ok || !res.found) {
                ++out.lost;
                if (out.lost_keys.size() < 10) out.lost_keys.push_back(key);
            }
            step();
        });
    };
    for (uint32_t s = 0; s < 8; ++s) step();
    sim_.Run();
    return out;
}

std::vector<core::SdfDevice *>
Cluster::SdfDevices()
{
    std::vector<core::SdfDevice *> out;
    for (auto &n : nodes_) {
        if (n->sdf_device() != nullptr) out.push_back(n->sdf_device());
    }
    return out;
}

}  // namespace sdf::cluster
