#include "cluster/cluster.h"

#include <algorithm>
#include <utility>

#include "cluster/rebalancer.h"
#include "obs/hub.h"
#include "obs/metrics.h"
#include "util/assert.h"

namespace sdf::cluster {

namespace {

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

}  // namespace

StorageNode::StorageNode(sim::Simulator &sim, uint32_t id,
                         const NodeConfig &cfg)
    : sim_(sim), id_(id), clients_(cfg.clients),
      admission_cap_(cfg.admission_cap), store_cfg_(cfg.kv.store)
{
    SDF_CHECK(clients_ > 0);
    // Everything built inside this scope — the network endpoint, the
    // device, the block layer, every slice — self-registers its metrics
    // under "node<id>.*".
    obs::Hub *hub = sim.hub();
    obs::MetricsScope scope(hub != nullptr ? &hub->metrics() : nullptr,
                            "node" + std::to_string(id));
    net_ = std::make_unique<net::Network>(sim, cfg.net, clients_);
    stack_ = testbed::BuildKvStack(sim, cfg.kv, &journal_);

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
    const uint32_t client = next_client_++ % clients_;
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

kv::ReplicaEndpoint
StorageNode::Endpoint()
{
    kv::ReplicaEndpoint ep;
    ep.put = [this](uint64_t key, uint32_t value_size,
                    kv::PutStatusCallback done,
                    std::shared_ptr<std::vector<uint8_t>> payload,
                    kv::OpContext ctx) {
        const uint32_t client = next_client_++ % clients_;
        net_->RpcTyped(
            client, uint64_t{value_size} + kRpcHeaderBytes, ctx.deadline,
            [this, key, value_size, payload, span = ctx.path,
             trace_id = ctx.trace.trace_id](
                util::TimeNs /*deadline*/, net::Network::TypedReply reply) {
                // A stopped process doesn't answer: the request just dies
                // and the client times out + fails over.
                if (!running_) return;
                const util::TimeNs t0 = sim_.Now();
                if (!Admit()) {
                    // Shed before any storage work: a fast typed nack the
                    // caller must not blindly retry.
                    EmitServerEvent("server.put", t0, trace_id);
                    reply(kNackBytes, net::RpcCode::kOverloaded);
                    return;
                }
                const uint64_t inc = incarnation_;
                if (span) span->Enter(obs::Stage::kStorage, t0);
                // Re-puts from RPC retries are idempotent: the LSM just
                // writes the same (key, size) again.
                store().Put(
                    key, value_size,
                    [this, inc, t0, span, trace_id,
                     reply = std::move(reply)](bool ok) {
                        Release(inc);
                        if (span) {
                            span->Enter(obs::Stage::kServerHandle,
                                        sim_.Now());
                        }
                        // Only a durable put acks; a storage failure stays
                        // silent so the client times out and retries
                        // (and the engine eventually fails over). The same
                        // goes for an ack racing a Stop(): the process died
                        // before replying.
                        if (ok && running_) {
                            Slowed(t0, [this, reply, t0, trace_id]() {
                                if (running_) {
                                    EmitServerEvent("server.put", t0,
                                                    trace_id);
                                    reply(kAckBytes, net::RpcCode::kOk);
                                }
                            });
                        }
                    },
                    std::move(payload));
            },
            [done = std::move(done)](net::RpcCode code) {
                if (done) done(CodeToStatus(code));
            },
            ctx.path);
    };
    ep.get = [this](uint64_t key, kv::GetCallback done, kv::OpContext ctx) {
        const uint32_t client = next_client_++ % clients_;
        auto res = std::make_shared<kv::GetResult>();
        net_->RpcTyped(
            client, kRpcHeaderBytes, ctx.deadline,
            [this, key, res, span = ctx.path,
             trace_id = ctx.trace.trace_id](util::TimeNs /*deadline*/,
                                            net::Network::TypedReply reply) {
                if (!running_) return;
                const util::TimeNs t0 = sim_.Now();
                if (!Admit()) {
                    EmitServerEvent("server.get", t0, trace_id);
                    reply(kNackBytes, net::RpcCode::kOverloaded);
                    return;
                }
                const uint64_t inc = incarnation_;
                if (span) span->Enter(obs::Stage::kStorage, t0);
                store().Get(key, [this, inc, res, t0, span, trace_id,
                                  reply = std::move(reply)](
                                     const kv::GetResult &r) {
                    Release(inc);
                    if (!running_) return;
                    if (span) {
                        span->Enter(obs::Stage::kServerHandle, sim_.Now());
                    }
                    *res = r;
                    // Failures/misses reply fast (small nack) so the
                    // router fails over to the next replica immediately
                    // instead of waiting out the retry ladder.
                    const uint64_t bytes =
                        r.ok && r.found
                            ? uint64_t{r.value_size} + kRpcHeaderBytes
                            : kNackBytes;
                    Slowed(t0, [this, reply, bytes, t0, trace_id]() {
                        if (running_) {
                            EmitServerEvent("server.get", t0, trace_id);
                            reply(bytes, net::RpcCode::kOk);
                        }
                    });
                });
            },
            [res, done = std::move(done)](net::RpcCode code) {
                if (code != net::RpcCode::kOk) {
                    kv::GetResult dead;
                    dead.ok = false;
                    dead.status = CodeToStatus(code);
                    done(dead);
                } else {
                    done(*res);
                }
            },
            ctx.path);
    };
    return ep;
}

void
StorageNode::BatchGet(std::vector<uint64_t> keys, kv::OpContext ctx,
                      BatchGetCallback done)
{
    SDF_CHECK_MSG(!keys.empty(), "empty batch");
    const uint32_t client = next_client_++ % clients_;
    const uint64_t request_bytes = kRpcHeaderBytes + 8 * keys.size();
    auto results = std::make_shared<std::vector<kv::GetResult>>();
    const size_t n = keys.size();
    net_->RpcTyped(
        client, request_bytes, ctx.deadline,
        [this, keys = std::move(keys), results, span = ctx.path,
         trace_id = ctx.trace.trace_id](
            util::TimeNs /*deadline*/, net::Network::TypedReply reply) {
            if (!running_) return;
            const util::TimeNs t0 = sim_.Now();
            // The whole batch costs one admission slot: coalescing is how
            // a client *reduces* pressure, so it must not multiply it.
            if (!Admit()) {
                EmitServerEvent("server.batch_get", t0, trace_id);
                reply(kNackBytes, net::RpcCode::kOverloaded);
                return;
            }
            const uint64_t inc = incarnation_;
            if (span) span->Enter(obs::Stage::kStorage, t0);
            results->assign(keys.size(), kv::GetResult{});
            auto remaining = std::make_shared<size_t>(keys.size());
            auto shared_reply = std::make_shared<net::Network::TypedReply>(
                std::move(reply));
            for (size_t i = 0; i < keys.size(); ++i) {
                store().Get(
                    keys[i],
                    [this, inc, i, t0, results, remaining, span, trace_id,
                     shared_reply](const kv::GetResult &r) {
                        (*results)[i] = r;
                        if (--*remaining > 0) return;
                        Release(inc);
                        if (!running_) return;
                        if (span) {
                            span->Enter(obs::Stage::kServerHandle,
                                        sim_.Now());
                        }
                        uint64_t bytes = kRpcHeaderBytes;
                        for (const kv::GetResult &res : *results) {
                            bytes += res.ok && res.found
                                         ? uint64_t{res.value_size} +
                                               kRpcHeaderBytes
                                         : kNackBytes;
                        }
                        Slowed(t0, [this, shared_reply, bytes, t0,
                                    trace_id]() {
                            if (running_) {
                                EmitServerEvent("server.batch_get", t0,
                                                trace_id);
                                (*shared_reply)(bytes, net::RpcCode::kOk);
                            }
                        });
                    });
            }
        },
        [results, n, done = std::move(done)](net::RpcCode code) {
            if (code != net::RpcCode::kOk || results->size() != n) {
                std::vector<kv::GetResult> fail(n);
                for (kv::GetResult &r : fail) {
                    r.ok = false;
                    r.status = CodeToStatus(code);
                }
                done(std::move(fail));
            } else {
                done(*results);
            }
        },
        ctx.path);
}

void
StorageNode::Scan(uint64_t start_key, uint32_t limit,
                  std::function<bool(uint64_t)> owned, kv::OpContext ctx,
                  ScanDoneCallback done)
{
    const uint32_t client = next_client_++ % clients_;
    // The request carries (start_key, limit) plus the caller's owned
    // vnode ranges; the range list is modeled at a flat 256 bytes.
    const uint64_t request_bytes = kRpcHeaderBytes + 16 + 256;
    auto result = std::make_shared<kv::ScanResult>();
    net_->RpcTyped(
        client, request_bytes, ctx.deadline,
        [this, start_key, limit, owned = std::move(owned), result,
         span = ctx.path, trace_id = ctx.trace.trace_id](
            util::TimeNs /*deadline*/, net::Network::TypedReply reply) {
            if (!running_) return;
            const util::TimeNs t0 = sim_.Now();
            // Like a batch, the whole scan costs one admission slot: it
            // is one request however many keys it touches.
            if (!Admit()) {
                EmitServerEvent("server.scan", t0, trace_id);
                reply(kNackBytes, net::RpcCode::kOverloaded);
                return;
            }
            const uint64_t inc = incarnation_;
            if (span) span->Enter(obs::Stage::kStorage, t0);
            store().Scan(
                start_key, limit,
                [this, inc, t0, result, span, trace_id,
                 reply = std::move(reply)](const kv::ScanResult &r) {
                    Release(inc);
                    if (!running_) return;
                    if (span) {
                        span->Enter(obs::Stage::kServerHandle, sim_.Now());
                    }
                    *result = r;
                    // The response streams the scanned values plus 16
                    // bytes of (key, size) framing per entry.
                    const uint64_t bytes =
                        r.ok ? kRpcHeaderBytes + r.scanned_bytes +
                                   16 * r.entries.size()
                             : kNackBytes;
                    Slowed(t0, [this, reply, bytes, t0, trace_id]() {
                        if (running_) {
                            EmitServerEvent("server.scan", t0, trace_id);
                            reply(bytes, net::RpcCode::kOk);
                        }
                    });
                },
                owned);
        },
        [result, done = std::move(done)](net::RpcCode code) {
            if (code != net::RpcCode::kOk) {
                kv::ScanResult fail;
                fail.ok = false;
                fail.status = CodeToStatus(code);
                done(std::move(fail));
            } else {
                done(std::move(*result));
            }
        },
        ctx.path);
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
                             uint32_t replication, uint32_t vnodes_per_node,
                             const BreakerConfig &breaker)
    : sim_(sim),
      ring_(static_cast<uint32_t>(nodes.size()), vnodes_per_node),
      replication_(replication),
      node_puts_(nodes.size(), 0),
      node_gets_(nodes.size(), 0),
      nodes_(nodes),
      breaker_(static_cast<uint32_t>(nodes.size()), breaker),
      direct_(BuildEndpoints(nodes)),
      engine_(sim, BuildEndpoints(nodes),
              [this](uint64_t key) { return ReadOrder(key); })
{
    SDF_CHECK_MSG(replication >= 1 && replication <= nodes.size(),
                  "replication must be in [1, nodes]");
    // Placement moves whenever membership does; gets that straddle a
    // membership change restart against the fresh replica set.
    engine_.set_epoch_provider([this]() { return epoch_; });
    hub_ = sim.hub();
    if (hub_ != nullptr) {
        obs::MetricsRegistry &m = hub_->metrics();
        metric_prefix_ = m.UniquePrefix("cluster");
        const kv::ReplicatedKvStats &st = engine_.stats();
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

void
ClusterRouter::GetAt(uint32_t node, uint64_t key, kv::OpContext ctx,
                     kv::GetCallback done)
{
    SDF_CHECK(node < direct_.size());
    direct_[node].get(key, std::move(done), ctx);
}

void
ClusterRouter::BatchGetAt(uint32_t node, std::vector<uint64_t> keys,
                          kv::OpContext ctx,
                          StorageNode::BatchGetCallback done)
{
    SDF_CHECK(node < nodes_.size());
    node_gets_[node] += keys.size();
    const util::TimeNs t0 = sim_.Now();
    nodes_[node]->BatchGet(
        std::move(keys), ctx,
        [this, node, t0,
         done = std::move(done)](std::vector<kv::GetResult> results) {
            // One service-time sample per batch RPC; sheds excluded (a
            // fast refusal must not make an overloaded node look healthy).
            const bool shed =
                !results.empty() && !results.front().ok &&
                results.front().status == kv::OpStatus::kOverloaded;
            if (!shed) breaker_.Record(node, sim_.Now() - t0);
            done(std::move(results));
        });
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

std::vector<kv::ReplicaEndpoint>
ClusterRouter::BuildEndpoints(const std::vector<StorageNode *> &nodes)
{
    // Every completion that is not an admission shed feeds the breaker's
    // per-node service-time EWMA: a shed is a fast refusal, not service.
    std::vector<kv::ReplicaEndpoint> eps;
    eps.reserve(nodes.size());
    for (size_t i = 0; i < nodes.size(); ++i) {
        kv::ReplicaEndpoint ep = nodes[i]->Endpoint();
        eps.push_back(kv::ReplicaEndpoint{
            [this, i, put = std::move(ep.put)](
                uint64_t key, uint32_t value_size,
                kv::PutStatusCallback done,
                std::shared_ptr<std::vector<uint8_t>> payload,
                kv::OpContext ctx) {
                ++node_puts_[i];
                const util::TimeNs t0 = sim_.Now();
                put(
                    key, value_size,
                    [this, i, t0,
                     done = std::move(done)](kv::OpStatus s) {
                        if (s != kv::OpStatus::kOverloaded) {
                            breaker_.Record(static_cast<uint32_t>(i),
                                            sim_.Now() - t0);
                        }
                        if (done) done(s);
                    },
                    std::move(payload), ctx);
            },
            [this, i, get = std::move(ep.get)](
                uint64_t key, kv::GetCallback done, kv::OpContext ctx) {
                ++node_gets_[i];
                const util::TimeNs t0 = sim_.Now();
                get(
                    key,
                    [this, i, t0,
                     done = std::move(done)](const kv::GetResult &r) {
                        if (r.ok ||
                            r.status != kv::OpStatus::kOverloaded) {
                            breaker_.Record(static_cast<uint32_t>(i),
                                            sim_.Now() - t0);
                        }
                        done(r);
                    },
                    ctx);
            }});
    }
    return eps;
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
                                              cfg.vnodes_per_node,
                                              cfg.breaker);
    RebalanceConfig rc;
    rc.max_inflight = cfg.rebalance_max_inflight;
    rebalancer_ = std::make_unique<Rebalancer>(sim, ptrs, *router_, rc);
    anti_entropy_ = std::make_unique<AntiEntropy>(*rebalancer_);
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
