#include "net/network.h"

#include <algorithm>
#include <utility>

#include "obs/hub.h"
#include "util/assert.h"
#include "util/units.h"

namespace sdf::net {

namespace {

/** Client NIC bandwidth (10 GbE ~ 1.25 GB/s line rate). */
constexpr double kClientNicBytesPerSec = 1.18e9;
/** Server aggregate NIC bandwidth (2 x 10 GbE). */
constexpr double kServerNicBytesPerSec = 2.36e9;
/** One-way propagation + switching delay. */
constexpr TimeNs kOneWayDelay = util::UsToNs(50);
/** Shared server CPU cost per message (RPC dispatch). */
constexpr TimeNs kServerPerMessage = util::UsToNs(15);
/**
 * Per-connection worker cost per payload byte (checksum + copies on the
 * slice's serving thread); bounds per-slice throughput at
 * ~1/kWorkerPerByteNs GB/s independent of the device.
 */
constexpr double kWorkerPerByteNs = 1.3;  // ~770 MB/s per slice connection
/** Client-side RPC timeout per RpcTyped attempt. */
constexpr TimeNs kRpcTimeout = util::MsToNs(50);
/** Retries after the first attempt before giving up. */
constexpr uint32_t kRpcMaxRetries = 3;
/** First retry delay; doubles each further attempt (exponential). */
constexpr TimeNs kRpcBackoffBase = util::MsToNs(1);
/** Response size for a transport-generated deadline nack. */
constexpr uint64_t kDropReplyBytes = 16;

/** Payload work on a connection's serving worker, before fail-slow
 *  scaling: one dispatch plus the per-byte cost. */
TimeNs
WorkerCost(uint64_t bytes)
{
    return kServerPerMessage +
           static_cast<TimeNs>(kWorkerPerByteNs * static_cast<double>(bytes));
}

}  // namespace

Network::Network(sim::Simulator &sim, uint32_t clients)
    : sim_(sim), server_nic_(sim), server_cpu_(sim)
{
    SDF_CHECK(clients > 0);
    client_nics_.reserve(clients);
    workers_.reserve(clients);
    for (uint32_t i = 0; i < clients; ++i) {
        client_nics_.push_back(std::make_unique<sim::FifoResource>(sim));
        workers_.push_back(std::make_unique<sim::FifoResource>(sim));
    }

    if (obs::Hub *hub = sim.hub()) {
        hub_ = hub;
        obs::MetricsRegistry &m = hub->metrics();
        metric_prefix_ = m.UniquePrefix("net");
        m.RegisterCounter(metric_prefix_ + ".messages", &messages_);
        m.RegisterCounter(metric_prefix_ + ".bytes_to_clients",
                          &bytes_to_clients_);
        m.RegisterCounter(metric_prefix_ + ".rpc_timeouts",
                          &rpc_stats_.timeouts);
        m.RegisterCounter(metric_prefix_ + ".rpc_retries",
                          &rpc_stats_.retries);
        m.RegisterCounter(metric_prefix_ + ".rpc_failures",
                          &rpc_stats_.failures);
        m.RegisterCounter(metric_prefix_ + ".rpc_late_responses",
                          &rpc_stats_.late_responses);
        m.RegisterCounter(metric_prefix_ + ".rpc_overload_replies",
                          &rpc_stats_.overload_replies);
        m.RegisterCounter(metric_prefix_ + ".rpc_deadline_drops",
                          &rpc_stats_.deadline_drops);
        m.RegisterGauge(metric_prefix_ + ".service_time_multiplier",
                        [this]() { return service_mult_; });
        m.RegisterCounter(metric_prefix_ + ".bulk_messages",
                          &bulk_messages_);
        m.RegisterCounter(metric_prefix_ + ".bulk_bytes", &bulk_bytes_);
        m.RegisterGauge(metric_prefix_ + ".server_cpu_utilization", [this]() {
            return server_cpu_.Utilization(sim_.Now());
        });
    }
}

Network::~Network()
{
    if (hub_ != nullptr) hub_->metrics().UnregisterPrefix(metric_prefix_);
}

void
Network::ClientToServer(uint32_t client, uint64_t bytes,
                        sim::Callback at_server)
{
    SDF_CHECK(client < client_nics_.size());
    ++messages_;
    const TimeNs wire = util::TransferTimeNs(bytes, kClientNicBytesPerSec);
    client_nics_[client]->Submit(wire, nullptr);
    const TimeNs arrival = sim_.Now() + wire + kOneWayDelay;
    sim_.ScheduleAt(arrival, [this, at_server = std::move(at_server)]() mutable {
        server_cpu_.Submit(Scaled(kServerPerMessage), std::move(at_server));
    });
}

void
Network::Push(uint32_t client, uint64_t bytes, sim::Callback delivered)
{
    SDF_CHECK(client < client_nics_.size());
    ++messages_;
    workers_[client]->Submit(Scaled(WorkerCost(bytes)),
                             [this, client, bytes,
                              delivered = std::move(delivered)]() mutable {
        bytes_to_clients_ += bytes;
        const TimeNs srv_wire =
            util::TransferTimeNs(bytes, kServerNicBytesPerSec);
        const TimeNs srv_done = server_nic_.Submit(srv_wire, nullptr);
        const TimeNs cli_wire =
            util::TransferTimeNs(bytes, kClientNicBytesPerSec);
        client_nics_[client]->SubmitAfter(srv_done + kOneWayDelay, cli_wire,
                                          std::move(delivered));
    });
}

void
Network::Bulk(uint32_t client, uint64_t bytes, sim::Callback at_server,
              std::shared_ptr<obs::IoSpan> span)
{
    SDF_CHECK(client < client_nics_.size());
    ++bulk_messages_;
    bulk_bytes_ += bytes;
    const TimeNs cli_wire = util::TransferTimeNs(bytes, kClientNicBytesPerSec);
    client_nics_[client]->Submit(cli_wire, nullptr);
    const TimeNs arrival = sim_.Now() + cli_wire + kOneWayDelay;
    if (span) span->Enter(obs::Stage::kAdmission, arrival);
    sim_.ScheduleAt(arrival, [this, bytes, at_server = std::move(at_server),
                              span = std::move(span)]() mutable {
        const TimeNs srv_wire =
            util::TransferTimeNs(bytes, kServerNicBytesPerSec);
        server_nic_.Submit(srv_wire, [this, at_server = std::move(at_server),
                                      span = std::move(span)]() mutable {
            server_cpu_.Submit(
                Scaled(kServerPerMessage),
                [at_server = std::move(at_server),
                 span = std::move(span), this]() mutable {
                    if (span)
                        span->Enter(obs::Stage::kServerHandle, sim_.Now());
                    at_server();
                });
        });
    });
}

void
Network::Rpc(uint32_t client, uint64_t request_bytes, Handler handler,
             sim::Callback delivered, std::shared_ptr<obs::IoSpan> span)
{
    SDF_CHECK(client < client_nics_.size());
    ++messages_;

    // The reply channel handed to the handler is a copyable std::function,
    // so the move-only delivered callback rides in a pooled shared box.
    auto boxed = sim::MakePooledShared<sim::Callback>(delivered_pool_,
                                                      std::move(delivered));

    // Request: client NIC -> wire -> server NIC -> server CPU dispatch.
    const TimeNs req_wire =
        util::TransferTimeNs(request_bytes, kClientNicBytesPerSec);
    client_nics_[client]->Submit(req_wire, nullptr);
    const TimeNs at_server = sim_.Now() + req_wire + kOneWayDelay;
    // The arrival time is known now; the span clamps it monotonic.
    if (span) span->Enter(obs::Stage::kAdmission, at_server);

    sim_.ScheduleAt(at_server, [this, client, handler = std::move(handler),
                                boxed = std::move(boxed),
                                span = std::move(span)]() mutable {
        server_cpu_.Submit(Scaled(kServerPerMessage),
                           [this, client,
                            handler = std::move(handler),
                            boxed = std::move(boxed),
                            span = std::move(span)]() mutable {
            if (span) span->Enter(obs::Stage::kServerHandle, sim_.Now());
            handler([this, client, boxed,
                     span = std::move(span)](
                        uint64_t response_bytes) mutable {
                if (span) span->Enter(obs::Stage::kRpcWire, sim_.Now());
                // Response: payload handled on the connection's serving
                // worker, then both NICs.
                workers_[client]->Submit(
                    Scaled(WorkerCost(response_bytes)),
                    [this, client, response_bytes,
                     boxed = std::move(boxed)]() mutable {
                        bytes_to_clients_ += response_bytes;
                        const TimeNs srv_wire = util::TransferTimeNs(
                            response_bytes, kServerNicBytesPerSec);
                        const util::TimeNs srv_done = server_nic_.Submit(
                            srv_wire, nullptr);
                        const TimeNs cli_wire = util::TransferTimeNs(
                            response_bytes, kClientNicBytesPerSec);
                        client_nics_[client]->SubmitAfter(
                            srv_done + kOneWayDelay, cli_wire,
                            [boxed = std::move(boxed)]() { (*boxed)(); });
                    });
            });
        });
    });
}

void
Network::RpcTyped(uint32_t client, uint64_t request_bytes, TimeNs deadline,
                  TypedHandler handler, sim::Func<void(RpcCode)> done,
                  std::shared_ptr<obs::IoSpan> span)
{
    AttemptTyped(client, request_bytes, deadline, std::move(handler),
                 sim::MakePooledShared<sim::Func<void(RpcCode)>>(
                     done_typed_pool_, std::move(done)),
                 0, std::move(span));
}

void
Network::AttemptTyped(uint32_t client, uint64_t request_bytes,
                      TimeNs deadline, TypedHandler handler,
                      std::shared_ptr<sim::Func<void(RpcCode)>> done,
                      uint32_t attempt, std::shared_ptr<obs::IoSpan> span)
{
    // A request already past its deadline never hits the wire.
    if (deadline != 0 && sim_.Now() >= deadline) {
        ++rpc_stats_.failures;
        sim_.Post([done]() {
            if (*done) (*done)(RpcCode::kDeadlineExceeded);
        });
        return;
    }

    // Both the response and the timeout race on this record; whichever
    // fires second becomes a no-op, so no event cancellation is needed
    // and the schedule stays deterministic. The record also carries the
    // server's typed disposition back past the size-only reply path.
    auto settled = sim::MakePooledShared<Settle>(settle_pool_);
    Handler plain = [this, deadline, handler,
                     settled](std::function<void(uint64_t)> reply) {
        if (deadline != 0 && sim_.Now() > deadline) {
            // Expired in flight or in the server queue: nack without
            // touching the handler — the work would be wasted anyway.
            ++rpc_stats_.deadline_drops;
            settled->code = RpcCode::kDeadlineExceeded;
            reply(kDropReplyBytes);
            return;
        }
        handler(deadline,
                [settled, reply = std::move(reply)](uint64_t bytes,
                                                    RpcCode c) mutable {
                    settled->code = c;
                    reply(bytes);
                });
    };
    Rpc(client, request_bytes, std::move(plain),
        [this, settled, done]() {
            if (settled->settled) {
                ++rpc_stats_.late_responses;
                return;
            }
            settled->settled = true;
            if (settled->code == RpcCode::kOverloaded)
                ++rpc_stats_.overload_replies;
            if (*done) (*done)(settled->code);
        },
        std::move(span));

    // Per-attempt timer: the RPC timeout, clipped to the deadline (which
    // is still ahead: an expired request returned above).
    TimeNs wait = kRpcTimeout;
    if (deadline != 0) wait = std::min(wait, deadline - sim_.Now());

    sim_.Schedule(wait, [this, client, request_bytes, deadline,
                         handler = std::move(handler), done, settled,
                         attempt]() mutable {
        if (settled->settled) return;
        settled->settled = true;
        ++rpc_stats_.timeouts;
        const TimeNs backoff = kRpcBackoffBase << attempt;
        const bool budget_left = attempt < kRpcMaxRetries;
        const bool deadline_left =
            deadline == 0 || sim_.Now() + backoff < deadline;
        if (!budget_left || !deadline_left) {
            ++rpc_stats_.failures;
            if (*done) (*done)(RpcCode::kDeadlineExceeded);
            return;
        }
        ++rpc_stats_.retries;
        sim_.Schedule(backoff, [this, client, request_bytes, deadline,
                                handler = std::move(handler), done,
                                attempt]() mutable {
            // Retries carry no span: the first attempt owns the timeline
            // (its server side may still be running), and a settle's
            // Finish() makes any late milestone a no-op.
            AttemptTyped(client, request_bytes, deadline, std::move(handler),
                         std::move(done), attempt + 1, nullptr);
        });
    });
}

}  // namespace sdf::net
