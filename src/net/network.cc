#include "net/network.h"

#include <utility>

#include "obs/hub.h"
#include "util/assert.h"
#include "util/units.h"

namespace sdf::net {

namespace {

/** Response size for a transport-generated deadline nack. */
constexpr uint64_t kDropReplyBytes = 16;

}  // namespace

Network::Network(sim::Simulator &sim, const NetworkSpec &spec,
                 uint32_t clients)
    : sim_(sim), spec_(spec), server_nic_(sim), server_cpu_(sim)
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
    const TimeNs wire =
        util::TransferTimeNs(bytes, spec_.client_nic_bytes_per_sec);
    client_nics_[client]->Submit(wire, nullptr);
    const TimeNs arrival = sim_.Now() + wire + spec_.one_way_delay;
    sim_.ScheduleAt(arrival, [this, at_server = std::move(at_server)]() mutable {
        server_cpu_.Submit(Scaled(spec_.server_per_message),
                           std::move(at_server));
    });
}

void
Network::Push(uint32_t client, uint64_t bytes, sim::Callback delivered)
{
    SDF_CHECK(client < client_nics_.size());
    ++messages_;
    const auto worker_cost = Scaled(
        spec_.server_per_message +
        static_cast<TimeNs>(spec_.worker_per_byte_ns *
                            static_cast<double>(bytes)));
    workers_[client]->Submit(worker_cost, [this, client, bytes,
                                           delivered = std::move(
                                               delivered)]() mutable {
        bytes_to_clients_ += bytes;
        const TimeNs srv_wire =
            util::TransferTimeNs(bytes, spec_.server_nic_bytes_per_sec);
        const TimeNs srv_done = server_nic_.Submit(srv_wire, nullptr);
        const TimeNs cli_wire =
            util::TransferTimeNs(bytes, spec_.client_nic_bytes_per_sec);
        client_nics_[client]->SubmitAfter(srv_done + spec_.one_way_delay,
                                          cli_wire, std::move(delivered));
    });
}

void
Network::Bulk(uint32_t client, uint64_t bytes, sim::Callback at_server,
              std::shared_ptr<obs::IoSpan> span)
{
    SDF_CHECK(client < client_nics_.size());
    ++bulk_messages_;
    bulk_bytes_ += bytes;
    const TimeNs cli_wire =
        util::TransferTimeNs(bytes, spec_.client_nic_bytes_per_sec);
    client_nics_[client]->Submit(cli_wire, nullptr);
    const TimeNs arrival = sim_.Now() + cli_wire + spec_.one_way_delay;
    if (span) span->Enter(obs::Stage::kAdmission, arrival);
    sim_.ScheduleAt(arrival, [this, bytes, at_server = std::move(at_server),
                              span = std::move(span)]() mutable {
        const TimeNs srv_wire =
            util::TransferTimeNs(bytes, spec_.server_nic_bytes_per_sec);
        server_nic_.Submit(srv_wire, [this, at_server = std::move(at_server),
                                      span = std::move(span)]() mutable {
            server_cpu_.Submit(
                Scaled(spec_.server_per_message),
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
        util::TransferTimeNs(request_bytes, spec_.client_nic_bytes_per_sec);
    client_nics_[client]->Submit(req_wire, nullptr);
    const TimeNs at_server = sim_.Now() + req_wire + spec_.one_way_delay;
    // The arrival time is known now; the span clamps it monotonic.
    if (span) span->Enter(obs::Stage::kAdmission, at_server);

    sim_.ScheduleAt(at_server, [this, client, handler = std::move(handler),
                                boxed = std::move(boxed),
                                span = std::move(span)]() mutable {
        server_cpu_.Submit(Scaled(spec_.server_per_message),
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
                const auto payload_cpu = Scaled(
                    spec_.server_per_message +
                    static_cast<TimeNs>(spec_.worker_per_byte_ns *
                                        static_cast<double>(response_bytes)));
                workers_[client]->Submit(
                    payload_cpu,
                    [this, client, response_bytes,
                     boxed = std::move(boxed)]() mutable {
                        bytes_to_clients_ += response_bytes;
                        const TimeNs srv_wire = util::TransferTimeNs(
                            response_bytes, spec_.server_nic_bytes_per_sec);
                        const util::TimeNs srv_done = server_nic_.Submit(
                            srv_wire, nullptr);
                        const TimeNs cli_wire = util::TransferTimeNs(
                            response_bytes, spec_.client_nic_bytes_per_sec);
                        client_nics_[client]->SubmitAfter(
                            srv_done + spec_.one_way_delay, cli_wire,
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

    // Per-attempt timer: the usual RPC timeout, clipped to the deadline.
    TimeNs wait = spec_.rpc_timeout;
    if (deadline != 0) {
        const TimeNs remaining = deadline - sim_.Now();
        if (wait == 0 || remaining < wait) wait = remaining;
    }
    if (wait == 0) return;

    sim_.Schedule(wait, [this, client, request_bytes, deadline,
                         handler = std::move(handler), done, settled,
                         attempt]() mutable {
        if (settled->settled) return;
        settled->settled = true;
        ++rpc_stats_.timeouts;
        const TimeNs backoff = spec_.rpc_backoff_base << attempt;
        const bool budget_left = attempt < spec_.rpc_max_retries;
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
