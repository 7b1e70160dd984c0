/**
 * @file
 * Client/server network model for the production-workload experiments.
 *
 * The evaluation setup (Table 2) connects each client to the cluster switch
 * with one 10 GbE NIC and the storage server with two. We model each NIC as
 * a FIFO pipe and charge a fixed propagation/switching delay per message,
 * plus a per-message server CPU cost for request handling and payload
 * memory copies (which bounds small-batch throughput). The link, CPU and
 * RPC retry parameters are constants in network.cc.
 */
#ifndef SDF_NET_NETWORK_H
#define SDF_NET_NETWORK_H

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "obs/span.h"
#include "sim/callback.h"
#include "sim/fifo_resource.h"
#include "sim/pool.h"
#include "sim/simulator.h"

namespace sdf::obs {
class Hub;
}  // namespace sdf::obs

namespace sdf::net {

using util::TimeNs;

/** Client-side reliability counters for RpcTyped. */
struct RpcStats
{
    uint64_t timeouts = 0;        ///< Attempts abandoned at the deadline.
    uint64_t retries = 0;         ///< Re-issued attempts.
    uint64_t failures = 0;        ///< Requests failed after all retries.
    uint64_t late_responses = 0;  ///< Responses that raced a timeout.
    uint64_t overload_replies = 0;   ///< Typed kOverloaded responses seen.
    uint64_t deadline_drops = 0;     ///< Requests expired before dispatch.
};

/**
 * Typed outcome of an RPC. Distinguishes a server that shed the request
 * under overload (back off, don't retry — the work was never queued) from
 * a deadline that expired (the attempt may still complete server-side).
 */
enum class RpcCode : uint8_t
{
    kOk = 0,
    kOverloaded,        ///< Server refused at admission; retrying is fuel on the fire.
    kDeadlineExceeded,  ///< Deadline passed or the retry budget ran out.
};

/**
 * Request/response transport between N clients and one storage server.
 *
 * The server-side handler receives a reply function; invoking it with the
 * response payload size sends the response back to the client.
 */
class Network
{
  public:
    /** Handler: process a request, then call reply(response_bytes). */
    using Handler = std::function<void(std::function<void(uint64_t)> reply)>;

    /** Typed reply channel: response size plus a disposition code. */
    using TypedReply = std::function<void(uint64_t bytes, RpcCode code)>;
    /**
     * Typed handler: receives the request's absolute deadline (0 = none)
     * so the server can shed work it cannot finish in time, and a typed
     * reply channel for admission-control nacks.
     */
    using TypedHandler = std::function<void(TimeNs deadline, TypedReply reply)>;

    Network(sim::Simulator &sim, uint32_t clients);
    ~Network();

    Network(const Network &) = delete;
    Network &operator=(const Network &) = delete;

    /**
     * Send a request of @p request_bytes from @p client; the server runs
     * @p handler; @p delivered fires at the client when the full response
     * has arrived.
     *
     * When @p span is non-null the transport marks the request's
     * critical-path milestones on it: kAdmission when the request reaches
     * the server (closing the caller's kRpcWire segment), kServerHandle
     * when the dispatch CPU grants and the handler runs, and kRpcWire
     * again the moment the handler replies — so the server queue, the
     * handler, and the reply transfer each land in their own segment.
     */
    void Rpc(uint32_t client, uint64_t request_bytes, Handler handler,
             sim::Callback delivered,
             std::shared_ptr<obs::IoSpan> span = {});

    /**
     * Rpc with client-side fault tolerance and deadline propagation: each
     * attempt is abandoned after a 50 ms timeout and re-issued after an
     * exponentially growing backoff (1 ms << attempt), up to 3 retries.
     * The handler must be idempotent: an attempt that already reached the
     * server keeps running and its late response is discarded. The
     * absolute @p deadline (0 = none) rides with the request: the
     * transport drops it server-side once expired (counted in
     * deadline_drops), the handler sees it, and no retry is scheduled that
     * could not complete before it. Retries fire only on timeouts; a typed
     * kOverloaded reply settles immediately — a shed request must not be
     * hammered back into the queue it was shed from. @p done receives
     * kDeadlineExceeded when the retry budget or the deadline runs out.
     */
    void RpcTyped(uint32_t client, uint64_t request_bytes, TimeNs deadline,
                  TypedHandler handler, sim::Func<void(RpcCode)> done,
                  std::shared_ptr<obs::IoSpan> span = {});

    /**
     * Fail-slow injection knob: scales every server-side service time
     * (CPU dispatch and per-byte worker cost) by @p m. 1.0 = healthy.
     * Wire/NIC times are unaffected — a fail-slow node's links are fine,
     * its compute is not.
     */
    void
    SetServiceTimeMultiplier(double m)
    {
        service_mult_ = m < 0.0 ? 0.0 : m;
    }

    /**
     * One-way client -> server message; @p at_server fires when the
     * server has dispatched it. Used with Push() to model streamed
     * responses (sub-request results flow back as they complete instead
     * of as one giant message).
     */
    void ClientToServer(uint32_t client, uint64_t bytes,
                        sim::Callback at_server);

    /** One-way server -> client payload push through the connection's
     *  worker and both NICs; @p delivered fires at the client. */
    void Push(uint32_t client, uint64_t bytes, sim::Callback delivered);

    /**
     * Bulk transfer into the server (rebalance/anti-entropy streaming):
     * charges both NICs for the full payload and one CPU dispatch, but no
     * per-item worker cost — the receiver ingests the stream in batches.
     * @p at_server fires when the payload has fully arrived. A non-null
     * @p span gets kAdmission marked at wire arrival and kServerHandle
     * when the ingest dispatch runs.
     */
    void Bulk(uint32_t client, uint64_t bytes, sim::Callback at_server,
              std::shared_ptr<obs::IoSpan> span = {});

    uint64_t messages() const { return messages_; }
    uint64_t bytes_to_clients() const { return bytes_to_clients_; }
    uint64_t bulk_messages() const { return bulk_messages_; }
    uint64_t bulk_bytes() const { return bulk_bytes_; }
    const RpcStats &rpc_stats() const { return rpc_stats_; }

  private:
    /** Per-attempt settle record (the response/timeout race flag plus the
     *  server's typed disposition); pooled — one per RPC attempt. */
    struct Settle
    {
        bool settled = false;
        RpcCode code = RpcCode::kOk;
    };

    void AttemptTyped(uint32_t client, uint64_t request_bytes,
                      TimeNs deadline, TypedHandler handler,
                      std::shared_ptr<sim::Func<void(RpcCode)>> done,
                      uint32_t attempt, std::shared_ptr<obs::IoSpan> span);
    /** Server-side service time under the fail-slow multiplier. */
    TimeNs
    Scaled(TimeNs t) const
    {
        if (service_mult_ == 1.0) return t;
        return static_cast<TimeNs>(static_cast<double>(t) * service_mult_);
    }

    sim::Simulator &sim_;
    double service_mult_ = 1.0;
    /**
     * Hot-path allocation pools (declared before anything that can hold a
     * pooled pointer, so they are destroyed last). One pool per pooled
     * type: the RPC settle record, the delivered-callback box the reply
     * std::function shares, and the retry ladder's done-callback box.
     */
    sim::BlockPool settle_pool_;
    sim::BlockPool delivered_pool_;
    sim::BlockPool done_typed_pool_;
    std::vector<std::unique_ptr<sim::FifoResource>> client_nics_;
    /** One serving worker per client connection (slice thread). */
    std::vector<std::unique_ptr<sim::FifoResource>> workers_;
    sim::FifoResource server_nic_;
    sim::FifoResource server_cpu_;
    uint64_t messages_ = 0;
    uint64_t bytes_to_clients_ = 0;
    uint64_t bulk_messages_ = 0;
    uint64_t bulk_bytes_ = 0;
    RpcStats rpc_stats_;

    obs::Hub *hub_ = nullptr;       ///< Metrics registration (see obs/hub.h).
    std::string metric_prefix_;
};

}  // namespace sdf::net

#endif  // SDF_NET_NETWORK_H
