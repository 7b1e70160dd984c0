/**
 * @file
 * Host I/O stack models.
 *
 * The paper (§2.4, §4.3) measures the Linux kernel I/O path at ~9100 CPU
 * cycles to issue and ~21900 cycles to complete a request — about 12.9 µs
 * on the 2.4 GHz E5620 — while SDF's user-space IOCTRL path costs only
 * 2–4 µs. This module charges those costs against a pool of host CPUs so
 * that IOPS-heavy workloads see both the latency and the CPU saturation.
 */
#ifndef SDF_HOST_IO_STACK_H
#define SDF_HOST_IO_STACK_H

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "obs/span.h"
#include "sim/fifo_resource.h"
#include "sim/simulator.h"

namespace sdf::host {

using util::TimeNs;

/** Per-request CPU costs of one software stack. */
struct IoStackSpec
{
    std::string name;
    TimeNs issue_cost = 0;       ///< Before the device sees the request.
    TimeNs completion_cost = 0;  ///< Interrupt/completion processing.
};

/** Linux VFS + block + SCSI/SATA path (Figure 6a): ~12.9 µs per request. */
IoStackSpec KernelIoStackSpec();

/** SDF's user-space IOCTRL + thin PCIe driver (Figure 6b): ~2-4 µs. */
IoStackSpec SdfUserStackSpec();

/** Zero-cost stack for experiments isolating the device. */
IoStackSpec NullIoStackSpec();

/**
 * Charges stack CPU costs around asynchronous device operations.
 *
 * An operation is a callable that takes a completion; Issue() charges the
 * issue cost on a host CPU, invokes the operation, and charges the
 * completion cost before delivering the final callback. The stack owns
 * each request from Issue() to its final callback, so its closures and
 * the completion an operation holds are a pointer or two: no request
 * allocates once the stack has served as many at once before.
 */
class IoStack
{
    struct Request;

  public:
    /** @param cpu_count Host hardware threads (2x E5620 = 16 in Table 2). */
    IoStack(sim::Simulator &sim, const IoStackSpec &spec,
            uint32_t cpu_count = 16);

    IoStack(const IoStack &) = delete;
    IoStack &operator=(const IoStack &) = delete;

    /**
     * What an operation calls, once, when the device is done. Two words
     * and trivially copyable, so a device callback that captures it stays
     * inline even in a std::function; it also converts to sim::Callback.
     */
    class Completion
    {
      public:
        void operator()() const { stack_->Complete(request_); }

      private:
        friend class IoStack;
        Completion(IoStack *stack, Request *request)
            : stack_(stack), request_(request) {}

        IoStack *stack_;
        Request *request_;
    };

    /** Operation: called with the completion it must invoke when done. */
    using Operation = sim::Func<void(Completion done)>;

    /**
     * Run @p op through the stack; @p done fires after completion cost.
     * @p span, when non-null, gets the host-side cuts: everything before
     * the CPU hands the request to @p op is host_issue, everything between
     * the device's completion and @p done is host_complete.
     */
    void Issue(Operation op, sim::Callback done, obs::IoSpan *span = nullptr);

    /** Total CPU time consumed by stack processing. */
    TimeNs cpu_time() const { return cpu_time_; }
    uint64_t requests() const { return requests_; }
    const IoStackSpec &spec() const { return spec_; }

  private:
    /** One request from Issue() to its final callback. */
    struct Request
    {
        Operation op;
        sim::Callback done;
        obs::IoSpan *span = nullptr;
    };

    sim::FifoResource &PickCpu();
    /** The device finished @p r: charge the completion cost. */
    void Complete(Request *r);
    void Release(Request *r);

    sim::Simulator &sim_;
    IoStackSpec spec_;
    std::vector<std::unique_ptr<sim::FifoResource>> cpus_;
    TimeNs cpu_time_ = 0;
    uint64_t requests_ = 0;
    std::deque<Request> pool_;     ///< Every request made; never moves.
    std::vector<Request *> free_;  ///< Pool entries not in flight.
};

/**
 * A closed-loop "thread": issues one operation, waits for completion, and
 * immediately issues the next — the synchronous client model used
 * throughout the paper's evaluation.
 */
class ClosedLoopActor
{
  public:
    /**
     * What a body calls, once, when its iteration is done. One word and
     * trivially copyable, so a completion that captures it stays inline;
     * it also converts to sim::Callback.
     */
    class Done
    {
      public:
        void operator()() const { actor_->Finished(); }

      private:
        friend class ClosedLoopActor;
        explicit Done(ClosedLoopActor *actor) : actor_(actor) {}

        ClosedLoopActor *actor_;
    };

    /** Body: one iteration; must invoke @p done when complete. */
    using Body = std::function<void(Done done)>;

    ClosedLoopActor(sim::Simulator &sim, Body body)
        : sim_(sim), body_(std::move(body)) {}

    /** Begin iterating. */
    void
    Start()
    {
        running_ = true;
        sim_.Post([this]() { Iterate(); });
    }

    /** Stop after the in-flight iteration completes. */
    void Stop() { running_ = false; }

    bool running() const { return running_; }
    uint64_t completed() const { return completed_; }

  private:
    void
    Iterate()
    {
        if (running_) body_(Done(this));
    }

    void
    Finished()
    {
        ++completed_;
        Iterate();
    }

    sim::Simulator &sim_;
    Body body_;
    bool running_ = false;
    uint64_t completed_ = 0;
};
static_assert(std::is_trivially_copyable_v<ClosedLoopActor::Done>);

}  // namespace sdf::host

#endif  // SDF_HOST_IO_STACK_H
