/**
 * @file
 * Serially shared resources for the simulation.
 *
 * FifoResource models anything that serves one request at a time in FIFO
 * order — a NAND plane, a channel bus, a DMA engine. Submitters specify a
 * service duration; the resource tracks its own "free at" horizon, so
 * back-to-back submissions pipeline naturally without explicit queues.
 */
#ifndef SDF_SIM_FIFO_RESOURCE_H
#define SDF_SIM_FIFO_RESOURCE_H

#include <algorithm>
#include <cstdint>

#include "sim/simulator.h"

namespace sdf::sim {

/** A resource that serves submissions one at a time, FIFO. */
class FifoResource
{
  public:
    explicit FifoResource(Simulator &sim) : sim_(sim) {}

    FifoResource(const FifoResource &) = delete;
    FifoResource &operator=(const FifoResource &) = delete;

    /**
     * Occupy the resource for @p service_time starting as soon as all
     * previously submitted work has drained. @p done fires at completion.
     * @return the simulated completion time.
     */
    TimeNs
    Submit(TimeNs service_time, Callback done)
    {
        const TimeNs start = std::max(sim_.Now(), free_at_);
        const TimeNs end = start + service_time;
        busy_time_ += service_time;
        free_at_ = end;
        Complete(end, std::move(done));
        return end;
    }

    /**
     * Like Submit() but the work cannot start before @p earliest (used to
     * model data that only becomes available later, e.g. a flash read that
     * must finish before its bus transfer starts).
     */
    TimeNs
    SubmitAfter(TimeNs earliest, TimeNs service_time, Callback done)
    {
        const TimeNs end = Book(earliest, service_time);
        Complete(end, std::move(done));
        return end;
    }

    /**
     * Like SubmitAfter() but schedules nothing: the caller schedules the
     * completion itself (and can move it with Simulator::Reschedule).
     * @return the simulated completion time.
     */
    TimeNs
    Book(TimeNs earliest, TimeNs service_time)
    {
        const TimeNs start = std::max({sim_.Now(), free_at_, earliest});
        const TimeNs end = start + service_time;
        busy_time_ += service_time;
        free_at_ = end;
        return end;
    }

    /**
     * Slot @p service_time of work in ahead of (part of) the last booked
     * item, which now ends @p slip later. The slip can be shorter than the
     * service time when the work fills idle time ahead of the item.
     * Completions already scheduled do not move: the item's submitter
     * reschedules its own.
     */
    void
    Insert(TimeNs service_time, TimeNs slip)
    {
        busy_time_ += service_time;
        free_at_ += slip;
    }

    /** Time at which all queued work will have drained. */
    TimeNs free_at() const { return free_at_; }

    /** True if work is queued or in service. */
    bool Busy() const { return free_at_ > sim_.Now(); }

    /** Accumulated service time (for utilization accounting). */
    TimeNs busy_time() const { return busy_time_; }

    /** Utilization in [0, 1] over the interval [0, now]. */
    double
    Utilization(TimeNs now) const
    {
        if (now <= 0) return 0.0;
        return std::min(1.0, static_cast<double>(busy_time_) /
                                 static_cast<double>(now));
    }

  private:
    /**
     * Completion dispatch. The callback goes to the engine as-is — no
     * bookkeeping wrapper, so a Callback-in-Callback nesting (which can
     * never fit any inline buffer) is avoided and the common completion
     * stays allocation-free. Zero-cost work on an idle resource is done
     * *now* and rides the completion ring (no queue slot).
     */
    void
    Complete(TimeNs end, Callback done)
    {
        if (end == sim_.Now()) {
            if (done) sim_.Post(std::move(done));
            return;
        }
        // Null completions still take a timed marker event: Run() must
        // advance the clock past this resource's horizon (utilization and
        // duration accounting depend on it).
        sim_.ScheduleAt(end, std::move(done));
    }

    Simulator &sim_;
    TimeNs free_at_ = 0;
    TimeNs busy_time_ = 0;
};

}  // namespace sdf::sim

#endif  // SDF_SIM_FIFO_RESOURCE_H
