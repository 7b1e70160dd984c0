/**
 * @file
 * Serially shared resources for the simulation.
 *
 * FifoResource models anything that serves one request at a time in FIFO
 * order — a NAND plane, a DMA engine, a NIC. Submitters specify a service
 * duration; the resource tracks its own "free at" horizon, so
 * back-to-back submissions pipeline naturally without explicit queues.
 *
 * The completions it books wait in its JobQueue, not in the engine: each
 * takes its engine sequence when it is booked, and the queue holds one
 * engine event, for its head. A resource with a thousand booked pages
 * costs one pending event, and every completion still fires at the same
 * (time, sequence) as if it held its own. A completion nobody waits on
 * (a null callback) only raises the clock's horizon (Simulator).
 */
#ifndef SDF_SIM_FIFO_RESOURCE_H
#define SDF_SIM_FIFO_RESOURCE_H

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/simulator.h"
#include "util/assert.h"

namespace sdf::sim {

/**
 * The completions booked on one resource, in the order they fire:
 * (end, sequence). A job reserves its sequence when it is booked; the
 * queue arms one engine event at a time, for its head, with that
 * sequence, and arms the next head as the head fires. Jobs are booked
 * with non-decreasing ends, so the head is always the earliest.
 *
 * Like every component, a queue must not be destroyed while the
 * simulator still runs.
 */
class JobQueue
{
  public:
    explicit JobQueue(Simulator &sim) : sim_(sim) {}

    JobQueue(const JobQueue &) = delete;
    JobQueue &operator=(const JobQueue &) = delete;

    /**
     * Fire @p done at @p end (>= Now(), and no earlier than the last
     * queued job): queued behind the jobs booked before it, posted if
     * @p end is now, and only the clock's horizon if @p done is null.
     * @return its job number for Retime(), or 0 if it was not queued.
     */
    uint64_t
    Book(TimeNs end, Callback &&done)
    {
        if (!done || end == sim_.Now()) {
            if (done) {
                sim_.Post(std::move(done));
            } else {
                sim_.ScheduleAt(end, nullptr);
            }
            return 0;
        }
        SDF_CHECK_MSG(size_ == 0 || end >= At(last()).end,
                      "job booked ahead of the queue");
        if (size_ == jobs_.size()) Grow();
        Job &job = jobs_[(head_ + size_) & (jobs_.size() - 1)];
        job.end = end;
        job.seq = sim_.ReserveSeq();
        job.done = std::move(done);
        ++size_;
        if (size_ == 1) Arm();
        return last();
    }

    /**
     * Job @p job now ends at @p end, no earlier than before or than the
     * job ahead of it, and takes a fresh sequence, as if it were booked
     * now. Retime jobs in queue order, so the queue stays in (end,
     * sequence) order.
     */
    void
    Retime(uint64_t job, TimeNs end)
    {
        Job &j = At(job);
        SDF_CHECK_MSG(end >= j.end &&
                          (job == first_ || end >= At(job - 1).end),
                      "retimed job overtakes the queue");
        j.end = end;
        j.seq = sim_.ReserveSeq();
        if (job == first_) {
            sim_.Cancel(armed_);
            Arm();
        }
    }

    /** The last queued job's number, or 0 if none is queued. */
    uint64_t last() const { return size_ == 0 ? 0 : first_ + size_ - 1; }

    /** When queued job @p job fires. */
    TimeNs end(uint64_t job) const { return At(job).end; }

  private:
    struct Job
    {
        TimeNs end = 0;
        uint64_t seq = 0;
        Callback done;
    };

    /** Ring storage the queue drops once it drains past this size. */
    static constexpr size_t kKeepCapacity = 64;

    size_t
    Index(uint64_t job) const
    {
        SDF_CHECK_MSG(job >= first_ && job - first_ < size_, "no such job");
        return (head_ + (job - first_)) & (jobs_.size() - 1);
    }
    Job &At(uint64_t job) { return jobs_[Index(job)]; }
    const Job &At(uint64_t job) const { return jobs_[Index(job)]; }

    void
    Arm()
    {
        const Job &head = jobs_[head_];
        armed_ = sim_.ScheduleReserved(head.end, head.seq,
                                       [this]() { FireHead(); });
    }

    void
    FireHead()
    {
        Callback done = std::move(jobs_[head_].done);
        head_ = (head_ + 1) & (jobs_.size() - 1);
        --size_;
        ++first_;
        armed_ = kInvalidEvent;
        if (size_ > 0) {
            Arm();
        } else if (jobs_.size() > kKeepCapacity) {
            jobs_ = std::vector<Job>();  // A burst's storage goes with it.
            head_ = 0;
        }
        done();
    }

    /** Double the ring (a power of two), keeping the jobs in order. */
    void
    Grow()
    {
        std::vector<Job> bigger(std::max<size_t>(1, 2 * jobs_.size()));
        for (size_t i = 0; i < size_; ++i) {
            bigger[i] = std::move(jobs_[(head_ + i) & (jobs_.size() - 1)]);
        }
        jobs_ = std::move(bigger);
        head_ = 0;
    }

    Simulator &sim_;
    std::vector<Job> jobs_;  ///< Ring; the capacity is a power of two.
    size_t head_ = 0;        ///< Ring index of the head job.
    size_t size_ = 0;
    uint64_t first_ = 1;     ///< The head job's number.
    EventId armed_ = kInvalidEvent;  ///< The head's engine event.
};

/** A resource that serves submissions one at a time, FIFO. */
class FifoResource
{
  public:
    explicit FifoResource(Simulator &sim) : sim_(sim), jobs_(sim) {}

    FifoResource(const FifoResource &) = delete;
    FifoResource &operator=(const FifoResource &) = delete;

    /**
     * Occupy the resource for @p service_time starting as soon as all
     * previously submitted work has drained. @p done fires at completion.
     * @return the simulated completion time.
     */
    TimeNs
    Submit(TimeNs service_time, Callback &&done)
    {
        return SubmitAfter(sim_.Now(), service_time, std::move(done));
    }

    /**
     * Like Submit() but the work cannot start before @p earliest (used to
     * model data that only becomes available later, e.g. a flash read that
     * must finish before its bus transfer starts).
     */
    TimeNs
    SubmitAfter(TimeNs earliest, TimeNs service_time, Callback &&done)
    {
        const TimeNs start = std::max({sim_.Now(), free_at_, earliest});
        const TimeNs end = start + service_time;
        busy_time_ += service_time;
        free_at_ = end;
        jobs_.Book(end, std::move(done));
        return end;
    }

    /**
     * Slot @p service_time of work in ahead of (part of) the last booked
     * item, which now ends @p slip later. The slip can be shorter than the
     * service time when the work fills idle time ahead of the item.
     * Completions already booked do not move: the item's submitter waits
     * again for its own.
     */
    void
    Insert(TimeNs service_time, TimeNs slip)
    {
        busy_time_ += service_time;
        free_at_ += slip;
    }

    /**
     * The last booked item, which has a completion, starts @p slip later:
     * it and free_at() end @p slip later, and its completion takes a
     * fresh sequence, as if it were booked now.
     */
    void
    DelayLast(TimeNs slip)
    {
        const uint64_t job = jobs_.last();
        SDF_CHECK_MSG(job != 0 && jobs_.end(job) == free_at_,
                      "the last booked item has no queued completion");
        free_at_ += slip;
        jobs_.Retime(job, free_at_);
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
    Simulator &sim_;
    JobQueue jobs_;
    TimeNs free_at_ = 0;
    TimeNs busy_time_ = 0;
};

}  // namespace sdf::sim

#endif  // SDF_SIM_FIFO_RESOURCE_H
