/**
 * @file
 * The discrete-event simulation core.
 *
 * Every component in the SDF reproduction — flash planes, channel buses,
 * host links, LSM compaction, client actors — advances by scheduling
 * callbacks on a single Simulator. Simulated time is in nanoseconds and
 * totally ordered: events with equal timestamps fire in scheduling order,
 * which makes every run deterministic.
 *
 * The queue is a bucketed calendar queue. Near-future events land in
 * fixed-width time buckets (O(1) insert), the bucket being drained is
 * kept in a small binary heap, and far-future events wait in an overflow
 * heap until the window rotates over them. Event state lives in a pooled
 * slot array; EventIds carry a generation stamp so Cancel() and
 * PendingEvents() are O(1) with no hash table (DESIGN.md §14).
 *
 * The completion ring (Post()) is a FIFO of callbacks due at the current
 * timestamp, drained in sequence order interleaved with the timed queue.
 * A completion that needs no further delay rides the ring instead of
 * paying for a queue slot — the PureFlash-style polling seam the device,
 * network and client layers batch through.
 *
 * A completion nobody waits on is not an event: ScheduleAt() with a null
 * callback only raises the clock's horizon, which Run(), RunUntil() and
 * RunWhileNot() honour exactly as a timed no-op would have. A resource
 * that books many completions reserves each one's sequence when it is
 * booked (ReserveSeq()) and arms one event at a time with it
 * (ScheduleReserved()), so the fire order is the same as if every
 * completion held its own event (sim::JobQueue, DESIGN.md §14).
 */
#ifndef SDF_SIM_SIMULATOR_H
#define SDF_SIM_SIMULATOR_H

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/callback.h"
#include "util/units.h"

namespace sdf::obs {
class Hub;
}  // namespace sdf::obs

namespace sdf::sim {

using util::TimeNs;

/** Opaque handle for cancelling a scheduled event. */
using EventId = uint64_t;

/** Sentinel for "no event". */
inline constexpr EventId kInvalidEvent = 0;

/**
 * Single-threaded discrete-event simulator.
 *
 * Callbacks may schedule further events (including at the current time);
 * they must not block. Exceptions escaping a callback propagate out of
 * Run()/RunUntil().
 */
class Simulator
{
  public:
    Simulator() = default;
    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    /** Current simulated time. */
    TimeNs Now() const { return now_; }

    /** Schedule @p cb to run @p delay ns from now (delay >= 0). */
    EventId Schedule(TimeNs delay, Callback &&cb);

    /**
     * Schedule @p cb at absolute time @p when (when >= Now()). A null
     * @p cb schedules nothing and returns kInvalidEvent: it only raises
     * the clock's horizon to @p when (see Run()).
     */
    EventId ScheduleAt(TimeNs when, Callback &&cb);

    /**
     * Take the next insertion sequence now for an event that is armed
     * later with ScheduleReserved().
     */
    uint64_t ReserveSeq() { return next_seq_++; }

    /**
     * Schedule @p cb at @p when with sequence @p seq from ReserveSeq():
     * it fires exactly where an event scheduled at the reservation would
     * have. The caller arms it before the engine has passed (@p when,
     * @p seq). @p cb must not be null.
     */
    EventId ScheduleReserved(TimeNs when, uint64_t seq, Callback &&cb);

    /**
     * Completion ring: run @p cb at the current timestamp, after every
     * event already scheduled for this timestamp, in post order —
     * exactly the dispatch order of `Schedule(0, cb)`, without a queue
     * slot, a handle, or cancellation support. The batched-completion
     * seam: device completions, RPC settles and client sheds that need
     * no further simulated delay ride the ring and are drained once per
     * dispatch step.
     */
    void Post(Callback &&cb);

    /** Cancel a pending event; no-op if already fired or invalid. */
    void Cancel(EventId id);

    /**
     * Run until the event queue is empty, then advance the clock to the
     * horizon if it lies ahead.
     */
    void Run();

    /**
     * Run all events with timestamp <= @p deadline, then advance the clock
     * to @p deadline.
     * @return true if events remain pending after the deadline, or the
     *     horizon lies ahead of the clock.
     */
    bool RunUntil(TimeNs deadline);

    /**
     * Fire events one at a time until @p predicate() returns true or the
     * queue drains; a drained queue advances the clock to the horizon.
     * @return true if the predicate was satisfied.
     */
    bool RunWhileNot(const std::function<bool()> &predicate);

    /** Total events dispatched (for stats and microbenchmarks). */
    uint64_t events_processed() const { return events_processed_; }

    /**
     * Number of pending (uncancelled) events, including posted ones. Null
     * completions are not events, and a JobQueue counts one.
     */
    size_t
    PendingEvents() const
    {
        return live_count_ + (ring_.size() - ring_head_);
    }

    /**
     * Observability hub for this run, or null (the default). Components
     * hold a `Simulator &` already, so the hub rides on it: install it
     * *before* constructing the stack and every layer self-registers its
     * metrics. The simulator never reads the hub itself.
     */
    obs::Hub *hub() const { return hub_; }
    void set_hub(obs::Hub *hub) { hub_ = hub; }

  private:
    static constexpr uint32_t kNil = 0xFFFFFFFFu;

    /** log2 of the bucket width in ns (13 -> 8.192 us buckets). */
    static constexpr uint32_t kWidthLog2 = 13;
    /** Bucket count; power of two. Window = width * count (~67 ms) —
     *  delays beyond it take the overflow heap. The window is sized to
     *  swallow RPC-timeout-scale delays (50 ms): they are the dominant
     *  far-future events, and keeping them in the wheel makes rotations
     *  (and the overflow round trips of events scheduled near the
     *  window's end) rare. */
    static constexpr uint32_t kBucketCount = 8192;
    static_assert(kBucketCount >= 64 &&
                      (kBucketCount & (kBucketCount - 1)) == 0,
                  "bucket count must be a power of two, at least 64");
    static constexpr TimeNs kWindowSpan = TimeNs{kBucketCount} << kWidthLog2;

    /** Pooled event state; index + generation form the EventId. */
    struct Slot
    {
        TimeNs when = 0;
        uint64_t seq = 0;    ///< Global insertion order (FIFO tiebreak).
        uint32_t gen = 1;    ///< Bumped on free; stale ids never match.
        uint32_t next = kNil;  ///< Intrusive bucket-list link.
        bool armed = false;  ///< False once fired or cancelled.
        Callback cb;
    };

    /** Heap item for the near / overflow heaps (min by when, then seq). */
    struct HeapRef
    {
        TimeNs when;
        uint64_t seq;
        uint32_t slot;
    };
    struct RefLater
    {
        bool
        operator()(const HeapRef &a, const HeapRef &b) const
        {
            if (a.when != b.when) return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    struct Bucket
    {
        uint32_t head = kNil;
        uint32_t tail = kNil;
    };

    /** Completion-ring entry: due at its post-time (== now forever). */
    struct RingItem
    {
        uint64_t seq;
        Callback cb;
    };

    uint32_t AcquireSlot();
    void FreeSlot(uint32_t idx);
    EventId IdOf(uint32_t idx) const;
    /**
     * Fire the next item (ring or timed queue) due at or before
     * @p deadline. @return false when nothing is due.
     */
    bool FireNext(TimeNs deadline);
    /** Pop the timed-queue head (must exist) and fire it. */
    void FireTimedHead();
    void FireRingHead();

    void CalendarInsert(uint32_t slot_idx);
    /** Refill near_ so its top is the queue minimum; false when empty. */
    bool CalendarSettle();
    void RotateWindow();

    TimeNs now_ = 0;
    /** Latest null completion: the clock reaches it when the run drains. */
    TimeNs horizon_ = 0;
    uint64_t next_seq_ = 1;
    uint64_t events_processed_ = 0;
    size_t live_count_ = 0;
    obs::Hub *hub_ = nullptr;

    std::vector<Slot> slots_;
    std::vector<uint32_t> free_slots_;

    /** Completion ring: FIFO, drained by seq against the timed queue. */
    std::vector<RingItem> ring_;
    size_t ring_head_ = 0;

    // Calendar state.
    TimeNs window_start_ = 0;   ///< Aligned to the bucket width.
    uint32_t cur_bucket_ = 0;
    uint64_t wheel_count_ = 0;  ///< Events in bucket lists (not near_).
    std::vector<Bucket> buckets_ = std::vector<Bucket>(kBucketCount);
    /** One bit per bucket. */
    std::vector<uint64_t> occupied_ = std::vector<uint64_t>(kBucketCount / 64);
    std::vector<HeapRef> near_;        ///< Heap: current bucket's events.
    std::vector<HeapRef> overflow_;    ///< Heap: events past the window.
};

}  // namespace sdf::sim

#endif  // SDF_SIM_SIMULATOR_H
