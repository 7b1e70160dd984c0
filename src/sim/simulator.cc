#include "sim/simulator.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "util/assert.h"

namespace sdf::sim {

namespace {

/** FireNext's deadline for Run() and RunWhileNot(): everything is due. */
constexpr TimeNs kNoDeadline = std::numeric_limits<TimeNs>::max();

}  // namespace

EventId
Simulator::Schedule(TimeNs delay, Callback &&cb)
{
    SDF_CHECK_MSG(delay >= 0, "negative event delay");
    return ScheduleAt(now_ + delay, std::move(cb));
}

EventId
Simulator::ScheduleAt(TimeNs when, Callback &&cb)
{
    SDF_CHECK_MSG(when >= now_, "scheduling into the past");
    if (!cb) {
        // Nobody waits on it: the run's end must still reach it.
        horizon_ = std::max(horizon_, when);
        return kInvalidEvent;
    }
    return ScheduleReserved(when, next_seq_++, std::move(cb));
}

EventId
Simulator::ScheduleReserved(TimeNs when, uint64_t seq, Callback &&cb)
{
    SDF_CHECK_MSG(when >= now_, "scheduling into the past");
    ++live_count_;
    const uint32_t idx = AcquireSlot();
    Slot &s = slots_[idx];
    s.when = when;
    s.seq = seq;
    s.next = kNil;
    s.armed = true;
    s.cb = std::move(cb);
    CalendarInsert(idx);
    return IdOf(idx);
}

void
Simulator::Post(Callback &&cb)
{
    ring_.push_back(RingItem{next_seq_++, std::move(cb)});
}

void
Simulator::Cancel(EventId id)
{
    // Ids are (slot+1, generation); a stale or foreign id fails one of the
    // checks below and cancels nothing. The slot stays in its bucket/heap
    // as a tombstone (discarded at pop), but the callback's resources are
    // released immediately.
    const uint64_t slot_part = id >> 32;
    if (slot_part == 0 || slot_part > slots_.size()) return;
    Slot &s = slots_[static_cast<uint32_t>(slot_part - 1)];
    if (s.gen != static_cast<uint32_t>(id) || !s.armed) return;
    s.armed = false;
    s.cb = nullptr;
    --live_count_;
}

uint32_t
Simulator::AcquireSlot()
{
    if (free_slots_.empty()) {
        slots_.emplace_back();
        return static_cast<uint32_t>(slots_.size() - 1);
    }
    const uint32_t idx = free_slots_.back();
    free_slots_.pop_back();
    return idx;
}

void
Simulator::FreeSlot(uint32_t idx)
{
    Slot &s = slots_[idx];
    ++s.gen;  // Stale EventIds for this slot stop matching.
    s.armed = false;
    s.next = kNil;
    free_slots_.push_back(idx);
}

EventId
Simulator::IdOf(uint32_t idx) const
{
    return (static_cast<uint64_t>(idx) + 1) << 32 | slots_[idx].gen;
}

void
Simulator::CalendarInsert(uint32_t slot_idx)
{
    const Slot &s = slots_[slot_idx];
    if (s.when >= window_start_ + kWindowSpan) {
        overflow_.push_back(HeapRef{s.when, s.seq, slot_idx});
        std::push_heap(overflow_.begin(), overflow_.end(), RefLater{});
        return;
    }
    // The window can sit ahead of the clock right after a rotation (the
    // earliest event then was far in the future); anything scheduled
    // before it joins the near heap, which tolerates any timestamp.
    const uint64_t bucket =
        s.when < window_start_
            ? 0
            : static_cast<uint64_t>(s.when - window_start_) >> kWidthLog2;
    if (bucket <= cur_bucket_) {
        near_.push_back(HeapRef{s.when, s.seq, slot_idx});
        std::push_heap(near_.begin(), near_.end(), RefLater{});
        return;
    }
    Bucket &b = buckets_[bucket];
    if (b.tail == kNil) {
        b.head = b.tail = slot_idx;
        occupied_[bucket >> 6] |= uint64_t{1} << (bucket & 63);
    } else {
        slots_[b.tail].next = slot_idx;
        b.tail = slot_idx;
    }
    ++wheel_count_;
}

bool
Simulator::CalendarSettle()
{
    for (;;) {
        // Tombstones (cancelled slots) are discarded here so the heap top
        // is always a live event — PendingEvents() never depends on them.
        while (!near_.empty() && !slots_[near_.front().slot].armed) {
            std::pop_heap(near_.begin(), near_.end(), RefLater{});
            FreeSlot(near_.back().slot);
            near_.pop_back();
        }
        if (!near_.empty()) return true;
        if (wheel_count_ > 0) {
            // Skip-scan the occupancy bitmap to the next loaded bucket,
            // then splice its whole list into the near heap at once.
            uint64_t b = cur_bucket_ + 1;
            uint64_t word_idx = b >> 6;
            uint64_t word = occupied_[word_idx] & (~uint64_t{0} << (b & 63));
            while (word == 0) {
                ++word_idx;
                SDF_CHECK_MSG(word_idx < occupied_.size(),
                              "calendar occupancy desynced");
                word = occupied_[word_idx];
            }
            b = (word_idx << 6) +
                static_cast<uint64_t>(__builtin_ctzll(word));
            cur_bucket_ = static_cast<uint32_t>(b);
            Bucket &bucket = buckets_[b];
            for (uint32_t idx = bucket.head; idx != kNil;) {
                const Slot &s = slots_[idx];
                near_.push_back(HeapRef{s.when, s.seq, idx});
                --wheel_count_;
                idx = s.next;
            }
            bucket.head = bucket.tail = kNil;
            occupied_[word_idx] &= ~(uint64_t{1} << (b & 63));
            std::make_heap(near_.begin(), near_.end(), RefLater{});
            continue;
        }
        if (!overflow_.empty()) {
            RotateWindow();
            continue;
        }
        return false;
    }
}

void
Simulator::RotateWindow()
{
    // The wheel is empty; restart it at the earliest far-future event and
    // migrate everything that now fits. Migration is a single O(n)
    // partition of the raw overflow vector — a rotation typically moves
    // a large fraction of the heap, so per-event pop_heap (k log n) loses
    // badly. Migration order is arbitrary; FIFO correctness never depends
    // on bucket-list order — the near heap's (when, seq) comparator is
    // the single source of ordering truth.
    const TimeNs width_mask = (TimeNs{1} << kWidthLog2) - 1;
    window_start_ = overflow_.front().when & ~width_mask;
    cur_bucket_ = 0;
    const TimeNs window_end = window_start_ + kWindowSpan;
    size_t keep = 0;
    for (const HeapRef ref : overflow_) {
        if (!slots_[ref.slot].armed) {
            FreeSlot(ref.slot);  // Tombstone: drop it during the sweep.
        } else if (ref.when < window_end) {
            CalendarInsert(ref.slot);
        } else {
            overflow_[keep++] = ref;
        }
    }
    overflow_.resize(keep);
    std::make_heap(overflow_.begin(), overflow_.end(), RefLater{});
}

void
Simulator::FireTimedHead()
{
    std::pop_heap(near_.begin(), near_.end(), RefLater{});
    const HeapRef ref = near_.back();
    near_.pop_back();
    Slot &s = slots_[ref.slot];
    now_ = ref.when;
    ++events_processed_;
    --live_count_;
    // Free the slot before invoking so the callback can recycle it; its
    // own EventId goes stale first, making self-cancel a harmless no-op.
    Callback cb = std::move(s.cb);
    FreeSlot(ref.slot);
    if (cb) cb();
}

void
Simulator::FireRingHead()
{
    RingItem item = std::move(ring_[ring_head_]);
    ++ring_head_;
    if (ring_head_ == ring_.size()) {
        ring_.clear();
        ring_head_ = 0;
    }
    ++events_processed_;
    if (item.cb) item.cb();
}

bool
Simulator::FireNext(TimeNs deadline)
{
    const bool timed_due = CalendarSettle() && near_.front().when <= deadline;
    const bool ring_due = ring_head_ < ring_.size() && now_ <= deadline;
    if (!ring_due && !timed_due) return false;
    // Ring items are due at the current time; a timed event goes first
    // only if it is also due now and was scheduled earlier (smaller
    // sequence).
    if (ring_due && (!timed_due || near_.front().when > now_ ||
                     near_.front().seq > ring_[ring_head_].seq)) {
        FireRingHead();
    } else {
        FireTimedHead();
    }
    return true;
}

void
Simulator::Run()
{
    while (FireNext(kNoDeadline)) {
    }
    now_ = std::max(now_, horizon_);
}

bool
Simulator::RunUntil(TimeNs deadline)
{
    while (FireNext(deadline)) {
    }
    if (deadline > now_) now_ = deadline;
    return PendingEvents() > 0 || horizon_ > now_;
}

bool
Simulator::RunWhileNot(const std::function<bool()> &predicate)
{
    while (!predicate()) {
        if (!FireNext(kNoDeadline)) {
            now_ = std::max(now_, horizon_);
            return false;
        }
    }
    return true;
}

}  // namespace sdf::sim
