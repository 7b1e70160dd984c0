/**
 * @file
 * Oracle and fast-path tests for the event core.
 *
 * Same-seed exports are byte-identical because events fire by (time,
 * insertion sequence) and a post fires like Schedule(0) (DESIGN.md §14).
 * RefQueue below is that contract written as plainly as possible: the
 * seed engine's binary heap plus a live-id set, with a null completion
 * raising the clock's horizon instead of taking an event. RefResource
 * and RefJobs give every booked job its own event: the order a JobQueue
 * must reproduce with one. The EngineCross tests drive the Simulator and
 * RefQueue through identical schedules and compare them event for event.
 * The CalendarQueue tests cover the calendar's edge geometry (bucket
 * boundaries, window rotation, cancel storms), and the rest the move-only
 * Callback and BlockPool primitives the fast path rides on.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <memory>
#include <random>
#include <type_traits>
#include <unordered_set>
#include <utility>
#include <vector>

#include "sim/callback.h"
#include "sim/fifo_resource.h"
#include "sim/pool.h"
#include "sim/simulator.h"

namespace sdf::sim {
namespace {

/**
 * The ordering contract as a reference queue: a binary heap on (time,
 * seq) and a live-id set that backs Cancel(). Post() is Schedule(0),
 * which is the order the Simulator documents for its ring. A null
 * callback is no event: it only raises the horizon that a drained run
 * advances the clock to.
 */
class RefQueue
{
  public:
    TimeNs Now() const { return now_; }
    uint64_t events_processed() const { return events_processed_; }
    size_t PendingEvents() const { return live_.size(); }

    EventId
    Schedule(TimeNs delay, Callback &&cb)
    {
        return ScheduleAt(now_ + delay, std::move(cb));
    }

    EventId
    ScheduleAt(TimeNs when, Callback &&cb)
    {
        if (!cb) {
            horizon_ = std::max(horizon_, when);
            return kInvalidEvent;
        }
        const EventId id = next_seq_++;
        heap_.push_back(Entry{when, id, std::move(cb)});
        std::push_heap(heap_.begin(), heap_.end(), Later{});
        live_.insert(id);
        return id;
    }

    void Post(Callback &&cb) { Schedule(0, std::move(cb)); }

    /** Idempotent; the entry itself is dropped when it reaches the top. */
    void Cancel(EventId id) { live_.erase(id); }

    /**
     * Move pending event @p id to @p when: Cancel() plus ScheduleAt() of
     * its callback, so it fires after the events already due then.
     */
    EventId
    Reschedule(EventId id, TimeNs when)
    {
        for (Entry &e : heap_) {
            if (e.seq == id && live_.count(id) != 0) {
                Callback cb = std::move(e.cb);
                Cancel(id);
                return ScheduleAt(when, std::move(cb));
            }
        }
        return kInvalidEvent;
    }

    void
    Run()
    {
        while (FireNext(std::numeric_limits<TimeNs>::max())) {
        }
        now_ = std::max(now_, horizon_);
    }

    bool
    RunUntil(TimeNs deadline)
    {
        while (FireNext(deadline)) {
        }
        if (deadline > now_) now_ = deadline;
        return !live_.empty() || horizon_ > now_;
    }

    template <typename Predicate>
    bool
    RunWhileNot(const Predicate &predicate)
    {
        while (!predicate()) {
            if (!FireNext(std::numeric_limits<TimeNs>::max())) {
                now_ = std::max(now_, horizon_);
                return false;
            }
        }
        return true;
    }

  private:
    struct Entry
    {
        TimeNs when;
        uint64_t seq;  ///< Doubles as the EventId.
        Callback cb;
    };
    struct Later
    {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            if (a.when != b.when) return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    bool
    FireNext(TimeNs deadline)
    {
        while (!heap_.empty() && live_.count(heap_.front().seq) == 0) {
            std::pop_heap(heap_.begin(), heap_.end(), Later{});
            heap_.pop_back();
        }
        if (heap_.empty() || heap_.front().when > deadline) return false;
        std::pop_heap(heap_.begin(), heap_.end(), Later{});
        Entry e = std::move(heap_.back());
        heap_.pop_back();
        live_.erase(e.seq);
        now_ = e.when;
        ++events_processed_;
        if (e.cb) e.cb();
        return true;
    }

    TimeNs now_ = 0;
    TimeNs horizon_ = 0;
    uint64_t next_seq_ = 1;
    uint64_t events_processed_ = 0;
    std::vector<Entry> heap_;
    std::unordered_set<uint64_t> live_;
};

/**
 * JobQueue's contract on the reference queue: every job holds its own
 * event from its booking on, and a retimed job is rescheduled.
 */
class RefJobs
{
  public:
    explicit RefJobs(RefQueue &q) : q_(q) {}

    uint64_t
    Book(TimeNs end, Callback &&done)
    {
        if (!done || end == q_.Now()) {
            q_.ScheduleAt(end, std::move(done));
            return 0;
        }
        ids_.push_back(q_.ScheduleAt(end, std::move(done)));
        return ids_.size();
    }

    void
    Retime(uint64_t job, TimeNs end)
    {
        ids_[job - 1] = q_.Reschedule(ids_[job - 1], end);
    }

  private:
    RefQueue &q_;
    std::vector<EventId> ids_;  ///< Per job number - 1.
};

/** FifoResource's contract on the reference queue, one event per job. */
class RefResource
{
  public:
    explicit RefResource(RefQueue &q) : q_(q), jobs_(q) {}

    TimeNs
    Submit(TimeNs service_time, Callback &&done)
    {
        return SubmitAfter(q_.Now(), service_time, std::move(done));
    }

    TimeNs
    SubmitAfter(TimeNs earliest, TimeNs service_time, Callback &&done)
    {
        free_at_ = std::max({q_.Now(), free_at_, earliest}) + service_time;
        const uint64_t job = jobs_.Book(free_at_, std::move(done));
        if (job != 0) last_ = job;
        return free_at_;
    }

    void
    DelayLast(TimeNs slip)
    {
        free_at_ += slip;
        jobs_.Retime(last_, free_at_);
    }

  private:
    RefQueue &q_;
    RefJobs jobs_;
    TimeNs free_at_ = 0;
    uint64_t last_ = 0;
};

/** The resource types each queue runs the cross tests with. */
template <typename Queue>
struct ResourcesOf
{
    using Resource = FifoResource;
    using Jobs = JobQueue;
};
template <>
struct ResourcesOf<RefQueue>
{
    using Resource = RefResource;
    using Jobs = RefJobs;
};

/** One queue's observable history, as the EngineCross tests compare it. */
struct Trace
{
    std::vector<int> order;      ///< Tags in fire order.
    std::vector<TimeNs> times;   ///< Now() at each fire.
    std::vector<int64_t> stops;  ///< Whatever a test records between runs.
    uint64_t events = 0;         ///< events_processed() at the end.
    size_t pending = 0;          ///< PendingEvents() at the end.

    template <typename Queue>
    void
    Fire(const Queue &q, int tag)
    {
        order.push_back(tag);
        times.push_back(q.Now());
    }

    /** A callback that records @p tag when it fires. */
    template <typename Queue>
    auto
    Tag(const Queue &q, int tag)
    {
        return [this, &q, tag]() { Fire(q, tag); };
    }
};

/**
 * Run @p body(queue, trace) on a Simulator and on a RefQueue. Both must
 * fire the same tags at the same times, record the same stops, and end
 * with the same events_processed() and PendingEvents().
 * @return the Simulator's trace.
 */
template <typename Body>
Trace
ExpectMatchesReference(const Body &body)
{
    auto run = [&body](auto &q) {
        Trace t;
        body(q, t);
        t.events = q.events_processed();
        t.pending = q.PendingEvents();
        return t;
    };
    Simulator sim;
    RefQueue ref;
    const Trace got = run(sim);
    const Trace want = run(ref);
    EXPECT_EQ(got.order, want.order);
    EXPECT_EQ(got.times, want.times);
    EXPECT_EQ(got.stops, want.stops);
    EXPECT_EQ(got.events, want.events);
    EXPECT_EQ(got.pending, want.pending);
    return got;
}

TEST(EngineCross, RandomizedScheduleMatchesReferenceHeap)
{
    // 10k mixed schedules — immediate, near (within one bucket), mid
    // (across buckets), far (overflow heap) — driven identically into
    // both queues; the fire order must match event for event.
    std::mt19937_64 rng(0xC0FFEEu);
    struct Op
    {
        TimeNs delay;
        int tag;
    };
    std::vector<Op> ops;
    ops.reserve(10000);
    for (int i = 0; i < 10000; ++i) {
        const int kind = static_cast<int>(rng() % 4);
        TimeNs d = 0;
        if (kind == 1) d = static_cast<TimeNs>(rng() % 8000);        // bucket
        if (kind == 2) d = static_cast<TimeNs>(rng() % 2000000);     // wheel
        if (kind == 3) d = static_cast<TimeNs>(rng() % 400000000);   // far
        ops.push_back(Op{d, i});
    }

    ExpectMatchesReference([&ops](auto &q, Trace &t) {
        // Feed in waves from inside the run so the clock moves between
        // insertions (exercises rotation with a non-zero now).
        const size_t wave = 500;
        for (size_t base = 0; base < ops.size(); base += wave) {
            q.Schedule(static_cast<TimeNs>(base) * 1000,
                       [&q, &t, &ops, base, wave]() {
                           const size_t end =
                               std::min(base + wave, ops.size());
                           for (size_t i = base; i < end; ++i) {
                               q.Schedule(ops[i].delay, t.Tag(q, ops[i].tag));
                           }
                       });
        }
        q.Run();
    });
}

TEST(EngineCross, CancelStormMatchesReferenceHeap)
{
    // Schedule/cancel churn: every third event is cancelled, some twice,
    // some after adjacent events already fired. Both queues must agree
    // on the survivors and their order.
    ExpectMatchesReference([](auto &q, Trace &t) {
        std::vector<EventId> ids;
        std::mt19937_64 rng(7);
        for (int i = 0; i < 3000; ++i) {
            const TimeNs d = static_cast<TimeNs>(rng() % 500000);
            ids.push_back(q.Schedule(d, t.Tag(q, i)));
        }
        for (size_t i = 0; i < ids.size(); i += 3) q.Cancel(ids[i]);
        for (size_t i = 0; i < ids.size(); i += 7) q.Cancel(ids[i]);
        q.Run();
        // Cancelling after the queue drained must be a harmless no-op.
        for (EventId id : ids) q.Cancel(id);
    });
}

TEST(EngineCross, PostInterleavesExactlyLikeZeroDelaySchedule)
{
    // A Post() and a Schedule(0, ...) issued in some interleaving must
    // dispatch in issue order.
    const Trace got = ExpectMatchesReference([](auto &q, Trace &t) {
        q.Schedule(10, [&q, &t]() {
            q.Post(t.Tag(q, 0));
            q.Schedule(0, t.Tag(q, 1));
            q.Post(t.Tag(q, 2));
            q.Schedule(0, t.Tag(q, 3));
        });
        q.Run();
    });
    EXPECT_EQ(got.order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EngineCross, NestedPostsInterleaveLikeZeroDelaySchedules)
{
    // A post made from inside a post queues behind every zero-delay event
    // issued before it, and an event 1 ns later waits for all of them.
    const Trace got = ExpectMatchesReference([](auto &q, Trace &t) {
        q.Schedule(10, [&q, &t]() {
            q.Schedule(1, t.Tag(q, 6));
            q.Post([&q, &t]() {
                t.Fire(q, 0);
                q.Post(t.Tag(q, 4));
                q.Schedule(0, t.Tag(q, 5));
            });
            q.Schedule(0, t.Tag(q, 1));
            q.Post(t.Tag(q, 2));
            q.Schedule(0, t.Tag(q, 3));
        });
        q.Run();
    });
    EXPECT_EQ(got.order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6}));
    EXPECT_EQ(got.times, (std::vector<TimeNs>{10, 10, 10, 10, 10, 10, 11}));
}

/**
 * A self-rescheduling actor. Each firing cancels and re-arms its hedge
 * timer, posts a completion, and schedules its own next firing: 1 in 16
 * past the 67 ms window, the rest over the current bucket and the wheel.
 */
template <typename Queue>
struct HedgeActor
{
    Queue *q;
    Trace *t;
    std::mt19937_64 *rng;
    int *budget;
    EventId *timer;
    int id;

    void
    operator()() const
    {
        t->Fire(*q, 3 * id);
        if (*budget == 0) return;
        --*budget;
        q->Cancel(*timer);
        *timer = q->Schedule(static_cast<TimeNs>(500000 + (*rng)() % 1000000),
                             t->Tag(*q, 3 * id + 1));
        q->Post(t->Tag(*q, 3 * id + 2));
        const TimeNs next =
            (*rng)() % 16 == 0
                ? static_cast<TimeNs>(100000000 + (*rng)() % 100000000)
                : static_cast<TimeNs>((*rng)() % 2000000);
        q->Schedule(next, *this);
    }
};

TEST(EngineCross, SelfReschedulingActorsMatchReference)
{
    // The load most runs put on the queue: 256 actors, 20k firings, a
    // hedge timer cancelled and re-armed on each, and a posted completion.
    ExpectMatchesReference([](auto &q, Trace &t) {
        using Queue = std::remove_reference_t<decltype(q)>;
        std::mt19937_64 rng(42);
        int budget = 20000;
        std::vector<EventId> timers(256, kInvalidEvent);
        for (int i = 0; i < 256; ++i) {
            HedgeActor<Queue>{&q, &t, &rng, &budget, &timers[i], i}();
        }
        q.Run();
    });
}

TEST(EngineCross, RunUntilStepsMatchReference)
{
    // Step the deadline through a 300 ms schedule in 10 ms steps. An event
    // due at the 70 ms deadline posts a completion, which is due then too;
    // each stop schedules more work (now, as a post, within the window
    // and past it). The clock, PendingEvents() and RunUntil's result must
    // match at every stop.
    ExpectMatchesReference([](auto &q, Trace &t) {
        std::mt19937_64 rng(11);
        for (int i = 0; i < 3000; ++i) {
            q.Schedule(static_cast<TimeNs>(rng() % 300000000), t.Tag(q, i));
        }
        q.Schedule(util::MsToNs(70), [&q, &t]() {
            t.Fire(q, -1);
            q.Post(t.Tag(q, -2));
        });
        int tag = 10000;
        for (TimeNs deadline = 0; deadline <= util::MsToNs(300);
             deadline += util::MsToNs(10)) {
            t.stops.push_back(q.RunUntil(deadline));
            t.stops.push_back(q.Now());
            t.stops.push_back(static_cast<int64_t>(q.PendingEvents()));
            q.Schedule(0, t.Tag(q, tag++));
            q.Post(t.Tag(q, tag++));
            q.Schedule(static_cast<TimeNs>(rng() % 20000000), t.Tag(q, tag++));
            q.Schedule(static_cast<TimeNs>(80000000 + rng() % 100000000),
                       t.Tag(q, tag++));
        }
        q.Run();
    });
}

TEST(EngineCross, NullCompletionsMatchReference)
{
    // A third of the schedule is null completions, some past the 67 ms
    // window: neither queue dispatches them, and both reach the same
    // clock at every RunUntil() stop, after Run() and after a drained
    // RunWhileNot().
    ExpectMatchesReference([](auto &q, Trace &t) {
        std::mt19937_64 rng(23);
        for (int i = 0; i < 3000; ++i) {
            const auto when = static_cast<TimeNs>(rng() % 200000000);
            if (rng() % 3 == 0) {
                q.ScheduleAt(when, nullptr);
            } else {
                q.ScheduleAt(when, t.Tag(q, i));
            }
        }
        for (TimeNs deadline = 0; deadline <= util::MsToNs(260);
             deadline += util::MsToNs(20)) {
            t.stops.push_back(q.RunUntil(deadline));
            t.stops.push_back(q.Now());
            t.stops.push_back(static_cast<int64_t>(q.PendingEvents()));
        }
        q.ScheduleAt(q.Now() + util::MsToNs(90), nullptr);
        q.Run();
        t.stops.push_back(q.Now());
        q.Schedule(10, t.Tag(q, -1));
        q.Schedule(util::MsToNs(1), nullptr);
        t.stops.push_back(q.RunWhileNot([]() { return false; }));
        t.stops.push_back(q.Now());
    });
}

TEST(EngineCross, QueuedJobKeepsItsBookingSequence)
{
    // A job booked behind another fires at its end ahead of an event
    // scheduled for that time after the booking: it keeps the sequence it
    // took when booked, not one taken as it reaches the head. A post from
    // the first job's completion fires after it, at the same time.
    const Trace got = ExpectMatchesReference([](auto &q, Trace &t) {
        using Queue = std::remove_reference_t<decltype(q)>;
        typename ResourcesOf<Queue>::Resource res(q);
        res.Submit(10, [&q, &t]() {
            t.Fire(q, 0);
            q.Post(t.Tag(q, 1));
        });
        res.Submit(10, t.Tag(q, 2));
        q.ScheduleAt(20, t.Tag(q, 3));
        q.Run();
    });
    EXPECT_EQ(got.order, (std::vector<int>{0, 1, 2, 3}));
    EXPECT_EQ(got.times, (std::vector<TimeNs>{10, 10, 20, 20}));
}

TEST(EngineCross, ResourceJobsMatchOneEventPerJob)
{
    // Eight resources under 6,000 bookings made from inside the run, on a
    // coarse clock so that completions, plain events and ring posts often
    // share a timestamp. A quarter of the jobs are null completions, some
    // take no time (posted when the resource is idle, queued behind its
    // work when it is not), some cannot start before a later time, and
    // some push their whole booking back (DelayLast). A completion books
    // more work. Both queues must agree event for event.
    ExpectMatchesReference([](auto &q, Trace &t) {
        using Queue = std::remove_reference_t<decltype(q)>;
        using Resource = typename ResourcesOf<Queue>::Resource;
        std::vector<std::unique_ptr<Resource>> res;
        for (int i = 0; i < 8; ++i) {
            res.push_back(std::make_unique<Resource>(q));
        }
        std::mt19937_64 rng(31);
        int budget = 6000;
        int tag = 0;
        std::function<void()> book = [&]() {
            if (budget == 0) return;
            --budget;
            Resource &r = *res[rng() % res.size()];
            const auto service = static_cast<TimeNs>(rng() % 4 * 1000);
            const auto earliest =
                q.Now() + static_cast<TimeNs>(rng() % 3 * 1000);
            const int kind = static_cast<int>(rng() % 8);
            const int my_tag = tag++;
            Callback done = nullptr;
            if (kind >= 2) {
                done = [&t, &q, &book, my_tag, kind]() {
                    t.Fire(q, my_tag);
                    if (kind == 7) q.Post(t.Tag(q, -my_tag));
                    if (kind >= 5) book();
                };
            }
            const TimeNs end = rng() % 2 == 0
                                   ? r.Submit(service, std::move(done))
                                   : r.SubmitAfter(earliest, service,
                                                   std::move(done));
            if (kind >= 2 && end > q.Now() && rng() % 10 == 0) {
                r.DelayLast(static_cast<TimeNs>(rng() % 3 * 1000));
            }
            if (rng() % 4 == 0) {
                q.Schedule(static_cast<TimeNs>(rng() % 4 * 1000),
                           t.Tag(q, 100000 + my_tag));
            }
        };
        for (int i = 0; i < 64; ++i) {
            q.Schedule(static_cast<TimeNs>(i % 8 * 1000), [&book]() {
                for (int k = 0; k < 4; ++k) book();
            });
        }
        q.Run();
        while (budget > 0) {
            book();
            q.Run();
        }
        t.stops.push_back(q.Now());
    });
}

TEST(EngineCross, PushedBackJobsMatchReschedule)
{
    // A queue of 200 jobs on a coarse clock. Every few completions the
    // jobs not yet fired from some point on are pushed back in queue
    // order, as an on-demand read pushes the bus's background transfers,
    // the head among them at times; plain events and posts land on the
    // same timestamps. A pushed job takes a fresh sequence.
    ExpectMatchesReference([](auto &q, Trace &t) {
        using Queue = std::remove_reference_t<decltype(q)>;
        typename ResourcesOf<Queue>::Jobs jobs(q);
        std::mt19937_64 rng(47);
        std::vector<uint64_t> numbers;
        std::vector<TimeNs> ends;
        size_t fired = 0;
        TimeNs end = 0;
        for (int i = 0; i < 200; ++i) {
            end += static_cast<TimeNs>(rng() % 3 * 1000);
            if (end == 0) end = 1000;
            ends.push_back(end);
            numbers.push_back(jobs.Book(end, [&, i]() {
                t.Fire(q, i);
                ++fired;
                if (rng() % 2 == 0) q.Post(t.Tag(q, 1000 + i));
                if (rng() % 3 != 0 || fired == numbers.size()) return;
                // Push back the unfired jobs from a random one on.
                const size_t from = fired + rng() % (numbers.size() - fired);
                const auto slip = static_cast<TimeNs>(1 + rng() % 2) * 1000;
                for (size_t j = from; j < numbers.size(); ++j) {
                    ends[j] += slip;
                    jobs.Retime(numbers[j], ends[j]);
                }
                q.ScheduleAt(ends[from], t.Tag(q, 2000 + i));
            }));
            if (i % 7 == 0) q.ScheduleAt(end, t.Tag(q, 3000 + i));
        }
        q.Run();
    });
}

TEST(CalendarQueue, EqualTimestampFifoAcrossBucketBoundaries)
{
    // Events scheduled for the same instant from different "homes" —
    // current bucket, a future bucket, the overflow heap (via window
    // rotation) — still fire in scheduling order.
    Simulator sim;
    std::vector<int> order;
    const TimeNs t = util::SecToNs(1);  // Far outside the ~67 ms window.
    for (int i = 0; i < 64; ++i) {
        sim.ScheduleAt(t, [&order, i]() { order.push_back(i); });
    }
    // Same timestamp, scheduled later, after the clock has moved: still
    // fires after the first 64.
    sim.Schedule(1, [&sim, &order, t]() {
        sim.ScheduleAt(t, [&order]() { order.push_back(64); });
    });
    sim.Run();
    ASSERT_EQ(order.size(), 65u);
    for (int i = 0; i < 65; ++i) EXPECT_EQ(order[i], i);
}

TEST(CalendarQueue, FarFutureOverflowMigration)
{
    // Far-future events park in the overflow heap, then migrate into the
    // wheel when the window rotates; ordering and timestamps must hold
    // across several rotations.
    Simulator sim;
    std::vector<TimeNs> fire_times;
    // Spread over ~100 windows of 65,536 x 1,024 ns, inserted in a
    // scrambled order.
    std::vector<TimeNs> whens;
    for (int i = 0; i < 200; ++i)
        whens.push_back(static_cast<TimeNs>((i * 7919) % 100000) * 65536);
    for (TimeNs w : whens) {
        sim.ScheduleAt(w, [&fire_times, &sim]() {
            fire_times.push_back(sim.Now());
        });
    }
    sim.Run();
    ASSERT_EQ(fire_times.size(), whens.size());
    std::vector<TimeNs> sorted = whens;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(fire_times, sorted);
}

TEST(CalendarQueue, PendingEventsTracksCancellation)
{
    Simulator sim;
    std::vector<EventId> ids;
    for (int i = 0; i < 100; ++i) {
        ids.push_back(sim.Schedule(1000 + i, []() {}));
    }
    EXPECT_EQ(sim.PendingEvents(), 100u);
    for (int i = 0; i < 50; ++i) sim.Cancel(ids[i]);
    EXPECT_EQ(sim.PendingEvents(), 50u);
    // Double-cancel and stale ids change nothing.
    for (int i = 0; i < 50; ++i) sim.Cancel(ids[i]);
    sim.Cancel(ids[60] + 1);  // Wrong generation.
    EXPECT_EQ(sim.PendingEvents(), 50u);
    sim.Post([]() {});
    EXPECT_EQ(sim.PendingEvents(), 51u);  // Posted work counts as pending.
    sim.Run();
    EXPECT_EQ(sim.PendingEvents(), 0u);
    EXPECT_EQ(sim.events_processed(), 51u);
}

TEST(CalendarQueue, RescheduleStormRecyclesSlots)
{
    // Cancel-and-reschedule loops (the hedge-timer pattern) must not grow
    // state: the slot pool recycles, tombstones drain, and the final
    // timer fires exactly once.
    Simulator sim;
    int fired = 0;
    EventId timer = kInvalidEvent;
    for (int i = 0; i < 10000; ++i) {
        if (timer != kInvalidEvent) sim.Cancel(timer);
        timer = sim.Schedule(5000 + i, [&fired]() { ++fired; });
    }
    EXPECT_EQ(sim.PendingEvents(), 1u);
    sim.Run();
    EXPECT_EQ(fired, 1);
}

TEST(Callback, MoveOnlyCapturesWork)
{
    // The whole point of the SBO callback: move-only state rides in the
    // closure with no shared_ptr detour.
    Simulator sim;
    auto payload = std::make_unique<int>(41);
    int got = 0;
    sim.Schedule(10, [p = std::move(payload), &got]() { got += *p + 1; });
    auto posted = std::make_unique<int>(7);
    sim.Post([p = std::move(posted), &got]() { got += *p; });
    sim.Run();
    EXPECT_EQ(got, 49);
}

TEST(Callback, LargeClosureFallsBackToHeap)
{
    // Closures past the inline budget still work (one heap allocation).
    struct Big
    {
        unsigned char blob[200];
    };
    Big big{};
    big.blob[0] = 3;
    int got = 0;
    Callback cb = [big, &got]() { got = big.blob[0]; };
    Callback moved = std::move(cb);
    moved();
    EXPECT_EQ(got, 3);
    EXPECT_FALSE(static_cast<bool>(cb));  // NOLINT(bugprone-use-after-move)
}

TEST(Callback, CancelDestroysCaptureImmediately)
{
    // Cancelling an event releases the closure's resources right away,
    // not when the tombstone pops: the shared_ptr count proves it.
    Simulator sim;
    auto tracker = std::make_shared<int>(1);
    const EventId id =
        sim.Schedule(1000, [keep = tracker]() { (void)*keep; });
    EXPECT_EQ(tracker.use_count(), 2);
    sim.Cancel(id);
    EXPECT_EQ(tracker.use_count(), 1);
    sim.Run();
}

TEST(BlockPool, RecyclesBlocksThroughFreeList)
{
    BlockPool pool;
    void *a = pool.Alloc(24);
    void *b = pool.Alloc(24);
    EXPECT_NE(a, b);
    pool.Free(a);
    void *c = pool.Alloc(24);
    EXPECT_EQ(c, a);  // LIFO recycling.
    pool.Free(b);
    pool.Free(c);
    EXPECT_EQ(pool.capacity(), BlockPool::kSlabBlocks);
}

TEST(BlockPool, PooledSharedKeepsValueSemantics)
{
    BlockPool pool;
    std::weak_ptr<int> observer;
    {
        auto p = MakePooledShared<int>(pool, 42);
        EXPECT_EQ(*p, 42);
        observer = p;
        auto q = p;
        EXPECT_EQ(observer.use_count(), 2);
    }
    EXPECT_TRUE(observer.expired());
    // The node is back on the free list: the next allocation reuses it.
    auto r = MakePooledShared<int>(pool, 7);
    EXPECT_EQ(*r, 7);
    EXPECT_EQ(pool.capacity(), BlockPool::kSlabBlocks);
}

}  // namespace
}  // namespace sdf::sim
