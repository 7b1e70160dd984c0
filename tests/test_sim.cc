/**
 * @file
 * Unit tests for the discrete-event simulation core.
 */
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "sim/fifo_resource.h"
#include "sim/simulator.h"

namespace sdf::sim {
namespace {

TEST(Simulator, StartsAtTimeZero)
{
    Simulator sim;
    EXPECT_EQ(sim.Now(), 0);
    EXPECT_EQ(sim.PendingEvents(), 0u);
}

TEST(Simulator, RunsEventsInTimeOrder)
{
    Simulator sim;
    std::vector<int> order;
    sim.Schedule(30, [&]() { order.push_back(3); });
    sim.Schedule(10, [&]() { order.push_back(1); });
    sim.Schedule(20, [&]() { order.push_back(2); });
    sim.Run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(sim.Now(), 30);
}

TEST(Simulator, EqualTimestampsFireInScheduleOrder)
{
    Simulator sim;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i) {
        sim.Schedule(5, [&order, i]() { order.push_back(i); });
    }
    sim.Run();
    for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, CallbackCanScheduleMoreEvents)
{
    Simulator sim;
    int fired = 0;
    sim.Schedule(1, [&]() {
        ++fired;
        sim.Schedule(1, [&]() {
            ++fired;
            sim.Schedule(1, [&]() { ++fired; });
        });
    });
    sim.Run();
    EXPECT_EQ(fired, 3);
    EXPECT_EQ(sim.Now(), 3);
}

TEST(Simulator, CancelPreventsExecution)
{
    Simulator sim;
    bool ran = false;
    const EventId id = sim.Schedule(10, [&]() { ran = true; });
    sim.Cancel(id);
    sim.Run();
    EXPECT_FALSE(ran);
}

TEST(Simulator, CancelInvalidIsNoOp)
{
    Simulator sim;
    sim.Cancel(kInvalidEvent);
    sim.Cancel(999999);
    sim.Run();
}

TEST(Simulator, PendingEventsTracksScheduleFireAndCancel)
{
    Simulator sim;
    EXPECT_EQ(sim.PendingEvents(), 0u);
    const EventId a = sim.Schedule(10, []() {});
    sim.Schedule(20, []() {});
    EXPECT_EQ(sim.PendingEvents(), 2u);
    sim.Cancel(a);
    EXPECT_EQ(sim.PendingEvents(), 1u);
    sim.Run();
    EXPECT_EQ(sim.PendingEvents(), 0u);
}

// Regression: cancelling an id that has already fired (or one that was
// never issued) must leave no permanent residue in the simulator's
// bookkeeping — PendingEvents() used to drift when stale ids accumulated.
TEST(Simulator, CancelAfterFireLeavesNoResidue)
{
    Simulator sim;
    const EventId a = sim.Schedule(1, []() {});
    sim.Run();
    EXPECT_EQ(sim.PendingEvents(), 0u);
    sim.Cancel(a);          // Already fired: must be a no-op.
    sim.Cancel(a + 1000);   // Never issued: must be a no-op.
    EXPECT_EQ(sim.PendingEvents(), 0u);
    bool ran = false;
    sim.Schedule(1, [&]() { ran = true; });
    EXPECT_EQ(sim.PendingEvents(), 1u);
    sim.Run();
    EXPECT_TRUE(ran);
    EXPECT_EQ(sim.PendingEvents(), 0u);
}

TEST(Simulator, RepeatedScheduleFireCancelCyclesStayConsistent)
{
    Simulator sim;
    int fired = 0;
    for (int cycle = 0; cycle < 100; ++cycle) {
        const EventId keep = sim.Schedule(1, [&]() { ++fired; });
        const EventId drop = sim.Schedule(2, [&]() { ++fired; });
        sim.Cancel(drop);
        sim.Cancel(keep - 1);  // Stale id from the previous cycle.
        EXPECT_EQ(sim.PendingEvents(), 1u);
        sim.Run();
        EXPECT_EQ(sim.PendingEvents(), 0u);
    }
    EXPECT_EQ(fired, 100);
}

TEST(Simulator, CancelledEventsDoNotStallRunUntil)
{
    Simulator sim;
    // A far-future event that gets cancelled must not make RunUntil
    // report pending work or hold the queue.
    const EventId far = sim.Schedule(1000000, []() {});
    int fired = 0;
    sim.Schedule(10, [&]() { ++fired; });
    sim.Cancel(far);
    EXPECT_FALSE(sim.RunUntil(100));
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(sim.PendingEvents(), 0u);
}

TEST(Simulator, RunUntilStopsAtDeadline)
{
    Simulator sim;
    int fired = 0;
    sim.Schedule(10, [&]() { ++fired; });
    sim.Schedule(20, [&]() { ++fired; });
    sim.Schedule(30, [&]() { ++fired; });
    EXPECT_TRUE(sim.RunUntil(20));
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(sim.Now(), 20);
    EXPECT_FALSE(sim.RunUntil(100));
    EXPECT_EQ(fired, 3);
    EXPECT_EQ(sim.Now(), 100);
}

TEST(Simulator, RunUntilAdvancesClockWithNoEvents)
{
    Simulator sim;
    EXPECT_FALSE(sim.RunUntil(1000));
    EXPECT_EQ(sim.Now(), 1000);
}

TEST(Simulator, RunWhileNotStopsWhenPredicateHolds)
{
    Simulator sim;
    int count = 0;
    for (int i = 0; i < 10; ++i) sim.Schedule(i + 1, [&]() { ++count; });
    EXPECT_TRUE(sim.RunWhileNot([&]() { return count >= 5; }));
    EXPECT_EQ(count, 5);
    EXPECT_TRUE(sim.PendingEvents() > 0);
}

TEST(Simulator, RunWhileNotReturnsFalseWhenQueueDrains)
{
    Simulator sim;
    sim.Schedule(1, []() {});
    EXPECT_FALSE(sim.RunWhileNot([]() { return false; }));
}

TEST(Simulator, EventsProcessedCounts)
{
    Simulator sim;
    for (int i = 0; i < 7; ++i) sim.Schedule(i, []() {});
    sim.Run();
    EXPECT_EQ(sim.events_processed(), 7u);
}

TEST(Simulator, NullCompletionMovesTheClockLikeAMarkerWithoutAnEvent)
{
    // The same schedule with no-op markers and with null completions: the
    // clock after Run() and RunWhileNot(), and every RunUntil() result,
    // must be the same; only the markers are events.
    auto run = [](bool markers) {
        Simulator sim;
        auto done = [markers]() {
            return markers ? Callback([]() {}) : Callback();
        };
        std::vector<int64_t> seen;
        int fired = 0;
        sim.ScheduleAt(50, done());
        sim.Schedule(10, [&fired]() { ++fired; });
        sim.ScheduleAt(200, done());
        for (const TimeNs deadline : {20, 100, 200, 250}) {
            seen.push_back(sim.RunUntil(deadline));
            seen.push_back(sim.Now());
        }
        sim.ScheduleAt(300, done());
        sim.Run();
        seen.push_back(sim.Now());
        // A drained RunWhileNot() reaches the horizon too.
        sim.ScheduleAt(400, done());
        sim.Schedule(5, [&fired]() { ++fired; });
        seen.push_back(sim.RunWhileNot([]() { return false; }));
        seen.push_back(sim.Now());
        // A satisfied one stops at the event that satisfied it.
        sim.ScheduleAt(600, done());
        sim.Schedule(50, [&fired]() { ++fired; });
        seen.push_back(sim.RunWhileNot([&fired]() { return fired == 3; }));
        seen.push_back(sim.Now());
        seen.push_back(sim.RunUntil(sim.Now()));
        return std::make_pair(seen, sim.events_processed());
    };
    const auto [with_markers, marker_events] = run(true);
    const auto [with_nulls, null_events] = run(false);
    EXPECT_EQ(with_nulls, with_markers);
    EXPECT_EQ(with_nulls,
              (std::vector<int64_t>{1, 20, 1, 100, 0, 200, 0, 250, 300, 0, 400,
                                    1, 450, 1}));
    EXPECT_EQ(null_events, 3u);
    EXPECT_EQ(marker_events, 3u + 4u);  // The one at 600 is pending.
}

TEST(FifoResource, ThousandBookedJobsHoldOnePendingEvent)
{
    Simulator sim;
    FifoResource res(sim);
    std::vector<TimeNs> fired;
    for (int i = 0; i < 1024; ++i) {
        res.Submit(10, [&]() { fired.push_back(sim.Now()); });
    }
    EXPECT_EQ(sim.PendingEvents(), 1u);
    sim.Run();
    ASSERT_EQ(fired.size(), 1024u);
    for (size_t i = 0; i < fired.size(); ++i) {
        EXPECT_EQ(fired[i], static_cast<TimeNs>(10 * (i + 1)));
    }
    EXPECT_EQ(sim.events_processed(), 1024u);
}

TEST(FifoResource, SerializesSubmissions)
{
    Simulator sim;
    FifoResource res(sim);
    std::vector<util::TimeNs> completions;
    res.Submit(100, [&]() { completions.push_back(sim.Now()); });
    res.Submit(50, [&]() { completions.push_back(sim.Now()); });
    res.Submit(25, [&]() { completions.push_back(sim.Now()); });
    sim.Run();
    ASSERT_EQ(completions.size(), 3u);
    EXPECT_EQ(completions[0], 100);
    EXPECT_EQ(completions[1], 150);
    EXPECT_EQ(completions[2], 175);
}

TEST(FifoResource, SubmitReturnsCompletionTime)
{
    Simulator sim;
    FifoResource res(sim);
    EXPECT_EQ(res.Submit(100, nullptr), 100);
    EXPECT_EQ(res.Submit(50, nullptr), 150);
}

TEST(FifoResource, SubmitAfterDelaysStart)
{
    Simulator sim;
    FifoResource res(sim);
    EXPECT_EQ(res.SubmitAfter(500, 100, nullptr), 600);
    // Queued work already extends past 600: chained normally.
    EXPECT_EQ(res.SubmitAfter(0, 100, nullptr), 700);
}

TEST(FifoResource, TracksBusyAndUtilization)
{
    Simulator sim;
    FifoResource res(sim);
    res.Submit(100, nullptr);
    EXPECT_TRUE(res.Busy());
    sim.Run();
    EXPECT_FALSE(res.Busy());
    EXPECT_EQ(res.busy_time(), 100);
    sim.RunUntil(200);
    EXPECT_DOUBLE_EQ(res.Utilization(200), 0.5);
}

TEST(FifoResource, IdleGapDoesNotAccumulateBusyTime)
{
    Simulator sim;
    FifoResource res(sim);
    res.Submit(10, nullptr);
    sim.RunUntil(1000);
    res.Submit(10, nullptr);
    sim.Run();
    EXPECT_EQ(res.busy_time(), 20);
    EXPECT_EQ(sim.Now(), 1010);
}

}  // namespace
}  // namespace sdf::sim
