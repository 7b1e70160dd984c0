/**
 * @file
 * Unit tests for the NAND flash substrate: geometry, state machine,
 * timing composition, payload storage, error injection, and wear-out.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "nand/channel.h"
#include "nand/flash_array.h"
#include "nand/geometry.h"
#include "nand/timing.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "sim/simulator.h"
#include "util/fingerprint.h"

namespace sdf::nand {
namespace {

Channel
MakeChannel(sim::Simulator &sim, bool payloads = false,
            const ErrorModel &errors = {})
{
    return Channel(sim, TinyTestGeometry(), FastTestTiming(), errors,
                   util::Rng(1), payloads, 40);
}

// ---------------------------------------------------------------------------
// Geometry
// ---------------------------------------------------------------------------

TEST(Geometry, BaiduSdfMatchesTable3)
{
    const Geometry g = BaiduSdfGeometry();
    EXPECT_EQ(g.channels, 44u);
    EXPECT_EQ(g.PlanesPerChannel(), 4u);
    EXPECT_EQ(g.page_size, 8u * util::kKiB);
    EXPECT_EQ(g.BlockBytes(), 2 * util::kMiB);
    // 16 GiB per channel, 704 GiB raw.
    EXPECT_EQ(g.ChannelBytes(), 16 * util::kGiB);
    EXPECT_EQ(g.TotalBytes(), 704 * util::kGiB);
}

TEST(Geometry, DerivedQuantitiesConsistent)
{
    const Geometry g = TinyTestGeometry();
    EXPECT_EQ(g.TotalBlocks(),
              uint64_t{g.channels} * g.PlanesPerChannel() * g.blocks_per_plane);
    EXPECT_EQ(g.TotalBytes(), g.TotalPages() * g.page_size);
}

TEST(Geometry, FlatIndexRoundTrips)
{
    const Geometry g = TinyTestGeometry();
    for (uint32_t pl = 0; pl < g.PlanesPerChannel(); ++pl) {
        for (uint32_t b = 0; b < g.blocks_per_plane; ++b) {
            const BlockAddr a{pl, b};
            EXPECT_EQ(BlockFromFlat(g, FlatBlockIndex(g, a)), a);
        }
    }
}

// ---------------------------------------------------------------------------
// Channel state machine
// ---------------------------------------------------------------------------

TEST(Channel, ProgramRequiresSequentialPages)
{
    sim::Simulator sim;
    Channel ch = MakeChannel(sim);
    OpStatus got = OpStatus::kOk;
    ch.ProgramPage(PageAddr{0, 0, 1}, [&](OpStatus s) { got = s; });
    sim.Run();
    EXPECT_EQ(got, OpStatus::kWriteSequenceError);
}

TEST(Channel, ProgramThenRewriteFails)
{
    sim::Simulator sim;
    Channel ch = MakeChannel(sim);
    ch.ProgramPage(PageAddr{0, 0, 0}, nullptr);
    OpStatus got = OpStatus::kOk;
    ch.ProgramPage(PageAddr{0, 0, 0}, [&](OpStatus s) { got = s; });
    sim.Run();
    EXPECT_EQ(got, OpStatus::kWriteNotErased);
}

TEST(Channel, FullBlockRejectsProgramUntilErase)
{
    sim::Simulator sim;
    Channel ch = MakeChannel(sim);
    const Geometry g = ch.geometry();
    for (uint32_t p = 0; p < g.pages_per_block; ++p)
        ch.ProgramPage(PageAddr{0, 0, p}, nullptr);
    OpStatus got = OpStatus::kOk;
    ch.ProgramPage(PageAddr{0, 0, 0}, [&](OpStatus s) { got = s; });
    sim.Run();
    EXPECT_EQ(got, OpStatus::kWriteNotErased);
    EXPECT_EQ(ch.block_meta(BlockAddr{0, 0}).state, BlockState::kFull);

    ch.EraseBlock(BlockAddr{0, 0}, nullptr);
    got = OpStatus::kBadBlock;
    ch.ProgramPage(PageAddr{0, 0, 0}, [&](OpStatus s) { got = s; });
    sim.Run();
    EXPECT_EQ(got, OpStatus::kOk);
}

TEST(Channel, EraseIncrementsEraseCount)
{
    sim::Simulator sim;
    Channel ch = MakeChannel(sim);
    for (int i = 0; i < 5; ++i) ch.EraseBlock(BlockAddr{1, 2}, nullptr);
    sim.Run();
    EXPECT_EQ(ch.block_meta(BlockAddr{1, 2}).erase_count, 5u);
}

TEST(Channel, ReadOfErasedPageReportsErased)
{
    sim::Simulator sim;
    Channel ch = MakeChannel(sim, /*payloads=*/true);
    OpStatus got = OpStatus::kOk;
    std::vector<uint8_t> out;
    ch.ReadPage(PageAddr{0, 0, 0}, [&](OpStatus s) { got = s; }, &out);
    sim.Run();
    EXPECT_EQ(got, OpStatus::kOkErased);
    ASSERT_EQ(out.size(), ch.geometry().page_size);
    EXPECT_EQ(out[0], 0xFF);
}

TEST(Channel, OutOfRangeAddressesRejected)
{
    sim::Simulator sim;
    Channel ch = MakeChannel(sim);
    const Geometry g = ch.geometry();
    OpStatus got = OpStatus::kOk;
    ch.ReadPage(PageAddr{g.PlanesPerChannel(), 0, 0},
                [&](OpStatus s) { got = s; });
    sim.Run();
    EXPECT_EQ(got, OpStatus::kOutOfRange);
    got = OpStatus::kOk;
    ch.EraseBlock(BlockAddr{0, g.blocks_per_plane}, [&](OpStatus s) { got = s; });
    sim.Run();
    EXPECT_EQ(got, OpStatus::kOutOfRange);
}

TEST(Channel, BadBlockRejectsEverything)
{
    sim::Simulator sim;
    Channel ch = MakeChannel(sim);
    ch.MarkBad(BlockAddr{0, 3});
    OpStatus r = OpStatus::kOk, w = OpStatus::kOk, e = OpStatus::kOk;
    ch.ReadPage(PageAddr{0, 3, 0}, [&](OpStatus s) { r = s; });
    ch.ProgramPage(PageAddr{0, 3, 0}, [&](OpStatus s) { w = s; });
    ch.EraseBlock(BlockAddr{0, 3}, [&](OpStatus s) { e = s; });
    sim.Run();
    EXPECT_EQ(r, OpStatus::kBadBlock);
    EXPECT_EQ(w, OpStatus::kBadBlock);
    EXPECT_EQ(e, OpStatus::kBadBlock);
}

TEST(Channel, PayloadRoundTrips)
{
    sim::Simulator sim;
    Channel ch = MakeChannel(sim, /*payloads=*/true);
    const auto payload =
        util::MakeDeterministicPayload(ch.geometry().page_size, 99);
    ch.ProgramPage(PageAddr{1, 1, 0}, nullptr, payload.data());
    std::vector<uint8_t> out;
    ch.ReadPage(PageAddr{1, 1, 0}, nullptr, &out);
    sim.Run();
    EXPECT_EQ(out, payload);
}

TEST(Channel, EraseDropsPayloads)
{
    sim::Simulator sim;
    Channel ch = MakeChannel(sim, /*payloads=*/true);
    const auto payload =
        util::MakeDeterministicPayload(ch.geometry().page_size, 5);
    ch.ProgramPage(PageAddr{0, 0, 0}, nullptr, payload.data());
    ch.EraseBlock(BlockAddr{0, 0}, nullptr);
    std::vector<uint8_t> out;
    OpStatus got = OpStatus::kOk;
    ch.ReadPage(PageAddr{0, 0, 0}, [&](OpStatus s) { got = s; }, &out);
    sim.Run();
    EXPECT_EQ(got, OpStatus::kOkErased);
    EXPECT_EQ(out[0], 0xFF);
}

TEST(Channel, DebugSetProgrammedBypassesTiming)
{
    sim::Simulator sim;
    Channel ch = MakeChannel(sim);
    ch.DebugSetProgrammed(BlockAddr{0, 0}, ch.geometry().pages_per_block);
    EXPECT_EQ(ch.block_meta(BlockAddr{0, 0}).state, BlockState::kFull);
    EXPECT_EQ(sim.Now(), 0);
    EXPECT_FALSE(ch.Busy());
}

// ---------------------------------------------------------------------------
// Timing composition
// ---------------------------------------------------------------------------

TEST(ChannelTiming, ReadLatencyIsArrayPlusBus)
{
    sim::Simulator sim;
    Geometry g = TinyTestGeometry();
    TimingSpec t;
    t.read_page = util::UsToNs(60);
    t.program_page = util::UsToNs(1400);
    t.erase_block = util::MsToNs(3);
    t.bus_bytes_per_sec = 40e6;
    t.bus_cmd_overhead = util::UsToNs(11);
    g.page_size = 8 * util::kKiB;
    Channel ch(sim, g, t, ErrorModel{}, util::Rng(1), false, 40);

    util::TimeNs done_at = 0;
    ch.ReadPage(PageAddr{0, 0, 0}, [&](OpStatus) { done_at = sim.Now(); });
    sim.Run();
    // 60 us array read + 11 us command + 8192 B / 40 MB/s = 204.8 us.
    EXPECT_EQ(done_at, util::UsToNs(60) + util::UsToNs(11) +
                           util::TransferTimeNs(8192, 40e6));
}

TEST(ChannelTiming, ReadsFromTwoPlanesPipelineOnBus)
{
    sim::Simulator sim;
    Geometry g = TinyTestGeometry();
    TimingSpec t = FastTestTiming();
    t.read_page = util::UsToNs(100);
    t.bus_bytes_per_sec = 0;  // Infinite bus: isolate array reads.
    t.bus_cmd_overhead = util::UsToNs(1);
    Channel ch(sim, g, t, ErrorModel{}, util::Rng(1), false, 40);

    int completed = 0;
    ch.ReadPage(PageAddr{0, 0, 0}, [&](OpStatus) { ++completed; });
    ch.ReadPage(PageAddr{1, 0, 0}, [&](OpStatus) { ++completed; });
    sim.Run();
    EXPECT_EQ(completed, 2);
    // Both planes read in parallel: total ~101-102 us, not 200+.
    EXPECT_LT(sim.Now(), util::UsToNs(110));
}

TEST(ChannelTiming, ProgramsOnSamePlaneSerialize)
{
    sim::Simulator sim;
    Geometry g = TinyTestGeometry();
    TimingSpec t = FastTestTiming();
    t.program_page = util::UsToNs(100);
    t.bus_bytes_per_sec = 0;
    t.bus_cmd_overhead = 0;
    Channel ch(sim, g, t, ErrorModel{}, util::Rng(1), false, 40);

    ch.ProgramPage(PageAddr{0, 0, 0}, nullptr);
    ch.ProgramPage(PageAddr{0, 0, 1}, nullptr);
    sim.Run();
    EXPECT_GE(sim.Now(), util::UsToNs(200));
}

// ---------------------------------------------------------------------------
// Program suspend
// ---------------------------------------------------------------------------

// channel.cc's kSuspendLatency and kResumeLatency.
constexpr util::TimeNs kSuspend = util::UsToNs(20);
constexpr util::TimeNs kResume = util::UsToNs(5);

/**
 * One traced channel with production array times (tR 60 us, tPROG
 * 1.4 ms). By default the bus moves data instantly, so a page's data-in
 * or data-out is its 10 us command.
 */
struct SuspendFixture
{
    explicit SuspendFixture(double bus_bytes_per_sec = 0)
        : ch(sim, TinyTestGeometry(), Timing(bus_bytes_per_sec), ErrorModel{},
             util::Rng(1), false, 40)
    {
        ch.EnableTrace(&sink, "ch");
        plane0 = sink.RegisterTrack("flash", "ch.p0");
    }

    /** Bus time of one page. */
    util::TimeNs
    PageBus() const
    {
        return ch.timing().BusTime(ch.geometry().page_size);
    }

    static TimingSpec
    Timing(double bus_bytes_per_sec)
    {
        TimingSpec t;
        t.bus_bytes_per_sec = bus_bytes_per_sec;
        t.bus_cmd_overhead = util::UsToNs(10);
        return t;
    }

    /** Read block 1 (erased) of plane 0 at @p when; done_at gets the end. */
    void
    ReadAt(util::TimeNs when, util::TimeNs *done_at, bool suspend = true,
           bool *suspended = nullptr, obs::IoSpan *span = nullptr)
    {
        sim.ScheduleAt(when, [this, done_at, suspend, suspended, span]() {
            if (span != nullptr) span->Start(sim.Now());
            const ReadOutcome r = ch.ReadPage(
                PageAddr{0, 1, 0},
                [this, done_at, span](OpStatus) {
                    *done_at = sim.Now();
                    if (span != nullptr) span->Finish(sim.Now());
                },
                nullptr, 0, span, suspend);
            if (suspended != nullptr) *suspended = r.suspended;
        });
    }

    /** Plane 0's trace as "name start-end" in microseconds, by start. */
    std::vector<std::string> Plane0() const { return Track(plane0); }

    /** The trace of track "ch.<name>" ("bus", "p3"), as Plane0(). */
    std::vector<std::string>
    Track(const std::string &name)
    {
        return Track(sink.RegisterTrack("flash", "ch." + name));
    }

    std::vector<std::string>
    Track(int32_t track) const
    {
        std::vector<obs::TraceSink::Event> evs;
        for (const auto &e : sink.event_list())
            if (e.track == track) evs.push_back(e);
        std::sort(evs.begin(), evs.end(), [](const auto &a, const auto &b) {
            return a.start < b.start;
        });
        auto us = [](util::TimeNs ns) {
            return std::to_string(ns / 1000) + "." +
                   std::to_string(ns % 1000 / 100);
        };
        std::vector<std::string> out;
        for (const auto &e : evs) {
            out.push_back(std::string(e.name) + " " + us(e.start) + "-" +
                          us(e.start + e.dur));
        }
        return out;
    }

    sim::Simulator sim;
    obs::TraceSink sink;
    Channel ch;
    int32_t plane0 = -1;
};

TEST(ChannelTiming, ReadMidProgramSuspendsIt)
{
    SuspendFixture f;
    const TimingSpec &t = f.ch.timing();
    util::TimeNs programmed = 0, read_done = 0;
    bool suspended = false;
    obs::IoSpan span;
    // Data-in [0, 10 us), then the program [10, 1410 us).
    f.ch.ProgramPage(PageAddr{0, 0, 0}, [&](OpStatus) {
        programmed = f.sim.Now();
    });
    const util::TimeNs booked = t.bus_cmd_overhead + t.program_page;
    const util::TimeNs issue = util::UsToNs(500);
    f.ReadAt(issue, &read_done, true, &suspended, &span);
    f.sim.Run();

    EXPECT_TRUE(suspended);
    // Senses at issue + suspend, then its 10 us transfer out.
    EXPECT_EQ(read_done, issue + kSuspend + t.read_page + t.bus_cmd_overhead);
    EXPECT_EQ(span.stage_ns(obs::Stage::kQueue), kSuspend);
    EXPECT_EQ(span.stage_ns(obs::Stage::kFlashOp), t.read_page);
    // The program completes later by the plane time the read took.
    EXPECT_EQ(programmed, booked + kSuspend + t.read_page + kResume);
    // Its trace is cut at the suspend and picks up after the resume.
    EXPECT_EQ(f.Plane0(), (std::vector<std::string>{"tPROG 10.0-500.0",
                                                    "tR 520.0-580.0",
                                                    "tPROG 585.0-1495.0"}));
}

TEST(ChannelTiming, SecondReadInASuspensionPaysNoSecondSuspend)
{
    SuspendFixture f;
    const TimingSpec &t = f.ch.timing();
    util::TimeNs programmed = 0, first = 0, second = 0;
    bool suspended_first = false, suspended_second = true;
    f.ch.ProgramPage(PageAddr{0, 0, 0}, [&](OpStatus) {
        programmed = f.sim.Now();
    });
    const util::TimeNs booked = t.bus_cmd_overhead + t.program_page;
    const util::TimeNs issue = util::UsToNs(500);
    f.ReadAt(issue, &first, true, &suspended_first);
    // Arrives while the first read waits out the suspend latency.
    f.ReadAt(issue + util::UsToNs(10), &second, true, &suspended_second);
    f.sim.Run();

    EXPECT_TRUE(suspended_first);
    EXPECT_FALSE(suspended_second);
    EXPECT_EQ(first, issue + kSuspend + t.read_page + t.bus_cmd_overhead);
    // Senses right after the first read.
    EXPECT_EQ(second,
              issue + kSuspend + 2 * t.read_page + t.bus_cmd_overhead);
    // One suspend, two senses, one resume.
    EXPECT_EQ(programmed, booked + kSuspend + 2 * t.read_page + kResume);
    EXPECT_EQ(f.Plane0(),
              (std::vector<std::string>{"tPROG 10.0-500.0", "tR 520.0-580.0",
                                        "tR 580.0-640.0",
                                        "tPROG 645.0-1555.0"}));
}

TEST(ChannelTiming, ReadBeforeAProgramStartsSensesAtOnce)
{
    // A 4 KiB page takes 102.4 us on a 40 MB/s bus: the program's data-in
    // is on the bus until 112.4 us.
    SuspendFixture f(40e6);
    const TimingSpec &t = f.ch.timing();
    util::TimeNs programmed = 0, first = 0, second = 0;
    bool suspended_first = true, suspended_second = true;
    f.ch.ProgramPage(PageAddr{0, 0, 0}, [&](OpStatus) {
        programmed = f.sim.Now();
    });
    const util::TimeNs page_bus = t.BusTime(f.ch.geometry().page_size);
    const util::TimeNs booked = page_bus + t.program_page;
    // Senses [20, 80 us), before the data is in: the program is not held.
    f.ReadAt(util::UsToNs(20), &first, true, &suspended_first);
    // Senses [100, 160 us): the program starts when it ends, not at
    // 112.4 us, with no suspend or resume latency.
    f.ReadAt(util::UsToNs(100), &second, true, &suspended_second);
    f.sim.Run();

    EXPECT_FALSE(suspended_first);
    EXPECT_FALSE(suspended_second);
    // Each read's transfer out queues behind the data-in on the bus.
    EXPECT_EQ(first, 2 * page_bus);
    EXPECT_EQ(second, 3 * page_bus);
    EXPECT_EQ(programmed, util::UsToNs(160) + t.program_page);
    EXPECT_GT(programmed, booked);
    EXPECT_EQ(f.Plane0(),
              (std::vector<std::string>{"tR 20.0-80.0", "tR 100.0-160.0",
                                        "tPROG 160.0-1560.0"}));
}

TEST(ChannelTiming, ProgramWithNoReadCompletesAtItsBookedTime)
{
    SuspendFixture f;
    const TimingSpec &t = f.ch.timing();
    util::TimeNs programmed = 0, other_plane = 0;
    f.ch.ProgramPage(PageAddr{0, 0, 0}, [&](OpStatus) {
        programmed = f.sim.Now();
    });
    f.sim.Run();
    EXPECT_EQ(programmed, t.bus_cmd_overhead + t.program_page);
    // One timed event, the program's: nobody waits on the data-in.
    EXPECT_EQ(f.sim.events_processed(), 1u);

    // A suspending read on another plane leaves the program alone.
    const util::TimeNs t0 = f.sim.Now();
    f.ch.ProgramPage(PageAddr{0, 0, 1}, [&](OpStatus) {
        programmed = f.sim.Now() - t0;
    });
    bool suspended = true;
    f.sim.ScheduleAt(t0 + util::UsToNs(500), [&]() {
        suspended = f.ch.ReadPage(
            PageAddr{1, 0, 0}, [&](OpStatus) { other_plane = f.sim.Now(); },
            nullptr, 0, nullptr, true).suspended;
    });
    f.sim.Run();
    EXPECT_FALSE(suspended);
    EXPECT_EQ(programmed, t.bus_cmd_overhead + t.program_page);
    EXPECT_EQ(other_plane,
              t0 + util::UsToNs(500) + t.read_page + t.bus_cmd_overhead);
}

TEST(ChannelTiming, ReadNearAProgramsEndWaitsForIt)
{
    // With no more than the suspend latency of the program left, waiting
    // senses no later than suspending would, and the program does not slip.
    SuspendFixture f;
    const TimingSpec &t = f.ch.timing();
    util::TimeNs programmed = 0, read_done = 0;
    bool suspended = true;
    f.ch.ProgramPage(PageAddr{0, 0, 0}, [&](OpStatus) {
        programmed = f.sim.Now();
    });
    const util::TimeNs booked = t.bus_cmd_overhead + t.program_page;
    f.ReadAt(booked - kSuspend, &read_done, true, &suspended);
    f.sim.Run();
    EXPECT_FALSE(suspended);
    EXPECT_EQ(programmed, booked);
    EXPECT_EQ(read_done, booked + t.read_page + t.bus_cmd_overhead);
    EXPECT_EQ(f.Plane0(), (std::vector<std::string>{"tPROG 10.0-1410.0",
                                                    "tR 1410.0-1470.0"}));
}

TEST(ChannelTiming, FifoReadWaitsForTheProgram)
{
    // ConventionalSsd's reads: no suspend.
    SuspendFixture f;
    const TimingSpec &t = f.ch.timing();
    util::TimeNs programmed = 0, read_done = 0;
    f.ch.ProgramPage(PageAddr{0, 0, 0}, [&](OpStatus) {
        programmed = f.sim.Now();
    });
    const util::TimeNs booked = t.bus_cmd_overhead + t.program_page;
    f.ReadAt(util::UsToNs(500), &read_done, /*suspend=*/false);
    f.sim.Run();
    EXPECT_EQ(programmed, booked);
    EXPECT_EQ(read_done, booked + t.read_page + t.bus_cmd_overhead);
    EXPECT_EQ(f.Plane0(), (std::vector<std::string>{"tPROG 10.0-1410.0",
                                                    "tR 1410.0-1470.0"}));
}

// ---------------------------------------------------------------------------
// On-demand reads first on the bus
// ---------------------------------------------------------------------------

using Trace = std::vector<std::string>;

TEST(ChannelTiming, OnDemandReadGoesAheadOfQueuedDataIns)
{
    // A 4 KiB page holds the 40 MB/s bus for 112.4 us.
    SuspendFixture f(40e6);
    const util::TimeNs page_bus = f.PageBus();
    StagedPage staged;
    for (uint32_t p = 0; p < 4; ++p) {
        ASSERT_EQ(f.ch.StagePage(PageAddr{p, 0, 0}, nullptr, &staged),
                  OpStatus::kOk);
    }
    util::TimeNs read_done = 0;
    ReadOutcome outcome;
    f.sim.ScheduleAt(util::UsToNs(50), [&]() {
        outcome = f.ch.ReadPage(
            PageAddr{1, 1, 0}, [&](OpStatus) { read_done = f.sim.Now(); },
            nullptr, 0, nullptr, /*on_demand=*/true);
    });
    f.sim.Run();
    // Senses [50, 110 us) and goes out right after the data-in in
    // progress; the three queued data-ins move behind it, in order.
    EXPECT_EQ(read_done, 2 * page_bus);
    EXPECT_TRUE(outcome.overtook);
    EXPECT_EQ(outcome.bus_wait, page_bus - util::UsToNs(110));
    EXPECT_EQ(f.Track("bus"),
              (Trace{"din 0.0-112.4", "xfer 112.4-224.8", "din 224.8-337.2",
                     "din 337.2-449.6", "din 449.6-562.0"}));
}

TEST(ChannelTiming, BackgroundReadKeepsBookingOrder)
{
    // ScanUnit's and every ConventionalSsd read: FIFO on the bus.
    SuspendFixture f(40e6);
    const util::TimeNs page_bus = f.PageBus();
    StagedPage staged;
    for (uint32_t p = 0; p < 4; ++p) {
        ASSERT_EQ(f.ch.StagePage(PageAddr{p, 0, 0}, nullptr, &staged),
                  OpStatus::kOk);
    }
    util::TimeNs read_done = 0;
    ReadOutcome outcome;
    f.sim.ScheduleAt(util::UsToNs(50), [&]() {
        outcome = f.ch.ReadPage(PageAddr{1, 1, 0},
                                [&](OpStatus) { read_done = f.sim.Now(); });
    });
    f.sim.Run();
    EXPECT_EQ(read_done, 5 * page_bus);
    EXPECT_FALSE(outcome.overtook);
    EXPECT_EQ(f.Track("bus"),
              (Trace{"din 0.0-112.4", "din 112.4-224.8", "din 224.8-337.2",
                     "din 337.2-449.6", "xfer 449.6-562.0"}));
}

TEST(ChannelTiming, PushedDataInDelaysItsProgramOnlyOnceSlackRunsOut)
{
    SuspendFixture f(40e6);
    const TimingSpec &t = f.ch.timing();
    const util::TimeNs page_bus = f.PageBus();
    const util::TimeNs cmd = t.bus_cmd_overhead;
    // Plane 1 erases [10 us, 3.01 ms): its program waits for the erase,
    // with slack to spare. Planes 0 and 3 program once their data is in.
    f.ch.EraseBlock(BlockAddr{1, 2}, nullptr);
    util::TimeNs programmed[4] = {};
    for (uint32_t p : {0u, 1u, 3u}) {
        f.ch.ProgramPage(PageAddr{p, p == 1 ? 2u : 0u, 0},
                         [&, p](OpStatus) { programmed[p] = f.sim.Now(); });
    }
    // Bus: cmd [0, 10), data-ins [10, 122.4), [122.4, 234.8) and
    // [234.8, 347.2) us. The read senses [50, 110 us) on idle plane 2.
    util::TimeNs read_done = 0;
    f.sim.ScheduleAt(util::UsToNs(50), [&]() {
        f.ch.ReadPage(
            PageAddr{2, 0, 0}, [&](OpStatus) { read_done = f.sim.Now(); },
            nullptr, 0, nullptr, /*on_demand=*/true);
    });
    f.sim.Run();
    EXPECT_EQ(read_done, cmd + 2 * page_bus);
    EXPECT_EQ(f.Track("bus"),
              (Trace{"cmd 0.0-10.0", "din 10.0-122.4", "xfer 122.4-234.8",
                     "din 234.8-347.2", "din 347.2-459.6"}));
    // Plane 0's data-in was on the bus: its program keeps its time.
    EXPECT_EQ(programmed[0], cmd + page_bus + t.program_page);
    // Plane 1's program still starts when the erase ends.
    EXPECT_EQ(programmed[1], cmd + t.erase_block + t.program_page);
    // Plane 3's program had no slack: it slips by the read's bus time.
    EXPECT_EQ(programmed[3], cmd + 4 * page_bus + t.program_page);
    EXPECT_EQ(f.Track("p3"), (Trace{"tPROG 459.6-1859.6"}));
}

TEST(ChannelTiming, OnDemandReadGoesAheadOfAnEraseCommand)
{
    SuspendFixture f(40e6);
    const TimingSpec &t = f.ch.timing();
    const util::TimeNs page_bus = f.PageBus();
    // A data-in [0, 112.4 us), then an erase command behind it.
    StagedPage staged;
    ASSERT_EQ(f.ch.StagePage(PageAddr{0, 0, 0}, nullptr, &staged),
              OpStatus::kOk);
    util::TimeNs erased = 0, read_done = 0;
    f.ch.EraseBlock(BlockAddr{2, 0},
                    [&](OpStatus) { erased = f.sim.Now(); });
    f.ch.ReadPage(
        PageAddr{1, 0, 0}, [&](OpStatus) { read_done = f.sim.Now(); },
        nullptr, 0, nullptr, /*on_demand=*/true);
    f.sim.Run();
    EXPECT_EQ(read_done, 2 * page_bus);
    // The command goes out after the read, and the erase starts then.
    EXPECT_EQ(erased, 2 * page_bus + t.bus_cmd_overhead + t.erase_block);
    EXPECT_EQ(f.Track("bus"), (Trace{"din 0.0-112.4", "xfer 112.4-224.8",
                                     "cmd 224.8-234.8"}));
    EXPECT_EQ(f.Track("p2"), (Trace{"tBERS 234.8-3234.8"}));
}

TEST(ChannelTiming, ReservationHoldsADataInThatWouldOverlapASenseEnd)
{
    // A 4 KiB page holds a 4 MB/s bus for 1,034 us.
    SuspendFixture f(4e6);
    // Plane 0 erases [10 us, 3.01 ms), so a read there senses
    // [3,010, 3,070 us) and goes out [3,070, 4,104 us).
    f.ch.EraseBlock(BlockAddr{0, 2}, nullptr);
    util::TimeNs read_done = 0;
    f.ch.ReadPage(
        PageAddr{0, 1, 0}, [&](OpStatus) { read_done = f.sim.Now(); },
        nullptr, 0, nullptr, /*on_demand=*/true);
    // Three data-ins booked after it: two fit on the idle bus before the
    // sense ends; the third would still hold the bus then, so it waits.
    StagedPage staged;
    for (uint32_t page = 0; page < 3; ++page) {
        ASSERT_EQ(f.ch.StagePage(PageAddr{1, 0, page}, nullptr, &staged),
                  OpStatus::kOk);
    }
    f.sim.Run();
    EXPECT_EQ(read_done, util::UsToNs(4104));
    EXPECT_EQ(f.Track("bus"),
              (Trace{"cmd 0.0-10.0", "din 10.0-1044.0", "din 1044.0-2078.0",
                     "xfer 3070.0-4104.0", "din 4104.0-5138.0"}));
}

// ---------------------------------------------------------------------------
// Error model
// ---------------------------------------------------------------------------

TEST(ErrorModel, DisabledProducesNoErrors)
{
    ErrorModel m;
    util::Rng rng(1);
    EXPECT_EQ(m.SampleBitErrors(rng, 8192, 100000), 0u);
    EXPECT_FALSE(m.SampleWearOut(rng, 100000));
}

TEST(ErrorModel, RberGrowsWithWear)
{
    ErrorModel m;
    m.enabled = true;
    EXPECT_GT(m.RberAt(3000), m.RberAt(0));
    EXPECT_GT(m.RberAt(6000), m.RberAt(3000));
}

TEST(ErrorModel, HugeRatesSampleEveryBitOfThePage)
{
    ErrorModel m;
    m.enabled = true;
    m.base_rber = 1e300;
    util::Rng rng(1);
    EXPECT_EQ(m.SampleBitErrors(rng, 8192, 0), 65536u);
    // No rated cycles: the wear term is 0/0, a NaN rate.
    m.base_rber = 2e-8;
    m.endurance_cycles = 0;
    EXPECT_EQ(m.SampleBitErrors(rng, 8192, 0), 65536u);
}

TEST(ErrorModel, WornBlocksEventuallyFail)
{
    ErrorModel m;
    m.enabled = true;
    m.endurance_cycles = 100;
    util::Rng rng(1);
    int failures = 0;
    for (int i = 0; i < 10000; ++i) {
        if (m.SampleWearOut(rng, 300)) ++failures;
    }
    EXPECT_GT(failures, 0);
    // Below endurance never fails.
    for (int i = 0; i < 1000; ++i) EXPECT_FALSE(m.SampleWearOut(rng, 99));
}

TEST(Channel, UncorrectableReadsReported)
{
    sim::Simulator sim;
    ErrorModel errors;
    errors.enabled = true;
    errors.base_rber = 1e-2;  // Extreme: guarantees > 40 bit errors/page.
    Channel ch(sim, TinyTestGeometry(), FastTestTiming(), errors,
               util::Rng(1), false, 40);
    ch.ProgramPage(PageAddr{0, 0, 0}, nullptr);
    OpStatus got = OpStatus::kOk;
    ch.ReadPage(PageAddr{0, 0, 0}, [&](OpStatus s) { got = s; });
    sim.Run();
    EXPECT_EQ(got, OpStatus::kReadUncorrectable);
    EXPECT_EQ(ch.stats().uncorrectable_reads, 1u);
}

TEST(Channel, ReadsCorrectExactlyUpToTheEccBudget)
{
    // Outside a transient window, a read's error sample is its only draw
    // on the channel's RNG, so a mirror RNG with the channel's seed gives
    // each read's error count. The budget is 40 bits plus 10 per retry
    // level; a mean of 40 errors per page puts reads on both sides of it.
    sim::Simulator sim;
    const Geometry geo = TinyTestGeometry();
    ErrorModel errors;
    errors.enabled = true;
    errors.base_rber = 40.0 / (8.0 * geo.page_size);
    Channel ch(sim, geo, FastTestTiming(), errors, util::Rng(1), false, 40);
    util::Rng mirror(1);
    const PageAddr addr{0, 0, 0};
    ch.ProgramPage(addr, nullptr);
    sim.Run();
    const uint32_t erase_count = ch.block_meta(addr.BlockOf()).erase_count;

    uint64_t corrected_bits = 0, uncorrectable = 0;
    int at_budget[2] = {0, 0}, past_budget = 0;
    for (uint32_t i = 0; i < 400; ++i) {
        const uint32_t level = i % 2;
        const uint32_t budget = 40 + 10 * level;
        const uint32_t errs =
            errors.SampleBitErrors(mirror, geo.page_size, erase_count);
        at_budget[level] += errs == budget;
        past_budget += errs == budget + 1;
        OpStatus got = OpStatus::kOk;
        ch.ReadPage(addr, [&](OpStatus s) { got = s; }, nullptr, level);
        sim.Run();
        if (errs <= budget) {
            EXPECT_EQ(got, OpStatus::kOk) << "read " << i << ": " << errs;
            corrected_bits += errs;
        } else {
            EXPECT_EQ(got, OpStatus::kReadUncorrectable)
                << "read " << i << ": " << errs;
            ++uncorrectable;
        }
    }
    EXPECT_EQ(ch.stats().corrected_bit_errors, corrected_bits);
    EXPECT_EQ(ch.stats().uncorrectable_reads, uncorrectable);
    // Reads land exactly on each level's budget, and just past one.
    EXPECT_GT(at_budget[0], 0);  // 16 reads.
    EXPECT_GT(at_budget[1], 0);  // 2 reads.
    EXPECT_GT(past_budget, 0);   // 18 reads.
}

TEST(Channel, EccBudgetAtTheTopOfItsRangeHoldsOnRetry)
{
    // Every bit of the page in error, against the largest budget a
    // config can set: a retry level widens that budget, not wraps it.
    sim::Simulator sim;
    ErrorModel errors;
    errors.enabled = true;
    errors.base_rber = 1e300;
    Channel ch(sim, TinyTestGeometry(), FastTestTiming(), errors,
               util::Rng(1), false, UINT32_MAX);
    ch.ProgramPage(PageAddr{0, 0, 0}, nullptr);
    OpStatus got = OpStatus::kReadUncorrectable;
    ch.ReadPage(PageAddr{0, 0, 0}, [&](OpStatus s) { got = s; }, nullptr, 1);
    sim.Run();
    EXPECT_EQ(got, OpStatus::kOk);
    EXPECT_EQ(ch.stats().corrected_bit_errors,
              8u * TinyTestGeometry().page_size);
}

TEST(Channel, WearOutMarksBlockBad)
{
    sim::Simulator sim;
    ErrorModel errors;
    errors.enabled = true;
    errors.endurance_cycles = 1;
    errors.wearout_fail_scale = 1.0;  // Fail promptly past endurance.
    Channel ch(sim, TinyTestGeometry(), FastTestTiming(), errors,
               util::Rng(1), false, 40);
    OpStatus last = OpStatus::kOk;
    for (int i = 0; i < 50 && last == OpStatus::kOk; ++i) {
        ch.EraseBlock(BlockAddr{0, 0}, [&](OpStatus s) { last = s; });
        sim.Run();
    }
    EXPECT_EQ(last, OpStatus::kWornOut);
    EXPECT_TRUE(ch.block_meta(BlockAddr{0, 0}).bad);
    EXPECT_EQ(ch.stats().blocks_gone_bad, 1u);
}

// ---------------------------------------------------------------------------
// FlashArray
// ---------------------------------------------------------------------------

TEST(FlashArray, RawBandwidthsMatchPaper)
{
    sim::Simulator sim;
    FlashArrayConfig cfg;
    cfg.geometry = BaiduSdfGeometry();
    cfg.timing = Micron25nmMlcTiming();
    FlashArray array(sim, cfg);
    // §3.2: aggregate raw read 1.67 GB/s, raw write 1.01 GB/s.
    EXPECT_NEAR(array.RawReadBandwidth() / 1e9, 1.67, 0.05);
    EXPECT_NEAR(array.RawWriteBandwidth() / 1e9, 1.01, 0.05);
}

TEST(FlashArray, FactoryBadBlocksInjected)
{
    sim::Simulator sim;
    FlashArrayConfig cfg;
    cfg.geometry = TinyTestGeometry();
    cfg.timing = FastTestTiming();
    cfg.factory_bad_per_mille = 200;  // Exaggerated for the test.
    cfg.seed = 3;
    FlashArray array(sim, cfg);
    uint32_t bad = 0;
    const Geometry &g = array.geometry();
    for (uint32_t c = 0; c < g.channels; ++c) {
        for (uint32_t pl = 0; pl < g.PlanesPerChannel(); ++pl) {
            for (uint32_t b = 0; b < g.blocks_per_plane; ++b) {
                if (array.channel(c).block_meta(BlockAddr{pl, b}).bad) ++bad;
            }
        }
    }
    EXPECT_GT(bad, 0u);
    EXPECT_LT(bad, g.TotalBlocks() / 2);
}

TEST(FlashArray, StatsAggregateAcrossChannels)
{
    sim::Simulator sim;
    FlashArrayConfig cfg;
    cfg.geometry = TinyTestGeometry();
    cfg.timing = FastTestTiming();
    FlashArray array(sim, cfg);
    array.channel(0).ProgramPage(PageAddr{0, 0, 0}, nullptr);
    array.channel(1).ProgramPage(PageAddr{0, 0, 0}, nullptr);
    array.channel(2).EraseBlock(BlockAddr{0, 0}, nullptr);
    sim.Run();
    const ChannelStats total = array.TotalStats();
    EXPECT_EQ(total.programs, 2u);
    EXPECT_EQ(total.erases, 1u);
}

}  // namespace
}  // namespace sdf::nand
