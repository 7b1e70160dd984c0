/**
 * @file
 * Unit tests for the user-space block layer: write placement, erase
 * scheduling policies, the read-first queue with its priority classes,
 * pieced background reads, and data integrity.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "blocklayer/block_layer.h"
#include "sdf/sdf_device.h"
#include "sim/simulator.h"
#include "util/fingerprint.h"
#include "util/rng.h"

namespace sdf::blocklayer {
namespace {

core::SdfConfig
TinyConfig(bool payloads = false)
{
    core::SdfConfig c;
    c.flash.geometry = nand::TinyTestGeometry();
    c.flash.timing = nand::FastTestTiming();
    c.flash.store_payloads = payloads;
    c.link = controller::UnlimitedLinkSpec();
    c.spare_blocks_per_plane = 2;
    return c;
}

/** TinyConfig with one channel, so a second write queues behind the first. */
core::SdfConfig
OneChannelConfig()
{
    core::SdfConfig c = TinyConfig();
    c.flash.geometry.channels = 1;
    return c;
}

struct Fixture
{
    sim::Simulator sim;
    core::SdfDevice device;
    BlockLayer layer;

    explicit Fixture(BlockLayerConfig cfg = {},
                     const core::SdfConfig &dev = TinyConfig())
        : device(sim, dev), layer(sim, device, cfg) {}

    /** Put @p id and run the simulation until it completes. */
    core::IoStatus
    PutAndRun(uint64_t id)
    {
        core::IoStatus status = core::IoError::kWriteFailed;
        layer.Put(id, [&status](core::IoStatus st) { status = st; });
        sim.Run();
        return status;
    }
};

// ---------------------------------------------------------------------------
// Write placement: the first channel not writing, walking from id % n
// ---------------------------------------------------------------------------

TEST(BlockLayer, IdleDeviceRoundRobinsConsecutiveIds)
{
    // With the simulation run between puts every channel is idle, so each
    // ID lands on its hash channel: the paper's round-robin.
    Fixture f;
    const uint32_t channels = f.device.channel_count();
    for (uint64_t id = 0; id < 2 * channels; ++id) {
        EXPECT_TRUE(f.PutAndRun(id).ok());
        EXPECT_EQ(f.layer.ChannelOf(id), id % channels);
    }
    EXPECT_EQ(f.layer.stats().off_hash_writes, 0u);
}

TEST(BlockLayer, WriteWalksPastWritingChannelsToAnIdleOne)
{
    Fixture f;
    const uint32_t channels = f.device.channel_count();
    ASSERT_EQ(channels, 4u);
    f.layer.Put(2, nullptr);
    f.layer.Put(3, nullptr);
    // Its hash channel 2 and the next, 3, are writing: it wraps to 0.
    const uint64_t id = 2 + channels;
    EXPECT_EQ(f.layer.ChannelOf(id), 2u);  // Not stored: the hash channel.
    f.layer.Put(id, nullptr);
    f.sim.Run();
    EXPECT_EQ(f.layer.ChannelOf(id), 0u);
    EXPECT_GT(f.device.flash().channel(0).stats().programs, 0u);
    EXPECT_EQ(f.device.flash().channel(1).stats().programs, 0u);
    EXPECT_EQ(f.layer.stats().off_hash_writes, 1u);
    bool ok = false;
    f.layer.Get(id, 0, f.device.read_unit_bytes(), [&](bool s) { ok = s; });
    f.sim.Run();
    EXPECT_TRUE(ok);
}

TEST(BlockLayer, WithEveryChannelWritingTheFewestWinsFirstInHashOrder)
{
    Fixture f;
    ASSERT_EQ(f.device.channel_count(), 4u);
    for (uint64_t id = 0; id < 4; ++id) f.layer.Put(id, nullptr);
    // One write on every channel: a tie, won by the hash channel.
    f.layer.Put(4, nullptr);  // Hash 0.
    f.layer.Put(6, nullptr);  // Hash 2.
    // Writes per channel are now 2, 1, 2, 1. Walking from 2, channel 3
    // comes before channel 1.
    f.layer.Put(10, nullptr);  // Hash 2.
    f.sim.Run();
    EXPECT_EQ(f.layer.ChannelOf(4), 0u);
    EXPECT_EQ(f.layer.ChannelOf(6), 2u);
    EXPECT_EQ(f.layer.ChannelOf(10), 3u);
}

TEST(BlockLayer, DeadAndFullChannelsAreSkipped)
{
    Fixture f;
    const uint32_t channels = f.device.channel_count();
    const uint32_t units = f.device.units_per_channel();
    ASSERT_EQ(channels, 4u);
    // Fill channel 2: each put finds it idle.
    for (uint32_t u = 0; u < units; ++u) {
        const uint64_t id = uint64_t{u} * channels + 2;
        ASSERT_TRUE(f.PutAndRun(id).ok());
        ASSERT_EQ(f.layer.ChannelOf(id), 2u);
    }
    f.device.flash().channel(1).InjectDeath();

    // Hash 1 is dead and 2 is full: channel 3.
    const uint64_t next = uint64_t{units} * channels;
    EXPECT_TRUE(f.PutAndRun(next + 1).ok());
    EXPECT_EQ(f.layer.ChannelOf(next + 1), 3u);
    // Hash 2 is full: channel 3 again, idle once the last put is done.
    EXPECT_TRUE(f.PutAndRun(next + 2).ok());
    EXPECT_EQ(f.layer.ChannelOf(next + 2), 3u);
    EXPECT_EQ(f.layer.stats().off_hash_writes, 2u);
}

TEST(BlockLayer, PutFailsWithNoSpaceOnlyWhenNoLiveChannelHasAUnit)
{
    Fixture f;
    const uint32_t channels = f.device.channel_count();
    const uint32_t units = f.device.units_per_channel();
    ASSERT_EQ(channels, 4u);
    f.device.flash().channel(0).InjectDeath();
    // Hashes 0 and 1 both land on channel 1, which fills first; the
    // writes then move on to the channels that still have units.
    const uint64_t live_units = uint64_t{channels - 1} * units;
    for (uint64_t id = 0; id < live_units; ++id) {
        EXPECT_TRUE(f.PutAndRun(id).ok()) << "id " << id;
    }
    EXPECT_EQ(f.layer.FreeUnits(), units);  // The dead channel's.
    EXPECT_EQ(f.layer.stats().failed_ops, 0u);

    // No live channel has a unit left. A write goes to its hash channel
    // and fails there: full (hash 1), or dead (hash 0).
    const uint64_t next = uint64_t{channels} * units;
    EXPECT_EQ(f.PutAndRun(next + 1).error, core::IoError::kNoSpace);
    EXPECT_EQ(f.PutAndRun(next).error, core::IoError::kChannelDead);
    EXPECT_EQ(f.layer.stats().failed_ops, 2u);
}

TEST(BlockLayer, QueuedWritesCountAgainstAChannelsUnits)
{
    // Two channels of six units; channel 0 is left with two.
    core::SdfConfig dev = TinyConfig();
    dev.flash.geometry.channels = 2;
    Fixture f({}, dev);
    ASSERT_EQ(f.device.units_per_channel(), 6u);
    for (uint64_t id = 0; id < 8; id += 2) ASSERT_TRUE(f.PutAndRun(id).ok());
    ASSERT_EQ(f.layer.Units(0).clean, 2u);

    // Back to back: 100 writes on channel 0 and 102 queues behind it,
    // which takes channel 0's last unit, so 104 goes to channel 1.
    std::vector<core::IoStatus> status(5, core::IoError::kWriteFailed);
    for (uint64_t i = 0; i < 5; ++i) {
        f.layer.Put(100 + i, [&status, i](core::IoStatus st) { status[i] = st; });
    }
    f.sim.Run();
    for (uint64_t i = 0; i < 5; ++i) {
        EXPECT_TRUE(status[i].ok()) << "id " << 100 + i;
    }
    EXPECT_EQ(f.layer.ChannelOf(102), 0u);
    EXPECT_EQ(f.layer.ChannelOf(104), 1u);
    EXPECT_EQ(f.layer.stats().failed_ops, 0u);
}

TEST(BlockLayer, WriteFailedOnADeadChannelIsPlacedAgain)
{
    Fixture f;
    const uint32_t channels = f.device.channel_count();
    ASSERT_EQ(channels, 4u);
    // The write is on channel 1 when the channel dies.
    core::IoStatus status = core::IoError::kWriteFailed;
    f.layer.Put(1, [&](core::IoStatus st) { status = st; });
    f.device.flash().channel(1).InjectDeath();
    f.sim.Run();
    EXPECT_TRUE(status.ok());
    EXPECT_EQ(f.layer.ChannelOf(1), 2u);
    EXPECT_EQ(f.layer.stats().redirected_writes, 1u);
    EXPECT_EQ(f.layer.stats().failed_ops, 0u);
}

TEST(BlockLayer, PutThenGetRoundTrips)
{
    Fixture f({}, TinyConfig(/*payloads=*/true));
    const auto payload =
        util::MakeDeterministicPayload(f.layer.block_bytes(), 5);
    bool put_ok = false;
    f.layer.Put(7, [&](bool ok) { put_ok = ok; }, payload.data());
    f.sim.Run();
    EXPECT_TRUE(put_ok);
    EXPECT_TRUE(f.layer.Exists(7));

    std::vector<uint8_t> out;
    bool get_ok = false;
    f.layer.Get(7, 0, f.layer.block_bytes(), [&](bool ok) { get_ok = ok; },
                &out);
    f.sim.Run();
    EXPECT_TRUE(get_ok);
    EXPECT_EQ(out, payload);
}

TEST(BlockLayer, IdsAreWriteOnce)
{
    Fixture f;
    f.layer.Put(1, nullptr);
    f.sim.Run();
    bool second_ok = true;
    f.layer.Put(1, [&](bool ok) { second_ok = ok; });
    f.sim.Run();
    EXPECT_FALSE(second_ok);
    EXPECT_EQ(f.layer.stats().failed_ops, 1u);
}

TEST(BlockLayer, GetOfMissingIdFails)
{
    Fixture f;
    bool ok = true;
    f.layer.Get(99, 0, 8192, [&](bool s) { ok = s; });
    f.sim.Run();
    EXPECT_FALSE(ok);
}

TEST(BlockLayer, DeleteFreesSpaceForReuse)
{
    Fixture f;
    const uint64_t free_before = f.layer.FreeUnits();
    f.layer.Put(3, nullptr);
    f.sim.Run();
    EXPECT_EQ(f.layer.FreeUnits(), free_before - 1);
    EXPECT_TRUE(f.layer.Delete(3));
    EXPECT_EQ(f.layer.FreeUnits(), free_before);
    EXPECT_FALSE(f.layer.Delete(3));
    EXPECT_FALSE(f.layer.Exists(3));
}

TEST(BlockLayer, ReusedUnitsGetInlineErase)
{
    BlockLayerConfig cfg;
    cfg.erase_policy = ErasePolicy::kEraseOnWrite;
    Fixture f(cfg);
    const uint32_t channels = f.device.channel_count();
    const uint32_t units = f.device.units_per_channel();

    // Fill channel 0 completely, then delete and rewrite: the rewrite's
    // erase runs inline. Each put finds channel 0 idle.
    for (uint32_t u = 0; u < units; ++u) {
        ASSERT_TRUE(f.PutAndRun(uint64_t{u} * channels).ok());
        ASSERT_EQ(f.layer.ChannelOf(uint64_t{u} * channels), 0u);
    }
    for (uint32_t u = 0; u < units; ++u) {
        f.layer.Delete(uint64_t{u} * channels);
    }
    const uint64_t inline_before = f.layer.stats().inline_erases;
    f.layer.Put(uint64_t{units} * channels, nullptr);
    f.sim.Run();
    EXPECT_GT(f.layer.stats().inline_erases, inline_before);
}

TEST(BlockLayer, BackgroundPolicyErasesDuringIdle)
{
    BlockLayerConfig cfg;
    cfg.erase_policy = ErasePolicy::kBackground;
    Fixture f(cfg);
    f.layer.Put(0, nullptr);
    f.sim.Run();
    f.layer.Delete(0);
    f.sim.Run();  // Idle: the background erase should run now.
    EXPECT_EQ(f.layer.stats().background_erases, 1u);
    EXPECT_EQ(f.layer.FreeUnits(),
              uint64_t{f.device.channel_count()} *
                  f.device.units_per_channel());
}

TEST(BlockLayer, ClientPriorityOvertakesInternal)
{
    Fixture f({}, OneChannelConfig());
    ASSERT_TRUE(f.layer.DebugInstall(0));
    ASSERT_TRUE(f.layer.DebugInstall(1));

    // Occupy the channel with a write, then queue an internal read and a
    // client read behind it; the client read must finish first.
    f.layer.Put(2, nullptr);
    util::TimeNs internal_done = 0, client_done = 0;
    f.layer.Get(0, 0, 8192, [&](bool) { internal_done = f.sim.Now(); },
                nullptr, kInternalPriority);
    f.layer.Get(1, 0, 8192, [&](bool) { client_done = f.sim.Now(); },
                nullptr, kClientPriority);
    f.sim.Run();
    EXPECT_GT(client_done, 0);
    EXPECT_LT(client_done, internal_done);
}

TEST(BlockLayer, ReadsOvertakeQueuedWrites)
{
    Fixture f({}, OneChannelConfig());
    ASSERT_TRUE(f.layer.DebugInstall(0));

    // Queue: running write, then a queued write, then a read. The read
    // overtakes the queued write, so it runs beside the running write
    // and ends first; behind the queued write it would wait for the
    // running one.
    util::TimeNs running_done = 0, queued_done = 0, read_done = 0;
    f.layer.Put(1, [&](bool) { running_done = f.sim.Now(); });
    f.layer.Put(2, [&](bool) { queued_done = f.sim.Now(); });
    f.layer.Get(0, 0, 8192, [&](bool) { read_done = f.sim.Now(); });
    f.sim.Run();
    EXPECT_GT(read_done, 0);
    EXPECT_LT(read_done, running_done);
    EXPECT_LT(running_done, queued_done);
}

TEST(BlockLayer, ClientReadRunsBesideInFlightWrite)
{
    Fixture f;
    ASSERT_TRUE(f.layer.DebugInstall(0));
    util::TimeNs write_done = 0, read_done = 0;
    f.layer.Put(4, [&](bool) { write_done = f.sim.Now(); });
    // The write is on the device now; the client read still goes first.
    f.layer.Get(0, 0, 8192, [&](bool) { read_done = f.sim.Now(); });
    f.sim.Run();
    EXPECT_GT(read_done, 0);
    EXPECT_LT(read_done, write_done);
}

TEST(BlockLayer, PiecedInternalReadReturnsTheClientReadsBytes)
{
    Fixture f({}, TinyConfig(/*payloads=*/true));
    const auto payload =
        util::MakeDeterministicPayload(f.layer.block_bytes(), 31);
    f.layer.Put(2, nullptr, payload.data());
    f.sim.Run();
    // Longer than one piece, so the internal read goes out in pieces.
    ASSERT_GT(f.layer.block_bytes(),
              uint64_t{kPieceReadUnits} * f.device.read_unit_bytes());

    // The internal read starts one page in, so pieces land at an offset
    // from the read's own start.
    const uint32_t page = f.device.read_unit_bytes();
    std::vector<uint8_t> client, internal;
    int client_done = 0, internal_done = 0;
    f.layer.Get(2, 0, f.layer.block_bytes(),
                [&](bool ok) { client_done += ok ? 1 : 100; }, &client,
                kClientPriority);
    f.layer.Get(2, page, f.layer.block_bytes() - page,
                [&](bool ok) { internal_done += ok ? 1 : 100; }, &internal,
                kInternalPriority);
    f.sim.Run();
    EXPECT_EQ(client_done, 1);
    EXPECT_EQ(internal_done, 1);
    EXPECT_EQ(client, payload);
    EXPECT_EQ(internal, std::vector<uint8_t>(client.begin() + page,
                                             client.end()));
}

TEST(BlockLayer, BlockDeletedBetweenPiecesFailsOnceWithNotFound)
{
    Fixture f;
    ASSERT_TRUE(f.layer.DebugInstall(2));
    int calls = 0;
    core::IoStatus status;
    f.layer.Get(2, 0, f.layer.block_bytes(),
                [&](core::IoStatus st) {
                    ++calls;
                    status = st;
                },
                nullptr, kInternalPriority);
    // The first two pieces are on the device; the rest find no block.
    EXPECT_TRUE(f.layer.Delete(2));
    f.sim.Run();
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(status.error, core::IoError::kNotFound);
    EXPECT_EQ(f.layer.stats().failed_ops, 1u);
}

TEST(BlockLayer, UncorrectablePiecesLoseTheBlockOnce)
{
    Fixture f;
    ASSERT_TRUE(f.layer.DebugInstall(2));
    const uint32_t ch = f.layer.ChannelOf(2);
    // Corrupt the first page of every block on planes 0 and 1, where the
    // two pieces in flight first land: both fail past the retry ladder.
    const nand::Geometry &geo = f.device.flash().geometry();
    for (uint32_t plane = 0; plane < 2; ++plane) {
        for (uint32_t b = 0; b < geo.blocks_per_plane; ++b) {
            f.device.flash().channel(ch).CorruptPage({plane, b, 0});
        }
    }
    int calls = 0;
    core::IoStatus status;
    f.layer.Get(2, 0, f.layer.block_bytes(),
                [&](core::IoStatus st) {
                    ++calls;
                    status = st;
                },
                nullptr, kInternalPriority);
    f.sim.Run();
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(status.error, core::IoError::kReadUncorrectable);
    EXPECT_EQ(f.layer.stats().lost_blocks, 1u);
    EXPECT_FALSE(f.layer.Exists(2));
}

TEST(BlockLayer, ClientReadIssuesBesideTwoBackgroundPieces)
{
    // One production channel: a whole-unit read takes ~221 ms there.
    sim::Simulator sim;
    core::SdfConfig cfg = core::BaiduSdfConfig(0.04);
    cfg.flash.geometry.channels = 1;
    core::SdfDevice device(sim, cfg);
    BlockLayer layer(sim, device, {});
    ASSERT_TRUE(layer.DebugInstall(0));
    ASSERT_TRUE(layer.DebugInstall(1));
    // The client read's page is on plane 1; the scan starts on plane 0.
    const uint64_t client_offset = device.unit_bytes() / 4;

    // The client read alone on the idle channel.
    util::TimeNs idle_read = 0;
    layer.Get(1, client_offset, device.read_unit_bytes(),
              [&](bool) { idle_read = sim.Now(); });
    sim.Run();

    // The scan puts two pieces on the device: its first page senses
    // [1, 61 us) and goes out on the bus from 61 us. The client read
    // comes 100 us in, with both pieces in flight.
    const util::TimeNs t0 = sim.Now();
    const util::TimeNs page_bus =
        cfg.flash.timing.BusTime(device.read_unit_bytes());
    const util::TimeNs tr = cfg.flash.timing.read_page;
    const util::TimeNs engine = util::UsToNs(1);  // sdf_device.cc.
    util::TimeNs internal_done = 0, client_latency = 0;
    layer.Get(0, 0, layer.block_bytes(),
              [&](bool) { internal_done = sim.Now() - t0; }, nullptr,
              kInternalPriority);
    const util::TimeNs issue = util::UsToNs(100);
    sim.ScheduleAt(t0 + issue, [&]() {
        layer.Get(1, client_offset, device.read_unit_bytes(),
                  [&](bool) { client_latency = sim.Now() - t0 - issue; });
    });
    sim.Run();
    // It issues at once on its own slots, senses [101, 161 us) and goes
    // out right after the page in progress, ahead of the three the
    // pieces still have queued: an idle read plus the rest of that page.
    const util::TimeNs in_progress_end = engine + tr + page_bus;
    const util::TimeNs sensed = issue + engine + tr;
    EXPECT_EQ(client_latency, idle_read + in_progress_end - sensed);
    EXPECT_LT(client_latency, idle_read + page_bus);
    EXPECT_EQ(device.stats().bus_overtakes, 1u);
    // Pieces keep the bus as busy as one read: the scan, with the client
    // read slotted in, ends no later than an uncontended whole-unit read
    // (SdfDevice.UncontendedUnitTimingIsPinned).
    EXPECT_GT(internal_done, util::MsToNs(200));
    EXPECT_LE(internal_done, 221402845);
}

// ---------------------------------------------------------------------------
// Unit accounting under random traffic and channel deaths
// ---------------------------------------------------------------------------

class UnitAccounting
    : public ::testing::TestWithParam<std::tuple<ErasePolicy, uint64_t>>
{};

TEST_P(UnitAccounting, EveryUnitIsInOnePlaceAtEveryEvent)
{
    const auto [policy, seed] = GetParam();
    BlockLayerConfig cfg;
    cfg.erase_policy = policy;
    Fixture f(cfg);
    const uint32_t channels = f.device.channel_count();
    const uint32_t units = f.device.units_per_channel();
    util::Rng rng(seed);
    std::vector<uint64_t> stored;
    uint64_t next_id = 0, stored_total = 0, no_space = 0, gets = 0;
    std::string failure;

    // 400 puts, gets and deletes, a third of them in bursts at one
    // instant, so writes queue behind writes.
    util::TimeNs last = 0;
    for (int i = 0; i < 400; ++i) {
        if (!rng.NextBool(0.3)) {
            last += static_cast<util::TimeNs>(rng.NextBelow(util::UsToNs(300)));
        }
        f.sim.ScheduleAt(last, [&]() {
            const double r = rng.NextDouble();
            if (r < 0.45 || stored.empty()) {
                // A live channel with a unit no write has claimed.
                int room = -1;
                for (uint32_t ch = 0; ch < channels && room < 0; ++ch) {
                    const BlockLayer::UnitCounts n = f.layer.Units(ch);
                    if (!f.device.ChannelDead(ch) &&
                        n.clean + n.dirty + n.erasing > n.queued_writes) {
                        room = static_cast<int>(ch);
                    }
                }
                const uint64_t id = next_id++;
                f.layer.Put(id, [&, id, room](core::IoStatus st) {
                    if (st.ok()) {
                        stored.push_back(id);
                        ++stored_total;
                    } else if (st.error == core::IoError::kNoSpace) {
                        ++no_space;
                        if (room >= 0 && failure.empty()) {
                            failure = "put " + std::to_string(id) +
                                      " kNoSpace beside channel " +
                                      std::to_string(room);
                        }
                    }
                });
            } else if (r < 0.75) {
                const uint64_t id = stored[rng.NextBelow(stored.size())];
                const uint64_t pages = 1 + rng.NextBelow(8);
                ++gets;
                f.layer.Get(id, 0, pages * f.device.read_unit_bytes(),
                            nullptr, nullptr,
                            rng.NextBool(0.5) ? kClientPriority
                                              : kInternalPriority);
            } else {
                const size_t k = rng.NextBelow(stored.size());
                f.layer.Delete(stored[k]);
                stored.erase(stored.begin() + static_cast<long>(k));
            }
        });
    }
    // Two channels die partway through.
    for (int k = 0; k < 2; ++k) {
        const auto ch = static_cast<uint32_t>(rng.NextBelow(channels));
        f.sim.ScheduleAt(
            static_cast<util::TimeNs>(rng.NextBelow(last)),
            [&f, ch]() { f.device.flash().channel(ch).InjectDeath(); });
    }

    uint64_t events = 0;
    f.sim.RunWhileNot([&]() {
        ++events;
        for (uint32_t ch = 0; ch < channels && failure.empty(); ++ch) {
            const BlockLayer::UnitCounts n = f.layer.Units(ch);
            if (n.clean + n.dirty + n.erasing + n.writing + n.stored !=
                units) {
                failure = "channel " + std::to_string(ch) + " at event " +
                          std::to_string(events) + ": clean " +
                          std::to_string(n.clean) + " dirty " +
                          std::to_string(n.dirty) + " erasing " +
                          std::to_string(n.erasing) + " writing " +
                          std::to_string(n.writing) + " stored " +
                          std::to_string(n.stored);
            }
        }
        return !failure.empty();
    });
    EXPECT_EQ(failure, "");
    // The schedule did what it is for: blocks were stored and read, and
    // some puts found no space.
    EXPECT_GT(stored_total, 2u * units);
    EXPECT_GT(gets, 20u);
    EXPECT_GT(no_space, 0u);
    EXPECT_GT(events, 1000u);
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesAndSeeds, UnitAccounting,
    ::testing::Combine(::testing::Values(ErasePolicy::kEraseOnWrite,
                                         ErasePolicy::kBackground),
                       ::testing::Values(1ull, 2ull, 3ull, 4ull)));

TEST(BlockLayer, PartialRangeGet)
{
    Fixture f({}, TinyConfig(/*payloads=*/true));
    const auto payload =
        util::MakeDeterministicPayload(f.layer.block_bytes(), 21);
    f.layer.Put(2, nullptr, payload.data());
    f.sim.Run();

    const uint32_t page = f.device.read_unit_bytes();
    std::vector<uint8_t> out;
    bool ok = false;
    f.layer.Get(2, 3 * page, 2 * page, [&](bool s) { ok = s; }, &out);
    f.sim.Run();
    ASSERT_TRUE(ok);
    ASSERT_EQ(out.size(), 2u * page);
    EXPECT_EQ(0, std::memcmp(out.data(), payload.data() + 3 * page, 2 * page));
}

TEST(BlockLayer, DebugInstallBypassesTime)
{
    Fixture f;
    EXPECT_TRUE(f.layer.DebugInstall(10));
    EXPECT_EQ(f.sim.Now(), 0);
    EXPECT_TRUE(f.layer.Exists(10));
    EXPECT_FALSE(f.layer.DebugInstall(10));  // Duplicate.
}

}  // namespace
}  // namespace sdf::blocklayer
