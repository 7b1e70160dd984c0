/**
 * @file
 * Unit tests for the user-space block layer: write placement, erase
 * scheduling policies, the read-first queue with its priority classes,
 * pieced background reads, and data integrity.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "blocklayer/block_layer.h"
#include "sdf/sdf_device.h"
#include "sim/simulator.h"
#include "util/fingerprint.h"

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

TEST(BlockLayer, ClientReadWaitsForAtMostTwoPiecesOfABackgroundRead)
{
    // One production channel: a whole-unit read takes ~221 ms there.
    sim::Simulator sim;
    core::SdfConfig cfg = core::BaiduSdfConfig(0.04);
    cfg.flash.geometry.channels = 1;
    core::SdfDevice device(sim, cfg);
    BlockLayer layer(sim, device, {});
    ASSERT_TRUE(layer.DebugInstall(0));
    ASSERT_TRUE(layer.DebugInstall(1));

    // The client read alone on the idle channel.
    util::TimeNs idle_read = 0;
    layer.Get(1, 0, device.read_unit_bytes(),
              [&](bool) { idle_read = sim.Now(); });
    sim.Run();

    const util::TimeNs t0 = sim.Now();
    util::TimeNs internal_done = 0, client_latency = 0;
    layer.Get(0, 0, layer.block_bytes(),
              [&](bool) { internal_done = sim.Now() - t0; }, nullptr,
              kInternalPriority);
    layer.Get(1, 0, device.read_unit_bytes(),
              [&](bool) { client_latency = sim.Now() - t0; });
    sim.Run();
    // It completes, and waits for at most the bus time of the two pieces
    // in flight: four 8 KB pages at 16 KB a piece.
    const util::TimeNs page_bus =
        cfg.flash.timing.BusTime(device.read_unit_bytes());
    EXPECT_GE(client_latency, idle_read);
    EXPECT_LE(client_latency, idle_read + 4 * page_bus);
    // Pieces keep the bus as busy as one read: the scan, with the client
    // read slotted in, ends no later than an uncontended whole-unit read
    // (SdfDevice.UncontendedUnitTimingIsPinned).
    EXPECT_GT(internal_done, util::MsToNs(200));
    EXPECT_LE(internal_done, 221402845);
}

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
