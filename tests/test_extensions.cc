/**
 * @file
 * Tests for the paper's future-work extensions implemented here: KV
 * deletion (tombstones), the load-balance-aware block-layer scheduler,
 * the in-storage scan offload, and the exposed wear/reliability report.
 */
#include <gtest/gtest.h>

#include <memory>

#include "blocklayer/block_layer.h"
#include "kv/patch_storage.h"
#include "kv/slice.h"
#include "sdf/sdf_device.h"
#include "sim/simulator.h"

namespace sdf {
namespace {

core::SdfConfig
TinyConfig()
{
    core::SdfConfig c;
    c.flash.geometry = nand::TinyTestGeometry();
    c.flash.timing = nand::FastTestTiming();
    c.link = controller::UnlimitedLinkSpec();
    c.spare_blocks_per_plane = 2;
    c.irq.coalesce = false;
    return c;
}

// ---------------------------------------------------------------------------
// KV tombstones
// ---------------------------------------------------------------------------

struct SliceFixture
{
    sim::Simulator sim;
    core::SdfDevice device;
    blocklayer::BlockLayer layer;
    kv::BlockPatchStorage storage;
    kv::IdAllocator ids;
    kv::Slice slice;

    explicit SliceFixture(kv::SliceConfig cfg = {})
        : device(sim, MakeCfg()), layer(sim, device, {}), storage(layer),
          slice(sim, storage, ids, cfg)
    {
    }

    static core::SdfConfig
    MakeCfg()
    {
        core::SdfConfig c = core::BaiduSdfConfig(0.02);
        c.flash.timing = nand::FastTestTiming();
        return c;
    }

    kv::GetResult
    Get(uint64_t key)
    {
        kv::GetResult result;
        slice.Get(key, [&](const kv::GetResult &r) { result = r; });
        sim.Run();
        return result;
    }
};

TEST(Tombstones, DeleteHidesMemtableValue)
{
    SliceFixture f;
    f.slice.Put(1, 1000, nullptr);
    f.slice.Delete(1, nullptr);
    f.sim.Run();
    EXPECT_FALSE(f.Get(1).found);
    EXPECT_EQ(f.slice.stats().deletes, 1u);
}

TEST(Tombstones, DeleteShadowsFlushedValue)
{
    SliceFixture f;
    f.slice.Put(7, 100 * 1024, nullptr);
    f.slice.Flush();
    f.sim.Run();
    EXPECT_TRUE(f.Get(7).found);

    f.slice.Delete(7, nullptr);
    f.sim.Run();
    EXPECT_FALSE(f.Get(7).found);

    // Still deleted after the tombstone itself flushes.
    f.slice.Flush();
    f.sim.Run();
    EXPECT_FALSE(f.Get(7).found);
}

TEST(Tombstones, ReinsertAfterDeleteResurrects)
{
    SliceFixture f;
    f.slice.Put(3, 2048, nullptr);
    f.slice.Flush();
    f.sim.Run();
    f.slice.Delete(3, nullptr);
    f.slice.Flush();
    f.sim.Run();
    f.slice.Put(3, 4096, nullptr);
    f.sim.Run();
    const auto r = f.Get(3);
    EXPECT_TRUE(r.found);
    EXPECT_EQ(r.value_size, 4096u);
}

TEST(Tombstones, BottomLevelCompactionDropsMarkers)
{
    kv::SliceConfig cfg;
    cfg.compaction_trigger = 2;
    cfg.max_levels = 2;  // L0 compacts straight into the bottom level.
    SliceFixture f(cfg);

    for (uint64_t k = 0; k < 8; ++k) f.slice.Put(k, 100 * 1024, nullptr);
    f.slice.Flush();
    f.sim.Run();
    for (uint64_t k = 0; k < 4; ++k) f.slice.Delete(k, nullptr);
    f.slice.Flush();
    f.sim.Run();

    EXPECT_GE(f.slice.stats().compactions, 1u);
    EXPECT_GT(f.slice.stats().tombstones_dropped, 0u);
    for (uint64_t k = 0; k < 4; ++k) EXPECT_FALSE(f.Get(k).found);
    for (uint64_t k = 4; k < 8; ++k) EXPECT_TRUE(f.Get(k).found);
    // The index holds only the live keys.
    EXPECT_EQ(f.slice.total_indexed_keys(), 4u);
}

TEST(Tombstones, MemtableChargesForMarkers)
{
    kv::MemTable mt(1000);
    kv::KvItem tomb{1, 0, nullptr, true};
    EXPECT_EQ(tomb.StorageCharge(), 64u);
    mt.Add(tomb);
    EXPECT_EQ(mt.bytes(), 64u);
}

// ---------------------------------------------------------------------------
// Load-balance-aware placement (block layer)
// ---------------------------------------------------------------------------

TEST(LoadBalance, SkewedIdsSpreadOverChannels)
{
    sim::Simulator sim;
    core::SdfDevice device(sim, TinyConfig());
    blocklayer::BlockLayer layer(sim, device, {});

    // Pathological skew: every ID hashes to channel 0.
    const uint32_t channels = device.channel_count();
    const int blocks = 3 * static_cast<int>(channels);
    int ok_count = 0;
    for (int i = 0; i < blocks; ++i) {
        layer.Put(uint64_t{static_cast<uint32_t>(i)} * channels,
                  [&](bool ok) { ok_count += ok; });
    }
    sim.Run();
    EXPECT_EQ(ok_count, blocks);

    // Each write goes to a channel that is not writing, so they spread
    // evenly.
    for (uint32_t c = 0; c < channels; ++c) {
        EXPECT_EQ(device.flash().channel(c).stats().programs,
                  device.flash().channel(0).stats().programs);
    }
}

TEST(LoadBalance, GetsStillFindRelocatedBlocks)
{
    sim::Simulator sim;
    core::SdfDevice device(sim, TinyConfig());
    blocklayer::BlockLayer layer(sim, device, {});
    const uint32_t channels = device.channel_count();
    for (int i = 0; i < 8; ++i) {
        layer.Put(uint64_t{static_cast<uint32_t>(i)} * channels, nullptr);
    }
    sim.Run();
    int found = 0;
    for (int i = 0; i < 8; ++i) {
        layer.Get(uint64_t{static_cast<uint32_t>(i)} * channels, 0, 8192,
                  [&](bool ok) { found += ok; });
    }
    sim.Run();
    EXPECT_EQ(found, 8);
}

// ---------------------------------------------------------------------------
// In-storage scan
// ---------------------------------------------------------------------------

TEST(InStorageScan, ReturnsMatchedFraction)
{
    sim::Simulator sim;
    core::SdfDevice device(sim, TinyConfig());
    device.DebugForceWritten(0, 0);
    uint64_t matched = 0;
    bool ok = false;
    device.ScanUnit(0, 0, 0.25, [&](bool s, uint64_t m) {
        ok = s;
        matched = m;
    });
    sim.Run();
    EXPECT_TRUE(ok);
    EXPECT_EQ(matched, device.unit_bytes() / 4);
    // The whole unit was read off the flash...
    EXPECT_EQ(device.stats().page_reads,
              device.unit_bytes() / device.read_unit_bytes());
    // ...but only the matches crossed the link (accounted as read bytes).
    EXPECT_EQ(device.stats().read_bytes, device.unit_bytes() / 4);
}

TEST(InStorageScan, RejectsBadSelectivity)
{
    sim::Simulator sim;
    core::SdfDevice device(sim, TinyConfig());
    bool ok = true;
    device.ScanUnit(0, 0, 1.5, [&](bool s, uint64_t) { ok = s; });
    sim.Run();
    EXPECT_FALSE(ok);
}

TEST(InStorageScan, LowSelectivityScanBeatsFullReadOnSlowLink)
{
    // With a constrained link, scanning in storage avoids moving the
    // non-matching bytes — the §5 "move compute to storage" payoff.
    core::SdfConfig cfg = TinyConfig();
    cfg.link.to_host_bytes_per_sec = 50e6;  // Deliberately slow.
    cfg.link.name = "slow-link";

    sim::Simulator sim;
    core::SdfDevice device(sim, cfg);
    device.DebugForceWritten(0, 0);
    device.DebugForceWritten(0, 1);

    util::TimeNs scan_done = 0, read_done = 0;
    device.ScanUnit(0, 0, 0.01,
                    [&](bool, uint64_t) { scan_done = sim.Now(); });
    sim.Run();
    const util::TimeNs t0 = sim.Now();
    device.Read(0, 1, 0, device.unit_bytes(),
                [&](bool) { read_done = sim.Now() - t0; });
    sim.Run();
    EXPECT_LT(scan_done, read_done / 2);
}

// ---------------------------------------------------------------------------
// Wear report
// ---------------------------------------------------------------------------

TEST(WearReport, TracksEraseCountsAndLife)
{
    sim::Simulator sim;
    core::SdfConfig cfg = TinyConfig();
    cfg.flash.errors.endurance_cycles = 100;
    core::SdfDevice device(sim, cfg);

    const auto fresh = device.GetWearReport();
    EXPECT_EQ(fresh.max_erase_count, 0u);
    EXPECT_DOUBLE_EQ(fresh.life_used, 0.0);
    EXPECT_EQ(fresh.rated_endurance, 100u);

    for (int i = 0; i < 20; ++i) {
        device.EraseUnit(0, 0, nullptr);
        sim.Run();
        device.WriteUnit(0, 0, nullptr);
        sim.Run();
    }
    const auto worn = device.GetWearReport();
    EXPECT_GT(worn.max_erase_count, 0u);
    EXPECT_GT(worn.mean_erase_count, 0.0);
    EXPECT_GT(worn.life_used, 0.0);
    EXPECT_LT(worn.life_used, 1.0);
    EXPECT_EQ(worn.dead_units, 0u);
}

}  // namespace
}  // namespace sdf
