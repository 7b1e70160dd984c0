/**
 * @file
 * Tests for the workload layer: preloading and the raw-device drivers'
 * measurement discipline.
 */
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "blocklayer/block_layer.h"
#include "kv/patch_storage.h"
#include "kv/slice.h"
#include "sdf/sdf_device.h"
#include "sim/simulator.h"
#include "testbed/testbed.h"
#include "workload/kv_driver.h"
#include "workload/raw_device.h"
#include "workload/ycsb.h"

namespace sdf::workload {
namespace {

core::SdfConfig
FastSdf()
{
    core::SdfConfig c = core::BaiduSdfConfig(0.02);
    c.flash.timing = nand::FastTestTiming();
    return c;
}

// ---------------------------------------------------------------------------
// Preload
// ---------------------------------------------------------------------------

TEST(Preload, KeysAreUniqueAndSliceTagged)
{
    sim::Simulator sim;
    core::SdfDevice device(sim, FastSdf());
    blocklayer::BlockLayer layer(sim, device, {});
    kv::SdfPatchStorage storage(layer);
    kv::IdAllocator ids;
    kv::Slice a(sim, storage, ids, {});
    kv::Slice b(sim, storage, ids, {});

    const auto keys =
        PreloadSlices({&a, &b}, 64 * util::kMiB, 256 * util::kKiB);
    ASSERT_EQ(keys.size(), 2u);
    std::set<uint64_t> all;
    for (const auto &slice_keys : keys) {
        for (uint64_t k : slice_keys) {
            EXPECT_TRUE(all.insert(k).second) << "duplicate key " << k;
        }
    }
    // Slice tags (key >> 40) distinguish the two slices.
    EXPECT_EQ(keys[0][0] >> 40, 0u);
    EXPECT_EQ(keys[1][0] >> 40, 1u);
}

TEST(Preload, StopsAtStorageCapacity)
{
    sim::Simulator sim;
    core::SdfConfig cfg;
    cfg.flash.geometry = nand::TinyTestGeometry();
    cfg.flash.timing = nand::FastTestTiming();
    cfg.link = controller::UnlimitedLinkSpec();
    cfg.spare_blocks_per_plane = 2;
    core::SdfDevice device(sim, cfg);
    blocklayer::BlockLayer layer(sim, device, {});
    kv::SdfPatchStorage storage(layer);
    kv::IdAllocator ids;
    kv::Slice slice(sim, storage, ids, {});

    // Ask for far more than the tiny device holds; preload must stop
    // gracefully with however much fits.
    const auto keys =
        PreloadSlices({&slice}, 100 * util::kGiB, 16 * util::kKiB);
    EXPECT_GT(keys[0].size(), 0u);
    EXPECT_LT(keys[0].size(), 100ull * util::kGiB / (16 * util::kKiB));
    EXPECT_EQ(layer.FreeUnits(), 0u);
}

TEST(Preload, StoreKeysAreReadableThroughTheStore)
{
    // Slice-tagged PreloadSlices keys bypass the store's hash routing;
    // PreloadStore installs each key where Store::Get will look for it.
    sim::Simulator sim;
    testbed::KvStackConfig kc;
    kc.stack.capacity_scale = 0.02;
    kc.stack.with_io_stack = false;
    kc.store.slice_count = 4;
    testbed::KvStack stack = testbed::BuildKvStack(sim, kc);
    const auto keys = PreloadStore(*stack.store, 2000, 16 * util::kKiB);
    ASSERT_EQ(keys.size(), 2000u);
    EXPECT_EQ(keys.front(), 1u);
    EXPECT_EQ(keys.back(), 2000u);

    YcsbConfig cfg;
    cfg.actors = 8;
    cfg.duration = util::MsToNs(50);
    cfg.phases = {UniformMix(1.0)};
    const YcsbResult r = RunYcsb(sim, ServiceFor(*stack.store), keys, cfg);
    EXPECT_GT(r.ok_reads, 100u);
    EXPECT_EQ(r.misses, 0u);
    EXPECT_EQ(r.errors, 0u);
}

// ---------------------------------------------------------------------------
// Raw drivers: measurement discipline
// ---------------------------------------------------------------------------

TEST(RawDrivers, WarmupExcludedFromThroughput)
{
    // A device that is twice as fast during the warmup would corrupt the
    // numbers if warmup were counted; instead verify ops*size == bytes.
    sim::Simulator sim;
    core::SdfDevice device(sim, core::BaiduSdfConfig(0.02));
    host::IoStack stack(sim, host::SdfUserStackSpec());
    PreconditionSdf(device);
    RawRunConfig run;
    run.warmup = util::MsToNs(100);
    run.duration = util::MsToNs(500);
    const RawResult r =
        RunSdfRandomReads(sim, device, stack, 8, 64 * util::kKiB, run);
    EXPECT_GT(r.operations, 0u);
    // Throughput consistent with the op count over the window.
    const double expect_mbps = util::BandwidthMBps(
        r.operations * 64 * util::kKiB, run.duration);
    EXPECT_NEAR(r.mbps, expect_mbps, expect_mbps * 0.01 + 0.1);
}

TEST(RawDrivers, WriteLatenciesIncludeErase)
{
    sim::Simulator sim;
    core::SdfDevice device(sim, core::BaiduSdfConfig(0.02));
    host::IoStack stack(sim, host::SdfUserStackSpec());
    PreconditionSdf(device);
    RawRunConfig run;
    run.warmup = util::MsToNs(100);
    run.duration = util::SecToNs(2.0);
    const RawResult r = RunSdfWrites(sim, device, stack, 2, run);
    ASSERT_GT(r.latencies.count(), 0u);
    // Erase (3 ms) + program-bound write: each op well above 300 ms.
    EXPECT_GT(r.latencies.MinMs(), 300.0);
}

}  // namespace
}  // namespace sdf::workload
