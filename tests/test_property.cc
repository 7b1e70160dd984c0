/**
 * @file
 * Property-based and golden-model tests.
 *
 * Each suite drives a component with long randomized operation sequences
 * across a parameter grid and checks invariants against a trivially
 * correct in-memory reference ("golden model"): the KV slice against a
 * std::map, the block layer against an id set, the conventional SSD's
 * mapping bookkeeping against exhaustive recounts, quantiles against
 * sorting, and address striping against a brute-force inverse.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <set>

#include "blocklayer/block_layer.h"
#include "cluster/cluster.h"
#include "ftl/striping.h"
#include "kv/patch_storage.h"
#include "kv/slice.h"
#include "sdf/sdf_device.h"
#include "sim/simulator.h"
#include "ssd/conventional_ssd.h"
#include "util/histogram.h"
#include "util/rng.h"

namespace sdf {
namespace {

// ---------------------------------------------------------------------------
// KV slice vs golden map
// ---------------------------------------------------------------------------

/** Which storage backend hosts the slice under test. */
enum SliceBackend
{
    kOnSdf = 0,     ///< SdfDevice -> BlockLayer -> BlockPatchStorage.
    kOnSsdExtents,  ///< ConventionalSsd -> flat SsdPatchStorage.
};

class SliceGoldenTest
    : public ::testing::TestWithParam<std::tuple<
          uint32_t /*trigger*/, uint32_t /*levels*/, uint64_t /*seed*/,
          int /*SliceBackend*/>>
{
};

TEST_P(SliceGoldenTest, RandomOpsMatchReferenceMap)
{
    const auto [trigger, levels, seed, backend] = GetParam();

    sim::Simulator sim;
    // The same LSM logic must hold over every storage backend.
    std::unique_ptr<core::SdfDevice> sdf_device;
    std::unique_ptr<ssd::ConventionalSsd> ssd_device;
    std::unique_ptr<blocklayer::BlockLayer> layer;
    std::unique_ptr<kv::PatchStorage> storage;
    if (backend == kOnSsdExtents) {
        ssd::ConventionalSsdConfig scfg = ssd::HuaweiGen3Config(0.02);
        scfg.flash.timing = nand::FastTestTiming();
        ssd_device = std::make_unique<ssd::ConventionalSsd>(sim, scfg);
        storage = std::make_unique<kv::SsdPatchStorage>(*ssd_device,
                                                        8 * util::kMiB);
    } else {
        core::SdfConfig dev_cfg = core::BaiduSdfConfig(0.02);
        dev_cfg.flash.timing = nand::FastTestTiming();
        sdf_device = std::make_unique<core::SdfDevice>(sim, dev_cfg);
        layer = std::make_unique<blocklayer::BlockLayer>(
            sim, *sdf_device, blocklayer::BlockLayerConfig{});
        storage = std::make_unique<kv::BlockPatchStorage>(*layer);
    }
    kv::IdAllocator ids;
    kv::SliceConfig cfg;
    cfg.compaction_trigger = trigger;
    cfg.max_levels = levels;
    kv::SliceJournal journal;
    auto slice = std::make_unique<kv::Slice>(sim, *storage, ids, cfg,
                                             &journal);

    std::map<uint64_t, uint32_t> golden;  // key -> value size
    util::Rng rng(seed);
    const uint64_t key_space = 400;

    // Every key's get and a full-range collect must match the golden map.
    // The gets are checked as they complete, against the map as it is
    // now: callers issue no puts until they have drained.
    uint64_t answered = 0;
    uint64_t issued = 0;
    auto expect_golden = [&]() {
        std::map<uint64_t, uint32_t> range;
        slice->CollectRange(0, SIZE_MAX, range);
        EXPECT_EQ(range, golden);
        for (uint64_t key = 0; key < key_space; ++key) {
            auto it = golden.find(key);
            const bool present = it != golden.end();
            const uint32_t size = present ? it->second : 0;
            ++issued;
            slice->Get(key, [&answered, key, present,
                             size](const kv::GetResult &r) {
                ++answered;
                EXPECT_TRUE(r.ok) << "key " << key;
                EXPECT_EQ(r.found, present) << "key " << key;
                if (present) {
                    EXPECT_EQ(r.value_size, size) << "key " << key;
                }
            });
        }
    };
    // Check at steps through the compaction that starts next, if one
    // does before the queue drains: gets then race its reads, its merge,
    // and the drop of its inputs from the index and the device.
    uint64_t checks_mid_compaction = 0;
    auto check_through_compaction = [&]() {
        const uint64_t started = slice->stats().compactions;
        if (!sim.RunWhileNot(
                [&]() { return slice->stats().compactions > started; })) {
            return;
        }
        const std::vector<uint64_t> inputs_live = slice->AllPatchIds();
        for (int step = 0; step < 16 && slice->AllPatchIds() == inputs_live;
             ++step) {
            expect_golden();
            ++checks_mid_compaction;
            sim.RunUntil(sim.Now() + util::MsToNs(1));
        }
        expect_golden();
    };
    // At each drain point: through the compaction the ops' flushes start,
    // at rest, and through the compaction a forced flush starts.
    auto drain_and_check = [&]() {
        check_through_compaction();
        sim.Run();
        expect_golden();
        sim.Run();
        slice->Flush();
        check_through_compaction();
        sim.Run();
    };

    for (int op = 0; op < 1200; ++op) {
        const uint64_t key = rng.NextBelow(key_space);
        switch (rng.NextBelow(10)) {
          case 0:
          case 1:  // Delete.
            slice->Delete(key, nullptr);
            golden.erase(key);
            break;
          case 2:  // Forced flush now and then.
            slice->Flush();
            break;
          default: {  // Put.
            const auto size = static_cast<uint32_t>(
                4 * util::kKiB + rng.NextBelow(250 * util::kKiB));
            slice->Put(key, size, nullptr);
            golden[key] = size;
            break;
          }
        }
        if (op % 100 == 99) drain_and_check();
    }
    // Leave acked puts in the WAL for the restart to replay.
    for (uint64_t key = 0; key < 20; ++key) {
        slice->Put(key, 1000 + static_cast<uint32_t>(key), nullptr);
        golden[key] = 1000 + static_cast<uint32_t>(key);
    }
    sim.Run();
    expect_golden();
    sim.Run();

    // The exercise must actually have exercised the machinery.
    EXPECT_GT(slice->stats().flushes, 0u);
    if (trigger <= 4) {
        EXPECT_GT(slice->stats().compactions, 0u);
        EXPECT_GT(checks_mid_compaction, 0u);
    }

    // Restart over the journal: the rebuilt index, levels and memtable
    // must serve exactly the same data.
    ASSERT_FALSE(journal.wal.empty());
    slice->Detach();
    slice = std::make_unique<kv::Slice>(sim, *storage, ids, cfg, &journal);
    expect_golden();
    sim.Run();
    EXPECT_EQ(answered, issued);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SliceGoldenTest,
    ::testing::Values(std::tuple{2u, 2u, 1ull, kOnSdf},
                      std::tuple{3u, 3u, 2ull, kOnSdf},
                      std::tuple{4u, 4u, 3ull, kOnSdf},
                      std::tuple{2u, 4u, 4ull, kOnSdf},
                      std::tuple{6u, 2u, 5ull, kOnSdf},
                      std::tuple{2u, 2u, 6ull, kOnSsdExtents},
                      std::tuple{3u, 3u, 7ull, kOnSsdExtents},
                      std::tuple{6u, 2u, 8ull, kOnSsdExtents}));

// ---------------------------------------------------------------------------
// Block layer vs golden id set
// ---------------------------------------------------------------------------

class BlockLayerGoldenTest
    : public ::testing::TestWithParam<
          std::tuple<blocklayer::ErasePolicy, uint64_t>>
{
};

TEST_P(BlockLayerGoldenTest, RandomPutGetDeleteSequence)
{
    const auto [erase_policy, seed] = GetParam();

    sim::Simulator sim;
    core::SdfConfig dev_cfg;
    dev_cfg.flash.geometry = nand::TinyTestGeometry();
    dev_cfg.flash.timing = nand::FastTestTiming();
    dev_cfg.link = controller::UnlimitedLinkSpec();
    dev_cfg.spare_blocks_per_plane = 2;
    core::SdfDevice device(sim, dev_cfg);
    blocklayer::BlockLayerConfig cfg;
    cfg.erase_policy = erase_policy;
    blocklayer::BlockLayer layer(sim, device, cfg);

    std::set<uint64_t> golden;
    util::Rng rng(seed);
    const uint64_t capacity =
        uint64_t{device.channel_count()} * device.units_per_channel();
    uint64_t next_id = 0;

    for (int op = 0; op < 500; ++op) {
        const auto kind = rng.NextBelow(10);
        if (kind < 5 && golden.size() < capacity / 2) {
            const uint64_t id = next_id++;
            layer.Put(id, [&golden, id](bool ok) {
                if (ok) golden.insert(id);
            });
        } else if (kind < 8 && !golden.empty()) {
            // Get a random stored id.
            auto it = golden.begin();
            std::advance(it, static_cast<long>(rng.NextBelow(golden.size())));
            const uint64_t id = *it;
            layer.Get(id, 0, device.read_unit_bytes(), [id](bool ok) {
                EXPECT_TRUE(ok) << "stored id unreadable: " << id;
            });
        } else if (!golden.empty()) {
            auto it = golden.begin();
            std::advance(it, static_cast<long>(rng.NextBelow(golden.size())));
            sim.Run();  // Quiesce in-flight ops before deleting.
            if (layer.Delete(*it)) golden.erase(it);
        }
        if (op % 50 == 49) sim.Run();
    }
    sim.Run();

    // Exactly the golden ids exist.
    for (uint64_t id = 0; id < next_id; ++id) {
        EXPECT_EQ(layer.Exists(id), golden.count(id) != 0) << "id " << id;
    }
    // Accounting: stored + free == capacity.
    EXPECT_EQ(golden.size() + layer.FreeUnits(), capacity);
    // The SDF contract was never violated by the layer.
    EXPECT_EQ(device.stats().contract_violations, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, BlockLayerGoldenTest,
    ::testing::Values(
        std::tuple{blocklayer::ErasePolicy::kEraseOnWrite, 11ull},
        std::tuple{blocklayer::ErasePolicy::kBackground, 12ull},
        std::tuple{blocklayer::ErasePolicy::kEraseOnWrite, 13ull},
        std::tuple{blocklayer::ErasePolicy::kBackground, 14ull}));

// ---------------------------------------------------------------------------
// Conventional SSD: bookkeeping invariants under random traffic
// ---------------------------------------------------------------------------

class SsdInvariantTest
    : public ::testing::TestWithParam<std::tuple<double /*op*/, bool /*parity*/,
                                                 uint64_t /*seed*/>>
{
};

TEST_P(SsdInvariantTest, MappingStaysConsistentUnderChurn)
{
    const auto [op_ratio, parity, seed] = GetParam();

    sim::Simulator sim;
    ssd::ConventionalSsdConfig cfg;
    cfg.flash.geometry = nand::TinyTestGeometry();
    cfg.flash.geometry.channels = 4;
    cfg.flash.geometry.blocks_per_plane = 24;
    cfg.flash.timing = nand::FastTestTiming();
    cfg.link = controller::UnlimitedLinkSpec();
    cfg.op_ratio = op_ratio;
    cfg.parity = parity;
    cfg.stripe_bytes = cfg.flash.geometry.page_size;
    cfg.dram_cache_bytes = 256 * util::kKiB;
    cfg.gc_low_watermark = 4;
    cfg.gc_high_watermark = 8;
    cfg.fw_cost_per_read_request = 0;
    cfg.fw_cost_per_write_request = 0;
    cfg.fw_cost_read_page = util::UsToNs(1);
    cfg.fw_cost_write_page = util::UsToNs(1);
    ssd::ConventionalSsd device(sim, cfg);

    const uint32_t page = cfg.flash.geometry.page_size;
    const uint64_t pages = device.user_capacity() / page;
    util::Rng rng(seed);
    device.PreconditionFill(0.8);

    int completed = 0, issued = 0;
    for (int op = 0; op < 3000; ++op) {
        ++issued;
        const uint64_t p = rng.NextBelow(pages);
        if (rng.NextBool(0.7)) {
            device.Write(p * page, page, [&](bool ok) {
                completed += ok;
            });
        } else {
            device.Read(p * page, page, [&](bool ok) {
                completed += ok;
            });
        }
        if (op % 200 == 199) sim.Run();
    }
    sim.Run();
    EXPECT_EQ(completed, issued);

    // GC engaged and no channel deadlocked.
    EXPECT_GT(device.stats().gc_erases, 0u);
    EXPECT_EQ(device.CacheUsed(), 0u);
    for (uint32_t c = 0; c < cfg.flash.geometry.channels; ++c) {
        EXPECT_GT(device.FreeBlocks(c), 0u);
    }
    // WA must be finite and >= 1 under churn.
    EXPECT_GE(device.stats().WriteAmplification(), 1.0);
    EXPECT_LT(device.stats().WriteAmplification(), 64.0);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SsdInvariantTest,
    ::testing::Values(std::tuple{0.05, false, 21ull},
                      std::tuple{0.25, false, 22ull},
                      std::tuple{0.25, true, 23ull},
                      std::tuple{0.45, true, 24ull}));

// ---------------------------------------------------------------------------
// SDF device: random op soup never corrupts unit states
// ---------------------------------------------------------------------------

class SdfFuzzTest : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(SdfFuzzTest, RandomOpsKeepStateMachineConsistent)
{
    sim::Simulator sim;
    core::SdfConfig cfg;
    cfg.flash.geometry = nand::TinyTestGeometry();
    cfg.flash.timing = nand::FastTestTiming();
    cfg.link = controller::UnlimitedLinkSpec();
    cfg.spare_blocks_per_plane = 2;
    core::SdfDevice device(sim, cfg);

    util::Rng rng(GetParam());
    // Shadow state machine.
    std::vector<std::vector<core::UnitState>> shadow(
        device.channel_count(),
        std::vector<core::UnitState>(device.units_per_channel(),
                                     core::UnitState::kUnwritten));

    for (int op = 0; op < 2000; ++op) {
        const auto ch = static_cast<uint32_t>(
            rng.NextBelow(device.channel_count()));
        const auto unit = static_cast<uint32_t>(
            rng.NextBelow(device.units_per_channel()));
        core::UnitState &s = shadow[ch][unit];
        switch (rng.NextBelow(3)) {
          case 0:
            device.EraseUnit(ch, unit, nullptr);
            s = core::UnitState::kErased;
            break;
          case 1: {
            const bool legal = s == core::UnitState::kErased;
            device.WriteUnit(ch, unit, [legal](bool ok) {
                EXPECT_EQ(ok, legal);
            });
            if (legal) s = core::UnitState::kWritten;
            break;
          }
          default:
            device.Read(ch, unit, 0, device.read_unit_bytes(),
                        [](bool ok) { EXPECT_TRUE(ok); });
            break;
        }
        // Ops on the same unit are only well-ordered if we quiesce; do so
        // frequently enough to keep the shadow model valid.
        sim.Run();
        ASSERT_EQ(device.unit_state(ch, unit), s)
            << "ch " << ch << " unit " << unit << " op " << op;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SdfFuzzTest,
                         ::testing::Values(31ull, 32ull, 33ull, 34ull));

// ---------------------------------------------------------------------------
// Histogram quantiles vs sorted reference
// ---------------------------------------------------------------------------

class HistogramQuantileTest : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(HistogramQuantileTest, QuantilesWithinBucketError)
{
    util::Rng rng(GetParam());
    util::Histogram h;
    std::vector<int64_t> reference;
    for (int i = 0; i < 20000; ++i) {
        // Log-uniform values spanning decades 3-6 (away from the dense
        // small-integer buckets where ties distort percentile defs).
        const double mag = 3.0 + rng.NextDouble() * 3.0;
        const auto v = static_cast<int64_t>(std::pow(10.0, mag));
        h.Add(v);
        reference.push_back(v);
    }
    std::sort(reference.begin(), reference.end());
    for (double q : {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
        const auto exact = static_cast<double>(
            reference[static_cast<size_t>(q * (reference.size() - 1))]);
        const double approx = h.Quantile(q);
        // Geometric buckets: <= ~7 % relative error.
        EXPECT_NEAR(approx / exact, 1.0, 0.08) << "q=" << q;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HistogramQuantileTest,
                         ::testing::Values(41ull, 42ull, 43ull));

// ---------------------------------------------------------------------------
// Striping: bijection between flat space and (channel, offset)
// ---------------------------------------------------------------------------

class StripingBijectionTest
    : public ::testing::TestWithParam<std::pair<uint32_t, uint32_t>>
{
};

TEST_P(StripingBijectionTest, NoTwoBytesCollide)
{
    const auto [channels, stripe] = GetParam();
    ftl::StripingLayout layout(channels, stripe);
    // Walk a window of the flat space; (channel, channel_offset) must be
    // unique and channel offsets dense per channel.
    std::map<std::pair<uint32_t, uint64_t>, uint64_t> seen;
    const uint64_t window = uint64_t{channels} * stripe * 3;
    for (uint64_t off = 0; off < window; off += stripe) {
        const auto key = std::make_pair(layout.ChannelOf(off),
                                        layout.ChannelOffset(off));
        EXPECT_TRUE(seen.emplace(key, off).second)
            << "collision at offset " << off;
    }
    // Each channel received exactly 3 stripes at offsets 0, s, 2s.
    std::map<uint32_t, std::set<uint64_t>> per_channel;
    for (const auto &[key, off] : seen) per_channel[key.first].insert(key.second);
    for (const auto &[ch, offsets] : per_channel) {
        EXPECT_EQ(offsets.size(), 3u);
        EXPECT_TRUE(offsets.count(0));
        EXPECT_TRUE(offsets.count(stripe));
        EXPECT_TRUE(offsets.count(2ull * stripe));
    }
}

INSTANTIATE_TEST_SUITE_P(Grid, StripingBijectionTest,
                         ::testing::Values(std::pair{1u, 8192u},
                                           std::pair{10u, 4096u},
                                           std::pair{44u, 8192u},
                                           std::pair{44u, 2097152u}));

// ---------------------------------------------------------------------------
// Cluster router vs golden map: per-key ordering survives sharding
// ---------------------------------------------------------------------------

class ClusterOrderingTest : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(ClusterOrderingTest, PerKeyPutGetOrderPreservedAcrossRouter)
{
    sim::Simulator sim;
    cluster::ClusterConfig cc;
    cc.nodes = 3;
    cc.replication = 2;
    cc.node.kv.stack.capacity_scale = 0.02;
    cc.node.kv.stack.with_io_stack = false;
    cc.node.kv.store.slice_count = 2;
    cc.node.kv.stack.tune_sdf = [](core::SdfConfig &dc) {
        dc.flash.timing = nand::FastTestTiming();
    };
    cluster::Cluster cl(sim, cc);

    // Per-key chains of overwrites: chain step i+1 for a key issues only
    // after step i acked, but chains for different keys run concurrently,
    // landing on different nodes. The router must never let a key's later
    // acked put be shadowed by an earlier one.
    const uint64_t kKeys = 24;
    const int kChain = 5;
    util::Rng rng(GetParam());
    std::vector<uint32_t> golden(kKeys, 0);  // last acked size per key
    std::vector<std::vector<uint32_t>> sizes(kKeys);
    for (uint64_t k = 0; k < kKeys; ++k) {
        for (int i = 0; i < kChain; ++i) {
            sizes[k].push_back(static_cast<uint32_t>(
                4 * util::kKiB + rng.NextBelow(60 * util::kKiB)));
        }
    }
    std::function<void(uint64_t, int)> step = [&](uint64_t k, int i) {
        if (i == kChain) return;
        const uint32_t size = sizes[k][i];
        cl.router().Put(100 + k, size, [&, k, i, size](bool ok) {
            ASSERT_TRUE(ok) << "put failed for key " << k << " step " << i;
            golden[k] = size;
            step(k, i + 1);
        });
    };
    for (uint64_t k = 0; k < kKeys; ++k) step(k, 0);
    sim.Run();

    uint64_t checked = 0;
    for (uint64_t k = 0; k < kKeys; ++k) {
        cl.router().Get(100 + k, [&, k](const kv::GetResult &r) {
            ++checked;
            ASSERT_TRUE(r.ok) << "read failed for key " << k;
            ASSERT_TRUE(r.found) << "lost key " << k;
            EXPECT_EQ(r.value_size, golden[k]) << "stale value for key " << k;
        });
    }
    sim.Run();
    EXPECT_EQ(checked, kKeys);
    // The chains really did spread over every node.
    for (uint32_t n = 0; n < cl.node_count(); ++n) {
        EXPECT_GT(cl.router().node_puts(n), 0u) << "node " << n;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClusterOrderingTest,
                         ::testing::Values(51ull, 52ull, 53ull));

}  // namespace
}  // namespace sdf
