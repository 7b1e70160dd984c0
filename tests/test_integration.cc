/**
 * @file
 * End-to-end integration tests: the full CCDB stack on both SDF and the
 * conventional SSD, workload drivers, preloading, and cross-device
 * behavioural comparisons the paper's evaluation rests on.
 */
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "blocklayer/block_layer.h"
#include "kv/patch_storage.h"
#include "kv/slice.h"
#include "kv/store.h"
#include "net/network.h"
#include "sdf/sdf_device.h"
#include "sim/simulator.h"
#include "ssd/conventional_ssd.h"
#include "workload/kv_driver.h"
#include "workload/raw_device.h"

namespace sdf {
namespace {

using workload::KvRunConfig;
using workload::KvRunResult;
using workload::Pattern;

core::SdfConfig
FastSdf(double scale = 0.02)
{
    core::SdfConfig c = core::BaiduSdfConfig(scale);
    c.flash.timing = nand::FastTestTiming();
    return c;
}

TEST(Integration, KvStackOnSdfServesMixedWorkload)
{
    sim::Simulator sim;
    core::SdfDevice device(sim, FastSdf());
    blocklayer::BlockLayer layer(sim, device, {});
    host::IoStack stack(sim, host::SdfUserStackSpec());
    kv::BlockPatchStorage storage(layer, &stack);
    kv::IdAllocator ids;
    kv::SliceConfig scfg;
    scfg.compaction_trigger = 3;
    kv::Slice slice(sim, storage, ids, scfg);

    // Write enough to force several flushes and at least one compaction.
    util::Rng rng(3);
    int put_ok = 0;
    for (int i = 0; i < 200; ++i) {
        slice.Put(rng.NextBelow(500),
                  static_cast<uint32_t>(100 * 1024 +
                                        rng.NextBelow(400 * 1024)),
                  [&](bool ok) { put_ok += ok; });
    }
    sim.Run();
    EXPECT_EQ(put_ok, 200);
    EXPECT_GE(slice.stats().flushes, 4u);
    EXPECT_GE(slice.stats().compactions, 1u);

    // Every key written must be retrievable.
    int found = 0, checked = 0;
    for (uint64_t k = 0; k < 500; k += 13) {
        ++checked;
        slice.Get(k, [&](const kv::GetResult &r) {
            if (r.found) ++found;
        });
    }
    sim.Run();
    EXPECT_GT(found, 0);
    EXPECT_LE(found, checked);

    // The SDF saw only whole-unit writes and explicit erases.
    EXPECT_GT(device.stats().unit_writes, 0u);
    EXPECT_EQ(device.stats().contract_violations, 0u);
}

TEST(Integration, KvStackOnConventionalSsd)
{
    sim::Simulator sim;
    ssd::ConventionalSsdConfig cfg = ssd::HuaweiGen3Config(0.02);
    cfg.flash.timing = nand::FastTestTiming();
    ssd::ConventionalSsd device(sim, cfg);
    host::IoStack stack(sim, host::KernelIoStackSpec());
    kv::SsdPatchStorage storage(device, 8 * util::kMiB, &stack);
    kv::IdAllocator ids;
    kv::Slice slice(sim, storage, ids, {});

    for (int i = 0; i < 50; ++i) {
        slice.Put(i, 512 * 1024, nullptr);
    }
    slice.Flush();
    sim.Run();
    EXPECT_GE(slice.stats().flushes, 1u);

    int found = 0;
    for (uint64_t k = 0; k < 50; ++k) {
        slice.Get(k, [&](const kv::GetResult &r) {
            if (r.found) ++found;
        });
    }
    sim.Run();
    EXPECT_EQ(found, 50);
    EXPECT_GT(device.stats().host_writes, 0u);
}

TEST(Integration, PreloadProducesReadableKeys)
{
    sim::Simulator sim;
    core::SdfDevice device(sim, FastSdf());
    blocklayer::BlockLayer layer(sim, device, {});
    kv::BlockPatchStorage storage(layer);
    kv::IdAllocator ids;
    kv::Slice slice(sim, storage, ids, {});

    const auto keys = workload::PreloadSlices({&slice}, 64 * util::kMiB,
                                              512 * 1024);
    ASSERT_EQ(keys.size(), 1u);
    EXPECT_EQ(keys[0].size(), 128u);  // 64 MiB / 512 KiB.
    EXPECT_EQ(sim.Now(), 0);

    int found = 0;
    for (size_t i = 0; i < keys[0].size(); i += 11) {
        slice.Get(keys[0][i], [&](const kv::GetResult &r) {
            if (r.found) ++found;
        });
    }
    sim.Run();
    EXPECT_EQ(found, static_cast<int>((keys[0].size() + 10) / 11));
}

TEST(Integration, BatchedReadDriverDeliversBytes)
{
    sim::Simulator sim;
    core::SdfDevice device(sim, FastSdf());
    blocklayer::BlockLayer layer(sim, device, {});
    kv::BlockPatchStorage storage(layer);
    kv::IdAllocator ids;
    kv::Slice slice(sim, storage, ids, {});
    const auto keys =
        workload::PreloadSlices({&slice}, 64 * util::kMiB, 512 * 1024);

    net::Network net(sim, 1);
    KvRunConfig run;
    run.warmup = util::MsToNs(50);
    run.duration = util::MsToNs(500);
    const KvRunResult r =
        workload::RunBatchedRandomReads(sim, net, {&slice}, keys, 8, run);
    EXPECT_GT(r.client_mbps, 0.0);
    EXPECT_GT(r.requests, 0u);
}

TEST(Integration, ScanDriverReadsWholePatches)
{
    sim::Simulator sim;
    core::SdfDevice device(sim, FastSdf());
    blocklayer::BlockLayer layer(sim, device, {});
    kv::BlockPatchStorage storage(layer);
    kv::IdAllocator ids;
    kv::Slice slice(sim, storage, ids, {});
    workload::PreloadSlices({&slice}, 64 * util::kMiB, 512 * 1024);

    KvRunConfig run;
    run.warmup = util::MsToNs(20);
    run.duration = util::MsToNs(300);
    const KvRunResult r = workload::RunSequentialScan(sim, {&slice}, 6, run);
    EXPECT_GT(r.client_mbps, 0.0);
    EXPECT_GT(device.stats().page_reads, 0u);
    // Scan throughput is reported in both units: completed patch reads
    // per second and the bytes they scanned, and the two agree with the
    // aggregate MB/s over the measurement window.
    EXPECT_GT(r.ops_per_sec, 0.0);
    EXPECT_GT(r.scanned_bytes, 0u);
    EXPECT_NEAR(static_cast<double>(r.scanned_bytes) /
                    util::NsToSec(run.duration) / util::kMB,
                r.client_mbps, r.client_mbps * 0.01 + 1e-9);
}

TEST(Integration, WriteDriverGeneratesCompactionTraffic)
{
    sim::Simulator sim;
    core::SdfDevice device(sim, FastSdf());
    blocklayer::BlockLayer layer(sim, device, {});
    kv::BlockPatchStorage storage(layer);
    kv::IdAllocator ids;
    kv::SliceConfig scfg;
    scfg.compaction_trigger = 3;
    kv::Slice slice(sim, storage, ids, scfg);

    net::Network net(sim, 1);
    KvRunConfig run;
    run.warmup = util::MsToNs(100);
    run.duration = util::SecToNs(1.5);
    const KvRunResult r = workload::RunKvWrites(sim, net, {&slice},
                                                100 * 1024, util::kMiB, run);
    EXPECT_GT(r.device_write_mbps, 0.0);
    EXPECT_GT(r.requests, 0u);
    EXPECT_GE(slice.stats().flushes, 2u);
}

TEST(Integration, WriteDriverCountsOnlyFlushesThatLanded)
{
    // 16 blocks per plane less 8 spares: 8 units on each of 44 channels,
    // far fewer than the run's flushes. Without compaction every patch
    // that lands stays in level 0, so the slices' patches are the landed
    // flushes.
    sim::Simulator sim;
    core::SdfDevice device(sim, FastSdf(0.001));
    blocklayer::BlockLayer layer(sim, device, {});
    kv::BlockPatchStorage storage(layer);
    kv::IdAllocator ids;
    kv::SliceConfig scfg;
    scfg.compaction_trigger = 1u << 30;
    std::vector<std::unique_ptr<kv::Slice>> owned;
    std::vector<kv::Slice *> slices;
    for (int s = 0; s < 4; ++s) {
        owned.push_back(std::make_unique<kv::Slice>(sim, storage, ids, scfg));
        slices.push_back(owned.back().get());
    }

    net::Network net(sim, 4);
    KvRunConfig run;
    run.warmup = 0;
    run.duration = util::SecToNs(6.0);
    const KvRunResult r = workload::RunKvWrites(sim, net, slices, 100 * 1024,
                                                util::kMiB, run);
    uint64_t started = 0, failed = 0, landed = 0;
    for (const kv::Slice *s : slices) {
        started += s->stats().flushes;
        failed += s->stats().failed_flushes;
        landed += s->AllPatchIds().size();
    }
    EXPECT_EQ(device.user_capacity() / device.unit_bytes(), 352u);
    EXPECT_LE(landed, 352u);
    EXPECT_GT(failed, slices.size());
    EXPECT_EQ(r.failed_flushes, failed);
    // Reported writes are the landed patches plus at most one flush in
    // flight per slice, never the failed ones.
    const double reported_patches = r.device_write_mbps * util::kMB *
                                    util::NsToSec(run.duration) /
                                    (8 * util::kMiB);
    EXPECT_GE(reported_patches, static_cast<double>(landed) - 1e-6);
    EXPECT_LE(reported_patches,
              static_cast<double>(landed + slices.size()) + 1e-6);
    EXPECT_LE(landed, started - failed);
}

TEST(Integration, SdfChannelAffinityVsSsdStriping)
{
    // The architectural contrast of Figure 5: one 512 KB request occupies
    // a single SDF channel but spreads over every channel of the
    // conventional SSD.
    sim::Simulator sim;
    core::SdfDevice sdf_dev(sim, core::BaiduSdfConfig(0.02));
    workload::PreconditionSdf(sdf_dev);
    sdf_dev.Read(0, 0, 0, 512 * util::kKiB, nullptr);
    sim.Run();
    uint32_t sdf_busy = 0;
    for (uint32_t c = 0; c < sdf_dev.channel_count(); ++c) {
        if (sdf_dev.flash().channel(c).stats().reads > 0) ++sdf_busy;
    }
    EXPECT_EQ(sdf_busy, 1u);

    sim::Simulator sim2;
    ssd::ConventionalSsd ssd_dev(sim2, ssd::HuaweiGen3Config(0.02));
    ssd_dev.PreconditionFill(0.5);
    ssd_dev.Read(0, 512 * util::kKiB, nullptr);
    sim2.Run();
    uint32_t ssd_busy = 0;
    for (uint32_t c = 0; c < 44; ++c) {
        if (ssd_dev.flash().channel(c).stats().reads > 0) ++ssd_busy;
    }
    EXPECT_EQ(ssd_busy, 44u);
}

TEST(Integration, SdfLatencyPredictableSsdLatencyVariable)
{
    // Figure 8's qualitative claim on a nearly-full device.
    workload::RawRunConfig run;
    run.warmup = util::MsToNs(100);
    run.duration = util::SecToNs(4.0);

    sim::Simulator sim;
    core::SdfDevice sdf_dev(sim, core::BaiduSdfConfig(0.02));
    host::IoStack sdf_stack(sim, host::SdfUserStackSpec());
    workload::PreconditionSdf(sdf_dev);
    const auto sdf_result =
        workload::RunSdfWrites(sim, sdf_dev, sdf_stack, 1, run);

    sim::Simulator sim2;
    ssd::ConventionalSsd ssd_dev(sim2, ssd::HuaweiGen3Config(0.02));
    host::IoStack ssd_stack(sim2, host::KernelIoStackSpec());
    ssd_dev.PreconditionFill(0.98);
    const auto ssd_result = workload::RunConvWrites(
        sim2, ssd_dev, ssd_stack, 1, 8 * util::kMiB, Pattern::kRandom, run);

    // SDF: tight latency. SSD: write-back cache + GC make it erratic.
    const double sdf_cv =
        sdf_result.latencies.StdDevMs() / sdf_result.latencies.MeanMs();
    const double ssd_cv =
        ssd_result.latencies.StdDevMs() /
        std::max(ssd_result.latencies.MeanMs(), 1e-9);
    EXPECT_LT(sdf_cv, 0.05);
    EXPECT_GT(ssd_cv, 2 * sdf_cv);
}

}  // namespace
}  // namespace sdf
