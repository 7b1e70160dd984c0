/**
 * @file
 * Calibration tests: lock the device models to the paper's headline
 * measurements (Tables 1 and 4, §3.2) within generous tolerance bands.
 * If a model change moves a device out of its band, a benchmark table
 * would silently drift — these tests catch that at ctest time.
 *
 * Devices are capacity-scaled (structure and ratios preserved) to keep
 * the simulations fast; bandwidth does not depend on capacity.
 */
#include <gtest/gtest.h>

#include <memory>

#include "host/io_stack.h"
#include "sdf/sdf_device.h"
#include "sim/simulator.h"
#include "ssd/conventional_ssd.h"
#include "workload/raw_device.h"

namespace sdf::workload {
namespace {

constexpr double kScale = 0.04;

RawRunConfig
QuickRun()
{
    RawRunConfig run;
    run.warmup = util::MsToNs(150);
    run.duration = util::MsToNs(600);
    return run;
}

// ---------------------------------------------------------------------------
// SDF (Table 4 row 1 + Figure 8 right)
// ---------------------------------------------------------------------------

TEST(CalibrationSdf, SequentialRead8MbNearPcieLimit)
{
    sim::Simulator sim;
    core::SdfDevice device(sim, core::BaiduSdfConfig(kScale));
    host::IoStack stack(sim, host::SdfUserStackSpec());
    PreconditionSdf(device);
    RawRunConfig run = QuickRun();
    run.warmup = util::MsToNs(500);  // > 2 request cycles: reach steady state.
    run.duration = util::SecToNs(2.0);
    const RawResult r = RunSdfReads(sim, device, stack, 44, 8 * util::kMiB,
                                    Pattern::kSequential, run);
    // Paper: 1.59 GB/s (99 % of the PCIe effective read bandwidth).
    EXPECT_GE(r.mbps, 1450.0);
    EXPECT_LE(r.mbps, 1650.0);
}

TEST(CalibrationSdf, RandomRead8KbThroughput)
{
    sim::Simulator sim;
    core::SdfDevice device(sim, core::BaiduSdfConfig(kScale));
    host::IoStack stack(sim, host::SdfUserStackSpec());
    PreconditionSdf(device);
    const RawResult r = RunSdfReads(sim, device, stack, 44, 8 * util::kKiB,
                                    Pattern::kRandom, QuickRun());
    // Paper: 1.23 GB/s for 8 KB random reads.
    EXPECT_GE(r.mbps, 1050.0);
    EXPECT_LE(r.mbps, 1400.0);
}

TEST(CalibrationSdf, WriteThroughputNearFlashRawLimit)
{
    sim::Simulator sim;
    core::SdfDevice device(sim, core::BaiduSdfConfig(kScale));
    host::IoStack stack(sim, host::SdfUserStackSpec());
    PreconditionSdf(device);
    RawRunConfig run = QuickRun();
    run.warmup = util::MsToNs(400);
    run.duration = util::SecToNs(1.5);
    const RawResult r = RunSdfWrites(sim, device, stack, 44, run);
    // Paper: 0.96 GB/s (94 % of the 1.01 GB/s raw write bandwidth).
    EXPECT_GE(r.mbps, 850.0);
    EXPECT_LE(r.mbps, 1050.0);
}

TEST(CalibrationSdf, ErasePlusWriteLatencyStable)
{
    sim::Simulator sim;
    core::SdfDevice device(sim, core::BaiduSdfConfig(kScale));
    host::IoStack stack(sim, host::SdfUserStackSpec());
    PreconditionSdf(device);
    RawRunConfig run = QuickRun();
    run.duration = util::SecToNs(3.0);
    const RawResult r = RunSdfWrites(sim, device, stack, 1, run);
    // Paper Figure 8: ~383 ms per 8 MB erase+write, with little variation.
    EXPECT_GE(r.latencies.MeanMs(), 330.0);
    EXPECT_LE(r.latencies.MeanMs(), 430.0);
    EXPECT_LE(r.latencies.StdDevMs(), 0.05 * r.latencies.MeanMs());
}

// ---------------------------------------------------------------------------
// Huawei Gen3 (Table 4 row 2)
// ---------------------------------------------------------------------------

TEST(CalibrationHuawei, SequentialRead8Mb)
{
    sim::Simulator sim;
    ssd::ConventionalSsd device(sim, ssd::HuaweiGen3Config(kScale));
    host::IoStack stack(sim, host::KernelIoStackSpec());
    device.PreconditionFill(0.9);
    const RawResult r = RunConvReads(sim, device, stack, 32, 8 * util::kMiB,
                                     Pattern::kSequential, QuickRun());
    // Paper: 1.20 GB/s.
    EXPECT_GE(r.mbps, 1050.0);
    EXPECT_LE(r.mbps, 1350.0);
}

TEST(CalibrationHuawei, SequentialWrite8Mb)
{
    sim::Simulator sim;
    ssd::ConventionalSsd device(sim, ssd::HuaweiGen3Config(kScale));
    host::IoStack stack(sim, host::KernelIoStackSpec());
    RawRunConfig run = QuickRun();
    run.warmup = util::MsToNs(500);
    run.duration = util::SecToNs(1.5);
    const RawResult r = RunConvWrites(sim, device, stack, 8, 8 * util::kMiB,
                                      Pattern::kSequential, run);
    // Paper: 0.67 GB/s.
    EXPECT_GE(r.mbps, 550.0);
    EXPECT_LE(r.mbps, 800.0);
}

TEST(CalibrationHuawei, SmallReadsLoseToSplitOverhead)
{
    sim::Simulator sim;
    ssd::ConventionalSsd device(sim, ssd::HuaweiGen3Config(kScale));
    host::IoStack stack(sim, host::KernelIoStackSpec());
    device.PreconditionFill(0.9);
    const RawResult r = RunConvReads(sim, device, stack, 64, 8 * util::kKiB,
                                     Pattern::kRandom, QuickRun());
    // Paper: 0.92 GB/s for 8 KB reads — clearly below the 1.2 GB/s peak.
    EXPECT_GE(r.mbps, 740.0);
    EXPECT_LE(r.mbps, 1080.0);
}

// ---------------------------------------------------------------------------
// Intel 320 (Table 4 row 3)
// ---------------------------------------------------------------------------

TEST(CalibrationIntel, SequentialRead8Mb)
{
    sim::Simulator sim;
    ssd::ConventionalSsd device(sim, ssd::Intel320Config(kScale));
    host::IoStack stack(sim, host::KernelIoStackSpec());
    device.PreconditionFill(0.9);
    const RawResult r = RunConvReads(sim, device, stack, 32, 8 * util::kMiB,
                                     Pattern::kSequential, QuickRun());
    // Paper: 0.22 GB/s.
    EXPECT_GE(r.mbps, 180.0);
    EXPECT_LE(r.mbps, 260.0);
}

TEST(CalibrationIntel, SequentialWrite8Mb)
{
    sim::Simulator sim;
    ssd::ConventionalSsd device(sim, ssd::Intel320Config(kScale));
    host::IoStack stack(sim, host::KernelIoStackSpec());
    RawRunConfig run = QuickRun();
    run.warmup = util::MsToNs(500);
    run.duration = util::SecToNs(1.5);
    const RawResult r = RunConvWrites(sim, device, stack, 8, 8 * util::kMiB,
                                      Pattern::kSequential, run);
    // Paper: 0.13 GB/s.
    EXPECT_GE(r.mbps, 100.0);
    EXPECT_LE(r.mbps, 170.0);
}

}  // namespace
}  // namespace sdf::workload
