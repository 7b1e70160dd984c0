/**
 * @file
 * Unit tests for the controller substrate: host links and interrupt
 * coalescing.
 */
#include <gtest/gtest.h>

#include <vector>

#include "controller/interrupts.h"
#include "controller/link.h"
#include "sim/simulator.h"

namespace sdf::controller {
namespace {

TEST(Link, PcieSpecsMatchPaper)
{
    const LinkSpec s = Pcie11x8Spec();
    EXPECT_NEAR(s.to_host_bytes_per_sec / 1e9, 1.61, 0.01);
    EXPECT_NEAR(s.to_device_bytes_per_sec / 1e9, 1.40, 0.01);
    EXPECT_TRUE(s.full_duplex);
    EXPECT_FALSE(Sata2Spec().full_duplex);
}

TEST(Link, TransferTimeMatchesBandwidth)
{
    sim::Simulator sim;
    Link link(sim, Pcie11x8Spec());
    util::TimeNs done_at = 0;
    link.TransferToHost(0, static_cast<uint64_t>(1.61e9),
                        [&]() { done_at = sim.Now(); });
    sim.Run();
    // ~1 second plus DMA setup.
    EXPECT_NEAR(util::NsToSec(done_at), 1.0, 0.001);
    EXPECT_EQ(link.to_host_bytes(), static_cast<uint64_t>(1.61e9));
}

TEST(Link, FullDuplexDirectionsIndependent)
{
    sim::Simulator sim;
    LinkSpec spec = Pcie11x8Spec();
    spec.dma_setup = 0;
    Link link(sim, spec);
    util::TimeNs read_done = 0, write_done = 0;
    link.TransferToHost(0, static_cast<uint64_t>(1.61e9),
                        [&]() { read_done = sim.Now(); });
    link.TransferToDevice(0, static_cast<uint64_t>(1.40e9),
                          [&]() { write_done = sim.Now(); });
    sim.Run();
    EXPECT_NEAR(util::NsToSec(read_done), 1.0, 0.01);
    EXPECT_NEAR(util::NsToSec(write_done), 1.0, 0.01);
}

TEST(Link, HalfDuplexSerializesDirections)
{
    sim::Simulator sim;
    LinkSpec spec = Sata2Spec();
    spec.dma_setup = 0;
    Link link(sim, spec);
    const auto bytes = static_cast<uint64_t>(275e6);  // 1 s each way.
    util::TimeNs read_done = 0, write_done = 0;
    link.TransferToHost(0, bytes, [&]() { read_done = sim.Now(); });
    link.TransferToDevice(0, bytes, [&]() { write_done = sim.Now(); });
    sim.Run();
    EXPECT_NEAR(util::NsToSec(read_done), 1.0, 0.01);
    EXPECT_NEAR(util::NsToSec(write_done), 2.0, 0.01);
}

TEST(Link, EarliestConstraintRespected)
{
    sim::Simulator sim;
    LinkSpec spec = Pcie11x8Spec();
    spec.dma_setup = 0;
    Link link(sim, spec);
    util::TimeNs done_at = 0;
    link.TransferToHost(util::MsToNs(100), 1610,
                        [&]() { done_at = sim.Now(); });
    sim.Run();
    EXPECT_GE(done_at, util::MsToNs(100));
}

TEST(Interrupts, NoCoalescingDeliversImmediately)
{
    sim::Simulator sim;
    InterruptConfig cfg;
    cfg.coalesce = false;
    InterruptCoalescer irq(sim, cfg, 44);
    int delivered = 0;
    for (int i = 0; i < 10; ++i) irq.OnCompletion(0, [&]() { ++delivered; });
    EXPECT_EQ(delivered, 10);
    EXPECT_EQ(irq.interrupts(), 10u);
    EXPECT_DOUBLE_EQ(irq.MergeFactor(), 1.0);
}

// The coalescer's constants (interrupts.cc): groups of 11 channels, a
// group fires at 4 pending completions or after 20 us, and the global
// stage fires at 2 pending group batches or after 15 us.

TEST(Interrupts, MergesByCount)
{
    sim::Simulator sim;
    InterruptCoalescer irq(sim, InterruptConfig{}, 44);
    int delivered = 0;
    util::TimeNs at = 0;
    for (int i = 0; i < 4; ++i) {
        irq.OnCompletion(0, [&]() {
            ++delivered;
            at = sim.Now();
        });
    }
    // Count threshold reached at level 1; the global stage flushes on its
    // own (shorter) window.
    sim.Run();
    EXPECT_EQ(delivered, 4);
    EXPECT_EQ(irq.interrupts(), 1u);
    EXPECT_DOUBLE_EQ(irq.MergeFactor(), 4.0);
    EXPECT_EQ(at, util::UsToNs(15));
}

TEST(Interrupts, TimerFlushesPartialBatch)
{
    sim::Simulator sim;
    InterruptCoalescer irq(sim, InterruptConfig{}, 44);
    util::TimeNs at = -1;
    irq.OnCompletion(0, [&]() { at = sim.Now(); });
    EXPECT_EQ(at, -1);  // Held for the window.
    sim.Run();
    // The group's window, then the global stage's.
    EXPECT_EQ(at, util::UsToNs(20 + 15));
}

TEST(Interrupts, GroupsAreIndependent)
{
    sim::Simulator sim;
    InterruptCoalescer irq(sim, InterruptConfig{}, 44);
    std::vector<util::TimeNs> at;
    // Four completions straddling the first group boundary: three on
    // channel 10 (group 0) and one on channel 11 (group 1). Neither
    // group reaches the count of 4, so both wait out their window; the
    // two batches then reach the global stage together and merge into
    // one interrupt there.
    for (uint32_t ch : {10u, 10u, 10u, 11u}) {
        irq.OnCompletion(ch, [&]() { at.push_back(sim.Now()); });
    }
    sim.Run();
    EXPECT_EQ(at, std::vector<util::TimeNs>(4, util::UsToNs(20)));
    EXPECT_EQ(irq.interrupts(), 1u);
}

TEST(Interrupts, MergeFactorInPaperRange)
{
    // §2.1: with merging, the interrupt rate is 1/5 to 1/4 of max IOPS.
    sim::Simulator sim;
    InterruptCoalescer irq(sim, InterruptConfig{}, 44);
    int delivered = 0;
    // A steady stream on each channel of one group.
    for (int burst = 0; burst < 100; ++burst) {
        for (uint32_t ch = 0; ch < 11; ++ch) {
            irq.OnCompletion(ch, [&]() { ++delivered; });
        }
    }
    sim.Run();
    EXPECT_EQ(delivered, 1100);
    // Two merge levels compound, beyond the paper's 4-5x at saturation:
    // 275 group batches of 4 pair into 137 interrupts, and the odd batch
    // goes alone on the global window.
    EXPECT_EQ(irq.interrupts(), 138u);
    EXPECT_DOUBLE_EQ(irq.MergeFactor(), 1100.0 / 138);
    EXPECT_GT(irq.cpu_time(), 0);
}

}  // namespace
}  // namespace sdf::controller
