/**
 * @file
 * Unit tests for the conventional SSD baseline: capacity math, read/write
 * paths, the DRAM write-back cache, garbage collection and write
 * amplification, parity overhead, trim, and preconditioning.
 */
#include <gtest/gtest.h>

#include <memory>

#include "sim/simulator.h"
#include "ssd/conventional_ssd.h"
#include "util/fingerprint.h"

namespace sdf::ssd {
namespace {

ConventionalSsdConfig
TinyConfig(bool payloads = false)
{
    ConventionalSsdConfig c;
    c.name = "tiny";
    c.flash.geometry = nand::TinyTestGeometry();
    c.flash.geometry.channels = 4;
    c.flash.geometry.blocks_per_plane = 24;
    c.flash.timing = nand::FastTestTiming();
    c.flash.store_payloads = payloads;
    c.link = controller::UnlimitedLinkSpec();
    c.op_ratio = 0.25;
    c.stripe_bytes = c.flash.geometry.page_size;
    c.parity = false;
    c.dram_cache_bytes = 512 * util::kKiB;
    c.gc_low_watermark = 4;
    c.gc_high_watermark = 8;
    c.fw_cost_per_read_request = 0;
    c.fw_cost_per_write_request = 0;
    c.fw_cost_read_page = util::UsToNs(1);
    c.fw_cost_write_page = util::UsToNs(1);
    return c;
}

uint32_t
PageSize(const ConventionalSsd &dev)
{
    return dev.config().flash.geometry.page_size;
}

void
WriteAll(sim::Simulator &sim, ConventionalSsd &dev, uint64_t offset,
         uint64_t length, const uint8_t *data = nullptr)
{
    bool done = false;
    dev.Write(offset, length, [&](bool) { done = true; }, data);
    sim.RunWhileNot([&]() { return done; });
}

TEST(ConventionalSsd, UserCapacityReflectsOverProvisioning)
{
    sim::Simulator sim;
    ConventionalSsdConfig cfg = TinyConfig();
    ConventionalSsd dev(sim, cfg);
    const double ratio = static_cast<double>(dev.user_capacity()) /
                         static_cast<double>(dev.raw_capacity());
    // 25 % OP plus frontier/GC reserves: well below 0.75, above 0.4.
    EXPECT_LT(ratio, 0.75);
    EXPECT_GT(ratio, 0.40);
}

TEST(ConventionalSsd, ParityCostsOneChannelWorth)
{
    sim::Simulator sim;
    ConventionalSsdConfig with = TinyConfig();
    with.parity = true;
    ConventionalSsdConfig without = TinyConfig();
    ConventionalSsd dev_with(sim, with);
    ConventionalSsd dev_without(sim, without);
    const double expected = 1.0 - 1.0 / with.flash.geometry.channels;
    const double actual =
        static_cast<double>(dev_with.user_capacity()) /
        static_cast<double>(dev_without.user_capacity());
    EXPECT_NEAR(actual, expected, 0.05);
}

TEST(ConventionalSsd, ReadAfterWriteReturnsData)
{
    sim::Simulator sim;
    ConventionalSsd dev(sim, TinyConfig(/*payloads=*/true));
    const uint32_t page = PageSize(dev);
    const auto payload = util::MakeDeterministicPayload(4 * page, 42);
    WriteAll(sim, dev, 0, payload.size(), payload.data());

    std::vector<uint8_t> out;
    bool ok = false;
    dev.Read(0, payload.size(), [&](bool s) { ok = s; }, &out);
    sim.Run();
    EXPECT_TRUE(ok);
    EXPECT_EQ(out, payload);
}

TEST(ConventionalSsd, ReadOfNeverWrittenRangeIsZeros)
{
    sim::Simulator sim;
    ConventionalSsd dev(sim, TinyConfig(/*payloads=*/true));
    const uint32_t page = PageSize(dev);
    std::vector<uint8_t> out;
    bool ok = false;
    dev.Read(8 * page, page, [&](bool s) { ok = s; }, &out);
    sim.Run();
    EXPECT_TRUE(ok);
    for (uint8_t b : out) EXPECT_EQ(b, 0);
}

TEST(ConventionalSsd, OverwriteReturnsNewestData)
{
    sim::Simulator sim;
    ConventionalSsd dev(sim, TinyConfig(/*payloads=*/true));
    const uint32_t page = PageSize(dev);
    const auto v1 = util::MakeDeterministicPayload(page, 1);
    const auto v2 = util::MakeDeterministicPayload(page, 2);
    WriteAll(sim, dev, 0, page, v1.data());
    WriteAll(sim, dev, 0, page, v2.data());

    std::vector<uint8_t> out;
    dev.Read(0, page, nullptr, &out);
    sim.Run();
    EXPECT_EQ(out, v2);
}

TEST(ConventionalSsd, MisalignedOrOversizeRequestsFail)
{
    sim::Simulator sim;
    ConventionalSsd dev(sim, TinyConfig());
    const uint32_t page = PageSize(dev);
    int failures = 0;
    auto expect_fail = [&](bool s) {
        if (!s) ++failures;
    };
    dev.Read(1, page, expect_fail);
    dev.Read(0, page - 1, expect_fail);
    dev.Read(dev.user_capacity(), page, expect_fail);
    dev.Write(0, 0, expect_fail);
    sim.Run();
    EXPECT_EQ(failures, 4);
}

TEST(ConventionalSsd, WriteBackCacheAcksBeforeDrain)
{
    sim::Simulator sim;
    ConventionalSsdConfig cfg = TinyConfig();
    cfg.flash.timing.program_page = util::MsToNs(5);  // Slow drain.
    ConventionalSsd dev(sim, cfg);
    const uint32_t page = PageSize(dev);

    util::TimeNs acked_at = 0;
    dev.Write(0, page, [&](bool) { acked_at = sim.Now(); });
    sim.Run();
    // Acked long before the 5 ms program would complete... and the drain
    // did eventually run.
    EXPECT_LT(acked_at, util::MsToNs(5));
    EXPECT_EQ(dev.stats().host_pages_written, 1u);
    EXPECT_EQ(dev.CacheUsed(), 0u);
}

TEST(ConventionalSsd, CacheFullBlocksAdmission)
{
    sim::Simulator sim;
    ConventionalSsdConfig cfg = TinyConfig();
    cfg.dram_cache_bytes = 8 * cfg.flash.geometry.page_size;
    cfg.flash.timing.program_page = util::MsToNs(1);
    ConventionalSsd dev(sim, cfg);
    const uint32_t page = PageSize(dev);

    // Fill the cache, then issue one more write: its ack must wait for
    // drain progress.
    util::TimeNs last_ack = 0;
    for (int i = 0; i < 16; ++i) {
        dev.Write(uint64_t{static_cast<uint32_t>(i)} * page, page,
                  [&](bool) { last_ack = sim.Now(); });
    }
    sim.Run();
    EXPECT_GT(last_ack, util::MsToNs(1));
}

TEST(ConventionalSsd, DirtyCacheHitServedWithoutFlashRead)
{
    sim::Simulator sim;
    ConventionalSsdConfig cfg = TinyConfig(/*payloads=*/true);
    cfg.flash.timing.program_page = util::MsToNs(50);  // Keep it dirty.
    ConventionalSsd dev(sim, cfg);
    const uint32_t page = PageSize(dev);
    const auto payload = util::MakeDeterministicPayload(page, 3);

    bool write_acked = false;
    dev.Write(0, page, [&](bool) { write_acked = true; }, payload.data());
    sim.RunWhileNot([&]() { return write_acked; });

    std::vector<uint8_t> out;
    bool ok = false;
    dev.Read(0, page, [&](bool s) { ok = s; }, &out);
    sim.RunWhileNot([&]() { return ok; });
    EXPECT_EQ(out, payload);
    EXPECT_EQ(dev.stats().cache_hit_pages, 1u);
}

TEST(ConventionalSsd, SteadyRandomWritesTriggerGc)
{
    sim::Simulator sim;
    ConventionalSsdConfig cfg = TinyConfig();
    ConventionalSsd dev(sim, cfg);
    const uint32_t page = PageSize(dev);
    const uint64_t pages = dev.user_capacity() / page;

    // Sequential fill, then random overwrites of 2x the logical space.
    dev.PreconditionFill(1.0);
    util::Rng rng(5);
    int completed = 0;
    const int total = static_cast<int>(2 * pages);
    for (int i = 0; i < total; ++i) {
        dev.Write(rng.NextBelow(pages) * page, page,
                  [&](bool) { ++completed; });
    }
    sim.Run();
    EXPECT_EQ(completed, total);
    EXPECT_GT(dev.stats().gc_erases, 0u);
    EXPECT_GT(dev.stats().gc_pages_moved, 0u);
    // Write amplification above 1 but bounded.
    EXPECT_GT(dev.stats().WriteAmplification(), 1.0);
    EXPECT_LT(dev.stats().WriteAmplification(), 30.0);
}

TEST(ConventionalSsd, DataSurvivesGarbageCollection)
{
    sim::Simulator sim;
    ConventionalSsdConfig cfg = TinyConfig(/*payloads=*/true);
    ConventionalSsd dev(sim, cfg);
    const uint32_t page = PageSize(dev);
    const uint64_t pages = dev.user_capacity() / page;

    // Write a known pattern everywhere (fills the device), then rewrite a
    // hot subset repeatedly to force GC to migrate the cold pages.
    for (uint64_t p = 0; p < pages; ++p) {
        const auto v = util::MakeDeterministicPayload(page, p);
        WriteAll(sim, dev, p * page, page, v.data());
    }
    util::Rng rng(7);
    for (int i = 0; i < static_cast<int>(pages); ++i) {
        const uint64_t p = rng.NextBelow(pages / 4);  // Hot quarter.
        const auto v = util::MakeDeterministicPayload(page, 1000000 + p);
        WriteAll(sim, dev, p * page, page, v.data());
    }
    sim.Run();
    ASSERT_GT(dev.stats().gc_pages_moved, 0u);

    // Cold pages must still read back their original contents.
    for (uint64_t p = pages / 4; p < pages; p += 7) {
        std::vector<uint8_t> out;
        bool ok = false;
        dev.Read(p * page, page, [&](bool s) { ok = s; }, &out);
        sim.Run();
        ASSERT_TRUE(ok);
        const auto expected = util::MakeDeterministicPayload(page, p);
        ASSERT_EQ(out, expected) << "page " << p;
    }
}

TEST(ConventionalSsd, LowerOpMeansMoreWriteAmplification)
{
    auto run_wa = [](double op) {
        sim::Simulator sim;
        ConventionalSsdConfig cfg = TinyConfig();
        cfg.flash.geometry.blocks_per_plane = 32;
        cfg.op_ratio = op;
        ConventionalSsd dev(sim, cfg);
        const uint32_t page = PageSize(dev);
        const uint64_t pages = dev.user_capacity() / page;
        dev.PreconditionFill(1.0);
        util::Rng rng(5);
        for (uint64_t i = 0; i < 3 * pages; ++i) {
            dev.Write(rng.NextBelow(pages) * page, page, nullptr);
        }
        sim.Run();
        return dev.stats().WriteAmplification();
    };
    const double wa_low_op = run_wa(0.07);
    const double wa_high_op = run_wa(0.45);
    EXPECT_GT(wa_low_op, wa_high_op);
}

TEST(ConventionalSsd, PreconditionFillMapsLogicalSpace)
{
    sim::Simulator sim;
    ConventionalSsd dev(sim, TinyConfig());
    dev.PreconditionFill(0.5);
    EXPECT_EQ(sim.Now(), 0);  // No simulated time consumed.
    // Roughly half of each channel's data lpns mapped.
    const uint32_t page = PageSize(dev);
    bool ok = false;
    dev.Read(0, page, [&](bool s) { ok = s; });
    sim.Run();
    EXPECT_TRUE(ok);
}

TEST(ConventionalSsd, QueueDepthLimitsAdmission)
{
    sim::Simulator sim;
    ConventionalSsdConfig cfg = TinyConfig();
    cfg.max_outstanding = 2;
    ConventionalSsd dev(sim, cfg);
    dev.PreconditionFill(0.5);
    const uint32_t page = PageSize(dev);
    int completed = 0;
    for (int i = 0; i < 10; ++i) {
        dev.Read(uint64_t{static_cast<uint32_t>(i)} * page, page,
                 [&](bool) { ++completed; });
    }
    sim.Run();
    EXPECT_EQ(completed, 10);  // All served eventually, through the queue.
}

TEST(ConventionalSsd, ParityWritesTrackDataWrites)
{
    sim::Simulator sim;
    ConventionalSsdConfig cfg = TinyConfig();
    cfg.parity = true;
    ConventionalSsd dev(sim, cfg);
    const uint32_t page = PageSize(dev);
    const uint32_t channels = cfg.flash.geometry.channels;
    const uint64_t pages = dev.user_capacity() / page;
    int completed = 0;
    for (uint64_t p = 0; p < pages / 2; ++p) {
        dev.Write(p * page, page, [&](bool) { ++completed; });
    }
    sim.Run();
    // One parity page per (channels - 1) data pages.
    const double expected =
        static_cast<double>(dev.stats().host_pages_written) / (channels - 1);
    EXPECT_NEAR(static_cast<double>(dev.stats().parity_pages_written),
                expected, expected * 0.2 + 2);
}


TEST(ConventionalSsd, StaticWearLevelingMigratesColdBlocks)
{
    // Cold (fully valid, low-erase-count) blocks get picked as GC victims
    // on the static wear leveling cadence (one victim selection in 24),
    // and all of their data migrates.
    sim::Simulator sim;
    ConventionalSsdConfig cfg = TinyConfig();
    cfg.flash.geometry.blocks_per_plane = 32;
    ConventionalSsd dev(sim, cfg);
    const uint32_t page = PageSize(dev);
    const uint64_t pages = dev.user_capacity() / page;
    dev.PreconditionFill(1.0);
    // Hammer a hot quarter; the cold three quarters never rewritten.
    util::Rng rng(9);
    for (uint64_t i = 0; i < 6 * pages; ++i) {
        dev.Write(rng.NextBelow(pages / 4) * page, page, nullptr);
    }
    sim.Run();
    const SsdStats &st = dev.stats();
    EXPECT_EQ(st.swl_migrations, 83u);  // Pinned: moves with the cadence.
    // Pinned: greedy GC alone moves 215 pages here.
    EXPECT_EQ(st.gc_pages_moved, 1386u);
    EXPECT_GE(st.gc_pages_moved,
              st.swl_migrations * cfg.flash.geometry.pages_per_block);
}

TEST(ConventionalSsd, RandomPreconditionProducesFragmentation)
{
    sim::Simulator sim;
    ConventionalSsdConfig cfg = TinyConfig();
    cfg.flash.geometry.blocks_per_plane = 32;
    ConventionalSsd dev(sim, cfg);
    dev.PreconditionFillRandom(1.0);
    EXPECT_EQ(sim.Now(), 0);

    // Immediately after, random writes see steady-state-like WA > 1.5.
    const uint32_t page = PageSize(dev);
    const uint64_t pages = dev.user_capacity() / page;
    util::Rng rng(3);
    for (uint64_t i = 0; i < pages; ++i) {
        dev.Write(rng.NextBelow(pages) * page, page, nullptr);
    }
    sim.Run();
    EXPECT_GT(dev.stats().WriteAmplification(), 1.5);
    // And the data is still readable.
    bool ok = false;
    dev.Read(0, page, [&](bool s) { ok = s; });
    sim.Run();
    EXPECT_TRUE(ok);
}

}  // namespace
}  // namespace sdf::ssd
