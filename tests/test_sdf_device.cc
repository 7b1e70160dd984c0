/**
 * @file
 * Unit tests for the SDF device: capacity exposure, the asymmetric
 * interface contract (erase-before-write), wear leveling, bad-block
 * handling, data integrity, and interrupt integration.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "sdf/sdf_device.h"
#include "sim/simulator.h"
#include "util/fingerprint.h"

namespace sdf::core {
namespace {

SdfConfig
TinyConfig(bool payloads = false)
{
    SdfConfig c;
    c.flash.geometry = nand::TinyTestGeometry();
    c.flash.timing = nand::FastTestTiming();
    c.flash.store_payloads = payloads;
    c.link = controller::UnlimitedLinkSpec();
    c.spare_blocks_per_plane = 2;
    c.irq.coalesce = false;  // Precise latencies for unit tests.
    return c;
}

TEST(SdfDevice, ExposesAlmostAllRawCapacity)
{
    sim::Simulator sim;
    SdfDevice full(sim, BaiduSdfConfig(1.0));
    // The paper: 99 % of raw capacity for user data (only BBM spares
    // withheld — no over-provisioning, no parity).
    const double ratio = static_cast<double>(full.user_capacity()) /
                         static_cast<double>(full.raw_capacity());
    EXPECT_GE(ratio, 0.99);
    EXPECT_LE(ratio, 1.0);
}

TEST(SdfDevice, GeometryDerivedInterfaceUnits)
{
    sim::Simulator sim;
    SdfDevice dev(sim, BaiduSdfConfig(0.05));
    EXPECT_EQ(dev.channel_count(), 44u);
    EXPECT_EQ(dev.unit_bytes(), 8 * util::kMiB);
    EXPECT_EQ(dev.read_unit_bytes(), 8 * util::kKiB);
}

TEST(SdfDevice, WriteRequiresErasedUnit)
{
    sim::Simulator sim;
    SdfDevice dev(sim, TinyConfig());
    bool ok = true;
    dev.WriteUnit(0, 0, [&](bool s) { ok = s; });
    sim.Run();
    EXPECT_FALSE(ok);  // Unwritten but not erased: contract violation.
    EXPECT_EQ(dev.stats().contract_violations, 1u);

    dev.EraseUnit(0, 0, nullptr);
    sim.Run();
    EXPECT_EQ(dev.unit_state(0, 0), UnitState::kErased);
    dev.WriteUnit(0, 0, [&](bool s) { ok = s; });
    sim.Run();
    EXPECT_TRUE(ok);
    EXPECT_EQ(dev.unit_state(0, 0), UnitState::kWritten);
}

TEST(SdfDevice, RewriteRequiresReErase)
{
    sim::Simulator sim;
    SdfDevice dev(sim, TinyConfig());
    dev.EraseUnit(1, 3, nullptr);
    sim.Run();
    dev.WriteUnit(1, 3, nullptr);
    sim.Run();
    bool ok = true;
    dev.WriteUnit(1, 3, [&](bool s) { ok = s; });
    sim.Run();
    EXPECT_FALSE(ok);

    dev.EraseUnit(1, 3, nullptr);
    sim.Run();
    dev.WriteUnit(1, 3, [&](bool s) { ok = s; });
    sim.Run();
    EXPECT_TRUE(ok);
}

TEST(SdfDevice, FirstEraseIsCheapReuseEraseIsReal)
{
    sim::Simulator sim;
    SdfDevice dev(sim, TinyConfig());
    dev.EraseUnit(0, 0, nullptr);
    sim.Run();
    // Fresh unit: pool blocks are factory-erased; no physical erase.
    EXPECT_EQ(dev.stats().physical_block_erases, 0u);

    dev.WriteUnit(0, 0, nullptr);
    sim.Run();
    dev.EraseUnit(0, 0, nullptr);
    sim.Run();
    // Reuse: all four mapped plane blocks physically erased.
    EXPECT_EQ(dev.stats().physical_block_erases, 4u);
}

TEST(SdfDevice, ReadsBackWrittenPayload)
{
    sim::Simulator sim;
    SdfDevice dev(sim, TinyConfig(/*payloads=*/true));
    const uint64_t unit_bytes = dev.unit_bytes();
    const auto payload = util::MakeDeterministicPayload(unit_bytes, 1234);

    dev.EraseUnit(2, 1, nullptr);
    sim.Run();
    dev.WriteUnit(2, 1, nullptr, payload.data());
    sim.Run();

    std::vector<uint8_t> out;
    bool ok = false;
    dev.Read(2, 1, 0, unit_bytes, [&](bool s) { ok = s; }, &out);
    sim.Run();
    EXPECT_TRUE(ok);
    EXPECT_EQ(out, payload);
}

TEST(SdfDevice, PartialReadsAtArbitraryAlignedOffsets)
{
    sim::Simulator sim;
    SdfDevice dev(sim, TinyConfig(/*payloads=*/true));
    const uint64_t unit_bytes = dev.unit_bytes();
    const uint32_t page = dev.read_unit_bytes();
    const auto payload = util::MakeDeterministicPayload(unit_bytes, 77);

    dev.EraseUnit(0, 0, nullptr);
    sim.Run();
    dev.WriteUnit(0, 0, nullptr, payload.data());
    sim.Run();

    // Read one page from each plane's 2 MB stripe of the unit.
    const uint64_t plane_bytes = unit_bytes / 4;
    for (int p = 0; p < 4; ++p) {
        std::vector<uint8_t> out;
        const uint64_t off = p * plane_bytes + page;
        dev.Read(0, 0, off, page, nullptr, &out);
        sim.Run();
        ASSERT_EQ(out.size(), page);
        EXPECT_EQ(0, std::memcmp(out.data(), payload.data() + off, page));
    }
}

TEST(SdfDevice, ReadOfUnwrittenUnitReturnsErasedBytes)
{
    sim::Simulator sim;
    SdfDevice dev(sim, TinyConfig(/*payloads=*/true));
    std::vector<uint8_t> out;
    bool ok = false;
    dev.Read(0, 5, 0, dev.read_unit_bytes(), [&](bool s) { ok = s; }, &out);
    sim.Run();
    EXPECT_TRUE(ok);
    EXPECT_EQ(out[0], 0xFF);
}

TEST(SdfDevice, RejectsMisalignedAndOutOfRange)
{
    sim::Simulator sim;
    SdfDevice dev(sim, TinyConfig());
    int failures = 0;
    auto expect_fail = [&](bool s) {
        if (!s) ++failures;
    };
    dev.Read(0, 0, 1, dev.read_unit_bytes(), expect_fail);      // misaligned
    dev.Read(0, 0, 0, dev.read_unit_bytes() / 2, expect_fail);  // bad length
    dev.Read(0, 0, dev.unit_bytes(), dev.read_unit_bytes(), expect_fail);
    dev.Read(dev.channel_count(), 0, 0, dev.read_unit_bytes(), expect_fail);
    dev.Read(0, dev.units_per_channel(), 0, dev.read_unit_bytes(),
             expect_fail);
    dev.EraseUnit(0, dev.units_per_channel(), expect_fail);
    sim.Run();
    EXPECT_EQ(failures, 6);
    EXPECT_EQ(dev.stats().contract_violations, 6u);
}

TEST(SdfDevice, DynamicWearLevelingRotatesBlocks)
{
    sim::Simulator sim;
    SdfConfig cfg = TinyConfig();
    cfg.spare_blocks_per_plane = 4;
    SdfDevice dev(sim, cfg);

    // Hammer one unit with erase/write cycles; wear must spread over the
    // free pool instead of concentrating on one block.
    const int cycles = 64;
    for (int i = 0; i < cycles; ++i) {
        dev.EraseUnit(0, 0, nullptr);
        sim.Run();
        dev.WriteUnit(0, 0, nullptr);
        sim.Run();
    }
    const nand::Geometry &geo = dev.flash().geometry();
    uint32_t max_ec = 0;
    for (uint32_t b = 0; b < geo.blocks_per_plane; ++b) {
        max_ec = std::max(max_ec,
                          dev.flash().channel(0).block_meta({0, b}).erase_count);
    }
    EXPECT_LT(max_ec, static_cast<uint32_t>(cycles));
    // Wear spreads over at most the plane's whole block population.
    EXPECT_GE(max_ec,
              static_cast<uint32_t>(cycles) / geo.blocks_per_plane);
}

TEST(SdfDevice, WearOutRetiresBlocksAndEventuallyKillsUnit)
{
    sim::Simulator sim;
    SdfConfig cfg = TinyConfig();
    cfg.flash.errors.enabled = true;
    cfg.flash.errors.endurance_cycles = 2;
    cfg.flash.errors.wearout_fail_scale = 1.0;
    cfg.flash.geometry.channels = 1;
    cfg.spare_blocks_per_plane = 2;
    SdfDevice dev(sim, cfg);

    bool any_dead = false;
    for (int round = 0; round < 400 && !any_dead; ++round) {
        for (uint32_t u = 0; u < dev.units_per_channel(); ++u) {
            dev.EraseUnit(0, u, nullptr);
            sim.Run();
            if (dev.unit_state(0, u) == UnitState::kDead) {
                any_dead = true;
                break;
            }
            dev.WriteUnit(0, u, nullptr);
            sim.Run();
        }
    }
    EXPECT_TRUE(any_dead);
    EXPECT_GT(dev.stats().blocks_retired, 0u);
}

TEST(SdfDevice, ChannelsOperateIndependently)
{
    sim::Simulator sim;
    SdfDevice dev(sim, TinyConfig());
    dev.EraseUnit(0, 0, nullptr);
    sim.Run();
    dev.DebugForceWritten(1, 1);

    // A long write on channel 0 must not delay a read on channel 1.
    util::TimeNs write_done = 0, read_done = 0;
    dev.WriteUnit(0, 0, [&](bool) { write_done = sim.Now(); });
    dev.Read(1, 1, 0, dev.read_unit_bytes(),
             [&](bool) { read_done = sim.Now(); });
    sim.Run();
    EXPECT_LT(read_done, write_done / 4);
}

/** One channel of the production board (Table 3) at 0.04 capacity. */
SdfConfig
OneBaiduChannel()
{
    SdfConfig cfg = BaiduSdfConfig(0.04);
    cfg.flash.geometry.channels = 1;
    return cfg;
}

TEST(SdfDevice, UncontendedUnitTimingIsPinned)
{
    // Exact simulated completion times of an uncontended erase + 8 MB
    // unit write and of a full-unit read on one production channel. Any
    // change to how the device books plane, bus and link time moves them.
    sim::Simulator sim;
    SdfDevice dev(sim, OneBaiduChannel());

    bool ok = false;
    util::TimeNs written = 0;
    dev.EraseUnit(0, 0, [&](bool s) { ok = s; });
    sim.Run();
    ASSERT_TRUE(ok);
    const util::TimeNs erased = sim.Now();
    dev.WriteUnit(0, 0, [&](bool s) {
        ok = s;
        written = sim.Now() - erased;
    });
    sim.Run();
    ASSERT_TRUE(ok);
    EXPECT_EQ(written, 365293063);

    util::TimeNs read = 0;
    const util::TimeNs t0 = sim.Now();
    dev.Read(0, 0, 0, dev.unit_bytes(), [&](bool s) {
        ok = s;
        read = sim.Now() - t0;
    });
    sim.Run();
    ASSERT_TRUE(ok);
    EXPECT_EQ(read, 221402845);
}

TEST(SdfDevice, ReadMidWriteSuspendsTheProgram)
{
    // channel.cc's kSuspendLatency and kResumeLatency.
    constexpr util::TimeNs kSuspend = util::UsToNs(20);
    constexpr util::TimeNs kResume = util::UsToNs(5);
    sim::Simulator sim;
    const SdfConfig cfg = OneBaiduChannel();
    SdfDevice dev(sim, cfg);
    dev.EraseUnit(0, 0, nullptr);
    sim.Run();
    dev.DebugForceWritten(0, 1);
    // A page on plane 3, whose last program ends the unit write.
    const uint64_t offset = 3 * dev.unit_bytes() / 4;
    util::TimeNs read_latency = 0;
    auto read = [&]() {
        const util::TimeNs issued = sim.Now();
        dev.Read(0, 1, offset, dev.read_unit_bytes(),
                 [&, issued](bool) { read_latency = sim.Now() - issued; });
    };
    read();
    sim.Run();
    const util::TimeNs idle_read = read_latency;

    const nand::Channel &flash = dev.flash().channel(0);
    const util::TimeNs t0 = sim.Now();
    const util::TimeNs bus_before = flash.bus_busy_ns();
    bool write_ok = false;
    util::TimeNs write_done = 0;
    size_t pending_mid_write = 0;
    dev.WriteUnit(0, 0, [&](bool s) {
        write_ok = s;
        write_done = sim.Now() - t0;
    });
    sim.ScheduleAt(t0 + util::MsToNs(10), [&]() {
        pending_mid_write = sim.PendingEvents();
        read();
    });
    sim.Run();
    ASSERT_TRUE(write_ok);
    const nand::TimingSpec &t = cfg.flash.timing;
    // The read suspends plane 3's program: it takes the suspend latency
    // longer than on an idle channel, not the rest of a 1.4 ms program.
    EXPECT_EQ(dev.stats().program_suspends, 1u);
    EXPECT_EQ(read_latency, idle_read + kSuspend);
    // The read used plane 3's cache register, so the page staged there is
    // sent again: one extra data-in on the bus.
    EXPECT_EQ(dev.stats().resent_pages, 1u);
    const nand::Geometry &geo = dev.flash().geometry();
    const util::TimeNs page_bus = t.BusTime(geo.page_size);
    const uint64_t unit_pages =
        uint64_t{geo.PlanesPerChannel()} * geo.pages_per_block;
    // The unit's data-ins, the read's transfer out and the re-sent page.
    EXPECT_EQ(flash.bus_busy_ns() - bus_before,
              static_cast<util::TimeNs>(unit_pages + 2) * page_bus);
    // Plane 3 finishes later by the suspension (suspend, sense, resume)
    // and the re-sent page, and so does the write.
    EXPECT_EQ(write_done,
              365293063 + kSuspend + t.read_page + kResume + page_bus);
    // Pages are staged as programs complete: mid-write only each plane's
    // program is pending (its staged page's data-in has landed).
    EXPECT_LE(pending_mid_write, 4u);
}

/** Forwards every call to a device, as a tracing decorator does. */
class ForwardingDevice : public BlockDevice
{
  public:
    explicit ForwardingDevice(BlockDevice &inner) : inner_(inner) {}

    const DeviceCaps &caps() const override { return inner_.caps(); }
    void
    Read(uint32_t channel, uint32_t unit, uint64_t offset, uint64_t length,
         IoCallback done, std::vector<uint8_t> *out = nullptr,
         obs::IoSpan *span = nullptr) override
    {
        inner_.Read(channel, unit, offset, length, std::move(done), out, span);
    }
    void
    WriteUnit(uint32_t channel, uint32_t unit, IoCallback done,
              const uint8_t *data = nullptr,
              obs::IoSpan *span = nullptr) override
    {
        inner_.WriteUnit(channel, unit, std::move(done), data, span);
    }
    void
    EraseUnit(uint32_t channel, uint32_t unit, IoCallback done,
              obs::IoSpan *span = nullptr) override
    {
        inner_.EraseUnit(channel, unit, std::move(done), span);
    }
    UnitState
    unit_state(uint32_t channel, uint32_t unit) const override
    {
        return inner_.unit_state(channel, unit);
    }
    bool ChannelDead(uint32_t channel) const override
    {
        return inner_.ChannelDead(channel);
    }
    void
    DebugForceWritten(uint32_t channel, uint32_t unit) override
    {
        inner_.DebugForceWritten(channel, unit);
    }

  private:
    BlockDevice &inner_;
};

TEST(SdfDevice, ReadClassScopeReachesTheDeviceThroughADecorator)
{
    // One page read 10 ms into a unit write, through a decorator, as
    // ReadMidWriteSuspendsTheProgram reads it directly.
    struct Result
    {
        util::TimeNs latency = 0;
        uint64_t suspends = 0;
    };
    auto read_mid_write = [](ReadClass cls) {
        sim::Simulator sim;
        SdfDevice dev(sim, OneBaiduChannel());
        ForwardingDevice deco(dev);
        dev.EraseUnit(0, 0, nullptr);
        sim.Run();
        dev.DebugForceWritten(0, 1);
        const util::TimeNs t0 = sim.Now();
        Result r;
        deco.WriteUnit(0, 0, nullptr);
        sim.ScheduleAt(t0 + util::MsToNs(10), [&]() {
            const util::TimeNs issued = sim.Now();
            const ReadClassScope scope(cls);
            deco.Read(0, 1, 3 * dev.unit_bytes() / 4, dev.read_unit_bytes(),
                      [&, issued](bool) { r.latency = sim.Now() - issued; });
        });
        sim.Run();
        r.suspends = dev.stats().program_suspends;
        return r;
    };
    const Result on_demand = read_mid_write(ReadClass::kOnDemand);
    const Result background = read_mid_write(ReadClass::kBackground);
    // The on-demand read suspends plane 3's program; the background one
    // waits for it, and for the data-ins booked before it.
    EXPECT_EQ(on_demand.suspends, 1u);
    EXPECT_EQ(background.suspends, 0u);
    EXPECT_GT(background.latency, on_demand.latency + util::MsToNs(1));
    // Outside every scope a read is on-demand.
    EXPECT_EQ(ReadClassScope::Current(), ReadClass::kOnDemand);
}

TEST(SdfDevice, UncontendedUnitWriteFiresOneEventPerPage)
{
    // A page costs one timed event, its program's completion: nobody
    // waits on its data-in, which only moves the clock's horizon. The
    // write adds its engine command and its link transfer.
    sim::Simulator sim;
    SdfDevice dev(sim, OneBaiduChannel());
    dev.EraseUnit(0, 0, nullptr);
    sim.Run();
    const uint64_t before = sim.events_processed();
    dev.WriteUnit(0, 0, nullptr);
    sim.Run();
    EXPECT_EQ(sim.events_processed() - before, 1026u);
}

TEST(SdfDevice, UncontendedPageReadFiresSixEvents)
{
    // The engine command, the page's data-out, the DMA to the host, and
    // the interrupt's three: its group's merge window, the global merge
    // window and the posted batch. Nobody waits on the sense itself.
    sim::Simulator sim;
    SdfDevice dev(sim, OneBaiduChannel());
    dev.DebugForceWritten(0, 0);
    bool ok = false;
    dev.Read(0, 0, 0, dev.read_unit_bytes(), [&](bool s) { ok = s; });
    sim.Run();
    EXPECT_TRUE(ok);
    EXPECT_EQ(sim.events_processed(), 6u);
}

TEST(SdfDevice, BackgroundUnitReadHoldsOneEventOnItsChannel)
{
    // Once the engine books a whole-unit read's 1,024 pages, their
    // senses have no completions and their data-outs wait in the bus's
    // queue, which holds one engine event for its head.
    sim::Simulator sim;
    SdfDevice dev(sim, OneBaiduChannel());
    dev.DebugForceWritten(0, 0);
    bool ok = false;
    {
        ReadClassScope scope(ReadClass::kBackground);
        dev.Read(0, 0, 0, dev.unit_bytes(), [&](bool s) { ok = s; });
    }
    sim.RunUntil(util::UsToNs(1));  // The engine command.
    EXPECT_EQ(sim.events_processed(), 1u);
    EXPECT_EQ(sim.PendingEvents(), 1u);
    sim.Run();
    EXPECT_TRUE(ok);
}

TEST(SdfDevice, PagesProgramInOrderUnderInterleavedReads)
{
    sim::Simulator sim;
    SdfDevice dev(sim, TinyConfig(/*payloads=*/true));
    const auto payload = util::MakeDeterministicPayload(dev.unit_bytes(), 9);
    dev.EraseUnit(0, 0, nullptr);
    sim.Run();
    dev.DebugForceWritten(0, 1);

    // Reads of another unit on every plane while the write runs, so they
    // interleave with its programs.
    bool write_ok = false;
    dev.WriteUnit(0, 0, [&](bool s) { write_ok = s; }, payload.data());
    const uint64_t plane_bytes = dev.unit_bytes() / 4;
    for (int i = 0; i < 40; ++i) {
        sim.Schedule(util::UsToNs(3) * i, [&dev, plane_bytes, i]() {
            dev.Read(0, 1, (i % 4) * plane_bytes, dev.read_unit_bytes(),
                     nullptr);
        });
    }
    sim.Run();
    ASSERT_TRUE(write_ok);

    // A page programmed out of order would have failed the write
    // (kWriteSequenceError); every page holds its own slice of data.
    std::vector<uint8_t> out;
    bool read_ok = false;
    dev.Read(0, 0, 0, dev.unit_bytes(), [&](bool s) { read_ok = s; }, &out);
    sim.Run();
    ASSERT_TRUE(read_ok);
    EXPECT_EQ(out, payload);
}

TEST(SdfDevice, ChannelDeathMidWriteStopsFeedingPages)
{
    sim::Simulator sim;
    const SdfConfig cfg = OneBaiduChannel();
    SdfDevice dev(sim, cfg);
    dev.EraseUnit(0, 0, nullptr);
    sim.Run();

    const util::TimeNs t0 = sim.Now();
    IoStatus status;
    util::TimeNs done_at = 0;
    dev.WriteUnit(0, 0, [&](IoStatus s) {
        status = s;
        done_at = sim.Now() - t0;
    });
    const util::TimeNs death = util::MsToNs(20);
    sim.ScheduleAt(t0 + death,
                   [&dev]() { dev.flash().channel(0).InjectDeath(); });
    sim.Run();

    EXPECT_EQ(status.error, IoError::kChannelDead);
    // The programs already on the planes drain; nothing else is fed.
    EXPECT_LT(done_at, death + 2 * cfg.flash.timing.program_page +
                           util::MsToNs(1));
    const nand::Geometry &geo = dev.flash().geometry();
    const uint64_t fed = dev.flash().channel(0).stats().programs;
    EXPECT_GT(fed, 0u);
    EXPECT_LT(fed, uint64_t{geo.PlanesPerChannel()} *
                       (death / cfg.flash.timing.program_page + 3));
}

TEST(SdfDevice, EraseLatencyMatchesBlockEraseTime)
{
    sim::Simulator sim;
    SdfConfig cfg;
    cfg.flash.geometry = nand::TinyTestGeometry();
    cfg.flash.timing = nand::Micron25nmMlcTiming();
    cfg.link = controller::UnlimitedLinkSpec();
    cfg.spare_blocks_per_plane = 2;
    SdfDevice dev(sim, cfg);
    dev.DebugForceWritten(0, 0);

    util::TimeNs done_at = 0;
    dev.EraseUnit(0, 0, [&](bool) { done_at = sim.Now(); });
    sim.Run();
    // Four plane erases run in parallel: ~3 ms, not 12 ms.
    EXPECT_GE(done_at, util::MsToNs(3.0));
    EXPECT_LE(done_at, util::MsToNs(3.6));
}

TEST(SdfDevice, StatsAccumulate)
{
    sim::Simulator sim;
    SdfDevice dev(sim, TinyConfig());
    dev.EraseUnit(0, 0, nullptr);
    sim.Run();
    dev.WriteUnit(0, 0, nullptr);
    sim.Run();
    dev.Read(0, 0, 0, 2 * dev.read_unit_bytes(), nullptr);
    sim.Run();
    EXPECT_EQ(dev.stats().unit_erases, 1u);
    EXPECT_EQ(dev.stats().unit_writes, 1u);
    EXPECT_EQ(dev.stats().page_reads, 2u);
    EXPECT_EQ(dev.stats().written_bytes, dev.unit_bytes());
    EXPECT_EQ(dev.stats().read_bytes, 2u * dev.read_unit_bytes());
}

TEST(SdfDevice, FactoryBadBlocksShrinkButDontBreakCapacity)
{
    sim::Simulator sim;
    SdfConfig cfg = TinyConfig();
    cfg.flash.factory_bad_per_mille = 100;  // Exaggerated defects.
    cfg.flash.seed = 11;
    cfg.spare_blocks_per_plane = 1;
    SdfDevice dev(sim, cfg);
    EXPECT_GT(dev.units_per_channel(), 0u);
    EXPECT_LT(dev.units_per_channel(), cfg.flash.geometry.blocks_per_plane);

    // Every exposed unit must still be usable.
    bool ok = false;
    dev.EraseUnit(0, dev.units_per_channel() - 1, [&](bool s) { ok = s; });
    sim.Run();
    EXPECT_TRUE(ok);
}

}  // namespace
}  // namespace sdf::core
