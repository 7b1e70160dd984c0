/**
 * @file
 * End-to-end fault injection and recovery tests: the fault plan format,
 * the injector, the device read-retry ladder and block retirement, unit
 * lifecycle under wear-out, and full fault-campaign invariants (no data
 * loss, bounded completion, determinism). Replicated failover with
 * read-repair and the RPC timeout ladder are tested in test_cluster.cc.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "fault/fault.h"
#include "fault_common.h"
#include "sdf/sdf_device.h"
#include "sim/simulator.h"
#include "util/fingerprint.h"

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
// FaultPlan
// ---------------------------------------------------------------------------

TEST(FaultPlan, RandomIsDeterministicPerSeed)
{
    fault::FaultPlanSpec spec;
    spec.fault_count = 64;
    const fault::FaultPlan a = fault::FaultPlan::Random(spec, 7);
    const fault::FaultPlan b = fault::FaultPlan::Random(spec, 7);
    const fault::FaultPlan c = fault::FaultPlan::Random(spec, 8);
    ASSERT_EQ(a.size(), 64u);
    ASSERT_EQ(a.size(), b.size());
    bool differs_from_c = a.size() != c.size();
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a.events()[i].when, b.events()[i].when);
        EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
        EXPECT_EQ(a.events()[i].channel, b.events()[i].channel);
        if (!differs_from_c &&
            (a.events()[i].when != c.events()[i].when ||
             a.events()[i].kind != c.events()[i].kind)) {
            differs_from_c = true;
        }
    }
    EXPECT_TRUE(differs_from_c);
}

TEST(FaultPlan, RespectsMaxDeaths)
{
    // Deaths weigh 0.5 of 13.5, so 500 draws pick ~18: the cap binds.
    fault::FaultPlanSpec spec;
    spec.fault_count = 500;
    spec.max_deaths = 3;
    const fault::FaultPlan plan = fault::FaultPlan::Random(spec, 11);
    uint32_t deaths = 0;
    for (const auto &e : plan.events()) {
        if (e.kind == fault::FaultKind::kChannelDeath) ++deaths;
    }
    EXPECT_EQ(deaths, 3u);
}

TEST(FaultPlan, RandomPlansArePinned)
{
    // Fingerprints of the plan text under three specs: a change to the
    // kinds' weights, their order or the draws moves at least one. With
    // no deaths allowed, every death drawn is demoted to a stall.
    fault::FaultPlanSpec no_deaths;
    no_deaths.max_deaths = 0;
    const fault::FaultPlanSpec campaign =
        bench::CampaignFaultSpec(bench::FaultCampaignConfig{});
    const struct
    {
        const char *name;
        fault::FaultPlanSpec spec;
        uint64_t seed;
        uint64_t fingerprint;
    } cases[] = {
        {"default", fault::FaultPlanSpec{}, 1, 0xe3963185d25a6dc1ULL},
        {"default", fault::FaultPlanSpec{}, 2, 0xf8e96bdd6cbb8835ULL},
        {"default", fault::FaultPlanSpec{}, 3, 0xe32d84968f0c88c7ULL},
        {"campaign", campaign, 1, 0xe88373165439f2aeULL},
        {"campaign", campaign, 2, 0x69fc845e53fdecfbULL},
        {"campaign", campaign, 3, 0x781bb918c8412f6dULL},
        {"no deaths", no_deaths, 1, 0x142aec484105ecc7ULL},
        {"no deaths", no_deaths, 2, 0x842122f7f4752517ULL},
        {"no deaths", no_deaths, 3, 0xb6995d5559f37716ULL},
    };
    for (const auto &c : cases) {
        EXPECT_EQ(util::Fingerprint(
                      fault::FaultPlan::Random(c.spec, c.seed).ToText()),
                  c.fingerprint)
            << c.name << " seed " << c.seed;
    }
}

TEST(FaultPlan, ParseToTextRoundTrip)
{
    const std::string text =
        "# comment line\n"
        "1000 stall 0 3 500\n"
        "2000 death 0 7\n"
        "\n"
        "3000 corrupt 1 2 3 4 5   # trailing comment\n"
        "4000 crc 0 5 800 0.25\n"
        "5000 rber 0 2 0 3 50\n";
    fault::FaultPlan plan;
    std::string error;
    ASSERT_TRUE(fault::FaultPlan::Parse(text, &plan, &error)) << error;
    ASSERT_EQ(plan.size(), 5u);
    EXPECT_EQ(plan.events()[0].kind, fault::FaultKind::kChannelStall);
    EXPECT_EQ(plan.events()[0].when, util::UsToNs(1000));
    EXPECT_EQ(plan.events()[0].duration, util::UsToNs(500));
    EXPECT_EQ(plan.events()[1].kind, fault::FaultKind::kChannelDeath);
    EXPECT_EQ(plan.events()[1].channel, 7u);
    EXPECT_EQ(plan.events()[2].device, 1u);
    EXPECT_EQ(plan.events()[2].page, 5u);
    EXPECT_DOUBLE_EQ(plan.events()[3].magnitude, 0.25);
    EXPECT_DOUBLE_EQ(plan.events()[4].magnitude, 50.0);

    fault::FaultPlan again;
    ASSERT_TRUE(fault::FaultPlan::Parse(plan.ToText(), &again, &error))
        << error;
    ASSERT_EQ(again.size(), plan.size());
    for (size_t i = 0; i < plan.size(); ++i) {
        EXPECT_EQ(again.events()[i].when, plan.events()[i].when);
        EXPECT_EQ(again.events()[i].kind, plan.events()[i].kind);
        EXPECT_EQ(again.events()[i].device, plan.events()[i].device);
        EXPECT_EQ(again.events()[i].channel, plan.events()[i].channel);
        EXPECT_EQ(again.events()[i].block, plan.events()[i].block);
    }
}

TEST(FaultPlan, ParseRejectsMalformedLines)
{
    fault::FaultPlan plan;
    std::string error;
    EXPECT_FALSE(fault::FaultPlan::Parse("5 explode 0 0\n", &plan, &error));
    EXPECT_NE(error.find("line 1"), std::string::npos);
    EXPECT_FALSE(fault::FaultPlan::Parse("5 stall 0\n", &plan, &error));
    EXPECT_FALSE(fault::FaultPlan::Parse("5 stall 0 0 -3\n", &plan, &error));
    EXPECT_FALSE(
        fault::FaultPlan::Parse("5 crc 0 0 100 1.5\n", &plan, &error));
    EXPECT_FALSE(fault::FaultPlan::Parse("ok\n5 death 0 0\n", &plan, &error));
    // Times and durations must fit the clock (~292 years of ns), and a
    // fail-slow factor must be a slowdown of at most 1000x.
    for (const char *line :
         {"100 stall 0 0 1e300\n", "1e300 stall 0 0 5\n",
          "9e15 stall 0 0 9e15\n",
          "100 crc 0 0 1e300 0.5\n", "100 failslow 2 0 1e300 4\n",
          "100 failslow 2 0 50 0.5\n", "100 failslow 2 0 50 1e300\n"}) {
        EXPECT_FALSE(fault::FaultPlan::Parse(line, &plan, &error)) << line;
    }
    ASSERT_TRUE(fault::FaultPlan::Parse("100 failslow 2 0 50 1000\n", &plan,
                                        &error))
        << error;
    EXPECT_DOUBLE_EQ(plan.events()[0].magnitude, 1000.0);
}

// ---------------------------------------------------------------------------
// FaultInjector
// ---------------------------------------------------------------------------

TEST(FaultInjector, AppliesEventsAndSkipsOutOfRange)
{
    sim::Simulator sim;
    core::SdfDevice dev(sim, TinyConfig());
    std::vector<fault::FaultEvent> events;
    fault::FaultEvent death;
    death.kind = fault::FaultKind::kChannelDeath;
    death.when = util::UsToNs(10);
    death.channel = 1;
    events.push_back(death);
    fault::FaultEvent bogus = death;  // Channel beyond the tiny geometry.
    bogus.channel = 99;
    events.push_back(bogus);
    fault::FaultEvent stall;
    stall.kind = fault::FaultKind::kChannelStall;
    stall.when = util::UsToNs(20);
    stall.channel = 0;
    stall.duration = util::UsToNs(100);
    events.push_back(stall);

    fault::FaultInjector injector(sim, {&dev},
                                  fault::FaultPlan(std::move(events)));
    sim.Run();
    EXPECT_TRUE(dev.ChannelDead(1));
    EXPECT_FALSE(dev.ChannelDead(0));
    EXPECT_EQ(injector.stats().deaths, 1u);
    EXPECT_EQ(injector.stats().stalls, 1u);
    EXPECT_EQ(injector.stats().skipped, 1u);
    EXPECT_EQ(injector.stats().total(), 2u);
}

TEST(FaultInjector, DeadChannelFailsOperationsTyped)
{
    sim::Simulator sim;
    core::SdfDevice dev(sim, TinyConfig());
    dev.EraseUnit(0, 0, nullptr);
    sim.Run();
    dev.flash().channel(0).InjectDeath();

    core::IoStatus write_st;
    dev.WriteUnit(0, 0, [&](core::IoStatus st) { write_st = st; });
    sim.Run();
    EXPECT_FALSE(write_st.ok());
    EXPECT_EQ(write_st.error, core::IoError::kChannelDead);

    core::IoStatus read_st;
    dev.Read(0, 0, 0, dev.read_unit_bytes(),
             [&](core::IoStatus st) { read_st = st; });
    sim.Run();
    EXPECT_EQ(read_st.error, core::IoError::kChannelDead);
}

// ---------------------------------------------------------------------------
// Read-retry ladder
// ---------------------------------------------------------------------------

/** Erase+write every unit, then read every page once; returns the device. */
std::unique_ptr<core::SdfDevice>
RunElevatedRberReads(sim::Simulator &sim, uint32_t retry_levels,
                     uint64_t seed)
{
    core::SdfConfig cfg = TinyConfig();
    // ~29 expected raw bit errors per 4 KiB page against a 40-bit ECC
    // budget: a few percent of plain reads fail, but each extra ladder
    // level adds 10 correctable bits, putting re-reads deep in the safe
    // tail of the Poisson distribution.
    cfg.flash.errors.enabled = true;
    cfg.flash.errors.base_rber = 9e-4;
    cfg.flash.seed = seed;
    cfg.read_retry_levels = retry_levels;
    auto dev = std::make_unique<core::SdfDevice>(sim, cfg);
    for (uint32_t c = 0; c < dev->channel_count(); ++c) {
        for (uint32_t u = 0; u < dev->units_per_channel(); ++u) {
            dev->EraseUnit(c, u, nullptr);
            sim.Run();
            dev->WriteUnit(c, u, nullptr);
            sim.Run();
        }
    }
    for (uint32_t c = 0; c < dev->channel_count(); ++c) {
        for (uint32_t u = 0; u < dev->units_per_channel(); ++u) {
            dev->Read(c, u, 0, dev->unit_bytes(), nullptr);
            sim.Run();
        }
    }
    return dev;
}

TEST(ReadRetryLadder, RecoversAtLeastTenfold)
{
    sim::Simulator sim_off;
    const auto without = RunElevatedRberReads(sim_off, 0, 123);
    sim::Simulator sim_on;
    const auto with = RunElevatedRberReads(sim_on, 4, 123);

    const uint64_t failures_without = without->stats().read_failures;
    const uint64_t failures_with = with->stats().read_failures;
    EXPECT_EQ(without->stats().read_retries, 0u);
    EXPECT_GT(with->stats().read_retries, 0u);
    EXPECT_GT(with->stats().retry_recoveries, 0u);
    ASSERT_GT(failures_without, 0u);
    // The acceptance bar: the ladder cuts terminal read failures by >= 10x.
    EXPECT_GE(failures_without,
              10 * std::max<uint64_t>(failures_with, 1));
    // Recovered pages have recorded recovery latencies.
    EXPECT_EQ(with->recovery_latencies().count(),
              with->stats().retry_recoveries);
}

TEST(ReadRetryLadder, DeterministicStatsForEqualSeeds)
{
    sim::Simulator sim_a;
    const auto a = RunElevatedRberReads(sim_a, 4, 99);
    sim::Simulator sim_b;
    const auto b = RunElevatedRberReads(sim_b, 4, 99);
    EXPECT_EQ(a->stats().page_reads, b->stats().page_reads);
    EXPECT_EQ(a->stats().read_retries, b->stats().read_retries);
    EXPECT_EQ(a->stats().retry_recoveries, b->stats().retry_recoveries);
    EXPECT_EQ(a->stats().read_failures, b->stats().read_failures);
    EXPECT_EQ(a->stats().blocks_retired, b->stats().blocks_retired);
    EXPECT_EQ(a->stats().units_lost, b->stats().units_lost);
    EXPECT_EQ(sim_a.Now(), sim_b.Now());
}

TEST(ReadRetryLadder, CorruptionRetiresBlockAndSurfacesTypedError)
{
    sim::Simulator sim;
    core::SdfDevice dev(sim, TinyConfig());
    dev.EraseUnit(0, 0, nullptr);
    sim.Run();
    dev.WriteUnit(0, 0, nullptr);
    sim.Run();

    // Corrupt page 0 of every plane-0 block: whichever block unit 0
    // mapped, its first page is now uncorrectable at every retry level.
    const nand::Geometry &geo = dev.flash().geometry();
    for (uint32_t b = 0; b < geo.blocks_per_plane; ++b) {
        dev.flash().channel(0).CorruptPage(nand::PageAddr{0, b, 0});
    }
    const uint32_t spares_before = dev.SparesLeft(0, 0);

    core::IoStatus st;
    dev.Read(0, 0, 0, dev.unit_bytes(), [&](core::IoStatus s) { st = s; });
    sim.Run();
    EXPECT_FALSE(st.ok());
    EXPECT_EQ(st.error, core::IoError::kReadUncorrectable);
    EXPECT_GE(dev.stats().read_retirements, 1u);
    EXPECT_GE(dev.stats().blocks_retired, 1u);
    EXPECT_GE(dev.GrownBadCount(0, 0), 1u);
    EXPECT_EQ(dev.SparesLeft(0, 0), spares_before - dev.GrownBadCount(0, 0));
    // The unit was remapped, not killed: spares absorbed the loss.
    EXPECT_EQ(dev.unit_state(0, 0), core::UnitState::kWritten);
}

// ---------------------------------------------------------------------------
// Unit lifecycle under wear-out
// ---------------------------------------------------------------------------

TEST(UnitLifecycle, WearOutWalksUnwrittenErasedWrittenDead)
{
    sim::Simulator sim;
    core::SdfConfig cfg = TinyConfig();
    cfg.flash.errors.enabled = true;
    cfg.flash.errors.endurance_cycles = 2;
    cfg.flash.errors.wearout_fail_scale = 1.0;
    core::SdfDevice dev(sim, cfg);

    EXPECT_EQ(dev.unit_state(0, 0), core::UnitState::kUnwritten);
    dev.EraseUnit(0, 0, nullptr);
    sim.Run();
    EXPECT_EQ(dev.unit_state(0, 0), core::UnitState::kErased);
    dev.WriteUnit(0, 0, nullptr);
    sim.Run();
    EXPECT_EQ(dev.unit_state(0, 0), core::UnitState::kWritten);

    // Hammer erase/write cycles until wear-out exhausts the plane's
    // spares and the unit dies.
    for (int round = 0; round < 500; ++round) {
        bool dead = false;
        for (uint32_t u = 0; u < dev.units_per_channel(); ++u) {
            dev.EraseUnit(0, u, nullptr);
            sim.Run();
            if (dev.unit_state(0, u) == core::UnitState::kDead) {
                dead = true;
                break;
            }
            dev.WriteUnit(0, u, nullptr);
            sim.Run();
        }
        if (dead) break;
    }
    uint32_t dead_units = 0;
    for (uint32_t u = 0; u < dev.units_per_channel(); ++u) {
        if (dev.unit_state(0, u) == core::UnitState::kDead) ++dead_units;
    }
    ASSERT_GE(dead_units, 1u);
    EXPECT_EQ(dev.stats().units_lost, dead_units);
    EXPECT_GT(dev.stats().blocks_retired, 0u);

    // A dead unit stays dead: erase completes with kUnitDead.
    uint32_t dead_u = 0;
    while (dev.unit_state(0, dead_u) != core::UnitState::kDead) ++dead_u;
    core::IoStatus st;
    dev.EraseUnit(0, dead_u, [&](core::IoStatus s) { st = s; });
    sim.Run();
    EXPECT_EQ(st.error, core::IoError::kUnitDead);
    EXPECT_EQ(dev.unit_state(0, dead_u), core::UnitState::kDead);
}

// ---------------------------------------------------------------------------
// Full campaign invariants
// ---------------------------------------------------------------------------

bench::FaultCampaignConfig
SmallCampaign(uint64_t seed)
{
    bench::FaultCampaignConfig cfg;
    cfg.keys = 150;
    cfg.reads = 300;
    cfg.fault_count = 100;
    cfg.horizon_sec = 0.2;
    cfg.seed = seed;
    return cfg;
}

TEST(FaultCampaign, NoDataLossAndAllRequestsComplete)
{
    const bench::FaultCampaignResult r =
        bench::RunFaultCampaign(SmallCampaign(5));
    EXPECT_EQ(r.faults.total() + r.faults.skipped, 100u);
    // 300 reads and 200 inserts in the mean; this seed issues 501 ops and
    // audits the 150 preloaded keys plus the 176 acked inserts.
    EXPECT_EQ(r.requests_issued, 501u);
    EXPECT_EQ(r.keys_stored, 326u);
    EXPECT_EQ(r.keys_lost, 0u);
    EXPECT_EQ(r.requests_completed, r.requests_issued);
}

TEST(FaultCampaign, FingerprintIsSeedDeterministic)
{
    const bench::FaultCampaignResult a =
        bench::RunFaultCampaign(SmallCampaign(5));
    const bench::FaultCampaignResult b =
        bench::RunFaultCampaign(SmallCampaign(5));
    EXPECT_EQ(a.fingerprint, b.fingerprint);
    EXPECT_EQ(a.device.page_reads, b.device.page_reads);
    EXPECT_EQ(a.kv.degraded_reads, b.kv.degraded_reads);
    EXPECT_EQ(a.rpc.timeouts, b.rpc.timeouts);

    const bench::FaultCampaignResult c =
        bench::RunFaultCampaign(SmallCampaign(6));
    EXPECT_NE(a.fingerprint, c.fingerprint);
}

}  // namespace
}  // namespace sdf
