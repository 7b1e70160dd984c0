/**
 * @file
 * Reliability walkthrough: wear leveling, wear-out, bad-block management,
 * and the ECC budget — the machinery behind §2.2's decision to drop
 * inter-channel parity and rely on per-chip ECC plus replication.
 *
 * Part 1 hammers one SDF unit with erase/write cycles on a flash model
 * with a tiny endurance budget and watches dynamic wear leveling spread
 * the damage, blocks retire into spares, and the unit eventually die.
 *
 * Part 2 samples the raw bit errors of 8 KiB pages at increasing raw bit
 * error rates and checks each page against the per-page ECC budget that
 * every simulated flash read applies, reporting corrected bits and
 * uncorrectable pages.
 *
 * Build & run:  ./build/examples/wear_and_reliability
 * Optional:     --stats-json=out.json --trace=out.trace.json
 */
#include <algorithm>
#include <cstdio>

#include "nand/flash_array.h"
#include "obs/obs_cli.h"
#include "sdf/sdf_device.h"
#include "sim/simulator.h"
#include "util/rng.h"

int
main(int argc, char **argv)
{
    using namespace sdf;

    obs::ObsCli &obs = obs::GlobalObs();
    obs.ParseAndStrip(argc, argv);

    // ---- Part 1: wear-out on a fragile flash ---------------------------
    std::printf("Part 1 — dynamic wear leveling and wear-out\n");
    sim::Simulator sim;
    obs::BindObs(sim);
    core::SdfConfig cfg;
    cfg.flash.geometry = nand::TinyTestGeometry();
    cfg.flash.geometry.channels = 1;
    cfg.flash.geometry.blocks_per_plane = 16;
    cfg.flash.timing = nand::FastTestTiming();
    cfg.flash.errors.enabled = true;
    cfg.flash.errors.endurance_cycles = 60;   // Absurdly fragile, on purpose.
    cfg.flash.errors.wearout_fail_scale = 0.5;
    cfg.spare_blocks_per_plane = 4;
    core::SdfDevice device(sim, cfg);

    std::printf("  %u units exposed over %u blocks/plane (%u spares)\n",
                device.units_per_channel(),
                cfg.flash.geometry.blocks_per_plane,
                cfg.spare_blocks_per_plane);

    int cycles = 0;
    bool dead = false;
    while (!dead && cycles < 5000) {
        device.EraseUnit(0, 0, [&](bool ok) {
            if (!ok) dead = true;
        });
        sim.Run();
        if (dead || device.unit_state(0, 0) == core::UnitState::kDead) {
            dead = true;
            break;
        }
        device.WriteUnit(0, 0, nullptr);
        sim.Run();
        ++cycles;
    }

    uint32_t max_ec = 0, worn_blocks = 0;
    for (uint32_t b = 0; b < cfg.flash.geometry.blocks_per_plane; ++b) {
        const auto &meta = device.flash().channel(0).block_meta({0, b});
        max_ec = std::max(max_ec, meta.erase_count);
        worn_blocks += meta.bad;
    }
    std::printf("  unit survived %d erase/write cycles — %.1fx its rated\n"
                "  endurance, because wear spread over the pool "
                "(max erase count %u)\n",
                cycles,
                static_cast<double>(cycles) / cfg.flash.errors.endurance_cycles,
                max_ec);
    std::printf("  blocks retired to spares: %llu (plane 0 bad blocks: %u)\n\n",
                static_cast<unsigned long long>(device.stats().blocks_retired),
                worn_blocks);

    // ---- Part 2: the ECC budget against rising raw bit error rates -----
    const nand::FlashArrayConfig flash;
    const uint32_t page_bytes = flash.geometry.page_size;
    std::printf("Part 2 — %u-bit ECC budget per %u KiB page vs raw bit "
                "error rate\n",
                flash.ecc_correctable_bits, page_bytes / 1024);
    nand::ErrorModel model = flash.errors;
    model.enabled = true;
    util::Rng rng(5);

    std::printf("  %-10s %-12s %-10s %-12s %-14s\n", "RBER", "bits/page",
                "pages", "corrected", "uncorrectable");
    for (double rber : {1e-5, 1e-4, 3e-4, 6e-4, 1e-3}) {
        model.base_rber = rber;
        const int pages = 200;
        int uncorrectable = 0;
        long corrected_bits = 0;
        for (int p = 0; p < pages; ++p) {
            // A fresh block: the page's RBER is the base rate.
            const uint32_t errs = model.SampleBitErrors(rng, page_bytes, 0);
            if (errs > flash.ecc_correctable_bits) {
                ++uncorrectable;
            } else {
                corrected_bits += errs;
            }
        }
        std::printf("  %-10.0e %-12.1f %-10d %-12ld %-14d\n", rber,
                    8.0 * page_bytes * rber, pages, corrected_bits,
                    uncorrectable);
    }
    std::printf("\nAt nominal RBER the ECC absorbs everything; past its\n"
                "budget pages fail, the SDF re-reads them on its retry\n"
                "ladder, and past that falls back on system-level\n"
                "replication (one uncorrectable error in six months across\n"
                "2000+ devices, per §2.2).\n");
    obs.AddMeta("example", "wear_and_reliability");
    obs.AddDerived("wear.cycles_survived", cycles);
    return obs.Export();
}
