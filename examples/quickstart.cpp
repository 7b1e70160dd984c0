/**
 * @file
 * Quickstart: the SDF device API in one file.
 *
 * Creates a (scaled) Baidu SDF, walks the asymmetric interface — explicit
 * erase, whole-unit 8 MB write, 8 KB-granularity read — verifies the data
 * round-trips, and prints what the device did. The device is driven
 * through the core::BlockDevice interface; everything runs inside the
 * discrete-event simulator and simulated time is reported at the end.
 *
 * Build & run:  ./build/examples/quickstart
 * Optional:     --stats-json=out.json --trace=out.trace.json
 */
#include <cstdio>

#include "obs/obs_cli.h"
#include "sdf/sdf_device.h"
#include "sim/simulator.h"
#include "util/fingerprint.h"

int
main(int argc, char **argv)
{
    using namespace sdf;

    obs::ObsCli &obs = obs::GlobalObs();
    obs.ParseAndStrip(argc, argv);

    // One simulator clocks everything.
    sim::Simulator sim;
    obs::BindObs(sim);

    // A Baidu SDF at 5 % capacity scale (35 GB instead of 704 GB raw),
    // storing real payloads so we can verify what we read back.
    core::SdfConfig config = core::BaiduSdfConfig(0.05);
    config.flash.store_payloads = true;
    core::SdfDevice sdf_device(sim, config);

    // Everything below talks to the capability descriptor + async I/O
    // interface only, the one the block layer drives SDF through.
    core::BlockDevice &device = sdf_device;
    const core::DeviceCaps &caps = device.caps();

    std::printf("Device: %s\n", caps.name.c_str());
    std::printf("  channels:        %u (each exposed to software)\n",
                caps.channels);
    std::printf("  write/erase unit: %s\n",
                util::FormatBytes(caps.unit_bytes).c_str());
    std::printf("  read unit:        %s\n",
                util::FormatBytes(caps.read_unit_bytes).c_str());
    std::printf("  user capacity:    %s of %s raw (%.1f %%)\n\n",
                util::FormatBytes(caps.user_capacity).c_str(),
                util::FormatBytes(caps.raw_capacity).c_str(),
                100.0 * caps.user_capacity / caps.raw_capacity);

    const uint32_t channel = 7;
    const uint32_t unit = 3;
    const auto payload =
        util::MakeDeterministicPayload(device.unit_bytes(), 2026);

    // 1. The software contract: erase before write. Writing a non-erased
    //    unit is refused.
    device.WriteUnit(channel, unit, [](bool ok) {
        std::printf("write without erase -> %s (contract enforced)\n",
                    ok ? "accepted?!" : "refused");
    });

    // 2. Explicit erase, then a full-unit write, then partial reads.
    device.EraseUnit(channel, unit, [&](bool ok) {
        std::printf("erase unit (%u, %u)  -> %s at t=%.1f ms\n", channel,
                    unit, ok ? "ok" : "failed", util::NsToMs(sim.Now()));
        device.WriteUnit(
            channel, unit,
            [&](bool write_ok) {
                std::printf("write 8 MB unit    -> %s at t=%.1f ms\n",
                            write_ok ? "ok" : "failed",
                            util::NsToMs(sim.Now()));

                // Read one page from the middle of the unit.
                auto out = std::make_shared<std::vector<uint8_t>>();
                const uint64_t offset = 3 * util::kMiB;
                device.Read(
                    channel, unit, offset, device.read_unit_bytes(),
                    [&, out, offset](bool read_ok) {
                        const bool match =
                            read_ok &&
                            std::equal(out->begin(), out->end(),
                                       payload.begin() + offset);
                        std::printf(
                            "read 8 KB @ +3 MB  -> %s, data %s, t=%.1f ms\n",
                            read_ok ? "ok" : "failed",
                            match ? "matches" : "MISMATCH",
                            util::NsToMs(sim.Now()));
                    },
                    out.get());
            },
            payload.data());
    });

    // Run the simulation to completion.
    sim.Run();

    const core::SdfStats &stats = sdf_device.stats();
    std::printf("\nDevice counters: %llu unit writes, %llu unit erases, "
                "%llu page reads, %llu contract violations\n",
                static_cast<unsigned long long>(stats.unit_writes),
                static_cast<unsigned long long>(stats.unit_erases),
                static_cast<unsigned long long>(stats.page_reads),
                static_cast<unsigned long long>(stats.contract_violations));
    std::printf("Total simulated time: %.1f ms\n", util::NsToMs(sim.Now()));
    obs.AddMeta("example", "quickstart");
    return obs.Export();
}
