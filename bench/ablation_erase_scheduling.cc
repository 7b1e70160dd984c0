/**
 * @file
 * Ablation: erase scheduling policy in the block layer.
 *
 * The paper exposes erase so software can schedule it (§2.3): erasing
 * inline before every write (their measured configuration) versus erasing
 * dirty units in the background during idle periods. Background erasing
 * removes the ~3 ms erase from the write's critical path whenever the
 * workload has any idle time — and on a bursty write workload the p99
 * write latency drops accordingly.
 */
#include <cstdio>

#include "bench_common.h"
#include "util/assert.h"
#include "util/table_printer.h"

namespace sdf {
namespace {

struct Result
{
    double mean_ms;
    double p99_ms;
    uint64_t inline_erases;
    uint64_t bg_erases;
};

Result
RunPolicy(blocklayer::ErasePolicy policy)
{
    sim::Simulator sim;
    obs::BindObs(sim);
    core::SdfDevice device(sim, core::BaiduSdfConfig(0.04));
    blocklayer::BlockLayerConfig cfg;
    cfg.erase_policy = policy;
    blocklayer::BlockLayer layer(sim, device, cfg);

    // Fill the device completely so every subsequent write reuses a
    // previously written unit — erases are then real physical erases.
    const uint64_t total =
        uint64_t{device.channel_count()} * device.units_per_channel();
    for (uint64_t id = 0; id < total; ++id) {
        const bool installed = layer.DebugInstall(id);
        SDF_CHECK(installed);
    }

    // Bursty workload: a batch of deletes, an idle period (the background
    // eraser's opportunity), then a burst of writes reusing those units.
    util::LatencyRecorder lat(false);
    uint64_t next_id = total;
    for (int burst = 0; burst < 40; ++burst) {
        for (int i = 0; i < 10; ++i) {
            layer.Delete(next_id - total + i);
        }
        sim.RunUntil(sim.Now() + util::MsToNs(40));  // Idle gap.
        for (int i = 0; i < 10; ++i) {
            const util::TimeNs start = sim.Now();
            layer.Put(next_id++, [&lat, &sim, start](bool) {
                lat.Record(sim.Now() - start);
            });
            sim.Run();
        }
    }

    return Result{lat.MeanMs(), lat.PercentileMs(99),
                  layer.stats().inline_erases,
                  layer.stats().background_erases};
}

}  // namespace
}  // namespace sdf

int
main(int argc, char **argv)
{
    using namespace sdf;
    obs::GlobalObs().ParseAndStrip(argc, argv);
    bench::PrintPreamble("Ablation — erase scheduling policy",
                         "§2.3 motivation for the explicit erase command");

    util::TablePrinter table("Erase scheduling: write latency (ms)");
    table.SetHeader({"Policy", "mean", "p99", "inline erases", "bg erases"});
    for (auto [name, policy] :
         {std::pair{"erase-on-write (paper setup)",
                    blocklayer::ErasePolicy::kEraseOnWrite},
          std::pair{"background (idle-time) erase",
                    blocklayer::ErasePolicy::kBackground}}) {
        const auto r = RunPolicy(policy);
        table.AddRow({name, util::TablePrinter::Num(r.mean_ms, 1),
                      util::TablePrinter::Num(r.p99_ms, 1),
                      util::TablePrinter::Int(static_cast<int64_t>(
                          r.inline_erases)),
                      util::TablePrinter::Int(static_cast<int64_t>(
                          r.bg_erases))});
    }
    table.Print();
    std::printf("Expectation: background erasing removes the ~3 ms erase\n"
                "from the write path when idle time exists; the paper\n"
                "measured with erase-on-write (Figure 8's 383 ms includes\n"
                "the erase).\n");
    obs::GlobalObs().AddMeta("experiment", "ablation_erase_scheduling");
    return obs::GlobalObs().Export();
}
