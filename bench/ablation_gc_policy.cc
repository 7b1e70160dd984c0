/**
 * @file
 * Ablation: GC victim selection policy on the conventional baseline —
 * greedy (fewest valid pages, what vendors ship) vs cost-benefit
 * (age-weighted) — under uniform random and hot/cold skewed writes.
 *
 * Greedy is optimal for uniform traffic; cost-benefit wins when a cold
 * majority shouldn't be repeatedly migrated alongside a hot minority.
 */
#include <cstdio>
#include <memory>

#include "bench_common.h"
#include "util/table_printer.h"

namespace sdf {
namespace {

struct Outcome
{
    double mbps;
    double wa;
};

Outcome
Run(ssd::GcPolicy policy, double hot_fraction)
{
    ssd::ConventionalSsdConfig cfg = ssd::Intel320Config(1.0);
    cfg.op_ratio = 0.12;
    cfg.flash.geometry.channels = 4;
    cfg.flash.geometry.blocks_per_plane = 120;
    cfg.flash.geometry.pages_per_block = 32;
    cfg.gc_low_watermark = 3;
    cfg.gc_high_watermark = 5;
    cfg.gc_policy = policy;
    cfg.static_wear_leveling = false;  // Isolate the victim policy.
    cfg.dram_cache_bytes = 8 * util::kMiB;

    sim::Simulator sim;

    obs::BindObs(sim);
    ssd::ConventionalSsd device(sim, cfg);
    host::IoStack stack(sim, host::KernelIoStackSpec());
    device.PreconditionFillRandom(1.0);

    const uint32_t page = cfg.flash.geometry.page_size;
    const uint64_t pages = device.user_capacity() / page;
    const uint64_t hot_pages = std::max<uint64_t>(pages / 10, 1);

    util::Rng rng(23);
    uint64_t bytes = 0;
    bool measuring = false;
    std::vector<std::unique_ptr<host::ClosedLoopActor>> writers;
    for (int w = 0; w < 32; ++w) {
        writers.push_back(std::make_unique<host::ClosedLoopActor>(
            sim, [&, page, pages, hot_pages,
                  hot_fraction](sim::Callback done) {
                // hot_fraction of writes hit the first 10 % of pages.
                const uint64_t p = rng.NextDouble() < hot_fraction
                                       ? rng.NextBelow(hot_pages)
                                       : rng.NextBelow(pages);
                stack.Issue(
                    [&, p, page](sim::Callback d) {
                        auto dp =
                            std::make_shared<sim::Callback>(std::move(d));
                        device.Write(p * page, page,
                                     [dp](bool) { (*dp)(); });
                    },
                    [&, page, done = std::move(done)]() {
                        if (measuring) bytes += page;
                        done();
                    });
            }));
    }
    for (auto &w : writers) w->Start();
    sim.RunUntil(util::SecToNs(120.0));
    measuring = true;
    const util::TimeNs t0 = sim.Now();
    sim.RunUntil(t0 + util::SecToNs(40.0));
    for (auto &w : writers) w->Stop();
    return Outcome{util::BandwidthMBps(bytes, util::SecToNs(40.0)),
                   device.stats().WriteAmplification()};
}

}  // namespace
}  // namespace sdf

int
main(int argc, char **argv)
{
    using namespace sdf;
    obs::GlobalObs().ParseAndStrip(argc, argv);
    bench::PrintPreamble("Ablation — GC victim selection policy",
                         "FTL design space behind §2.2's 'no GC at all'");

    util::TablePrinter table("4 KB random writes, greedy vs cost-benefit");
    table.SetHeader({"Workload", "greedy MB/s", "greedy WA",
                     "cost-benefit MB/s", "cost-benefit WA"});
    for (double hot : {0.0, 0.9}) {
        const auto g = Run(ssd::GcPolicy::kGreedy, hot);
        const auto cb = Run(ssd::GcPolicy::kCostBenefit, hot);
        table.AddRow({hot == 0.0 ? "uniform random"
                                 : "90% writes to 10% of pages",
                      util::TablePrinter::Num(g.mbps, 1),
                      util::TablePrinter::Num(g.wa, 2),
                      util::TablePrinter::Num(cb.mbps, 1),
                      util::TablePrinter::Num(cb.wa, 2)});
    }
    table.Print();
    std::printf("SDF's answer to this whole design space: an interface\n"
                "where no on-device GC exists and the application, which\n"
                "knows data lifetimes, does the reclamation (§2.3).\n");
    obs::GlobalObs().AddMeta("experiment", "ablation_gc_policy");
    return obs::GlobalObs().Export();
}
