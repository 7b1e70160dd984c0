/**
 * @file
 * Ablation: the on-board DRAM write-back cache the SDF removed (§2.2).
 *
 * Sweeping the cache size on the conventional device shows that no cache
 * size buys predictability: mean latency stays drain-limited, and GC
 * bursts still bleed through (a small cache couples them to every ack;
 * a large one only smooths them). SDF's answer is to remove the cache,
 * acknowledge on flash, and get Figure 8's flat latency by construction
 * — saving the DRAM and its backup battery (§2.2).
 */
#include <cstdio>

#include "bench_common.h"
#include "util/table_printer.h"

int
main(int argc, char **argv)
{
    using namespace sdf;
    obs::GlobalObs().ParseAndStrip(argc, argv);
    bench::PrintPreamble("Ablation — DRAM write-back cache size",
                         "§2.2 'no DRAM cache' design choice, Figure 8");

    util::TablePrinter table("8 MB random writes vs cache size (ms)");
    table.SetHeader({"Cache", "mean", "min", "max", "stddev/mean"});

    for (uint64_t cache_mib : {0ull, 16ull, 64ull, 256ull}) {
        ssd::ConventionalSsdConfig cfg = ssd::HuaweiGen3Config(0.04);
        // 0 = writes effectively synchronous (one request of headroom).
        cfg.dram_cache_bytes =
            cache_mib == 0 ? 8 * util::kMiB : cache_mib * util::kMiB;

        sim::Simulator sim;

        obs::BindObs(sim);
        ssd::ConventionalSsd device(sim, cfg);
        host::IoStack stack(sim, host::KernelIoStackSpec());
        device.PreconditionFillRandom(1.0);
        workload::RawRunConfig run;
        run.warmup = util::SecToNs(2.0);
        run.duration = util::SecToNs(20.0);
        const auto r = workload::RunConvWrites(sim, device, stack, 2,
                                               8 * util::kMiB,
                                               workload::Pattern::kRandom,
                                               run);
        const auto &l = r.latencies;
        table.AddRow({cache_mib == 0 ? "~none (8 MiB)"
                                     : (std::to_string(cache_mib) + " MiB"),
                      util::TablePrinter::Num(l.MeanMs(), 1),
                      util::TablePrinter::Num(l.MinMs(), 1),
                      util::TablePrinter::Num(l.MaxMs(), 1),
                      util::TablePrinter::Num(
                          l.StdDevMs() / std::max(l.MeanMs(), 1e-9), 3)});
    }
    table.Print();
    std::printf("SDF's position (§2.2): drop the cache (and its battery),\n"
                "acknowledge only when data is on flash, and get the flat\n"
                "latency of Figure 8 instead.\n");
    obs::GlobalObs().AddMeta("experiment", "ablation_dram_cache");
    return obs::GlobalObs().Export();
}
