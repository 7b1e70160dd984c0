/**
 * @file
 * Ablation: SDF's two-level interrupt merging (§2.1).
 *
 * With merging, the interrupt rate is 1/4 to 1/5 of the completion rate,
 * cutting host CPU spent in handlers, at the cost of a bounded added
 * completion delay. Measured on the 8 KB random-read workload (the
 * IOPS-bound case the feature exists for).
 */
#include <cstdio>

#include "bench_common.h"
#include "util/table_printer.h"

int
main(int argc, char **argv)
{
    using namespace sdf;
    obs::GlobalObs().ParseAndStrip(argc, argv);
    bench::PrintPreamble("Ablation — interrupt coalescing",
                         "§2.1 interrupt merging (1/4-1/5 of max IOPS)");

    util::TablePrinter table("8 KB random reads, 44 channels");
    table.SetHeader({"Coalescing", "MB/s", "IOPS (k)", "interrupts/s (k)",
                     "merge factor", "IRQ CPU (ms/s)"});

    for (bool coalesce : {false, true}) {
        core::SdfConfig cfg = core::BaiduSdfConfig(0.04);
        cfg.irq.coalesce = coalesce;

        sim::Simulator sim;

        obs::BindObs(sim);
        core::SdfDevice device(sim, cfg);
        host::IoStack stack(sim, host::SdfUserStackSpec());
        workload::PreconditionSdf(device);
        workload::RawRunConfig run;
        run.warmup = util::MsToNs(200);
        run.duration = util::SecToNs(2.0);
        const auto r = workload::RunSdfReads(sim, device, stack, 44,
                                             8 * util::kKiB,
                                             workload::Pattern::kRandom, run);
        const double secs = util::NsToSec(sim.Now());
        table.AddRow(
            {coalesce ? "on (2-level merge)" : "off",
             util::TablePrinter::Num(r.mbps, 0),
             util::TablePrinter::Num(
                 static_cast<double>(r.operations) /
                     util::NsToSec(run.duration) / 1000.0,
                 1),
             util::TablePrinter::Num(
                 static_cast<double>(device.irq().interrupts()) / secs / 1000.0,
                 1),
             util::TablePrinter::Num(device.irq().MergeFactor(), 2),
             util::TablePrinter::Num(
                 util::NsToMs(device.irq().cpu_time()) / secs, 1)});
    }
    table.Print();
    std::printf("Paper: merging reduces the interrupt rate to 1/5-1/4 of\n"
                "the IOPS; the throughput cost of the added delay is small\n"
                "while the interrupt-handling CPU drops ~4x.\n");
    obs::GlobalObs().AddMeta("experiment", "ablation_interrupts");
    return obs::GlobalObs().Export();
}
