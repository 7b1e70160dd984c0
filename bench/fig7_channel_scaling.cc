/**
 * @file
 * Figure 7: SDF throughput for sequential 8 MB reads (a) and erase+write
 * cycles (b) as the number of concurrently driven channels grows from 4
 * to 44 — throughput must scale linearly until the PCIe limit (reads) or
 * the flash raw write bandwidth is reached.
 */
#include <cstdio>

#include "bench_common.h"
#include "util/table_printer.h"

int
main(int argc, char **argv)
{
    using namespace sdf;
    obs::GlobalObs().ParseAndStrip(argc, argv);
    bench::PrintPreamble("Figure 7 — throughput vs active channel count",
                         "Figure 7(a) reads, 7(b) writes");

    util::TablePrinter table("Figure 7: SDF channel scaling (MB/s)");
    table.SetHeader({"Channels", "Seq read 8MB", "Write 8MB (erase+write)",
                     "Read MB/s per ch", "Write MB/s per ch"});

    for (uint32_t channels : {4u, 8u, 12u, 16u, 20u, 24u, 28u, 32u, 36u, 40u,
                              44u}) {
        double read_mbps = 0, write_mbps = 0;
        {
            sim::Simulator sim;
            obs::BindObs(sim);
            core::SdfDevice device(sim, core::BaiduSdfConfig(0.04));
            host::IoStack stack(sim, host::SdfUserStackSpec());
            workload::PreconditionSdf(device);
            workload::RawRunConfig run;
            run.warmup = util::SecToNs(1.0);
            run.duration = util::SecToNs(5.0);
            read_mbps = workload::RunSdfReads(
                            sim, device, stack, channels, 8 * util::kMiB,
                            workload::Pattern::kSequential, run)
                            .mbps;
        }
        {
            sim::Simulator sim;
            obs::BindObs(sim);
            core::SdfDevice device(sim, core::BaiduSdfConfig(0.04));
            host::IoStack stack(sim, host::SdfUserStackSpec());
            workload::PreconditionSdf(device);
            workload::RawRunConfig run;
            run.warmup = util::MsToNs(500);
            run.duration = util::SecToNs(2.0);
            write_mbps =
                workload::RunSdfWrites(sim, device, stack, channels, run).mbps;
        }
        table.AddRow({util::TablePrinter::Int(channels),
                      util::TablePrinter::Num(read_mbps, 0),
                      util::TablePrinter::Num(write_mbps, 0),
                      util::TablePrinter::Num(read_mbps / channels, 1),
                      util::TablePrinter::Num(write_mbps / channels, 1)});
    }

    table.Print();
    std::printf("Paper: linear scaling; reads saturate PCIe (~1.59 GB/s)\n"
                "near 44 channels, writes scale to ~0.96 GB/s.\n");
    obs::GlobalObs().AddMeta("experiment", "fig7_channel_scaling");
    return obs::GlobalObs().Export();
}
