/**
 * @file
 * Table 1: specifications and measured vs raw bandwidths of the three
 * commodity SSD classes (Intel 320 low-end, Huawei Gen3 mid-range,
 * Memblaze Q520 high-end), each with ~20-25 % over-provisioning, driven
 * with sequential erase-block-unit reads and writes.
 *
 * Paper values: measured read 73-81 % of raw; measured write 41-51 %.
 */
#include <cstdio>

#include "bench_common.h"
#include "util/table_printer.h"

namespace sdf {
namespace {

struct DeviceRow
{
    const char *name;
    ssd::ConventionalSsdConfig config;
    double raw_read_mbps;   // From Table 1.
    double raw_write_mbps;  // From Table 1.
    /**
     * Fragmentation level left by the (unspecified) preconditioning of
     * the paper's measurement; a free parameter per device chosen so the
     * modeled GC produces the paper's write utilization — the mechanism
     * (fragmentation -> GC -> ~halved writes) is what is reproduced.
     */
    double precondition_fraction;
};

void
RunDevice(util::TablePrinter &table, const DeviceRow &row)
{
    // Sequential reads in erase-block units on a preconditioned device.
    const uint64_t request = row.config.flash.geometry.BlockBytes();

    workload::RawRunConfig run;
    run.warmup = util::MsToNs(400);
    run.duration = util::SecToNs(2.0);

    double read_mbps = 0;
    {
        sim::Simulator sim;
        obs::BindObs(sim);
        ssd::ConventionalSsd device(sim, row.config);
        host::IoStack stack(sim, host::KernelIoStackSpec());
        device.PreconditionFill(0.95);
        read_mbps = workload::RunConvReads(sim, device, stack, 32, request,
                                           workload::Pattern::kSequential,
                                           run)
                        .mbps;
    }

    double write_mbps = 0;
    double wa = 0;
    {
        // A deployed device's steady state: fragmented layout with GC
        // active, then sequential writes in erase-block units (the
        // paper's measurement procedure).
        sim::Simulator sim;
        obs::BindObs(sim);
        ssd::ConventionalSsd device(sim, row.config);
        host::IoStack stack(sim, host::KernelIoStackSpec());
        device.PreconditionFillRandom(row.precondition_fraction);
        // Measure across the first sequential pass over the fragmented
        // device: GC relaxes from random-history write amplification
        // toward WA~1 as the pass proceeds (SNIA-style conditioning).
        workload::RawRunConfig meas = run;
        meas.warmup = util::SecToNs(2.0);
        meas.duration = util::SecToNs(8.0);
        write_mbps = workload::RunConvWrites(sim, device, stack, 16, request,
                                             workload::Pattern::kSequential,
                                             meas)
                         .mbps;
        wa = device.stats().WriteAmplification();
    }

    table.AddRow({row.name,
                  util::TablePrinter::Int(static_cast<int64_t>(
                      row.config.flash.geometry.channels)),
                  util::TablePrinter::Int(static_cast<int64_t>(
                      row.config.flash.geometry.PlanesPerChannel())),
                  util::TablePrinter::Num(row.raw_read_mbps, 0) + "/" +
                      util::TablePrinter::Num(row.raw_write_mbps, 0),
                  util::TablePrinter::Num(read_mbps, 0) + "/" +
                      util::TablePrinter::Num(write_mbps, 0),
                  util::TablePrinter::Num(100 * read_mbps / row.raw_read_mbps,
                                          0) +
                      "%/" +
                      util::TablePrinter::Num(
                          100 * write_mbps / row.raw_write_mbps, 0) +
                      "%",
                  util::TablePrinter::Num(wa, 2)});
}

}  // namespace
}  // namespace sdf

int
main(int argc, char **argv)
{
    using namespace sdf;
    obs::GlobalObs().ParseAndStrip(argc, argv);
    bench::PrintPreamble("Table 1 — commodity SSD raw vs measured bandwidth",
                         "Table 1 (measured R 73-81 %, W 41-51 % of raw)");

    util::TablePrinter table("Table 1: specifications and bandwidths");
    table.SetHeader({"SSD", "Ch", "Planes/ch", "Raw R/W (MB/s)",
                     "Measured R/W (MB/s)", "Utilization R/W", "WA"});

    const double scale = 0.04;
    // 20 % over-provisioning for this experiment, per the paper's setup.
    auto low = ssd::Intel320Config(scale);
    low.op_ratio = 0.20;
    auto mid = ssd::HuaweiGen3Config(scale);
    mid.op_ratio = 0.20;
    auto high = ssd::MemblazeQ520Config(scale);
    high.op_ratio = 0.20;

    RunDevice(table, {"Low-end (Intel 320, SATA 2.0)", low, 300, 300, 0.12});
    RunDevice(table, {"Mid-range (Huawei Gen3, PCIe x8)", mid, 1600, 950, 0.42});
    RunDevice(table, {"High-end (Memblaze Q520, PCIe x8)", high, 1600, 1500, 0.15});

    table.Print();
    std::printf("Paper: low 219/153, mid 1200/460, high 1300/620 MB/s.\n");
    obs::GlobalObs().AddMeta("experiment", "table1_bandwidth");
    return obs::GlobalObs().Export();
}
