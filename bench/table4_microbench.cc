/**
 * @file
 * Table 4: device throughput for random reads of 8 KB / 16 KB / 64 KB /
 * 8 MB and 8 MB writes on the Baidu SDF, Huawei Gen3, and Intel 320.
 *
 * SDF is driven by 44 synchronous threads (one per channel); the
 * conventional devices by one thread issuing asynchronous requests.
 * Also reports the architectural context of §3.2: PCIe limits, raw flash
 * bandwidths, and SDF's aggregate erase throughput.
 */
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "util/table_printer.h"

namespace sdf {
namespace {

constexpr double kScale = 0.04;

std::vector<double>
RunSdfRow()
{
    std::vector<double> row;
    for (uint64_t req :
         {8 * util::kKiB, 16 * util::kKiB, 64 * util::kKiB, 8 * util::kMiB}) {
        sim::Simulator sim;
        obs::BindObs(sim);
        core::SdfDevice device(sim, core::BaiduSdfConfig(kScale));
        host::IoStack stack(sim, host::SdfUserStackSpec());
        workload::PreconditionSdf(device);
        workload::RawRunConfig run;
        // Large sequential reads saturate the PCIe link; a long window
        // lets the link queue reach steady state (see EXPERIMENTS.md).
        run.warmup = req >= util::kMiB ? util::SecToNs(1.5) : util::MsToNs(150);
        run.duration = req >= util::kMiB ? util::SecToNs(10.0)
                                         : util::MsToNs(600);
        row.push_back(workload::RunSdfReads(sim, device, stack, 44, req,
                                            workload::Pattern::kRandom, run)
                          .mbps);
    }
    {
        sim::Simulator sim;
        obs::BindObs(sim);
        core::SdfDevice device(sim, core::BaiduSdfConfig(kScale));
        host::IoStack stack(sim, host::SdfUserStackSpec());
        workload::PreconditionSdf(device);
        workload::RawRunConfig run;
        run.warmup = util::MsToNs(500);
        run.duration = util::SecToNs(2.0);
        row.push_back(workload::RunSdfWrites(sim, device, stack, 44, run).mbps);
    }
    return row;
}

std::vector<double>
RunConvRow(const ssd::ConventionalSsdConfig &cfg)
{
    std::vector<double> row;
    for (uint64_t req :
         {8 * util::kKiB, 16 * util::kKiB, 64 * util::kKiB, 8 * util::kMiB}) {
        sim::Simulator sim;
        obs::BindObs(sim);
        ssd::ConventionalSsd device(sim, cfg);
        host::IoStack stack(sim, host::KernelIoStackSpec());
        device.PreconditionFill(0.95);
        workload::RawRunConfig run;
        run.warmup = util::MsToNs(300);
        run.duration = util::SecToNs(1.0);
        row.push_back(workload::RunConvReads(sim, device, stack, 64, req,
                                             workload::Pattern::kRandom, run)
                          .mbps);
    }
    {
        sim::Simulator sim;
        obs::BindObs(sim);
        ssd::ConventionalSsd device(sim, cfg);
        host::IoStack stack(sim, host::KernelIoStackSpec());
        workload::RawRunConfig run;
        run.warmup = util::MsToNs(600);
        run.duration = util::SecToNs(2.0);
        row.push_back(workload::RunConvWrites(sim, device, stack, 16,
                                              8 * util::kMiB,
                                              workload::Pattern::kSequential,
                                              run)
                          .mbps);
    }
    return row;
}

void
AddRow(util::TablePrinter &table, const char *name,
       const std::vector<double> &gbps_row)
{
    std::vector<std::string> cells{name};
    for (double mbps : gbps_row) {
        cells.push_back(util::TablePrinter::Num(mbps / 1000.0, 2));
    }
    table.AddRow(std::move(cells));
}

}  // namespace
}  // namespace sdf

int
main(int argc, char **argv)
{
    using namespace sdf;
    obs::GlobalObs().ParseAndStrip(argc, argv);
    bench::PrintPreamble("Table 4 — throughput by request size",
                         "Table 4 + §3.2 architectural limits");

    // Architectural context (§3.2).
    {
        sim::Simulator sim;
        obs::BindObs(sim);
        core::SdfDevice device(sim, core::BaiduSdfConfig(kScale));
        std::printf("PCIe 1.1 x8 effective: 1.61 GB/s read, 1.40 GB/s write\n");
        std::printf("SDF raw flash: %.2f GB/s read, %.2f GB/s write\n\n",
                    device.flash().RawReadBandwidth() / 1e9,
                    device.flash().RawWriteBandwidth() / 1e9);
    }

    util::TablePrinter table("Table 4: throughput (GB/s)");
    table.SetHeader({"Device", "8KB read", "16KB read", "64KB read",
                     "8MB read", "8MB write"});
    AddRow(table, "Baidu SDF", RunSdfRow());
    AddRow(table, "Huawei Gen3", RunConvRow(ssd::HuaweiGen3Config(kScale)));
    AddRow(table, "Intel 320", RunConvRow(ssd::Intel320Config(kScale)));
    table.Print();
    std::printf("Paper:   SDF 1.23/1.42/1.51/1.59/0.96; Huawei "
                "0.92/1.02/1.15/1.20/0.67; Intel 0.17/0.20/0.22/0.22/0.13\n\n");

    // §2.3/§3.2: erase bandwidth — all channels erasing in parallel.
    {
        sim::Simulator sim;
        obs::BindObs(sim);
        core::SdfDevice device(sim, core::BaiduSdfConfig(kScale));
        workload::PreconditionSdf(device);
        int done = 0;
        const int erases = 200;
        uint64_t bytes = 0;
        for (int i = 0; i < erases; ++i) {
            const uint32_t ch = i % device.channel_count();
            const uint32_t unit =
                (i / device.channel_count()) % device.units_per_channel();
            bytes += device.unit_bytes();
            device.EraseUnit(ch, unit, [&](bool) { ++done; });
        }
        sim.Run();
        std::printf("Erase throughput: %.1f GB/s erased "
                    "(paper: ~40 GB/s; %d x 8 MB units)\n",
                    util::BandwidthMBps(bytes, sim.Now()) / 1000.0, done);
    }
    obs::GlobalObs().AddMeta("experiment", "table4_microbench");
    return obs::GlobalObs().Export();
}
