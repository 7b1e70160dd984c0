/**
 * @file
 * Figure 13: inverted-index building — sequential scans over web-page
 * tables, six synchronous threads per slice, slice count swept 1 to 32.
 *
 * Paper shape: SDF scales nearly linearly to its peak (~1.4 GB/s) at 16
 * slices; the Huawei Gen3 does not scale at all (and worsens at high
 * slice counts); the Intel 320 is constant and low.
 */
#include <cstdio>

#include "bench_common.h"
#include "util/table_printer.h"

int
main(int argc, char **argv)
{
    using namespace sdf;
    obs::GlobalObs().ParseAndStrip(argc, argv);
    using testbed::Backend;
    bench::PrintPreamble("Figure 13 — sequential scans vs slice count",
                         "Figure 13 (6 threads per slice)");

    util::TablePrinter table("Figure 13: scan throughput (MB/s)");
    table.SetHeader({"Slices", "Baidu SDF", "Huawei Gen3", "Intel 320"});

    for (uint32_t slices : {1u, 2u, 4u, 8u, 16u, 32u}) {
        std::vector<std::string> row{util::TablePrinter::Int(slices)};
        for (Backend kind : {Backend::kBaiduSdf, Backend::kHuaweiGen3,
                             Backend::kIntel320}) {
            const double scale = kind == Backend::kIntel320 ? 0.3 : 0.08;
            testbed::KvTestbed bed(kind, slices, slices, scale);
            bed.Preload(160 * util::kMiB, 512 * util::kKiB);
            workload::KvRunConfig run;
            run.warmup = util::SecToNs(1.0);
            run.duration = util::SecToNs(4.0);
            const double mbps =
                workload::RunSequentialScan(bed.sim(), bed.SlicePtrs(), 6, run)
                    .client_mbps;
            row.push_back(util::TablePrinter::Num(mbps, 0));
        }
        table.AddRow(std::move(row));
    }

    table.Print();
    std::printf("Paper: SDF scales to a ~1.4 GB/s peak at 16 slices; Huawei\n"
                "~650-700 MB/s flat (slightly worse at 32); Intel ~220 MB/s\n"
                "constant.\n");
    obs::GlobalObs().AddMeta("experiment", "fig13_sequential_scan");
    return obs::GlobalObs().Export();
}
