/**
 * @file
 * Figure 11: four and eight slices serving batched random 512 KB reads.
 *
 * Paper shape: SDF scales with slices x batch to ~1.5 GB/s (all channels
 * busy); the Huawei Gen3 peaks near 700 MB/s, does not improve from 4 to
 * 8 slices, and degrades slightly at the highest concurrency.
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
    bench::PrintPreamble("Figure 11 — multi-slice batched 512 KB reads",
                         "Figure 11");

    util::TablePrinter table("Figure 11: throughput (MB/s)");
    table.SetHeader({"Batch size", "SDF 4 slices", "SDF 8 slices",
                     "Huawei 4 slices", "Huawei 8 slices"});

    for (uint32_t batch : {1u, 4u, 8u, 16u, 32u, 44u}) {
        std::vector<std::string> row{util::TablePrinter::Int(batch)};
        for (Backend kind : {Backend::kBaiduSdf, Backend::kHuaweiGen3}) {
            for (uint32_t slices : {4u, 8u}) {
                testbed::KvTestbed bed(kind, slices, slices, 0.06);
                const auto keys =
                    bed.Preload(300 * util::kMiB, 512 * util::kKiB);
                workload::KvRunConfig run;
                run.warmup = util::MsToNs(400);
                run.duration = util::SecToNs(2.5);
                const double mbps = workload::RunBatchedRandomReads(
                                        bed.sim(), bed.net(), bed.SlicePtrs(),
                                        keys, batch, run)
                                        .client_mbps;
                row.push_back(util::TablePrinter::Num(mbps, 0));
            }
        }
        // Reorder: SDF4, SDF8, HW4, HW8 already in that order.
        table.AddRow(std::move(row));
    }

    table.Print();
    std::printf("Paper: SDF 8-slice throughput reaches ~1.5 GB/s (e.g.\n"
                "270 -> 1081 MB/s going from batch 1 to 4); Huawei is flat\n"
                "~700 MB/s with 4- and 8-slice curves nearly coincident.\n");
    obs::GlobalObs().AddMeta("experiment", "fig11_batch_multi_slice");
    return obs::GlobalObs().Export();
}
