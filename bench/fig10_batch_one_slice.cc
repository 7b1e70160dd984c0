/**
 * @file
 * Figure 10: one CCDB slice serving random 512 KB KV reads over the
 * network, with the request batch size swept from 1 to 44.
 *
 * Paper shape: the Huawei Gen3 wins at small batches (245 MB/s at batch 1
 * vs SDF's 38 MB/s — its 8 KB striping parallelizes a single request) and
 * flattens; SDF starts low (one channel per request) and climbs steadily
 * as batching exposes channel concurrency, catching up around batch 32.
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
    bench::PrintPreamble("Figure 10 — one slice, batched 512 KB random reads",
                         "Figure 10");

    util::TablePrinter table("Figure 10: throughput (MB/s), 1 slice");
    table.SetHeader({"Batch size", "Baidu SDF", "Huawei Gen3"});

    for (uint32_t batch : {1u, 4u, 8u, 16u, 32u, 44u}) {
        double mbps[2] = {0, 0};
        int col = 0;
        for (Backend kind : {Backend::kBaiduSdf, Backend::kHuaweiGen3}) {
            testbed::KvTestbed bed(kind, 1, 1, 0.06);
            const auto keys = bed.Preload(1200 * util::kMiB, 512 * util::kKiB);
            workload::KvRunConfig run;
            run.warmup = util::MsToNs(400);
            run.duration = util::SecToNs(3.0);
            mbps[col++] = workload::RunBatchedRandomReads(
                              bed.sim(), bed.net(), bed.SlicePtrs(), keys,
                              batch, run)
                              .client_mbps;
        }
        table.AddRow({util::TablePrinter::Int(batch),
                      util::TablePrinter::Num(mbps[0], 0),
                      util::TablePrinter::Num(mbps[1], 0)});
    }

    table.Print();
    std::printf("Paper: SDF 38 (batch 1) rising past 600; Huawei 245 (batch\n"
                "1) rising to ~700 then declining slightly; crossover ~32.\n");
    obs::GlobalObs().AddMeta("experiment", "fig10_batch_one_slice");
    return obs::GlobalObs().Export();
}
