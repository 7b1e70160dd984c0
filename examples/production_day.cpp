/**
 * @file
 * A compressed production day on one SDF storage node.
 *
 * Runs a diurnal phase schedule — overnight crawl ingestion, a mixed
 * morning, daytime query serving, an evening hot-spot on the newest
 * pages — through the YCSB engine against a preloaded CCDB node, and
 * prints per-phase throughput, latency, and the device's wear report at
 * the end of the "day". The node is assembled by the shared testbed
 * builder.
 *
 * Build & run:  ./build/examples/production_day
 * Optional:     --stats-json=out.json --trace=out.trace.json
 */
#include <cstdio>
#include <vector>

#include "obs/obs_cli.h"
#include "testbed/testbed.h"
#include "util/table_printer.h"
#include "workload/kv_driver.h"
#include "workload/ycsb.h"

namespace {

using namespace sdf;

/** Base arrival rate; each phase scales it to its own ops/s. */
constexpr double kBaseRate = 100.0;

workload::YcsbPhase
DayPhase(const char *name, double ops_per_sec, double put_fraction)
{
    workload::YcsbPhase p = workload::UniformMix(1.0 - put_fraction);
    p.name = name;
    p.rate_multiplier = ops_per_sec / kBaseRate;
    return p;
}

/** Four equal phases; puts write fresh pages (crawl ingestion). */
std::vector<workload::YcsbPhase>
ProductionDay()
{
    workload::YcsbPhase evening = DayPhase("evening-hotspot", 1500, 0.1);
    // 80% of reads hit the newest tenth of the pages.
    evening.chooser = workload::KeyChooser::kHotRange;
    evening.hot = workload::HotRange{0.1, 0.9, 0.8};
    return {DayPhase("overnight-crawl", 400, 0.85),
            DayPhase("morning-mixed", 900, 0.3),
            DayPhase("daytime-serving", 1800, 0.05), evening};
}

}  // namespace

int
main(int argc, char **argv)
{
    obs::ObsCli &obs = obs::GlobalObs();
    obs.ParseAndStrip(argc, argv);

    const uint32_t slice_count = 4;
    kv::SliceConfig scfg;
    scfg.compaction_trigger = 4;
    testbed::KvTestbed bed(testbed::Backend::kBaiduSdf, slice_count,
                           slice_count, 0.05, scfg);
    core::SdfDevice &device = *bed.sdf_device();

    // Yesterday's data: 256 MiB of 64 KB pages per slice, each page in
    // the slice the store routes it to.
    const uint32_t page_bytes = 64 * util::kKiB;
    const auto keys = workload::PreloadStore(
        bed.store(), slice_count * (256 * util::kMiB / page_bytes),
        page_bytes);
    std::printf("Node up: %u slices, %zu pages preloaded, %s user "
                "capacity\n\n",
                slice_count, keys.size(),
                util::FormatBytes(device.user_capacity()).c_str());

    workload::YcsbConfig cfg;
    cfg.arrival_rate = kBaseRate;
    cfg.duration = util::SecToNs(16);
    cfg.seed = 2026;
    cfg.value_dist = workload::ValueDist::kUniform;
    cfg.value_min = 10 * util::kKiB;
    cfg.value_max = 200 * util::kKiB;
    cfg.phases = ProductionDay();
    const workload::YcsbResult r = workload::RunYcsb(
        bed.sim(), workload::ServiceFor(bed.store()), keys, cfg);

    util::TablePrinter table("A compressed production day");
    table.SetHeader({"Phase", "ops/s", "reads", "puts", "miss", "p50 (ms)",
                     "p99 (ms)"});
    for (const workload::YcsbPhaseResult &p : r.phases) {
        const double ops_per_sec = static_cast<double>(p.completed) /
                                   util::NsToSec(p.end - p.start);
        table.AddRow({p.name, util::TablePrinter::Num(ops_per_sec, 0),
                      util::TablePrinter::Int(
                          static_cast<int64_t>(p.ok_reads)),
                      util::TablePrinter::Int(
                          static_cast<int64_t>(p.ok_inserts)),
                      util::TablePrinter::Int(static_cast<int64_t>(p.misses)),
                      util::TablePrinter::Num(p.p50_ms, 2),
                      util::TablePrinter::Num(p.p99_ms, 2)});
        obs.AddDerived(p.name + ".ops_per_sec", ops_per_sec);
        obs.AddDerived(p.name + ".p99_ms", p.p99_ms);
    }
    table.Print();

    const kv::SliceStats totals = bed.store().TotalStats();
    std::printf("LSM: %llu flushes, %llu compactions, %llu put stalls\n",
                static_cast<unsigned long long>(totals.flushes),
                static_cast<unsigned long long>(totals.compactions),
                static_cast<unsigned long long>(totals.put_stalls));

    const auto wear = device.GetWearReport();
    std::printf("Wear after the day: erase counts %u..%u (mean %.2f), "
                "%.4f %% of rated life used\n",
                wear.min_erase_count, wear.max_erase_count,
                wear.mean_erase_count, 100.0 * wear.life_used);
    obs.AddMeta("example", "production_day");
    if (const int rc = obs.Export(); rc != 0) return rc;

    // Serving reads target preloaded and already-crawled pages, so misses
    // stay rare: only reads of a fresh page whose put has not landed yet
    // can miss.
    const workload::YcsbPhaseResult &serving = r.phases[2];
    if (serving.misses * 5 >= serving.ok_reads + serving.misses) {
        std::printf("FAIL: %llu of %llu serving reads missed\n",
                    static_cast<unsigned long long>(serving.misses),
                    static_cast<unsigned long long>(serving.ok_reads +
                                                    serving.misses));
        return 1;
    }
    return 0;
}
