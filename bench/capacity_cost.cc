/**
 * @file
 * The headline capacity and cost claims (§1, §2.2, §5):
 *
 *  - SDF exposes ~99 % of raw flash for user data; commodity SSDs expose
 *    50-70 % (over-provisioning + parity + reserves).
 *  - SDF delivers ~95 % of raw flash bandwidth; the commodity stack ~50 %.
 *  - Per-GB hardware cost drops ~50 % vs the high-OP commodity setup.
 */
#include <cstdio>
#include <string>

#include "bench_common.h"
#include "util/table_printer.h"

int
main(int argc, char **argv)
{
    using namespace sdf;
    obs::GlobalObs().ParseAndStrip(argc, argv);
    bench::PrintPreamble("Capacity, bandwidth, and cost utilization",
                         "§1 abstract + §2.2 + §5 headline claims");

    // ---- Capacity utilization (full-scale configs, sized, not built) ----
    util::TablePrinter cap("Usable capacity as a fraction of raw flash");
    cap.SetHeader({"Configuration", "Raw", "Usable", "Fraction"});
    auto add_row = [&cap](const std::string &name, uint64_t raw,
                          uint64_t user) {
        cap.AddRow({name, util::FormatBytes(raw), util::FormatBytes(user),
                    util::TablePrinter::Num(100.0 * user / raw, 1) + "%"});
    };
    const core::SdfSizing sdf = core::SizeSdf(core::BaiduSdfConfig(1.0));
    add_row("Baidu SDF (BBM spares only)", sdf.raw_capacity,
            sdf.user_capacity);
    for (double op : {0.10, 0.25, 0.40}) {
        auto cfg = ssd::HuaweiGen3Config(1.0);
        cfg.op_ratio = op;
        const ssd::SsdSizing ssd = ssd::SizeConventionalSsd(cfg);
        char name[96];
        std::snprintf(name, sizeof(name),
                      "Commodity (parity + %.0f%% OP)", op * 100);
        add_row(name, ssd.raw_capacity, ssd.user_capacity);
    }
    cap.Print();

    // ---- Bandwidth utilization -----------------------------------------
    util::TablePrinter bw("Delivered read bandwidth vs raw flash bandwidth");
    bw.SetHeader({"Device", "Raw (MB/s)", "Delivered (MB/s)", "Fraction"});
    {
        sim::Simulator sim;
        obs::BindObs(sim);
        core::SdfDevice device(sim, core::BaiduSdfConfig(0.04));
        host::IoStack stack(sim, host::SdfUserStackSpec());
        workload::PreconditionSdf(device);
        workload::RawRunConfig run;
        run.warmup = util::SecToNs(1.5);
        run.duration = util::SecToNs(10.0);
        const double raw = device.flash().RawReadBandwidth() / 1e6;
        // PCIe caps below raw; the paper quotes 95 % of raw delivered.
        const double got =
            workload::RunSdfReads(sim, device, stack, 44, 8 * util::kMiB,
                                  workload::Pattern::kSequential, run)
                .mbps;
        bw.AddRow({"Baidu SDF", util::TablePrinter::Num(raw, 0),
                   util::TablePrinter::Num(got, 0),
                   util::TablePrinter::Num(100.0 * got / raw, 0) + "%"});
    }
    {
        sim::Simulator sim;
        obs::BindObs(sim);
        ssd::ConventionalSsd device(sim, ssd::HuaweiGen3Config(0.04));
        host::IoStack stack(sim, host::KernelIoStackSpec());
        device.PreconditionFill(0.95);
        workload::RawRunConfig run;
        run.warmup = util::MsToNs(300);
        run.duration = util::SecToNs(1.5);
        const double raw = device.flash().RawReadBandwidth() / 1e6;
        // Production-like mixed 512 KB random reads (what Baidu's storage
        // system actually achieved: ~50 %).
        const double got = workload::RunConvReads(
                               sim, device, stack, 64, 512 * util::kKiB,
                               workload::Pattern::kRandom, run)
                               .mbps;
        bw.AddRow({"Huawei Gen3 (512 KB random)",
                   util::TablePrinter::Num(raw, 0),
                   util::TablePrinter::Num(got, 0),
                   util::TablePrinter::Num(100.0 * got / raw, 0) + "%"});
    }
    bw.Print();

    // ---- Cost model -------------------------------------------------------
    // Per-GB cost: identical flash BOM; SDF drops DRAM cache + battery and
    // uses a smaller controller, and all of raw becomes usable.
    util::TablePrinter cost("Relative per-usable-GB hardware cost");
    cost.SetHeader({"Configuration", "BOM (rel.)", "Usable fraction",
                    "Cost per usable GB", "vs commodity 40% OP"});
    struct Row
    {
        const char *name;
        double bom;      // Relative board cost.
        double usable;   // Usable fraction of raw.
    };
    const Row rows[] = {
        {"Commodity, parity + 40% OP", 1.00, 0.546},
        {"Commodity, parity + 25% OP", 1.00, 0.682},
        {"Baidu SDF", 0.92, 0.994},  // -8% BOM: no DRAM/battery, less logic
    };
    const double baseline = rows[0].bom / rows[0].usable;
    for (const Row &r : rows) {
        const double per_gb = r.bom / r.usable;
        cost.AddRow({r.name, util::TablePrinter::Num(r.bom, 2),
                     util::TablePrinter::Num(r.usable, 3),
                     util::TablePrinter::Num(per_gb, 2),
                     util::TablePrinter::Num(100.0 * (1.0 - per_gb / baseline),
                                             0) +
                         "% cheaper"});
    }
    cost.Print();
    std::printf("Paper: 99%% capacity for user data, ~95%% of raw bandwidth\n"
                "delivered, and ~50%% per-GB cost reduction vs the 40%%-OP\n"
                "commodity configuration (20-50%% depending on OP).\n");
    obs::GlobalObs().AddMeta("experiment", "capacity_cost");
    return obs::GlobalObs().Export();
}
