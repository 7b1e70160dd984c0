/**
 * @file
 * Extension bench: in-storage scan offload (§5 future work, "moving
 * compute to the storage"; the Active SSD work the paper cites).
 *
 * A full-repository filter scan either (a) reads every unit over PCIe and
 * filters on the host, or (b) filters inside the 44 channel engines and
 * ships only matches. The host-side scan is PCIe-bound (1.61 GB/s); the
 * offloaded scan runs at raw flash speed and, at low selectivity, barely
 * touches the link.
 */
#include <cstdio>
#include <memory>

#include "bench_common.h"
#include "util/table_printer.h"

namespace sdf {
namespace {

/** Scan `per_channel` units on every channel; returns effective GB/s of
 *  data examined. */
double
RunScan(bool offload, double selectivity)
{
    sim::Simulator sim;
    obs::BindObs(sim);
    core::SdfDevice device(sim, core::BaiduSdfConfig(0.04));
    workload::PreconditionSdf(device);

    const uint32_t per_channel = 12;
    auto remaining =
        std::make_shared<uint32_t>(per_channel * device.channel_count());
    for (uint32_t ch = 0; ch < device.channel_count(); ++ch) {
        // Chain the units of one channel serially (a scanning thread).
        auto next = std::make_shared<std::function<void(uint32_t)>>();
        *next = [&, ch, next, remaining](uint32_t unit) {
            if (unit >= per_channel) return;
            auto advance = [&, ch, next, remaining, unit]() {
                --*remaining;
                (*next)(unit + 1);
            };
            if (offload) {
                device.ScanUnit(ch, unit, selectivity,
                                [advance](bool, uint64_t) { advance(); });
            } else {
                device.Read(ch, unit, 0, device.unit_bytes(),
                            [advance](bool) { advance(); });
            }
        };
        (*next)(0);
    }
    sim.RunWhileNot([&]() { return *remaining == 0; });
    const uint64_t examined = uint64_t{per_channel} *
                              device.channel_count() * device.unit_bytes();
    return util::BandwidthMBps(examined, sim.Now()) / 1000.0;
}

}  // namespace
}  // namespace sdf

int
main(int argc, char **argv)
{
    using namespace sdf;
    obs::GlobalObs().ParseAndStrip(argc, argv);
    bench::PrintPreamble("Extension — in-storage scan offload",
                         "§5 future work / Active SSD [17]");

    util::TablePrinter table("Repository filter scan (GB/s examined)");
    table.SetHeader({"Selectivity", "Host-side scan", "In-storage scan"});
    for (double sel : {1.0, 0.25, 0.01}) {
        const double host_gbps = RunScan(false, sel);
        const double off_gbps = RunScan(true, sel);
        table.AddRow({util::TablePrinter::Num(sel * 100, 0) + "%",
                      util::TablePrinter::Num(host_gbps, 2),
                      util::TablePrinter::Num(off_gbps, 2)});
    }
    table.Print();
    std::printf("Host-side scans cap at the PCIe limit (1.61 GB/s) no\n"
                "matter the selectivity; the offloaded scan examines data\n"
                "at raw flash speed (1.67 GB/s) and frees the link.\n");
    obs::GlobalObs().AddMeta("experiment", "ablation_instorage_scan");
    return obs::GlobalObs().Export();
}
