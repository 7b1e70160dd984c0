/**
 * @file
 * Extension bench and gate: write placement under ID skew (§2.4/§5).
 *
 * The deployed block layer hashes IDs round-robin; "should a skewed
 * workload occur", the paper plans a load-balance-aware scheduler. The
 * block layer places each write on a channel that is not already writing,
 * walking from the ID's hash channel. Here 64 closed-loop writers draw IDs
 * whose hash channels are skewed toward 8 hot channels. Exits 1 unless
 * the uniform row reaches 1,000 MB/s and every skewed row keeps 95 % of
 * it.
 */
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_common.h"
#include "util/table_printer.h"

namespace sdf {
namespace {

double
RunSkew(double skew)
{
    sim::Simulator sim;
    obs::BindObs(sim);
    core::SdfDevice device(sim, core::BaiduSdfConfig(0.04));
    blocklayer::BlockLayer layer(sim, device, {});

    // A fraction `skew` of blocks hash to channels 0-7.
    util::Rng rng(17);
    uint64_t next_unique = 0;
    const uint32_t channels = device.channel_count();

    uint64_t bytes = 0;
    bool measuring = false;
    std::vector<std::unique_ptr<host::ClosedLoopActor>> writers;
    for (int w = 0; w < 64; ++w) {
        writers.push_back(std::make_unique<host::ClosedLoopActor>(
            sim, [&, channels](host::ClosedLoopActor::Done done) {
                uint64_t id = next_unique++ * channels;  // channel 0 base
                if (rng.NextDouble() < skew) {
                    id += rng.NextBelow(8);  // Hot: channels 0-7.
                } else {
                    id += rng.NextBelow(channels);  // Uniform remainder.
                }
                auto put = [&, done](bool ok) {
                    if (ok && measuring) bytes += 8 * util::kMiB;
                    done();
                };
                static_assert(core::IoCallback::kFitsInline<decltype(put)>);
                layer.Put(id, std::move(put));
            }));
    }
    for (auto &wtr : writers) wtr->Start();
    sim.RunUntil(util::SecToNs(2.0));
    measuring = true;
    const util::TimeNs t0 = sim.Now();
    sim.RunUntil(t0 + util::SecToNs(6.0));
    for (auto &wtr : writers) wtr->Stop();
    return util::BandwidthMBps(bytes, util::SecToNs(6.0));
}

}  // namespace
}  // namespace sdf

int
main(int argc, char **argv)
{
    using namespace sdf;
    obs::GlobalObs().ParseAndStrip(argc, argv);
    bench::PrintPreamble("Extension — write placement under ID skew",
                         "§2.4/§5 load-balance-aware scheduler");

    util::TablePrinter table("Write throughput under ID skew (MB/s)");
    table.SetHeader({"Skew to 8 hot channels", "Write MB/s"});
    std::vector<double> rows;
    for (double skew : {0.0, 0.5, 0.9}) {
        rows.push_back(RunSkew(skew));
        table.AddRow({util::TablePrinter::Num(skew * 100, 0) + "%",
                      util::TablePrinter::Num(rows.back(), 0)});
    }
    table.Print();
    std::printf("Expectation: all 44 channels keep writing (~1 GB/s) at\n"
                "every skew.\n");
    obs::GlobalObs().AddMeta("experiment", "ablation_scheduler");
    int rc = obs::GlobalObs().Export();
    if (rows[0] < 1000.0) {
        std::printf("FAIL: uniform row %.0f MB/s is below 1,000 MB/s\n",
                    rows[0]);
        rc = 1;
    }
    for (double mbps : rows) {
        if (mbps < 0.95 * rows[0]) {
            std::printf("FAIL: a skewed row, %.0f MB/s, is below 95 %% of "
                        "the uniform row\n",
                        mbps);
            rc = 1;
        }
    }
    return rc;
}
