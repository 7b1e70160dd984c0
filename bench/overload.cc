/**
 * @file
 * Overload control and fail-slow tolerance (web-scale serving model, §2).
 *
 * The paper's setting is open-loop internet traffic: arrivals do not slow
 * down because the system is busy. This bench drives that regime through
 * the async client front door (bounded windows, coalescing, hedged reads)
 * against a cluster with server-side admission control, deadline
 * propagation and a fail-slow circuit breaker.
 *
 * Phase A — storm sweep: the same 4-node R=2 cluster serves 0.5x, 1x and
 * 2x of its measured capacity. Degradation must be graceful: goodput
 * plateaus instead of collapsing, every request not served gets a typed
 * kOverloaded/kDeadlineExceeded outcome (issued == completed, no silent
 * drops), and every acknowledged write survives a consistency audit.
 *
 * Phase B — fail-slow reads: one node serves 6x slower for the middle
 * half of the run. With the breaker disabled (to isolate the client-side
 * defense), hedged reads must measurably cut read p99 versus unhedged;
 * with the full stack (breaker + hedge) the tail should shrink further.
 * Exits nonzero if hedging does not beat unhedged, or any acked write is
 * lost.
 */
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "client/kv_client.h"
#include "cluster/cluster.h"
#include "fault/fault.h"
#include "util/assert.h"
#include "util/table_printer.h"
#include "workload/ycsb.h"

namespace sdf {
namespace {

constexpr double kScale = 0.02;
constexpr uint32_t kNodes = 4;
constexpr uint32_t kReplication = 2;
constexpr uint32_t kSlicesPerNode = 4;
constexpr uint32_t kPreloadKeys = 200;
constexpr uint32_t kValueBytes = 4 * util::kKiB;
constexpr double kBaseRate = 110000.0;  // ~cluster capacity, ops/s.

cluster::ClusterConfig
MakeConfig(bool breaker)
{
    cluster::ClusterConfig cc;
    cc.nodes = kNodes;
    cc.replication = kReplication;
    cc.node.kv.stack.backend = testbed::Backend::kBaiduSdf;
    cc.node.kv.stack.capacity_scale = kScale;
    cc.node.kv.store.slice_count = kSlicesPerNode;
    // Sized so the worst in-system wait (client queue + window + server
    // admission backlog) stays under the op deadline: work we admit can
    // still finish in time, and the overflow is shed fast with a typed
    // kOverloaded instead of timing out after burning server resources.
    cc.node.admission_cap = 32;
    cc.breaker.enabled = breaker;
    return cc;
}

struct RunOutcome
{
    workload::YcsbResult r;
    client::ClientStats cs;
    client::HedgeStats hs;
    uint64_t admission_shed = 0;
    uint64_t breaker_trips = 0;
    uint64_t lost = 0;
};

RunOutcome
RunOnce(const std::string &label, double rate, double storm,
        int64_t fail_slow_node, double fail_slow_factor, bool hedge,
        bool breaker)
{
    sim::Simulator sim;
    bench::BindObs(sim);
    cluster::Cluster cl(sim, MakeConfig(breaker));
    const auto keys = cl.Preload(kPreloadKeys, kValueBytes);
    SDF_CHECK_MSG(keys.size() == kPreloadKeys, "cluster preload failed");

    const util::TimeNs dur = util::SecToNs(0.4);
    const util::TimeNs t0 = sim.Now();

    // Fail-slow through the replayable fault plan: the injector's sink
    // delivers the multiplier and restores health when the window ends.
    std::unique_ptr<fault::FaultInjector> injector;
    if (fail_slow_node >= 0) {
        fault::FaultEvent e;
        e.when = t0 + dur / 4;
        e.kind = fault::FaultKind::kFailSlow;
        e.device = static_cast<uint32_t>(fail_slow_node);
        e.duration = dur / 2;
        e.magnitude = fail_slow_factor;
        injector = std::make_unique<fault::FaultInjector>(
            sim, cl.SdfDevices(), fault::FaultPlan({e}),
            [&cl](uint32_t node, double m) {
                if (node < cl.node_count()) cl.node(node).SetFailSlow(m);
            });
    }

    client::KvClientConfig kc;
    kc.window_per_node = 16;
    kc.queue_cap = 64;
    kc.deadline = util::MsToNs(10.0);
    kc.hedge_reads = hedge;
    client::KvClient client(sim, cl.router(), kc);

    workload::YcsbConfig cfg;
    cfg.arrival_rate = rate;
    cfg.duration = dur;
    cfg.value_bytes = kValueBytes;
    cfg.phases = workload::StormSchedule(0.9, storm);

    // Each configuration gets its own labelled series segment, so a
    // --stats-series export shows every run's storm timeline separately.
    bench::GlobalObs().StartSeries(sim, label, dur);

    RunOutcome out;
    out.r = workload::RunYcsb(sim, client.Service(), keys, cfg);
    out.cs = client.stats();
    out.hs = client.hedge_stats();
    for (uint32_t n = 0; n < cl.node_count(); ++n) {
        out.admission_shed += cl.node(n).admission().shed_overload;
    }
    out.breaker_trips = cl.router().breaker().stats().trips;
    out.lost = cl.AuditKeys(out.r.acked_writes).lost;
    return out;
}

int
RunStormSweep(bench::ObsCli &obs)
{
    std::printf("-- phase A: storm sweep (4 nodes, R=2, open loop, "
                "2x storm mid-run) --\n");
    util::TablePrinter table("offered vs goodput, 90%% reads, 4 KiB values");
    table.SetHeader({"offered ops/s", "goodput ops/s", "shed overl.",
                     "shed deadl.", "p50 ms", "p99 ms", "lost"});
    double goodput_1x = 0, goodput_2x = 0;
    uint64_t lost_total = 0;
    bool all_typed = true;
    for (double mult : {0.5, 1.0, 2.0}) {
        const RunOutcome out =
            RunOnce("storm.x" + util::TablePrinter::Num(mult, 1),
                    kBaseRate * mult, 2.0, -1, 1.0, true, true);
        table.AddRow({util::TablePrinter::Num(out.r.offered_ops_per_sec, 0),
                      util::TablePrinter::Num(out.r.goodput_ops_per_sec, 0),
                      std::to_string(out.r.shed_overloaded),
                      std::to_string(out.r.shed_deadline),
                      util::TablePrinter::Num(out.r.p50_ms, 2),
                      util::TablePrinter::Num(out.r.p99_ms, 2),
                      std::to_string(out.lost)});
        // Silent drops would show as issued != completed: an op neither
        // served nor given a typed refusal.
        if (out.r.issued != out.r.completed) all_typed = false;
        if (mult == 1.0) goodput_1x = out.r.goodput_ops_per_sec;
        if (mult == 2.0) goodput_2x = out.r.goodput_ops_per_sec;
        lost_total += out.lost;
        const std::string tag =
            "storm.x" + util::TablePrinter::Num(mult, 1);
        obs.AddDerived(tag + ".goodput_ops_per_sec",
                       out.r.goodput_ops_per_sec);
        obs.AddDerived(tag + ".shed_overloaded",
                       static_cast<double>(out.r.shed_overloaded));
        obs.AddDerived(tag + ".p99_ms", out.r.p99_ms);
    }
    table.Print();

    // Graceful degradation: doubling offered load past capacity must not
    // collapse goodput (plateau, not cliff).
    const bool plateau = goodput_2x >= 0.7 * goodput_1x;
    obs.AddDerived("storm.plateau", plateau ? 1.0 : 0.0);
    std::printf("goodput at 2x capacity: %.0f ops/s (%.0f%% of 1x) — %s\n",
                goodput_2x, 100.0 * goodput_2x / goodput_1x,
                plateau ? "plateaus" : "COLLAPSED");
    std::printf("%s\n", all_typed
                            ? "every arrival completed or was shed "
                              "with a typed error"
                            : "FAIL: silent drops (issued != completed)");
    std::printf("%s\n\n", lost_total == 0
                              ? "PASS: zero acked writes lost under storm"
                              : "FAIL: acked writes lost under storm");
    return plateau && all_typed && lost_total == 0 ? 0 : 1;
}

int
RunFailSlow(bench::ObsCli &obs)
{
    std::printf("-- phase B: one fail-slow node (6x slower, middle half "
                "of the run) --\n");
    util::TablePrinter table("read tail with node 1 fail-slow, light load");
    table.SetHeader({"config", "read p99 ms", "p99.9 ms", "hedges",
                     "hedge wins", "breaker trips", "lost"});
    // Light load so the tail comes from the slow node, not queueing —
    // fail-slow is a latency fault, and conflating it with saturation
    // would let the admission path take credit for the hedge's work.
    const double rate = 25000.0;
    const RunOutcome unhedged =
        RunOnce("failslow.unhedged", rate, 1.0, 1, 6.0, false, false);
    const RunOutcome hedged =
        RunOnce("failslow.hedged", rate, 1.0, 1, 6.0, true, false);
    const RunOutcome full =
        RunOnce("failslow.hedge_breaker", rate, 1.0, 1, 6.0, true, true);
    auto add = [&table](const char *name, const RunOutcome &o) {
        table.AddRow({name, util::TablePrinter::Num(o.r.read_p99_ms, 2),
                      util::TablePrinter::Num(o.r.p999_ms, 2),
                      std::to_string(o.hs.launched),
                      std::to_string(o.hs.wins),
                      std::to_string(o.breaker_trips),
                      std::to_string(o.lost)});
    };
    add("unhedged", unhedged);
    add("hedged", hedged);
    add("hedged+breaker", full);
    table.Print();

    const bool hedge_wins = hedged.r.read_p99_ms < unhedged.r.read_p99_ms;
    const uint64_t lost =
        unhedged.lost + hedged.lost + full.lost;
    obs.AddDerived("failslow.unhedged_read_p99_ms", unhedged.r.read_p99_ms);
    obs.AddDerived("failslow.hedged_read_p99_ms", hedged.r.read_p99_ms);
    obs.AddDerived("failslow.full_read_p99_ms", full.r.read_p99_ms);
    obs.AddDerived("failslow.hedge_wins",
                   static_cast<double>(hedged.hs.wins));
    std::printf("hedging cut read p99 %.2f -> %.2f ms (%.0f%%); "
                "breaker+hedge: %.2f ms\n",
                unhedged.r.read_p99_ms, hedged.r.read_p99_ms,
                100.0 * (unhedged.r.read_p99_ms - hedged.r.read_p99_ms) /
                    unhedged.r.read_p99_ms,
                full.r.read_p99_ms);
    std::printf("%s\n\n",
                hedge_wins && lost == 0
                    ? "PASS: hedged reads beat unhedged with zero loss"
                    : "FAIL: hedging did not beat unhedged (or data lost)");
    return hedge_wins && lost == 0 ? 0 : 1;
}

}  // namespace
}  // namespace sdf

int
main(int argc, char **argv)
{
    sdf::bench::ObsCli &obs = sdf::bench::GlobalObs();
    obs.ParseAndStrip(argc, argv);
    sdf::bench::PrintPreamble("overload control + fail-slow tolerance",
                              "open-loop serving model of §2");
    int rc = sdf::RunStormSweep(obs);
    rc |= sdf::RunFailSlow(obs);
    obs.AddMeta("experiment", "overload");
    if (const int orc = obs.Export(); orc != 0) return orc;
    return rc;
}
