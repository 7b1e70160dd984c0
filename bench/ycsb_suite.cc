/**
 * @file
 * YCSB-style workload suite over the cluster front door (web-scale
 * serving model, §2).
 *
 * The paper's production setting is skewed, phased internet traffic, not
 * the uniform closed loops of the device benches. This suite drives the
 * YCSB core workloads through the async client against a 4-node R=2
 * cluster:
 *
 * Phase A — profile sweep: workloads A (50/50 read/update), B (95/5),
 * C (read-only) under Zipfian skew, and E (95% range scans / 5% inserts)
 * at a scan-appropriate rate. Every run must drain (issued == completed,
 * no silent drops) and pass the acked-write consistency audit.
 *
 * Phase B — flash crowd: the storm profile spikes arrivals 3x onto a hot
 * 5% key range mid-run. SLO violations must localize to the spike phase
 * (attribution is by issue time), with clean steady/recovery phases.
 *
 * Phase C — diurnal: a four-phase rate ramp with an evening write-heavy
 * shift; per-phase issue counts must track the schedule's multipliers.
 *
 * Exits nonzero if a run fails to drain, violations smear outside the
 * storm window, or any acked write is lost.
 */
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "client/kv_client.h"
#include "cluster/cluster.h"
#include "util/assert.h"
#include "util/table_printer.h"
#include "workload/ycsb.h"

namespace sdf {
namespace {

constexpr double kScale = 0.02;
constexpr uint32_t kNodes = 4;
constexpr uint32_t kReplication = 2;
constexpr uint32_t kPreloadKeys = 400;
constexpr uint32_t kValueBytes = 4 * util::kKiB;

cluster::ClusterConfig
MakeConfig()
{
    cluster::ClusterConfig cc;
    cc.nodes = kNodes;
    cc.replication = kReplication;
    cc.node.kv.stack.backend = testbed::Backend::kBaiduSdf;
    cc.node.kv.stack.capacity_scale = kScale;
    cc.node.kv.store.slice_count = 4;
    cc.node.admission_cap = 64;
    return cc;
}

struct SuiteOutcome
{
    workload::YcsbResult r;
    uint64_t lost = 0;
};

SuiteOutcome
RunProfile(const std::string &profile, double rate, util::TimeNs dur,
           uint64_t seed)
{
    sim::Simulator sim;
    bench::BindObs(sim);
    cluster::Cluster cl(sim, MakeConfig());
    const auto keys = cl.Preload(kPreloadKeys, kValueBytes);
    SDF_CHECK_MSG(keys.size() == kPreloadKeys, "cluster preload failed");

    client::KvClientConfig kc;
    kc.window_per_node = 32;
    kc.queue_cap = 128;
    kc.deadline = util::MsToNs(10.0);
    client::KvClient client(sim, cl.router(), kc);

    workload::YcsbConfig base;
    base.arrival_rate = rate;
    base.duration = dur;
    base.seed = seed;
    base.value_bytes = kValueBytes;
    base.scan_limit_max = 20;
    base.first_insert_key = 1 << 20;
    base.slo = util::MsToNs(5.0);
    // One labelled series segment per schedule phase, so the storm's
    // windows separate from steady state in a --stats-series export.
    base.on_phase_start = [&sim, &profile](size_t,
                                           const workload::YcsbPhase &p,
                                           util::TimeNs, util::TimeNs d) {
        bench::GlobalObs().StartSeries(
            sim, "ycsb." + profile + "." + p.name, d);
    };
    const workload::YcsbConfig cfg = workload::YcsbProfile(profile, base);

    SuiteOutcome out;
    out.r = workload::RunYcsb(sim, client.Service(), keys, cfg);
    out.lost = cl.AuditKeys(out.r.acked_writes).lost;
    return out;
}

int
RunProfileSweep(bench::ObsCli &obs)
{
    std::printf("-- phase A: YCSB profile sweep (4 nodes, R=2, Zipfian "
                "theta 0.99, 4 KiB values) --\n");
    util::TablePrinter table("profiles A/B/C at 40k ops/s, E at 500 ops/s");
    table.SetHeader({"profile", "goodput/s", "ok", "misses", "shed",
                     "scans", "p50 ms", "p99 ms"});

    const util::TimeNs dur = util::SecToNs(0.4);
    bool drained = true;
    uint64_t lost_total = 0;
    for (const std::string profile : {"a", "b", "c", "e"}) {
        // Scans touch up to scan_limit keys each and fan out to every
        // node, so E offers ~scan_limit fewer arrivals for equal work.
        const double rate = profile == "e" ? 500 : 40000;
        const SuiteOutcome out = RunProfile(profile, rate, dur, 42);
        const workload::YcsbResult &r = out.r;
        drained = drained && r.completed == r.issued;
        lost_total += out.lost;
        char p50[32], p99[32], gp[32];
        std::snprintf(p50, sizeof p50, "%.3f", r.p50_ms);
        std::snprintf(p99, sizeof p99, "%.3f", r.p99_ms);
        std::snprintf(gp, sizeof gp, "%.0f", r.goodput_ops_per_sec);
        table.AddRow(
            {profile, gp,
             std::to_string(r.ok_reads + r.ok_updates + r.ok_inserts +
                            r.ok_scans),
             std::to_string(r.misses),
             std::to_string(r.shed_overloaded + r.shed_deadline),
             std::to_string(r.ok_scans), p50, p99});
        obs.AddDerived("result." + profile + ".goodput_ops_per_sec",
                       r.goodput_ops_per_sec);
        obs.AddDerived("result." + profile + ".p99_ms", r.p99_ms);
        obs.AddDerived("result." + profile + ".slo_violations",
                       static_cast<double>(r.slo_violations));
    }
    table.Print();
    std::printf("%s\n", drained ? "PASS: every profile drained "
                                  "(issued == completed)"
                                : "FAIL: silent drops detected");
    std::printf("%s\n\n", lost_total == 0
                              ? "PASS: zero acked writes lost"
                              : "FAIL: consistency audit lost keys");
    return drained && lost_total == 0 ? 0 : 1;
}

int
RunStorm(bench::ObsCli &obs)
{
    std::printf("-- phase B: flash crowd (3x arrivals on a hot 5%% range, "
                "middle fifth of the run) --\n");
    const SuiteOutcome out =
        RunProfile("storm", 40000, util::SecToNs(0.5), 42);
    const workload::YcsbResult &r = out.r;

    util::TablePrinter table("storm phases (SLO 5 ms)");
    table.SetHeader(
        {"phase", "issued", "slo viol", "p50 ms", "p99 ms", "p99.9 ms"});
    uint64_t spike_viol = 0;
    for (const workload::YcsbPhaseResult &p : r.phases) {
        if (p.name == "spike") spike_viol = p.slo_violations;
        char p50[32], p99[32], p999[32];
        std::snprintf(p50, sizeof p50, "%.3f", p.p50_ms);
        std::snprintf(p99, sizeof p99, "%.3f", p.p99_ms);
        std::snprintf(p999, sizeof p999, "%.3f", p.p999_ms);
        table.AddRow({p.name, std::to_string(p.issued),
                      std::to_string(p.slo_violations), p50, p99, p999});
        obs.AddDerived("result.storm." + p.name + ".p99_ms", p.p99_ms);
        obs.AddDerived("result.storm." + p.name + ".slo_violations",
                       static_cast<double>(p.slo_violations));
    }
    table.Print();

    // Attribution is by issue time: if the spike hurts, the spike's
    // numbers must say so — not the run average, not its neighbors.
    const bool localized =
        r.slo_violations == 0 ||
        spike_viol * 10 >= r.slo_violations * 8;  // >= 80% in the spike.
    const bool drained = r.completed == r.issued;
    std::printf("%llu/%llu SLO violations issued inside the spike\n",
                static_cast<unsigned long long>(spike_viol),
                static_cast<unsigned long long>(r.slo_violations));
    std::printf("%s\n\n",
                localized && drained && out.lost == 0
                    ? "PASS: violations localize to the storm window, "
                      "no drops, no loss"
                    : "FAIL: violations smeared outside the storm window "
                      "(or drops/loss)");
    return localized && drained && out.lost == 0 ? 0 : 1;
}

int
RunDiurnal(bench::ObsCli &obs)
{
    std::printf("-- phase C: diurnal ramp (0.5x/1x/2x/1x, write-heavy "
                "evening) --\n");
    const SuiteOutcome out =
        RunProfile("diurnal", 40000, util::SecToNs(0.5), 42);
    const workload::YcsbResult &r = out.r;

    util::TablePrinter table("diurnal phases");
    table.SetHeader({"phase", "issued", "reads", "writes", "p99 ms"});
    for (const workload::YcsbPhaseResult &p : r.phases) {
        char p99[32];
        std::snprintf(p99, sizeof p99, "%.3f", p.p99_ms);
        table.AddRow({p.name, std::to_string(p.issued),
                      std::to_string(p.ok_reads),
                      std::to_string(p.ok_updates + p.ok_inserts), p99});
        obs.AddDerived("result.diurnal." + p.name + ".issued",
                       static_cast<double>(p.issued));
    }
    table.Print();

    // The schedule is visible in the arrivals: noon (2x) issues about
    // twice morning (1x), morning about twice night (0.5x).
    const double night = static_cast<double>(r.phases[0].issued);
    const double morning = static_cast<double>(r.phases[1].issued);
    const double noon = static_cast<double>(r.phases[2].issued);
    const bool ramped = morning > 1.6 * night && morning < 2.4 * night &&
                        noon > 1.6 * morning && noon < 2.4 * morning;
    // The evening shift really writes: more acked writes than any other
    // phase despite equal arrival rate to morning.
    const uint64_t evening_writes =
        r.phases[3].ok_updates + r.phases[3].ok_inserts;
    const uint64_t morning_writes =
        r.phases[1].ok_updates + r.phases[1].ok_inserts;
    const bool shifted = evening_writes > 2 * morning_writes;
    std::printf("%s\n\n",
                ramped && shifted && out.lost == 0
                    ? "PASS: arrivals track the schedule, evening goes "
                      "write-heavy, no loss"
                    : "FAIL: phase schedule not visible in the traffic");
    return ramped && shifted && out.lost == 0 ? 0 : 1;
}

}  // namespace
}  // namespace sdf

int
main(int argc, char **argv)
{
    sdf::bench::ObsCli &obs = sdf::bench::GlobalObs();
    obs.ParseAndStrip(argc, argv);
    sdf::bench::PrintPreamble("YCSB workload suite",
                              "skewed, phased web-scale traffic of §2");
    int rc = sdf::RunProfileSweep(obs);
    rc |= sdf::RunStorm(obs);
    rc |= sdf::RunDiurnal(obs);
    obs.AddMeta("experiment", "ycsb_suite");
    if (const int orc = obs.Export(); orc != 0) return orc;
    return rc;
}
