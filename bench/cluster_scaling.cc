/**
 * @file
 * Cluster scaling and degraded-mode operation (§2.4, §5 deployment model).
 *
 * Phase A — scaling: the same read-heavy mixed workload runs against
 * clusters of 2, 4 and 8 storage nodes (R=2). Aggregate throughput should
 * grow with the node count: each node brings its own device channels,
 * slices and network endpoint, and the consistent-hash router spreads
 * keys across all of them.
 *
 * Phase B — degraded mode: a 3-node R=2 cluster loses one node's entire
 * device (all 44 channels die) in the middle of a mixed read/write
 * window. Replication must absorb it: reads fail over to surviving
 * replicas (and read-repair restores redundancy), and *every acknowledged
 * write must still be readable* — the process exits nonzero if any acked
 * key is lost.
 *
 * Phase C — recovery: a 4-node R=2 cluster rolls node 1 (process stop at
 * 150 ms, restart + recovery scan + rebalance at 300 ms) under a mixed
 * load, then loses node 3 for good and heals with one anti-entropy pass.
 * The audit reads back every key the cluster ever acknowledged and the
 * pass must leave zero keys under-replicated — nonzero exit otherwise.
 */
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "cluster/cluster.h"
#include "cluster/rebalancer.h"
#include "fault/fault.h"
#include "util/assert.h"
#include "util/table_printer.h"
#include "workload/ycsb.h"

namespace sdf {
namespace {

constexpr double kScale = 0.02;
constexpr uint32_t kSlicesPerNode = 4;
constexpr uint32_t kPreloadKeys = 120;
constexpr uint32_t kValueBytes = 64 * util::kKiB;

cluster::ClusterConfig
MakeConfig(uint32_t nodes, uint32_t replication)
{
    cluster::ClusterConfig cc;
    cc.nodes = nodes;
    cc.replication = replication;
    cc.node.kv.stack.backend = testbed::Backend::kBaiduSdf;
    cc.node.kv.stack.capacity_scale = kScale;
    cc.node.kv.store.slice_count = kSlicesPerNode;
    return cc;
}

/** Preload via the router; @return the keys (aborts on a failed put). */
std::vector<uint64_t>
Preload(cluster::Cluster &cl)
{
    std::vector<uint64_t> keys = cl.Preload(kPreloadKeys, kValueBytes);
    SDF_CHECK_MSG(keys.size() == kPreloadKeys, "cluster preload failed");
    return keys;
}

/**
 * The load every phase runs: 8 closed-loop clients through the router,
 * uniform reads of the population and inserts of fresh keys.
 */
workload::YcsbResult
RunLoad(sim::Simulator &sim, cluster::Cluster &cl,
        const std::vector<uint64_t> &keys, double read_fraction,
        util::TimeNs duration)
{
    workload::YcsbConfig cfg;
    cfg.actors = 8;
    cfg.duration = duration;
    cfg.value_bytes = kValueBytes;
    cfg.phases = {workload::UniformMix(read_fraction)};
    return workload::RunYcsb(sim, cl.Service(), keys, cfg);
}

/** Payload MB/s of @p ops values (all kValueBytes) over @p duration. */
double
Mbps(uint64_t ops, util::TimeNs duration)
{
    return util::BandwidthMBps(ops * kValueBytes, duration);
}

int
RunScaling(bench::ObsCli &obs)
{
    std::printf("-- phase A: throughput vs node count (R=2) --\n");
    util::TablePrinter table("cluster scaling, 90%% reads, 64 KiB values");
    table.SetHeader({"nodes", "ops/s", "read MB/s", "write MB/s",
                     "read p99 ms"});
    double prev_ops = 0;
    bool monotonic = true;
    for (uint32_t nodes : {2u, 4u, 8u}) {
        sim::Simulator sim;
        bench::BindObs(sim);
        cluster::Cluster cl(sim, MakeConfig(nodes, 2));
        const util::TimeNs dur = util::SecToNs(0.4);
        const auto r = RunLoad(sim, cl, Preload(cl), 0.9, dur);

        table.AddRow({std::to_string(nodes),
                      util::TablePrinter::Num(r.goodput_ops_per_sec, 0),
                      util::TablePrinter::Num(Mbps(r.ok_reads, dur)),
                      util::TablePrinter::Num(Mbps(r.ok_inserts, dur)),
                      util::TablePrinter::Num(r.read_p99_ms, 2)});
        obs.AddDerived("scaling.nodes" + std::to_string(nodes) + ".ops_per_sec",
                       r.goodput_ops_per_sec);
        if (r.goodput_ops_per_sec < prev_ops) monotonic = false;
        prev_ops = r.goodput_ops_per_sec;
    }
    table.Print();
    std::printf("throughput %s with node count\n\n",
                monotonic ? "scales monotonically" : "did NOT scale");
    return monotonic ? 0 : 1;
}

int
RunDegraded(bench::ObsCli &obs)
{
    std::printf("-- phase B: node death under load (3 nodes, R=2) --\n");
    sim::Simulator sim;
    bench::BindObs(sim);
    cluster::Cluster cl(sim, MakeConfig(3, 2));
    const auto keys = Preload(cl);

    // Kill every channel of node 0's device mid-window.
    const util::TimeNs t_kill = sim.Now() + util::MsToNs(200);
    std::vector<fault::FaultEvent> events;
    for (uint32_t ch = 0; ch < cl.node(0).sdf_device()->channel_count();
         ++ch) {
        fault::FaultEvent e;
        e.when = t_kill;
        e.kind = fault::FaultKind::kChannelDeath;
        e.device = 0;
        e.channel = ch;
        events.push_back(e);
    }
    fault::FaultInjector injector(sim, cl.SdfDevices(),
                                  fault::FaultPlan(std::move(events)));

    // Write-heavier: exercises acked-write safety.
    const auto r = RunLoad(sim, cl, keys, 0.7, util::SecToNs(0.4));
    // Audit: every acknowledged write must still be readable.
    const cluster::Cluster::Audit audit = cl.AuditKeys(r.acked_writes);
    const uint64_t lost = audit.lost;

    const kv::ReplicatedKvStats &rs = cl.router().stats();
    std::printf("node 0 died at t=%.0f ms (%llu channel deaths applied)\n",
                util::NsToMs(t_kill),
                static_cast<unsigned long long>(injector.stats().deaths));
    std::printf("load: %llu ops, %llu reads ok (%llu degraded, %llu failed), "
                "%llu inserts acked, %llu ops failed\n",
                static_cast<unsigned long long>(r.completed),
                static_cast<unsigned long long>(r.ok_reads),
                static_cast<unsigned long long>(rs.degraded_reads),
                static_cast<unsigned long long>(rs.failed_reads),
                static_cast<unsigned long long>(r.ok_inserts),
                static_cast<unsigned long long>(r.shed_overloaded +
                                                r.shed_deadline + r.errors));
    std::printf("read-repair: %llu re-replications, recovery p99 %.2f ms\n",
                static_cast<unsigned long long>(rs.re_replications),
                cl.router().recovery_latencies().count() > 0
                    ? cl.router().recovery_latencies().PercentileMs(99)
                    : 0.0);
    std::printf("audit: %llu acked writes, %llu lost\n\n",
                static_cast<unsigned long long>(audit.audited),
                static_cast<unsigned long long>(lost));
    obs.AddDerived("degraded.acked_writes",
                   static_cast<double>(audit.audited));
    obs.AddDerived("degraded.lost", static_cast<double>(lost));
    obs.AddDerived("degraded.degraded_reads",
                   static_cast<double>(rs.degraded_reads));
    if (lost != 0) {
        std::printf("FAIL: %llu acknowledged writes lost\n",
                    static_cast<unsigned long long>(lost));
        return 1;
    }
    std::printf("PASS: zero acknowledged writes lost in degraded mode\n");
    return 0;
}

int
RunRecovery(bench::ObsCli &obs)
{
    std::printf("-- phase C: rolling restart + anti-entropy (4 nodes, "
                "R=2) --\n");
    sim::Simulator sim;
    bench::BindObs(sim);
    cluster::Cluster cl(sim, MakeConfig(4, 2));
    const auto keys = Preload(cl);

    // Roll node 1 in the middle of the load window: process stop at
    // 150 ms, restart (recovery scan + rebalance pass) at 300 ms.
    const util::TimeNs t0 = sim.Now();
    sim.ScheduleAt(t0 + util::MsToNs(150), [&cl]() { cl.StopNode(1); });
    bool rebalanced = false;
    sim.ScheduleAt(t0 + util::MsToNs(300), [&cl, &rebalanced]() {
        cl.RestartNode(1, [&rebalanced]() { rebalanced = true; });
    });

    // Write-heavier: exercises acked-write safety.
    const util::TimeNs dur = util::SecToNs(0.5);
    const auto r = RunLoad(sim, cl, keys, 0.7, dur);
    sim.Run();
    SDF_CHECK_MSG(rebalanced, "restart rebalance never completed");
    const auto &rec = cl.node(1).recovery();

    // Permanent loss: node 3's process dies for good. One anti-entropy
    // pass must restore full R-way redundancy from the survivors.
    cl.StopNode(3);
    const uint64_t degraded = cl.rebalancer().CountUnderReplicated();
    bool healed = false;
    cl.anti_entropy().Run([&healed]() { healed = true; });
    sim.Run();
    SDF_CHECK_MSG(healed, "anti-entropy pass never completed");
    const cluster::Rebalancer::Stats &rb = cl.rebalancer().stats();
    const uint64_t under = cl.rebalancer().CountUnderReplicated();

    // Audit everything the cluster ever acknowledged — the preload plus
    // every acked insert — through the 3 surviving nodes.
    std::vector<uint64_t> audit_keys = keys;
    audit_keys.insert(audit_keys.end(), r.acked_writes.begin(),
                      r.acked_writes.end());
    const cluster::Cluster::Audit audit = cl.AuditKeys(audit_keys);
    const uint64_t lost = audit.lost;

    std::printf("during-restart load: %.0f ops/s, read %.1f MB/s, "
                "write %.1f MB/s, read p99 %.2f ms\n",
                r.goodput_ops_per_sec, Mbps(r.ok_reads, dur),
                Mbps(r.ok_inserts, dur), r.read_p99_ms);
    std::printf("node 1 recovery: %llu patches (%.1f MiB) scanned, %llu WAL "
                "records, %.2f ms to serving\n",
                static_cast<unsigned long long>(rec.patches_scanned),
                static_cast<double>(rec.bytes_scanned) / (1 << 20),
                static_cast<unsigned long long>(rec.wal_records_replayed),
                static_cast<double>(rec.last_recovery_ns) / 1e6);
    std::printf("anti-entropy after losing node 3: %llu keys degraded, "
                "%llu moves (%.1f MiB) in %.2f ms, %llu still "
                "under-replicated\n",
                static_cast<unsigned long long>(degraded),
                static_cast<unsigned long long>(rb.keys_moved),
                static_cast<double>(rb.bytes_moved) / (1 << 20),
                static_cast<double>(rb.last_pass_ns) / 1e6,
                static_cast<unsigned long long>(under));
    std::printf("audit: %llu acked keys, %llu lost\n\n",
                static_cast<unsigned long long>(audit.audited),
                static_cast<unsigned long long>(lost));
    obs.AddDerived("recovery.node1_recovery_ms",
                   static_cast<double>(rec.last_recovery_ns) / 1e6);
    obs.AddDerived("recovery.during_restart_ops_per_sec",
                   r.goodput_ops_per_sec);
    obs.AddDerived("recovery.anti_entropy_ms",
                   static_cast<double>(rb.last_pass_ns) / 1e6);
    obs.AddDerived("recovery.keys_moved",
                   static_cast<double>(rb.keys_moved));
    obs.AddDerived("recovery.under_replicated", static_cast<double>(under));
    obs.AddDerived("recovery.lost", static_cast<double>(lost));
    if (lost != 0 || under != 0) {
        std::printf("FAIL: %llu keys lost, %llu under-replicated\n",
                    static_cast<unsigned long long>(lost),
                    static_cast<unsigned long long>(under));
        return 1;
    }
    std::printf("PASS: restart + anti-entropy preserved every acked key at "
                "full redundancy\n");
    return 0;
}

}  // namespace
}  // namespace sdf

int
main(int argc, char **argv)
{
    sdf::bench::ObsCli &obs = sdf::bench::GlobalObs();
    obs.ParseAndStrip(argc, argv);
    sdf::bench::PrintPreamble("cluster scaling + degraded mode",
                              "deployment model of §2.4/§5");
    int rc = sdf::RunScaling(obs);
    rc |= sdf::RunDegraded(obs);
    rc |= sdf::RunRecovery(obs);
    obs.AddMeta("experiment", "cluster_scaling");
    if (const int orc = obs.Export(); orc != 0) return orc;
    return rc;
}
