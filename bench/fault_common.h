/**
 * @file
 * The fault-campaign runner behind `sdfsim --workload=faults`.
 *
 * A campaign runs on the same cluster::Cluster as the cluster experiments:
 * R storage nodes with R-way replication, so every node holds every key on
 * its own SdfDevice — independent failure domains, as the paper's
 * no-drive-internal-redundancy design assumes. It preloads a key
 * population through the router, then replays a deterministic FaultPlan
 * against the nodes' devices while one open-loop workload::RunYcsb phase
 * (uniform reads plus fresh-key inserts) drives the router. Afterwards the
 * preload and every acknowledged insert are audited through the
 * replicated read path.
 *
 * Reported metrics: data loss (keys unreadable from every replica),
 * availability (ops that returned ok / ops issued — every op completes,
 * bounded by the RPC timeout x retries), and recovery latency (read-retry
 * ladder recoveries on the device, replica failovers in the router). A
 * stats fingerprint makes determinism checkable: equal seeds must produce
 * equal fingerprints.
 */
#ifndef SDF_BENCH_FAULT_COMMON_H
#define SDF_BENCH_FAULT_COMMON_H

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "fault/fault.h"
#include "sim/simulator.h"
#include "util/fingerprint.h"
#include "util/units.h"
#include "workload/ycsb.h"

namespace sdf::bench {

/** Fresh-key inserts over a campaign's fault window. */
inline constexpr uint32_t kCampaignWrites = 200;

/** Campaign knobs. */
struct FaultCampaignConfig
{
    uint32_t replicas = 3;  ///< Nodes, each holding every key.
    uint32_t slices_per_replica = 4;
    double capacity_scale = 0.02;
    uint32_t keys = 800;
    uint32_t value_bytes = 64 * util::kKiB;
    /** Mean reads over the fault window; with kCampaignWrites they set
     *  the open-loop arrival rate, (reads + kCampaignWrites) / horizon. */
    uint32_t reads = 1500;
    double horizon_sec = 0.4;
    uint64_t seed = 42;
    uint32_t fault_count = 120;
    uint32_t read_retry_levels = 4;
    /** Optional plan text (FaultPlan format); empty = random from seed. */
    std::string plan_text;
    /**
     * Device error model (always on; faults ride on top of it). The
     * elevated base RBER puts ~1.3 expected bit errors in an 8 KiB page —
     * harmless against a 40-bit ECC budget, but an injected RBER elevation
     * of 30-100x pushes pages into read-retry or terminal-retirement range.
     */
    double base_rber = 2e-5;
    double wear_rber_factor = 50.0;
    uint32_t endurance_cycles = 3000;
    uint32_t ecc_bits = 40;
    /** Optional observability hub, installed on the campaign's simulator
     *  before the cluster is built (see obs/hub.h). */
    obs::Hub *hub = nullptr;
};

/** Campaign outcome. */
struct FaultCampaignResult
{
    fault::FaultInjectorStats faults;
    uint64_t keys_stored = 0;  ///< Preloaded plus acked-insert keys audited.
    uint64_t keys_lost = 0;    ///< Unreadable from every replica post-run.
    uint64_t requests_issued = 0;
    uint64_t requests_completed = 0;  ///< Every request must complete.
    uint64_t requests_ok = 0;  ///< Completed with an ok status (a miss too).
    double availability = 1.0;  ///< requests_ok / requests_issued.
    core::SdfStats device;      ///< Summed over nodes.
    cluster::ReplicatedKvStats kv;  ///< The router's replication counters.
    net::RpcStats rpc;          ///< Summed over the nodes' endpoints.
    uint64_t ladder_recoveries = 0;   ///< Pages saved by read retries.
    double ladder_recovery_mean_ms = 0;
    uint64_t failovers = 0;           ///< Reads served by a backup replica.
    double failover_p99_ms = 0;
    /** Equal seeds must yield equal fingerprints (determinism check). */
    uint64_t fingerprint = 0;
    /** Non-empty when the supplied plan failed to parse; the campaign did
     *  not run and none of the counters above are meaningful. */
    std::string plan_error;
};

/** The plan spec a campaign uses when no plan text is supplied. Exposed so
 *  `--print-plan` style tooling can emit exactly the plan a run would use. */
inline fault::FaultPlanSpec
CampaignFaultSpec(const FaultCampaignConfig &cfg)
{
    fault::FaultPlanSpec spec;
    spec.fault_count = cfg.fault_count;
    spec.horizon = util::SecToNs(cfg.horizon_sec);
    spec.devices = cfg.replicas;
    const nand::Geometry geo =
        core::BaiduSdfConfig(cfg.capacity_scale).flash.geometry;
    spec.channels = geo.channels;
    spec.planes = geo.PlanesPerChannel();
    // Target the low block indices: the allocator hands out blocks in
    // order, so that's where a lightly filled device keeps its data. A
    // uniformly random block would nearly always hit unwritten flash.
    spec.blocks_per_plane = std::min(geo.blocks_per_plane, 8u);
    spec.pages_per_block = geo.pages_per_block;
    spec.max_deaths = cfg.replicas;  // At most ~one dead channel per replica.
    // Multi-millisecond stalls, well inside the cluster's 50 ms RPC
    // timeout: a request caught behind one waits it out, so stalls show up
    // as read latency rather than as RPC retries.
    spec.stall_max = util::MsToNs(8);
    return spec;
}

/** The seed the campaign derives for plan synthesis (distinct stream from
 *  the device RNGs and the load generator). */
inline uint64_t
CampaignPlanSeed(const FaultCampaignConfig &cfg)
{
    return cfg.seed ^ 0xfa011700ULL;
}

inline FaultCampaignResult
RunFaultCampaign(const FaultCampaignConfig &cfg)
{
    FaultCampaignResult result;
    fault::FaultPlan plan;
    if (!cfg.plan_text.empty()) {
        std::string error;
        if (!fault::FaultPlan::Parse(cfg.plan_text, &plan, &error)) {
            std::fprintf(stderr, "fault plan: %s\n", error.c_str());
            result.plan_error = error;
            return result;
        }
    } else {
        plan = fault::FaultPlan::Random(CampaignFaultSpec(cfg),
                                        CampaignPlanSeed(cfg));
    }

    sim::Simulator sim;
    if (cfg.hub != nullptr) sim.set_hub(cfg.hub);

    // --- the cluster: replication == nodes puts every key on every node.
    cluster::ClusterConfig cc;
    cc.nodes = cfg.replicas;
    cc.replication = cfg.replicas;
    cc.node.kv.stack.capacity_scale = cfg.capacity_scale;
    cc.node.kv.stack.with_io_stack = false;
    cc.node.kv.store.slice_count = cfg.slices_per_replica;
    cc.node.kv.stack.tune_sdf = [&cfg](core::SdfConfig &dc) {
        dc.flash.errors.enabled = true;
        dc.flash.errors.base_rber = cfg.base_rber;
        dc.flash.errors.wear_rber_factor = cfg.wear_rber_factor;
        dc.flash.errors.endurance_cycles = cfg.endurance_cycles;
        dc.flash.ecc_correctable_bits = cfg.ecc_bits;
        dc.flash.seed = cfg.seed;  // Each node offsets it by its id.
        dc.read_retry_levels = cfg.read_retry_levels;
    };
    cluster::Cluster cl(sim, cc);

    // --- load phase: preload through the router, flushed onto flash so the
    // fault window reads real media.
    const std::vector<uint64_t> keys = cl.Preload(cfg.keys, cfg.value_bytes);

    // --- fault window: replay the plan, shifted into the window, while
    // open-loop clients read and insert through the router.
    const util::TimeNs t0 = sim.Now();
    std::vector<fault::FaultEvent> events = plan.events();
    for (fault::FaultEvent &e : events) e.when += t0;
    fault::FaultInjector injector(sim, cl.SdfDevices(),
                                  fault::FaultPlan(std::move(events)));
    workload::YcsbConfig load;
    const uint32_t ops = cfg.reads + kCampaignWrites;
    load.arrival_rate = ops / cfg.horizon_sec;
    load.duration = util::SecToNs(cfg.horizon_sec);
    load.seed = cfg.seed;
    load.value_bytes = cfg.value_bytes;
    load.phases = {workload::UniformMix(static_cast<double>(cfg.reads) / ops)};
    const workload::YcsbResult run =
        workload::RunYcsb(sim, cl.Service(), keys, load);

    // --- audit phase: the preload and every acknowledged insert must be
    // readable from some replica.
    std::vector<uint64_t> acked = keys;
    acked.insert(acked.end(), run.acked_writes.begin(),
                 run.acked_writes.end());
    const cluster::Cluster::Audit audit = cl.AuditKeys(acked);

    // --- aggregate metrics.
    result.faults = injector.stats();
    result.keys_stored = audit.audited;
    result.keys_lost = audit.lost;
    result.requests_issued = run.issued;
    result.requests_completed = run.completed;
    result.requests_ok = run.completed - run.errors - run.shed_overloaded -
                         run.shed_deadline;
    for (core::SdfDevice *d : cl.SdfDevices()) {
        const core::SdfStats &s = d->stats();
        result.device.unit_writes += s.unit_writes;
        result.device.unit_erases += s.unit_erases;
        result.device.page_reads += s.page_reads;
        result.device.read_failures += s.read_failures;
        result.device.read_retries += s.read_retries;
        result.device.retry_recoveries += s.retry_recoveries;
        result.device.read_retirements += s.read_retirements;
        result.device.blocks_retired += s.blocks_retired;
        result.device.units_lost += s.units_lost;
        result.device.contract_violations += s.contract_violations;
        result.ladder_recoveries += d->recovery_latencies().count();
        result.ladder_recovery_mean_ms +=
            d->recovery_latencies().count() > 0
                ? d->recovery_latencies().MeanMs()
                : 0;
    }
    result.ladder_recovery_mean_ms /= cfg.replicas;
    for (uint32_t n = 0; n < cl.node_count(); ++n) {
        const net::RpcStats &s = cl.node(n).net().rpc_stats();
        result.rpc.timeouts += s.timeouts;
        result.rpc.retries += s.retries;
        result.rpc.failures += s.failures;
        result.rpc.late_responses += s.late_responses;
        result.rpc.overload_replies += s.overload_replies;
        result.rpc.deadline_drops += s.deadline_drops;
    }
    result.kv = cl.router().stats();
    result.failovers = cl.router().recovery_latencies().count();
    result.failover_p99_ms = result.failovers > 0
                                 ? cl.router().recovery_latencies()
                                       .PercentileMs(99)
                                 : 0;
    result.availability =
        result.requests_issued > 0
            ? static_cast<double>(result.requests_ok) /
                  static_cast<double>(result.requests_issued)
            : 1.0;

    // --- determinism fingerprint over everything observable.
    char digest[512];
    std::snprintf(
        digest, sizeof digest,
        "f%llu s%llu l%llu i%llu c%llu o%llu pr%llu rf%llu rr%llu rc%llu "
        "rt%llu ul%llu dg%llu fr%llu rp%llu to%llu nr%llu",
        static_cast<unsigned long long>(result.faults.total()),
        static_cast<unsigned long long>(result.keys_stored),
        static_cast<unsigned long long>(result.keys_lost),
        static_cast<unsigned long long>(result.requests_issued),
        static_cast<unsigned long long>(result.requests_completed),
        static_cast<unsigned long long>(result.requests_ok),
        static_cast<unsigned long long>(result.device.page_reads),
        static_cast<unsigned long long>(result.device.read_failures),
        static_cast<unsigned long long>(result.device.read_retries),
        static_cast<unsigned long long>(result.device.retry_recoveries),
        static_cast<unsigned long long>(result.device.read_retirements),
        static_cast<unsigned long long>(result.device.units_lost),
        static_cast<unsigned long long>(result.kv.degraded_reads),
        static_cast<unsigned long long>(result.kv.failed_reads),
        static_cast<unsigned long long>(result.kv.re_replications),
        static_cast<unsigned long long>(result.rpc.timeouts),
        static_cast<unsigned long long>(result.rpc.retries));
    result.fingerprint = util::Fingerprint(digest, std::strlen(digest));
    return result;
}

/** Print a campaign result in the standard bench table style. */
inline void
PrintFaultCampaignResult(const FaultCampaignConfig &cfg,
                         const FaultCampaignResult &r)
{
    std::printf("replicas %u, %llu keys stored, faults applied: %llu "
                "(%llu stalls, %llu deaths, %llu corruptions, %llu crc "
                "windows, %llu rber)\n",
                cfg.replicas,
                static_cast<unsigned long long>(r.keys_stored),
                static_cast<unsigned long long>(r.faults.total()),
                static_cast<unsigned long long>(r.faults.stalls),
                static_cast<unsigned long long>(r.faults.deaths),
                static_cast<unsigned long long>(r.faults.corruptions),
                static_cast<unsigned long long>(r.faults.crc_windows),
                static_cast<unsigned long long>(r.faults.rber_elevations));
    std::printf("data loss:     %llu / %llu keys\n",
                static_cast<unsigned long long>(r.keys_lost),
                static_cast<unsigned long long>(r.keys_stored));
    std::printf("availability:  %.4f (%llu/%llu requests ok, all %llu "
                "completed)\n",
                r.availability,
                static_cast<unsigned long long>(r.requests_ok),
                static_cast<unsigned long long>(r.requests_issued),
                static_cast<unsigned long long>(r.requests_completed));
    std::printf("device:        %llu page reads, %llu retries, %llu ladder "
                "recoveries (mean %.3f ms), %llu terminal failures, %llu "
                "blocks retired, %llu units lost\n",
                static_cast<unsigned long long>(r.device.page_reads),
                static_cast<unsigned long long>(r.device.read_retries),
                static_cast<unsigned long long>(r.ladder_recoveries),
                r.ladder_recovery_mean_ms,
                static_cast<unsigned long long>(r.device.read_failures),
                static_cast<unsigned long long>(r.device.blocks_retired),
                static_cast<unsigned long long>(r.device.units_lost));
    std::printf("store:         %llu degraded reads (failover p99 %.3f ms), "
                "%llu re-replications, %llu reads failed on all replicas\n",
                static_cast<unsigned long long>(r.kv.degraded_reads),
                r.failover_p99_ms,
                static_cast<unsigned long long>(r.kv.re_replications),
                static_cast<unsigned long long>(r.kv.failed_reads));
    std::printf("network:       %llu timeouts, %llu retries, %llu permanent "
                "failures\n",
                static_cast<unsigned long long>(r.rpc.timeouts),
                static_cast<unsigned long long>(r.rpc.retries),
                static_cast<unsigned long long>(r.rpc.failures));
    std::printf("fingerprint:   %016llx (same seed => same value)\n",
                static_cast<unsigned long long>(r.fingerprint));
}

}  // namespace sdf::bench

#endif  // SDF_BENCH_FAULT_COMMON_H
