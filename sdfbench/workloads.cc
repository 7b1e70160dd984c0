#include "workloads.h"

#include <algorithm>
#include <array>
#include <functional>
#include <memory>
#include <utility>

#include "client/kv_client.h"
#include "cluster/cluster.h"
#include "cluster/rebalancer.h"
#include "host/io_stack.h"
#include "measure.h"
#include "obs/hub.h"
#include "seams.h"
#include "testbed/testbed.h"
#include "util/rng.h"
#include "workload/ycsb.h"

namespace sdfbench {

using namespace sdf;

namespace {

constexpr double kSloMs = 5.0;
constexpr size_t kLayers = static_cast<size_t>(Layer::kCount);

// ---------------------------------------------------------------------------
// Shared reporting
// ---------------------------------------------------------------------------

/** End-to-end latency/throughput results of one FreshService. */
void
ServiceResults(RepResult &r, const FreshService &svc, double sim_seconds,
               const std::string &label)
{
    const ServiceStats &s = svc.stats();
    const Quantile g50 = QuantileOf(s.get_ns, 50);
    const Quantile g99 = QuantileOf(s.get_ns, 99);
    const Quantile g999 = QuantileOf(s.get_ns, 99.9);
    const Quantile p99 = QuantileOf(s.put_ns, 99);
    r.sim["get_p50_ms"] = g50.value / 1e6;
    r.sim["get_p99_ms"] = g99.value / 1e6;
    // The guide's rule: a tail percentile is only reported with at least
    // ten samples beyond it.
    r.sim["get_p999_ms"] = g999.beyond >= 10 ? g999.value / 1e6 : 0.0;
    r.sim["put_p99_ms"] = p99.value / 1e6;
    r.sim["write_mbps"] =
        static_cast<double>(s.put_bytes_acked) / 1e6 / sim_seconds;
    r.sim["stale_read_ratio"] =
        s.reads_checked > 0 ? static_cast<double>(s.stale_reads) /
                                  static_cast<double>(s.reads_checked)
                            : 0.0;
    r.report += label + ": " + Fmt("%.0f gets, %.0f puts; ",
                                   static_cast<double>(s.gets),
                                   static_cast<double>(s.puts)) +
                Fmt("get p50 %.4f ms (n=%.0f, %.0f beyond)", g50.value / 1e6,
                    static_cast<double>(g50.count),
                    static_cast<double>(g50.beyond)) +
                Fmt(", p99 %.4f ms (%.0f beyond)", g99.value / 1e6,
                    static_cast<double>(g99.beyond)) +
                Fmt(", p99.9 %.4f ms (%.0f beyond", g999.value / 1e6,
                    static_cast<double>(g999.beyond)) +
                (g999.beyond >= 10 ? ")" : ", too few: not reported)") +
                Fmt("; put p99 %.4f ms (n=%.0f, %.0f beyond)\n",
                    p99.value / 1e6, static_cast<double>(p99.count),
                    static_cast<double>(p99.beyond)) +
                label +
                Fmt(": stale reads %.0f of %.0f checked; untyped errors "
                    "%.0f; typed sheds %.0f\n",
                    static_cast<double>(s.stale_reads),
                    static_cast<double>(s.reads_checked),
                    static_cast<double>(s.get_errors + s.put_errors),
                    static_cast<double>(s.get_shed + s.put_shed));
}

/** Audit every known key through @p get; lost keys are errors. */
void
AuditInto(RepResult &r, sim::Simulator &sim, const FreshService &svc,
          const std::function<void(uint64_t, kv::GetCallback)> &get)
{
    const AuditResult a = Audit(sim, svc, get);
    r.sim["lost_acked_writes"] = static_cast<double>(a.lost);
    r.sim["audit_stale_keys"] = static_cast<double>(a.stale);
    r.failed += a.lost;
    if (a.lost > 0) {
        r.errors.push_back(Fmt("%.0f acked keys lost in the audit",
                               static_cast<double>(a.lost)));
    }
    r.report += Fmt("audit: %.0f keys, %.0f lost, %.0f at an older version "
                    "than their last ack\n",
                    static_cast<double>(a.audited),
                    static_cast<double>(a.lost),
                    static_cast<double>(a.stale));
}

/** Span analysis for the traced single-node stack (see seams.h). */
void
SpanResults(RepResult &r, const Tracer &t)
{
    const std::vector<Span> &spans = t.spans();
    std::vector<std::vector<uint32_t>> children(spans.size() + 1);
    for (uint32_t i = 0; i < spans.size(); ++i) {
        if (spans[i].parent != 0) children[spans[i].parent].push_back(i + 1);
    }
    auto span = [&](uint32_t id) -> const Span & { return spans[id - 1]; };
    // Part of [start, end) the children of @p id cover.
    auto covered = [&](uint32_t id) -> TimeNs {
        const Span &p = span(id);
        std::vector<std::pair<TimeNs, TimeNs>> iv;
        for (uint32_t c : children[id]) {
            const Span &s = span(c);
            const TimeNs a = std::max(s.start, p.start);
            const TimeNs b = std::min(s.end < 0 ? p.end : s.end, p.end);
            if (b > a) iv.emplace_back(a, b);
        }
        std::sort(iv.begin(), iv.end());
        TimeNs sum = 0, cur_a = 0, cur_b = -1;
        for (auto [a, b] : iv) {
            if (a > cur_b) {
                if (cur_b > cur_a) sum += cur_b - cur_a;
                cur_a = a;
                cur_b = b;
            } else {
                cur_b = std::max(cur_b, b);
            }
        }
        if (cur_b > cur_a) sum += cur_b - cur_a;
        return sum;
    };

    std::vector<TimeNs> kv_self, bl_self, dev_read, wr, er;
    double get_sum = 0, kv_sum = 0, bl_sum = 0, sdf_sum = 0;
    uint64_t gets = 0;
    for (uint32_t id = 1; id <= spans.size(); ++id) {
        const Span &s = span(id);
        if (s.end < 0) continue;
        if (s.layer == Layer::kSdf && s.kind == OpKind::kWrite)
            wr.push_back(s.end - s.start);
        if (s.layer == Layer::kSdf && s.kind == OpKind::kErase)
            er.push_back(s.end - s.start);
        if (s.layer != Layer::kKv || s.kind != OpKind::kGet) continue;
        // A client get: kv self = span - storage children; block layer
        // self = storage span - device children; sdf self = device spans.
        ++gets;
        const TimeNs dur = s.end - s.start;
        const TimeNs kv = dur - covered(id);
        TimeNs bl = 0, dev = 0;
        for (uint32_t c : children[id]) {
            const Span &cs = span(c);
            const TimeNs cov = covered(c);
            bl += (cs.end - cs.start) - cov;
            dev += cov;
            bl_self.push_back((cs.end - cs.start) - cov);
            for (uint32_t d : children[c]) {
                dev_read.push_back(span(d).end - span(d).start);
            }
        }
        kv_self.push_back(kv);
        get_sum += static_cast<double>(dur);
        kv_sum += static_cast<double>(kv);
        bl_sum += static_cast<double>(bl);
        sdf_sum += static_cast<double>(dev);
    }
    const double n = gets > 0 ? static_cast<double>(gets) : 1.0;
    r.layer["kv.get_span.sim_mean_us"] = get_sum / n / 1e3;
    r.layer["kv.self.get_sim_mean_us"] = kv_sum / n / 1e3;
    r.layer["blocklayer.self.get_sim_mean_us"] = bl_sum / n / 1e3;
    r.layer["sdf.self.get_sim_mean_us"] = sdf_sum / n / 1e3;
    r.layer["trace.get_attribution_residual_ns"] =
        get_sum - kv_sum - bl_sum - sdf_sum;
    r.layer["kv.self.sim_p99_us"] = QuantileOf(kv_self, 99).value / 1e3;
    r.layer["blocklayer.queue_wait.sim_p99_us"] =
        QuantileOf(bl_self, 99).value / 1e3;
    r.layer["sdf.read.sim_p50_us"] = QuantileOf(dev_read, 50).value / 1e3;
    r.layer["sdf.read.sim_p99_us"] = QuantileOf(dev_read, 99).value / 1e3;
    r.layer["sdf.write_unit.sim_p99_ms"] = QuantileOf(wr, 99).value / 1e6;
    r.layer["sdf.erase.sim_p99_ms"] = QuantileOf(er, 99).value / 1e6;
    if (get_sum != kv_sum + bl_sum + sdf_sum) {
        r.errors.push_back("get self times do not sum to the KvService span");
    }
    r.report += Fmt("get attribution (sim mean us): span %.3f = kv %.3f + "
                    "blocklayer %.3f + sdf %.3f\n",
                    get_sum / n / 1e3, kv_sum / n / 1e3, bl_sum / n / 1e3,
                    sdf_sum / n / 1e3);
}

/** Wall-clock self time per layer (@p ns, indexed by Layer), per op. */
void
WallResults(RepResult &r, const std::array<double, kLayers> &ns)
{
    const double n = r.ops > 0 ? static_cast<double>(r.ops) : 1.0;
    double framed = 0;
    for (size_t i = 0; i < kLayers; ++i) {
        framed += ns[i];
        r.layer[std::string(LayerName(static_cast<Layer>(i))) +
                ".wall_self_ns_per_op"] = ns[i] / n;
    }
    r.layer["sim.other.wall_self_ns_per_op"] =
        std::max(0.0, r.measured_wall_s * 1e9 - framed) / n;
}

/** A tracer's wall-clock self time per layer. */
std::array<double, kLayers>
WallOf(const Tracer &t)
{
    std::array<double, kLayers> ns{};
    for (size_t i = 0; i < kLayers; ++i) {
        ns[i] = static_cast<double>(t.wall_self_ns(static_cast<Layer>(i)));
    }
    return ns;
}

// ---------------------------------------------------------------------------
// Cluster workloads
// ---------------------------------------------------------------------------

/** The cluster `sdfsim --workload=ycsb` builds with its defaults. */
cluster::ClusterConfig
ClusterCfg()
{
    cluster::ClusterConfig cc;
    cc.nodes = 3;
    cc.replication = 2;
    cc.node.kv.stack.backend = testbed::Backend::kBaiduSdf;
    cc.node.kv.stack.ssd_through_block_layer = true;
    cc.node.kv.stack.capacity_scale = 0.04;
    cc.node.kv.store.slice_count = 8;
    cc.node.admission_cap = 128;
    cc.breaker.enabled = true;
    return cc;
}

constexpr uint32_t kClusterKeys = 300;
constexpr uint32_t kClusterValue = 4 * util::kKiB;

/** One fresh cluster + client + decorated front door. */
struct ClusterRun
{
    sim::Simulator sim;
    std::unique_ptr<obs::Hub> hub;
    std::unique_ptr<cluster::Cluster> cl;
    std::unique_ptr<client::KvClient> client;
    std::unique_ptr<Tracer> tracer;
    std::unique_ptr<FreshService> svc;
    std::vector<uint64_t> keys;
    uint64_t channel_load_max = 0;
};

/** Build and preload; @return false when the preload did not ack. */
bool
BuildCluster(ClusterRun &c, bool traced, RepResult &r)
{
    Stopwatch sw;
    if (traced) {
        c.hub = std::make_unique<obs::Hub>();
        c.sim.set_hub(c.hub.get());
    }
    c.cl = std::make_unique<cluster::Cluster>(c.sim, ClusterCfg());
    uint64_t loaded = 0;
    for (uint32_t k = 0; k < kClusterKeys; ++k) {
        c.keys.push_back(k + 1);
        c.cl->router().Put(k + 1, EncodeVersion(kClusterValue, 0),
                           [&loaded](bool ok) { loaded += ok ? 1 : 0; });
    }
    c.sim.Run();
    c.cl->FlushAll();
    c.sim.Run();

    client::KvClientConfig kc;
    kc.window_per_node = 64;
    kc.queue_cap = 256;
    kc.batch_max = 8;
    kc.deadline = util::MsToNs(kSloMs);
    kc.hedge_reads = true;
    c.client = std::make_unique<client::KvClient>(c.sim, c.cl->router(), kc);
    if (traced) c.tracer = std::make_unique<Tracer>(c.sim);
    c.svc = std::make_unique<FreshService>(c.sim, c.client->Service(),
                                           Layer::kClient, c.tracer.get());
    for (uint64_t k : c.keys) c.svc->Preloaded(k);
    if (traced) {
        c.svc->set_sampler(64, [&c]() {
            for (uint32_t n = 0; n < c.cl->node_count(); ++n) {
                const auto &layer = *c.cl->node(n).stack().storage.layer;
                for (uint32_t ch = 0;
                     ch < c.cl->node(n).device()->channel_count(); ++ch) {
                    c.channel_load_max =
                        std::max<uint64_t>(c.channel_load_max,
                                           layer.ChannelLoad(ch));
                }
            }
        });
    }
    r.setup_s.push_back(sw.Seconds());
    if (loaded != kClusterKeys) {
        r.errors.push_back(Fmt("preload acked %.0f of %.0f keys",
                               static_cast<double>(loaded), kClusterKeys));
        return false;
    }
    return true;
}

/** The open-loop YCSB phase; returns the engine's result. */
workload::YcsbResult
DriveYcsb(ClusterRun &c, RepResult &r, const char *profile, double rate,
          double seconds, uint64_t seed)
{
    workload::YcsbConfig base;
    base.arrival_rate = rate;
    base.duration = util::SecToNs(seconds);
    base.seed = seed;
    base.theta = 0.99;
    base.value_bytes = kClusterValue;
    base.slo = util::MsToNs(kSloMs);
    const workload::YcsbConfig cfg = workload::YcsbProfile(profile, base);
    const uint64_t ev0 = c.sim.events_processed();
    Stopwatch sw;
    workload::YcsbResult y =
        workload::RunYcsb(c.sim, c.svc->Service(), c.keys, cfg);
    r.measured_wall_s += sw.Seconds();
    r.events += c.sim.events_processed() - ev0;
    r.ops += y.completed;
    r.attempted += y.issued;
    r.failed += y.errors;
    if (y.errors > 0) {
        r.errors.push_back(Fmt("%.0f untyped op errors at %.0f/s",
                               static_cast<double>(y.errors), rate));
    }
    return y;
}

/** Raw cluster counters, summed over every cluster a repetition built. */
using Counters = std::map<std::string, double>;

/** High-water marks: merged by max, not summed or differenced. */
bool
IsPeak(const std::string &name)
{
    return name == "admission.peak_inflight" || name == "channel_load_max";
}

/** Current counter values of one cluster (including its preload). */
void
ReadCluster(ClusterRun &c, Counters &k)
{
    const client::ClientStats &cs = c.client->stats();
    const client::HedgeStats &hs = c.client->hedge_stats();
    k["client.gets"] += static_cast<double>(cs.gets);
    k["client.puts"] += static_cast<double>(cs.puts);
    k["client.batches"] += static_cast<double>(cs.batches);
    k["client.batched_gets"] += static_cast<double>(cs.batched_gets);
    k["client.queued"] += static_cast<double>(cs.queued);
    k["client.shed"] += static_cast<double>(cs.shed_queue_full);
    k["client.hedge.launched"] += static_cast<double>(hs.launched);
    k["client.hedge.wins"] += static_cast<double>(hs.wins);

    if (c.hub != nullptr) {
        const auto &ops = c.hub->stages().ops();
        if (auto it = ops.find("client.path.get"); it != ops.end()) {
            k["path.get.count"] += static_cast<double>(it->second.count);
            for (size_t i = 0; i < obs::kStageCount; ++i) {
                k[std::string("path.get.") +
                  obs::StageName(static_cast<obs::Stage>(i))] +=
                    static_cast<double>(it->second.stage_sum_ns[i]);
            }
        }
    }

    const cluster::ClusterRouter &router = c.cl->router();
    k["router.degraded_reads"] +=
        static_cast<double>(router.stats().degraded_reads);
    double max_gets = 0, sum_gets = 0;
    for (uint32_t n = 0; n < c.cl->node_count(); ++n) {
        const auto g = static_cast<double>(router.node_gets(n));
        max_gets = std::max(max_gets, g);
        sum_gets += g;
    }
    k["router.node_gets.max"] += max_gets;
    k["router.node_gets.mean"] +=
        sum_gets / static_cast<double>(c.cl->node_count());

    const cluster::Rebalancer &rb = c.cl->rebalancer();
    k["rebalance.keys_moved"] += static_cast<double>(rb.stats().keys_moved);
    k["rebalance.bytes_moved"] += static_cast<double>(rb.stats().bytes_moved);
    k["under_replicated_keys"] +=
        static_cast<double>(rb.CountUnderReplicated());
    k["channel_load_max"] = static_cast<double>(c.channel_load_max);

    for (uint32_t n = 0; n < c.cl->node_count(); ++n) {
        cluster::StorageNode &node = c.cl->node(n);
        const auto &adm = node.admission();
        k["admission.admitted"] += static_cast<double>(adm.admitted);
        k["admission.shed"] += static_cast<double>(adm.shed_overload);
        k["admission.peak_inflight"] =
            std::max(k["admission.peak_inflight"],
                     static_cast<double>(adm.peak_inflight));
        k["recovery.wal_records"] +=
            static_cast<double>(node.recovery().wal_records_replayed);
        k["recovery.patches_scanned"] +=
            static_cast<double>(node.recovery().patches_scanned);
        const net::Network &net = node.net();
        k["net.messages"] += static_cast<double>(net.messages());
        k["net.bytes"] +=
            static_cast<double>(net.bytes_to_clients() + net.bulk_bytes());
        k["net.rpc.timeouts"] += static_cast<double>(net.rpc_stats().timeouts);
        k["net.rpc.retries"] += static_cast<double>(net.rpc_stats().retries);
        k["net.rpc.deadline_drops"] +=
            static_cast<double>(net.rpc_stats().deadline_drops);
        if (node.running()) {
            const kv::SliceStats ss = node.store().TotalStats();
            k["kv.gets"] += static_cast<double>(ss.gets);
            k["kv.gets_from_memtable"] +=
                static_cast<double>(ss.gets_from_memtable);
            k["kv.storage_reads"] += static_cast<double>(
                ss.gets - ss.gets_from_memtable - ss.gets_not_found +
                ss.get_retries);
            k["kv.put_stalls"] += static_cast<double>(ss.put_stalls);
            k["kv.get_retries"] += static_cast<double>(ss.get_retries);
            k["kv.compaction_bytes_read"] +=
                static_cast<double>(ss.compaction_bytes_read);
        }
        const blocklayer::BlockLayer &layer = *node.stack().storage.layer;
        k["blocklayer.patch_bytes_written"] += static_cast<double>(
            layer.stats().puts * layer.block_bytes());
        k["blocklayer.inline_erases"] +=
            static_cast<double>(layer.stats().inline_erases);
        k["blocklayer.background_erases"] +=
            static_cast<double>(layer.stats().background_erases);
        k["blocklayer.failed_ops"] +=
            static_cast<double>(layer.stats().failed_ops);
        const core::SdfStats &ds = node.sdf_device()->stats();
        k["sdf.programmed_bytes"] += static_cast<double>(ds.written_bytes);
        k["sdf.page_reads"] += static_cast<double>(ds.page_reads);
        k["sdf.read_retries"] += static_cast<double>(ds.read_retries);
    }
    k["user_bytes_acked"] +=
        static_cast<double>(c.svc->stats().put_bytes_acked);
    if (c.tracer != nullptr) {
        const auto ns = WallOf(*c.tracer);
        for (size_t i = 0; i < kLayers; ++i) {
            k[std::string("wall.") + LayerName(static_cast<Layer>(i))] = ns[i];
        }
    }
}

/** Add the counters' growth since @p before into @p k. */
void
AddDelta(ClusterRun &c, const Counters &before, Counters &k)
{
    Counters now;
    ReadCluster(c, now);
    for (const auto &[name, v] : now) {
        if (IsPeak(name)) {
            k[name] = std::max(k[name], v);
        } else {
            auto it = before.find(name);
            k[name] += v - (it == before.end() ? 0.0 : it->second);
        }
    }
}

/** Per-layer metrics from summed cluster counters. */
void
ClusterLayers(RepResult &r, Counters &k)
{
    const double ops = static_cast<double>(r.ops);
    Ratio(r, "client.coalesce_ratio", k["client.batched_gets"],
          k["client.batches"], "batched_gets", "batches");
    Ratio(r, "client.queued_ratio", k["client.queued"],
          k["client.gets"] + k["client.puts"], "queued", "client ops");
    Ratio(r, "client.hedge.launch_ratio", k["client.hedge.launched"],
          k["client.gets"], "hedges", "client gets");
    Ratio(r, "client.hedge.win_ratio", k["client.hedge.wins"],
          k["client.hedge.launched"], "hedge wins", "hedges");
    Ratio(r, "client.shed_ratio", k["client.shed"],
          k["client.gets"] + k["client.puts"], "client sheds", "client ops");
    const double pc = k["path.get.count"];
    for (const char *stage : {"client_queue", "rpc_wire", "admission",
                              "server_handle", "storage", "hedge_wait"}) {
        const std::string name =
            std::string("cluster.path.get.") + stage + "_us";
        r.layer[name] = pc > 0 ? k[std::string("path.get.") + stage] / pc /
                                     1e3
                               : 0.0;
        r.base[name] = Fmt("mean over %.0f traced gets", pc);
    }
    Ratio(r, "cluster.admission.shed_ratio", k["admission.shed"],
          k["admission.admitted"] + k["admission.shed"], "server sheds",
          "admission decisions");
    r.layer["cluster.admission.peak_inflight"] = k["admission.peak_inflight"];
    Ratio(r, "cluster.degraded_read_ratio", k["router.degraded_reads"],
          k["client.gets"], "degraded reads", "client gets");
    Ratio(r, "cluster.node_get_imbalance", k["router.node_gets.max"],
          k["router.node_gets.mean"], "max node gets", "mean node gets");
    r.layer["cluster.recovery.wal_records"] = k["recovery.wal_records"];
    r.layer["cluster.recovery.patches_scanned"] =
        k["recovery.patches_scanned"];
    r.layer["cluster.rebalance.keys_moved"] = k["rebalance.keys_moved"];
    r.layer["cluster.rebalance.bytes_moved"] = k["rebalance.bytes_moved"];
    r.layer["cluster.under_replicated_keys"] = k["under_replicated_keys"];
    Ratio(r, "net.messages_per_op", k["net.messages"], ops, "messages",
          "client ops");
    Ratio(r, "net.bytes_per_op", k["net.bytes"], ops, "bytes to clients "
          "+ bulk", "client ops");
    r.layer["net.rpc.timeouts"] = k["net.rpc.timeouts"];
    r.layer["net.rpc.retries"] = k["net.rpc.retries"];
    r.layer["net.rpc.deadline_drops"] = k["net.rpc.deadline_drops"];
    Ratio(r, "kv.memtable_hit_ratio", k["kv.gets_from_memtable"],
          k["kv.gets"], "memtable gets", "slice gets");
    Ratio(r, "kv.device_reads_per_get", k["kv.storage_reads"], k["kv.gets"],
          "storage reads", "slice gets");
    Ratio(r, "kv.write_amp", k["blocklayer.patch_bytes_written"],
          k["user_bytes_acked"], "patch bytes", "client bytes acked");
    Ratio(r, "kv.compaction_read_per_user_byte", k["kv.compaction_bytes_read"],
          k["user_bytes_acked"], "compaction bytes read",
          "client bytes acked");
    r.layer["kv.put_stalls"] = k["kv.put_stalls"];
    r.layer["kv.get_retries"] = k["kv.get_retries"];
    r.layer["blocklayer.inline_erases"] = k["blocklayer.inline_erases"];
    r.layer["blocklayer.background_erases"] =
        k["blocklayer.background_erases"];
    r.layer["blocklayer.failed_ops"] = k["blocklayer.failed_ops"];
    r.layer["blocklayer.channel_load_max"] = k["channel_load_max"];
    r.base["blocklayer.channel_load_max"] =
        "max queued+inflight ops on one channel, sampled every 64 ops";
    r.layer["sdf.programmed_bytes"] = k["sdf.programmed_bytes"];
    Ratio(r, "sdf.page_reads_per_op", k["sdf.page_reads"], ops, "page reads",
          "client ops");
    r.layer["sdf.read_retries"] = k["sdf.read_retries"];
    // Only the client and workload layers are framed on the wall clock
    // here; the rest of the stack runs from simulator events.
    std::array<double, kLayers> ns{};
    for (size_t i = 0; i < kLayers; ++i) {
        ns[i] = k[std::string("wall.") + LayerName(static_cast<Layer>(i))];
    }
    WallResults(r, ns);
}

/** SLO accounting shared by the YCSB workloads. */
double
SloMissRatio(const workload::YcsbResult &y)
{
    return y.issued > 0 ? static_cast<double>(y.slo_violations) /
                              static_cast<double>(y.issued)
                        : 0.0;
}

struct Rung
{
    double rate;
    double seconds;
};

/** Below, through and above the 150k-170k/s goodput trough at HEAD. */
constexpr Rung kLadder[] = {
    {40000, 2.0},  {100000, 1.0}, {140000, 1.0}, {150000, 1.0},
    {160000, 1.0}, {170000, 1.0}, {200000, 1.0}, {240000, 1.0},
};

}  // namespace

RepResult
RunYcsbBZipf(uint64_t seed, bool traced)
{
    RepResult r;
    Counters k;
    double max_rate = 0;
    bool failed_rung = false;
    r.report += "ladder: rate/s  offered/s  goodput/s  p99_ms  fail%  "
                "slo_miss%  verdict\n";
    for (const Rung &rung : kLadder) {
        ClusterRun c;
        if (!BuildCluster(c, traced, r)) return r;
        Counters before;
        ReadCluster(c, before);
        const workload::YcsbResult y =
            DriveYcsb(c, r, "b", rung.rate, rung.seconds, seed);
        const double fail =
            y.issued > 0 ? static_cast<double>(y.shed_overloaded +
                                               y.shed_deadline + y.errors) /
                               static_cast<double>(y.issued)
                         : 0.0;
        const bool pass = y.p99_ms <= kSloMs && fail <= 0.01;
        if (!pass) failed_rung = true;
        if (pass && !failed_rung) max_rate = rung.rate;
        const std::string tag = Fmt("rung_%.0fk.", rung.rate / 1000);
        r.sim[tag + "goodput_ops_per_s"] = y.goodput_ops_per_sec;
        r.sim[tag + "p99_ms"] = y.p99_ms;
        r.sim[tag + "fail_ratio"] = fail;
        r.report += Fmt("ladder: %6.0f  %9.0f  %9.0f", rung.rate,
                        y.offered_ops_per_sec, y.goodput_ops_per_sec) +
                    Fmt("  %6.3f  %5.2f  %9.2f  ", y.p99_ms, 100 * fail,
                        100 * SloMissRatio(y)) +
                    (pass ? "pass\n" : "FAIL\n");
        if (&rung == &kLadder[0]) {
            // The overloaded rungs add memory in proportion to how deep
            // each seed's backlog grows; the nominal rung's peak does not
            // wander with the seed.
            r.peak_rss_mb = PeakRssMb();
            // Latency and freshness come from the nominal rung.
            ServiceResults(r, *c.svc, rung.seconds, "nominal rung");
            r.sim["slo_miss_ratio"] = SloMissRatio(y);
            AuditInto(r, c.sim, *c.svc,
                      [&c](uint64_t key, kv::GetCallback done) {
                          c.cl->router().Get(key, std::move(done));
                      });
        }
        AddDelta(c, before, k);
    }
    r.sim["max_rate_at_slo"] = max_rate;
    r.report += Fmt("max_rate_at_slo: %.0f ops/s (highest rung below the "
                    "first failing one; SLO p99 <= %.0f ms, <= 1%% failed)\n",
                    max_rate, kSloMs);
    if (traced) ClusterLayers(r, k);
    return r;
}

RepResult
RunYcsbARestart(uint64_t seed, bool traced)
{
    constexpr double kRate = 40000;
    constexpr double kSeconds = 3.0;
    constexpr uint32_t kVictim = 1;
    RepResult r;
    ClusterRun c;
    if (!BuildCluster(c, traced, r)) return r;

    const util::TimeNs t = util::SecToNs(kSeconds);
    util::TimeNs restart_at = 0, rebalanced_at = 0;
    c.sim.Schedule(t / 3, [&c]() { c.cl->StopNode(kVictim); });
    c.sim.Schedule(2 * t / 3, [&]() {
        restart_at = c.sim.Now();
        c.cl->RestartNode(kVictim,
                          [&]() { rebalanced_at = c.sim.Now(); });
    });
    Counters before, k;
    ReadCluster(c, before);
    const workload::YcsbResult y = DriveYcsb(c, r, "a", kRate, kSeconds,
                                             seed);
    if (rebalanced_at == 0) {
        r.errors.push_back("the rebalance pass did not finish");
    }
    ServiceResults(r, *c.svc, kSeconds, "ycsb-a");
    r.sim["slo_miss_ratio"] = SloMissRatio(y);
    r.sim["recovery_ms"] =
        static_cast<double>(c.cl->node(kVictim).recovery().last_recovery_ns) /
        1e6;
    r.sim["rebalance_ms"] =
        static_cast<double>(rebalanced_at - restart_at) / 1e6;
    r.report += Fmt("restart: node %.0f stopped at %.2f s, restarted at "
                    "%.2f s; serving after %.3f ms, rebalanced after ",
                    kVictim, kSeconds / 3, 2 * kSeconds / 3,
                    r.sim["recovery_ms"]) +
                Fmt("%.3f ms; slo miss %.4f\n", r.sim["rebalance_ms"],
                    r.sim["slo_miss_ratio"]);
    AuditInto(r, c.sim, *c.svc, [&c](uint64_t key, kv::GetCallback done) {
        c.cl->router().Get(key, std::move(done));
    });
    r.peak_rss_mb = PeakRssMb();
    if (traced) {
        AddDelta(c, before, k);
        ClusterLayers(r, k);
    }
    return r;
}

// ---------------------------------------------------------------------------
// CCDB write + compaction on one node
// ---------------------------------------------------------------------------

namespace {

constexpr double kCcdbScale = 0.10;
constexpr uint32_t kCcdbSlices = 16;
constexpr uint32_t kPreloadValue = 4 * util::kKiB;
constexpr uint64_t kPreloadKeysPerSlice = 4096;  // 16 MiB per slice.
constexpr double kCcdbSeconds = 16.0;
constexpr int kCcdbSetups = 4;
constexpr double kCcdbReadRate = 4000;  // Uniform point reads per second.
constexpr uint32_t kWriteMin = 100 * util::kKiB;
constexpr uint32_t kWriteMax = util::kMiB;

/**
 * SdfDevice -> BlockLayer -> BlockPatchStorage -> kv::Store. Untraced it is
 * exactly testbed::BuildKvStack; traced, the same constructors run in the
 * same order with the two decorators spliced into the seams.
 */
struct CcdbStack
{
    sim::Simulator sim;
    std::unique_ptr<Tracer> tracer;
    testbed::KvStack plain;
    std::unique_ptr<core::SdfDevice> sdf;
    std::unique_ptr<TracedDevice> device;
    std::unique_ptr<blocklayer::BlockLayer> layer;
    std::unique_ptr<host::IoStack> io;
    std::unique_ptr<kv::BlockPatchStorage> patches;
    std::unique_ptr<TracedPatchStorage> traced_patches;
    std::unique_ptr<kv::Store> traced_store;

    explicit CcdbStack(bool traced)
    {
        testbed::KvStackConfig kc;
        kc.stack.capacity_scale = kCcdbScale;
        kc.store.slice_count = kCcdbSlices;
        if (!traced) {
            plain = testbed::BuildKvStack(sim, kc);
            return;
        }
        tracer = std::make_unique<Tracer>(sim);
        sdf = std::make_unique<core::SdfDevice>(
            sim, core::BaiduSdfConfig(kc.stack.capacity_scale));
        device = std::make_unique<TracedDevice>(*sdf, *tracer);
        layer = std::make_unique<blocklayer::BlockLayer>(sim, *device,
                                                         kc.stack.layer);
        io = std::make_unique<host::IoStack>(sim, host::SdfUserStackSpec());
        patches = std::make_unique<kv::BlockPatchStorage>(*layer, io.get());
        traced_patches =
            std::make_unique<TracedPatchStorage>(*patches, *layer, *tracer);
        traced_store =
            std::make_unique<kv::Store>(sim, *traced_patches, kc.store);
    }

    kv::Store &store() { return traced_store ? *traced_store : *plain.store; }
    const core::SdfDevice &sdf_device() const
    {
        return sdf ? *sdf : *plain.storage.sdf;
    }
    const blocklayer::BlockLayer &block_layer() const
    {
        return layer ? *layer : *plain.storage.layer;
    }
};

/** Install 4 KiB values 1..N as sorted full patches in their own slices. */
std::vector<uint64_t>
PreloadCcdb(kv::Store &store)
{
    const uint64_t per_patch = store.slice(0).patch_bytes() / kPreloadValue;
    std::vector<std::vector<kv::KvItem>> pending(store.slice_count());
    std::vector<uint64_t> keys;
    const uint64_t total = kPreloadKeysPerSlice * store.slice_count();
    for (uint64_t key = 1; key <= total; ++key) {
        const uint32_t s = store.SliceOf(key);
        pending[s].push_back(kv::KvItem{key, kPreloadValue, nullptr, false});
        keys.push_back(key);
        if (pending[s].size() == per_patch) {
            SDF_CHECK(store.slice(s).DebugPreloadPatch(std::move(pending[s])));
            pending[s].clear();
        }
    }
    for (uint32_t s = 0; s < store.slice_count(); ++s) {
        if (!pending[s].empty()) {
            SDF_CHECK(store.slice(s).DebugPreloadPatch(std::move(pending[s])));
        }
    }
    return keys;
}

/** A built, preloaded stack with its decorated front door. */
struct CcdbRun
{
    CcdbStack st;
    std::vector<uint64_t> keys;
    FreshService svc;

    explicit CcdbRun(bool traced)
        : st(traced), keys(PreloadCcdb(st.store())),
          svc(st.sim, workload::ServiceFor(st.store()), Layer::kKv,
              st.tracer.get())
    {
        for (uint64_t key : keys) svc.Preloaded(key);
    }
};

}  // namespace

RepResult
RunCcdbWriteCompaction(uint64_t seed, bool traced)
{
    RepResult r;
    // One build is ~10 ms against seconds of load: time several per
    // repetition so the run's setup_s median rests on enough samples.
    std::unique_ptr<CcdbRun> run;
    for (int i = 0; i < kCcdbSetups; ++i) {
        run.reset();
        Stopwatch setup;
        run = std::make_unique<CcdbRun>(traced);
        r.setup_s.push_back(setup.Seconds());
    }
    CcdbStack &st = run->st;
    kv::Store &store = st.store();
    const std::vector<uint64_t> &keys = run->keys;
    FreshService &svc = run->svc;
    uint64_t channel_load_max = 0;
    if (traced) {
        svc.set_sampler(64, [&]() {
            const auto &layer = st.block_layer();
            const uint32_t channels = st.sdf_device().channel_count();
            for (uint32_t ch = 0; ch < channels; ++ch) {
                channel_load_max =
                    std::max<uint64_t>(channel_load_max, layer.ChannelLoad(ch));
            }
        });
    }

    const util::TimeNs t0 = st.sim.Now();
    const util::TimeNs t_end = t0 + util::SecToNs(kCcdbSeconds);
    bool running = true;
    uint64_t issued = 0, completed = 0;

    // Closed-loop writers, one per slice: fresh keys that hash to the
    // writer's slice, values uniform in [100 KiB, 1 MiB] (Figure 14).
    struct Writer
    {
        uint32_t slice;
        uint64_t next_key;
        util::Rng rng;
    };
    std::vector<Writer> writers;
    for (uint32_t s = 0; s < kCcdbSlices; ++s) {
        writers.push_back(Writer{s, (uint64_t{s} + 1) << 40,
                                 util::Rng(seed * 0x9e3779b97f4a7c15ULL + s)});
    }
    std::function<void(Writer &)> write = [&](Writer &w) {
        if (!running) return;
        while (store.SliceOf(w.next_key) != w.slice) ++w.next_key;
        const uint64_t key = w.next_key++;
        const auto size =
            static_cast<uint32_t>(w.rng.NextInRange(kWriteMin, kWriteMax));
        ++issued;
        svc.Put(key, size, [&, wp = &w](kv::OpStatus) {
            ++completed;
            write(*wp);
        });
    };

    // Open-loop Poisson point reads, uniform over the preloaded keys.
    util::Rng read_rng(seed ^ 0x5eed0fccdbULL);
    std::function<void()> arrive = [&]() {
        if (st.sim.Now() >= t_end) return;
        const uint64_t key = keys[read_rng.NextBelow(keys.size())];
        ++issued;
        svc.Get(key, [&](const kv::GetResult &) { ++completed; });
        auto gap = static_cast<util::TimeNs>(
            read_rng.NextExponential(1e9 / kCcdbReadRate));
        st.sim.Schedule(std::max<util::TimeNs>(gap, 1), arrive);
    };

    const uint64_t ev0 = st.sim.events_processed();
    Stopwatch measured;
    for (Writer &w : writers) write(w);
    st.sim.Post([&arrive]() { arrive(); });
    // Write amplification per quarter shows whether it has levelled off.
    auto patch_bytes = [&]() {
        const auto &layer = st.block_layer();
        return static_cast<double>(layer.stats().puts * layer.block_bytes());
    };
    std::string wa_trend;
    double pb_prev = 0, user_prev = 0;
    for (int q = 1; q <= 4; ++q) {
        st.sim.RunUntil(t0 + (t_end - t0) * q / 4);
        const double pb = patch_bytes();
        const auto user = static_cast<double>(svc.stats().put_bytes_acked);
        wa_trend += Fmt(" %.3f", (pb - pb_prev) / (user - user_prev));
        pb_prev = pb;
        user_prev = user;
    }
    const uint64_t bytes_at_end = svc.stats().put_bytes_acked;
    running = false;
    st.sim.Run();
    r.measured_wall_s = measured.Seconds();
    r.events = st.sim.events_processed() - ev0;
    r.ops = completed;
    r.attempted = issued;
    r.failed = svc.stats().get_errors + svc.stats().put_errors;
    if (r.failed > 0) {
        r.errors.push_back(Fmt("%.0f untyped op errors",
                               static_cast<double>(r.failed)));
    }

    ServiceResults(r, svc, kCcdbSeconds, "ccdb");
    // Throughput counts only acks inside the measured window.
    r.sim["write_mbps"] =
        static_cast<double>(bytes_at_end) / 1e6 / kCcdbSeconds;
    r.sim["slo_miss_ratio"] = [&]() {
        // Every op completed, so the failed ones are already in the
        // latency samples; a failure counts as a miss however fast.
        uint64_t miss = svc.stats().get_errors + svc.stats().put_errors;
        for (const auto *lat : {&svc.stats().get_ns, &svc.stats().put_ns}) {
            for (TimeNs ns : *lat) miss += ns > util::MsToNs(kSloMs);
        }
        return static_cast<double>(miss) / static_cast<double>(issued);
    }();
    const kv::SliceStats ss = store.TotalStats();
    r.report += Fmt("ccdb: %.0f compactions, %.0f flushes, write %.1f MB/s; "
                    "write amp per quarter:",
                    static_cast<double>(ss.compactions),
                    static_cast<double>(ss.flushes), r.sim["write_mbps"]) +
                wa_trend + "\n";
    AuditInto(r, st.sim, svc, [&store](uint64_t key, kv::GetCallback done) {
        store.Get(key, std::move(done));
    });
    r.peak_rss_mb = PeakRssMb();

    if (traced) {
        const double ops = static_cast<double>(r.ops);
        const double user = static_cast<double>(svc.stats().put_bytes_acked);
        const auto &layer = st.block_layer();
        const core::SdfStats &ds = st.sdf_device().stats();
        Ratio(r, "kv.memtable_hit_ratio",
              static_cast<double>(ss.gets_from_memtable),
              static_cast<double>(ss.gets), "memtable gets", "slice gets");
        Ratio(r, "kv.device_reads_per_get",
              static_cast<double>(ss.gets - ss.gets_from_memtable -
                                  ss.gets_not_found + ss.get_retries),
              static_cast<double>(ss.gets), "storage reads", "slice gets");
        Ratio(r, "kv.write_amp",
              static_cast<double>(layer.stats().puts * layer.block_bytes()),
              user, "patch bytes", "client bytes acked");
        Ratio(r, "kv.compaction_read_per_user_byte",
              static_cast<double>(ss.compaction_bytes_read), user,
              "compaction bytes read", "client bytes acked");
        r.layer["kv.put_stalls"] = static_cast<double>(ss.put_stalls);
        r.layer["kv.get_retries"] = static_cast<double>(ss.get_retries);
        r.layer["blocklayer.inline_erases"] =
            static_cast<double>(layer.stats().inline_erases);
        r.layer["blocklayer.background_erases"] =
            static_cast<double>(layer.stats().background_erases);
        r.layer["blocklayer.failed_ops"] =
            static_cast<double>(layer.stats().failed_ops);
        r.layer["blocklayer.channel_load_max"] =
            static_cast<double>(channel_load_max);
        r.base["blocklayer.channel_load_max"] =
            "max queued+inflight ops on one channel, sampled every 64 ops";
        r.layer["sdf.programmed_bytes"] =
            static_cast<double>(ds.written_bytes);
        Ratio(r, "sdf.page_reads_per_op", static_cast<double>(ds.page_reads),
              ops, "page reads", "client ops");
        r.layer["sdf.read_retries"] = static_cast<double>(ds.read_retries);
        SpanResults(r, *st.tracer);
        WallResults(r, WallOf(*st.tracer));
    }
    return r;
}

}  // namespace sdfbench
