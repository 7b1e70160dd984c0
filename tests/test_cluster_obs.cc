/**
 * @file
 * Tests for cluster-wide observability (DESIGN.md §13): trace-context
 * propagation from the client front door through the RPC transport to the
 * storage nodes, hedge duplicates linked to their parent by trace id
 * across tracks, the cluster critical-path tiling invariant
 * (sum of client.path.* stage segments == end-to-end latency, exactly),
 * windowed time-series metrics, and byte-identical same-seed exports of
 * all three documents (stats, trace, series).
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "client/kv_client.h"
#include "cluster/cluster.h"
#include "obs/hub.h"
#include "obs/series.h"
#include "sim/simulator.h"
#include "testbed/testbed.h"
#include "util/units.h"

namespace sdf {
namespace {

cluster::ClusterConfig
TinyCluster(uint32_t nodes, uint32_t replication)
{
    cluster::ClusterConfig cc;
    cc.nodes = nodes;
    cc.replication = replication;
    cc.node.kv.stack.capacity_scale = 0.02;
    cc.node.kv.stack.with_io_stack = false;
    cc.node.kv.store.slice_count = 2;
    cc.node.kv.stack.tune_sdf = [](core::SdfConfig &dc) {
        dc.flash.timing = nand::FastTestTiming();
    };
    return cc;
}

/** Closed-loop read driver at width 4 (the test_client.cc idiom). */
void
DriveReads(sim::Simulator &sim, client::KvClient &client,
           const std::vector<uint64_t> &keys, int reads, uint64_t &served)
{
    int next = 0;
    std::function<void()> step = [&]() {
        if (next >= reads) return;
        client.Get(keys[next++ % keys.size()],
                   [&](const kv::GetResult &r) {
                       served += r.ok && r.found;
                       step();
                   });
    };
    for (int s = 0; s < 4; ++s) step();
    sim.Run();
}

// ---------------------------------------------------------------------------
// Trace-context propagation + hedge linkage
// ---------------------------------------------------------------------------

TEST(ClusterObs, HedgedReadEventsShareOneTraceIdAcrossTracks)
{
    obs::Hub hub;
    hub.EnableTrace();
    sim::Simulator sim;
    sim.set_hub(&hub);
    cluster::Cluster cl(sim, TinyCluster(2, 2));
    const auto keys = cl.Preload(40, 16 * util::kKiB);
    ASSERT_EQ(keys.size(), 40u);

    client::KvClientConfig kc;
    kc.window_per_node = 4;
    kc.batch_max = 1;
    kc.hedge_reads = true;
    client::KvClient client(sim, cl.router(), kc);

    // Warm the breaker's EWMAs while healthy, then degrade one node so
    // reads through it outlive 3x its peer's service time and hedge.
    uint64_t served = 0;
    DriveReads(sim, client, keys, 64, served);
    cl.node(0).SetFailSlow(20.0);
    DriveReads(sim, client, keys, 200, served);
    EXPECT_EQ(served, 264u);
    EXPECT_GT(client.hedge_stats().wins, 0u);

    const obs::TraceSink &sink = *hub.trace();
    const auto thread_of = [&](const obs::TraceSink::Event &e) {
        return sink.track_info(e.track).thread;
    };

    // Find a hedged request that reached two servers, and check its whole
    // family: parent "get" + "hedge" on the client track, and "server.get"
    // handler events on two *different* node tracks — all carrying the
    // same trace id.
    bool found_linked_family = false;
    std::set<uint64_t> hedge_ids;
    for (const auto &e : sink.event_list()) {
        if (std::string(e.name) == "hedge") hedge_ids.insert(e.trace_id);
    }
    EXPECT_FALSE(hedge_ids.empty());
    for (const uint64_t id : hedge_ids) {
        ASSERT_NE(id, 0u);
        int client_get = 0, client_hedge = 0;
        std::set<std::string> server_tracks;
        for (const auto &e : sink.event_list()) {
            if (e.trace_id != id) continue;
            const std::string name = e.name;
            if (name == "get") {
                ++client_get;
                EXPECT_EQ(thread_of(e), "client");
            } else if (name == "hedge") {
                ++client_hedge;
                EXPECT_EQ(thread_of(e), "client");
            } else if (name == "server.get") {
                server_tracks.insert(thread_of(e));
            }
        }
        // Every hedged read has exactly one parent and one duplicate.
        EXPECT_EQ(client_get, 1);
        EXPECT_EQ(client_hedge, 1);
        if (server_tracks.size() >= 2) found_linked_family = true;
    }
    // At least one hedge raced the duplicate on a second node: its family
    // spans the client track and two node tracks under one trace id.
    EXPECT_TRUE(found_linked_family);
}

// ---------------------------------------------------------------------------
// Cluster critical-path tiling
// ---------------------------------------------------------------------------

TEST(ClusterObs, ClientPathStagesTileEndToEndExactly)
{
    obs::Hub hub;  // No trace: path attribution must not require tracing.
    sim::Simulator sim;
    sim.set_hub(&hub);
    cluster::Cluster cl(sim, TinyCluster(2, 2));
    const auto keys = cl.Preload(40, 16 * util::kKiB);
    ASSERT_EQ(keys.size(), 40u);

    client::KvClientConfig kc;
    kc.window_per_node = 2;  // Force queueing: client_queue must be > 0.
    kc.batch_max = 4;        // And coalesced batches.
    client::KvClient client(sim, cl.router(), kc);

    uint64_t served = 0;
    DriveReads(sim, client, keys, 120, served);
    uint64_t put_acks = 0;
    for (uint64_t k : keys) {
        client.Put(k, 16 * util::kKiB, [&](kv::OpStatus s) {
            put_acks += s == kv::OpStatus::kOk;
        });
    }
    sim.Run();
    EXPECT_EQ(served, 120u);
    EXPECT_EQ(put_acks, keys.size());

    const auto &ops = hub.stages().ops();
    ASSERT_TRUE(ops.count("client.path.get"));
    ASSERT_TRUE(ops.count("client.path.put"));
    for (const auto &[op, st] : ops) {
        ASSERT_GT(st.count, 0u) << op;
        uint64_t stage_sum = 0;
        for (size_t s = 0; s < obs::kStageCount; ++s) {
            stage_sum += st.stage_sum_ns[s];
        }
        // The tiling invariant is exact by construction — integer
        // equality, not a tolerance — and it survives aggregation.
        EXPECT_EQ(stage_sum, st.total_sum_ns) << op;
    }
    const auto &get = ops.at("client.path.get");
    // The RPC hop always costs wire time, and a window of 2 under a
    // 4-wide closed loop must have produced client-queue waiting.
    EXPECT_GT(get.stage_sum_ns[static_cast<size_t>(obs::Stage::kRpcWire)],
              0u);
    EXPECT_GT(
        get.stage_sum_ns[static_cast<size_t>(obs::Stage::kClientQueue)],
        0u);
    // Server-side segments only exist because the context propagated.
    EXPECT_GT(get.stage_sum_ns[static_cast<size_t>(obs::Stage::kStorage)],
              0u);
}

// ---------------------------------------------------------------------------
// Windowed series + same-seed byte identity of every export
// ---------------------------------------------------------------------------

struct ClusterRunDocs
{
    std::string stats;
    std::string trace;
    std::string series;
    size_t windows = 0;
};

ClusterRunDocs
RunInstrumentedCluster(uint64_t seed)
{
    obs::Hub hub;
    hub.EnableTrace();
    obs::SeriesRecorder series;
    sim::Simulator sim;
    sim.set_hub(&hub);
    cluster::Cluster cl(sim, TinyCluster(2, 2));
    const auto keys = cl.Preload(40, 16 * util::kKiB);
    EXPECT_EQ(keys.size(), 40u);

    client::KvClientConfig kc;
    kc.window_per_node = 4;
    kc.hedge_reads = true;
    client::KvClient client(sim, cl.router(), kc);

    series.Start(sim, hub.metrics(), "load", util::MsToNs(1.0),
                 util::MsToNs(30.0));
    uint64_t served = 0;
    DriveReads(sim, client, keys, 64 + seed % 3, served);
    cl.node(0).SetFailSlow(8.0);
    DriveReads(sim, client, keys, 150, served);

    ClusterRunDocs docs;
    docs.stats = obs::StatsJson(hub, {{"seed", std::to_string(seed)}}, {});
    docs.trace = hub.trace()->ToJson();
    docs.series = series.ToJson();
    docs.windows = series.window_count();
    return docs;
}

TEST(ClusterObs, SameSeedRunsExportByteIdenticalDocuments)
{
    const ClusterRunDocs a = RunInstrumentedCluster(11);
    const ClusterRunDocs b = RunInstrumentedCluster(11);
    const ClusterRunDocs c = RunInstrumentedCluster(12);
    EXPECT_EQ(a.stats, b.stats);
    EXPECT_EQ(a.trace, b.trace);
    EXPECT_EQ(a.series, b.series);
    EXPECT_GT(a.windows, 0u);
    // And the seed actually matters (the documents are not constants).
    EXPECT_NE(a.stats, c.stats);
}

TEST(ClusterObs, SeriesWindowsAreContiguousAndLocalizeTheFault)
{
    obs::Hub hub;
    obs::SeriesRecorder series;
    sim::Simulator sim;
    sim.set_hub(&hub);
    cluster::Cluster cl(sim, TinyCluster(2, 2));
    const auto keys = cl.Preload(40, 16 * util::kKiB);
    ASSERT_EQ(keys.size(), 40u);

    client::KvClientConfig kc;
    kc.window_per_node = 4;
    kc.hedge_reads = false;
    client::KvClient client(sim, cl.router(), kc);

    series.Start(sim, hub.metrics(), "load", util::MsToNs(1.0),
                 util::MsToNs(50.0));
    uint64_t served = 0;
    DriveReads(sim, client, keys, 200, served);

    ASSERT_EQ(series.segments().size(), 1u);
    const auto &seg = series.segments().front();
    ASSERT_GT(seg.windows.size(), 1u);
    uint64_t gets_in_windows = 0;
    for (size_t i = 0; i < seg.windows.size(); ++i) {
        const auto &w = seg.windows[i];
        EXPECT_LT(w.start_ns, w.end_ns);
        if (i > 0) {
            EXPECT_EQ(w.start_ns, seg.windows[i - 1].end_ns);
        }
        auto it = w.counters.find("client.gets");
        if (it != w.counters.end()) gets_in_windows += it->second;
    }
    // Counter deltas across windows reassemble the cumulative total that
    // was issued inside the series horizon.
    EXPECT_GT(gets_in_windows, 0u);
    EXPECT_LE(gets_in_windows, client.stats().gets);
    // Windowed histograms carry per-window latency percentiles.
    bool saw_latency_window = false;
    for (const auto &w : seg.windows) {
        auto h = w.histograms.find("client.read_latency_ns");
        if (h != w.histograms.end() && h->second.count > 0 &&
            h->second.p99 > 0) {
            saw_latency_window = true;
        }
    }
    EXPECT_TRUE(saw_latency_window);
}

}  // namespace
}  // namespace sdf
