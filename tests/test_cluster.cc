/**
 * @file
 * Tests for the pluggable device interface and the sharded cluster:
 * consistent-hash ring properties, the SSD block-device adapter behind
 * the unified BlockLayer path, storage-node metric scoping, router
 * sharding/replication, and degraded-mode durability of acked writes.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "blocklayer/block_layer.h"
#include "cluster/cluster.h"
#include "cluster/hash_ring.h"
#include "fault/fault.h"
#include "net/network.h"
#include "obs/hub.h"
#include "sdf/block_device.h"
#include "sim/simulator.h"
#include "ssd/conventional_ssd.h"
#include "ssd/ssd_block_device.h"
#include "testbed/testbed.h"
#include "workload/ycsb.h"

namespace sdf {
namespace {

// ---------------------------------------------------------------------------
// Consistent-hash ring
// ---------------------------------------------------------------------------

TEST(HashRing, DeterministicAcrossInstances)
{
    cluster::HashRing a(5, 64), b(5, 64);
    for (uint64_t key = 0; key < 500; ++key) {
        EXPECT_EQ(a.ReplicasFor(key, 3), b.ReplicasFor(key, 3)) << key;
    }
}

TEST(HashRing, ReplicasAreDistinctAndInRange)
{
    cluster::HashRing ring(4, 64);
    for (uint64_t key = 0; key < 1000; ++key) {
        const auto reps = ring.ReplicasFor(key, 3);
        ASSERT_EQ(reps.size(), 3u);
        std::set<uint32_t> distinct(reps.begin(), reps.end());
        EXPECT_EQ(distinct.size(), 3u) << "duplicate replica for " << key;
        for (uint32_t n : reps) EXPECT_LT(n, 4u);
    }
}

TEST(HashRing, PrimariesReasonablyBalanced)
{
    const uint32_t nodes = 4;
    cluster::HashRing ring(nodes, 64);
    std::vector<uint64_t> counts(nodes, 0);
    const uint64_t keys = 8000;
    for (uint64_t key = 0; key < keys; ++key) ++counts[ring.PrimaryOf(key)];
    const double fair = static_cast<double>(keys) / nodes;
    for (uint32_t n = 0; n < nodes; ++n) {
        EXPECT_GT(counts[n], fair * 0.5) << "node " << n << " starved";
        EXPECT_LT(counts[n], fair * 1.7) << "node " << n << " overloaded";
    }
}

TEST(HashRing, AddingANodeMovesFewKeys)
{
    cluster::HashRing before(4, 64), after(5, 64);
    uint64_t moved = 0;
    const uint64_t keys = 4000;
    for (uint64_t key = 0; key < keys; ++key) {
        if (before.PrimaryOf(key) != after.PrimaryOf(key)) ++moved;
    }
    // The consistent-hashing property: ~1/(N+1) = 20 % expected; far
    // below the ~80 % a mod-N scheme would reshuffle.
    EXPECT_LT(static_cast<double>(moved) / keys, 0.4);
    EXPECT_GT(moved, 0u);
}

// ---------------------------------------------------------------------------
// The SSD block-device adapter
// ---------------------------------------------------------------------------

struct AdapterFixture
{
    sim::Simulator sim;
    std::unique_ptr<ssd::ConventionalSsd> drive;
    std::unique_ptr<ssd::SsdBlockDevice> dev;

    AdapterFixture()
    {
        ssd::ConventionalSsdConfig cfg = ssd::HuaweiGen3Config(0.02);
        cfg.flash.timing = nand::FastTestTiming();
        drive = std::make_unique<ssd::ConventionalSsd>(sim, cfg);
        dev = std::make_unique<ssd::SsdBlockDevice>(sim, *drive);
    }
};

TEST(SsdBlockDevice, CapsDescribeTheAdaptedDevice)
{
    AdapterFixture f;
    const core::DeviceCaps &caps = f.dev->caps();
    EXPECT_FALSE(caps.explicit_erase);  // Erase is synthesized via Trim.
    EXPECT_GT(caps.channels, 0u);
    EXPECT_GT(caps.units_per_channel, 0u);
    EXPECT_EQ(caps.unit_bytes, 8 * util::kMiB);
    EXPECT_EQ(caps.user_capacity, uint64_t{caps.channels} *
                                      caps.units_per_channel *
                                      caps.unit_bytes);
    EXPECT_LE(caps.user_capacity, f.drive->user_capacity());
    // The interface accessors read the same descriptor.
    EXPECT_EQ(f.dev->channel_count(), caps.channels);
    EXPECT_EQ(f.dev->unit_bytes(), caps.unit_bytes);
}

TEST(SsdBlockDevice, EnforcesEraseBeforeWriteContract)
{
    AdapterFixture f;
    core::IoStatus write_status;
    f.dev->WriteUnit(0, 0, [&](core::IoStatus s) { write_status = s; });
    f.sim.Run();
    EXPECT_FALSE(write_status.ok());
    EXPECT_EQ(write_status.error, core::IoError::kContractViolation);

    // Erase -> write -> read round-trips through the flat SSD space.
    bool erased = false, written = false, read_ok = false;
    f.dev->EraseUnit(0, 0, [&](core::IoStatus s) { erased = s.ok(); });
    f.sim.Run();
    ASSERT_TRUE(erased);
    EXPECT_EQ(f.dev->unit_state(0, 0), core::UnitState::kErased);
    f.dev->WriteUnit(0, 0, [&](core::IoStatus s) { written = s.ok(); });
    f.sim.Run();
    ASSERT_TRUE(written);
    EXPECT_EQ(f.dev->unit_state(0, 0), core::UnitState::kWritten);
    f.dev->Read(0, 0, 64 * util::kKiB, f.dev->read_unit_bytes(),
                [&](core::IoStatus s) { read_ok = s.ok(); });
    f.sim.Run();
    EXPECT_TRUE(read_ok);
    EXPECT_GT(f.dev->synthetic_erases(), 0u);
}

TEST(SsdBlockDevice, RejectsMisalignedReads)
{
    AdapterFixture f;
    core::IoStatus status;
    f.dev->Read(0, 0, 1234 /* misaligned */, f.dev->read_unit_bytes(),
                [&](core::IoStatus s) { status = s; });
    f.sim.Run();
    EXPECT_EQ(status.error, core::IoError::kContractViolation);
}

TEST(BlockLayer, RunsUnchangedOnTheAdapter)
{
    AdapterFixture f;
    blocklayer::BlockLayer layer(f.sim, *f.dev,
                                 blocklayer::BlockLayerConfig{});
    // The block layer only sees core::BlockDevice; puts/gets/deletes must
    // behave exactly as on SDF.
    std::set<uint64_t> stored;
    for (uint64_t id = 0; id < 12; ++id) {
        layer.Put(id, [&stored, id](bool ok) {
            if (ok) stored.insert(id);
        });
    }
    f.sim.Run();
    EXPECT_EQ(stored.size(), 12u);
    int reads_ok = 0;
    for (uint64_t id : stored) {
        layer.Get(id, 0, f.dev->read_unit_bytes(),
                  [&reads_ok](bool ok) { reads_ok += ok; });
    }
    f.sim.Run();
    EXPECT_EQ(reads_ok, 12);
    EXPECT_TRUE(layer.Delete(3));
    EXPECT_FALSE(layer.Exists(3));
}

// ---------------------------------------------------------------------------
// One code path over both backends
// ---------------------------------------------------------------------------

TEST(Testbed, SameKvWorkloadRunsOnEitherBackend)
{
    // The same closed-loop put/get sequence against the *same* stack
    // shape (device -> BlockLayer -> BlockPatchStorage -> Store), only
    // the backend differs.
    for (const bool on_ssd : {false, true}) {
        sim::Simulator sim;
        testbed::KvStackConfig kc;
        kc.stack.backend = on_ssd ? testbed::Backend::kHuaweiGen3
                                  : testbed::Backend::kBaiduSdf;
        kc.stack.ssd_through_block_layer = true;
        kc.stack.capacity_scale = 0.02;
        kc.stack.with_io_stack = false;
        kc.store.slice_count = 2;
        testbed::KvStack stack = testbed::BuildKvStack(sim, kc);
        ASSERT_NE(stack.storage.device(), nullptr);
        EXPECT_EQ(stack.storage.device()->caps().explicit_erase, !on_ssd);

        const workload::KvService svc = workload::ServiceFor(*stack.store);
        int acked = 0, found = 0;
        for (uint64_t key = 1; key <= 40; ++key) {
            svc.put(key, 32 * util::kKiB, [&](bool ok) { acked += ok; });
        }
        sim.Run();
        for (uint32_t s = 0; s < stack.store->slice_count(); ++s) {
            stack.store->slice(s).Flush();
        }
        sim.Run();
        for (uint64_t key = 1; key <= 40; ++key) {
            svc.get(key, [&](const kv::GetResult &r) {
                found += r.ok && r.found;
            });
        }
        sim.Run();
        EXPECT_EQ(acked, 40) << (on_ssd ? "ssd" : "sdf");
        EXPECT_EQ(found, 40) << (on_ssd ? "ssd" : "sdf");
    }
}

// ---------------------------------------------------------------------------
// Cluster
// ---------------------------------------------------------------------------

cluster::ClusterConfig
SmallCluster(uint32_t nodes, uint32_t replication)
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

/** Four closed-loop clients: uniform reads, fresh-key 16 KiB inserts. */
workload::YcsbConfig
ClosedLoop(double read_fraction, util::TimeNs duration, uint64_t seed)
{
    workload::YcsbConfig cfg;
    cfg.actors = 4;
    cfg.duration = duration;
    cfg.seed = seed;
    cfg.value_bytes = 16 * util::kKiB;
    cfg.phases = {workload::UniformMix(read_fraction)};
    return cfg;
}

TEST(Cluster, PutGetSpreadsAcrossNodes)
{
    sim::Simulator sim;
    cluster::Cluster cl(sim, SmallCluster(3, 2));
    int acked = 0;
    const uint64_t keys = 60;
    for (uint64_t key = 1; key <= keys; ++key) {
        cl.router().Put(key, 16 * util::kKiB, [&](bool ok) { acked += ok; });
    }
    sim.Run();
    EXPECT_EQ(acked, static_cast<int>(keys));
    int found = 0;
    for (uint64_t key = 1; key <= keys; ++key) {
        cl.router().Get(key, [&](const kv::GetResult &r) {
            found += r.ok && r.found;
        });
    }
    sim.Run();
    EXPECT_EQ(found, static_cast<int>(keys));
    // Sharding actually used every node, over the real RPC path.
    for (uint32_t n = 0; n < cl.node_count(); ++n) {
        EXPECT_GT(cl.router().node_puts(n), 0u) << "node " << n;
        EXPECT_GT(cl.node(n).net().messages(), 0u) << "node " << n;
    }
    EXPECT_EQ(cl.router().stats().put_failures, 0u);
}

TEST(Cluster, MissesAreAuthoritativeOnlyWhenAllReplicasAgree)
{
    sim::Simulator sim;
    cluster::Cluster cl(sim, SmallCluster(3, 2));
    kv::GetResult res;
    cl.router().Get(0xdeadbeef, [&](const kv::GetResult &r) { res = r; });
    sim.Run();
    EXPECT_TRUE(res.ok);
    EXPECT_FALSE(res.found);
    EXPECT_EQ(cl.router().stats().failed_reads, 0u);
}

TEST(Cluster, NodeMetricsAreScopedPerNode)
{
    obs::Hub hub;
    sim::Simulator sim;
    sim.set_hub(&hub);
    cluster::Cluster cl(sim, SmallCluster(2, 2));
    const auto snap = hub.metrics().Take();
    bool node0 = false, node1 = false, clusterwide = false;
    for (const auto &[name, value] : snap.counters) {
        node0 |= name.rfind("node0.", 0) == 0;
        node1 |= name.rfind("node1.", 0) == 0;
        clusterwide |= name.rfind("cluster.", 0) == 0;
    }
    EXPECT_TRUE(node0);
    EXPECT_TRUE(node1);
    EXPECT_TRUE(clusterwide);
    // Nothing from one node leaked into the other's namespace: both
    // nodes registered the same component set.
    size_t n0 = 0, n1 = 0;
    for (const auto &[name, value] : snap.counters) {
        n0 += name.rfind("node0.", 0) == 0;
        n1 += name.rfind("node1.", 0) == 0;
    }
    EXPECT_EQ(n0, n1);
}

TEST(Cluster, SameSeedRunsExportByteIdenticalStats)
{
    auto run_once = []() {
        obs::Hub hub;
        sim::Simulator sim;
        sim.set_hub(&hub);
        cluster::Cluster cl(sim, SmallCluster(3, 2));
        const auto keys = cl.Preload(30, 16 * util::kKiB);
        EXPECT_EQ(keys.size(), 30u);
        workload::RunYcsb(sim, cl.Service(), keys,
                          ClosedLoop(0.9, util::MsToNs(120), 99));
        return obs::StatsJson(hub, {{"run", "cluster"}}, {});
    };
    const std::string a = run_once();
    const std::string b = run_once();
    EXPECT_GT(a.size(), 100u);
    EXPECT_EQ(a, b);
}

TEST(Cluster, NodeDeathLosesNoAcknowledgedWrites)
{
    sim::Simulator sim;
    cluster::Cluster cl(sim, SmallCluster(3, 2));
    const auto keys = cl.Preload(30, 16 * util::kKiB);
    ASSERT_EQ(keys.size(), 30u);

    // Kill every channel of node 0's device shortly into the window.
    std::vector<fault::FaultEvent> events;
    for (uint32_t ch = 0; ch < cl.node(0).sdf_device()->channel_count();
         ++ch) {
        fault::FaultEvent e;
        e.when = sim.Now() + util::MsToNs(40);
        e.kind = fault::FaultKind::kChannelDeath;
        e.device = 0;
        e.channel = ch;
        events.push_back(e);
    }
    fault::FaultInjector injector(sim, cl.SdfDevices(),
                                  fault::FaultPlan(std::move(events)));

    const auto r = workload::RunYcsb(sim, cl.Service(), keys,
                                     ClosedLoop(0.5, util::MsToNs(150), 7));
    ASSERT_EQ(injector.stats().deaths,
              cl.node(0).sdf_device()->channel_count());
    ASSERT_GT(r.acked_writes.size(), 0u);

    // Every acknowledged write must still be readable.
    const cluster::Cluster::Audit audit = cl.AuditKeys(r.acked_writes);
    EXPECT_EQ(audit.audited, r.acked_writes.size());
    EXPECT_EQ(audit.lost, 0u);
}

// ---------------------------------------------------------------------------
// Typed RPC transport (net::Network::RpcTyped)
// ---------------------------------------------------------------------------

net::NetworkSpec
FastRpcSpec()
{
    net::NetworkSpec spec;
    spec.rpc_timeout = util::MsToNs(2);
    spec.rpc_max_retries = 2;
    spec.rpc_backoff_base = util::UsToNs(100);
    return spec;
}

TEST(RpcTyped, RetryExhaustionIsTypedDeadlineExceeded)
{
    sim::Simulator sim;
    net::Network net(sim, FastRpcSpec(), 1);
    // A server that swallows requests: every attempt must time out, and
    // after the retry budget the caller gets a typed disposition, not a
    // hang or a bare bool.
    int handled = 0;
    bool settled = false;
    net::RpcCode code = net::RpcCode::kOk;
    net.RpcTyped(
        0, 512, 0,
        [&](util::TimeNs, net::Network::TypedReply) { ++handled; },
        [&](net::RpcCode c) {
            settled = true;
            code = c;
        });
    sim.Run();
    EXPECT_TRUE(settled);
    EXPECT_EQ(code, net::RpcCode::kDeadlineExceeded);
    // First attempt + rpc_max_retries re-issues, every one abandoned.
    EXPECT_EQ(handled, 3);
    EXPECT_EQ(net.rpc_stats().timeouts, 3u);
    EXPECT_EQ(net.rpc_stats().retries, 2u);
    EXPECT_EQ(net.rpc_stats().failures, 1u);
}

TEST(RpcTyped, OverloadedReplySettlesWithoutRetry)
{
    sim::Simulator sim;
    net::Network net(sim, FastRpcSpec(), 1);
    // An admission nack is an answer, not a failure: retrying would hammer
    // the very queue the server just shed from.
    net::RpcCode code = net::RpcCode::kOk;
    net.RpcTyped(
        0, 512, 0,
        [&](util::TimeNs, net::Network::TypedReply reply) {
            reply(64, net::RpcCode::kOverloaded);
        },
        [&](net::RpcCode c) { code = c; });
    sim.Run();
    EXPECT_EQ(code, net::RpcCode::kOverloaded);
    EXPECT_EQ(net.rpc_stats().overload_replies, 1u);
    EXPECT_EQ(net.rpc_stats().retries, 0u);
    EXPECT_EQ(net.rpc_stats().timeouts, 0u);
}

TEST(RpcTyped, ExpiredDeadlineIsDroppedBeforeTheHandler)
{
    sim::Simulator sim;
    net::Network net(sim, FastRpcSpec(), 1);
    // Deadline shorter than the one-way propagation delay: the request
    // expires in flight, so the transport drops it server-side without
    // running the handler — the work would be wasted anyway.
    int handled = 0;
    net::RpcCode code = net::RpcCode::kOk;
    net.RpcTyped(
        0, 512, sim.Now() + util::UsToNs(10),
        [&](util::TimeNs, net::Network::TypedReply reply) {
            ++handled;
            reply(64, net::RpcCode::kOk);
        },
        [&](net::RpcCode c) { code = c; });
    sim.Run();
    EXPECT_EQ(handled, 0);
    EXPECT_EQ(code, net::RpcCode::kDeadlineExceeded);
    EXPECT_EQ(net.rpc_stats().deadline_drops, 1u);
    // No retry can beat a deadline that already passed.
    EXPECT_EQ(net.rpc_stats().retries, 0u);
}

// ---------------------------------------------------------------------------
// Admission control and the fail-slow breaker
// ---------------------------------------------------------------------------

TEST(Cluster, AdmissionCapShedsWithTypedOverload)
{
    sim::Simulator sim;
    cluster::ClusterConfig cc = SmallCluster(2, 2);
    cc.node.admission_cap = 2;
    cluster::Cluster cl(sim, cc);

    // Preload serially — one outstanding op never trips a cap of 2.
    const uint64_t keys = 12;
    uint64_t loaded = 0;
    std::function<void(uint64_t)> load = [&](uint64_t k) {
        if (k > keys) return;
        cl.router().Put(k, 16 * util::kKiB, [&, k](bool ok) {
            loaded += ok;
            load(k + 1);
        });
    };
    load(1);
    sim.Run();
    ASSERT_EQ(loaded, keys);
    // Push the values to flash: a memtable read settles in zero simulated
    // time, so only device-backed reads can stack up past the cap.
    cl.FlushAll();
    sim.Run();

    // Flood one node far past its cap with direct reads (no failover, so
    // the shed is visible instead of healed by another replica).
    uint64_t served = 0, shed = 0, other = 0;
    for (int i = 0; i < 80; ++i) {
        cl.router().GetAt(0, 1 + (i % keys), {},
                          [&](const kv::GetResult &r) {
                              if (r.ok) {
                                  ++served;
                              } else if (r.status ==
                                         kv::OpStatus::kOverloaded) {
                                  ++shed;
                              } else {
                                  ++other;
                              }
                          });
    }
    sim.Run();
    // Every request got an answer: served or a typed refusal, no hangs.
    EXPECT_EQ(served + shed + other, 80u);
    EXPECT_EQ(other, 0u);
    EXPECT_GT(served, 0u);
    EXPECT_GT(shed, 0u);
    EXPECT_EQ(cl.node(0).admission().shed_overload, shed);
    EXPECT_GT(cl.node(0).admission().admitted, 0u);
    EXPECT_LE(cl.node(0).admission().peak_inflight, 2u);
}

TEST(Cluster, BreakerDemotesFailSlowNodeAndRecovers)
{
    sim::Simulator sim;
    cluster::ClusterConfig cc = SmallCluster(3, 2);
    cc.breaker.enabled = true;
    cc.breaker.min_samples = 16;
    cc.breaker.alpha = 0.3;
    // The router samples the whole RPC round trip, and the (unscaled)
    // wire delay dilutes the storage slowdown at this light closed-loop
    // load; 2x observed is already a badly degraded node.
    cc.breaker.trip_factor = 2.0;
    cc.breaker.reset_factor = 1.3;
    cluster::Cluster cl(sim, cc);

    const auto keys = cl.Preload(60, 16 * util::kKiB);
    ASSERT_EQ(keys.size(), 60u);

    // Slow down whichever node is primary for the first key: that key's
    // reads walk the victim first unless the breaker demotes it.
    const uint64_t victim_key = keys.front();
    const uint32_t victim = cl.router().ReplicaNodes(victim_key).front();

    cl.node(victim).SetFailSlow(12.0);
    // Mixed closed-loop traffic: reads show the demotion working, writes
    // keep sampling the demoted node (they still replicate to it) so the
    // breaker can notice when it heals — demoted reads never would.
    auto drive = [&](int ops) {
        int next = 0;
        std::function<void()> step = [&]() {
            if (next >= ops) return;
            const uint64_t key = keys[next % keys.size()];
            if (next++ % 4 == 0) {
                cl.router().Put(key, 16 * util::kKiB,
                                [&](bool) { step(); });
            } else {
                cl.router().Get(key, [&](const kv::GetResult &) { step(); });
            }
        };
        for (int s = 0; s < 4; ++s) step();
        sim.Run();
    };
    drive(300);

    EXPECT_GE(cl.router().breaker().stats().trips, 1u);
    EXPECT_TRUE(cl.router().breaker().IsOpen(victim));
    // Demotion reorders reads away from the slow node but keeps it as a
    // last resort — its data stays reachable.
    const auto order = cl.router().ReadOrder(victim_key);
    ASSERT_GE(order.size(), 2u);
    EXPECT_NE(order.front(), victim);
    EXPECT_EQ(order.back(), victim);
    EXPECT_GT(cl.router().breaker().stats().reroutes, 0u);

    // Health returns -> hysteresis closes the breaker again.
    cl.node(victim).SetFailSlow(1.0);
    drive(300);
    EXPECT_GE(cl.router().breaker().stats().resets, 1u);
    EXPECT_FALSE(cl.router().breaker().IsOpen(victim));
    EXPECT_EQ(cl.router().ReadOrder(victim_key).front(), victim);
}

}  // namespace
}  // namespace sdf
