/**
 * @file
 * Tests for the testbed's backends and the sharded cluster:
 * consistent-hash ring properties, one KV workload on either backend,
 * storage-node metric scoping, router sharding/replication, and
 * degraded-mode durability of acked writes.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "client/kv_client.h"
#include "cluster/cluster.h"
#include "cluster/hash_ring.h"
#include "cluster/rebalancer.h"
#include "fault/fault.h"
#include "net/network.h"
#include "obs/hub.h"
#include "sdf/sdf_device.h"
#include "sim/simulator.h"
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
// One KV store over both backends
// ---------------------------------------------------------------------------

TEST(Testbed, SameKvWorkloadRunsOnEitherBackend)
{
    // The same closed-loop put/get sequence against the same Store; only
    // the patch storage under it differs (the block layer on SDF, the
    // extent allocator on a conventional SSD).
    for (const bool on_ssd : {false, true}) {
        sim::Simulator sim;
        testbed::KvStackConfig kc;
        kc.stack.backend = on_ssd ? testbed::Backend::kHuaweiGen3
                                  : testbed::Backend::kBaiduSdf;
        kc.stack.capacity_scale = 0.02;
        kc.stack.with_io_stack = false;
        kc.store.slice_count = 2;
        testbed::KvStack stack = testbed::BuildKvStack(sim, kc);

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

TEST(Cluster, NodesDrawDistinctFlashSeeds)
{
    sim::Simulator sim;
    cluster::Cluster cl(sim, SmallCluster(3, 3));
    // One NodeConfig builds every node, yet each device must draw its own
    // bit-error and CRC-window streams: replicas fail independently.
    std::set<uint64_t> seeds;
    for (core::SdfDevice *dev : cl.SdfDevices()) {
        seeds.insert(dev->config().flash.seed);
    }
    EXPECT_EQ(seeds.size(), 3u);
}

// Degraded-mode operation on a 3-node, R=3 cluster: every node holds every
// key, so one key survives as long as any node's device can serve it.

TEST(Cluster, DeadPrimaryFailsOverAndReadRepairs)
{
    sim::Simulator sim;
    cluster::Cluster cl(sim, SmallCluster(3, 3));
    // Preload flushes, so reads touch real media.
    const auto keys = cl.Preload(1, 4 * util::kKiB);
    ASSERT_EQ(keys.size(), 1u);
    const uint64_t key = keys.front();

    core::SdfDevice &primary =
        *cl.node(cl.router().ReplicaNodes(key).front()).sdf_device();
    for (uint32_t c = 0; c < primary.channel_count(); ++c) {
        primary.flash().channel(c).InjectDeath();
    }
    kv::GetResult res;
    cl.router().Get(key, [&](const kv::GetResult &r) { res = r; });
    sim.Run();
    EXPECT_TRUE(res.ok);
    EXPECT_TRUE(res.found);
    EXPECT_EQ(cl.router().stats().degraded_reads, 1u);
    EXPECT_GE(cl.router().stats().re_replications, 1u);
    EXPECT_EQ(cl.router().recovery_latencies().count(), 1u);

    // The repair re-put the value into the primary (its memtable still
    // accepts writes): a re-read of the repaired key is no longer
    // degraded.
    res = kv::GetResult{};
    cl.router().Get(key, [&](const kv::GetResult &r) { res = r; });
    sim.Run();
    EXPECT_TRUE(res.found);
    EXPECT_EQ(cl.router().stats().degraded_reads, 1u);
}

TEST(Cluster, AllReplicasDeadFailsCleanly)
{
    sim::Simulator sim;
    cluster::Cluster cl(sim, SmallCluster(3, 3));
    const auto keys = cl.Preload(1, 4 * util::kKiB);
    ASSERT_EQ(keys.size(), 1u);
    for (core::SdfDevice *dev : cl.SdfDevices()) {
        for (uint32_t c = 0; c < dev->channel_count(); ++c) {
            dev->flash().channel(c).InjectDeath();
        }
    }
    // Every replica's storage errors out: the read must fail cleanly —
    // and promptly, on fast nacks rather than RPC timeouts — not hang.
    const util::TimeNs t0 = sim.Now();
    bool completed = false;
    util::TimeNs latency = 0;
    cl.router().Get(keys.front(), [&](const kv::GetResult &r) {
        completed = true;
        latency = sim.Now() - t0;
        EXPECT_FALSE(r.ok);
        EXPECT_FALSE(r.found);
    });
    sim.Run();
    EXPECT_TRUE(completed);
    EXPECT_LT(latency, util::MsToNs(50));  // The RPC timeout.
    EXPECT_EQ(cl.router().stats().failed_reads, 1u);
}

TEST(Cluster, PutSurvivesOneDeadReplica)
{
    sim::Simulator sim;
    cluster::Cluster cl(sim, SmallCluster(3, 3));
    core::SdfDevice &dead = *cl.node(1).sdf_device();
    for (uint32_t c = 0; c < dead.channel_count(); ++c) {
        dead.flash().channel(c).InjectDeath();
    }
    bool put_ok = false;
    cl.router().Put(9, 4 * util::kKiB, [&](bool ok) { put_ok = ok; });
    sim.Run();
    // Memtable writes ack even on the dead replica (its flush will fail
    // later); the put must report overall success either way.
    EXPECT_TRUE(put_ok);
    bool found = false;
    cl.router().Get(9, [&](const kv::GetResult &r) { found = r.found; });
    sim.Run();
    EXPECT_TRUE(found);
}

// ---------------------------------------------------------------------------
// Typed RPC transport (net::Network::RpcTyped)
// ---------------------------------------------------------------------------

TEST(RpcTyped, RetryExhaustionIsTypedDeadlineExceeded)
{
    sim::Simulator sim;
    net::Network net(sim, 1);
    // A server that swallows requests: every attempt must time out, and
    // after the retry budget the caller gets a typed disposition, not a
    // hang or a bare bool.
    int handled = 0;
    bool settled = false;
    util::TimeNs settled_at = 0;
    net::RpcCode code = net::RpcCode::kOk;
    net.RpcTyped(
        0, 512, 0,
        [&](util::TimeNs, net::Network::TypedReply) { ++handled; },
        [&](net::RpcCode c) {
            settled = true;
            settled_at = sim.Now();
            code = c;
        });
    sim.Run();
    EXPECT_TRUE(settled);
    EXPECT_EQ(code, net::RpcCode::kDeadlineExceeded);
    // The first attempt and 3 retries, every one abandoned.
    EXPECT_EQ(handled, 4);
    EXPECT_EQ(net.rpc_stats().timeouts, 4u);
    EXPECT_EQ(net.rpc_stats().retries, 3u);
    EXPECT_EQ(net.rpc_stats().failures, 1u);
    // Four 50 ms timeouts plus the backoff gaps, 1 ms doubling per retry.
    EXPECT_EQ(settled_at, 4 * util::MsToNs(50) + util::MsToNs(1 + 2 + 4));
}

TEST(RpcTyped, FastReplySucceedsWithoutRetries)
{
    sim::Simulator sim;
    net::Network net(sim, 1);
    net::RpcCode code = net::RpcCode::kDeadlineExceeded;
    net.RpcTyped(
        0, 256, 0,
        [](util::TimeNs, net::Network::TypedReply reply) {
            reply(4096, net::RpcCode::kOk);
        },
        [&](net::RpcCode c) { code = c; });
    sim.Run();
    EXPECT_EQ(code, net::RpcCode::kOk);
    EXPECT_EQ(net.rpc_stats().timeouts, 0u);
    EXPECT_EQ(net.rpc_stats().retries, 0u);
    EXPECT_EQ(net.rpc_stats().failures, 0u);
}

TEST(RpcTyped, OverloadedReplySettlesWithoutRetry)
{
    sim::Simulator sim;
    net::Network net(sim, 1);
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
    net::Network net(sim, 1);
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

TEST(FailSlowBreaker, SlowAfterIsThreeTimesThePeerMedianEvenWhenDisabled)
{
    const util::TimeNs peer[] = {util::UsToNs(100), util::UsToNs(200),
                                 util::UsToNs(400)};
    // Nodes 1-3 are healthy peers; node 0 runs 50x slower than the median.
    auto feed = [&](cluster::FailSlowBreaker &b, int samples) {
        for (int i = 0; i < samples; ++i) {
            for (uint32_t n = 1; n <= 3; ++n) b.Record(n, peer[n - 1]);
            b.Record(0, util::MsToNs(10));
        }
    };

    cluster::FailSlowBreaker off(4, {});
    // A peer counts only once it has 32 samples; until then, never slow.
    feed(off, 31);
    EXPECT_EQ(off.SlowAfter(0), 0);
    feed(off, 1);
    // 3x the peers' median EWMA; node 0's own 10 ms plays no part in it,
    // but it is one of node 1's peers.
    EXPECT_DOUBLE_EQ(off.ewma_ms(0), 10.0);
    EXPECT_EQ(off.SlowAfter(0), 3 * peer[1]);
    EXPECT_EQ(off.SlowAfter(1), 3 * peer[2]);
    // Disabled only means no trips and no demotion.
    EXPECT_FALSE(off.AnyOpen());
    EXPECT_EQ(off.stats().trips, 0u);

    cluster::BreakerConfig bc;
    bc.enabled = true;
    cluster::FailSlowBreaker on(4, bc);
    feed(on, 32);
    EXPECT_EQ(on.SlowAfter(0), off.SlowAfter(0));
    EXPECT_TRUE(on.IsOpen(0));
    EXPECT_EQ(on.stats().trips, 1u);
}

TEST(Cluster, BreakerDemotesFailSlowNodeAndRecovers)
{
    sim::Simulator sim;
    cluster::ClusterConfig cc = SmallCluster(3, 2);
    cc.breaker.enabled = true;
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

// ---------------------------------------------------------------------------
// The replication path, pinned
// ---------------------------------------------------------------------------

/** FNV-1a over a key sequence (order-sensitive). */
uint64_t
HashKeys(const std::vector<uint64_t> &keys)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (uint64_t k : keys) {
        h ^= k;
        h *= 0x100000001b3ULL;
    }
    return h;
}

TEST(Cluster, ReplicationPathIsPinned)
{
    // Golden numbers for the router's replication path — the put fan-out,
    // the failover walk, epoch restarts, read-repair — and the node RPCs
    // under it, across three phases of one cluster. Any change to their
    // order of operations shows up here as a diff, not as a silently
    // shifted benchmark.
    sim::Simulator sim;
    cluster::Cluster cl(sim, SmallCluster(3, 2));
    const auto keys = cl.Preload(120, 16 * util::kKiB);
    ASSERT_EQ(keys.size(), 120u);
    std::vector<uint64_t> acked;

    // Phase 1: node 0's device dies under closed-loop router traffic
    // (failover and read-repair).
    std::vector<fault::FaultEvent> events;
    for (uint32_t ch = 0; ch < cl.node(0).sdf_device()->channel_count();
         ++ch) {
        fault::FaultEvent e;
        e.when = sim.Now() + util::MsToNs(30);
        e.kind = fault::FaultKind::kChannelDeath;
        e.device = 0;
        e.channel = ch;
        events.push_back(e);
    }
    fault::FaultInjector injector(sim, cl.SdfDevices(),
                                  fault::FaultPlan(std::move(events)));
    workload::YcsbConfig c1 = ClosedLoop(0.7, util::MsToNs(100), 11);
    c1.first_insert_key = 100000;
    const auto p1 = workload::RunYcsb(sim, cl.Service(), keys, c1);
    acked.insert(acked.end(), p1.acked_writes.begin(), p1.acked_writes.end());

    // Phase 2: node 1 stops, outlives the RPC retry ladder, and restarts
    // (epoch restarts, recovery, a rebalance pass).
    const util::TimeNs t2 = sim.Now();
    sim.ScheduleAt(t2 + util::MsToNs(31), [&cl]() { cl.StopNode(1); });
    sim.ScheduleAt(t2 + util::MsToNs(280), [&cl]() { cl.RestartNode(1); });
    workload::YcsbConfig c2 = ClosedLoop(0.7, util::MsToNs(400), 12);
    c2.first_insert_key = 200000;
    c2.actors = 8;
    const auto p2 = workload::RunYcsb(sim, cl.Service(), keys, c2);
    acked.insert(acked.end(), p2.acked_writes.begin(), p2.acked_writes.end());

    // Phase 3: open-loop traffic through the async client — a tight
    // window makes batches, a fail-slow node makes hedges, and a share of
    // the mix is range scans.
    client::KvClientConfig kc;
    kc.window_per_node = 2;
    kc.batch_max = 4;
    client::KvClient client(sim, cl.router(), kc);
    cl.node(2).SetFailSlow(8.0);
    workload::YcsbConfig c3;
    c3.arrival_rate = 20000;
    c3.duration = util::MsToNs(60);
    c3.seed = 13;
    c3.value_bytes = 16 * util::kKiB;
    c3.scan_limit_max = 8;
    c3.first_insert_key = 300000;
    workload::YcsbPhase mix;
    mix.mix = {0.75, 0.1, 0.05, 0.1};
    mix.chooser = workload::KeyChooser::kUniform;
    c3.phases = {mix};
    const auto p3 = workload::RunYcsb(sim, client.Service(), keys, c3);
    acked.insert(acked.end(), p3.acked_writes.begin(), p3.acked_writes.end());
    cl.node(2).SetFailSlow(1.0);

    const auto &st = cl.router().stats();
    EXPECT_EQ(st.puts, 4019u);
    EXPECT_EQ(st.gets, 9054u);
    EXPECT_EQ(st.put_replica_failures, 1u);
    EXPECT_EQ(st.put_failures, 0u);
    EXPECT_EQ(st.degraded_reads, 1165u);
    EXPECT_EQ(st.failed_reads, 128u);
    EXPECT_EQ(st.re_replications, 1165u);
    EXPECT_EQ(st.re_replication_failures, 0u);
    EXPECT_EQ(st.epoch_restarts, 2u);
    EXPECT_EQ(st.no_replica_rejects, 0u);
    const std::vector<uint64_t> puts = {4312, 1513, 3378};
    const std::vector<uint64_t> gets = {4575, 1827, 5613};
    for (uint32_t n = 0; n < 3; ++n) {
        EXPECT_EQ(cl.router().node_puts(n), puts[n]) << "node " << n;
        EXPECT_EQ(cl.router().node_gets(n), gets[n]) << "node " << n;
    }
    EXPECT_EQ(cl.router().recovery_latencies().count(), 1165u);
    EXPECT_EQ(cl.rebalancer().stats().keys_moved, 1868u);
    EXPECT_EQ(client.hedge_stats().launched, 197u);
    EXPECT_EQ(client.hedge_stats().wins, 126u);
    EXPECT_EQ(client.hedge_stats().losses, 71u);
    EXPECT_EQ(client.hedge_stats().cancelled, 676u);
    EXPECT_EQ(client.stats().batches, 193u);
    EXPECT_EQ(client.stats().batched_gets, 652u);
    EXPECT_EQ(client.stats().fallback_walks, 69u);

    struct Want
    {
        uint64_t issued, ok_reads, ok_updates, ok_inserts, ok_scans,
            scanned_keys, misses, shed_deadline, errors;
        double p99_ms;
    };
    const Want want[] = {
        {1823, 1303, 0, 520, 0, 0, 0, 0, 0, 0.520833},
        {10880, 6958, 0, 3198, 0, 0, 596, 1, 127, 0.462028},
        {1167, 873, 125, 56, 81, 337, 0, 0, 32, 33.903458},
    };
    const workload::YcsbResult *got[] = {&p1, &p2, &p3};
    for (int i = 0; i < 3; ++i) {
        const workload::YcsbResult &r = *got[i];
        const Want &w = want[i];
        EXPECT_EQ(r.issued, w.issued) << "phase " << i + 1;
        EXPECT_EQ(r.completed, w.issued) << "phase " << i + 1;
        EXPECT_EQ(r.ok_reads, w.ok_reads) << "phase " << i + 1;
        EXPECT_EQ(r.ok_updates, w.ok_updates) << "phase " << i + 1;
        EXPECT_EQ(r.ok_inserts, w.ok_inserts) << "phase " << i + 1;
        EXPECT_EQ(r.ok_scans, w.ok_scans) << "phase " << i + 1;
        EXPECT_EQ(r.scanned_keys, w.scanned_keys) << "phase " << i + 1;
        EXPECT_EQ(r.misses, w.misses) << "phase " << i + 1;
        EXPECT_EQ(r.shed_overloaded, 0u) << "phase " << i + 1;
        EXPECT_EQ(r.shed_deadline, w.shed_deadline) << "phase " << i + 1;
        EXPECT_EQ(r.errors, w.errors) << "phase " << i + 1;
        EXPECT_DOUBLE_EQ(r.p99_ms, w.p99_ms) << "phase " << i + 1;
    }
    EXPECT_EQ(HashKeys(acked), 7375514070032288901ULL);

    // Every path the pin stands for actually ran.
    EXPECT_GT(st.degraded_reads, 0u);
    EXPECT_GT(st.re_replications, 0u);
    EXPECT_GT(st.epoch_restarts, 0u);
    EXPECT_GT(client.hedge_stats().launched, 0u);
    EXPECT_GT(client.stats().batches, 0u);
    EXPECT_GT(p3.ok_scans, 0u);
}

}  // namespace
}  // namespace sdf
