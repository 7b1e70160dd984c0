/**
 * @file
 * Node recovery and ring rebalancing: restart durability (WAL replay +
 * patch-footer recovery + recovery scan), membership-epoch handling in
 * the replication engine, the rebalancer's ownership-delta computation
 * (golden vnode-diff), anti-entropy redundancy repair, HashRing
 * membership edge cases, and a seeded chaos schedule — node stops and
 * restarts interleaved with overload bursts past the admission cap and
 * fail-slow pulses — with a full consistency audit.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/hash_ring.h"
#include "cluster/rebalancer.h"
#include "kv/recovery.h"
#include "obs/hub.h"
#include "sim/simulator.h"
#include "testbed/testbed.h"
#include "workload/ycsb.h"

namespace sdf {
namespace {

// ---------------------------------------------------------------------------
// HashRing membership edge cases
// ---------------------------------------------------------------------------

TEST(HashRingMembership, SingleNodeRingOwnsEverything)
{
    cluster::HashRing ring(1, 16);
    for (uint64_t key = 0; key < 200; ++key) {
        const auto reps = ring.ReplicasFor(key, 3);
        ASSERT_EQ(reps.size(), 1u) << key;  // Clamped to the node count.
        EXPECT_EQ(reps[0], 0u);
        EXPECT_EQ(ring.OwnerVnode(key).second, 0u);
    }
}

TEST(HashRingMembership, RemovalBelowReplicationFactorDegrades)
{
    cluster::HashRing ring(3, 16);
    ring.RemoveNode(1);
    for (uint64_t key = 0; key < 200; ++key) {
        const auto reps = ring.ReplicasFor(key, 3);
        ASSERT_EQ(reps.size(), 2u) << key;
        for (uint32_t n : reps) EXPECT_TRUE(n == 0 || n == 2);
        EXPECT_NE(reps[0], reps[1]);
    }
    ring.RemoveNode(0);
    ring.RemoveNode(2);
    EXPECT_EQ(ring.node_count(), 0u);
    EXPECT_TRUE(ring.ReplicasFor(42, 2).empty());  // Fully failed cluster.
}

TEST(HashRingMembership, ReAddReproducesIdenticalVnodeLayout)
{
    cluster::HashRing ring(4, 32);
    std::vector<std::vector<uint32_t>> before;
    for (uint64_t key = 0; key < 1000; ++key) {
        before.push_back(ring.ReplicasFor(key, 2));
    }
    ring.RemoveNode(2);
    ring.AddNode(2);
    const cluster::HashRing fresh(4, 32);
    for (uint64_t key = 0; key < 1000; ++key) {
        EXPECT_EQ(ring.ReplicasFor(key, 2), before[key]) << key;
        EXPECT_EQ(fresh.ReplicasFor(key, 2), before[key]) << key;
    }
}

TEST(HashRingMembership, RemovalOnlyMovesTheDeadNodesKeys)
{
    cluster::HashRing before(4, 32), after(4, 32);
    after.RemoveNode(3);
    for (uint64_t key = 0; key < 1000; ++key) {
        const auto old = before.ReplicasFor(key, 2);
        if (std::find(old.begin(), old.end(), 3u) != old.end()) continue;
        // Keys that never touched node 3 keep their exact replica set.
        EXPECT_EQ(after.ReplicasFor(key, 2), old) << key;
    }
}

// ---------------------------------------------------------------------------
// Store restart from the journal (single node, no cluster)
// ---------------------------------------------------------------------------

testbed::KvStackConfig
SmallStack(uint32_t slices)
{
    testbed::KvStackConfig kc;
    kc.stack.capacity_scale = 0.02;
    kc.stack.with_io_stack = false;
    kc.stack.tune_sdf = [](core::SdfConfig &dc) {
        dc.flash.timing = nand::FastTestTiming();
    };
    kc.store.slice_count = slices;
    return kc;
}

/** Detach the live store and rebuild it from @p journal, like a restart. */
void
RestartStore(sim::Simulator &sim, testbed::KvStack &stack,
             const testbed::KvStackConfig &kc, kv::StoreJournal &journal,
             std::vector<std::unique_ptr<kv::Store>> &graveyard)
{
    stack.store->Detach();
    graveyard.push_back(std::move(stack.store));
    stack.store = std::make_unique<kv::Store>(sim, *stack.storage.storage,
                                              kc.store, &journal);
    sim.Run();  // Drain WAL-replay activity.
}

TEST(StoreRecovery, NewestVersionWinsAcrossRestarts)
{
    sim::Simulator sim;
    kv::StoreJournal journal;
    const testbed::KvStackConfig kc = SmallStack(1);
    testbed::KvStack stack = testbed::BuildKvStack(sim, kc, &journal);
    std::vector<std::unique_ptr<kv::Store>> graveyard;

    auto put = [&](uint32_t size_kib) {
        bool acked = false;
        stack.store->Put(7, size_kib * util::kKiB,
                         [&acked](bool ok) { acked = ok; });
        sim.Run();
        ASSERT_TRUE(acked);
    };
    auto expect_size = [&](uint32_t size_kib) {
        kv::GetResult res;
        stack.store->Get(7, [&res](const kv::GetResult &r) { res = r; });
        sim.Run();
        ASSERT_TRUE(res.ok && res.found);
        EXPECT_EQ(res.value_size, size_kib * util::kKiB);
    };

    put(16);
    stack.store->slice(0).Flush();
    sim.Run();
    put(32);  // Newer version only in the WAL at restart time.
    RestartStore(sim, stack, kc, journal, graveyard);
    expect_size(32);

    put(48);
    stack.store->slice(0).Flush();  // Both versions now flushed.
    sim.Run();
    RestartStore(sim, stack, kc, journal, graveyard);
    expect_size(48);
}

TEST(StoreRecovery, TombstonesSurviveRestart)
{
    sim::Simulator sim;
    kv::StoreJournal journal;
    const testbed::KvStackConfig kc = SmallStack(1);
    testbed::KvStack stack = testbed::BuildKvStack(sim, kc, &journal);
    std::vector<std::unique_ptr<kv::Store>> graveyard;

    int acked = 0;
    stack.store->Put(1, 16 * util::kKiB, [&acked](bool ok) { acked += ok; });
    stack.store->Put(2, 16 * util::kKiB, [&acked](bool ok) { acked += ok; });
    sim.Run();
    stack.store->slice(0).Flush();
    sim.Run();
    // Key 1's tombstone stays WAL-only; key 2's gets flushed to a patch.
    stack.store->slice(0).Delete(2, [&acked](bool ok) { acked += ok; });
    sim.Run();
    stack.store->slice(0).Flush();
    sim.Run();
    stack.store->slice(0).Delete(1, [&acked](bool ok) { acked += ok; });
    sim.Run();
    ASSERT_EQ(acked, 4);

    RestartStore(sim, stack, kc, journal, graveyard);
    for (uint64_t key : {uint64_t{1}, uint64_t{2}}) {
        kv::GetResult res;
        stack.store->Get(key, [&res](const kv::GetResult &r) { res = r; });
        sim.Run();
        EXPECT_TRUE(res.ok) << key;
        EXPECT_FALSE(res.found) << "deleted key " << key << " resurrected";
    }
    // Deleted keys are not live either: a rebalance pass must not copy them.
    std::map<uint64_t, uint32_t> live;
    stack.store->CollectLive(live);
    EXPECT_EQ(live.count(1), 0u);
    EXPECT_EQ(live.count(2), 0u);
}

TEST(StoreRecovery, JournalMirrorsStoredPatches)
{
    sim::Simulator sim;
    kv::StoreJournal journal;
    const testbed::KvStackConfig kc = SmallStack(2);
    testbed::KvStack stack = testbed::BuildKvStack(sim, kc, &journal);

    for (uint64_t key = 1; key <= 40; ++key) {
        stack.store->Put(key, 64 * util::kKiB, nullptr);
    }
    sim.Run();
    for (uint32_t s = 0; s < 2; ++s) stack.store->slice(s).Flush();
    sim.Run();

    ASSERT_GT(journal.TotalPatches(), 0u);
    EXPECT_GT(journal.next_patch_id, 0u);
    const std::vector<uint64_t> on_device =
        stack.storage.storage->StoredIds();
    const std::set<uint64_t> stored(on_device.begin(), on_device.end());
    for (const kv::SliceJournal &sj : journal.slices) {
        for (const auto &[id, footer] : sj.patches) {
            EXPECT_TRUE(stored.count(id))
                << "journal patch " << id << " missing from device";
        }
    }
}

// ---------------------------------------------------------------------------
// Cluster node restart
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

/** Put keys [first, last] through the router; all must ack. */
void
PutRange(sim::Simulator &sim, cluster::Cluster &cl, uint64_t first,
         uint64_t last, uint32_t value_bytes)
{
    int acked = 0;
    for (uint64_t key = first; key <= last; ++key) {
        cl.router().Put(key, value_bytes,
                        [&acked](bool ok) { acked += ok; });
    }
    sim.Run();
    ASSERT_EQ(acked, static_cast<int>(last - first + 1));
}

/** Audited read-back of keys [first, last]; returns #found. */
uint64_t
AuditRange(cluster::Cluster &cl, uint64_t first, uint64_t last)
{
    std::vector<uint64_t> keys;
    for (uint64_t k = first; k <= last; ++k) keys.push_back(k);
    return keys.size() - cl.AuditKeys(keys).lost;
}

TEST(ClusterRecovery, RestartPreservesEveryAckedWrite)
{
    sim::Simulator sim;
    cluster::Cluster cl(sim, SmallCluster(3, 2));
    // Flushed generation: on-device patches at stop time.
    PutRange(sim, cl, 1, 30, 16 * util::kKiB);
    cl.FlushAll();
    sim.Run();
    // Unflushed generation: lives only in memtables + the WAL mirror.
    PutRange(sim, cl, 31, 50, 16 * util::kKiB);

    const util::TimeNs t_stop = sim.Now();
    cl.StopNode(1);
    EXPECT_FALSE(cl.node(1).running());
    EXPECT_FALSE(cl.router().node_live(1));
    // Writes during the downtime land on the survivors.
    PutRange(sim, cl, 51, 60, 16 * util::kKiB);

    bool back = false;
    cl.RestartNode(1, [&back]() { back = true; });
    sim.Run();
    ASSERT_TRUE(back);
    EXPECT_TRUE(cl.node(1).running());
    EXPECT_TRUE(cl.router().node_live(1));

    // The recovery was charged, not free: patches were scanned, WAL
    // records replayed, and simulated time passed.
    const cluster::StorageNode::RecoveryStats &rec = cl.node(1).recovery();
    EXPECT_EQ(rec.restarts, 1u);
    EXPECT_GT(rec.patches_scanned, 0u);
    EXPECT_GT(rec.bytes_scanned, 0u);
    EXPECT_GT(rec.wal_records_replayed, 0u);
    EXPECT_GT(rec.last_recovery_ns, 0u);
    EXPECT_GT(sim.Now(), t_stop);

    EXPECT_EQ(AuditRange(cl, 1, 60), 60u);
    EXPECT_EQ(cl.rebalancer().CountUnderReplicated(), 0u);
}

TEST(ClusterRecovery, EpochChangeMidGetRestartsAgainstFreshPlacement)
{
    sim::Simulator sim;
    cluster::Cluster cl(sim, SmallCluster(3, 2));
    PutRange(sim, cl, 1, 40, 16 * util::kKiB);
    cl.FlushAll();
    sim.Run();
    EXPECT_EQ(cl.router().epoch(), 0u);

    // Launch a wave of gets and kill a node while they are in flight:
    // requests parked on node 0 never get a reply, time out, and find a
    // new membership epoch when they come back to the engine. The stop
    // fires from inside the wave (after the 10th completion) so later
    // gets are guaranteed to straddle the membership change.
    int done = 0, found = 0;
    bool stopped = false;
    for (uint64_t key = 1; key <= 40; ++key) {
        cl.router().Get(key, [&](const kv::GetResult &r) {
            ++done;
            found += r.ok && r.found;
            if (done == 10 && !stopped) {
                stopped = true;
                cl.StopNode(0);
            }
        });
    }
    sim.Run();
    EXPECT_EQ(done, 40);
    EXPECT_EQ(found, 40) << "failover must mask the stopped node";
    EXPECT_EQ(cl.router().epoch(), 1u);
    EXPECT_GE(cl.router().stats().epoch_restarts, 1u);
}

// ---------------------------------------------------------------------------
// Rebalancer: golden vnode-diff and anti-entropy
// ---------------------------------------------------------------------------

TEST(Rebalance, PassMovesExactlyTheOwnershipDelta)
{
    sim::Simulator sim;
    cluster::Cluster cl(sim, SmallCluster(4, 2));
    const uint64_t kKeys = 80;
    PutRange(sim, cl, 1, kKeys, 16 * util::kKiB);

    cl.StopNode(3);
    bool healed = false;
    cl.anti_entropy().Run([&healed]() { healed = true; });
    sim.Run();
    ASSERT_TRUE(healed);

    // Golden delta, computed independently from the two ring layouts:
    // every key that listed node 3 as a replica must be streamed to the
    // one node newly added to its replica set — and nothing else moves.
    const cluster::HashRing before(4, 64);
    cluster::HashRing after(4, 64);
    after.RemoveNode(3);
    std::vector<cluster::KeyMove> expected;
    for (uint64_t key = 1; key <= kKeys; ++key) {
        const auto old = before.ReplicasFor(key, 2);
        if (std::find(old.begin(), old.end(), 3u) == old.end()) continue;
        const auto now = after.ReplicasFor(key, 2);
        const uint32_t survivor = old[0] == 3 ? old[1] : old[0];
        for (uint32_t target : now) {
            if (target == survivor) continue;
            expected.push_back(
                cluster::KeyMove{key, 16 * util::kKiB, survivor, target});
        }
    }
    ASSERT_GT(expected.size(), 0u);

    const std::vector<cluster::KeyMove> &actual =
        cl.rebalancer().last_moves();
    ASSERT_EQ(actual.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(actual[i].key, expected[i].key) << i;
        EXPECT_EQ(actual[i].value_size, expected[i].value_size) << i;
        EXPECT_EQ(actual[i].source, expected[i].source) << i;
        EXPECT_EQ(actual[i].dest, expected[i].dest) << i;
    }
}

TEST(Rebalance, AntiEntropyRestoresRedundancyAndReportsIt)
{
    obs::Hub hub;
    sim::Simulator sim;
    sim.set_hub(&hub);
    cluster::Cluster cl(sim, SmallCluster(4, 2));
    PutRange(sim, cl, 1, 40, 16 * util::kKiB);
    cl.FlushAll();
    sim.Run();

    cl.StopNode(3);
    const uint64_t degraded = cl.rebalancer().CountUnderReplicated();
    EXPECT_GT(degraded, 0u);
    bool healed = false;
    cl.anti_entropy().Run([&healed]() { healed = true; });
    sim.Run();
    ASSERT_TRUE(healed);
    EXPECT_EQ(cl.rebalancer().CountUnderReplicated(), 0u);
    EXPECT_EQ(cl.rebalancer().stats().keys_moved, degraded);

    const obs::MetricsRegistry::Snapshot snap = hub.metrics().Take();
    EXPECT_EQ(snap.counters.at("cluster.rebalance.anti_entropy_passes"), 1u);
    EXPECT_EQ(snap.counters.at("cluster.rebalance.keys_moved"), degraded);
    EXPECT_GT(snap.counters.at("cluster.rebalance.bytes_moved"), 0u);
    EXPECT_EQ(snap.counters.at("cluster.rebalance.move_failures"), 0u);
    EXPECT_EQ(snap.gauges.at("cluster.rebalance.under_replicated"), 0.0);
    // Bulk transfers rode the survivors' NICs, not the RPC fast path.
    uint64_t bulk = 0;
    for (uint32_t n = 0; n < cl.node_count(); ++n) {
        bulk += cl.node(n).net().bulk_messages();
    }
    EXPECT_GT(bulk, 0u);

    // All 40 keys remain readable through the 3 survivors.
    EXPECT_EQ(AuditRange(cl, 1, 40), 40u);
}

TEST(Rebalance, SameSeedRestartRunsExportByteIdenticalStats)
{
    auto run_once = []() {
        obs::Hub hub;
        sim::Simulator sim;
        sim.set_hub(&hub);
        cluster::Cluster cl(sim, SmallCluster(3, 2));
        const auto keys = cl.Preload(30, 16 * util::kKiB);
        EXPECT_EQ(keys.size(), 30u);

        const util::TimeNs t0 = sim.Now();
        sim.ScheduleAt(t0 + util::MsToNs(30), [&cl]() { cl.StopNode(1); });
        sim.ScheduleAt(t0 + util::MsToNs(70),
                       [&cl]() { cl.RestartNode(1); });
        workload::YcsbConfig cfg;
        cfg.actors = 4;
        cfg.duration = util::MsToNs(150);
        cfg.seed = 99;
        cfg.value_bytes = 16 * util::kKiB;
        cfg.phases = {workload::UniformMix(0.7)};
        workload::RunYcsb(sim, cl.Service(), keys, cfg);
        sim.Run();
        return obs::StatsJson(hub, {{"run", "recovery"}}, {});
    };
    const std::string a = run_once();
    const std::string b = run_once();
    EXPECT_GT(a.size(), 100u);
    EXPECT_EQ(a, b) << "restart/rebalance must stay deterministic";
}

// ---------------------------------------------------------------------------
// Seeded chaos schedule with full consistency audit
// ---------------------------------------------------------------------------

struct ChaosEvent
{
    enum Kind
    {
        kPutBatch,
        kGetBatch,
        kStopNode,
        kRestartNode,
        kAntiEntropy,
        kOverloadBurst,   ///< Open-loop read burst past the admission cap.
        kFailSlowPulse,   ///< One node serves slow for a batch, then heals.
    };
    Kind kind;
    uint32_t node = 0;    ///< For stop/restart/fail-slow.
    uint32_t count = 0;   ///< For put/get batches and bursts.
    double factor = 1.0;  ///< Fail-slow service-time multiplier.
};

const char *
ChaosKindName(ChaosEvent::Kind k)
{
    switch (k) {
      case ChaosEvent::kPutBatch: return "put";
      case ChaosEvent::kGetBatch: return "get";
      case ChaosEvent::kStopNode: return "stop";
      case ChaosEvent::kRestartNode: return "restart";
      case ChaosEvent::kAntiEntropy: return "anti-entropy";
      case ChaosEvent::kOverloadBurst: return "burst";
      case ChaosEvent::kFailSlowPulse: return "failslow";
    }
    return "?";
}

/** Deterministic per-key value size so the audit can verify contents. */
uint32_t
ChaosValueBytes(uint64_t key)
{
    return static_cast<uint32_t>((8 + 8 * (key % 4)) * util::kKiB);
}

/**
 * Generate a seeded event schedule. Node stops/restarts are legal by
 * construction (tracked against a membership mirror, at least one node
 * always stays up), so a schedule replays standalone — drop events from
 * the tail/middle to shrink a failure.
 */
std::vector<ChaosEvent>
MakeChaosSchedule(uint64_t seed, uint32_t nodes, uint32_t steps)
{
    std::mt19937_64 rng(seed);
    std::set<uint32_t> live;
    for (uint32_t n = 0; n < nodes; ++n) live.insert(n);
    std::vector<ChaosEvent> schedule;
    for (uint32_t s = 0; s < steps; ++s) {
        const uint32_t roll = static_cast<uint32_t>(rng() % 100);
        ChaosEvent e;
        if (roll < 30) {
            e.kind = ChaosEvent::kPutBatch;
            e.count = 2 + static_cast<uint32_t>(rng() % 4);
        } else if (roll < 50) {
            e.kind = ChaosEvent::kGetBatch;
            e.count = 2 + static_cast<uint32_t>(rng() % 6);
        } else if (roll < 62) {
            e.kind = ChaosEvent::kOverloadBurst;
            e.count = 48 + static_cast<uint32_t>(rng() % 48);
        } else if (roll < 74) {
            e.kind = ChaosEvent::kFailSlowPulse;
            auto it = live.begin();
            std::advance(it, rng() % live.size());
            e.node = *it;
            e.factor = 2.0 + static_cast<double>(rng() % 7);
            e.count = 4 + static_cast<uint32_t>(rng() % 6);
        } else if (roll < 86 && live.size() >= 2) {
            e.kind = ChaosEvent::kStopNode;
            auto it = live.begin();
            std::advance(it, rng() % live.size());
            e.node = *it;
            live.erase(e.node);
        } else if (roll < 96 && live.size() < nodes) {
            e.kind = ChaosEvent::kRestartNode;
            std::vector<uint32_t> down;
            for (uint32_t n = 0; n < nodes; ++n) {
                if (live.count(n) == 0) down.push_back(n);
            }
            e.node = down[rng() % down.size()];
            live.insert(e.node);
        } else {
            e.kind = ChaosEvent::kAntiEntropy;
        }
        schedule.push_back(e);
    }
    return schedule;
}

std::string
ChaosScheduleText(uint64_t seed, const std::vector<ChaosEvent> &schedule)
{
    std::ostringstream os;
    os << "seed " << seed << " schedule:";
    for (const ChaosEvent &e : schedule) {
        os << " " << ChaosKindName(e.kind);
        if (e.kind == ChaosEvent::kStopNode ||
            e.kind == ChaosEvent::kRestartNode) {
            os << "(" << e.node << ")";
        } else if (e.kind == ChaosEvent::kFailSlowPulse) {
            os << "(" << e.node << ",x" << e.factor << "," << e.count << ")";
        } else if (e.kind != ChaosEvent::kAntiEntropy) {
            os << "(" << e.count << ")";
        }
    }
    return os.str();
}

/** @return an empty string on success, else the failure description.
 *  Adds the run's admission sheds to @p shed_total (proof the bursts
 *  actually pressed against the cap, not just queued politely). */
std::string
RunChaosSchedule(uint64_t seed, const std::vector<ChaosEvent> &schedule,
                 uint64_t *shed_total = nullptr)
{
    const uint32_t kNodes = 3;
    sim::Simulator sim;
    cluster::ClusterConfig cc = SmallCluster(kNodes, 2);
    // Real admission control so overload bursts actually shed — but roomy
    // enough that the closed-loop audits (4 streams) never trip it.
    cc.node.admission_cap = 32;
    cluster::Cluster cl(sim, cc);
    std::mt19937_64 rng(seed ^ 0x5DEECE66DULL);

    // Preload a base population.
    std::vector<uint64_t> acked_keys;
    uint64_t next_key = 1;
    uint64_t failed_puts = 0;
    auto put_batch = [&](uint32_t count) {
        for (uint32_t i = 0; i < count; ++i) {
            const uint64_t key = next_key++;
            cl.router().Put(key, ChaosValueBytes(key), [&, key](bool ok) {
                if (ok) {
                    acked_keys.push_back(key);
                } else {
                    ++failed_puts;
                }
            });
        }
        sim.Run();
    };
    put_batch(10);

    for (const ChaosEvent &e : schedule) {
        switch (e.kind) {
          case ChaosEvent::kPutBatch: put_batch(e.count); break;
          case ChaosEvent::kGetBatch:
            // Load only; results are unchecked mid-chaos (a key may have
            // every current holder down until its node restarts).
            for (uint32_t i = 0; i < e.count && !acked_keys.empty(); ++i) {
                cl.router().Get(acked_keys[rng() % acked_keys.size()],
                                [](const kv::GetResult &) {});
            }
            sim.Run();
            break;
          case ChaosEvent::kStopNode: cl.StopNode(e.node); break;
          case ChaosEvent::kRestartNode:
            cl.RestartNode(e.node);
            sim.Run();
            break;
          case ChaosEvent::kAntiEntropy:
            cl.anti_entropy().Run();
            sim.Run();
            break;
          case ChaosEvent::kOverloadBurst:
            // Flush first so reads cost device time, then arrive all at
            // once, far past the per-node admission cap. Outcomes are
            // typed (many are kOverloaded) and deliberately unchecked: a
            // shed read must be a refusal, never corruption — which the
            // final audit is what verifies.
            cl.FlushAll();
            sim.Run();
            for (uint32_t i = 0; i < e.count && !acked_keys.empty(); ++i) {
                cl.router().Get(acked_keys[rng() % acked_keys.size()],
                                [](const kv::GetResult &) {});
            }
            sim.Run();
            break;
          case ChaosEvent::kFailSlowPulse:
            // The node keeps answering, just e.factor slower, while a
            // batch of reads runs against it; then it heals.
            cl.node(e.node).SetFailSlow(e.factor);
            for (uint32_t i = 0; i < e.count && !acked_keys.empty(); ++i) {
                cl.router().Get(acked_keys[rng() % acked_keys.size()],
                                [](const kv::GetResult &) {});
            }
            sim.Run();
            cl.node(e.node).SetFailSlow(1.0);
            break;
        }
        // Invariant: the membership never empties.
        if (cl.router().node_count() == 0) return "membership emptied";
    }

    // Heal completely: restart everything, then one anti-entropy pass.
    for (uint32_t n = 0; n < kNodes; ++n) {
        if (!cl.node(n).running()) {
            cl.RestartNode(n);
            sim.Run();
        }
    }
    cl.anti_entropy().Run();
    sim.Run();
    if (const uint64_t under = cl.rebalancer().CountUnderReplicated();
        under != 0) {
        return std::to_string(under) + " keys under-replicated after heal";
    }

    // Full audit: every acked key must come back with the right size.
    uint64_t lost = 0, wrong_size = 0;
    size_t next = 0;
    std::function<void()> step = [&]() {
        if (next >= acked_keys.size()) return;
        const uint64_t key = acked_keys[next++];
        cl.router().Get(key, [&, key](const kv::GetResult &r) {
            if (!r.ok || !r.found) {
                ++lost;
            } else if (r.value_size != ChaosValueBytes(key)) {
                ++wrong_size;
            }
            step();
        });
    };
    for (int s = 0; s < 4; ++s) step();
    sim.Run();
    if (shed_total != nullptr) {
        for (uint32_t n = 0; n < kNodes; ++n) {
            *shed_total += cl.node(n).admission().shed_overload;
        }
    }
    if (lost != 0 || wrong_size != 0) {
        return std::to_string(lost) + " keys lost, " +
               std::to_string(wrong_size) + " wrong sizes (of " +
               std::to_string(acked_keys.size()) + " acked)";
    }
    return "";
}

TEST(Chaos, HundredSeededSchedulesLoseNothing)
{
    uint64_t shed_total = 0;
    for (uint64_t seed = 1; seed <= 100; ++seed) {
        const std::vector<ChaosEvent> schedule =
            MakeChaosSchedule(seed, 3, 12);
        const std::string failure =
            RunChaosSchedule(seed, schedule, &shed_total);
        ASSERT_EQ(failure, "")
            << failure << "\nreplay with: " << ChaosScheduleText(seed, schedule);
    }
    // Across 100 schedules the overload bursts must have hit real
    // admission control somewhere — otherwise this suite never actually
    // mixed sheds with stops, restarts and fail-slow windows.
    EXPECT_GT(shed_total, 0u);
}

}  // namespace
}  // namespace sdf
