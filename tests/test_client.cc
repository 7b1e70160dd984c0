/**
 * @file
 * Tests for the async client front door (client::KvClient): the bounded
 * outstanding-request window, client-side queue-cap shedding, read
 * coalescing under pressure, hedged-read accounting, typed deadline
 * outcomes, and same-seed determinism of the whole open-loop path.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "client/kv_client.h"
#include "cluster/cluster.h"
#include "obs/hub.h"
#include "sim/simulator.h"
#include "testbed/testbed.h"
#include "workload/ycsb.h"

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

TEST(KvClient, WindowQueuesExcessSubmitsAndServesThemAll)
{
    sim::Simulator sim;
    cluster::Cluster cl(sim, TinyCluster(1, 1));
    const auto keys = cl.Preload(20, 16 * util::kKiB);
    ASSERT_EQ(keys.size(), 20u);

    client::KvClientConfig kc;
    kc.window_per_node = 2;
    kc.batch_max = 1;   // Isolate the window from coalescing.
    kc.queue_cap = 0;   // Unbounded queue: nothing sheds.
    kc.hedge_reads = false;
    client::KvClient client(sim, cl.router(), kc);

    uint64_t served = 0;
    for (uint64_t k : keys) {
        client.Get(k, [&](const kv::GetResult &r) {
            served += r.ok && r.found;
        });
    }
    sim.Run();
    EXPECT_EQ(served, keys.size());
    // 20 simultaneous submits into a window of 2: the first two dispatch,
    // the other 18 wait for a slot.
    EXPECT_EQ(client.stats().queued, 18u);
    EXPECT_EQ(client.stats().shed_queue_full, 0u);
    EXPECT_EQ(client.stats().batches, 0u);
}

TEST(KvClient, FullQueueShedsClientSideWithTypedOverload)
{
    sim::Simulator sim;
    cluster::Cluster cl(sim, TinyCluster(1, 1));
    const auto keys = cl.Preload(20, 16 * util::kKiB);
    ASSERT_EQ(keys.size(), 20u);

    client::KvClientConfig kc;
    kc.window_per_node = 1;
    kc.queue_cap = 4;
    kc.batch_max = 1;
    kc.hedge_reads = false;
    client::KvClient client(sim, cl.router(), kc);

    const uint64_t wire_before = cl.node(0).net().messages();
    uint64_t served = 0, shed = 0, other = 0;
    for (uint64_t k : keys) {
        client.Get(k, [&](const kv::GetResult &r) {
            if (r.ok && r.found) {
                ++served;
            } else if (!r.ok && r.status == kv::OpStatus::kOverloaded) {
                ++shed;
            } else {
                ++other;
            }
        });
    }
    sim.Run();
    // 1 in flight + 4 queued admitted; the other 15 are refused at the
    // client — typed, and without costing a NIC or an admission slot.
    EXPECT_EQ(served, 5u);
    EXPECT_EQ(shed, 15u);
    EXPECT_EQ(other, 0u);
    EXPECT_EQ(client.stats().shed_queue_full, 15u);
    // A client-side shed is free for everyone else: only the 5 admitted
    // reads ever touched the wire.
    EXPECT_EQ(cl.node(0).net().messages() - wire_before, 5u);
}

TEST(KvClient, QueuedReadsCoalesceIntoBatches)
{
    sim::Simulator sim;
    cluster::Cluster cl(sim, TinyCluster(1, 1));
    const auto keys = cl.Preload(17, 16 * util::kKiB);
    ASSERT_EQ(keys.size(), 17u);

    client::KvClientConfig kc;
    kc.window_per_node = 1;
    kc.batch_max = 8;
    kc.queue_cap = 0;
    kc.hedge_reads = false;
    client::KvClient client(sim, cl.router(), kc);

    uint64_t served = 0;
    for (uint64_t k : keys) {
        client.Get(k, [&](const kv::GetResult &r) {
            served += r.ok && r.found;
        });
    }
    sim.Run();
    EXPECT_EQ(served, keys.size());
    // The first read dispatches solo (empty queue); the 16 that piled up
    // behind the full window drain as two full batches — pressure makes
    // batches, not stalls.
    EXPECT_EQ(client.stats().batches, 2u);
    EXPECT_EQ(client.stats().batched_gets, 16u);
}

TEST(KvClient, HedgeAccountingStaysConsistentWithAFailSlowReplica)
{
    sim::Simulator sim;
    cluster::Cluster cl(sim, TinyCluster(2, 2));
    const auto keys = cl.Preload(40, 16 * util::kKiB);
    ASSERT_EQ(keys.size(), 40u);

    client::KvClientConfig kc;
    kc.window_per_node = 4;
    kc.batch_max = 1;
    kc.hedge_reads = true;
    kc.hedge_min_samples = 16;
    client::KvClient client(sim, cl.router(), kc);

    uint64_t served = 0;
    auto drive = [&](int reads) {
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
    };

    // Warm the latency histogram while healthy, then degrade one node.
    drive(64);
    cl.node(0).SetFailSlow(10.0);
    drive(200);

    EXPECT_EQ(served, 264u);
    const client::HedgeStats &hs = client.hedge_stats();
    // Reads through the slow primary cross the threshold and hedge to the
    // healthy replica, which answers first.
    EXPECT_GT(hs.launched, 0u);
    EXPECT_GT(hs.wins, 0u);
    // Every launched hedge resolves as exactly one win or loss, and a
    // cancelled timer means the hedge never launched.
    EXPECT_EQ(hs.launched, hs.wins + hs.losses);
    EXPECT_GT(hs.cancelled, 0u);
}

TEST(KvClient, DeadlineOutcomesAreTyped)
{
    sim::Simulator sim;
    cluster::Cluster cl(sim, TinyCluster(1, 1));
    const auto keys = cl.Preload(8, 16 * util::kKiB);
    ASSERT_EQ(keys.size(), 8u);

    client::KvClientConfig kc;
    // Tighter than the one-way propagation delay: nothing can finish.
    kc.deadline = util::UsToNs(20);
    kc.hedge_reads = false;
    client::KvClient client(sim, cl.router(), kc);

    uint64_t get_deadline = 0, put_deadline = 0, other = 0;
    for (uint64_t k : keys) {
        client.Get(k, [&](const kv::GetResult &r) {
            if (!r.ok && r.status == kv::OpStatus::kDeadlineExceeded) {
                ++get_deadline;
            } else {
                ++other;
            }
        });
    }
    client.Put(keys.front(), 16 * util::kKiB, [&](kv::OpStatus s) {
        if (s == kv::OpStatus::kDeadlineExceeded) {
            ++put_deadline;
        } else {
            ++other;
        }
    });
    sim.Run();
    EXPECT_EQ(get_deadline, keys.size());
    EXPECT_EQ(put_deadline, 1u);
    EXPECT_EQ(other, 0u);
    EXPECT_EQ(client.stats().deadline_exceeded, keys.size() + 1);
}

TEST(KvClient, SameSeedOpenLoopRunsExportByteIdenticalStats)
{
    auto run_once = []() {
        obs::Hub hub;
        sim::Simulator sim;
        sim.set_hub(&hub);
        cluster::Cluster cl(sim, TinyCluster(2, 2));
        const auto keys = cl.Preload(30, 16 * util::kKiB);
        EXPECT_EQ(keys.size(), 30u);

        client::KvClientConfig kc;
        kc.window_per_node = 8;
        kc.queue_cap = 32;
        kc.deadline = util::MsToNs(10.0);
        client::KvClient client(sim, cl.router(), kc);

        workload::YcsbConfig cfg;
        cfg.arrival_rate = 15000;
        cfg.value_bytes = 16 * util::kKiB;
        cfg.duration = util::MsToNs(40);
        cfg.phases = workload::StormSchedule(0.9, 3.0);
        cfg.seed = 42;
        workload::RunYcsb(sim, client.Service(), keys, cfg);
        return obs::StatsJson(hub, {{"run", "client"}}, {});
    };
    const std::string a = run_once();
    const std::string b = run_once();
    EXPECT_GT(a.size(), 100u);
    EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace sdf
