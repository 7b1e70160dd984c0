/**
 * @file
 * Unit tests for the host I/O stack model and the client/server network.
 */
#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "host/io_stack.h"
#include "net/network.h"
#include "sim/simulator.h"

namespace sdf {
namespace {

TEST(IoStack, SpecsMatchPaperNumbers)
{
    const auto kernel = host::KernelIoStackSpec();
    // §4.3: ~12.9 us total on a 2.4 GHz server CPU.
    EXPECT_NEAR(util::NsToUs(kernel.issue_cost + kernel.completion_cost),
                12.9, 0.5);
    const auto user = host::SdfUserStackSpec();
    // §2.4: 2-4 us.
    const double total = util::NsToUs(user.issue_cost + user.completion_cost);
    EXPECT_GE(total, 2.0);
    EXPECT_LE(total, 4.0);
}

TEST(IoStack, AddsIssueAndCompletionLatency)
{
    sim::Simulator sim;
    host::IoStack stack(sim, host::KernelIoStackSpec(), 1);
    util::TimeNs done_at = 0;
    stack.Issue(
        [&sim](sim::Callback done) {
            sim.Schedule(util::UsToNs(100), std::move(done));
        },
        [&]() { done_at = sim.Now(); });
    sim.Run();
    EXPECT_EQ(done_at, util::UsToNs(100) + util::UsToNs(3.8) +
                           util::UsToNs(9.1));
    EXPECT_EQ(stack.requests(), 1u);
    EXPECT_EQ(stack.cpu_time(), util::UsToNs(12.9));
}

TEST(IoStack, NullStackIsFree)
{
    sim::Simulator sim;
    host::IoStack stack(sim, host::NullIoStackSpec(), 1);
    util::TimeNs done_at = 1;
    stack.Issue([](sim::Callback done) { done(); },
                [&]() { done_at = sim.Now(); });
    sim.Run();
    EXPECT_EQ(done_at, 0);
}

TEST(IoStack, SingleCpuSaturates)
{
    sim::Simulator sim;
    host::IoStackSpec spec{"test", util::UsToNs(10), 0};
    host::IoStack stack(sim, spec, 1);
    int done = 0;
    for (int i = 0; i < 10; ++i) {
        stack.Issue([](sim::Callback d) { d(); }, [&]() { ++done; });
    }
    sim.Run();
    EXPECT_EQ(done, 10);
    // Ten issues of 10 us on one CPU serialize to 100 us.
    EXPECT_EQ(sim.Now(), util::UsToNs(100));
}

TEST(IoStack, MultipleCpusParallelize)
{
    sim::Simulator sim;
    host::IoStackSpec spec{"test", util::UsToNs(10), 0};
    host::IoStack stack(sim, spec, 10);
    for (int i = 0; i < 10; ++i) {
        stack.Issue([](sim::Callback d) { d(); }, nullptr);
    }
    sim.Run();
    EXPECT_EQ(sim.Now(), util::UsToNs(10));
}

TEST(ClosedLoopActor, IteratesUntilStopped)
{
    sim::Simulator sim;
    host::ClosedLoopActor actor(sim, [&sim](sim::Callback done) {
        sim.Schedule(util::UsToNs(10), std::move(done));
    });
    actor.Start();
    sim.RunUntil(util::UsToNs(105));
    actor.Stop();
    sim.Run();
    // One iteration per 10 us.
    EXPECT_GE(actor.completed(), 10u);
    EXPECT_LE(actor.completed(), 11u);
}

TEST(ClosedLoopActor, StopPreventsFurtherIterations)
{
    sim::Simulator sim;
    int iterations = 0;
    host::ClosedLoopActor actor(sim, [&](sim::Callback done) {
        ++iterations;
        sim.Schedule(1, std::move(done));
    });
    actor.Start();
    sim.RunUntil(5);
    actor.Stop();
    sim.Run();
    const int at_stop = iterations;
    EXPECT_LE(iterations, at_stop);
}

// The network's link and CPU constants (network.cc): client NIC 1.18 GB/s,
// server NIC 2.36 GB/s, 50 us one way, 15 us dispatch per message and
// 1.3 ns of worker time per response byte.
constexpr double kClientNic = 1.18e9;
constexpr double kServerNic = 2.36e9;
constexpr util::TimeNs kOneWay = util::UsToNs(50);
constexpr util::TimeNs kPerMessage = util::UsToNs(15);
constexpr double kWorkerPerByteNs = 1.3;

/** Worker time a response of @p bytes costs beyond its dispatch. */
constexpr util::TimeNs
PayloadCost(uint64_t bytes)
{
    return static_cast<util::TimeNs>(kWorkerPerByteNs *
                                     static_cast<double>(bytes));
}

/** Completion time of one RPC from client 0 on an idle network. */
util::TimeNs
RpcTime(uint64_t request_bytes, uint64_t response_bytes)
{
    sim::Simulator sim;
    net::Network net(sim, 1);
    util::TimeNs done_at = 0;
    net.Rpc(0, request_bytes,
            [response_bytes](std::function<void(uint64_t)> reply) {
                reply(response_bytes);
            },
            [&]() { done_at = sim.Now(); });
    sim.Run();
    return done_at;
}

TEST(Network, RpcRoundTripLatency)
{
    sim::Simulator sim;
    net::Network net(sim, 1);

    util::TimeNs done_at = 0;
    net.Rpc(0, 256,
            [](std::function<void(uint64_t)> reply) { reply(1024); },
            [&]() { done_at = sim.Now(); });
    sim.Run();
    // Request over the client NIC and the wire, one dispatch; the reply's
    // dispatch and payload cost on the worker, then both NICs and the
    // wire.
    EXPECT_EQ(done_at, util::TransferTimeNs(256, kClientNic) + kOneWay +
                           kPerMessage + kPerMessage + PayloadCost(1024) +
                           util::TransferTimeNs(1024, kServerNic) + kOneWay +
                           util::TransferTimeNs(1024, kClientNic));
    EXPECT_EQ(net.bytes_to_clients(), 1024u);
}

TEST(Network, LargeResponsesBoundByClientNic)
{
    // 118 MB at ~1.18 GB/s -> ~100 ms.
    const util::TimeNs done_at = RpcTime(64, static_cast<uint64_t>(118e6));
    EXPECT_GT(done_at, util::MsToNs(100));
    EXPECT_LT(done_at, util::MsToNs(320));
}

TEST(Network, ServerNicSharedAcrossClients)
{
    sim::Simulator sim;
    net::Network net(sim, 4);
    // Four clients each pull 236 MB. Each connection has its own worker
    // and client NIC, but the server NIC is shared: at 2.36 GB/s the
    // responses leave it 100 ms apart, and arrive 100 ms apart.
    std::vector<util::TimeNs> done;
    for (uint32_t c = 0; c < 4; ++c) {
        net.Rpc(c, 64,
                [](std::function<void(uint64_t)> reply) {
                    reply(static_cast<uint64_t>(236e6));
                },
                [&]() { done.push_back(sim.Now()); });
    }
    sim.Run();
    ASSERT_EQ(done.size(), 4u);
    for (size_t i = 1; i < done.size(); ++i) {
        EXPECT_EQ(done[i] - done[i - 1], util::MsToNs(100)) << i;
    }
}

TEST(Network, PerByteWorkerCostCharged)
{
    // A 1 MB response costs its worker 1.3 ns/byte on top of the two NIC
    // transfers.
    const uint64_t bytes = 1000000;
    EXPECT_EQ(RpcTime(64, bytes) - RpcTime(64, 0),
              PayloadCost(bytes) + util::TransferTimeNs(bytes, kServerNic) +
                  util::TransferTimeNs(bytes, kClientNic));
}

}  // namespace
}  // namespace sdf
