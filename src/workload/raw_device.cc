#include "workload/raw_device.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <utility>

#include "obs/hub.h"
#include "util/assert.h"

namespace sdf::workload {

namespace {

/** Shared measurement bookkeeping across all drivers. */
struct Meter
{
    TimeNs window_start = 0;
    uint64_t bytes = 0;
    uint64_t ops = 0;
    bool measuring = false;
};

/**
 * Per-actor observability context. A closed-loop actor has exactly one
 * request in flight, so a single reusable IoSpan per actor suffices; when
 * tracing is on each actor also owns a request track ("host"/"req.chNN")
 * showing its requests end to end.
 */
struct ActorObs
{
    obs::Hub *hub = nullptr;
    obs::IoSpan span;
    int32_t track = -1;

    static std::shared_ptr<ActorObs>
    Make(sim::Simulator &sim, const char *kind, uint32_t idx)
    {
        auto a = std::make_shared<ActorObs>();
        a->hub = sim.hub();
        if (a->hub != nullptr && a->hub->trace() != nullptr) {
            char name[24];
            std::snprintf(name, sizeof name, "req.%s%02u", kind, idx);
            a->track = a->hub->trace()->RegisterTrack("host", name);
        }
        return a;
    }

    /** Span pointer to thread through the stack (null when no hub). */
    obs::IoSpan *span_ptr() { return hub != nullptr ? &span : nullptr; }

    /** Close the span and fold it into the per-op aggregates. */
    void
    FinishRequest(sim::Simulator &sim, const char *op, bool measuring)
    {
        if (hub == nullptr) return;
        span.Finish(sim.Now());
        if (measuring) hub->stages().Record(op, span);
        if (track >= 0) {
            hub->trace()->Complete(track, op, span.start_ns(),
                                   span.total_ns());
        }
    }
};

/**
 * Run @p actors for warmup + duration; count only the measurement window.
 * Actor starts are staggered over a few milliseconds so identical
 * closed-loop cycles don't run in lockstep (convoy effects would bias the
 * fixed measurement window).
 */
RawResult
Measure(sim::Simulator &sim, std::vector<std::unique_ptr<host::ClosedLoopActor>> &actors,
        Meter &meter, const RawRunConfig &run)
{
    util::Rng stagger(run.seed ^ 0x57a66e4ULL);
    for (auto &a : actors) {
        sim.Schedule(static_cast<TimeNs>(stagger.NextBelow(
                         static_cast<uint64_t>(util::MsToNs(10)))),
                     [actor = a.get()]() { actor->Start(); });
    }
    sim.RunUntil(sim.Now() + run.warmup);
    meter.measuring = true;
    meter.window_start = sim.Now();
    meter.bytes = 0;
    meter.ops = 0;
    sim.RunUntil(meter.window_start + run.duration);
    meter.measuring = false;
    for (auto &a : actors) a->Stop();

    RawResult result;
    result.mbps = util::BandwidthMBps(meter.bytes, run.duration);
    result.operations = meter.ops;
    return result;
}

}  // namespace

void
PreconditionSdf(core::SdfDevice &device)
{
    for (uint32_t ch = 0; ch < device.channel_count(); ++ch) {
        for (uint32_t u = 0; u < device.units_per_channel(); ++u) {
            if (device.unit_state(ch, u) == core::UnitState::kUnwritten)
                device.DebugForceWritten(ch, u);
        }
    }
}

RawResult
RunSdfReads(sim::Simulator &sim, core::SdfDevice &device,
            host::IoStack &stack, uint32_t channels_used,
            uint64_t request_bytes, Pattern pattern, const RawRunConfig &run)
{
    SDF_CHECK(channels_used >= 1 && channels_used <= device.channel_count());
    SDF_CHECK(request_bytes % device.read_unit_bytes() == 0);
    SDF_CHECK(request_bytes <= device.unit_bytes());

    auto meter = std::make_shared<Meter>();
    auto rng = std::make_shared<util::Rng>(run.seed);
    const uint64_t slots = device.unit_bytes() / request_bytes;

    std::vector<std::unique_ptr<host::ClosedLoopActor>> actors;
    for (uint32_t ch = 0; ch < channels_used; ++ch) {
        auto cursor = std::make_shared<uint64_t>(0);
        auto aobs = ActorObs::Make(sim, "ch", ch);
        actors.push_back(std::make_unique<host::ClosedLoopActor>(
            sim, [&sim, &device, &stack, meter, rng, cursor, aobs, ch,
                  request_bytes, slots, pattern](
                     host::ClosedLoopActor::Done done) {
                uint32_t unit;
                uint64_t offset;
                if (pattern == Pattern::kSequential) {
                    const uint64_t pos = (*cursor)++;
                    unit = static_cast<uint32_t>(
                        (pos / slots) % device.units_per_channel());
                    offset = pos % slots * request_bytes;
                } else {
                    unit = static_cast<uint32_t>(
                        rng->NextBelow(device.units_per_channel()));
                    offset = rng->NextBelow(slots) * request_bytes;
                }
                obs::IoSpan *span = aobs->span_ptr();
                if (span != nullptr) span->Start(sim.Now());
                auto finish = [&sim, meter, aobs, request_bytes, done]() {
                    aobs->FinishRequest(sim, "read", meter->measuring);
                    if (meter->measuring) {
                        meter->bytes += request_bytes;
                        ++meter->ops;
                    }
                    done();
                };
                static_assert(sim::Callback::kFitsInline<decltype(finish)>);
                stack.Issue(
                    [&device, ch, unit, offset, request_bytes,
                     span](host::IoStack::Completion d) {
                        device.Read(ch, unit, offset, request_bytes,
                                    [d](bool) { d(); }, nullptr, span);
                    },
                    std::move(finish), span);
            }));
    }
    return Measure(sim, actors, *meter, run);
}

RawResult
RunSdfWrites(sim::Simulator &sim, core::SdfDevice &device,
             host::IoStack &stack, uint32_t channels_used,
             const RawRunConfig &run)
{
    SDF_CHECK(channels_used >= 1 && channels_used <= device.channel_count());
    auto meter = std::make_shared<Meter>();
    auto result = std::make_shared<RawResult>();
    const uint64_t unit_bytes = device.unit_bytes();

    std::vector<std::unique_ptr<host::ClosedLoopActor>> actors;
    for (uint32_t ch = 0; ch < channels_used; ++ch) {
        auto cursor = std::make_shared<uint32_t>(0);
        auto aobs = ActorObs::Make(sim, "ch", ch);
        actors.push_back(std::make_unique<host::ClosedLoopActor>(
            sim, [&sim, &device, &stack, meter, result, cursor, aobs, ch,
                  unit_bytes](host::ClosedLoopActor::Done done) {
                const uint32_t unit = *cursor;
                *cursor = (*cursor + 1) % device.units_per_channel();
                const TimeNs start = sim.Now();
                // One span covers the whole erase+write cycle: the explicit
                // erase is on the write's critical path (Figure 8).
                obs::IoSpan *span = aobs->span_ptr();
                if (span != nullptr) span->Start(start);
                auto finish = [&sim, meter, result, aobs, unit_bytes, start,
                               done]() {
                    aobs->FinishRequest(sim, "write", meter->measuring);
                    if (meter->measuring) {
                        meter->bytes += unit_bytes;
                        ++meter->ops;
                        result->latencies.Record(sim.Now() - start);
                    }
                    done();
                };
                static_assert(sim::Callback::kFitsInline<decltype(finish)>);
                stack.Issue(
                    [&device, ch, unit, span](host::IoStack::Completion d) {
                        // Explicit erase immediately before the write.
                        device.EraseUnit(
                            ch, unit,
                            [&device, ch, unit, span, d](bool ok) {
                                if (!ok) {
                                    d();
                                    return;
                                }
                                device.WriteUnit(ch, unit,
                                                 [d](bool) { d(); },
                                                 nullptr, span);
                            },
                            span);
                    },
                    std::move(finish), span);
            }));
    }
    RawResult measured = Measure(sim, actors, *meter, run);
    measured.latencies = std::move(result->latencies);
    return measured;
}

namespace {

RawResult
RunConv(sim::Simulator &sim, ssd::ConventionalSsd &device,
        host::IoStack &stack, uint32_t queue_depth, uint64_t request_bytes,
        Pattern pattern, bool is_write, const RawRunConfig &run)
{
    SDF_CHECK(queue_depth >= 1);
    SDF_CHECK(request_bytes > 0 && request_bytes <= device.user_capacity());

    auto meter = std::make_shared<Meter>();
    auto result = std::make_shared<RawResult>();
    auto rng = std::make_shared<util::Rng>(run.seed);
    auto cursor = std::make_shared<uint64_t>(0);
    const uint64_t slots = device.user_capacity() / request_bytes;
    SDF_CHECK(slots > 0);

    // One submitting thread with an async queue: modeled as `queue_depth`
    // independent closed loops sharing one offset stream.
    std::vector<std::unique_ptr<host::ClosedLoopActor>> actors;
    for (uint32_t q = 0; q < queue_depth; ++q) {
        auto aobs = ActorObs::Make(sim, "q", q);
        actors.push_back(std::make_unique<host::ClosedLoopActor>(
            sim, [&sim, &device, &stack, meter, result, rng, cursor, aobs,
                  slots, request_bytes, pattern,
                  is_write](host::ClosedLoopActor::Done done) {
                uint64_t slot;
                if (pattern == Pattern::kSequential) {
                    slot = (*cursor)++ % slots;
                } else {
                    slot = rng->NextBelow(slots);
                }
                const uint64_t offset = slot * request_bytes;
                const TimeNs start = sim.Now();
                // The conventional SSD is a black box: its whole interior
                // lands in the `device` stage (host costs still split out).
                obs::IoSpan *span = aobs->span_ptr();
                if (span != nullptr) span->Start(start);
                auto finish = [&sim, meter, result, aobs, request_bytes, start,
                               is_write, done]() {
                    aobs->FinishRequest(sim, is_write ? "write" : "read",
                                        meter->measuring);
                    if (meter->measuring) {
                        meter->bytes += request_bytes;
                        ++meter->ops;
                        result->latencies.Record(sim.Now() - start);
                    }
                    done();
                };
                static_assert(sim::Callback::kFitsInline<decltype(finish)>);
                stack.Issue(
                    [&device, offset, request_bytes, is_write](
                        host::IoStack::Completion d) {
                        if (is_write) {
                            device.Write(offset, request_bytes,
                                         [d](bool) { d(); });
                        } else {
                            device.Read(offset, request_bytes,
                                        [d](bool) { d(); });
                        }
                    },
                    std::move(finish), span);
            }));
    }
    RawResult measured = Measure(sim, actors, *meter, run);
    measured.latencies = std::move(result->latencies);
    return measured;
}

}  // namespace

RawResult
RunConvReads(sim::Simulator &sim, ssd::ConventionalSsd &device,
             host::IoStack &stack, uint32_t queue_depth,
             uint64_t request_bytes, Pattern pattern, const RawRunConfig &run)
{
    return RunConv(sim, device, stack, queue_depth, request_bytes, pattern,
                   /*is_write=*/false, run);
}

RawResult
RunConvWrites(sim::Simulator &sim, ssd::ConventionalSsd &device,
              host::IoStack &stack, uint32_t queue_depth,
              uint64_t request_bytes, Pattern pattern, const RawRunConfig &run)
{
    return RunConv(sim, device, stack, queue_depth, request_bytes, pattern,
                   /*is_write=*/true, run);
}

}  // namespace sdf::workload
