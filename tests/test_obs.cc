/**
 * @file
 * Tests for the observability subsystem (obs/): the metrics registry, the
 * per-request stage spans and their additivity invariant, the trace sink's
 * JSON output, and the determinism of the structured exporters — including
 * an end-to-end run on the SDF device verifying that the exported
 * per-stage latency means sum to the end-to-end mean.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>

#include "host/io_stack.h"
#include "obs/hub.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "sdf/sdf_device.h"
#include "sim/simulator.h"
#include "util/histogram.h"
#include "workload/raw_device.h"

namespace sdf {
namespace {

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

TEST(MetricsRegistry, RegisterSnapshotUnregister)
{
    obs::MetricsRegistry reg;
    uint64_t pages = 0;
    double util = 0.25;
    util::Histogram hist;
    hist.Add(10);
    hist.Add(30);

    reg.RegisterCounter("nand.ch00.page_reads", &pages);
    reg.RegisterGauge("nand.ch00.bus_utilization", [&]() { return util; });
    reg.RegisterHistogram("sdf.recovery_latency_ns", [&]() { return &hist; });
    EXPECT_EQ(reg.size(), 3u);

    pages = 7;
    const auto snap = reg.Take();
    EXPECT_EQ(snap.counters.at("nand.ch00.page_reads"), 7u);
    EXPECT_DOUBLE_EQ(snap.gauges.at("nand.ch00.bus_utilization"), 0.25);
    EXPECT_EQ(snap.histograms.at("sdf.recovery_latency_ns").count, 2u);
    EXPECT_EQ(snap.histograms.at("sdf.recovery_latency_ns").min, 10);
    EXPECT_EQ(snap.histograms.at("sdf.recovery_latency_ns").max, 30);

    // UnregisterPrefix removes the prefix and everything under "prefix.".
    reg.UnregisterPrefix("nand.ch00");
    EXPECT_EQ(reg.size(), 1u);
    reg.UnregisterPrefix("sdf");
    EXPECT_EQ(reg.size(), 0u);
}

TEST(MetricsRegistry, UnregisterPrefixIsSegmentAware)
{
    obs::MetricsRegistry reg;
    uint64_t a = 1, b = 2;
    reg.RegisterCounter("kv.slice.puts", &a);
    reg.RegisterCounter("kv.slicex.puts", &b);
    reg.UnregisterPrefix("kv.slice");
    // "kv.slicex.puts" does not live under "kv.slice." and must survive.
    EXPECT_EQ(reg.size(), 1u);
    EXPECT_EQ(reg.Take().counters.count("kv.slicex.puts"), 1u);
}

TEST(MetricsRegistry, UniquePrefixDisambiguatesDeterministically)
{
    obs::MetricsRegistry reg;
    EXPECT_EQ(reg.UniquePrefix("kv.slice"), "kv.slice");
    EXPECT_EQ(reg.UniquePrefix("kv.slice"), "kv.slice.2");
    EXPECT_EQ(reg.UniquePrefix("kv.slice"), "kv.slice.3");
    EXPECT_EQ(reg.UniquePrefix("net"), "net");
}

// ---------------------------------------------------------------------------
// IoSpan / StageCollector
// ---------------------------------------------------------------------------

TEST(IoSpan, SegmentsTileTheLifetimeExactly)
{
    obs::IoSpan span;
    span.Start(100);
    span.Enter(obs::Stage::kQueue, 150);         // host_issue: 50
    span.Enter(obs::Stage::kFlashOp, 400);       // queue: 250
    span.Enter(obs::Stage::kInterrupt, 1000);    // flash_op: 600
    span.Enter(obs::Stage::kHostComplete, 1300); // interrupt: 300
    span.Finish(1500);                           // host_complete: 200

    EXPECT_EQ(span.stage_ns(obs::Stage::kHostIssue), 50);
    EXPECT_EQ(span.stage_ns(obs::Stage::kQueue), 250);
    EXPECT_EQ(span.stage_ns(obs::Stage::kFlashOp), 600);
    EXPECT_EQ(span.stage_ns(obs::Stage::kInterrupt), 300);
    EXPECT_EQ(span.stage_ns(obs::Stage::kHostComplete), 200);
    EXPECT_EQ(span.total_ns(), 1400);

    util::TimeNs sum = 0;
    for (size_t s = 0; s < obs::kStageCount; ++s) {
        sum += span.stage_ns(static_cast<obs::Stage>(s));
    }
    EXPECT_EQ(sum, span.total_ns());
}

TEST(IoSpan, OutOfOrderTimestampsAreClampedMonotonic)
{
    obs::IoSpan span;
    span.Start(1000);
    span.Enter(obs::Stage::kQueue, 2000);
    span.Enter(obs::Stage::kFlashOp, 1500);  // Late marker: clamped to 2000.
    span.Finish(3000);
    EXPECT_EQ(span.stage_ns(obs::Stage::kQueue), 0);
    EXPECT_EQ(span.stage_ns(obs::Stage::kFlashOp), 1000);
    EXPECT_EQ(span.total_ns(), 2000);
}

TEST(IoSpan, ReusableAfterFinish)
{
    obs::IoSpan span;
    span.Start(0);
    span.Finish(100);
    EXPECT_TRUE(span.finished());
    span.Enter(obs::Stage::kQueue, 200);  // Ignored once finished.
    EXPECT_EQ(span.total_ns(), 100);
    span.Start(1000);
    EXPECT_FALSE(span.finished());
    span.Finish(1250);
    EXPECT_EQ(span.total_ns(), 250);
    EXPECT_EQ(span.stage_ns(obs::Stage::kHostIssue), 250);
}

TEST(StageCollector, AdditivitySurvivesAggregation)
{
    obs::StageCollector coll;
    for (int i = 1; i <= 10; ++i) {
        obs::IoSpan span;
        span.Start(0);
        span.Enter(obs::Stage::kFlashOp, i * 10);
        span.Finish(i * 10 + 5);
        coll.Record("read", span);
    }
    const auto &s = coll.ops().at("read");
    EXPECT_EQ(s.count, 10u);
    double stage_mean_sum = 0;
    for (size_t st = 0; st < obs::kStageCount; ++st) {
        stage_mean_sum += s.StageMeanNs(static_cast<obs::Stage>(st));
    }
    EXPECT_DOUBLE_EQ(stage_mean_sum, s.TotalMeanNs());
    EXPECT_EQ(s.end_to_end.count(), 10u);
}

// ---------------------------------------------------------------------------
// TraceSink
// ---------------------------------------------------------------------------

TEST(TraceSink, EmitsWellFormedTrackedEvents)
{
    obs::TraceSink sink;
    const int32_t bus = sink.RegisterTrack("flash", "ch00.bus");
    const int32_t p0 = sink.RegisterTrack("flash", "ch00.p0");
    const int32_t req = sink.RegisterTrack("host", "req.ch00");
    EXPECT_EQ(sink.RegisterTrack("flash", "ch00.bus"), bus);  // Idempotent.
    EXPECT_EQ(sink.tracks(), 3u);
    EXPECT_NE(bus, p0);

    sink.Complete(p0, "tR", 1000, 60000);
    sink.Complete(bus, "xfer", 61000, 21500);
    sink.Complete(req, "read", 0, 90123);
    EXPECT_EQ(sink.events(), 3u);

    const std::string json = sink.ToJson();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"process_name\""), std::string::npos);
    EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
    EXPECT_NE(json.find("\"ch00.bus\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    // 90123 ns -> 90.123 us in the exported microsecond timebase.
    EXPECT_NE(json.find("\"dur\":90.123"), std::string::npos);
    // Balanced braces/brackets (cheap well-formedness check; the full
    // parse happens in tools/validate_stats.py during scripts/check.sh).
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
    EXPECT_EQ(std::count(json.begin(), json.end(), '['),
              std::count(json.begin(), json.end(), ']'));
}

TEST(TraceSink, CapCountsDroppedEvents)
{
    obs::TraceSink sink(2);
    const int32_t t = sink.RegisterTrack("flash", "ch00.bus");
    sink.Complete(t, "a", 0, 1);
    sink.Complete(t, "b", 1, 1);
    sink.Complete(t, "c", 2, 1);
    EXPECT_EQ(sink.events(), 2u);
    EXPECT_EQ(sink.dropped(), 1u);
}

TEST(TraceSink, ExportReportsDroppedEvents)
{
    // A capped trace must say so in the document itself, not only on
    // stderr: a tool reading the file sees how much is missing.
    obs::TraceSink sink(2);
    const int32_t t = sink.RegisterTrack("flash", "ch00.bus");
    sink.Complete(t, "a", 0, 1);
    sink.Complete(t, "b", 1, 1);
    EXPECT_NE(sink.ToJson().find("\"dropped_events\":0"),
              std::string::npos);
    sink.Complete(t, "c", 2, 1);
    sink.Complete(t, "d", 3, 1);
    EXPECT_NE(sink.ToJson().find("\"dropped_events\":2"),
              std::string::npos);
}

TEST(TraceSink, TraceIdsExportAsFlowArgs)
{
    obs::TraceSink sink;
    const int32_t t = sink.RegisterTrack("cluster", "client");
    sink.Complete(t, "get", 0, 1000, /*trace_id=*/42);
    sink.Complete(t, "untraced", 2000, 1000);  // No args block.
    const std::string json = sink.ToJson();
    EXPECT_NE(json.find("\"args\":{\"trace\":42}"), std::string::npos);
    EXPECT_EQ(json.find("\"args\":{\"trace\":0}"), std::string::npos);
}

TEST(MetricsRegistry, DuplicatePathIsRefusedKeepingFirst)
{
#ifdef NDEBUG
    obs::MetricsRegistry reg;
    uint64_t first = 7, second = 99;
    EXPECT_EQ(reg.RegisterCounter("dup.count", &first),
              obs::RegisterStatus::kOk);
    EXPECT_EQ(reg.RegisterCounter("dup.count", &second),
              obs::RegisterStatus::kDuplicatePath);
    EXPECT_EQ(reg.duplicates_refused(), 1u);
    // The first registration stays live; the usurper is ignored.
    EXPECT_EQ(reg.Take().counters.at("dup.count"), 7u);
    // A retired path may be reused (scoped benches rebuild components).
    reg.UnregisterPrefix("dup");
    EXPECT_EQ(reg.RegisterCounter("dup.count", &second),
              obs::RegisterStatus::kOk);
    EXPECT_EQ(reg.Take().counters.at("dup.count"), 99u);
#else
    GTEST_SKIP() << "debug builds abort on duplicate registration";
#endif
}

// ---------------------------------------------------------------------------
// End-to-end: instrumented SDF run
// ---------------------------------------------------------------------------

struct SdfRunOutput
{
    std::string stats_json;
    std::string trace_json;
    double stage_mean_sum = 0;
    double e2e_mean = 0;
    uint64_t op_count = 0;
    uint64_t page_reads = 0;
};

/** One short instrumented random-read run; returns the exported docs. */
SdfRunOutput
RunInstrumentedSdf(uint64_t seed)
{
    obs::Hub hub;
    hub.EnableTrace();

    sim::Simulator sim;
    sim.set_hub(&hub);
    core::SdfDevice device(sim, core::BaiduSdfConfig(0.01));
    host::IoStack stack(sim, host::SdfUserStackSpec());
    workload::PreconditionSdf(device);

    workload::RawRunConfig run;
    run.warmup = util::MsToNs(20);
    run.duration = util::MsToNs(100);
    run.seed = seed;
    workload::RunSdfReads(sim, device, stack, 8, 8 * util::kKiB,
                          workload::Pattern::kRandom, run);

    SdfRunOutput out;
    const obs::MetaMap meta{{"device", "sdf"}, {"workload", "randread"}};
    const obs::DerivedMap derived{{"result.mbps", 1.0}};
    out.stats_json = obs::StatsJson(hub, meta, derived);
    out.trace_json = hub.trace()->ToJson();

    const auto &ops = hub.stages().ops();
    EXPECT_EQ(ops.count("read"), 1u);
    const auto &s = ops.at("read");
    out.op_count = s.count;
    out.e2e_mean = s.TotalMeanNs();
    for (size_t st = 0; st < obs::kStageCount; ++st) {
        out.stage_mean_sum += s.StageMeanNs(static_cast<obs::Stage>(st));
    }
    out.page_reads = hub.metrics().Take().counters.at("nand.ch00.page_reads");
    return out;
}

TEST(ObsEndToEnd, StageMeansSumToEndToEndMean)
{
    const SdfRunOutput out = RunInstrumentedSdf(42);
    ASSERT_GT(out.op_count, 0u);
    ASSERT_GT(out.e2e_mean, 0.0);
    // Acceptance bound is 1%; the cut-point construction makes it exact
    // up to floating-point rounding.
    EXPECT_NEAR(out.stage_mean_sum / out.e2e_mean, 1.0, 1e-9);
    EXPECT_GT(out.page_reads, 0u);
}

TEST(ObsEndToEnd, ExportsContainEveryLayer)
{
    const SdfRunOutput out = RunInstrumentedSdf(42);
    for (const char *needle :
         {"\"nand.ch00.page_reads\"", "\"sdf.page_reads\"",
          "\"link.to_host_bytes\"",
          "\"irq.completions\"", "\"stages\"", "\"end_to_end_ns_mean\"",
          "\"stage_ns_mean\""}) {
        EXPECT_NE(out.stats_json.find(needle), std::string::npos) << needle;
    }
    EXPECT_NE(out.trace_json.find("\"ch00.bus\""), std::string::npos);
    EXPECT_NE(out.trace_json.find("\"req.ch00\""), std::string::npos);
}

TEST(ObsEndToEnd, SameSeedRunsExportByteIdenticalStats)
{
    const SdfRunOutput a = RunInstrumentedSdf(42);
    const SdfRunOutput b = RunInstrumentedSdf(42);
    EXPECT_EQ(a.stats_json, b.stats_json);
    EXPECT_EQ(a.trace_json, b.trace_json);

    const SdfRunOutput c = RunInstrumentedSdf(43);
    EXPECT_NE(a.stats_json, c.stats_json);  // The seed actually matters.
}

TEST(ObsEndToEnd, DeviceDestructionUnregistersButRetainsFinalValues)
{
    obs::Hub hub;
    sim::Simulator sim;
    sim.set_hub(&hub);
    {
        core::SdfDevice device(sim, core::BaiduSdfConfig(0.01));
        EXPECT_GT(hub.metrics().size(), 0u);
    }
    // No live sources remain (nothing can read freed memory), but the
    // final values survive so end-of-main exports still see scoped
    // components.
    EXPECT_EQ(hub.metrics().size(), 0u);
    const auto snap = hub.metrics().Take();
    EXPECT_GT(snap.counters.size(), 0u);
    EXPECT_EQ(snap.counters.count("sdf.page_reads"), 1u);
}

TEST(ObsEndToEnd, NoHubInstalledIsInert)
{
    sim::Simulator sim;
    ASSERT_EQ(sim.hub(), nullptr);
    core::SdfDevice device(sim, core::BaiduSdfConfig(0.01));
    host::IoStack stack(sim, host::SdfUserStackSpec());
    workload::PreconditionSdf(device);
    workload::RawRunConfig run;
    run.warmup = util::MsToNs(10);
    run.duration = util::MsToNs(50);
    const auto r = workload::RunSdfReads(sim, device, stack, 4, 8 * util::kKiB,
                                         workload::Pattern::kRandom, run);
    EXPECT_GT(r.operations, 0u);
}

}  // namespace
}  // namespace sdf
