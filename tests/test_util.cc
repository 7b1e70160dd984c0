/**
 * @file
 * Unit tests for the utility layer: units, RNG, histogram, throughput
 * meter, fingerprints, table printing, and the ring and flat map.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <deque>
#include <limits>
#include <set>
#include <unordered_map>
#include <vector>

#include "util/fingerprint.h"
#include "util/flat_map.h"
#include "util/histogram.h"
#include "util/latency_recorder.h"
#include "util/ring.h"
#include "util/rng.h"
#include "util/table_printer.h"
#include "util/units.h"

namespace sdf::util {
namespace {

// ---------------------------------------------------------------------------
// Units
// ---------------------------------------------------------------------------

TEST(Units, TimeConversionsRoundTrip)
{
    EXPECT_EQ(UsToNs(1), 1000);
    EXPECT_EQ(MsToNs(1), 1000000);
    EXPECT_EQ(SecToNs(1), 1000000000);
    EXPECT_DOUBLE_EQ(NsToMs(MsToNs(383)), 383.0);
    EXPECT_DOUBLE_EQ(NsToUs(UsToNs(12.9)), 12.9);
}

TEST(Units, FitsClockBoundsTimeConversions)
{
    EXPECT_TRUE(FitsClock(0));
    EXPECT_TRUE(FitsClock(1e18));  // ~31.7 years.
    EXPECT_FALSE(FitsClock(-1));
    EXPECT_FALSE(FitsClock(9.3e18));  // Past 2^63 - 1 ns.
    EXPECT_FALSE(FitsClock(1e300 * kNsPerSec));
    EXPECT_FALSE(FitsClock(std::numeric_limits<double>::infinity()));
    EXPECT_FALSE(FitsClock(std::numeric_limits<double>::quiet_NaN()));
}

TEST(Units, TransferTimeMatchesRate)
{
    // 40 MB at 40 MB/s = 1 s.
    EXPECT_EQ(TransferTimeNs(40 * kMB, 40e6), kNsPerSec);
    // Zero rate means an infinitely fast link.
    EXPECT_EQ(TransferTimeNs(12345, 0.0), 0);
}

TEST(Units, BandwidthComputation)
{
    EXPECT_DOUBLE_EQ(BandwidthMBps(100 * kMB, SecToNs(1)), 100.0);
    EXPECT_DOUBLE_EQ(BandwidthMBps(1, 0), 0.0);
}

TEST(Units, FormatBytesPicksUnits)
{
    EXPECT_EQ(FormatBytes(704 * kGB), "704 GB");
    EXPECT_EQ(FormatBytes(8 * kMB), "8 MB");
    EXPECT_EQ(FormatBytes(8 * kKiB), "8.0 KiB");
    EXPECT_EQ(FormatBytes(100), "100 B");
}

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(Rng, DeterministicForEqualSeeds)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i) {
        if (a.Next() == b.Next()) ++same;
    }
    EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowStaysInBounds)
{
    Rng rng(7);
    for (uint64_t bound : {1ULL, 2ULL, 44ULL, 1000000007ULL}) {
        for (int i = 0; i < 200; ++i) EXPECT_LT(rng.NextBelow(bound), bound);
    }
}

TEST(Rng, NextBelowCoversRange)
{
    Rng rng(11);
    std::set<uint64_t> seen;
    for (int i = 0; i < 2000; ++i) seen.insert(rng.NextBelow(44));
    EXPECT_EQ(seen.size(), 44u);
}

TEST(Rng, NextInRangeInclusive)
{
    Rng rng(3);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const int64_t v = rng.NextInRange(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        saw_lo |= v == -3;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng rng(5);
    for (int i = 0; i < 1000; ++i) {
        const double d = rng.NextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, BernoulliApproximatesProbability)
{
    Rng rng(9);
    int hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) hits += rng.NextBool(0.3);
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, ExponentialHasRequestedMean)
{
    Rng rng(13);
    double sum = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) sum += rng.NextExponential(50.0);
    EXPECT_NEAR(sum / n, 50.0, 2.0);
}

TEST(Rng, ForkProducesIndependentStream)
{
    Rng parent(1);
    Rng child = parent.Fork();
    EXPECT_NE(parent.Next(), child.Next());
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

TEST(Histogram, EmptyIsAllZero)
{
    Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.min(), 0);
    EXPECT_EQ(h.max(), 0);
    EXPECT_DOUBLE_EQ(h.Mean(), 0.0);
    EXPECT_DOUBLE_EQ(h.Quantile(0.5), 0.0);
}

TEST(Histogram, TracksExactSmallValues)
{
    Histogram h;
    for (int v : {1, 2, 3, 4, 5}) h.Add(v);
    EXPECT_EQ(h.count(), 5u);
    EXPECT_EQ(h.min(), 1);
    EXPECT_EQ(h.max(), 5);
    EXPECT_DOUBLE_EQ(h.Mean(), 3.0);
}

TEST(Histogram, QuantilesAreMonotonic)
{
    Histogram h;
    Rng rng(17);
    for (int i = 0; i < 10000; ++i)
        h.Add(static_cast<int64_t>(rng.NextBelow(1000000)));
    double prev = -1;
    for (double q = 0.0; q <= 1.0; q += 0.05) {
        const double v = h.Quantile(q);
        EXPECT_GE(v, prev);
        prev = v;
    }
    EXPECT_LE(h.Quantile(1.0), static_cast<double>(h.max()));
}

TEST(Histogram, QuantileRelativeErrorBounded)
{
    Histogram h;
    // Uniform 0..99999: p50 should be ~50000 within bucket error (~7 %).
    for (int i = 0; i < 100000; ++i) h.Add(i);
    EXPECT_NEAR(h.Quantile(0.5), 50000, 5000);
    EXPECT_NEAR(h.Quantile(0.99), 99000, 8000);
}

TEST(Histogram, NegativeClampsToZero)
{
    Histogram h;
    h.Add(-5);
    EXPECT_EQ(h.min(), 0);
    EXPECT_EQ(h.count(), 1u);
}

TEST(Histogram, MergeCombinesCounts)
{
    Histogram a, b;
    for (int i = 0; i < 100; ++i) a.Add(10);
    for (int i = 0; i < 100; ++i) b.Add(1000);
    a.Merge(b);
    EXPECT_EQ(a.count(), 200u);
    EXPECT_EQ(a.min(), 10);
    EXPECT_EQ(a.max(), 1000);
    EXPECT_DOUBLE_EQ(a.Mean(), 505.0);
}

TEST(Histogram, StdDevMatchesKnownDistribution)
{
    Histogram h;
    h.Add(10);
    h.Add(20);
    EXPECT_NEAR(h.StdDev(), 7.07, 0.01);
}

TEST(Histogram, ResetClears)
{
    Histogram h;
    h.Add(5);
    h.Reset();
    EXPECT_EQ(h.count(), 0u);
}

TEST(Histogram, DeltaRecoversWindowBetweenSnapshots)
{
    Histogram prev;
    for (int i = 0; i < 100; ++i) prev.Add(10);
    Histogram cur = prev;
    for (int i = 0; i < 100; ++i) cur.Add(1000);
    const Histogram d = Histogram::Delta(prev, cur);
    EXPECT_EQ(d.count(), 100u);
    EXPECT_NEAR(d.Mean(), 1000.0, 1e-9);
    EXPECT_NEAR(d.Quantile(0.5), 1000.0, 1000.0 / 16.0 + 1);
}

TEST(Histogram, DeltaSingleSampleWindowIsExactAtEveryQuantile)
{
    // Regression: a window containing exactly one sample used to report
    // mid-bucket interpolations (up to one bucket width off) for every
    // quantile. The sum difference recovers the sample exactly, so the
    // delta must pin min/max/quantiles to it.
    Histogram prev;
    for (int i = 0; i < 50; ++i) prev.Add(123456);
    Histogram cur = prev;
    cur.Add(99999);  // The only sample in the window.
    const Histogram d = Histogram::Delta(prev, cur);
    ASSERT_EQ(d.count(), 1u);
    EXPECT_EQ(d.min(), 99999);
    EXPECT_EQ(d.max(), 99999);
    for (double q : {0.0, 0.5, 0.99, 1.0}) {
        EXPECT_DOUBLE_EQ(d.Quantile(q), 99999.0) << "q=" << q;
    }
}

TEST(Histogram, DeltaWithResetInBetweenReturnsCurrent)
{
    Histogram prev;
    prev.Add(500);
    Histogram cur;  // Fresh (simulates a Reset between snapshots).
    cur.Add(7);
    const Histogram d = Histogram::Delta(prev, cur);
    EXPECT_EQ(d.count(), 1u);
    EXPECT_EQ(d.min(), 7);
}

// ---------------------------------------------------------------------------
// LatencyRecorder
// ---------------------------------------------------------------------------

TEST(LatencyRecorder, KeepsSeriesWhenAsked)
{
    LatencyRecorder r(true);
    r.Record(MsToNs(7));
    r.Record(MsToNs(650));
    ASSERT_EQ(r.series().size(), 2u);
    EXPECT_DOUBLE_EQ(r.MinMs(), 7.0);
    EXPECT_DOUBLE_EQ(r.MaxMs(), 650.0);
    EXPECT_NEAR(r.MeanMs(), 328.5, 0.01);
}

TEST(LatencyRecorder, DropsSeriesByDefault)
{
    LatencyRecorder r;
    r.Record(100);
    EXPECT_TRUE(r.series().empty());
    EXPECT_EQ(r.count(), 1u);
}

// ---------------------------------------------------------------------------
// Fingerprint
// ---------------------------------------------------------------------------

TEST(Fingerprint, StableAndSensitive)
{
    EXPECT_EQ(Fingerprint("sdf"), Fingerprint("sdf"));
    EXPECT_NE(Fingerprint("sdf"), Fingerprint("sdg"));
    EXPECT_NE(Fingerprint(""), Fingerprint("x"));
}

TEST(Fingerprint, DeterministicPayloadsRepeatable)
{
    const auto a = MakeDeterministicPayload(1000, 7);
    const auto b = MakeDeterministicPayload(1000, 7);
    const auto c = MakeDeterministicPayload(1000, 8);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
    EXPECT_EQ(Fingerprint(a.data(), a.size()), Fingerprint(b.data(), b.size()));
}

TEST(Fingerprint, PayloadTailBytesFilled)
{
    // Non-multiple-of-8 length must still fill the tail.
    const auto p = MakeDeterministicPayload(13, 3);
    bool any_nonzero = false;
    for (size_t i = 8; i < p.size(); ++i) any_nonzero |= p[i] != 0;
    EXPECT_TRUE(any_nonzero);
}

// ---------------------------------------------------------------------------
// TablePrinter
// ---------------------------------------------------------------------------

TEST(TablePrinter, AlignsColumns)
{
    TablePrinter t("Demo");
    t.SetHeader({"Device", "MB/s"});
    t.AddRow({"SDF", "1590"});
    t.AddRow({"Huawei Gen3", "1200"});
    const std::string s = t.ToString();
    EXPECT_NE(s.find("== Demo =="), std::string::npos);
    EXPECT_NE(s.find("Device"), std::string::npos);
    EXPECT_NE(s.find("Huawei Gen3"), std::string::npos);
}

TEST(TablePrinter, NumberFormatting)
{
    EXPECT_EQ(TablePrinter::Num(1.234, 2), "1.23");
    EXPECT_EQ(TablePrinter::Num(1.0, 0), "1");
    EXPECT_EQ(TablePrinter::Int(-42), "-42");
}

TEST(TablePrinter, HandlesRaggedRows)
{
    TablePrinter t("Ragged");
    t.SetHeader({"a", "b", "c"});
    t.AddRow({"only-one"});
    const std::string s = t.ToString();
    EXPECT_NE(s.find("only-one"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Ring and FlatMap, against the standard containers
// ---------------------------------------------------------------------------

TEST(Ring, MatchesDequeThroughGrowthAndWrap)
{
    Ring<int> ring;
    std::deque<int> ref;
    Rng rng(4);
    for (int op = 0; op < 5000; ++op) {
        const uint64_t pick = rng.NextBelow(5);
        if (pick < 2) {
            ring.push_back(op);
            ref.push_back(op);
        } else if (pick == 2) {
            ring.push_front(op);
            ref.push_front(op);
        } else if (!ref.empty()) {
            ring.pop_front();
            ref.pop_front();
        }
        ASSERT_EQ(ring.size(), ref.size());
        for (size_t i = 0; i < ref.size(); ++i) ASSERT_EQ(ring[i], ref[i]);
    }
}

TEST(FlatMap, MatchesUnorderedMapThroughGrowthAndErase)
{
    // Keys a multiple of 2^40 apart share their low bits, and a small key
    // space makes inserts, overwrites and erases of present keys common.
    FlatMap<uint64_t> map;
    std::unordered_map<uint64_t, uint64_t> ref;
    Rng rng(6);
    std::vector<uint64_t> keys;
    for (uint64_t i = 0; i < 200; ++i)
        keys.push_back(i % 2 == 0 ? i << 40 : rng.Next());
    for (int op = 0; op < 20000; ++op) {
        const uint64_t key = keys[rng.NextBelow(keys.size())];
        if (rng.NextBelow(3) == 0) {
            map.erase(key);
            ref.erase(key);
        } else {
            map[key] += static_cast<uint64_t>(op);
            ref[key] += static_cast<uint64_t>(op);
        }
        ASSERT_EQ(map.size(), ref.size());
    }
    for (uint64_t key : keys) {
        auto want = ref.find(key);
        const uint64_t *got = map.find(key);
        if (want == ref.end()) {
            EXPECT_EQ(got, nullptr);
        } else {
            ASSERT_NE(got, nullptr);
            EXPECT_EQ(*got, want->second);
        }
    }
}

}  // namespace
}  // namespace sdf::util
