/**
 * @file
 * Statistical and behavioral tests for the YCSB workload engine:
 * chi-square goodness-of-fit of the Zipfian sampler against its analytic
 * pmf at several exponents, golden first-N sample sequences (the
 * determinism contract, pinned), key-chooser and value-distribution
 * behavior through an instrumented fake service, exact phase-boundary
 * accounting (per-phase counts sum to run totals; SLO violations
 * localize to the phase that caused them), and cluster range-scan
 * correctness under concurrent writes and a mid-run node restart.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "client/kv_client.h"
#include "cluster/cluster.h"
#include "sim/simulator.h"
#include "testbed/testbed.h"
#include "util/rng.h"
#include "workload/kv_driver.h"
#include "workload/ycsb.h"

namespace sdf {
namespace {

using util::TimeNs;

// ---------------------------------------------------------------------------
// Chi-square machinery: regularized incomplete gamma (Numerical-Recipes
// style series + continued fraction), so the tests can turn a chi-square
// statistic into an actual p-value with no external dependency.
// ---------------------------------------------------------------------------

/** Lower regularized incomplete gamma P(a,x) by series (x < a+1). */
double
GammaPSeries(double a, double x)
{
    double ap = a;
    double sum = 1.0 / a;
    double del = sum;
    for (int i = 0; i < 500; ++i) {
        ap += 1.0;
        del *= x / ap;
        sum += del;
        if (std::abs(del) < std::abs(sum) * 1e-12) break;
    }
    return sum * std::exp(-x + a * std::log(x) - std::lgamma(a));
}

/** Upper regularized incomplete gamma Q(a,x) by continued fraction. */
double
GammaQContinued(double a, double x)
{
    const double kTiny = 1e-300;
    double b = x + 1.0 - a;
    double c = 1.0 / kTiny;
    double d = 1.0 / b;
    double h = d;
    for (int i = 1; i < 500; ++i) {
        const double an = -i * (i - a);
        b += 2.0;
        d = an * d + b;
        if (std::abs(d) < kTiny) d = kTiny;
        c = b + an / c;
        if (std::abs(c) < kTiny) c = kTiny;
        d = 1.0 / d;
        const double del = d * c;
        h *= del;
        if (std::abs(del - 1.0) < 1e-12) break;
    }
    return std::exp(-x + a * std::log(x) - std::lgamma(a)) * h;
}

/** P(chi2 >= observed) for @p df degrees of freedom. */
double
ChiSquarePValue(double chi2, double df)
{
    const double a = df / 2.0;
    const double x = chi2 / 2.0;
    if (x <= 0.0) return 1.0;
    if (x < a + 1.0) return 1.0 - GammaPSeries(a, x);
    return GammaQContinued(a, x);
}

/**
 * Draw @p samples ranks and test them against the analytic pmf.
 * @return the chi-square p-value (high = consistent with the pmf).
 */
double
ZipfGofPValue(uint64_t n, double theta, uint64_t samples, uint64_t seed)
{
    workload::ZipfianGenerator gen(n, theta);
    util::Rng rng(seed);
    std::vector<uint64_t> counts(n, 0);
    for (uint64_t i = 0; i < samples; ++i) {
        const uint64_t k = gen.Next(rng);
        EXPECT_GE(k, 1u);
        EXPECT_LE(k, n);
        ++counts[k - 1];
    }
    double chi2 = 0.0;
    double min_expected = 1e30;
    for (uint64_t k = 1; k <= n; ++k) {
        const double expected =
            gen.Pmf(k) * static_cast<double>(samples);
        min_expected = std::min(min_expected, expected);
        const double diff = static_cast<double>(counts[k - 1]) - expected;
        chi2 += diff * diff / expected;
    }
    // The asymptotic chi-square distribution needs every cell populated.
    EXPECT_GE(min_expected, 5.0);
    return ChiSquarePValue(chi2, static_cast<double>(n - 1));
}

TEST(ZipfianGenerator, ChiSquareAcceptsLowSkew)
{
    EXPECT_GT(ZipfGofPValue(100, 0.5, 200000, 42), 0.01);
}

TEST(ZipfianGenerator, ChiSquareAcceptsYcsbDefaultSkew)
{
    EXPECT_GT(ZipfGofPValue(100, 0.99, 200000, 42), 0.01);
}

TEST(ZipfianGenerator, ChiSquareAcceptsHighSkew)
{
    EXPECT_GT(ZipfGofPValue(100, 1.2, 200000, 42), 0.01);
}

TEST(ZipfianGenerator, ChiSquareRejectsWrongExponent)
{
    // Negative control: samples at theta=1.2 scored against the
    // theta=0.99 pmf must *fail* the test, or the acceptances above
    // prove nothing.
    const uint64_t n = 100, samples = 200000;
    workload::ZipfianGenerator wrong(n, 1.2);
    workload::ZipfianGenerator scored(n, 0.99);
    util::Rng rng(42);
    std::vector<uint64_t> counts(n, 0);
    for (uint64_t i = 0; i < samples; ++i) ++counts[wrong.Next(rng) - 1];
    double chi2 = 0.0;
    for (uint64_t k = 1; k <= n; ++k) {
        const double expected =
            scored.Pmf(k) * static_cast<double>(samples);
        const double diff = static_cast<double>(counts[k - 1]) - expected;
        chi2 += diff * diff / expected;
    }
    EXPECT_LT(ChiSquarePValue(chi2, static_cast<double>(n - 1)), 1e-6);
}

TEST(ZipfianGenerator, PmfNormalizesAndDecays)
{
    workload::ZipfianGenerator gen(100, 0.99);
    double sum = 0.0;
    for (uint64_t k = 1; k <= 100; ++k) {
        sum += gen.Pmf(k);
        if (k > 1) {
            EXPECT_LT(gen.Pmf(k), gen.Pmf(k - 1));
        }
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(ZipfianGenerator, GoldenSequencesPinDeterminism)
{
    // First 16 ranks for n=1000 at each exponent, seed 12345. These pin
    // the sampler bit-for-bit: any change to the rejection-inversion
    // arithmetic or the rng consumption order is a breaking change to
    // every golden export downstream and must show up here first.
    const struct
    {
        double theta;
        uint64_t want[16];
    } kGolden[] = {
        {0.5,
         {75, 762, 3, 908, 209, 980, 712, 506, 388, 12, 56, 226, 32, 6,
          752, 24}},
        {0.99,
         {4, 389, 1, 705, 17, 926, 313, 115, 59, 1, 3, 19, 2, 1, 373, 2}},
        {1.2, {2, 156, 1, 461, 5, 834, 110, 29, 14, 1, 1, 5, 1, 1, 145, 1}},
    };
    for (const auto &g : kGolden) {
        workload::ZipfianGenerator gen(1000, g.theta);
        util::Rng rng(12345);
        for (uint64_t want : g.want) {
            EXPECT_EQ(gen.Next(rng), want) << "theta " << g.theta;
        }
    }
}

TEST(ZipfianGenerator, SingleElementPopulation)
{
    workload::ZipfianGenerator gen(1, 0.99);
    util::Rng rng(1);
    for (int i = 0; i < 10; ++i) EXPECT_EQ(gen.Next(rng), 1u);
    EXPECT_NEAR(gen.Pmf(1), 1.0, 1e-12);
}

// ---------------------------------------------------------------------------
// Engine behavior through an instrumented fake service: records every
// key/size it is asked for and completes after a configurable simulated
// latency, so chooser and phase behavior is observable without device
// noise.
// ---------------------------------------------------------------------------

struct FakeService
{
    sim::Simulator &sim;
    /** Completion latency, possibly time-dependent. */
    std::function<TimeNs()> latency = [] { return util::UsToNs(100); };
    std::vector<uint64_t> get_keys;
    std::vector<uint64_t> put_keys;
    std::vector<uint32_t> put_sizes;
    std::vector<std::pair<uint64_t, uint32_t>> scan_calls;
    uint64_t inflight = 0;
    uint64_t peak_inflight = 0;

    explicit FakeService(sim::Simulator &s) : sim(s) {}

    /** Count one op in flight until its completion is delivered. */
    void
    Issue()
    {
        peak_inflight = std::max(peak_inflight, ++inflight);
    }

    workload::KvService
    Service()
    {
        workload::KvService svc;
        svc.get = [this](uint64_t key, kv::GetCallback done) {
            get_keys.push_back(key);
            Issue();
            auto d = std::make_shared<kv::GetCallback>(std::move(done));
            sim.Schedule(latency(), [this, d]() {
                kv::GetResult r;
                r.ok = true;
                r.found = true;
                r.value_size = 16;
                --inflight;
                (*d)(r);
            });
        };
        svc.put = [this](uint64_t key, uint32_t size, kv::PutCallback done) {
            put_keys.push_back(key);
            put_sizes.push_back(size);
            Issue();
            auto d = std::make_shared<kv::PutCallback>(std::move(done));
            sim.Schedule(latency(), [this, d]() {
                --inflight;
                (*d)(true);
            });
        };
        svc.scan = [this](uint64_t start, uint32_t limit,
                          std::function<void(const kv::ScanResult &)> done) {
            scan_calls.emplace_back(start, limit);
            Issue();
            sim.Schedule(latency(), [this, done]() {
                kv::ScanResult r;
                r.entries.push_back({1, 16});
                r.scanned_bytes = 16;
                --inflight;
                done(r);
            });
        };
        return svc;
    }
};

std::vector<uint64_t>
SequentialKeys(uint64_t n)
{
    std::vector<uint64_t> keys(n);
    for (uint64_t i = 0; i < n; ++i) keys[i] = i + 1;
    return keys;
}

TEST(RunYcsb, HotRangeChooserConcentratesOps)
{
    sim::Simulator sim;
    FakeService fake(sim);
    workload::YcsbConfig cfg;
    cfg.arrival_rate = 20000;
    cfg.duration = util::SecToNs(1.0);
    cfg.seed = 9;
    workload::YcsbPhase p;
    p.chooser = workload::KeyChooser::kHotRange;
    p.hot = {0.10, 0.50, 0.9};  // Keys 501..600 of 1..1000.
    cfg.phases = {p};

    const auto keys = SequentialKeys(1000);
    workload::RunYcsb(sim, fake.Service(), keys, cfg);

    ASSERT_GT(fake.get_keys.size(), 1000u);
    uint64_t hot = 0;
    for (uint64_t k : fake.get_keys) hot += (k >= 501 && k <= 600);
    const double frac =
        static_cast<double>(hot) / static_cast<double>(fake.get_keys.size());
    // 90% targeted + 10% uniform spillover (of which 10% lands inside):
    // expect ~0.91; allow generous sampling slack.
    EXPECT_GT(frac, 0.85);
    EXPECT_LT(frac, 0.97);
}

TEST(RunYcsb, ZipfianChooserSkewsAndUniformDoesNot)
{
    // The gets' keys, hottest first.
    auto by_heat = [](workload::KeyChooser chooser) {
        sim::Simulator sim;
        FakeService fake(sim);
        workload::YcsbConfig cfg;
        cfg.arrival_rate = 20000;
        cfg.duration = util::SecToNs(1.0);
        cfg.seed = 11;
        cfg.theta = 0.99;
        workload::YcsbPhase p;
        p.chooser = chooser;
        cfg.phases = {p};
        const auto keys = SequentialKeys(1000);
        workload::RunYcsb(sim, fake.Service(), keys, cfg);
        std::map<uint64_t, uint64_t> counts;
        for (uint64_t k : fake.get_keys) ++counts[k];
        std::vector<std::pair<uint64_t, uint64_t>> heat;  // (count, key)
        for (const auto &[k, c] : counts) heat.emplace_back(c, k);
        std::sort(heat.rbegin(), heat.rend());
        return heat;
    };
    auto top10_share = [](const std::vector<std::pair<uint64_t, uint64_t>>
                              &heat) {
        uint64_t top10 = 0, total = 0;
        for (size_t i = 0; i < heat.size(); ++i) {
            if (i < 10) top10 += heat[i].first;
            total += heat[i].first;
        }
        return static_cast<double>(top10) / static_cast<double>(total);
    };
    // Zipf(0.99) over 1000 keys: the 10 hottest ranks carry ~39% of the
    // mass (H(10)/H(1000) in the generalized harmonic numbers). Uniform:
    // exactly 1%, plus sampling noise.
    const auto zipf = by_heat(workload::KeyChooser::kZipfian);
    EXPECT_GT(top10_share(zipf), 0.3);
    EXPECT_LT(top10_share(by_heat(workload::KeyChooser::kUniform)), 0.05);
    // Ranks are scrambled over the key space: the hot set is not the
    // prefix of the population (keys 1..10) that raw ranks would pick.
    int in_prefix = 0;
    for (size_t i = 0; i < 10; ++i) in_prefix += zipf[i].second <= 10;
    EXPECT_LE(in_prefix, 2);
}

TEST(RunYcsb, LatestChooserFavorsNewestInserts)
{
    sim::Simulator sim;
    FakeService fake(sim);
    workload::YcsbConfig cfg;
    cfg.arrival_rate = 20000;
    cfg.duration = util::SecToNs(1.0);
    cfg.seed = 13;
    cfg.first_insert_key = 1000000;
    workload::YcsbPhase p;
    p.chooser = workload::KeyChooser::kLatest;
    p.mix = {0.8, 0.0, 0.2, 0.0};
    cfg.phases = {p};

    const auto keys = SequentialKeys(1000);
    const auto r = workload::RunYcsb(sim, fake.Service(), keys, cfg);
    ASSERT_GT(r.ok_inserts, 100u);

    // Reads of inserted keys (>= first_insert_key) must dominate reads
    // of the preloaded tail: recency-skewed traffic follows the inserts.
    uint64_t inserted_reads = 0, preload_head_reads = 0;
    for (uint64_t k : fake.get_keys) {
        if (k >= cfg.first_insert_key) ++inserted_reads;
        if (k <= 500) ++preload_head_reads;
    }
    EXPECT_GT(inserted_reads, preload_head_reads);
}

TEST(RunYcsb, ValueDistributionsRespectBounds)
{
    auto sizes = [](workload::ValueDist dist) {
        sim::Simulator sim;
        FakeService fake(sim);
        workload::YcsbConfig cfg;
        cfg.arrival_rate = 10000;
        cfg.duration = util::SecToNs(0.5);
        cfg.seed = 17;
        cfg.value_dist = dist;
        cfg.value_bytes = 1024;
        cfg.value_min = 512;
        cfg.value_max = 8192;
        workload::YcsbPhase p;
        p.mix = {0.0, 1.0, 0.0, 0.0};
        cfg.phases = {p};
        const auto keys = SequentialKeys(100);
        workload::RunYcsb(sim, fake.Service(), keys, cfg);
        return fake.put_sizes;
    };

    for (uint32_t s : sizes(workload::ValueDist::kFixed)) {
        EXPECT_EQ(s, 1024u);
    }

    const auto uniform = sizes(workload::ValueDist::kUniform);
    ASSERT_GT(uniform.size(), 1000u);
    uint32_t lo = UINT32_MAX, hi = 0;
    for (uint32_t s : uniform) {
        EXPECT_GE(s, 512u);
        EXPECT_LE(s, 8192u);
        lo = std::min(lo, s);
        hi = std::max(hi, s);
    }
    EXPECT_LT(lo, 1024u);   // Actually spreads across the range.
    EXPECT_GT(hi, 4096u);

    const auto ladder = sizes(workload::ValueDist::kFieldZipf);
    ASSERT_GT(ladder.size(), 1000u);
    uint64_t base = 0;
    for (uint32_t s : ladder) {
        // Power-of-two ladder rungs only, never past the cap.
        EXPECT_EQ(s & (s - 1), 0u);
        EXPECT_GE(s, 1024u);
        EXPECT_LE(s, 8192u);
        base += (s == 1024);
    }
    // Zipf-decaying rung choice: the base rung is the clear mode
    // (pmf(1) = 1/zeta(4, 0.99) ~ 0.48 of draws).
    EXPECT_GT(base, ladder.size() * 2 / 5);
}

TEST(RunYcsb, SameSeedIsDeterministic)
{
    auto run = []() {
        sim::Simulator sim;
        FakeService fake(sim);
        workload::YcsbConfig cfg;
        cfg.arrival_rate = 20000;
        cfg.duration = util::SecToNs(0.5);
        cfg.seed = 21;
        cfg = workload::YcsbProfile("storm", cfg);
        const auto keys = SequentialKeys(500);
        return workload::RunYcsb(sim, fake.Service(), keys, cfg);
    };
    const auto a = run();
    const auto b = run();
    EXPECT_EQ(a.issued, b.issued);
    EXPECT_EQ(a.acked_writes, b.acked_writes);
    ASSERT_EQ(a.phases.size(), b.phases.size());
    for (size_t i = 0; i < a.phases.size(); ++i) {
        EXPECT_EQ(a.phases[i].issued, b.phases[i].issued);
        EXPECT_EQ(a.phases[i].completed, b.phases[i].completed);
        EXPECT_EQ(a.phases[i].slo_violations, b.phases[i].slo_violations);
        EXPECT_EQ(a.phases[i].p99_ms, b.phases[i].p99_ms);
    }
}

TEST(RunYcsb, PhaseCountsSumExactlyToTotals)
{
    sim::Simulator sim;
    FakeService fake(sim);
    workload::YcsbConfig cfg;
    cfg.arrival_rate = 30000;
    cfg.duration = util::SecToNs(1.0);
    cfg.seed = 23;
    cfg = workload::YcsbProfile("diurnal", cfg);
    const auto keys = SequentialKeys(500);
    const auto r = workload::RunYcsb(sim, fake.Service(), keys, cfg);

    ASSERT_EQ(r.phases.size(), 4u);
    uint64_t issued = 0, completed = 0, ok = 0, viol = 0;
    for (const auto &p : r.phases) {
        issued += p.issued;
        completed += p.completed;
        ok += p.ok_reads + p.ok_updates + p.ok_inserts + p.ok_scans;
        viol += p.slo_violations;
    }
    EXPECT_EQ(issued, r.issued);
    EXPECT_EQ(completed, r.completed);
    // The run drains: every issued op completed and was attributed.
    EXPECT_EQ(r.completed, r.issued);
    EXPECT_EQ(ok, r.ok_reads + r.ok_updates + r.ok_inserts + r.ok_scans);
    EXPECT_EQ(viol, r.slo_violations);

    // The diurnal rate ramp is visible in the issue counts: noon (x2)
    // issues roughly twice morning (x1), morning roughly twice night
    // (x0.5). Poisson noise at these counts is ~2%.
    const double night = static_cast<double>(r.phases[0].issued);
    const double morning = static_cast<double>(r.phases[1].issued);
    const double noon = static_cast<double>(r.phases[2].issued);
    EXPECT_NEAR(morning / night, 2.0, 0.3);
    EXPECT_NEAR(noon / morning, 2.0, 0.3);
}

TEST(RunYcsb, SloViolationsLocalizeToTheSlowPhase)
{
    // Service latency depends on the simulated clock: fast except inside
    // the middle (spike) window, where every op takes 2 ms against a
    // 1 ms SLO. Attribution is by issue time, so exactly the spike
    // phase's ops violate — no smearing into neighbors.
    sim::Simulator sim;
    FakeService fake(sim);
    const TimeNs dur = util::SecToNs(1.0);
    const TimeNs spike_lo = dur * 2 / 5;  // storm profile: 0.4/0.2/0.4.
    const TimeNs spike_hi = dur * 3 / 5;
    fake.latency = [&sim, spike_lo, spike_hi]() {
        const TimeNs now = sim.Now();
        return now >= spike_lo && now < spike_hi ? util::MsToNs(2)
                                                 : util::UsToNs(50);
    };
    workload::YcsbConfig cfg;
    cfg.arrival_rate = 20000;
    cfg.duration = dur;
    cfg.seed = 29;
    cfg.slo = util::MsToNs(1);
    cfg = workload::YcsbProfile("storm", cfg);
    const auto keys = SequentialKeys(500);
    const auto r = workload::RunYcsb(sim, fake.Service(), keys, cfg);

    ASSERT_EQ(r.phases.size(), 3u);
    const auto &steady = r.phases[0];
    const auto &spike = r.phases[1];
    const auto &recovery = r.phases[2];
    EXPECT_EQ(steady.slo_violations, 0u);
    EXPECT_EQ(recovery.slo_violations, 0u);
    EXPECT_EQ(spike.slo_violations, spike.issued);
    EXPECT_EQ(r.slo_violations, spike.slo_violations);
    // The spike really ran at 3x arrivals over half the steady window's
    // duration: its issue count is ~1.5x steady's.
    EXPECT_GT(spike.issued, steady.issued);
}

TEST(RunYcsb, ProfilesHaveDocumentedShapes)
{
    workload::YcsbConfig base;
    EXPECT_EQ(workload::YcsbProfile("a", base).phases[0].mix.read, 0.5);
    EXPECT_EQ(workload::YcsbProfile("b", base).phases[0].mix.read, 0.95);
    EXPECT_EQ(workload::YcsbProfile("c", base).phases[0].mix.read, 1.0);
    EXPECT_EQ(workload::YcsbProfile("e", base).phases[0].mix.scan, 0.95);
    EXPECT_EQ(workload::YcsbProfile("storm", base).phases.size(), 3u);
    EXPECT_EQ(workload::YcsbProfile("storm", base).phases[1].chooser,
              workload::KeyChooser::kHotRange);
    EXPECT_EQ(workload::YcsbProfile("diurnal", base).phases.size(), 4u);
}

TEST(RunYcsb, ClosedLoopKeepsExactlyItsActorsInFlight)
{
    // 6 clients, 100 us per op, 50 ms: each client issues at 0, 100 us,
    // ... 49.9 ms — 500 ops apiece — and the arrival rate plays no part.
    sim::Simulator sim;
    FakeService fake(sim);
    workload::YcsbConfig cfg;
    cfg.actors = 6;
    cfg.arrival_rate = 1;
    cfg.duration = util::MsToNs(50);
    cfg.seed = 41;
    cfg.phases = {workload::UniformMix(0.8)};
    const auto r =
        workload::RunYcsb(sim, fake.Service(), SequentialKeys(100), cfg);

    EXPECT_EQ(fake.peak_inflight, 6u);
    EXPECT_EQ(fake.inflight, 0u);
    EXPECT_EQ(r.issued, 3000u);
    // The run drains: every op issued before the end completed.
    EXPECT_EQ(r.completed, r.issued);
    EXPECT_EQ(r.ok_reads + r.ok_inserts, r.issued);
    EXPECT_EQ(fake.put_keys.size(), r.ok_inserts);
}

TEST(RunYcsb, ClosedLoopPhaseCountsSumExactlyToTotals)
{
    // Closed loop ignores rate multipliers: the diurnal schedule's four
    // equal windows each issue the same number of ops (give or take the
    // clients straddling a boundary), while mixes still switch.
    sim::Simulator sim;
    FakeService fake(sim);
    workload::YcsbConfig cfg;
    cfg.actors = 4;
    cfg.duration = util::MsToNs(80);
    cfg.seed = 43;
    cfg = workload::YcsbProfile("diurnal", cfg);
    const auto r =
        workload::RunYcsb(sim, fake.Service(), SequentialKeys(500), cfg);

    ASSERT_EQ(r.phases.size(), 4u);
    uint64_t issued = 0, completed = 0, ok = 0;
    for (const auto &p : r.phases) {
        issued += p.issued;
        completed += p.completed;
        ok += p.ok_reads + p.ok_updates + p.ok_inserts + p.ok_scans;
        EXPECT_EQ(p.issued, 800u) << p.name;
    }
    EXPECT_EQ(issued, r.issued);
    EXPECT_EQ(completed, r.completed);
    EXPECT_EQ(r.completed, r.issued);
    EXPECT_EQ(ok, r.ok_reads + r.ok_updates + r.ok_inserts + r.ok_scans);
    // The write-heavy evening really writes more than the morning.
    EXPECT_GT(r.phases[3].ok_updates, 2 * r.phases[1].ok_updates);
}

TEST(RunYcsb, ClosedLoopSameSeedIsByteIdentical)
{
    auto run = [](std::vector<uint64_t> &gets) {
        sim::Simulator sim;
        FakeService fake(sim);
        // Latency varies with the clock so completions interleave.
        fake.latency = [&sim]() {
            return util::UsToNs(50 + sim.Now() % 97);
        };
        workload::YcsbConfig cfg;
        cfg.actors = 5;
        cfg.duration = util::MsToNs(40);
        cfg.seed = 47;
        cfg = workload::YcsbProfile("storm", cfg);
        const auto r =
            workload::RunYcsb(sim, fake.Service(), SequentialKeys(300), cfg);
        gets = fake.get_keys;
        return r;
    };
    std::vector<uint64_t> gets_a, gets_b;
    const auto a = run(gets_a);
    const auto b = run(gets_b);
    EXPECT_GT(a.issued, 1000u);
    EXPECT_EQ(a.issued, b.issued);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.ok_reads, b.ok_reads);
    EXPECT_EQ(a.ok_updates, b.ok_updates);
    EXPECT_EQ(a.p50_ms, b.p50_ms);
    EXPECT_EQ(a.p99_ms, b.p99_ms);
    EXPECT_EQ(a.read_p99_ms, b.read_p99_ms);
    EXPECT_EQ(a.acked_writes, b.acked_writes);
    EXPECT_EQ(gets_a, gets_b);
    ASSERT_EQ(a.phases.size(), b.phases.size());
    for (size_t i = 0; i < a.phases.size(); ++i) {
        EXPECT_EQ(a.phases[i].issued, b.phases[i].issued);
        EXPECT_EQ(a.phases[i].p99_ms, b.phases[i].p99_ms);
    }
}

/** Order-sensitive FNV-1a over a key sequence. */
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

/** A small real single-node store with keys 1..@p count put through it. */
struct SmallStore
{
    sim::Simulator sim;
    testbed::KvStack stack;
    std::vector<uint64_t> keys;

    explicit SmallStore(uint64_t count)
    {
        testbed::KvStackConfig kc;
        kc.stack.capacity_scale = 0.02;
        kc.stack.with_io_stack = false;
        kc.store.slice_count = 2;
        stack = testbed::BuildKvStack(sim, kc);
        for (uint64_t k = 1; k <= count; ++k) {
            keys.push_back(k);
            stack.store->Put(k, 4 * util::kKiB, [](bool) {});
        }
        sim.Run();
        // Flushed, so reads pay real device time.
        for (uint32_t s = 0; s < stack.store->slice_count(); ++s) {
            stack.store->slice(s).Flush();
        }
        sim.Run();
    }
};

TEST(RunYcsb, OpenLoopRunOverAStoreIsPinned)
{
    // Golden numbers for one open-loop run over a real store: any change
    // to the arrival clock, the op-mix draw order or the accounting shows
    // up here as a diff, not as a silently shifted benchmark.
    SmallStore st(200);
    workload::YcsbConfig cfg;
    cfg.arrival_rate = 5000;
    cfg.duration = util::MsToNs(100);
    cfg.seed = 37;
    cfg.scan_limit_max = 8;
    cfg.first_insert_key = 10000;
    workload::YcsbPhase p;
    p.mix = {0.6, 0.2, 0.1, 0.1};
    cfg.phases = {p};
    const auto r =
        workload::RunYcsb(st.sim, workload::ServiceFor(*st.stack.store),
                          st.keys, cfg);

    EXPECT_EQ(r.issued, 470u);
    EXPECT_EQ(r.completed, 470u);
    EXPECT_EQ(r.ok_reads, 272u);
    EXPECT_EQ(r.ok_updates, 104u);
    EXPECT_EQ(r.ok_inserts, 43u);
    EXPECT_EQ(r.ok_scans, 51u);
    EXPECT_EQ(r.scanned_keys, 201u);
    EXPECT_EQ(r.misses, 0u);
    EXPECT_EQ(r.shed_overloaded, 0u);
    EXPECT_EQ(r.shed_deadline, 0u);
    EXPECT_EQ(r.errors, 0u);
    EXPECT_EQ(r.slo_violations, 0u);
    EXPECT_DOUBLE_EQ(r.p99_ms, 1.15671);
    EXPECT_EQ(HashKeys(r.acked_writes), 10660535410151090907ULL);
}

// ---------------------------------------------------------------------------
// Cluster range scans: exactness under concurrent writes and restart.
// ---------------------------------------------------------------------------

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

/** Synchronous-style scan helper: runs the sim until the result lands. */
kv::ScanResult
ScanNow(sim::Simulator &sim, client::KvClient &client, uint64_t start,
        uint32_t limit)
{
    kv::ScanResult out;
    bool got = false;
    client.Scan(start, limit, [&](kv::ScanResult r) {
        out = std::move(r);
        got = true;
    });
    sim.Run();
    EXPECT_TRUE(got);
    return out;
}

TEST(ClusterScan, ReturnsExactlyTheLiveOrderedRange)
{
    sim::Simulator sim;
    cluster::Cluster cl(sim, TinyCluster(3, 2));
    ASSERT_EQ(cl.Preload(40, 16 * util::kKiB).size(), 40u);
    client::KvClient client(sim, cl.router());

    const auto r = ScanNow(sim, client, 10, 12);
    ASSERT_TRUE(r.ok);
    ASSERT_EQ(r.entries.size(), 12u);
    for (size_t i = 0; i < r.entries.size(); ++i) {
        EXPECT_EQ(r.entries[i].key, 10 + i);  // 10..21, no gaps.
        EXPECT_EQ(r.entries[i].value_size, 16 * util::kKiB);
    }
    EXPECT_EQ(r.scanned_bytes, 12 * 16 * util::kKiB);

    // Past the end of the population: exactly the tail, not limit keys.
    const auto tail = ScanNow(sim, client, 35, 100);
    ASSERT_TRUE(tail.ok);
    ASSERT_EQ(tail.entries.size(), 6u);  // 35..40.
    EXPECT_EQ(tail.entries.front().key, 35u);
    EXPECT_EQ(tail.entries.back().key, 40u);

    EXPECT_EQ(cl.router().scans(), 2u);
    EXPECT_EQ(cl.router().scan_keys(), 18u);
    EXPECT_EQ(client.stats().scans, 2u);
}

TEST(ClusterScan, SeesWritesCommittedBeforeTheScan)
{
    sim::Simulator sim;
    cluster::Cluster cl(sim, TinyCluster(3, 2));
    ASSERT_EQ(cl.Preload(20, 16 * util::kKiB).size(), 20u);
    client::KvClient client(sim, cl.router());

    // Interleave: new keys (WAL/memtable-resident, never flushed) land
    // between scans; each scan must observe everything acked before it.
    uint64_t acked = 0;
    cl.router().Put(101, 4 * util::kKiB, [&acked](bool ok) { acked += ok; });
    sim.Run();
    ASSERT_EQ(acked, 1u);
    const auto r1 = ScanNow(sim, client, 100, 10);
    ASSERT_TRUE(r1.ok);
    ASSERT_EQ(r1.entries.size(), 1u);
    EXPECT_EQ(r1.entries[0].key, 101u);
    EXPECT_EQ(r1.entries[0].value_size, 4 * util::kKiB);

    cl.router().Put(100, 4 * util::kKiB, [&acked](bool ok) { acked += ok; });
    cl.router().Put(102, 4 * util::kKiB, [&acked](bool ok) { acked += ok; });
    sim.Run();
    ASSERT_EQ(acked, 3u);
    const auto r2 = ScanNow(sim, client, 100, 10);
    ASSERT_TRUE(r2.ok);
    ASSERT_EQ(r2.entries.size(), 3u);
    EXPECT_EQ(r2.entries[0].key, 100u);
    EXPECT_EQ(r2.entries[1].key, 101u);
    EXPECT_EQ(r2.entries[2].key, 102u);
}

TEST(ClusterScan, FailsTypedWhenMembershipChangesMidScan)
{
    sim::Simulator sim;
    cluster::Cluster cl(sim, TinyCluster(3, 2));
    ASSERT_EQ(cl.Preload(30, 16 * util::kKiB).size(), 30u);
    client::KvClient client(sim, cl.router());

    // Launch the scan, then change membership before it completes: the
    // ownership predicates the request shipped no longer tile the ring,
    // so the whole scan must fail typed (all-or-nothing), not return a
    // silently wrong merge.
    kv::ScanResult out;
    bool got = false;
    client.Scan(1, 30, [&](kv::ScanResult r) {
        out = std::move(r);
        got = true;
    });
    cl.StopNode(1);
    sim.Run();
    ASSERT_TRUE(got);
    EXPECT_FALSE(out.ok);
    EXPECT_EQ(cl.router().scan_failures(), 1u);
}

TEST(ClusterScan, ExactAcrossNodeRestart)
{
    sim::Simulator sim;
    cluster::Cluster cl(sim, TinyCluster(3, 2));
    ASSERT_EQ(cl.Preload(30, 16 * util::kKiB).size(), 30u);
    client::KvClient client(sim, cl.router());

    // Down a node: every key is still replicated somewhere (R=2), and
    // the survivors' ownership predicates re-tile the ring, so a scan
    // issued *after* the membership settles is exact again.
    cl.StopNode(1);
    sim.Run();
    const auto down = ScanNow(sim, client, 1, 30);
    ASSERT_TRUE(down.ok);
    ASSERT_EQ(down.entries.size(), 30u);
    for (size_t i = 0; i < 30; ++i) EXPECT_EQ(down.entries[i].key, i + 1);

    // Writes during the downtime land on the survivors and must appear.
    uint64_t acked = 0;
    cl.router().Put(31, 16 * util::kKiB, [&acked](bool ok) { acked += ok; });
    sim.Run();
    ASSERT_EQ(acked, 1u);

    // Restart + rebalance: ownership returns to the restarted node; the
    // scan is exact across the healed ring, including the downtime write.
    bool back = false;
    cl.RestartNode(1, [&back]() { back = true; });
    sim.Run();
    ASSERT_TRUE(back);
    const auto healed = ScanNow(sim, client, 1, 40);
    ASSERT_TRUE(healed.ok);
    ASSERT_EQ(healed.entries.size(), 31u);
    for (size_t i = 0; i < 31; ++i) EXPECT_EQ(healed.entries[i].key, i + 1);
}

TEST(ClusterScan, YcsbProfileEOverClusterDrainsExactly)
{
    // End-to-end: the scan-heavy profile through the real client/cluster
    // path. Every issued op completes (drain), scans return real bytes,
    // and per-phase accounting stays exact on the real stack.
    sim::Simulator sim;
    cluster::Cluster cl(sim, TinyCluster(3, 2));
    const auto keys = cl.Preload(200, 16 * util::kKiB);
    ASSERT_EQ(keys.size(), 200u);
    client::KvClient client(sim, cl.router());

    workload::YcsbConfig cfg;
    cfg.arrival_rate = 300;
    cfg.duration = util::SecToNs(0.4);
    cfg.seed = 31;
    cfg.scan_limit_max = 10;
    cfg.first_insert_key = 1000;
    cfg = workload::YcsbProfile("e", cfg);
    const auto r = workload::RunYcsb(sim, client.Service(), keys, cfg);

    EXPECT_EQ(r.completed, r.issued);
    EXPECT_GT(r.ok_scans, 0u);
    EXPECT_GT(r.scanned_bytes, 0u);
    EXPECT_EQ(r.phases.size(), 1u);
    EXPECT_EQ(r.phases[0].issued, r.issued);
    EXPECT_EQ(r.phases[0].scanned_bytes, r.scanned_bytes);
    // Every scan the engine issued went through the client front door.
    EXPECT_GE(client.stats().scans, r.ok_scans);
    EXPECT_EQ(cl.router().scan_keys(), r.scanned_keys);
}

}  // namespace
}  // namespace sdf
