#include "workload/ycsb.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/assert.h"
#include "util/latency_recorder.h"

namespace sdf::workload {

// ---------------------------------------------------------------------------
// Zipfian sampler (Gray et al. rejection-inversion)
// ---------------------------------------------------------------------------

namespace {

/** log(1+x)/x, stable near 0. */
double
Helper1(double x)
{
    if (std::abs(x) > 1e-8) return std::log1p(x) / x;
    return 1.0 - x / 2.0 + x * x / 3.0 - x * x * x / 4.0;
}

/** (e^x - 1)/x, stable near 0. */
double
Helper2(double x)
{
    if (std::abs(x) > 1e-8) return std::expm1(x) / x;
    return 1.0 + x / 2.0 + x * x / 6.0 + x * x * x / 24.0;
}

}  // namespace

ZipfianGenerator::ZipfianGenerator(uint64_t n, double theta)
    : n_(n), theta_(theta)
{
    SDF_CHECK(n >= 1);
    SDF_CHECK(theta > 0.0);
    h_integral_x1_ = HIntegral(1.5) - 1.0;
    h_integral_n_ = HIntegral(static_cast<double>(n) + 0.5);
    s_ = 2.0 - HIntegralInverse(HIntegral(2.5) - H(2.0));
}

/** Integral of the hat function h(x) = x^-theta. */
double
ZipfianGenerator::HIntegral(double x) const
{
    const double log_x = std::log(x);
    return Helper2((1.0 - theta_) * log_x) * log_x;
}

double
ZipfianGenerator::H(double x) const
{
    return std::exp(-theta_ * std::log(x));
}

double
ZipfianGenerator::HIntegralInverse(double x) const
{
    double t = x * (1.0 - theta_);
    // Limit to the range where the inverse is defined (t -> -1 as the
    // integral approaches its theta > 1 asymptote).
    if (t < -1.0) t = -1.0;
    return std::exp(Helper1(t) * x);
}

uint64_t
ZipfianGenerator::Next(util::Rng &rng) const
{
    if (n_ == 1) return 1;
    while (true) {
        const double u =
            h_integral_n_ +
            rng.NextDouble() * (h_integral_x1_ - h_integral_n_);
        const double x = HIntegralInverse(u);
        uint64_t k = static_cast<uint64_t>(
            std::max(1.0, std::min(static_cast<double>(n_), x + 0.5)));
        // Accept quickly inside the shifted hat; otherwise take the exact
        // rejection test against the pmf's integral.
        if (static_cast<double>(k) - x <= s_ ||
            u >= HIntegral(static_cast<double>(k) + 0.5) -
                     H(static_cast<double>(k))) {
            return k;
        }
    }
}

double
ZipfianGenerator::Pmf(uint64_t k) const
{
    SDF_CHECK(k >= 1 && k <= n_);
    if (zeta_ == 0.0) {
        for (uint64_t i = 1; i <= n_; ++i)
            zeta_ += std::pow(static_cast<double>(i), -theta_);
    }
    return std::pow(static_cast<double>(k), -theta_) / zeta_;
}

// ---------------------------------------------------------------------------
// Profiles
// ---------------------------------------------------------------------------

namespace {

/** The named profile's phase schedule; empty for an unknown name. */
std::vector<YcsbPhase>
ProfilePhases(const std::string &name)
{
    std::vector<YcsbPhase> phases;
    YcsbPhase p;
    if (name == "a") {
        p.mix = OpMix{0.5, 0.5, 0.0, 0.0};
        phases.push_back(p);
    } else if (name == "b") {
        p.mix = OpMix{0.95, 0.05, 0.0, 0.0};
        phases.push_back(p);
    } else if (name == "c") {
        p.mix = OpMix{1.0, 0.0, 0.0, 0.0};
        phases.push_back(p);
    } else if (name == "e") {
        p.mix = OpMix{0.0, 0.0, 0.05, 0.95};
        phases.push_back(p);
    } else if (name == "storm") {
        // Flash crowd: steady B-mix traffic, then 3x arrivals focused on
        // a 5%-of-keyspace hot range, then recovery at the base rate.
        // SLO violations should localize in (and just after) the spike.
        YcsbPhase steady;
        steady.name = "steady";
        steady.duration_fraction = 0.4;
        steady.mix = OpMix{0.95, 0.05, 0.0, 0.0};
        YcsbPhase spike;
        spike.name = "spike";
        spike.duration_fraction = 0.2;
        spike.rate_multiplier = 3.0;
        spike.mix = OpMix{0.95, 0.05, 0.0, 0.0};
        spike.chooser = KeyChooser::kHotRange;
        spike.hot = HotRange{0.05, 0.25, 0.9};
        YcsbPhase recovery;
        recovery.name = "recovery";
        recovery.duration_fraction = 0.4;
        recovery.mix = OpMix{0.95, 0.05, 0.0, 0.0};
        phases = {steady, spike, recovery};
    } else if (name == "diurnal") {
        // Rate ramp through the day plus the read-mostly -> write-heavy
        // shift in the evening window (batch ingest after peak reads).
        YcsbPhase night;
        night.name = "night";
        night.duration_fraction = 0.25;
        night.rate_multiplier = 0.5;
        night.mix = OpMix{0.95, 0.05, 0.0, 0.0};
        YcsbPhase morning;
        morning.name = "morning";
        morning.duration_fraction = 0.25;
        morning.rate_multiplier = 1.0;
        morning.mix = OpMix{0.9, 0.1, 0.0, 0.0};
        YcsbPhase noon;
        noon.name = "noon";
        noon.duration_fraction = 0.25;
        noon.rate_multiplier = 2.0;
        noon.mix = OpMix{0.9, 0.1, 0.0, 0.0};
        YcsbPhase evening;
        evening.name = "evening";
        evening.duration_fraction = 0.25;
        evening.rate_multiplier = 1.0;
        evening.mix = OpMix{0.3, 0.6, 0.1, 0.0};
        phases = {night, morning, noon, evening};
    }
    return phases;
}

}  // namespace

YcsbConfig
YcsbProfile(const std::string &name, YcsbConfig base)
{
    base.phases = ProfilePhases(name);
    SDF_CHECK_MSG(!base.phases.empty(), "unknown ycsb profile");
    return base;
}

bool
IsYcsbProfile(const std::string &name)
{
    return !ProfilePhases(name).empty();
}

YcsbPhase
UniformMix(double read_fraction)
{
    YcsbPhase p;
    p.mix = OpMix{read_fraction, 0.0, 1.0 - read_fraction, 0.0};
    p.chooser = KeyChooser::kUniform;
    return p;
}

std::vector<YcsbPhase>
StormSchedule(double read_fraction, double storm)
{
    YcsbPhase p = UniformMix(read_fraction);
    p.chooser = KeyChooser::kPreloaded;
    std::vector<YcsbPhase> phases(3, p);
    phases[0].name = "steady";
    phases[1].name = "storm";
    phases[1].rate_multiplier = storm;
    phases[2].name = "recovery";
    return phases;
}

// ---------------------------------------------------------------------------
// Runner
// ---------------------------------------------------------------------------

namespace {

/** Mutable per-phase accumulators (folded into YcsbPhaseResult). */
struct PhaseAcc
{
    YcsbPhaseResult out;
    util::LatencyRecorder lat;
};

}  // namespace

YcsbResult
RunYcsb(sim::Simulator &sim, const KvService &svc,
        const std::vector<uint64_t> &keys, const YcsbConfig &cfg)
{
    SDF_CHECK(svc.get != nullptr);
    SDF_CHECK(svc.put != nullptr || svc.put_typed != nullptr);
    SDF_CHECK(cfg.actors > 0 || cfg.arrival_rate > 0);
    SDF_CHECK(!keys.empty());

    auto put_typed = svc.put_typed;
    if (!put_typed) {
        put_typed = [put = svc.put](uint64_t key, uint32_t value_size,
                                    kv::PutStatusCallback done) {
            put(key, value_size, [done = std::move(done)](bool ok) {
                done(ok ? kv::OpStatus::kOk : kv::OpStatus::kError);
            });
        };
    }

    // ---- phase schedule -------------------------------------------------
    std::vector<YcsbPhase> phases = cfg.phases;
    if (phases.empty()) phases.push_back(YcsbPhase{});
    double frac_sum = 0.0;
    for (const YcsbPhase &p : phases) {
        SDF_CHECK(p.duration_fraction > 0.0);
        frac_sum += p.duration_fraction;
    }
    const TimeNs t_start = sim.Now();
    const TimeNs t_end = t_start + cfg.duration;
    // starts[i] .. starts[i+1] is phase i's window; attribution is by
    // issue time, so the boundaries are exact on the simulated clock.
    std::vector<TimeNs> starts(phases.size() + 1, t_start);
    double acc = 0.0;
    for (size_t i = 0; i < phases.size(); ++i) {
        starts[i] = t_start + static_cast<TimeNs>(
                                  static_cast<double>(cfg.duration) *
                                  (acc / frac_sum));
        acc += phases[i].duration_fraction;
    }
    starts.back() = t_end;

    auto phase_of = [&](TimeNs now) -> size_t {
        size_t i = phases.size() - 1;
        while (i > 0 && now < starts[i]) --i;
        return i;
    };

    if (cfg.on_phase_start) {
        for (size_t i = 0; i < phases.size(); ++i) {
            sim.Schedule(starts[i] - sim.Now(),
                         [&cfg, &phases, &starts, i]() {
                             cfg.on_phase_start(i, phases[i], starts[i],
                                                starts[i + 1] - starts[i]);
                         });
        }
    }

    // ---- samplers -------------------------------------------------------
    util::Rng rng(cfg.seed ^ 0x9c5b0000ULL);
    const uint64_t n0 = keys.size();
    ZipfianGenerator zipf(n0, cfg.theta);
    // Latest: Zipf over recency against the *current* population size.
    // The Gray sampler's setup is O(1), so it is rebuilt whenever an
    // insert grows the population.
    auto latest_zipf = std::make_unique<ZipfianGenerator>(n0, cfg.theta);
    uint32_t field_levels = 1;
    while ((uint64_t{cfg.value_bytes} << field_levels) <= cfg.value_max &&
           field_levels < 16) {
        ++field_levels;
    }
    ZipfianGenerator field_zipf(field_levels, cfg.field_theta);

    std::vector<uint64_t> population = keys;  // Grows as inserts issue.
    uint64_t next_insert_key = cfg.first_insert_key;

    auto choose_index = [&](const YcsbPhase &p) -> size_t {
        const size_t n = population.size();
        switch (p.chooser) {
            case KeyChooser::kUniform: return rng.NextBelow(n);
            case KeyChooser::kPreloaded: return rng.NextBelow(n0);
            case KeyChooser::kZipfian: {
                // Ranks are drawn over the initial population (the
                // preloaded working set); scrambling spreads the hot
                // ranks across the key space deterministically.
                const uint64_t r = zipf.Next(rng);
                if (!cfg.scramble) return static_cast<size_t>(r - 1);
                uint64_t s = r;
                return static_cast<size_t>(util::SplitMix64(s) % n0);
            }
            case KeyChooser::kLatest: {
                const uint64_t r = latest_zipf->Next(rng);
                return n - static_cast<size_t>(r);
            }
            case KeyChooser::kHotRange: {
                const auto hot_len = static_cast<size_t>(std::max<double>(
                    1.0, p.hot.key_fraction * static_cast<double>(n)));
                const auto hot_lo = std::min<size_t>(
                    static_cast<size_t>(p.hot.start_fraction *
                                        static_cast<double>(n)),
                    n - 1);
                if (rng.NextDouble() < p.hot.op_fraction) {
                    return std::min<size_t>(
                        hot_lo + rng.NextBelow(hot_len), n - 1);
                }
                return rng.NextBelow(n);
            }
        }
        return 0;
    };

    auto value_size = [&]() -> uint32_t {
        switch (cfg.value_dist) {
            case ValueDist::kFixed: return cfg.value_bytes;
            case ValueDist::kUniform:
                return static_cast<uint32_t>(rng.NextInRange(
                    cfg.value_min, cfg.value_max));
            case ValueDist::kFieldZipf: {
                const uint64_t rank = field_zipf.Next(rng);
                return cfg.value_bytes << (rank - 1);
            }
        }
        return cfg.value_bytes;
    };

    // ---- accounting -----------------------------------------------------
    YcsbResult result;
    util::LatencyRecorder total_lat, read_lat;
    std::vector<PhaseAcc> accs(phases.size());
    for (size_t i = 0; i < phases.size(); ++i) {
        accs[i].out.name = phases[i].name;
        accs[i].out.start = starts[i];
        accs[i].out.end = starts[i + 1];
    }

    auto fail_status = [&](PhaseAcc &a, kv::OpStatus s) {
        switch (s) {
            case kv::OpStatus::kOverloaded: ++a.out.shed_overloaded; break;
            case kv::OpStatus::kDeadlineExceeded:
                ++a.out.shed_deadline;
                break;
            default: ++a.out.errors; break;
        }
    };

    // Closed loop: each completion hands its client's slot to the next op
    // (posted, so a service that completes inline cannot recurse).
    std::function<void()> issue_one;
    auto next_op = [&]() {
        if (cfg.actors > 0 && sim.Now() < t_end) {
            sim.Post([&issue_one]() { issue_one(); });
        }
    };

    // Completion bookkeeping shared by every op type: latency into the
    // issue phase's recorder, SLO check (failures always violate; slow
    // successes violate past cfg.slo).
    auto complete = [&](size_t phase, TimeNs t0, bool failed) {
        PhaseAcc &a = accs[phase];
        ++a.out.completed;
        const TimeNs lat = sim.Now() - t0;
        a.lat.Record(lat);
        total_lat.Record(lat);
        if (failed || lat > cfg.slo) ++a.out.slo_violations;
        next_op();
    };

    issue_one = [&]() {
        const TimeNs now = sim.Now();
        const size_t pi = phase_of(now);
        const YcsbPhase &phase = phases[pi];
        PhaseAcc &a = accs[pi];
        ++a.out.issued;

        const OpMix &m = phase.mix;
        const double mix_sum = m.read + m.update + m.insert + m.scan;
        SDF_CHECK(mix_sum > 0.0);
        double u = rng.NextDouble() * mix_sum;
        const TimeNs t0 = now;

        if (u < m.read) {
            const uint64_t key = population[choose_index(phase)];
            svc.get(key, [&, pi, t0](const kv::GetResult &res) {
                PhaseAcc &pa = accs[pi];
                if (!res.ok) {
                    complete(pi, t0, true);
                    fail_status(pa, res.status == kv::OpStatus::kOk
                                        ? kv::OpStatus::kError
                                        : res.status);
                } else if (!res.found) {
                    complete(pi, t0, false);
                    ++pa.out.misses;
                } else {
                    read_lat.Record(sim.Now() - t0);
                    complete(pi, t0, false);
                    ++pa.out.ok_reads;
                }
            });
            return;
        }
        u -= m.read;
        if (u < m.update) {
            const uint64_t key = population[choose_index(phase)];
            put_typed(key, value_size(), [&, pi, t0,
                                          key](kv::OpStatus s) {
                if (s == kv::OpStatus::kOk) {
                    complete(pi, t0, false);
                    ++accs[pi].out.ok_updates;
                    result.acked_writes.push_back(key);
                } else {
                    complete(pi, t0, true);
                    fail_status(accs[pi], s);
                }
            });
            return;
        }
        u -= m.update;
        if (u < m.insert) {
            const uint64_t key = next_insert_key++;
            // Visible to the latest chooser immediately (issue order is
            // the recency order YCSB's latest distribution follows).
            population.push_back(key);
            latest_zipf = std::make_unique<ZipfianGenerator>(
                population.size(), cfg.theta);
            put_typed(key, value_size(), [&, pi, t0,
                                          key](kv::OpStatus s) {
                if (s == kv::OpStatus::kOk) {
                    complete(pi, t0, false);
                    ++accs[pi].out.ok_inserts;
                    result.acked_writes.push_back(key);
                } else {
                    complete(pi, t0, true);
                    fail_status(accs[pi], s);
                }
            });
            return;
        }
        // Scan: start key from the chooser, length uniform in
        // [1, scan_limit_max]. A service without a scan path fails the
        // op typed (kError) instead of crashing the run.
        const uint32_t limit = 1 + static_cast<uint32_t>(rng.NextBelow(
                                       cfg.scan_limit_max));
        if (!svc.scan) {
            sim.Post([&, pi, t0]() {
                complete(pi, t0, true);
                ++accs[pi].out.errors;
            });
            return;
        }
        const uint64_t start_key = population[choose_index(phase)];
        svc.scan(start_key, limit,
                 [&, pi, t0](const kv::ScanResult &r) {
                     PhaseAcc &pa = accs[pi];
                     if (r.ok) {
                         complete(pi, t0, false);
                         ++pa.out.ok_scans;
                         pa.out.scanned_keys += r.entries.size();
                         pa.out.scanned_bytes += r.scanned_bytes;
                     } else {
                         complete(pi, t0, true);
                         fail_status(pa, r.status);
                     }
                 });
    };

    // The open-loop arrival process: one seeded exponential clock,
    // fire-and-forget issue, with the *rate* scaled by the current phase's
    // multiplier so a 3x spike really offers 3x the load. Closed loop
    // starts every client at once instead; completions keep them going.
    std::function<void()> arrive = [&]() {
        if (sim.Now() >= t_end) return;
        issue_one();
        const double rate =
            cfg.arrival_rate * phases[phase_of(sim.Now())].rate_multiplier;
        const double u = rng.NextDouble();
        const double gap_sec = -std::log(1.0 - u) / rate;
        TimeNs gap = static_cast<TimeNs>(gap_sec * 1e9);
        if (gap == 0) gap = 1;  // Never two arrivals at the same tick.
        sim.Schedule(gap, arrive);
    };
    if (cfg.actors == 0) {
        sim.Post([&arrive]() { arrive(); });
    } else {
        for (uint32_t a = 0; a < cfg.actors; ++a) {
            sim.Post([&issue_one]() { issue_one(); });
        }
    }
    sim.RunUntil(t_end);
    sim.Run();  // Drain in-flight ops so phase counts sum to totals.

    // ---- fold -----------------------------------------------------------
    for (size_t i = 0; i < phases.size(); ++i) {
        PhaseAcc &a = accs[i];
        if (a.lat.count() > 0) {
            a.out.p50_ms = a.lat.PercentileMs(50);
            a.out.p99_ms = a.lat.PercentileMs(99);
            a.out.p999_ms = a.lat.PercentileMs(99.9);
        }
        result.issued += a.out.issued;
        result.completed += a.out.completed;
        result.ok_reads += a.out.ok_reads;
        result.ok_updates += a.out.ok_updates;
        result.ok_inserts += a.out.ok_inserts;
        result.ok_scans += a.out.ok_scans;
        result.scanned_keys += a.out.scanned_keys;
        result.scanned_bytes += a.out.scanned_bytes;
        result.misses += a.out.misses;
        result.shed_overloaded += a.out.shed_overloaded;
        result.shed_deadline += a.out.shed_deadline;
        result.errors += a.out.errors;
        result.slo_violations += a.out.slo_violations;
        result.phases.push_back(a.out);
    }
    const double secs = util::NsToSec(cfg.duration);
    if (secs > 0) {
        result.offered_ops_per_sec =
            static_cast<double>(result.issued) / secs;
        result.goodput_ops_per_sec =
            static_cast<double>(result.ok_reads + result.ok_updates +
                                result.ok_inserts + result.ok_scans +
                                result.misses) /
            secs;
    }
    if (total_lat.count() > 0) {
        result.p50_ms = total_lat.PercentileMs(50);
        result.p99_ms = total_lat.PercentileMs(99);
        result.p999_ms = total_lat.PercentileMs(99.9);
    }
    if (read_lat.count() > 0) result.read_p99_ms = read_lat.PercentileMs(99);
    return result;
}

}  // namespace sdf::workload
