/**
 * @file
 * YCSB-style workload engine: skewed key choice, mixed op types
 * including range scans, and dynamic phase schedules over the open-loop
 * Poisson arrival process.
 *
 * The paper's premise is web-scale traffic — hot keys, scans, diurnal
 * swings and flash crowds — while the older drivers here generate only
 * uniform closed-loop mixes. This engine reproduces the YCSB core
 * distributions (Cooper et al.) on the simulated clock:
 *
 *  - key choosers: uniform (over the current or only the preloaded
 *    population), Zipfian via Gray et al.'s rejection-
 *    inversion (O(1) per sample after an O(1) setup), latest (Zipfian
 *    over recency), and hot-range (a fraction of ops concentrated on a
 *    contiguous slice of the key population — the flash-crowd shape);
 *  - value-size distributions: fixed, uniform, and a field-like Zipf
 *    ladder (most values small, sizes doubling with Zipf-decaying
 *    probability);
 *  - op mixes over read / update / insert / scan, where scans go
 *    through KvService::scan (kv::Store locally, the single-owner
 *    fan-out cluster path behind client::KvClient);
 *  - a phase schedule: consecutive time windows, each with its own
 *    arrival-rate multiplier, op mix and key chooser, layered on one
 *    seeded Poisson arrival clock. Ops are attributed to the phase that
 *    *issued* them, so per-phase counts sum exactly to the run totals
 *    whenever every arrival drains;
 *  - two arrival modes: open loop (Poisson arrivals regardless of how
 *    many ops are in flight — the regime where overload happens) and
 *    closed loop (N clients, each issuing its next op when the previous
 *    one completes — the regime of throughput-scaling runs).
 *
 * It is the one KV load engine: steady mixes, overload storms (a
 * three-phase schedule), diurnal days and closed-loop scaling runs are
 * all configurations of it. Everything is driven by one seeded util::Rng
 * on the simulated clock, so a (service, keys, config) triple replays
 * byte-identically — the determinism contract every export downstream
 * relies on.
 */
#ifndef SDF_WORKLOAD_YCSB_H
#define SDF_WORKLOAD_YCSB_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/simulator.h"
#include "util/rng.h"
#include "util/units.h"
#include "workload/kv_driver.h"

namespace sdf::workload {

/**
 * Zipfian sampler over ranks [1, n] with exponent @p theta > 0:
 * P(k) ∝ k^-theta. Gray et al.'s rejection-inversion — constant-time
 * setup (no harmonic-sum precomputation) and O(1) expected work per
 * sample at any theta, unlike the classic inversion table (O(n) setup)
 * or naive rejection (unbounded at high skew).
 */
class ZipfianGenerator
{
  public:
    ZipfianGenerator(uint64_t n, double theta);

    /** Next rank in [1, n]; consumes one or more rng doubles. */
    uint64_t Next(util::Rng &rng) const;

    /** Analytic pmf of rank @p k (for goodness-of-fit tests); the O(n)
     *  normalization is computed once on first use. */
    double Pmf(uint64_t k) const;

    uint64_t n() const { return n_; }
    double theta() const { return theta_; }

  private:
    double HIntegral(double x) const;
    double H(double x) const;
    double HIntegralInverse(double x) const;

    uint64_t n_;
    double theta_;
    double h_integral_x1_;
    double h_integral_n_;
    double s_;
    mutable double zeta_ = 0.0;  ///< Generalized harmonic sum, lazy.
};

/** How a phase picks keys from the population. */
enum class KeyChooser : uint8_t
{
    kUniform,   ///< Every key of the current population equally likely.
    kZipfian,   ///< Zipf over the initial population (scrambled spread).
    kLatest,    ///< Zipf over recency: newest keys hottest.
    kHotRange,  ///< Most ops inside one contiguous population slice.
    kPreloaded, ///< Uniform over the initial population: no inserted key.
};

/** How value sizes are drawn for updates/inserts. */
enum class ValueDist : uint8_t
{
    kFixed,     ///< Always value_bytes.
    kUniform,   ///< Uniform in [value_min, value_max].
    kFieldZipf, ///< value_min << (rank-1), rank Zipf-distributed.
};

/** Hot-range parameters (used when the chooser is kHotRange). */
struct HotRange
{
    double key_fraction = 0.05;   ///< Slice width, as population fraction.
    double start_fraction = 0.0;  ///< Slice start, as population fraction.
    double op_fraction = 0.9;     ///< Ops that hit the slice.
};

/** Op-type weights; normalized by their sum. */
struct OpMix
{
    double read = 1.0;
    double update = 0.0;
    double insert = 0.0;
    double scan = 0.0;
};

/** One window of the phase schedule. */
struct YcsbPhase
{
    std::string name = "steady";
    /** Share of the run's duration (normalized across phases). */
    double duration_fraction = 1.0;
    /** Arrival-rate multiplier during this phase. */
    double rate_multiplier = 1.0;
    OpMix mix;
    KeyChooser chooser = KeyChooser::kZipfian;
    HotRange hot;
};

/** Engine parameters. */
struct YcsbConfig
{
    /** Base mean arrival rate, ops/sec (Poisson; phases scale it). */
    double arrival_rate = 50000.0;
    /**
     * Arrival mode. 0 = open loop at arrival_rate. N > 0 = N closed-loop
     * clients, each issuing its next op as soon as the previous one
     * completes; arrival_rate and the phases' rate multipliers are then
     * unused (phases still switch mix and key chooser).
     */
    uint32_t actors = 0;
    util::TimeNs duration = util::SecToNs(0.5);
    uint64_t seed = 7;
    /** Zipfian exponent for the kZipfian / kLatest choosers. */
    double theta = 0.99;
    /** Spread Zipf ranks over the key space (SplitMix64), so the hot
     *  set is scattered like hashed production keys rather than a
     *  prefix. Tests turn this off to pin raw rank sequences. */
    bool scramble = true;
    ValueDist value_dist = ValueDist::kFixed;
    uint32_t value_bytes = 4 * util::kKiB;   ///< kFixed / kFieldZipf base.
    uint32_t value_min = 512;                ///< kUniform low bound.
    uint32_t value_max = 16 * util::kKiB;    ///< kUniform / ladder cap.
    /** Zipf exponent of the field-size ladder (kFieldZipf). */
    double field_theta = 0.99;
    /** Scan lengths are uniform in [1, scan_limit_max]. */
    uint32_t scan_limit_max = 50;
    /** Completed ops slower than this — or failed — violate the SLO. */
    util::TimeNs slo = util::MsToNs(5);
    /** Inserts allocate fresh keys upward from here (must not collide
     *  with the preloaded population). */
    uint64_t first_insert_key = uint64_t{1} << 32;
    /** The schedule; empty = one steady phase with the defaults. */
    std::vector<YcsbPhase> phases;
    /**
     * Called at each phase boundary on the simulated clock, before the
     * first arrival of the phase: (index, phase, absolute start,
     * duration). sdfsim uses it to open one labelled SeriesRecorder
     * segment per phase.
     */
    std::function<void(size_t, const YcsbPhase &, util::TimeNs,
                       util::TimeNs)>
        on_phase_start;
};

/** Per-phase accounting: ops are attributed to their issue phase. */
struct YcsbPhaseResult
{
    std::string name;
    util::TimeNs start = 0;  ///< Absolute phase window on the sim clock.
    util::TimeNs end = 0;
    uint64_t issued = 0;
    uint64_t completed = 0;
    uint64_t ok_reads = 0;
    uint64_t ok_updates = 0;
    uint64_t ok_inserts = 0;
    uint64_t ok_scans = 0;
    uint64_t scanned_keys = 0;
    uint64_t scanned_bytes = 0;
    uint64_t misses = 0;
    uint64_t shed_overloaded = 0;
    uint64_t shed_deadline = 0;
    uint64_t errors = 0;
    uint64_t slo_violations = 0;
    double p50_ms = 0;
    double p99_ms = 0;
    double p999_ms = 0;
};

/** Whole-run outcome: totals plus the per-phase breakdown. */
struct YcsbResult
{
    uint64_t issued = 0;
    uint64_t completed = 0;
    uint64_t ok_reads = 0;
    uint64_t ok_updates = 0;
    uint64_t ok_inserts = 0;
    uint64_t ok_scans = 0;
    uint64_t scanned_keys = 0;
    uint64_t scanned_bytes = 0;
    uint64_t misses = 0;
    uint64_t shed_overloaded = 0;
    uint64_t shed_deadline = 0;
    uint64_t errors = 0;
    uint64_t slo_violations = 0;
    double offered_ops_per_sec = 0;
    double goodput_ops_per_sec = 0;
    double p50_ms = 0;
    double p99_ms = 0;
    double p999_ms = 0;
    double read_p99_ms = 0;  ///< Reads that found their key only.
    /** Keys whose insert/update acked — the consistency-audit set. */
    std::vector<uint64_t> acked_writes;
    std::vector<YcsbPhaseResult> phases;
};

/**
 * Build the named profile over @p base (rate/duration/seed/value knobs
 * are taken from base; mix, chooser and phases are set by the profile):
 * a (50/50 read/update, Zipfian), b (95/5), c (read-only),
 * e (95% scans / 5% inserts), storm (B-mix steady -> flash-crowd spike
 * on a hot range at 3x arrivals -> recovery), diurnal (night/morning/
 * noon/evening rate ramp with a read-mostly -> write-heavy shift in the
 * evening phase). Throws nothing; SDF_CHECKs on unknown names.
 */
YcsbConfig YcsbProfile(const std::string &name, YcsbConfig base);

/** True if YcsbProfile knows @p name. */
bool IsYcsbProfile(const std::string &name);

/**
 * One phase of uniform traffic: @p read_fraction reads of the current
 * population (the preload plus the run's own inserts, so reads also find
 * freshly acked writes), the rest inserts of fresh keys. The steady mix of
 * the closed-loop cluster runs.
 */
YcsbPhase UniformMix(double read_fraction);

/**
 * The overload storm: three equal thirds of UniformMix traffic named
 * steady / storm / recovery, the middle one at @p storm times the base
 * arrival rate. Reads draw from the preloaded keys only (kPreloaded), so
 * an insert shed in the storm never turns into a later miss.
 */
std::vector<YcsbPhase> StormSchedule(double read_fraction, double storm);

/**
 * YCSB run against any KvService. Open loop (cfg.actors == 0): arrivals
 * follow a seeded Poisson process whose rate is cfg.arrival_rate times
 * the current phase's multiplier, and issue is fire-and-forget. Closed
 * loop (cfg.actors == N): N ops start at once and each completion issues
 * the next until cfg.duration ends. Either way the run drains all
 * in-flight ops before returning, so per-phase counts sum to the run
 * totals exactly. @p keys is the preloaded population (ascending order
 * recommended so scans cover contiguous ranges); inserts grow it.
 * Deterministic for a given (service, keys, cfg).
 */
YcsbResult RunYcsb(sim::Simulator &sim, const KvService &svc,
                   const std::vector<uint64_t> &keys,
                   const YcsbConfig &cfg);

}  // namespace sdf::workload

#endif  // SDF_WORKLOAD_YCSB_H
