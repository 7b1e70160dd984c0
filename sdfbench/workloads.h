/**
 * @file
 * The benchmark's three workloads. Each call builds a fresh stack from the
 * seed, drives it, audits it, and returns one repetition's results.
 */
#ifndef SDFBENCH_WORKLOADS_H
#define SDFBENCH_WORKLOADS_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace sdfbench {

/** One repetition of a workload. */
struct RepResult
{
    /** Simulated-clock end-to-end results: exact for a seed, so every
     *  repetition (traced or not) must reproduce them bit for bit. */
    std::map<std::string, double> sim;
    /** Per-layer results (traced repetitions only). Names ending in
     *  "wall_ns_per_op" are wall-clock; every other one is exact. */
    std::map<std::string, double> layer;
    /** For ratios in `layer`: the numerator and denominator they divide. */
    std::map<std::string, std::string> base;
    /** Wall seconds of each stack build + preload in this repetition. */
    std::vector<double> setup_s;
    double measured_wall_s = 0;  ///< Wall seconds of the load phases.
    double peak_rss_mb = 0;      ///< Process peak RSS, read by the workload.
    uint64_t ops = 0;            ///< Client ops completed in them.
    uint64_t events = 0;         ///< Simulator events dispatched in them.
    uint64_t attempted = 0;      ///< Client ops issued.
    uint64_t failed = 0;         ///< Untyped errors + lost acked writes.
    std::string report;          ///< Human-readable lines.
    std::vector<std::string> errors;  ///< Correctness violations.
};

RepResult RunYcsbBZipf(uint64_t seed, bool traced);
RepResult RunYcsbARestart(uint64_t seed, bool traced);
RepResult RunCcdbWriteCompaction(uint64_t seed, bool traced);

}  // namespace sdfbench

#endif  // SDFBENCH_WORKLOADS_H
