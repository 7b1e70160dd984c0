/**
 * @file
 * Shared setup for the benchmark binaries: the standard preamble, plus the
 * repo-wide building blocks every bench uses. The testbed library
 * assembles the CCDB stack (device + block layer / extent store + slices +
 * network) on any backend, and obs::ObsCli provides the
 * --stats-json/--trace/--stats-series flags.
 *
 * Every experiment uses capacity-scaled devices (structure and all ratios
 * preserved) so a full table regenerates in seconds; EXPERIMENTS.md
 * documents the scaling.
 */
#ifndef SDF_BENCH_BENCH_COMMON_H
#define SDF_BENCH_BENCH_COMMON_H

#include <cstdio>

#include "obs/obs_cli.h"
#include "testbed/testbed.h"
#include "workload/kv_driver.h"
#include "workload/raw_device.h"

namespace sdf::bench {

/** Print the standard bench preamble. */
inline void
PrintPreamble(const char *experiment, const char *paper_ref)
{
    std::printf("SDF reproduction — %s\n", experiment);
    std::printf("Paper reference: %s\n", paper_ref);
    std::printf("(capacity-scaled devices; see EXPERIMENTS.md)\n\n");
    std::fflush(stdout);
}

}  // namespace sdf::bench

#endif  // SDF_BENCH_BENCH_COMMON_H
