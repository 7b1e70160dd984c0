/**
 * @file
 * Raw-device benchmark drivers: the microbenchmark workloads of the
 * paper's §3.2 (Tables 1 and 4, Figures 7 and 8) and the
 * over-provisioning sweep of Figure 1.
 *
 * SDF is driven by one synchronous thread per channel (the paper's setup);
 * conventional SSDs by one thread issuing asynchronous requests at a fixed
 * queue depth. All drivers run the workload for a simulated duration after
 * a warmup and report steady-state throughput.
 */
#ifndef SDF_WORKLOAD_RAW_DEVICE_H
#define SDF_WORKLOAD_RAW_DEVICE_H

#include <cstdint>
#include <memory>
#include <vector>

#include "host/io_stack.h"
#include "sdf/sdf_device.h"
#include "sim/simulator.h"
#include "ssd/conventional_ssd.h"
#include "util/latency_recorder.h"
#include "util/rng.h"

namespace sdf::workload {

using util::TimeNs;

/** Outcome of one raw-device run. */
struct RawResult
{
    double mbps = 0.0;            ///< Steady-state throughput (MB/s).
    uint64_t operations = 0;      ///< Requests completed in the window.
    util::LatencyRecorder latencies{true};
};

/** Common run parameters. */
struct RawRunConfig
{
    TimeNs warmup = util::MsToNs(200);
    TimeNs duration = util::SecToNs(2.0);
    uint64_t seed = 42;
};

/** Access pattern of RunSdfReads and the conventional-SSD runs. */
enum class Pattern : uint8_t { kSequential, kRandom };

/**
 * Reads on SDF: @p channels_used synchronous actors, one per channel, each
 * reading @p request_bytes at a time. kRandom reads a random aligned offset
 * of a random (pre-written) unit; kSequential walks the channel's units in
 * order (Figure 7a uses 8 MB whole units). Requires the device to be
 * preconditioned.
 */
RawResult RunSdfReads(sim::Simulator &sim, core::SdfDevice &device,
                      host::IoStack &stack, uint32_t channels_used,
                      uint64_t request_bytes, Pattern pattern,
                      const RawRunConfig &run);

/**
 * Writes on SDF: per-channel actors erasing and then writing whole units
 * round-robin — the explicit erase is on the write's critical path, as in
 * the paper's latency measurements (Figure 8, right).
 */
RawResult RunSdfWrites(sim::Simulator &sim, core::SdfDevice &device,
                       host::IoStack &stack, uint32_t channels_used,
                       const RawRunConfig &run);

/**
 * Reads on a conventional SSD: one thread, asynchronous requests at queue
 * depth @p queue_depth, @p request_bytes each.
 */
RawResult RunConvReads(sim::Simulator &sim, ssd::ConventionalSsd &device,
                       host::IoStack &stack, uint32_t queue_depth,
                       uint64_t request_bytes, Pattern pattern,
                       const RawRunConfig &run);

/** Writes on a conventional SSD (same driver shape as RunConvReads). */
RawResult RunConvWrites(sim::Simulator &sim, ssd::ConventionalSsd &device,
                        host::IoStack &stack, uint32_t queue_depth,
                        uint64_t request_bytes, Pattern pattern,
                        const RawRunConfig &run);

/** Mark every unit of an SDF device written (zero simulated time). */
void PreconditionSdf(core::SdfDevice &device);

}  // namespace sdf::workload

#endif  // SDF_WORKLOAD_RAW_DEVICE_H
