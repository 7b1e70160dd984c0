/**
 * @file
 * A complete flash array: the set of channels behind one device controller.
 * Both the conventional SSD baseline and the SDF build on this class.
 */
#ifndef SDF_NAND_FLASH_ARRAY_H
#define SDF_NAND_FLASH_ARRAY_H

#include <memory>
#include <vector>

#include "nand/channel.h"
#include "nand/error_model.h"
#include "nand/geometry.h"
#include "nand/timing.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace sdf::nand {

/** Construction options for a FlashArray. */
struct FlashArrayConfig
{
    Geometry geometry;
    TimingSpec timing;
    ErrorModel errors;
    /** Keep page payloads for read-back (tests); off for timing-only runs. */
    bool store_payloads = false;
    /** ECC correction budget per page (bits). */
    uint32_t ecc_correctable_bits = 40;
    /** Expected factory bad blocks per thousand (defect injection). */
    double factory_bad_per_mille = 0.0;
    /** RNG seed for error injection and factory defects. */
    uint64_t seed = 1;
};

/** All flash channels of one device. */
class FlashArray
{
  public:
    explicit FlashArray(sim::Simulator &sim, const FlashArrayConfig &config);

    FlashArray(const FlashArray &) = delete;
    FlashArray &operator=(const FlashArray &) = delete;

    Channel &channel(uint32_t idx) { return *channels_[idx]; }
    const Channel &channel(uint32_t idx) const { return *channels_[idx]; }
    uint32_t channel_count() const { return static_cast<uint32_t>(channels_.size()); }

    const Geometry &geometry() const { return config_.geometry; }
    const TimingSpec &timing() const { return config_.timing; }
    const FlashArrayConfig &config() const { return config_; }

    /** Aggregate stats across all channels. */
    ChannelStats TotalStats() const;

    /**
     * Theoretical raw read bandwidth in bytes/s: every channel streaming
     * page transfers back-to-back (bus-limited).
     */
    double RawReadBandwidth() const;

    /**
     * Theoretical raw write bandwidth in bytes/s: all planes programming
     * continuously, accounting for bus/program pipelining.
     */
    double RawWriteBandwidth() const;

  private:
    sim::Simulator &sim_;
    FlashArrayConfig config_;
    std::vector<std::unique_ptr<Channel>> channels_;
};

}  // namespace sdf::nand

#endif  // SDF_NAND_FLASH_ARRAY_H
