/**
 * @file
 * Adapter that presents a ConventionalSsd as a core::BlockDevice so the
 * block layer and the KV stack run unchanged on either backend.
 *
 * The SSD's flat logical space is carved into synthetic channels x units:
 * unit (c, u) maps to the extent [(c * units_per_channel + u) * unit_bytes,
 * + unit_bytes). "Channels" here are purely a logical partitioning for the
 * host's allocator — the SSD's own FTL still stripes pages over its real
 * channels underneath, which is exactly the paper's point about the layers
 * a conventional device hides.
 *
 * EraseUnit is emulated: the extent is TRIMmed (dropping FTL mappings so
 * GC does not migrate stale data) and the unit is logically reset to
 * kErased. caps().explicit_erase is false so callers can tell the
 * contract apart from real software-managed erasure.
 */
#ifndef SDF_SSD_SSD_BLOCK_DEVICE_H
#define SDF_SSD_SSD_BLOCK_DEVICE_H

#include <cstdint>
#include <vector>

#include "sdf/block_device.h"
#include "sim/simulator.h"
#include "ssd/conventional_ssd.h"

namespace sdf::ssd {

/** ConventionalSsd viewed through the pluggable device interface. */
class SsdBlockDevice : public core::BlockDevice
{
  public:
    SsdBlockDevice(sim::Simulator &sim, ConventionalSsd &ssd);

    SsdBlockDevice(const SsdBlockDevice &) = delete;
    SsdBlockDevice &operator=(const SsdBlockDevice &) = delete;

    const core::DeviceCaps &caps() const override { return caps_; }

    void Read(uint32_t channel, uint32_t unit, uint64_t offset,
              uint64_t length, core::IoCallback done,
              std::vector<uint8_t> *out = nullptr,
              obs::IoSpan *span = nullptr) override;

    void WriteUnit(uint32_t channel, uint32_t unit, core::IoCallback done,
                   const uint8_t *data = nullptr,
                   obs::IoSpan *span = nullptr) override;

    void EraseUnit(uint32_t channel, uint32_t unit, core::IoCallback done,
                   obs::IoSpan *span = nullptr) override;

    core::UnitState unit_state(uint32_t channel, uint32_t unit) const override;

    /** A conventional SSD has no host-visible channel failure domain. */
    bool ChannelDead(uint32_t) const override { return false; }

    void DebugForceWritten(uint32_t channel, uint32_t unit) override;

    ConventionalSsd &ssd() { return ssd_; }
    uint64_t synthetic_erases() const { return synthetic_erases_; }

  private:
    uint64_t ExtentOf(uint32_t channel, uint32_t unit) const;
    bool ValidUnit(uint32_t channel, uint32_t unit) const;

    sim::Simulator &sim_;
    ConventionalSsd &ssd_;
    core::DeviceCaps caps_;
    std::vector<core::UnitState> units_;  ///< channel-major unit states.
    uint64_t synthetic_erases_ = 0;
};

}  // namespace sdf::ssd

#endif  // SDF_SSD_SSD_BLOCK_DEVICE_H
