#include "ssd/ssd_block_device.h"

#include <utility>

#include "util/assert.h"

namespace sdf::ssd {

namespace {

/** Synthetic write/erase unit (matches SDF's 8 MB). */
constexpr uint64_t kUnitBytes = 8 * util::kMiB;
static_assert(kUnitBytes > 0);

}  // namespace

SsdBlockDevice::SsdBlockDevice(sim::Simulator &sim, ConventionalSsd &ssd)
    : sim_(sim), ssd_(ssd)
{
    // Synthetic channels: the SSD's real flash channels.
    const uint32_t channels = ssd.config().flash.geometry.channels;
    SDF_CHECK_MSG(channels > 0, "adapter needs at least one channel");
    SDF_CHECK_MSG(kUnitBytes % ssd.config().flash.geometry.page_size == 0,
                  "unit size must be page-aligned");
    const uint64_t total_units = ssd.user_capacity() / kUnitBytes;
    const uint32_t units_per_channel =
        static_cast<uint32_t>(total_units / channels);
    SDF_CHECK_MSG(units_per_channel > 0,
                  "SSD too small for one unit per synthetic channel");

    caps_.name = ssd.config().name + " (block-device adapter)";
    caps_.channels = channels;
    caps_.units_per_channel = units_per_channel;
    caps_.unit_bytes = kUnitBytes;
    caps_.read_unit_bytes = ssd.config().flash.geometry.page_size;
    caps_.explicit_erase = false;
    caps_.user_capacity =
        uint64_t{channels} * units_per_channel * kUnitBytes;
    caps_.raw_capacity = ssd.raw_capacity();

    units_.assign(uint64_t{channels} * units_per_channel,
                  core::UnitState::kUnwritten);
}

uint64_t
SsdBlockDevice::ExtentOf(uint32_t channel, uint32_t unit) const
{
    return (uint64_t{channel} * caps_.units_per_channel + unit) *
           caps_.unit_bytes;
}

bool
SsdBlockDevice::ValidUnit(uint32_t channel, uint32_t unit) const
{
    return channel < caps_.channels && unit < caps_.units_per_channel;
}

void
SsdBlockDevice::Read(uint32_t channel, uint32_t unit, uint64_t offset,
                     uint64_t length, core::IoCallback done,
                     std::vector<uint8_t> *out, obs::IoSpan *span)
{
    (void)span;  // The SSD models its own internal latency stages.
    if (!ValidUnit(channel, unit) || length == 0 ||
        offset + length > caps_.unit_bytes ||
        offset % caps_.read_unit_bytes != 0 ||
        length % caps_.read_unit_bytes != 0) {
        sim_.Post([done = std::move(done)]() {
            done(core::IoStatus(core::IoError::kContractViolation));
        });
        return;
    }
    ssd_.Read(ExtentOf(channel, unit) + offset, length,
              [done = std::move(done)](bool ok) {
                  done(ok ? core::IoStatus()
                          : core::IoStatus(core::IoError::kReadUncorrectable));
              },
              out);
}

void
SsdBlockDevice::WriteUnit(uint32_t channel, uint32_t unit,
                          core::IoCallback done, const uint8_t *data,
                          obs::IoSpan *span)
{
    (void)span;
    if (!ValidUnit(channel, unit) ||
        unit_state(channel, unit) != core::UnitState::kErased) {
        sim_.Post([done = std::move(done)]() {
            done(core::IoStatus(core::IoError::kContractViolation));
        });
        return;
    }
    const uint64_t idx = uint64_t{channel} * caps_.units_per_channel + unit;
    ssd_.Write(ExtentOf(channel, unit), caps_.unit_bytes,
               [this, idx, done = std::move(done)](bool ok) {
                   if (ok) units_[idx] = core::UnitState::kWritten;
                   done(ok ? core::IoStatus()
                           : core::IoStatus(core::IoError::kWriteFailed));
               },
               data);
}

void
SsdBlockDevice::EraseUnit(uint32_t channel, uint32_t unit,
                          core::IoCallback done, obs::IoSpan *span)
{
    (void)span;
    if (!ValidUnit(channel, unit)) {
        sim_.Post([done = std::move(done)]() {
            done(core::IoStatus(core::IoError::kContractViolation));
        });
        return;
    }
    // Emulated erase: TRIM the extent so the FTL drops the mappings (and
    // GC stops migrating the stale data), then logically reset the unit.
    // Completes asynchronously like a real command, but with no flash
    // erase cost — the SSD pays that cost later, inside its own GC.
    ssd_.Trim(ExtentOf(channel, unit), caps_.unit_bytes);
    ++synthetic_erases_;
    const uint64_t idx = uint64_t{channel} * caps_.units_per_channel + unit;
    units_[idx] = core::UnitState::kErased;
    sim_.Post([done = std::move(done)]() { done(core::IoStatus()); });
}

core::UnitState
SsdBlockDevice::unit_state(uint32_t channel, uint32_t unit) const
{
    SDF_CHECK(ValidUnit(channel, unit));
    return units_[uint64_t{channel} * caps_.units_per_channel + unit];
}

void
SsdBlockDevice::DebugForceWritten(uint32_t channel, uint32_t unit)
{
    SDF_CHECK(ValidUnit(channel, unit));
    units_[uint64_t{channel} * caps_.units_per_channel + unit] =
        core::UnitState::kWritten;
}

}  // namespace sdf::ssd
