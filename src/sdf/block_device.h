/**
 * @file
 * The device seam: the block layer drives SDF through this interface,
 * never through core::SdfDevice itself.
 *
 * The interface is the SDF contract — (channel, unit) addressing,
 * asymmetric read/write units, explicit erase — the narrowest one the
 * paper's stack needs. SdfDevice is its one implementation. The seam
 * stays for its decorators: a wrapper that overrides a call and forwards
 * it (a tracer, a fault shim) sits between the block layer and the
 * device without either knowing. A conventional SSD does not implement
 * it: its FTL hides its channels, so it serves the KV store through
 * kv::SsdPatchStorage and the kernel I/O stack instead.
 */
#ifndef SDF_SDF_BLOCK_DEVICE_H
#define SDF_SDF_BLOCK_DEVICE_H

#include <cstdint>
#include <string>
#include <vector>

#include "sdf/io_status.h"

namespace sdf::obs {
class IoSpan;
}  // namespace sdf::obs

namespace sdf::core {

/** Lifecycle of one logical write unit within a channel. */
enum class UnitState : uint8_t
{
    kUnwritten,  ///< Never erased or written; no physical mapping yet.
    kErased,     ///< Erased and ready for a full-unit write.
    kWritten,    ///< Holds data; must be erased before rewriting.
    kDead,       ///< Lost to wear-out with no spare left.
};

/**
 * Capability descriptor: the static geometry of one device. Filled once
 * at construction; everything here is invariant for the device's
 * lifetime (channel death is dynamic state, see ChannelDead()). Every
 * unit must be erased by the host before it is rewritten.
 */
struct DeviceCaps
{
    std::string name;                ///< Human-readable model name.
    uint32_t channels = 0;           ///< Independently schedulable channels.
    uint32_t units_per_channel = 0;  ///< Logical write/erase units per channel.
    uint64_t unit_bytes = 0;         ///< Bytes in one write/erase unit.
    uint32_t read_unit_bytes = 0;    ///< Bytes in one read unit (one page).
    uint64_t user_capacity = 0;  ///< Host-visible bytes.
    uint64_t raw_capacity = 0;   ///< Raw flash bytes underneath.
};

/** Who waits on a device read. */
enum class ReadClass : uint8_t
{
    kOnDemand,    ///< A client request waits on it (the default).
    kBackground,  ///< Internal work: compaction inputs, recovery scans.
};

/**
 * Issuing-context scope for device reads: a BlockDevice::Read called on
 * this thread while the scope is open is of its class; the device reads
 * the class when Read is called. Outside every scope a read is
 * on-demand. The class is a scope, not a Read parameter, so a decorator
 * that overrides Read and forwards the call synchronously (a tracer, a
 * fault shim) passes it through untouched.
 */
class ReadClassScope
{
  public:
    explicit ReadClassScope(ReadClass cls) : outer_(current_)
    {
        current_ = cls;
    }
    ~ReadClassScope() { current_ = outer_; }

    ReadClassScope(const ReadClassScope &) = delete;
    ReadClassScope &operator=(const ReadClassScope &) = delete;

    /** The class of a read issued now. */
    static ReadClass Current() { return current_; }

  private:
    static inline thread_local ReadClass current_ = ReadClass::kOnDemand;
    ReadClass outer_;
};

/**
 * Abstract asynchronous block device addressed as (channel, unit).
 *
 * All operations complete through an IoCallback on the simulator's event
 * loop; none complete inline. Implemented by core::SdfDevice (the paper's
 * device); decorators forward to it.
 */
class BlockDevice
{
  public:
    virtual ~BlockDevice() = default;

    /** Static geometry/contract descriptor (stable for the lifetime). */
    virtual const DeviceCaps &caps() const = 0;

    /**
     * Read @p length bytes at @p offset within (@p channel, @p unit).
     * Offset and length must be multiples of caps().read_unit_bytes.
     * @p span, when non-null, receives latency-stage milestones. The
     * read's class is ReadClassScope::Current() at the call.
     */
    virtual void Read(uint32_t channel, uint32_t unit, uint64_t offset,
                      uint64_t length, IoCallback done,
                      std::vector<uint8_t> *out = nullptr,
                      obs::IoSpan *span = nullptr) = 0;

    /**
     * Write one full unit. The unit must be in the erased state
     * (erase-before-write contract); otherwise completes with
     * IoError::kContractViolation.
     */
    virtual void WriteUnit(uint32_t channel, uint32_t unit, IoCallback done,
                           const uint8_t *data = nullptr,
                           obs::IoSpan *span = nullptr) = 0;

    /** Erase one unit, making it writable again. */
    virtual void EraseUnit(uint32_t channel, uint32_t unit, IoCallback done,
                           obs::IoSpan *span = nullptr) = 0;

    /** Current state of a unit. */
    virtual UnitState unit_state(uint32_t channel, uint32_t unit) const = 0;

    /**
     * True once a channel's hardware has failed (fault injection): every
     * operation on it completes with IoError::kChannelDead. Hosts poll
     * this to steer writes and reads to surviving channels.
     */
    virtual bool ChannelDead(uint32_t channel) const = 0;

    /**
     * Instantly (zero simulated time, no payload) bring a unit to the
     * written state. Simulation backdoor for preconditioning only.
     */
    virtual void DebugForceWritten(uint32_t channel, uint32_t unit) = 0;

    // ---- Convenience accessors over caps() -------------------------------

    uint32_t channel_count() const { return caps().channels; }
    uint32_t units_per_channel() const { return caps().units_per_channel; }
    uint64_t unit_bytes() const { return caps().unit_bytes; }
    uint32_t read_unit_bytes() const { return caps().read_unit_bytes; }
    uint64_t user_capacity() const { return caps().user_capacity; }
    uint64_t raw_capacity() const { return caps().raw_capacity; }
};

}  // namespace sdf::core

#endif  // SDF_SDF_BLOCK_DEVICE_H
