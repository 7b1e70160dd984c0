/**
 * @file
 * Addressing and status types shared across the NAND substrate and the
 * controllers built on top of it.
 */
#ifndef SDF_NAND_TYPES_H
#define SDF_NAND_TYPES_H

#include <cstdint>
#include <functional>

#include "nand/geometry.h"
#include "sim/callback.h"

namespace sdf::nand {

/** Physical address of one erase block within a channel. */
struct BlockAddr
{
    uint32_t plane = 0;  ///< Flat plane index within the channel (die*planes+plane).
    uint32_t block = 0;  ///< Block index within the plane.

    bool operator==(const BlockAddr &) const = default;
};

/** Physical address of one page within a channel. */
struct PageAddr
{
    uint32_t plane = 0;
    uint32_t block = 0;
    uint32_t page = 0;  ///< Page index within the block.

    BlockAddr BlockOf() const { return BlockAddr{plane, block}; }
    bool operator==(const PageAddr &) const = default;
};

/** Flat page index within a channel, for data-store keys. */
inline uint64_t
FlatPageIndex(const Geometry &geo, const PageAddr &a)
{
    return (uint64_t{a.plane} * geo.blocks_per_plane + a.block) *
               geo.pages_per_block +
           a.page;
}

/** Flat block index within a channel. */
inline uint32_t
FlatBlockIndex(const Geometry &geo, const BlockAddr &a)
{
    return a.plane * geo.blocks_per_plane + a.block;
}

/** Inverse of FlatBlockIndex. */
inline BlockAddr
BlockFromFlat(const Geometry &geo, uint32_t flat)
{
    return BlockAddr{flat / geo.blocks_per_plane, flat % geo.blocks_per_plane};
}

/** Outcome of a NAND operation, delivered with its completion callback. */
enum class OpStatus : uint8_t
{
    kOk = 0,
    kOkErased,            ///< Read of a never-programmed page (all 0xFF).
    kReadUncorrectable,   ///< Bit errors exceeded the ECC correction budget.
    kWriteNotErased,      ///< Program targeted a page in a non-erased block.
    kWriteSequenceError,  ///< Program violated sequential-page order.
    kBadBlock,            ///< Operation on a block marked bad.
    kWornOut,             ///< Erase/program failed; block newly marked bad.
    kOutOfRange,          ///< Address outside the geometry.
    kChannelDead,         ///< Channel controller/chips dead (injected fault).
};

/** True for statuses that indicate usable completion. */
inline bool
IsOk(OpStatus s)
{
    return s == OpStatus::kOk || s == OpStatus::kOkErased;
}

/** Completion callback for asynchronous NAND operations. */
using OpCallback = sim::Func<void(OpStatus)>;

}  // namespace sdf::nand

#endif  // SDF_NAND_TYPES_H
