/**
 * @file
 * Physical organization of a NAND flash array.
 *
 * The default geometry mirrors the paper's Table 3: 44 channels, two 8 GB
 * Micron 25 nm MLC dies per channel, two planes per die, 8 KB pages and
 * 2 MB erase blocks — 704 GB raw for the whole device.
 */
#ifndef SDF_NAND_GEOMETRY_H
#define SDF_NAND_GEOMETRY_H

#include <cstdint>

#include "util/units.h"

namespace sdf::nand {

/** Static shape of a flash array; all counts per enclosing unit. */
struct Geometry
{
    uint32_t channels = 44;
    uint32_t dies_per_channel = 2;
    uint32_t planes_per_die = 2;
    uint32_t blocks_per_plane = 2048;
    uint32_t pages_per_block = 256;
    uint32_t page_size = 8 * util::kKiB;

    // ---- Derived quantities -------------------------------------------
    uint32_t PlanesPerChannel() const { return dies_per_channel * planes_per_die; }
    uint32_t BlocksPerChannel() const { return PlanesPerChannel() * blocks_per_plane; }
    uint64_t BlockBytes() const { return uint64_t{pages_per_block} * page_size; }
    uint64_t PlaneBytes() const { return uint64_t{blocks_per_plane} * BlockBytes(); }
    uint64_t ChannelBytes() const { return uint64_t{PlanesPerChannel()} * PlaneBytes(); }
    uint64_t TotalBytes() const { return uint64_t{channels} * ChannelBytes(); }
    uint64_t TotalBlocks() const { return uint64_t{channels} * BlocksPerChannel(); }
    uint64_t PagesPerChannel() const
    {
        return uint64_t{BlocksPerChannel()} * pages_per_block;
    }
    uint64_t TotalPages() const { return uint64_t{channels} * PagesPerChannel(); }

    /** Abort with SDF_FATAL if any field is zero or inconsistent. */
    void Validate() const;
};

/** Geometry of the paper's SDF / Huawei Gen3 boards (Table 3): 704 GB raw. */
Geometry BaiduSdfGeometry();

/** Geometry approximating the Intel 320 (Table 1): 10 channels, 160 GB raw. */
Geometry Intel320Geometry();

/** Small geometry for unit tests: a few MB so tests can fill the device. */
Geometry TinyTestGeometry();

}  // namespace sdf::nand

#endif  // SDF_NAND_GEOMETRY_H
