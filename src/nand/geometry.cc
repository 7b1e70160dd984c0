#include "nand/geometry.h"

#include "util/assert.h"

namespace sdf::nand {

void
Geometry::Validate() const
{
    if (channels == 0 || dies_per_channel == 0 || planes_per_die == 0 ||
        blocks_per_plane == 0 || pages_per_block == 0 || page_size == 0) {
        SDF_FATAL("flash geometry has a zero dimension");
    }
}

Geometry
BaiduSdfGeometry()
{
    // Table 3: 44 channels, 2 chips/channel, 2 planes/chip, 16 GB/channel,
    // 8 KB pages, 2 MB blocks -> 2048 blocks per plane, 704 GB raw.
    return Geometry{};
}

Geometry
Intel320Geometry()
{
    // Table 1: 10 channels, 4 planes/channel, 160 GB raw. The Intel 320's
    // 25 nm MLC uses 4 KB pages (Figure 1 does 4 KB random writes).
    Geometry g;
    g.channels = 10;
    g.dies_per_channel = 2;
    g.planes_per_die = 2;
    g.blocks_per_plane = 1907;  // ~160 GB raw total
    g.pages_per_block = 512;
    g.page_size = 4 * util::kKiB;
    return g;
}

Geometry
TinyTestGeometry()
{
    Geometry g;
    g.channels = 4;
    g.dies_per_channel = 2;
    g.planes_per_die = 2;
    g.blocks_per_plane = 8;
    g.pages_per_block = 8;
    g.page_size = 4096;
    return g;
}

}  // namespace sdf::nand
