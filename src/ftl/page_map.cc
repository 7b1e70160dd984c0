#include "ftl/page_map.h"

#include <limits>

#include "util/assert.h"

namespace sdf::ftl {

PageMap::PageMap(uint32_t logical_pages, uint32_t physical_pages,
                 uint32_t pages_per_block)
    : pages_per_block_(pages_per_block),
      map_(logical_pages, kUnmappedPage),
      rmap_(physical_pages, kUnmappedPage),
      valid_count_(physical_pages / pages_per_block, 0)
{
    SDF_CHECK(pages_per_block > 0);
    SDF_CHECK(physical_pages % pages_per_block == 0);
}

uint32_t
PageMap::Lookup(uint32_t lpn) const
{
    SDF_CHECK(lpn < map_.size());
    return map_[lpn];
}

uint32_t
PageMap::ReverseLookup(uint32_t ppn) const
{
    SDF_CHECK(ppn < rmap_.size());
    return rmap_[ppn];
}

uint32_t
PageMap::Update(uint32_t lpn, uint32_t ppn)
{
    SDF_CHECK(lpn < map_.size());
    SDF_CHECK(ppn < rmap_.size());
    SDF_CHECK_MSG(rmap_[ppn] == kUnmappedPage, "physical page already mapped");
    const uint32_t old = map_[lpn];
    if (old != kUnmappedPage) {
        rmap_[old] = kUnmappedPage;
        --valid_count_[BlockOf(old)];
    } else {
        ++mapped_;
    }
    map_[lpn] = ppn;
    rmap_[ppn] = lpn;
    ++valid_count_[BlockOf(ppn)];
    return old;
}

uint32_t
PageMap::Invalidate(uint32_t lpn)
{
    SDF_CHECK(lpn < map_.size());
    const uint32_t old = map_[lpn];
    if (old != kUnmappedPage) {
        rmap_[old] = kUnmappedPage;
        --valid_count_[BlockOf(old)];
        map_[lpn] = kUnmappedPage;
        --mapped_;
    }
    return old;
}

std::vector<uint32_t>
PageMap::ValidLogicalPages(uint32_t block) const
{
    std::vector<uint32_t> result;
    result.reserve(valid_count_[block]);
    const uint32_t first = block * pages_per_block_;
    for (uint32_t p = first; p < first + pages_per_block_; ++p) {
        if (rmap_[p] != kUnmappedPage) result.push_back(rmap_[p]);
    }
    return result;
}

size_t
PickGreedyVictim(const PageMap &map, const std::vector<uint32_t> &candidates)
{
    size_t best = std::numeric_limits<size_t>::max();
    uint32_t best_valid = std::numeric_limits<uint32_t>::max();
    for (size_t i = 0; i < candidates.size(); ++i) {
        const uint32_t v = map.ValidCount(candidates[i]);
        if (v < best_valid) {
            best_valid = v;
            best = i;
        }
    }
    return best;
}

}  // namespace sdf::ftl
