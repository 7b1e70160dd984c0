/**
 * @file
 * Page-level address mapping with per-block validity accounting — the core
 * state of a conventional SSD FTL (the baseline the paper's SDF replaces).
 */
#ifndef SDF_FTL_PAGE_MAP_H
#define SDF_FTL_PAGE_MAP_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace sdf::ftl {

/** Sentinel for an unmapped logical or physical page. */
inline constexpr uint32_t kUnmappedPage = 0xFFFFFFFFu;

/**
 * Logical-to-physical page map for one channel of a conventional SSD.
 *
 * Physical pages are flat per-channel indices (block * pages_per_block +
 * page). The map maintains the reverse map and per-block valid-page counts
 * that garbage collection needs.
 */
class PageMap
{
  public:
    /**
     * @param logical_pages Logical pages assigned to this channel.
     * @param physical_pages Physical pages in this channel.
     * @param pages_per_block For block-index derivation.
     */
    PageMap(uint32_t logical_pages, uint32_t physical_pages,
            uint32_t pages_per_block);

    /** Physical page for @p lpn, or kUnmappedPage. */
    uint32_t Lookup(uint32_t lpn) const;

    /** Logical page stored at @p ppn, or kUnmappedPage. */
    uint32_t ReverseLookup(uint32_t ppn) const;

    /**
     * Map @p lpn to @p ppn, invalidating any previous mapping.
     * @return the previous physical page (now invalid) or kUnmappedPage.
     */
    uint32_t Update(uint32_t lpn, uint32_t ppn);

    /** Drop the mapping for @p lpn (trim). @return old ppn or sentinel. */
    uint32_t Invalidate(uint32_t lpn);

    /** Valid pages currently stored in @p block. */
    uint32_t ValidCount(uint32_t block) const { return valid_count_[block]; }

    /** Logical pages with valid data in @p block (for GC migration). */
    std::vector<uint32_t> ValidLogicalPages(uint32_t block) const;

    /** Total mapped logical pages. */
    uint32_t mapped_pages() const { return mapped_; }

    uint32_t logical_pages() const { return static_cast<uint32_t>(map_.size()); }

  private:
    uint32_t BlockOf(uint32_t ppn) const { return ppn / pages_per_block_; }

    uint32_t pages_per_block_;
    std::vector<uint32_t> map_;          ///< lpn -> ppn
    std::vector<uint32_t> rmap_;         ///< ppn -> lpn
    std::vector<uint32_t> valid_count_;  ///< block -> valid pages
    uint32_t mapped_ = 0;
};

/**
 * Greedy GC victim selection: the candidate with the fewest valid pages.
 * @return index into @p candidates, or SIZE_MAX if empty.
 */
size_t PickGreedyVictim(const PageMap &map,
                        const std::vector<uint32_t> &candidates);

}  // namespace sdf::ftl

#endif  // SDF_FTL_PAGE_MAP_H
