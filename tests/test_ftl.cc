/**
 * @file
 * Unit tests for the FTL building blocks: wear leveler, bad block
 * manager, page map, block map, striping, and GC victim policies.
 */
#include <gtest/gtest.h>

#include "ftl/bad_block_manager.h"
#include "ftl/block_map.h"
#include "ftl/page_map.h"
#include "ftl/striping.h"
#include "ftl/wear_leveler.h"
#include "util/rng.h"

namespace sdf::ftl {
namespace {

// ---------------------------------------------------------------------------
// DynamicWearLeveler
// ---------------------------------------------------------------------------

TEST(WearLeveler, AllocatesLeastWornFirst)
{
    DynamicWearLeveler wl;
    wl.Release(1, 10);
    wl.Release(2, 3);
    wl.Release(3, 7);
    EXPECT_EQ(wl.Allocate(), 2u);
    EXPECT_EQ(wl.Allocate(), 3u);
    EXPECT_EQ(wl.Allocate(), 1u);
    EXPECT_TRUE(wl.Empty());
}

TEST(WearLeveler, TiesBreakByBlockId)
{
    DynamicWearLeveler wl;
    wl.Release(9, 5);
    wl.Release(4, 5);
    EXPECT_EQ(wl.Allocate(), 4u);
    EXPECT_EQ(wl.Allocate(), 9u);
}

TEST(WearLeveler, RotationEqualizesWear)
{
    // Allocate/erase/release cycles must spread wear evenly.
    DynamicWearLeveler wl;
    std::vector<uint32_t> erase_count(8, 0);
    for (uint32_t b = 0; b < 8; ++b) wl.Release(b, 0);
    for (int round = 0; round < 800; ++round) {
        const uint32_t b = wl.Allocate();
        ++erase_count[b];
        wl.Release(b, erase_count[b]);
    }
    uint32_t min_ec = 1000000, max_ec = 0;
    for (uint32_t ec : erase_count) {
        min_ec = std::min(min_ec, ec);
        max_ec = std::max(max_ec, ec);
    }
    EXPECT_LE(max_ec - min_ec, 1u);
}

TEST(WearLeveler, MinEraseCountPeeks)
{
    DynamicWearLeveler wl;
    wl.Release(0, 42);
    EXPECT_EQ(wl.MinEraseCount(), 42u);
    EXPECT_EQ(wl.FreeCount(), 1u);
}

// ---------------------------------------------------------------------------
// BadBlockManager
// ---------------------------------------------------------------------------

TEST(BadBlockManager, ExcludesFactoryBadAndSpares)
{
    BadBlockManager bbm(100, {5, 10, 15}, 7);
    EXPECT_EQ(bbm.usable_blocks().size(), 100u - 3 - 7);
    EXPECT_TRUE(bbm.IsBad(5));
    EXPECT_FALSE(bbm.IsBad(6));
    EXPECT_EQ(bbm.spares_left(), 7u);
    for (uint32_t b : bbm.usable_blocks()) EXPECT_FALSE(bbm.IsBad(b));
}

TEST(BadBlockManager, RetireDrawsFromSpares)
{
    BadBlockManager bbm(50, {}, 3);
    const uint32_t victim = bbm.usable_blocks()[0];
    const uint32_t repl1 = bbm.RetireBlock(victim);
    EXPECT_NE(repl1, kNoSpare);
    EXPECT_TRUE(bbm.IsBad(victim));
    EXPECT_EQ(bbm.spares_left(), 2u);
    EXPECT_EQ(bbm.grown_bad_count(), 1u);

    bbm.RetireBlock(bbm.usable_blocks()[1]);
    bbm.RetireBlock(bbm.usable_blocks()[2]);
    EXPECT_EQ(bbm.spares_left(), 0u);
    EXPECT_EQ(bbm.RetireBlock(bbm.usable_blocks()[3]), kNoSpare);
}

TEST(BadBlockManager, ExhaustionKeepsCountingGrownBad)
{
    // Past spare exhaustion, retirements still mark blocks bad and keep
    // the grown-bad ledger accurate -- the device layer relies on this
    // to report honest wear statistics after units start dying.
    BadBlockManager bbm(10, {0}, 2);
    const uint32_t usable = static_cast<uint32_t>(bbm.usable_blocks().size());
    ASSERT_EQ(usable, 10u - 1 - 2);
    uint32_t retired = 0;
    for (uint32_t i = 0; i < usable; ++i) {
        const uint32_t b = bbm.usable_blocks()[i];
        const uint32_t repl = bbm.RetireBlock(b);
        ++retired;
        EXPECT_TRUE(bbm.IsBad(b));
        if (retired <= 2) {
            EXPECT_NE(repl, kNoSpare);
            EXPECT_FALSE(bbm.IsBad(repl));
        } else {
            EXPECT_EQ(repl, kNoSpare);
        }
        EXPECT_EQ(bbm.grown_bad_count(), retired);
    }
    EXPECT_EQ(bbm.spares_left(), 0u);
    EXPECT_EQ(bbm.grown_bad_count(), usable);
}

// ---------------------------------------------------------------------------
// PageMap
// ---------------------------------------------------------------------------

TEST(PageMap, UpdateTracksReverseAndValidity)
{
    PageMap map(16, 32, 8);
    EXPECT_EQ(map.Lookup(0), kUnmappedPage);
    EXPECT_EQ(map.Update(0, 5), kUnmappedPage);
    EXPECT_EQ(map.Lookup(0), 5u);
    EXPECT_EQ(map.ReverseLookup(5), 0u);
    EXPECT_EQ(map.ValidCount(0), 1u);
    EXPECT_EQ(map.mapped_pages(), 1u);

    // Remap elsewhere: old physical page invalidated.
    EXPECT_EQ(map.Update(0, 9), 5u);
    EXPECT_EQ(map.ReverseLookup(5), kUnmappedPage);
    EXPECT_EQ(map.ValidCount(0), 0u);
    EXPECT_EQ(map.ValidCount(1), 1u);
}

TEST(PageMap, InvalidateClears)
{
    PageMap map(16, 32, 8);
    map.Update(3, 17);
    EXPECT_EQ(map.Invalidate(3), 17u);
    EXPECT_EQ(map.Lookup(3), kUnmappedPage);
    EXPECT_EQ(map.mapped_pages(), 0u);
    EXPECT_EQ(map.Invalidate(3), kUnmappedPage);
}

TEST(PageMap, ValidLogicalPagesListsBlockContents)
{
    PageMap map(16, 32, 8);
    map.Update(1, 8);   // block 1
    map.Update(2, 9);   // block 1
    map.Update(3, 16);  // block 2
    const auto pages = map.ValidLogicalPages(1);
    EXPECT_EQ(pages, (std::vector<uint32_t>{1, 2}));
}

TEST(PageMap, GreedyVictimPicksFewestValid)
{
    PageMap map(32, 64, 8);
    // Block 0: 3 valid; block 1: 1 valid; block 2: 2 valid.
    map.Update(0, 0);
    map.Update(1, 1);
    map.Update(2, 2);
    map.Update(3, 8);
    map.Update(4, 16);
    map.Update(5, 17);
    const std::vector<uint32_t> candidates{0, 1, 2};
    EXPECT_EQ(PickGreedyVictim(map, candidates), 1u);
}

TEST(PageMap, VictimSelectionOnEmptyCandidates)
{
    PageMap map(8, 16, 8);
    EXPECT_EQ(PickGreedyVictim(map, {}), SIZE_MAX);
}

// ---------------------------------------------------------------------------
// BlockMap
// ---------------------------------------------------------------------------

TEST(BlockMap, SetLookupClear)
{
    BlockMap map(8);
    EXPECT_EQ(map.Lookup(0), kUnmappedBlock);
    EXPECT_EQ(map.Set(0, 42), kUnmappedBlock);
    EXPECT_EQ(map.Lookup(0), 42u);
    EXPECT_EQ(map.Set(0, 43), 42u);
    EXPECT_EQ(map.Clear(0), 43u);
    EXPECT_EQ(map.Lookup(0), kUnmappedBlock);
}

// ---------------------------------------------------------------------------
// StripingLayout
// ---------------------------------------------------------------------------

TEST(Striping, RoundRobinChannelAssignment)
{
    StripingLayout layout(4, 8192);
    EXPECT_EQ(layout.ChannelOf(0), 0u);
    EXPECT_EQ(layout.ChannelOf(8192), 1u);
    EXPECT_EQ(layout.ChannelOf(3 * 8192), 3u);
    EXPECT_EQ(layout.ChannelOf(4 * 8192), 0u);
}

TEST(Striping, ChannelOffsetsAreDense)
{
    StripingLayout layout(4, 8192);
    // Stripes 0,4,8,... land on channel 0 at offsets 0,8192,16384,...
    EXPECT_EQ(layout.ChannelOffset(0), 0u);
    EXPECT_EQ(layout.ChannelOffset(4 * 8192), 8192u);
    EXPECT_EQ(layout.ChannelOffset(8 * 8192), 2u * 8192);
    // Offset within a stripe is preserved.
    EXPECT_EQ(layout.ChannelOffset(4 * 8192 + 100), 8192u + 100);
}

TEST(Striping, SplitCoversRangeExactly)
{
    StripingLayout layout(44, 8192);
    const auto chunks = layout.Split(3 * 8192 + 100, 5 * 8192);
    uint64_t total = 0;
    for (const auto &c : chunks) total += c.length;
    EXPECT_EQ(total, 5u * 8192);
    // First chunk is the tail of the starting stripe.
    EXPECT_EQ(chunks[0].length, 8192u - 100);
    EXPECT_EQ(chunks[0].channel, 3u);
    EXPECT_EQ(chunks[1].channel, 4u);
}

TEST(Striping, LargeRequestTouchesAllChannels)
{
    StripingLayout layout(44, 8192);
    const auto chunks = layout.Split(0, 44 * 8192);
    EXPECT_EQ(chunks.size(), 44u);
    std::vector<bool> seen(44, false);
    for (const auto &c : chunks) seen[c.channel] = true;
    for (bool s : seen) EXPECT_TRUE(s);
}

}  // namespace
}  // namespace sdf::ftl
