#include "ssd/conventional_ssd.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "nand/timing.h"
#include "obs/hub.h"
#include "util/assert.h"

namespace sdf::ssd {

namespace {

/** Concurrent page migrations per channel during GC. */
constexpr uint32_t kGcInflightWindow = 8;
/**
 * Static wear leveling: one GC victim selection in this many picks the
 * *coldest* (least-worn) closed block regardless of its valid count, so
 * long-lived data rotates off low-wear blocks. SDF removed this (§2.2);
 * on the conventional device it is a source of sporadic latency spikes —
 * a nearly fully valid block gets migrated.
 */
constexpr uint32_t kSwlPeriod = 24;

/** Flat per-channel block id -> NAND block address. */
nand::BlockAddr
FlatToBlockAddr(const nand::Geometry &geo, uint32_t flat)
{
    return nand::BlockFromFlat(geo, flat);
}

/** Flat per-channel page id -> NAND page address. */
nand::PageAddr
FlatToPageAddr(const nand::Geometry &geo, uint32_t ppn)
{
    const uint32_t ppb = geo.pages_per_block;
    const nand::BlockAddr b = nand::BlockFromFlat(geo, ppn / ppb);
    return nand::PageAddr{b.plane, b.block, ppn % ppb};
}

}  // namespace

/** A host read in flight: its pages complete into it in any order. */
struct ConventionalSsd::HostRead
{
    std::list<HostRead>::iterator self;  ///< Its place in reads_.
    uint64_t offset = 0;
    uint64_t length = 0;
    uint32_t remaining = 0;  ///< Pages not yet in.
    bool ok = true;
    IoCallback done;
    std::vector<uint8_t> *out = nullptr;
    /** Each flash page's payload until it is copied to out (with out). */
    std::vector<std::vector<uint8_t>> sensed;
};

ConventionalSsd::ConventionalSsd(sim::Simulator &sim,
                                 const ConventionalSsdConfig &config)
    : sim_(sim),
      config_(config),
      flash_(std::make_unique<nand::FlashArray>(sim, config.flash)),
      link_(std::make_unique<controller::Link>(sim, config.link)),
      firmware_(sim),
      striping_(config.flash.geometry.channels, config.stripe_bytes)
{
    const nand::Geometry &geo = flash_->geometry();
    SDF_CHECK_MSG(config_.stripe_bytes % geo.page_size == 0,
                  "stripe unit must be a multiple of the page size");
    SDF_CHECK(config_.op_ratio >= 0.0 && config_.op_ratio < 1.0);
    SDF_CHECK(config_.gc_high_watermark > config_.gc_low_watermark);

    const uint32_t planes = geo.PlanesPerChannel();
    const uint32_t ppb = geo.pages_per_block;
    const uint32_t channels = geo.channels;

    // Striping needs every channel the same size: size by the worst one.
    uint32_t min_good = geo.BlocksPerChannel();
    for (uint32_t c = 0; c < channels; ++c) {
        uint32_t good = 0;
        for (uint32_t f = 0; f < geo.BlocksPerChannel(); ++f) {
            if (!flash_->channel(c).block_meta(FlatToBlockAddr(geo, f)).bad)
                ++good;
        }
        min_good = std::min(min_good, good);
    }
    const SsdSizing sizing = SizeConventionalSsd(config_, min_good);
    data_lpns_per_channel_ = sizing.data_lpns_per_channel;
    parity_lpns_per_channel_ = sizing.parity_lpns_per_channel;
    user_capacity_ = sizing.user_capacity;

    channels_.resize(channels);
    for (uint32_t c = 0; c < channels; ++c) {
        ChannelFtl &cf = channels_[c];
        cf.map = std::make_unique<ftl::PageMap>(
            data_lpns_per_channel_ + parity_lpns_per_channel_,
            static_cast<uint32_t>(geo.PagesPerChannel()), ppb);
        cf.planes.resize(planes);
        for (uint32_t f = 0; f < geo.BlocksPerChannel(); ++f) {
            const nand::BlockAddr addr = FlatToBlockAddr(geo, f);
            if (flash_->channel(c).block_meta(addr).bad) continue;
            cf.planes[addr.plane].free_pool.Release(f, 0);
        }
    }

    if (obs::Hub *hub = sim.hub()) {
        hub_ = hub;
        obs::MetricsRegistry &m = hub->metrics();
        metric_prefix_ = m.UniquePrefix("ssd");
        m.RegisterCounter(metric_prefix_ + ".host_reads", &stats_.host_reads);
        m.RegisterCounter(metric_prefix_ + ".host_writes",
                          &stats_.host_writes);
        m.RegisterCounter(metric_prefix_ + ".host_read_bytes",
                          &stats_.host_read_bytes);
        m.RegisterCounter(metric_prefix_ + ".host_written_bytes",
                          &stats_.host_written_bytes);
        m.RegisterCounter(metric_prefix_ + ".gc_pages_moved",
                          &stats_.gc_pages_moved);
        m.RegisterCounter(metric_prefix_ + ".parity_pages_written",
                          &stats_.parity_pages_written);
        m.RegisterCounter(metric_prefix_ + ".gc_erases", &stats_.gc_erases);
        m.RegisterCounter(metric_prefix_ + ".swl_migrations",
                          &stats_.swl_migrations);
        m.RegisterCounter(metric_prefix_ + ".cache_hit_pages",
                          &stats_.cache_hit_pages);
        m.RegisterCounter(metric_prefix_ + ".read_errors",
                          &stats_.read_errors);
        m.RegisterGauge(metric_prefix_ + ".write_amplification",
                        [this]() { return stats_.WriteAmplification(); });
    }
}

ConventionalSsd::~ConventionalSsd()
{
    if (hub_ != nullptr) hub_->metrics().UnregisterPrefix(metric_prefix_);
}

uint32_t
ConventionalSsd::FreeBlocks(uint32_t channel) const
{
    return TotalFree(channel);
}

uint32_t
ConventionalSsd::TotalFree(uint32_t ch) const
{
    uint32_t total = 0;
    for (const PlaneState &ps : channels_[ch].planes)
        total += static_cast<uint32_t>(ps.free_pool.FreeCount());
    return total;
}

// ---------------------------------------------------------------------------
// Request admission
// ---------------------------------------------------------------------------

void
ConventionalSsd::Read(uint64_t offset, uint64_t length, IoCallback done,
                      std::vector<uint8_t> *out)
{
    Admit(PendingRequest{false, offset, length, std::move(done), nullptr, out});
}

void
ConventionalSsd::Write(uint64_t offset, uint64_t length, IoCallback done,
                       const uint8_t *data)
{
    Admit(PendingRequest{true, offset, length, std::move(done), data, nullptr});
}

void
ConventionalSsd::Admit(PendingRequest req)
{
    const uint32_t page = PageSize();
    if (req.length == 0 || req.offset % page != 0 || req.length % page != 0 ||
        req.offset + req.length > user_capacity_) {
        if (req.done) {
            sim_.Post([done = std::move(req.done)]() { done(false); });
        }
        return;
    }
    if (outstanding_ >= config_.max_outstanding) {
        admission_queue_.push_back(std::move(req));
        return;
    }
    ++outstanding_;
    if (req.is_write) {
        StartWrite(std::move(req));
    } else {
        StartRead(std::move(req));
    }
}

void
ConventionalSsd::FinishRequest()
{
    SDF_CHECK(outstanding_ > 0);
    --outstanding_;
    while (outstanding_ < config_.max_outstanding && !admission_queue_.empty()) {
        PendingRequest next = std::move(admission_queue_.front());
        admission_queue_.pop_front();
        ++outstanding_;
        if (next.is_write) {
            StartWrite(std::move(next));
        } else {
            StartRead(std::move(next));
        }
    }
}

// ---------------------------------------------------------------------------
// Read path
// ---------------------------------------------------------------------------

void
ConventionalSsd::StartRead(PendingRequest req)
{
    ++stats_.host_reads;
    stats_.host_read_bytes += req.length;

    const auto pages = static_cast<uint32_t>(req.length / PageSize());
    if (req.out) req.out->assign(req.length, 0);

    HostRead &r = reads_.emplace_back();
    r.self = std::prev(reads_.end());
    r.offset = req.offset;
    r.length = req.length;
    r.remaining = pages;
    r.done = std::move(req.done);
    r.out = req.out;
    if (r.out) r.sensed.resize(pages);

    firmware_.Submit(config_.fw_cost_per_read_request, [this, r = &r,
                                                        pages]() {
        for (uint32_t i = 0; i < pages; ++i) {
            auto page_job = [this, r, i]() { ReadHostPage(*r, i); };
            static_assert(sim::Callback::kFitsInline<decltype(page_job)>);
            firmware_.Submit(config_.fw_cost_read_page, std::move(page_job));
        }
    });
}

void
ConventionalSsd::ReadHostPage(HostRead &r, uint32_t index)
{
    const uint32_t page = PageSize();
    const uint64_t byte_off = r.offset + uint64_t{index} * page;
    const uint32_t ch = striping_.ChannelOf(byte_off);
    const auto lpn =
        static_cast<uint32_t>(striping_.ChannelOffset(byte_off) / page);
    const uint64_t out_pos = uint64_t{index} * page;

    // DRAM cache hit: data still dirty in the write-back buffer.
    if (const DirtyEntry *dirty = dirty_pages_.find(DirtyKey(ch, lpn))) {
        ++stats_.cache_hit_pages;
        if (r.out && dirty->payload) {
            std::memcpy(r.out->data() + out_pos, dirty->payload->data(),
                        std::min<size_t>(page, dirty->payload->size()));
        }
        HostPageDone(r);
        return;
    }
    const uint32_t ppn = channels_[ch].map->Lookup(lpn);
    if (ppn == ftl::kUnmappedPage) {
        // Never written: zeros, no flash access.
        HostPageDone(r);
        return;
    }
    auto sensed = [this, r = &r, index](nand::OpStatus status) {
        if (status == nand::OpStatus::kReadUncorrectable) {
            r->ok = false;
            ++stats_.read_errors;
        }
        if (r->out) {
            const std::vector<uint8_t> &data = r->sensed[index];
            std::memcpy(r->out->data() + uint64_t{index} * PageSize(),
                        data.data(),
                        std::min<size_t>(PageSize(), data.size()));
            r->sensed[index] = std::vector<uint8_t>();  // Copied to out.
        }
        HostPageDone(*r);
    };
    static_assert(nand::OpCallback::kFitsInline<decltype(sensed)>);
    flash_->channel(ch).ReadPage(FlatToPageAddr(flash_->geometry(), ppn),
                                 std::move(sensed),
                                 r.out ? &r.sensed[index] : nullptr);
}

void
ConventionalSsd::HostPageDone(HostRead &r)
{
    if (--r.remaining > 0) return;
    // All flash pages in; stream the payload to the host.
    link_->TransferToHost(sim_.Now(), r.length, [this, r = &r]() {
        if (r->done) r->done(r->ok);
        reads_.erase(r->self);
        FinishRequest();
    });
}

// ---------------------------------------------------------------------------
// Write path (write-back through the DRAM cache)
// ---------------------------------------------------------------------------

void
ConventionalSsd::StartWrite(PendingRequest req)
{
    ++stats_.host_writes;
    stats_.host_written_bytes += req.length;

    const uint64_t offset = req.offset;
    const uint64_t length = req.length;
    const uint8_t *data = req.data;
    auto done = std::move(req.done);

    firmware_.Submit(config_.fw_cost_per_write_request,
                     [this, offset, length, data,
                      done = std::move(done)]() mutable {
        link_->TransferToDevice(sim_.Now(), length, [this, offset, length,
                                                     data,
                                                     done = std::move(done)]() mutable {
            // Data has landed in device DRAM; now claim write-back space.
            auto admit = [this, offset, length, data,
                          done = std::move(done)]() mutable {
                cache_used_ += length;
                const uint32_t page = PageSize();
                const auto pages = static_cast<uint32_t>(length / page);
                for (uint32_t i = 0; i < pages; ++i) {
                    const uint64_t byte_off = offset + uint64_t{i} * page;
                    const uint32_t ch = striping_.ChannelOf(byte_off);
                    const auto lpn = static_cast<uint32_t>(
                        striping_.ChannelOffset(byte_off) / page);
                    std::shared_ptr<std::vector<uint8_t>> payload;
                    if (data && config_.flash.store_payloads) {
                        payload = std::make_shared<std::vector<uint8_t>>(
                            data + uint64_t{i} * page,
                            data + uint64_t{i + 1} * page);
                    }
                    DirtyEntry &entry = dirty_pages_[DirtyKey(ch, lpn)];
                    ++entry.refs;
                    if (payload) entry.payload = payload;
                    channels_[ch].dirty_queue.push_back({lpn, payload});
                    PumpDrain(ch);
                }
                // Write-back: acknowledge as soon as the cache holds it.
                if (done) done(true);
                FinishRequest();
            };
            // Requests larger than the cache are admitted once the cache
            // is empty (they stream through; the cache briefly overshoots).
            if (cache_used_ + length <= config_.dram_cache_bytes ||
                (cache_used_ == 0 && cache_waiters_.empty())) {
                admit();
            } else {
                cache_waiters_.push_back({length, std::move(admit)});
            }
        });
    });
}

void
ConventionalSsd::TryAdmitCacheWaiters()
{
    while (!cache_waiters_.empty() &&
           (cache_used_ + cache_waiters_.front().first <=
                config_.dram_cache_bytes ||
            cache_used_ == 0)) {
        auto admit = std::move(cache_waiters_.front().second);
        cache_waiters_.pop_front();
        admit();
    }
}

void
ConventionalSsd::ReleaseCache(uint64_t bytes)
{
    SDF_CHECK(cache_used_ >= bytes);
    cache_used_ -= bytes;
    TryAdmitCacheWaiters();
}

// ---------------------------------------------------------------------------
// Drain: dirty pages -> flash programs
// ---------------------------------------------------------------------------

void
ConventionalSsd::PumpDrain(uint32_t ch)
{
    ChannelFtl &cf = channels_[ch];
    const uint32_t window = 2 * flash_->geometry().PlanesPerChannel();
    while (cf.drain_inflight < window && !cf.dirty_queue.empty()) {
        auto [lpn, payload] = cf.dirty_queue.front();
        cf.dirty_queue.pop_front();
        ++cf.drain_inflight;
        firmware_.Submit(
            config_.fw_cost_write_page,
            [this, ch, lpn, payload = std::move(payload)]() {
                const PageKind kind = lpn >= data_lpns_per_channel_
                                          ? PageKind::kParity
                                          : PageKind::kHost;
                if (!IssueProgram(ch, lpn, kind, payload)) {
                    // No frontier space anywhere: requeue and wait for GC.
                    ChannelFtl &cf2 = channels_[ch];
                    cf2.dirty_queue.push_front({lpn, payload});
                    --cf2.drain_inflight;
                    MaybeStartGc(ch);
                }
            });
    }
    MaybeStartGc(ch);
}

bool
ConventionalSsd::IssueProgram(uint32_t ch, uint32_t lpn, PageKind kind,
                              std::shared_ptr<std::vector<uint8_t>> payload)
{
    const nand::Geometry &geo = flash_->geometry();
    const uint32_t ppb = geo.pages_per_block;
    const uint32_t planes = geo.PlanesPerChannel();
    ChannelFtl &cf = channels_[ch];
    const bool is_gc = kind == PageKind::kGc;

    // Blocks withheld from host allocation so GC can always finish its
    // current victim (one victim never needs more than one fresh block).
    constexpr uint32_t kGcReserveBlocks = 2;

    // Find a plane with frontier space, starting from the rotation cursor.
    uint32_t &cursor = is_gc ? cf.gc_plane_cursor : cf.drain_plane_cursor;
    uint32_t chosen = ftl::kUnmappedBlock;
    for (uint32_t probe = 0; probe < planes; ++probe) {
        const uint32_t plane = (cursor + probe) % planes;
        PlaneState &ps = cf.planes[plane];
        uint32_t &frontier = is_gc ? ps.gc_frontier : ps.frontier;
        uint32_t &next = is_gc ? ps.gc_frontier_next : ps.frontier_next;
        if (frontier != ftl::kUnmappedBlock && next >= ppb) {
            // Close the filled block; it becomes a GC candidate.
            cf.full_blocks.push_back(frontier);
            frontier = ftl::kUnmappedBlock;
        }
        if (frontier == ftl::kUnmappedBlock) {
            if (ps.free_pool.Empty()) continue;
            if (!is_gc && TotalFree(ch) <= kGcReserveBlocks) continue;
            frontier = ps.free_pool.Allocate();
            next = 0;
        }
        chosen = plane;
        break;
    }
    if (chosen == ftl::kUnmappedBlock) return false;
    cursor = (chosen + 1) % planes;

    PlaneState &ps = cf.planes[chosen];
    uint32_t &frontier = is_gc ? ps.gc_frontier : ps.frontier;
    uint32_t &next = is_gc ? ps.gc_frontier_next : ps.frontier_next;
    const uint32_t ppn = frontier * ppb + next;
    ++next;

    cf.map->Update(lpn, ppn);

    flash_->channel(ch).ProgramPage(
        FlatToPageAddr(geo, ppn),
        [this, ch, lpn, kind](nand::OpStatus) {
            ChannelFtl &cf2 = channels_[ch];
            switch (kind) {
              case PageKind::kHost: {
                ++stats_.host_pages_written;
                ++parity_row_counter_;
                DirtyEntry *dirty = dirty_pages_.find(DirtyKey(ch, lpn));
                SDF_CHECK(dirty != nullptr);
                if (--dirty->refs == 0) dirty_pages_.erase(DirtyKey(ch, lpn));
                --cf2.drain_inflight;
                ReleaseCache(PageSize());
                MaybeEmitParity();
                PumpDrain(ch);
                break;
              }
              case PageKind::kGc:
                ++stats_.gc_pages_moved;
                --cf2.gc_inflight;
                GcPump(ch);
                break;
              case PageKind::kParity:
                ++stats_.parity_pages_written;
                --cf2.drain_inflight;
                PumpDrain(ch);
                break;
            }
        },
        payload ? payload->data() : nullptr);

    MaybeStartGc(ch);
    return true;
}

void
ConventionalSsd::MaybeEmitParity()
{
    if (!config_.parity || parity_lpns_per_channel_ == 0) return;
    const uint32_t channels = flash_->geometry().channels;
    if (channels < 2) return;
    while (parity_row_counter_ >= channels - 1) {
        parity_row_counter_ -= channels - 1;
        // Rotate the parity page over channels, and over each channel's
        // parity lpn space so old parity is invalidated (GC load).
        const uint32_t ch =
            static_cast<uint32_t>(stats_.parity_pages_written % channels);
        ChannelFtl &cf = channels_[ch];
        const uint32_t lpn =
            data_lpns_per_channel_ +
            static_cast<uint32_t>(cf.parity_cursor++ % parity_lpns_per_channel_);
        cf.dirty_queue.push_back({lpn, nullptr});
        PumpDrain(ch);
    }
}

// ---------------------------------------------------------------------------
// Garbage collection
// ---------------------------------------------------------------------------

void
ConventionalSsd::MaybeStartGc(uint32_t ch)
{
    ChannelFtl &cf = channels_[ch];
    if (cf.gc_active || TotalFree(ch) >= config_.gc_low_watermark) return;
    if (cf.full_blocks.empty()) return;
    cf.gc_active = true;
    GcPickVictim(ch);
}

void
ConventionalSsd::GcPickVictim(uint32_t ch)
{
    ChannelFtl &cf = channels_[ch];
    if (cf.full_blocks.empty()) {
        cf.gc_active = false;
        return;
    }
    size_t idx;
    ++cf.gc_victims_picked;
    if (cf.gc_victims_picked % kSwlPeriod == 0) {
        // Static wear leveling turn: migrate the coldest closed block,
        // whatever its valid count (the sporadic burst the paper blames
        // for conventional-SSD latency variation).
        idx = 0;
        uint32_t min_ec = UINT32_MAX;
        const nand::Geometry &geo = flash_->geometry();
        for (size_t i = 0; i < cf.full_blocks.size(); ++i) {
            const uint32_t ec =
                flash_->channel(ch)
                    .block_meta(FlatToBlockAddr(geo, cf.full_blocks[i]))
                    .erase_count;
            if (ec < min_ec) {
                min_ec = ec;
                idx = i;
            }
        }
        ++stats_.swl_migrations;
    } else {
        idx = ftl::PickGreedyVictim(*cf.map, cf.full_blocks);
    }
    const uint32_t victim = cf.full_blocks[idx];
    cf.full_blocks[idx] = cf.full_blocks.back();
    cf.full_blocks.pop_back();

    cf.gc_victim = victim;
    cf.gc_pending = cf.map->ValidLogicalPages(victim);
    GcPump(ch);
}

void
ConventionalSsd::GcPump(uint32_t ch)
{
    ChannelFtl &cf = channels_[ch];
    if (!cf.gc_active) return;
    const nand::Geometry &geo = flash_->geometry();
    const uint32_t ppb = geo.pages_per_block;

    while (cf.gc_inflight < kGcInflightWindow &&
           !cf.gc_pending.empty()) {
        const uint32_t lpn = cf.gc_pending.back();
        cf.gc_pending.pop_back();
        const uint32_t ppn = cf.map->Lookup(lpn);
        if (ppn == ftl::kUnmappedPage || ppn / ppb != cf.gc_victim) {
            continue;  // Rewritten since the victim was chosen.
        }
        ++cf.gc_inflight;
        auto buf = config_.flash.store_payloads
                       ? std::make_shared<std::vector<uint8_t>>()
                       : nullptr;
        firmware_.Submit(config_.fw_cost_write_page, [this, ch, lpn, ppn,
                                                      buf]() {
            flash_->channel(ch).ReadPage(
                FlatToPageAddr(flash_->geometry(), ppn),
                [this, ch, lpn, ppn, buf](nand::OpStatus) {
                    ChannelFtl &cf2 = channels_[ch];
                    const uint32_t ppb2 = flash_->geometry().pages_per_block;
                    // Re-validate: the host may have overwritten the page
                    // while the GC read was in flight.
                    const uint32_t cur = cf2.map->Lookup(lpn);
                    if (cur != ppn || cur / ppb2 != cf2.gc_victim) {
                        --cf2.gc_inflight;
                        GcPump(ch);
                        return;
                    }
                    // The relocation program is firmware work too (mapping
                    // update + command issue), like the read before it.
                    firmware_.Submit(
                        config_.fw_cost_write_page,
                        [this, ch, lpn, ppn, buf]() {
                            // Re-validate again after the firmware delay.
                            ChannelFtl &cf3 = channels_[ch];
                            const uint32_t cur2 = cf3.map->Lookup(lpn);
                            if (cur2 != ppn) {
                                --cf3.gc_inflight;
                                GcPump(ch);
                                return;
                            }
                            const bool issued =
                                IssueProgram(ch, lpn, PageKind::kGc, buf);
                            SDF_CHECK_MSG(
                                issued,
                                "GC ran out of frontier space mid-victim");
                        });
                },
                buf.get());
        });
    }
    if (cf.gc_pending.empty() && cf.gc_inflight == 0) GcFinishVictim(ch);
}

void
ConventionalSsd::GcFinishVictim(uint32_t ch)
{
    ChannelFtl &cf = channels_[ch];
    const uint32_t victim = cf.gc_victim;
    SDF_CHECK(victim != ftl::kUnmappedBlock);
    SDF_CHECK_MSG(cf.map->ValidCount(victim) == 0,
                  "erasing a block with valid data");
    cf.gc_victim = ftl::kUnmappedBlock;

    const nand::Geometry &geo = flash_->geometry();
    const nand::BlockAddr addr = FlatToBlockAddr(geo, victim);
    flash_->channel(ch).EraseBlock(addr, [this, ch, victim,
                                          addr](nand::OpStatus status) {
        ChannelFtl &cf2 = channels_[ch];
        ++stats_.gc_erases;
        if (status == nand::OpStatus::kOk) {
            const uint32_t ec =
                flash_->channel(ch).block_meta(addr).erase_count;
            cf2.planes[addr.plane].free_pool.Release(victim, ec);
        }
        // A stalled drain may now be able to make progress.
        PumpDrain(ch);
        TryAdmitCacheWaiters();
        if (TotalFree(ch) < config_.gc_high_watermark &&
            !cf2.full_blocks.empty()) {
            GcPickVictim(ch);
        } else {
            cf2.gc_active = false;
        }
    });
}

// ---------------------------------------------------------------------------
// Preconditioning
// ---------------------------------------------------------------------------

void
ConventionalSsd::PreconditionFill(double fraction)
{
    SDF_CHECK(fraction >= 0.0 && fraction <= 1.0);
    const nand::Geometry &geo = flash_->geometry();
    const uint32_t ppb = geo.pages_per_block;
    const uint32_t planes = geo.PlanesPerChannel();
    const auto fill_lpns =
        static_cast<uint32_t>(data_lpns_per_channel_ * fraction);

    for (uint32_t ch = 0; ch < geo.channels; ++ch) {
        ChannelFtl &cf = channels_[ch];
        uint32_t lpn = 0;
        uint32_t plane_rr = 0;
        while (lpn < fill_lpns) {
            // Rotate planes for an even fill.
            PlaneState *ps = nullptr;
            uint32_t plane = 0;
            for (uint32_t probe = 0; probe < planes; ++probe) {
                plane = (plane_rr + probe) % planes;
                if (!cf.planes[plane].free_pool.Empty()) {
                    ps = &cf.planes[plane];
                    break;
                }
            }
            SDF_CHECK_MSG(ps != nullptr, "precondition ran out of blocks");
            plane_rr = (plane + 1) % planes;

            const uint32_t block = ps->free_pool.Allocate();
            const uint32_t pages = std::min(ppb, fill_lpns - lpn);
            flash_->channel(ch).DebugSetProgrammed(FlatToBlockAddr(geo, block),
                                                   pages);
            for (uint32_t p = 0; p < pages; ++p)
                cf.map->Update(lpn++, block * ppb + p);
            if (pages == ppb) {
                cf.full_blocks.push_back(block);
            } else {
                // Leave the partial block as the host write frontier.
                ps->frontier = block;
                ps->frontier_next = pages;
            }
        }
    }
}

void
ConventionalSsd::PreconditionFillRandom(double fraction, uint64_t seed)
{
    SDF_CHECK(fraction >= 0.0 && fraction <= 1.0);
    const nand::Geometry &geo = flash_->geometry();
    const uint32_t ppb = geo.pages_per_block;
    const uint32_t planes = geo.PlanesPerChannel();
    util::Rng rng(seed);

    const uint32_t total_lpns =
        data_lpns_per_channel_ + parity_lpns_per_channel_;
    const auto fill_lpns = static_cast<uint32_t>(total_lpns * fraction);

    for (uint32_t ch = 0; ch < geo.channels; ++ch) {
        ChannelFtl &cf = channels_[ch];
        // Keep only the frontier blocks and a sliver of pool; everything
        // else participates in the fragmented layout.
        const uint32_t keep = 2 * planes + 2;
        std::vector<uint32_t> used_blocks;
        uint32_t kept = 0;
        // Drain pools round-robin so the kept blocks spread over planes.
        for (uint32_t plane = 0; plane < planes; ++plane) {
            PlaneState &ps = cf.planes[plane];
            std::vector<uint32_t> back;
            while (!ps.free_pool.Empty()) {
                const uint32_t b = ps.free_pool.Allocate();
                if (kept < keep && back.size() < (keep + planes - 1) / planes) {
                    back.push_back(b);
                    ++kept;
                } else {
                    used_blocks.push_back(b);
                }
            }
            for (uint32_t b : back) ps.free_pool.Release(b, 0);
        }
        SDF_CHECK_MSG(uint64_t{used_blocks.size()} * ppb >= fill_lpns,
                      "random precondition lacks physical space");

        // All slots of the used blocks, shuffled; the first fill_lpns get
        // live data, the rest are stale garbage.
        std::vector<uint32_t> slots;
        slots.reserve(used_blocks.size() * ppb);
        for (uint32_t b : used_blocks) {
            flash_->channel(ch).DebugSetProgrammed(
                nand::BlockFromFlat(geo, b), ppb);
            cf.full_blocks.push_back(b);
            for (uint32_t p = 0; p < ppb; ++p) slots.push_back(b * ppb + p);
        }
        for (size_t i = slots.size(); i > 1; --i) {
            std::swap(slots[i - 1], slots[rng.NextBelow(i)]);
        }
        for (uint32_t lpn = 0; lpn < fill_lpns; ++lpn) {
            cf.map->Update(lpn, slots[lpn]);
        }
    }
}

// ---------------------------------------------------------------------------
// Factory configurations (Table 1 / Table 3 devices)
// ---------------------------------------------------------------------------

namespace {

uint32_t
ScaledBlocks(uint32_t blocks, double scale)
{
    const auto scaled = static_cast<uint32_t>(blocks * scale);
    return std::max(scaled, 24u);
}

/** Scale the DRAM write-back cache with the device so short simulated
 *  runs reach the drain-limited steady state quickly. */
uint64_t
ScaledCache(uint64_t cache, double scale)
{
    const auto scaled = static_cast<uint64_t>(cache * scale);
    return std::max<uint64_t>(scaled, 16 * util::kMiB);
}

}  // namespace

ConventionalSsdConfig
HuaweiGen3Config(double capacity_scale)
{
    ConventionalSsdConfig c;
    c.name = "Huawei Gen3";
    c.flash.geometry = nand::BaiduSdfGeometry();  // same board as SDF
    c.flash.geometry.blocks_per_plane =
        ScaledBlocks(c.flash.geometry.blocks_per_plane, capacity_scale);
    c.flash.timing = nand::Micron25nmMlcTiming();
    c.link = controller::Pcie11x8Spec();
    c.op_ratio = 0.25;  // §3.1: 25 % reserved in the evaluation
    c.stripe_bytes = 8 * util::kKiB;
    c.max_outstanding = 128;  // Deep PCIe command queues.
    c.parity = true;
    c.dram_cache_bytes = ScaledCache(util::kGiB, capacity_scale);
    c.fw_cost_per_read_request = util::UsToNs(1.6);
    c.fw_cost_per_write_request = util::UsToNs(30);
    c.fw_cost_read_page = util::UsToNs(6.8);
    c.fw_cost_write_page = util::UsToNs(11.9);
    return c;
}

ConventionalSsdConfig
Intel320Config(double capacity_scale)
{
    ConventionalSsdConfig c;
    c.name = "Intel 320";
    c.flash.geometry = nand::Intel320Geometry();
    c.flash.geometry.blocks_per_plane =
        ScaledBlocks(c.flash.geometry.blocks_per_plane, capacity_scale);
    c.flash.timing = nand::Onfi2Timing();
    c.link = controller::Sata2Spec();
    c.op_ratio = 0.125;  // 20 of 160 GB reserved (§3.1)
    c.stripe_bytes = c.flash.geometry.page_size;
    c.parity = true;
    c.dram_cache_bytes = ScaledCache(64 * util::kMiB, capacity_scale * 4);
    // Low-end SATA controller: modest per-page handling, expensive
    // per-write-request mapping persistence (limits small random writes).
    c.fw_cost_per_read_request = util::UsToNs(25);
    c.fw_cost_per_write_request = util::UsToNs(300);
    c.fw_cost_read_page = util::UsToNs(17.5);
    c.fw_cost_write_page = util::UsToNs(20);
    return c;
}

ConventionalSsdConfig
MemblazeQ520Config(double capacity_scale)
{
    ConventionalSsdConfig c;
    c.name = "Memblaze Q520";
    // Table 1: 32 channels x 16 planes, 34 nm MLC, ONFI 1.x async.
    nand::Geometry g;
    g.channels = 32;
    g.dies_per_channel = 8;
    g.planes_per_die = 2;
    g.blocks_per_plane = 512;
    g.pages_per_block = 256;
    g.page_size = 8 * util::kKiB;
    c.name = "Memblaze Q520";
    c.flash.geometry = g;
    c.flash.geometry.blocks_per_plane =
        ScaledBlocks(c.flash.geometry.blocks_per_plane, capacity_scale);
    nand::TimingSpec t;
    t.read_page = util::UsToNs(75);
    t.program_page = util::MsToNs(1.5);
    t.erase_block = util::MsToNs(3.0);
    t.bus_bytes_per_sec = 52e6;  // raw read ~1.6 GB/s over 32 channels
    t.bus_cmd_overhead = util::UsToNs(6);
    c.flash.timing = t;
    c.link = controller::Pcie11x8Spec();
    c.op_ratio = 0.25;
    c.stripe_bytes = 8 * util::kKiB;
    c.max_outstanding = 128;  // Deep PCIe command queues.
    c.parity = true;
    c.dram_cache_bytes = ScaledCache(util::kGiB, capacity_scale);
    c.fw_cost_per_read_request = util::UsToNs(2.0);
    c.fw_cost_per_write_request = util::UsToNs(20);
    c.fw_cost_read_page = util::UsToNs(6.3);
    c.fw_cost_write_page = util::UsToNs(12.5);
    return c;
}

SsdSizing
SizeConventionalSsd(const ConventionalSsdConfig &config,
                    uint32_t worst_channel_good_blocks)
{
    const nand::Geometry &geo = config.flash.geometry;
    const uint32_t channels = geo.channels;
    // Reserve: one host frontier and one GC frontier per plane, plus GC
    // headroom. Over-provisioning comes out of what remains.
    const uint32_t reserve =
        2 * geo.PlanesPerChannel() + config.gc_high_watermark;
    SDF_CHECK_MSG(worst_channel_good_blocks > reserve,
                  "geometry too small for reserves");
    const auto usable =
        static_cast<uint32_t>(worst_channel_good_blocks - reserve);
    auto logical_blocks =
        static_cast<uint32_t>(usable * (1.0 - config.op_ratio));
    SDF_CHECK_MSG(logical_blocks > 0, "over-provisioning leaves no space");

    uint32_t data_blocks = logical_blocks;
    uint32_t parity_blocks = 0;
    if (config.parity && channels > 1) {
        data_blocks = logical_blocks * (channels - 1) / channels;
        parity_blocks = logical_blocks - data_blocks;
    }
    SsdSizing s;
    s.data_lpns_per_channel = data_blocks * geo.pages_per_block;
    s.parity_lpns_per_channel = parity_blocks * geo.pages_per_block;
    s.user_capacity =
        uint64_t{channels} * s.data_lpns_per_channel * geo.page_size;
    s.raw_capacity = geo.TotalBytes();
    return s;
}

SsdSizing
SizeConventionalSsd(const ConventionalSsdConfig &config)
{
    SDF_CHECK_MSG(config.flash.factory_bad_per_mille == 0.0,
                  "sizing without a device needs no factory-bad blocks");
    return SizeConventionalSsd(config,
                               config.flash.geometry.BlocksPerChannel());
}

}  // namespace sdf::ssd
