/**
 * @file
 * Conventional SSD model — the baseline architecture SDF replaces.
 *
 * Structure (paper §2, Figure 5a): one controller fronts all flash
 * channels; the logical address space is striped round-robin over the
 * channels with a small unit (8 KB on the Huawei Gen3); a page-level FTL
 * per channel handles out-of-place writes; background garbage collection
 * reclaims space from over-provisioned capacity; an on-board DRAM
 * write-back cache absorbs bursts; optional RAID-5-style parity across
 * channels consumes ~1/channels of capacity; a single embedded firmware
 * CPU processes every per-channel sub-request (the split/merge overhead
 * the paper blames for the baseline's bandwidth loss).
 *
 * The device is asynchronous: Read/Write complete via callback in
 * simulated time. Writes are acknowledged when their data is accepted
 * into the DRAM cache (write-back), which is why the paper's Figure 8
 * sees 7 ms best-case and 650 ms worst-case latency on the same device.
 */
#ifndef SDF_SSD_CONVENTIONAL_SSD_H
#define SDF_SSD_CONVENTIONAL_SSD_H

#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <memory>
#include <string>
#include <vector>

#include "controller/link.h"
#include "ftl/block_map.h"
#include "ftl/page_map.h"
#include "ftl/striping.h"
#include "ftl/wear_leveler.h"
#include "nand/flash_array.h"
#include "sim/callback.h"
#include "sim/fifo_resource.h"
#include "sim/simulator.h"
#include "util/flat_map.h"
#include "util/ring.h"

namespace sdf::obs {
class Hub;
}  // namespace sdf::obs

namespace sdf::ssd {

using util::TimeNs;

/** Completion callback: ok=false on device-level failure. */
using IoCallback = sim::Func<void(bool ok)>;

/** Construction parameters for a conventional SSD. */
struct ConventionalSsdConfig
{
    std::string name = "conventional";
    nand::FlashArrayConfig flash;
    controller::LinkSpec link;

    /** Fraction of raw capacity withheld for GC headroom. */
    double op_ratio = 0.25;
    /** Striping unit over channels (bytes, multiple of page size). */
    uint32_t stripe_bytes = 8 * util::kKiB;
    /** RAID-5-style parity across channels (costs 1/channels capacity). */
    bool parity = true;
    /** On-board DRAM write-back cache (bytes). */
    uint64_t dram_cache_bytes = util::kGiB;
    /** Max requests in service (NCQ-style queue depth). */
    uint32_t max_outstanding = 32;

    /** Firmware CPU cost charged once per read request. */
    TimeNs fw_cost_per_read_request = util::UsToNs(20);
    /**
     * Firmware CPU cost charged once per write request (covers mapping
     * persistence; dominates small random writes on low-end devices).
     */
    TimeNs fw_cost_per_write_request = util::UsToNs(25);
    /** Firmware CPU cost charged per per-page sub-operation (read). */
    TimeNs fw_cost_read_page = util::UsToNs(6.8);
    /** Firmware CPU cost charged per per-page sub-operation (write/GC). */
    TimeNs fw_cost_write_page = util::UsToNs(11.9);

    /** Start GC when a channel's free pool drops below this many blocks. */
    uint32_t gc_low_watermark = 6;
    /** Stop GC once the free pool recovers to this many blocks. */
    uint32_t gc_high_watermark = 10;
};

/** Cumulative device statistics. */
struct SsdStats
{
    uint64_t host_reads = 0;
    uint64_t host_writes = 0;
    uint64_t host_read_bytes = 0;
    uint64_t host_written_bytes = 0;
    uint64_t host_pages_written = 0;
    uint64_t gc_pages_moved = 0;
    uint64_t parity_pages_written = 0;
    uint64_t gc_erases = 0;
    uint64_t swl_migrations = 0;
    uint64_t cache_hit_pages = 0;
    uint64_t read_errors = 0;

    /** (host + gc + parity) page programs per host page program. */
    double
    WriteAmplification() const
    {
        if (host_pages_written == 0) return 0.0;
        return static_cast<double>(host_pages_written + gc_pages_moved +
                                   parity_pages_written) /
               static_cast<double>(host_pages_written);
    }
};

/** The conventional SSD device model. */
class ConventionalSsd
{
  public:
    ConventionalSsd(sim::Simulator &sim, const ConventionalSsdConfig &config);
    ~ConventionalSsd();

    ConventionalSsd(const ConventionalSsd &) = delete;
    ConventionalSsd &operator=(const ConventionalSsd &) = delete;

    /** Bytes of logical space exposed to the host. */
    uint64_t user_capacity() const { return user_capacity_; }

    /** Raw flash bytes underneath. */
    uint64_t raw_capacity() const { return flash_->geometry().TotalBytes(); }

    /**
     * Read @p length bytes at @p offset (page-aligned). Completes through
     * the callback in simulated time. When @p out is non-null and the
     * flash stores payloads, the data read is copied into it.
     */
    void Read(uint64_t offset, uint64_t length, IoCallback done,
              std::vector<uint8_t> *out = nullptr);

    /**
     * Write @p length bytes at @p offset (page-aligned). Write-back: the
     * callback fires when the data is accepted into the DRAM cache.
     * @p data may be null for timing-only runs.
     */
    void Write(uint64_t offset, uint64_t length, IoCallback done,
               const uint8_t *data = nullptr);

    /**
     * Instantly (zero simulated time) fill the first @p fraction of the
     * logical space, as a fresh sequential write would. Used to bring a
     * device to "almost full" before experiments, as the paper does.
     */
    void PreconditionFill(double fraction);

    /**
     * Instantly fill the first @p fraction of the logical space (data and
     * parity) with a *random* physical layout: logical pages scattered
     * uniformly over nearly all physical blocks, every used block fully
     * programmed. This reproduces the fragmented steady state that a long
     * random-write history produces, so GC experiments (Figure 1) start
     * from realistic write amplification instead of a pristine layout.
     */
    void PreconditionFillRandom(double fraction, uint64_t seed = 99);

    const SsdStats &stats() const { return stats_; }
    const ConventionalSsdConfig &config() const { return config_; }
    nand::FlashArray &flash() { return *flash_; }

    /** Free blocks currently pooled in @p channel (all planes). */
    uint32_t FreeBlocks(uint32_t channel) const;

    /** Total dirty bytes waiting in the DRAM cache. */
    uint64_t CacheUsed() const { return cache_used_; }

  private:
    struct PlaneState
    {
        ftl::DynamicWearLeveler free_pool;
        uint32_t frontier = ftl::kUnmappedBlock;      ///< Host-write block.
        uint32_t frontier_next = 0;
        uint32_t gc_frontier = ftl::kUnmappedBlock;   ///< GC destination.
        uint32_t gc_frontier_next = 0;
    };

    struct ChannelFtl
    {
        std::unique_ptr<ftl::PageMap> map;
        std::vector<PlaneState> planes;
        std::vector<uint32_t> full_blocks;   ///< GC candidates (flat ids).
        /** lpns awaiting drain (parity's too), with optional payloads. */
        util::Ring<std::pair<uint32_t, std::shared_ptr<std::vector<uint8_t>>>>
            dirty_queue;
        uint32_t drain_inflight = 0;
        uint32_t drain_plane_cursor = 0;
        uint32_t gc_plane_cursor = 0;
        bool gc_active = false;
        std::vector<uint32_t> gc_pending;    ///< lpns left to migrate.
        uint32_t gc_victim = ftl::kUnmappedBlock;
        uint32_t gc_inflight = 0;
        uint64_t gc_victims_picked = 0;      ///< For the SWL cadence.
        uint64_t parity_cursor = 0;          ///< Rotates parity lpns.
    };

    /** What kind of page program is being issued. */
    enum class PageKind : uint8_t { kHost, kGc, kParity };

    struct PendingRequest
    {
        bool is_write;
        uint64_t offset;
        uint64_t length;
        IoCallback done;
        const uint8_t *data;
        std::vector<uint8_t> *out;
    };

    /** Cached dirty page: drain refcount plus the freshest payload. */
    struct DirtyEntry
    {
        uint32_t refs = 0;
        std::shared_ptr<std::vector<uint8_t>> payload;
    };

    /** A host read in flight (conventional_ssd.cc). */
    struct HostRead;

    // ---- request admission ------------------------------------------
    void Admit(PendingRequest req);
    void FinishRequest();
    void StartRead(PendingRequest req);
    void StartWrite(PendingRequest req);

    // ---- read path ----------------------------------------------------
    /** Serve page @p index of @p r from the DRAM cache, or read it. */
    void ReadHostPage(HostRead &r, uint32_t index);
    /** A page of @p r is in; the last one streams @p r to the host. */
    void HostPageDone(HostRead &r);

    // ---- cache ---------------------------------------------------------
    void TryAdmitCacheWaiters();
    void ReleaseCache(uint64_t bytes);

    // ---- drain / program ------------------------------------------------
    void PumpDrain(uint32_t ch);
    /** @return false if no frontier space exists (caller must retry). */
    bool IssueProgram(uint32_t ch, uint32_t lpn, PageKind kind,
                      std::shared_ptr<std::vector<uint8_t>> payload);
    void MaybeEmitParity();

    // ---- garbage collection ---------------------------------------------
    uint32_t TotalFree(uint32_t ch) const;
    void MaybeStartGc(uint32_t ch);
    void GcPickVictim(uint32_t ch);
    void GcPump(uint32_t ch);
    void GcFinishVictim(uint32_t ch);

    // ---- helpers ----------------------------------------------------------
    uint32_t PageSize() const { return flash_->geometry().page_size; }
    uint64_t DirtyKey(uint32_t ch, uint32_t lpn) const
    {
        return (uint64_t{ch} << 32) | lpn;
    }

    sim::Simulator &sim_;
    ConventionalSsdConfig config_;
    std::unique_ptr<nand::FlashArray> flash_;
    std::unique_ptr<controller::Link> link_;
    sim::FifoResource firmware_;

    ftl::StripingLayout striping_;
    std::vector<ChannelFtl> channels_;
    uint32_t data_lpns_per_channel_ = 0;
    uint32_t parity_lpns_per_channel_ = 0;
    uint64_t user_capacity_ = 0;

    uint32_t outstanding_ = 0;
    std::deque<PendingRequest> admission_queue_;
    /**
     * Host reads in flight. Their per-page callbacks point into this
     * list, so a page's closure carries no shared owner.
     */
    std::list<HostRead> reads_;

    uint64_t cache_used_ = 0;
    /** Writes waiting for cache space: their bytes and their admit. */
    util::Ring<std::pair<uint64_t, sim::Callback>> cache_waiters_;
    util::FlatMap<DirtyEntry> dirty_pages_;  ///< By DirtyKey.
    uint64_t parity_row_counter_ = 0;

    SsdStats stats_;

    obs::Hub *hub_ = nullptr;       ///< Metrics registration (see obs/hub.h).
    std::string metric_prefix_;
};

/**
 * Factory configs for the paper's comparison devices. @p capacity_scale in
 * (0, 1] shrinks blocks-per-plane to keep simulations memory-friendly;
 * per-channel structure and all ratios are preserved.
 */
ConventionalSsdConfig HuaweiGen3Config(double capacity_scale = 1.0);
ConventionalSsdConfig Intel320Config(double capacity_scale = 1.0);
ConventionalSsdConfig MemblazeQ520Config(double capacity_scale = 1.0);

/** The logical space a ConventionalSsd built from one config exposes. */
struct SsdSizing
{
    uint32_t data_lpns_per_channel = 0;
    uint32_t parity_lpns_per_channel = 0;
    uint64_t user_capacity = 0;  ///< Data pages of every channel.
    uint64_t raw_capacity = 0;   ///< All of the flash.
};

/**
 * The sizing of a device built from @p config whose channel with the
 * fewest good blocks has @p worst_channel_good_blocks (striping needs
 * every channel the same size). Frontier and GC reserves come off first,
 * then over-provisioning, then parity's 1/channels.
 */
SsdSizing SizeConventionalSsd(const ConventionalSsdConfig &config,
                              uint32_t worst_channel_good_blocks);

/**
 * SizeConventionalSsd for a config with no factory-bad blocks (checked),
 * as the factory configs have: capacities without building the device.
 */
SsdSizing SizeConventionalSsd(const ConventionalSsdConfig &config);

}  // namespace sdf::ssd

#endif  // SDF_SSD_CONVENTIONAL_SSD_H
