/**
 * @file
 * The SDF device — the paper's primary contribution (§2).
 *
 * SDF exposes each of its 44 flash channels to software as an independent
 * device with an asymmetric interface:
 *
 *   - read unit:       8 KB (one flash page), any page-aligned offset;
 *   - write unit:      8 MB (one "unit" = one erase block per plane, data
 *                      striped 2 MB per plane over the channel's 4 planes),
 *                      and writes must target an erased unit;
 *   - erase:           an explicit per-unit command issued by software.
 *
 * Each channel has its own engine implementing block-level mapping
 * (LA2PA), dynamic wear leveling (least-worn-first allocation), and bad
 * block management. There is no garbage collection, no inter-channel
 * parity, no on-board DRAM cache, and no over-provisioning: only a few
 * spare blocks per plane for bad-block replacement are withheld, so ~99 %
 * of the raw capacity is user-visible.
 */
#ifndef SDF_SDF_SDF_DEVICE_H
#define SDF_SDF_SDF_DEVICE_H

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <string>
#include <vector>

#include "controller/interrupts.h"
#include "controller/link.h"
#include "ftl/bad_block_manager.h"
#include "ftl/block_map.h"
#include "ftl/wear_leveler.h"
#include "nand/flash_array.h"
#include "obs/span.h"
#include "sdf/block_device.h"
#include "sdf/io_status.h"
#include "sim/fifo_resource.h"
#include "sim/simulator.h"
#include "util/histogram.h"
#include "util/latency_recorder.h"

namespace sdf::obs {
class Hub;
}  // namespace sdf::obs

namespace sdf::core {

using util::TimeNs;

/** Construction parameters for an SDF device. */
struct SdfConfig
{
    std::string name = "Baidu SDF";
    nand::FlashArrayConfig flash;
    controller::LinkSpec link;
    controller::InterruptConfig irq;
    /** Good blocks reserved per plane for bad-block replacement. */
    uint32_t spare_blocks_per_plane = 8;
    /**
     * Read-retry ladder depth: on an ECC-uncorrectable read the engine
     * re-senses the page up to this many times with escalating correction
     * strength before declaring the data lost and retiring the block.
     * 0 disables retries (the original error-counting-only behaviour).
     */
    uint32_t read_retry_levels = 4;
};

/** Cumulative device statistics. */
struct SdfStats
{
    uint64_t unit_writes = 0;
    uint64_t unit_erases = 0;
    uint64_t physical_block_erases = 0;
    uint64_t page_reads = 0;
    /**
     * Staged pages whose data-in went over the bus again because a read
     * used the plane's cache register before their program began.
     */
    uint64_t resent_pages = 0;
    /** Page programs a read suspended to sense ahead of them. */
    uint64_t program_suspends = 0;
    /**
     * On-demand pages whose data-out went ahead of a background transfer
     * booked before them on the channel bus.
     */
    uint64_t bus_overtakes = 0;
    uint64_t read_bytes = 0;
    uint64_t written_bytes = 0;
    uint64_t contract_violations = 0;  ///< e.g. write to a non-erased unit.
    uint64_t blocks_retired = 0;
    uint64_t read_failures = 0;     ///< Terminal (post-ladder) page failures.
    uint64_t read_retries = 0;      ///< Ladder re-reads issued.
    uint64_t retry_recoveries = 0;  ///< Pages recovered by the ladder.
    uint64_t read_retirements = 0;  ///< Blocks retired by persistent reads.
    uint64_t units_lost = 0;        ///< Units gone kDead (no spare left).
};

/**
 * The software-defined flash device.
 *
 * All operations address (channel, unit) pairs; there is deliberately no
 * cross-channel logical space — exploiting channel parallelism is the
 * host software's job (that is the point of the design).
 */
class SdfDevice : public BlockDevice
{
  public:
    SdfDevice(sim::Simulator &sim, const SdfConfig &config);
    ~SdfDevice() override;

    SdfDevice(const SdfDevice &) = delete;
    SdfDevice &operator=(const SdfDevice &) = delete;

    /** Geometry descriptor: 44 channels x 8 MB units, explicit erase. */
    const DeviceCaps &caps() const override { return caps_; }

    /**
     * Read @p length bytes at @p offset within (@p channel, @p unit).
     * Offset and length must be multiples of the read unit (8 KB).
     * Reading an unwritten unit succeeds and returns 0xFF bytes.
     *
     * The read's class is the issuing context's (ReadClassScope, read
     * when Read is called): a background read is FIFO on its planes and
     * on the bus; an on-demand read (the default) suspends a page program
     * running on its plane and its data-out goes ahead of background
     * transfers on the bus (nand::Channel::ReadPage).
     *
     * @p span, when non-null, receives latency-stage milestones. A
     * single-page read gets the channel's fine-grained breakdown (queue /
     * flash_op / channel_bus / bch_decode / retry); a multi-page read is
     * attributed by critical path: flash_op until the last page leaves
     * the flash, then link_transfer for the DMA tail.
     */
    void Read(uint32_t channel, uint32_t unit, uint64_t offset,
              uint64_t length, IoCallback done,
              std::vector<uint8_t> *out = nullptr,
              obs::IoSpan *span = nullptr) override;

    /**
     * Write one full unit (8 MB). The unit must be in the erased state
     * (software contract: erase-before-write); otherwise completes false
     * and counts a contract violation. @p span, when non-null, splits the
     * latency into queue / link_transfer / flash_op / interrupt.
     *
     * Each plane gets its pages in order: one programs while the next
     * waits in the plane's cache register, and its program is booked
     * only when the plane frees. So the program in progress is a plane's
     * only booked work, and a read issued mid-write suspends it
     * (nand::Channel::ReadPage) instead of waiting for it. If the channel
     * dies mid-write the staged pages are dropped and the write fails
     * with kChannelDead.
     */
    void WriteUnit(uint32_t channel, uint32_t unit, IoCallback done,
                   const uint8_t *data = nullptr,
                   obs::IoSpan *span = nullptr) override;

    /**
     * Erase a unit: the explicit erase command SDF adds to the device
     * interface. Erases the unit's mapped physical blocks (if any) and
     * remaps the unit to the least-worn free blocks (dynamic wear
     * leveling through the free pool). @p span attribution: queue /
     * erase_op / interrupt.
     */
    void EraseUnit(uint32_t channel, uint32_t unit, IoCallback done,
                   obs::IoSpan *span = nullptr) override;

    /** Current state of a unit. */
    UnitState unit_state(uint32_t channel, uint32_t unit) const override;

    /**
     * In-storage scan (§5 future work, "moving compute to the storage"):
     * the channel engine streams a whole unit off the flash, applies a
     * filter inside the controller, and DMAs only the matching fraction
     * to the host. @p selectivity in [0, 1] is the fraction of bytes that
     * match; @p done receives the matched byte count. With 44 engines
     * scanning in parallel, aggregate scan bandwidth is bounded by the
     * flash (1.67 GB/s), not by PCIe. A scan is background work: its
     * page reads wait for a page program on their plane and go in booking
     * order on the bus.
     */
    void ScanUnit(uint32_t channel, uint32_t unit, double selectivity,
                  std::function<void(bool ok, uint64_t matched)> done);

    /**
     * Device wear and reliability summary (§5 future work: "incorporate,
     * and expose, a data reliability model"). Lets the host reason about
     * remaining endurance and retire devices proactively.
     */
    struct WearReport
    {
        uint32_t min_erase_count = 0;
        uint32_t max_erase_count = 0;
        double mean_erase_count = 0.0;
        uint64_t blocks_retired = 0;
        uint64_t dead_units = 0;
        uint32_t rated_endurance = 0;
        /** mean_erase_count / rated_endurance; > 1 means living on spares. */
        double life_used = 0.0;
    };

    /** Compute the current wear report (walks all block metadata). */
    WearReport GetWearReport() const;

    /**
     * True once the channel's hardware has failed (fault injection):
     * every operation on it completes with IoError::kChannelDead. Hosts
     * poll this to steer writes and reads to surviving channels.
     */
    bool ChannelDead(uint32_t channel) const override
    {
        return flash_->channel(channel).dead();
    }

    /**
     * Latency from the first uncorrectable sense of a page to its
     * recovery by the read-retry ladder (per recovered page).
     */
    const util::LatencyRecorder &recovery_latencies() const
    {
        return recovery_latencies_;
    }

    /** Bad-block spares remaining in one plane's pool. */
    uint32_t SparesLeft(uint32_t channel, uint32_t plane) const
    {
        return channels_[channel].planes[plane].bbm->spares_left();
    }

    /** Grown (post-factory) bad blocks recorded in one plane. */
    uint32_t GrownBadCount(uint32_t channel, uint32_t plane) const
    {
        return channels_[channel].planes[plane].bbm->grown_bad_count();
    }

    /**
     * Instantly (zero simulated time, no payload) bring a unit to the
     * written state: maps physical blocks and marks them programmed.
     * Simulation backdoor for preconditioning experiments only.
     */
    void DebugForceWritten(uint32_t channel, uint32_t unit) override;

    const SdfStats &stats() const { return stats_; }
    const SdfConfig &config() const { return config_; }
    nand::FlashArray &flash() { return *flash_; }
    const controller::InterruptCoalescer &irq() const { return *irq_; }

  private:
    struct PlaneEngine
    {
        std::unique_ptr<ftl::BlockMap> map;        ///< unit -> physical block.
        std::unique_ptr<ftl::BadBlockManager> bbm; ///< Bad blocks + spares.
        ftl::DynamicWearLeveler free_pool;         ///< Erased usable blocks.
    };

    struct ChannelEngine
    {
        std::vector<PlaneEngine> planes;
        std::vector<UnitState> units;
        std::unique_ptr<sim::FifoResource> engine;  ///< FPGA command pipe.
    };

    /** A unit write in progress (sdf_device.cc). */
    struct UnitWrite;
    /** A read in progress (sdf_device.cc). */
    struct UnitRead;

    bool ValidUnit(uint32_t channel, uint32_t unit) const;

    /**
     * Book the program of @p plane's staged page of @p w, then stage the
     * plane's next page. Runs twice per plane when the write starts and
     * once as each program completes. Does nothing once the write has
     * failed; a dead channel fails it with kChannelDead.
     */
    void AdvancePlane(UnitWrite &w, uint32_t plane);

    /** Complete @p w, whose last program is done, and release it. */
    void FinishWrite(UnitWrite &w);

    void Complete(uint32_t channel, IoCallback done, IoStatus status,
                  obs::IoSpan *span = nullptr);

    /** Register pull-metrics with the simulator's hub, if one is set. */
    void RegisterMetrics();

    /**
     * One rung of the read-retry ladder for page @p index of @p r, which
     * lives in physical @p block: read it at @p level; on
     * kReadUncorrectable escalate up to config_.read_retry_levels, then
     * retire the block and report kReadUncorrectable to PageDone().
     * @p first_fail is the sim time of the first failed sense (0 while
     * level == 0). Every rung is of the read's class.
     */
    void ReadPageLadder(UnitRead &r, uint32_t index, uint32_t block,
                        uint32_t level, TimeNs first_fail);

    /**
     * Page @p index of @p r is off the flash with @p status: DMA the
     * pages to the host in chunks as they come, and complete the read
     * when its last chunk lands.
     */
    void PageDone(UnitRead &r, uint32_t index, IoStatus status);

    /**
     * Retire @p block (grown bad) in (@p channel, @p plane): mark it bad,
     * pull a spare from the plane's BadBlockManager into the free pool,
     * and remap @p unit to a fresh block. If no block is available the
     * unit goes kDead. Returns the new physical block or kUnmappedBlock.
     */
    uint32_t RetireAndRemap(uint32_t channel, uint32_t plane, uint32_t unit,
                            uint32_t block);

    sim::Simulator &sim_;
    SdfConfig config_;
    std::unique_ptr<nand::FlashArray> flash_;
    std::unique_ptr<controller::Link> link_;
    std::unique_ptr<controller::InterruptCoalescer> irq_;
    std::vector<ChannelEngine> channels_;
    DeviceCaps caps_;
    uint32_t units_per_channel_ = 0;
    uint64_t unit_bytes_ = 0;
    SdfStats stats_;
    util::LatencyRecorder recovery_latencies_;
    /** On-demand pages' sense end to data-out start; under a hub only. */
    util::Histogram bus_wait_;

    /**
     * Reads and unit writes in flight. Their per-page callbacks point
     * into these lists, so a page's closure carries no shared owner.
     */
    std::list<UnitRead> reads_;
    std::list<UnitWrite> writes_;

    /** Hub (from the simulator) this device registered metrics with. */
    obs::Hub *hub_ = nullptr;
    std::vector<std::string> metric_prefixes_;  ///< For dtor unregistration.
};

/**
 * The production SDF board (Table 3): 44 channels, 704 GB raw, PCIe 1.1 x8.
 * @p capacity_scale in (0, 1] shrinks blocks-per-plane for memory-friendly
 * simulation; per-channel structure and ratios are preserved.
 */
SdfConfig BaiduSdfConfig(double capacity_scale = 1.0);

/** What a device built from one SdfConfig exposes. */
struct SdfSizing
{
    uint32_t units_per_channel = 0;
    uint64_t unit_bytes = 0;     ///< One block in every plane of a channel.
    uint64_t user_capacity = 0;  ///< Every channel's units.
    uint64_t raw_capacity = 0;   ///< All of the flash.
};

/**
 * The sizing of a device built from @p config whose plane with the
 * fewest good blocks has @p worst_plane_good_blocks: a unit needs one
 * block in every plane, and each plane keeps its bad-block spares.
 */
SdfSizing SizeSdf(const SdfConfig &config, uint32_t worst_plane_good_blocks);

/**
 * SizeSdf for a config with no factory-bad blocks (checked), as the
 * factory configs have: capacities without building the device.
 */
SdfSizing SizeSdf(const SdfConfig &config);

}  // namespace sdf::core

#endif  // SDF_SDF_SDF_DEVICE_H
