/**
 * @file
 * Baidu's user-space block layer over SDF (§2.4).
 *
 * The layer accepts fixed-size (8 MB) writes identified by unique 64-bit
 * IDs, places each on a channel that is not already writing (walking from
 * the ID's round-robin hash channel, so an idle device keeps the paper's
 * round-robin), manages per-channel pools of erased/dirty units, and
 * schedules the explicit erase operations the SDF interface exposes.
 * Erase scheduling is the design lever the paper highlights: erases can
 * run inline before each write (their measured configuration, Figure 8)
 * or in the background during idle periods (their stated motivation for
 * exposing erase).
 *
 * Each channel queue is read-first, client class before internal class,
 * with two reads of each class in flight and writes alone (§5: "on-demand
 * reads take priority over writes and erasures"). A client read may issue
 * while a unit write is in flight on its channel; the device suspends the
 * page program on its plane for it. Internal reads wait for a write in
 * flight, a write waits for the reads in flight to drain, and internal
 * reads longer than kPieceReadUnits go to the device in pieces of that
 * size. The layer issues internal reads inside a
 * core::ReadClassScope(kBackground), so the device books them as
 * background work and a client read's data-out goes ahead of theirs on
 * the channel bus; with its own read slots, a client read never waits
 * for a piece to finish.
 */
#ifndef SDF_BLOCKLAYER_BLOCK_LAYER_H
#define SDF_BLOCKLAYER_BLOCK_LAYER_H

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <functional>
#include <unordered_map>
#include <vector>

#include "sdf/block_device.h"
#include "sim/simulator.h"
#include "util/histogram.h"

namespace sdf::obs {
class Hub;
}  // namespace sdf::obs

namespace sdf::blocklayer {

using core::IoCallback;
using util::TimeNs;

/** When physical erases run relative to writes. */
enum class ErasePolicy : uint8_t
{
    kEraseOnWrite,  ///< Erase immediately before each write (paper's setup).
    kBackground,    ///< Erase dirty units during channel idle time.
};

/** Request priority classes. */
inline constexpr int kClientPriority = 0;
inline constexpr int kInternalPriority = 1;

/**
 * Read units per piece of a long internal read: two 8 KB SDF pages,
 * 16 KB. The layer runs on SDF only; a conventional SSD's compaction
 * reads go whole through kv::SsdPatchStorage. A client read no longer
 * waits for pieces on the bus or for a read slot, so the piece size sets
 * only how long a client read's sense can wait behind a piece's senses
 * on its plane, and how long a write waits for the pieces in flight to
 * drain. The second piece in flight hides the gap between pieces, so a
 * piecewise scan keeps the bus as busy as one whole-unit read. On
 * ccdb_write_compaction (seed 1) get p99 is 0.486 / 0.507 / 0.544 ms at
 * 16 / 32 / 64 KB pieces (DESIGN.md §5).
 */
inline constexpr uint32_t kPieceReadUnits = 2;

/** Block layer construction options. */
struct BlockLayerConfig
{
    ErasePolicy erase_policy = ErasePolicy::kEraseOnWrite;
};

/** Cumulative layer statistics. */
struct BlockLayerStats
{
    uint64_t puts = 0;
    uint64_t gets = 0;
    uint64_t deletes = 0;
    uint64_t inline_erases = 0;
    uint64_t background_erases = 0;
    uint64_t failed_ops = 0;
    /** Blocks whose data became unreadable (device retired the pages). */
    uint64_t lost_blocks = 0;
    /** Writes rerouted from a dead channel to a surviving one. */
    uint64_t redirected_writes = 0;
    /** Writes placed on a channel other than their hash channel. */
    uint64_t off_hash_writes = 0;
};

/**
 * The user-space block layer. IDs are write-once: a Put of an existing ID
 * fails (CCDB allocates fresh IDs from a counter service; §2.4).
 */
class BlockLayer
{
  public:
    BlockLayer(sim::Simulator &sim, core::BlockDevice &device,
               const BlockLayerConfig &config);
    ~BlockLayer();

    BlockLayer(const BlockLayer &) = delete;
    BlockLayer &operator=(const BlockLayer &) = delete;

    /** Bytes in one block (the device's 8 MB write unit). */
    uint64_t block_bytes() const { return device_.unit_bytes(); }

    /** Total units the layer can still write without reuse. */
    uint64_t FreeUnits() const;

    /** Store one 8 MB block under @p id. */
    void Put(uint64_t id, IoCallback done, const uint8_t *data = nullptr,
             int priority = kClientPriority);

    /** Read @p length bytes at @p offset within block @p id. */
    void Get(uint64_t id, uint64_t offset, uint64_t length, IoCallback done,
             std::vector<uint8_t> *out = nullptr,
             int priority = kClientPriority);

    /** Drop block @p id; its unit becomes erase-pending. */
    bool Delete(uint64_t id);

    /** True if @p id is stored. */
    bool Exists(uint64_t id) const { return id_map_.count(id) != 0; }

    /** IDs of every stored block, ascending (recovery scans). */
    std::vector<uint64_t>
    StoredIds() const
    {
        std::vector<uint64_t> ids;
        ids.reserve(id_map_.size());
        for (const auto &[id, loc] : id_map_) ids.push_back(id);
        std::sort(ids.begin(), ids.end());
        return ids;
    }

    /**
     * Instantly install block @p id as already written (simulation
     * backdoor for preconditioning). @return false if the channel is full.
     */
    bool DebugInstall(uint64_t id);

    const BlockLayerStats &stats() const { return stats_; }
    core::BlockDevice &device() { return device_; }

    /**
     * The channel block @p id is stored on; for an unstored ID, its
     * round-robin hash channel (id % channels).
     */
    uint32_t ChannelOf(uint64_t id) const
    {
        const auto it = id_map_.find(id);
        if (it != id_map_.end()) return it->second.first;
        return static_cast<uint32_t>(id % device_.channel_count());
    }

    /** Queued + in-flight operations on @p channel (load metric). */
    uint32_t ChannelLoad(uint32_t channel) const;

    /**
     * Where @p channel's units are. Every unit is in exactly one place
     * (clean + dirty + erasing + writing + stored == units_per_channel)
     * unless the device lost it to wear-out. Walks every stored block.
     */
    struct UnitCounts
    {
        uint32_t clean = 0;    ///< Erased or never written.
        uint32_t dirty = 0;    ///< Deleted; erase pending.
        uint32_t erasing = 0;  ///< Mid-background-erase.
        uint32_t writing = 0;  ///< Claimed by a write in flight.
        uint32_t stored = 0;   ///< Holding a stored block.
        /** Writes queued; each will take a clean, dirty or erasing unit. */
        uint32_t queued_writes = 0;
    };
    UnitCounts Units(uint32_t channel) const;

  private:
    /** The caller's side of a read issued in pieces (block_layer.cc). */
    struct PieceJoin;

    struct Op
    {
        bool is_read;
        uint64_t id;
        uint64_t offset;  ///< A pieced read: the next piece's offset.
        uint64_t length;  ///< A pieced read: the bytes not yet issued.
        IoCallback done;
        const uint8_t *data;
        std::vector<uint8_t> *out;
        int priority;
        TimeNs enqueued = 0;  ///< A write: when it was placed (wait metric).
        std::shared_ptr<PieceJoin> pieces{};  ///< Set on a pieced read.
    };

    struct ChannelState
    {
        std::deque<uint32_t> clean_units;  ///< Erased or never written.
        std::deque<uint32_t> dirty_units;  ///< Deleted; erase pending.
        std::deque<Op> queues[2];          ///< Indexed by priority class.
        uint32_t reads_inflight[2] = {};   ///< Per class.
        uint32_t writes_queued = 0;  ///< Writes in `queues`.
        uint32_t writes_inflight = 0;
        bool bg_erase_running = false;
    };

    /**
     * True if @p ch can take one more write: its clean, dirty and
     * mid-erase units outnumber the writes queued on it.
     */
    bool CanTakeWrite(uint32_t ch) const;

    /**
     * The channel for a write of @p id: walking from its hash channel
     * past dead channels and channels that cannot take a write, the first
     * with no write queued or in flight, else the one with the fewest
     * (first in walk order on a tie); the hash channel when none can
     * take it.
     */
    uint32_t PickWriteChannel(uint64_t id) const;

    void EnqueueWrite(uint32_t ch, uint64_t id, IoCallback done,
                      const uint8_t *data, int priority);
    void Enqueue(uint32_t ch, Op op);
    void Dispatch(uint32_t ch);
    bool TryIssue(uint32_t ch, std::deque<Op> &queue);
    /** Issue a device read of class @p cls (0 client, 1 internal). */
    void IssueRead(uint32_t ch, int cls, uint32_t unit, uint64_t id,
                   uint64_t offset, uint64_t length,
                   std::vector<uint8_t> *out, IoCallback done);

    /**
     * Issue the next piece of the pieced read at @p it, or drop it from
     * @p queue once its last piece is out, it has failed, or its block
     * is gone (then it fails with kNotFound).
     */
    void IssuePiece(uint32_t ch, std::deque<Op> &queue,
                    std::deque<Op>::iterator it);
    void IssueWrite(uint32_t ch, Op op);
    void MaybeBackgroundErase(uint32_t ch);
    void Fail(IoCallback done, core::IoError error);

    /**
     * Re-place a write that failed with @p error because its channel
     * died. Consumes @p done on success. Returns false (leaving @p done
     * intact) for any other error or when no live channel can take it.
     */
    bool RedirectWrite(core::IoError error, uint64_t id, const uint8_t *data,
                       int priority, IoCallback &done);

    sim::Simulator &sim_;
    core::BlockDevice &device_;
    BlockLayerConfig config_;
    std::vector<ChannelState> channels_;
    std::unordered_map<uint64_t, std::pair<uint32_t, uint32_t>> id_map_;
    BlockLayerStats stats_;

    obs::Hub *hub_ = nullptr;       ///< Metrics registration (see obs/hub.h).
    std::string metric_prefix_;
    /** Enqueue-to-issue waits of writes, per class; recorded under a hub. */
    util::Histogram write_wait_[2];
};

}  // namespace sdf::blocklayer

#endif  // SDF_BLOCKLAYER_BLOCK_LAYER_H
