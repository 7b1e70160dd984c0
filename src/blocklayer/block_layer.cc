#include "blocklayer/block_layer.h"

#include <cstring>
#include <utility>

#include "obs/hub.h"
#include "util/assert.h"

namespace sdf::blocklayer {

namespace {

/** Device reads in flight per channel and class; a write runs alone. */
constexpr uint32_t kReadConcurrency = 2;

/** Queue and read-slot index of a request priority. */
int
ClassOf(int priority)
{
    return priority == kClientPriority ? 0 : 1;
}

}  // namespace

/**
 * The caller's side of an internal read issued in pieces: one completion,
 * with the first error, once no piece is in flight and none is left to
 * issue.
 */
struct BlockLayer::PieceJoin
{
    IoCallback done;
    std::vector<uint8_t> *out = nullptr;  ///< Sized up front; pieces copy in.
    uint64_t base = 0;                    ///< Offset of the whole read.
    uint32_t inflight = 0;
    bool issued_all = false;
    core::IoStatus status{};
};

BlockLayer::BlockLayer(sim::Simulator &sim, core::BlockDevice &device,
                       const BlockLayerConfig &config)
    : sim_(sim), device_(device), config_(config),
      channels_(device.channel_count())
{
    for (auto &ch : channels_) {
        for (uint32_t u = 0; u < device.units_per_channel(); ++u)
            ch.clean_units.push_back(u);
    }

    if (obs::Hub *hub = sim.hub()) {
        hub_ = hub;
        obs::MetricsRegistry &m = hub->metrics();
        metric_prefix_ = m.UniquePrefix("blocklayer");
        m.RegisterCounter(metric_prefix_ + ".puts", &stats_.puts);
        m.RegisterCounter(metric_prefix_ + ".gets", &stats_.gets);
        m.RegisterCounter(metric_prefix_ + ".deletes", &stats_.deletes);
        m.RegisterCounter(metric_prefix_ + ".inline_erases",
                          &stats_.inline_erases);
        m.RegisterCounter(metric_prefix_ + ".background_erases",
                          &stats_.background_erases);
        m.RegisterCounter(metric_prefix_ + ".failed_ops", &stats_.failed_ops);
        m.RegisterCounter(metric_prefix_ + ".lost_blocks",
                          &stats_.lost_blocks);
        m.RegisterCounter(metric_prefix_ + ".redirected_writes",
                          &stats_.redirected_writes);
        m.RegisterCounter(metric_prefix_ + ".off_hash_writes",
                          &stats_.off_hash_writes);
        m.RegisterHistogram(metric_prefix_ + ".client_write_wait_ns",
                            [this]() { return &write_wait_[0]; });
        m.RegisterHistogram(metric_prefix_ + ".internal_write_wait_ns",
                            [this]() { return &write_wait_[1]; });
        m.RegisterGauge(metric_prefix_ + ".free_units",
                        [this]() { return static_cast<double>(FreeUnits()); });
    }
}

BlockLayer::~BlockLayer()
{
    if (hub_ != nullptr) hub_->metrics().UnregisterPrefix(metric_prefix_);
}

uint64_t
BlockLayer::FreeUnits() const
{
    uint64_t total = 0;
    for (const auto &ch : channels_)
        total += ch.clean_units.size() + ch.dirty_units.size();
    return total;
}

void
BlockLayer::Fail(IoCallback done, core::IoError error)
{
    ++stats_.failed_ops;
    if (done) {
        sim_.Post([done = std::move(done), error]() { done(error); });
    }
}

uint32_t
BlockLayer::ChannelLoad(uint32_t channel) const
{
    const ChannelState &cs = channels_[channel];
    return static_cast<uint32_t>(cs.queues[0].size() + cs.queues[1].size()) +
           cs.reads_inflight[0] + cs.reads_inflight[1] + cs.writes_inflight;
}

BlockLayer::UnitCounts
BlockLayer::Units(uint32_t channel) const
{
    const ChannelState &cs = channels_[channel];
    UnitCounts n;
    n.clean = static_cast<uint32_t>(cs.clean_units.size());
    n.dirty = static_cast<uint32_t>(cs.dirty_units.size());
    n.erasing = cs.bg_erase_running ? 1 : 0;
    n.writing = cs.writes_inflight;
    n.queued_writes = cs.writes_queued;
    for (const auto &[id, loc] : id_map_) {
        if (loc.first == channel) ++n.stored;
    }
    return n;
}

bool
BlockLayer::CanTakeWrite(uint32_t ch) const
{
    const ChannelState &cs = channels_[ch];
    const size_t units = cs.clean_units.size() + cs.dirty_units.size() +
                         (cs.bg_erase_running ? 1 : 0);
    return units > cs.writes_queued;
}

uint32_t
BlockLayer::PickWriteChannel(uint64_t id) const
{
    const auto n = static_cast<uint32_t>(channels_.size());
    const auto hash = static_cast<uint32_t>(id % n);
    uint32_t best = hash;
    uint32_t best_writes = UINT32_MAX;
    for (uint32_t i = 0; i < n && best_writes > 0; ++i) {
        const uint32_t c = (hash + i) % n;
        if (device_.ChannelDead(c) || !CanTakeWrite(c)) continue;
        const ChannelState &cs = channels_[c];
        const uint32_t writes = cs.writes_queued + cs.writes_inflight;
        if (writes < best_writes) {
            best = c;
            best_writes = writes;
        }
    }
    return best;
}

void
BlockLayer::Put(uint64_t id, IoCallback done, const uint8_t *data,
                int priority)
{
    ++stats_.puts;
    if (id_map_.count(id)) {
        Fail(std::move(done), core::IoError::kContractViolation);  // Write-once.
        return;
    }
    const uint32_t ch = PickWriteChannel(id);
    if (!CanTakeWrite(ch)) {
        Fail(std::move(done), core::IoError::kNoSpace);
        return;
    }
    EnqueueWrite(ch, id, std::move(done), data, priority);
}

void
BlockLayer::Get(uint64_t id, uint64_t offset, uint64_t length,
                IoCallback done, std::vector<uint8_t> *out, int priority)
{
    ++stats_.gets;
    auto it = id_map_.find(id);
    if (it == id_map_.end()) {
        Fail(std::move(done), core::IoError::kNotFound);
        return;
    }
    const uint32_t ch = it->second.first;
    Op op{true, id, offset, length, std::move(done), nullptr, out, priority};
    if (priority != kClientPriority &&
        length > uint64_t{kPieceReadUnits} * device_.read_unit_bytes()) {
        if (out != nullptr) out->assign(length, 0);
        op.pieces = std::make_shared<PieceJoin>(
            PieceJoin{std::move(op.done), out, offset});
    }
    Enqueue(ch, std::move(op));
}

bool
BlockLayer::Delete(uint64_t id)
{
    auto it = id_map_.find(id);
    if (it == id_map_.end()) return false;
    ++stats_.deletes;
    const auto [ch, unit] = it->second;
    id_map_.erase(it);
    channels_[ch].dirty_units.push_back(unit);
    if (config_.erase_policy == ErasePolicy::kBackground)
        MaybeBackgroundErase(ch);
    return true;
}

bool
BlockLayer::DebugInstall(uint64_t id)
{
    if (id_map_.count(id)) return false;
    const uint32_t ch = ChannelOf(id);
    ChannelState &cs = channels_[ch];
    if (cs.clean_units.empty()) return false;
    const uint32_t unit = cs.clean_units.front();
    if (device_.unit_state(ch, unit) != core::UnitState::kUnwritten)
        return false;  // Only fresh units can be force-installed.
    cs.clean_units.pop_front();
    device_.DebugForceWritten(ch, unit);
    id_map_[id] = {ch, unit};
    return true;
}

void
BlockLayer::EnqueueWrite(uint32_t ch, uint64_t id, IoCallback done,
                         const uint8_t *data, int priority)
{
    if (ch != id % channels_.size()) ++stats_.off_hash_writes;
    ++channels_[ch].writes_queued;
    Enqueue(ch, Op{false, id, 0, device_.unit_bytes(), std::move(done), data,
                   nullptr, priority, sim_.Now()});
}

void
BlockLayer::Enqueue(uint32_t ch, Op op)
{
    const int cls = ClassOf(op.priority);
    channels_[ch].queues[cls].push_back(std::move(op));
    Dispatch(ch);
}

void
BlockLayer::Dispatch(uint32_t ch)
{
    ChannelState &cs = channels_[ch];
    // Issue from the client class first; a blocked client class holds
    // the internal class back.
    bool progressed = true;
    while (progressed) {
        progressed = false;
        for (auto &queue : cs.queues) {
            if (queue.empty()) continue;
            progressed = TryIssue(ch, queue);
            break;
        }
    }
    if (config_.erase_policy == ErasePolicy::kBackground)
        MaybeBackgroundErase(ch);
}

bool
BlockLayer::TryIssue(uint32_t ch, std::deque<Op> &queue)
{
    ChannelState &cs = channels_[ch];
    // Read-first: the first queued read overtakes the writes ahead of it.
    const auto read = std::find_if(queue.begin(), queue.end(),
                                   [](const Op &op) { return op.is_read; });
    if (read != queue.end()) {
        // Each class has its own read slots. A client read may run beside
        // an in-flight unit write: the device slots it between the write's
        // page programs. Internal reads wait.
        const int cls = ClassOf(read->priority);
        if (cs.reads_inflight[cls] >= kReadConcurrency ||
            (cs.writes_inflight > 0 && cls != 0)) {
            return false;
        }
        if (read->pieces != nullptr) {
            IssuePiece(ch, queue, read);
            return true;
        }
        Op op = std::move(*read);
        queue.erase(read);
        auto it = id_map_.find(op.id);
        if (it == id_map_.end()) {
            Fail(std::move(op.done), core::IoError::kNotFound);  // Deleted.
            return true;
        }
        IssueRead(ch, cls, it->second.second, op.id, op.offset, op.length,
                  op.out, std::move(op.done));
        return true;
    }
    if (cs.writes_inflight > 0 || cs.reads_inflight[0] > 0 ||
        cs.reads_inflight[1] > 0) {
        return false;
    }
    // Hold the write while its only candidate unit is mid-background-erase;
    // the erase completion re-dispatches.
    if (cs.clean_units.empty() && cs.dirty_units.empty() &&
        cs.bg_erase_running) {
        return false;
    }
    Op op = std::move(queue.front());
    queue.pop_front();
    --cs.writes_queued;
    if (hub_ != nullptr) {
        write_wait_[op.priority == kClientPriority ? 0 : 1].Add(
            sim_.Now() - op.enqueued);
    }
    IssueWrite(ch, std::move(op));
    return true;
}

void
BlockLayer::IssuePiece(uint32_t ch, std::deque<Op> &queue,
                       std::deque<Op>::iterator it)
{
    const std::shared_ptr<PieceJoin> join = it->pieces;
    auto loc = id_map_.find(it->id);
    if (loc == id_map_.end() && join->status.ok()) {
        ++stats_.failed_ops;  // Deleted while queued or between pieces.
        join->status = core::IoError::kNotFound;
    }
    if (join->status.ok()) {
        const uint64_t off = it->offset;
        const uint64_t n = std::min<uint64_t>(
            it->length, uint64_t{kPieceReadUnits} * device_.read_unit_bytes());
        it->offset += n;
        it->length -= n;
        auto buf = join->out != nullptr
                       ? std::make_shared<std::vector<uint8_t>>()
                       : nullptr;
        ++join->inflight;
        IssueRead(ch, 1, loc->second.second, it->id, off, n, buf.get(),
                  [join, buf, off](core::IoStatus st) {
                      --join->inflight;
                      if (!st.ok() && join->status.ok()) join->status = st;
                      if (buf != nullptr && !buf->empty()) {
                          std::memcpy(join->out->data() + (off - join->base),
                                      buf->data(), buf->size());
                      }
                      if (join->issued_all && join->inflight == 0 &&
                          join->done) {
                          join->done(join->status);
                      }
                  });
        if (it->length > 0) return;
    }
    queue.erase(it);
    join->issued_all = true;
    if (join->inflight == 0 && join->done) {
        sim_.Post([join]() { join->done(join->status); });
    }
}

void
BlockLayer::IssueRead(uint32_t ch, int cls, uint32_t unit, uint64_t id,
                      uint64_t offset, uint64_t length,
                      std::vector<uint8_t> *out, IoCallback done)
{
    ++channels_[ch].reads_inflight[cls];
    const core::ReadClassScope scope(cls == 0 ? core::ReadClass::kOnDemand
                                              : core::ReadClass::kBackground);
    device_.Read(ch, unit, offset, length,
                 [this, ch, cls, unit, id,
                  done = std::move(done)](core::IoStatus st) {
                     ChannelState &cs = channels_[ch];
                     --cs.reads_inflight[cls];
                     if (st.error == core::IoError::kReadUncorrectable) {
                         // The device exhausted its retry ladder and
                         // retired the pages: the block's data is gone.
                         // Drop the id so the store falls back to a
                         // replica and re-replicates, and recycle the
                         // unit for future writes.
                         auto it = id_map_.find(id);
                         if (it != id_map_.end() &&
                             it->second.second == unit) {
                             id_map_.erase(it);
                             cs.dirty_units.push_back(unit);
                             ++stats_.lost_blocks;
                         }
                     }
                     if (done) done(st);
                     Dispatch(ch);
                 },
                 out);
}

bool
BlockLayer::RedirectWrite(core::IoError error, uint64_t id,
                          const uint8_t *data, int priority, IoCallback &done)
{
    if (error != core::IoError::kChannelDead) return false;
    const uint32_t ch = PickWriteChannel(id);
    if (device_.ChannelDead(ch) || !CanTakeWrite(ch)) return false;
    ++stats_.redirected_writes;
    EnqueueWrite(ch, id, std::move(done), data, priority);
    return true;
}

void
BlockLayer::IssueWrite(uint32_t ch, Op op)
{
    ChannelState &cs = channels_[ch];
    ++cs.writes_inflight;

    // Pick a destination unit: prefer an already-clean unit; fall back to a
    // dirty one (its erase then runs inline, on the write's critical path).
    uint32_t unit;
    if (!cs.clean_units.empty()) {
        unit = cs.clean_units.front();
        cs.clean_units.pop_front();
    } else if (!cs.dirty_units.empty()) {
        unit = cs.dirty_units.front();
        cs.dirty_units.pop_front();
    } else {
        --cs.writes_inflight;
        Fail(std::move(op.done), core::IoError::kNoSpace);
        Dispatch(ch);
        return;
    }

    auto write_step = [this, ch, unit, id = op.id, data = op.data,
                       priority = op.priority,
                       done = std::move(op.done)](core::IoStatus erased) mutable {
        if (!erased.ok()) {
            ChannelState &cs2 = channels_[ch];
            --cs2.writes_inflight;
            // The unit is still the channel's unless wear-out killed it.
            if (erased.error != core::IoError::kUnitDead) {
                cs2.dirty_units.push_back(unit);
            }
            if (!RedirectWrite(erased.error, id, data, priority, done))
                Fail(std::move(done), erased.error);
            Dispatch(ch);
            return;
        }
        device_.WriteUnit(
            ch, unit,
            [this, ch, unit, id, data, priority,
             done = std::move(done)](core::IoStatus st) mutable {
                ChannelState &cs2 = channels_[ch];
                --cs2.writes_inflight;
                if (st.ok()) {
                    id_map_[id] = {ch, unit};
                    if (done) done(st);
                } else {
                    cs2.dirty_units.push_back(unit);
                    if (!RedirectWrite(st.error, id, data, priority, done)) {
                        ++stats_.failed_ops;
                        if (done) done(st);
                    }
                }
                Dispatch(ch);
            },
            data);
    };

    if (device_.unit_state(ch, unit) == core::UnitState::kErased) {
        write_step(true);
    } else {
        ++stats_.inline_erases;
        device_.EraseUnit(ch, unit, std::move(write_step));
    }
}

void
BlockLayer::MaybeBackgroundErase(uint32_t ch)
{
    ChannelState &cs = channels_[ch];
    if (cs.bg_erase_running || cs.dirty_units.empty() ||
        device_.ChannelDead(ch)) {
        return;
    }
    // Only erase while the channel is otherwise idle.
    if (cs.reads_inflight[0] > 0 || cs.reads_inflight[1] > 0 ||
        cs.writes_inflight > 0) {
        return;
    }
    if (!cs.queues[0].empty() || !cs.queues[1].empty()) return;

    cs.bg_erase_running = true;
    const uint32_t unit = cs.dirty_units.front();
    cs.dirty_units.pop_front();
    device_.EraseUnit(ch, unit, [this, ch, unit](core::IoStatus st) {
        ChannelState &cs2 = channels_[ch];
        cs2.bg_erase_running = false;
        ++stats_.background_erases;
        if (st.ok()) {
            cs2.clean_units.push_back(unit);
        } else if (st.error != core::IoError::kUnitDead) {
            cs2.dirty_units.push_back(unit);
        }
        Dispatch(ch);
        MaybeBackgroundErase(ch);
    });
}

}  // namespace sdf::blocklayer
