#include "kv/slice.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "obs/hub.h"
#include "util/assert.h"

namespace sdf::kv {

namespace {

/** Concurrent patch reads/writes during one compaction. */
constexpr uint32_t kCompactionIoConcurrency = 2;
/** Host CPU cost of merge-sorting one byte. */
constexpr double kMergeCpuPerByteNs = 0.25;
/** Latency of the write-ahead log append (separate log device). */
constexpr TimeNs kLogLatency = util::UsToNs(100);

}  // namespace

Slice::Slice(sim::Simulator &sim, PatchStorage &storage, IdAllocator &ids,
             const SliceConfig &config, SliceJournal *journal)
    : sim_(sim),
      storage_(storage),
      ids_(ids),
      config_(config),
      journal_(journal),
      mem_(storage.patch_bytes())
{
    SDF_CHECK(config_.compaction_trigger >= 2);
    SDF_CHECK(config_.max_levels >= 1);
    levels_.resize(1);

    if (obs::Hub *hub = sim.hub()) {
        hub_ = hub;
        obs::MetricsRegistry &m = hub->metrics();
        // One slice per channel: kv.slice, kv.slice.2, ... in channel order.
        metric_prefix_ = m.UniquePrefix("kv.slice");
        m.RegisterCounter(metric_prefix_ + ".puts", &stats_.puts);
        m.RegisterCounter(metric_prefix_ + ".gets", &stats_.gets);
        m.RegisterCounter(metric_prefix_ + ".gets_from_memtable",
                          &stats_.gets_from_memtable);
        m.RegisterCounter(metric_prefix_ + ".gets_not_found",
                          &stats_.gets_not_found);
        m.RegisterCounter(metric_prefix_ + ".deletes", &stats_.deletes);
        m.RegisterCounter(metric_prefix_ + ".flushes", &stats_.flushes);
        m.RegisterCounter(metric_prefix_ + ".compactions",
                          &stats_.compactions);
        m.RegisterCounter(metric_prefix_ + ".compaction_bytes_read",
                          &stats_.compaction_bytes_read);
        m.RegisterCounter(metric_prefix_ + ".compaction_bytes_written",
                          &stats_.compaction_bytes_written);
        m.RegisterCounter(metric_prefix_ + ".put_stalls",
                          &stats_.put_stalls);
        m.RegisterCounter(metric_prefix_ + ".get_retries",
                          &stats_.get_retries);
    }

    if (journal_ &&
        (!journal_->patches.empty() || !journal_->wal.empty())) {
        RecoverFromJournal();
    }
}

void
Slice::RecoverFromJournal()
{
    // Patch footers first: reinstall every level's runs and rebuild the
    // DRAM index. Ascending patch id reproduces install order; the
    // per-entry sequence numbers make UpdateIndex order-insensitive
    // anyway (newest seq wins).
    uint64_t max_seq = 0;
    for (const auto &[id, footer] : journal_->patches) {
        SDF_CHECK_MSG(footer.meta != nullptr, "footer without metadata");
        if (levels_.size() <= footer.level) levels_.resize(footer.level + 1);
        levels_[footer.level].push_back(footer.meta);
        if (footer.image) patch_images_[id] = footer.image;
        for (const PatchEntry &e : footer.meta->entries())
            max_seq = std::max(max_seq, e.seq);
    }
    for (const auto &[id, footer] : journal_->patches)
        UpdateIndex(*footer.meta);
    next_seq_ = max_seq + 1;

    // WAL replay: re-perform every logged put, without acks (they were
    // acked before the stop). Take the old log out first — replay goes
    // through the normal put path, which re-appends each record and may
    // trigger flushes exactly as the original puts did.
    std::deque<WalRecord> wal = std::move(journal_->wal);
    journal_->wal.clear();
    for (WalRecord &w : wal) {
        PutItem(KvItem{w.key, w.value_size, std::move(w.payload),
                       w.tombstone},
                nullptr);
    }
}

void
Slice::Detach()
{
    detached_ = true;
    journal_ = nullptr;
}

void
Slice::CollectRange(uint64_t start_key, size_t limit,
                    std::map<uint64_t, uint32_t> &out,
                    const std::function<bool(uint64_t)> *filter) const
{
    // Oldest layer first so newer versions overwrite: index (newest seq
    // already won there), then the flushing memtable, then the live one,
    // bounded below by start_key. Tombstone erases run unfiltered
    // (erasing an absent key is a no-op); inserts honor the ownership
    // filter. The trim runs only after all three layers merged — a
    // memtable tombstone may erase an indexed key inside the window,
    // pulling a larger key back in.
    auto add = [&](uint64_t key, uint32_t value_size) {
        if (key < start_key) return;
        if (filter && *filter && !(*filter)(key)) return;
        out[key] = value_size;
    };
    index_.ForEach([&](const EntryRef &ref) {
        const PatchEntry &e = ref.entry();
        if (!e.tombstone) add(e.key, e.value_size);
    });
    auto merge = [&](const KvItem &item) {
        if (item.tombstone) {
            out.erase(item.key);
        } else {
            add(item.key, item.value_size);
        }
    };
    for (const KvItem &item : imm_items_) merge(item);
    mem_.ForEachNewest(merge);
    while (out.size() > limit) out.erase(std::prev(out.end()));
}

void
Slice::ReadValue(uint64_t key, GetCallback done)
{
    auto respond_mem = [this, &done](const KvItem &item) {
        GetResult r;
        r.found = !item.tombstone;
        r.value_size = item.value_size;
        r.payload = item.payload;
        sim_.Post([done = std::move(done), r]() { done(r); });
    };
    if (const KvItem *m = mem_.Lookup(key)) {
        respond_mem(*m);
        return;
    }
    if (const KvItem *f = FindFlushing(key)) {
        respond_mem(*f);
        return;
    }
    const EntryRef *ref = index_.Find(key);
    if (ref == nullptr || ref->entry().tombstone) {
        sim_.Post([done = std::move(done)]() {
            done(GetResult{false, true, 0, nullptr});
        });
        return;
    }
    DoStorageGet(key, std::move(done), 3);
}

Slice::~Slice()
{
    if (hub_ != nullptr) hub_->metrics().UnregisterPrefix(metric_prefix_);
}

size_t
Slice::patch_count() const
{
    size_t n = 0;
    for (const auto &level : levels_) n += level.size();
    return n;
}

std::vector<uint64_t>
Slice::AllPatchIds() const
{
    std::vector<uint64_t> ids;
    for (auto it = levels_.rbegin(); it != levels_.rend(); ++it) {
        for (const auto &meta : *it) ids.push_back(meta->id());
    }
    return ids;
}

void
Slice::ReadPatchFully(uint64_t id, PatchCallback done,
                      std::vector<uint8_t> *out)
{
    storage_.GetRange(id, 0, storage_.patch_bytes(), std::move(done), out,
                      blocklayer::kClientPriority);
}

// ---------------------------------------------------------------------------
// Write path
// ---------------------------------------------------------------------------

void
Slice::Put(uint64_t key, uint32_t value_size, PutCallback done,
           std::shared_ptr<std::vector<uint8_t>> payload)
{
    ++stats_.puts;
    PutItem(KvItem{key, value_size, std::move(payload), false},
            std::move(done));
}

void
Slice::Delete(uint64_t key, PutCallback done)
{
    ++stats_.deletes;
    PutItem(KvItem{key, 0, nullptr, true}, std::move(done));
}

void
Slice::PutItem(KvItem item, PutCallback done)
{
    if (item.StorageCharge() > mem_.capacity_bytes()) {
        sim_.Post([done = std::move(done)]() {
            if (done) done(false);
        });
        return;
    }
    if (mem_.WouldOverflow(item.StorageCharge())) {
        if (flush_active_) {
            // Backpressure: the previous patch is still being written.
            ++stats_.put_stalls;
            stalled_puts_.emplace_back(std::move(item), std::move(done));
            return;
        }
        StartFlush();
    }
    AddPut(std::move(item), std::move(done));
}

void
Slice::AddPut(KvItem item, PutCallback done)
{
    // The log append is what makes the ack durable: mirror the item into
    // the WAL before acknowledging. Truncated once a flush covers it.
    if (journal_) {
        journal_->wal.push_back(WalRecord{item.key, item.value_size,
                                          item.tombstone, item.payload});
    }
    mem_.Add(std::move(item));
    // Acknowledge after the write-ahead log append (separate log device).
    // A replayed record has no one to ack: its append only raises the
    // clock's horizon.
    if (done) {
        sim_.Schedule(kLogLatency, [done = std::move(done)]() { done(true); });
    } else {
        sim_.Schedule(kLogLatency, nullptr);
    }
}

void
Slice::Flush()
{
    if (!mem_.empty() && !flush_active_) StartFlush();
}

bool
Slice::DebugPreloadPatch(std::vector<KvItem> items)
{
    SDF_CHECK_MSG(!config_.store_payloads,
                  "preloading is timing-only; payload mode unsupported");
    const uint64_t id = ids_.Next();
    if (!storage_.DebugInstallPatch(id)) return false;
    const uint64_t seq = next_seq_++;
    auto meta = std::make_shared<PatchMeta>(
        PatchMeta::Build(id, seq, items, storage_.patch_bytes()));
    // Preloaded patches are "already sorted" history: park them in the
    // last level so they do not trigger compaction (Figure 14's setup).
    if (levels_.size() < config_.max_levels)
        levels_.resize(config_.max_levels);
    levels_.back().push_back(meta);
    // Preloaded keys are new ones: size the table once for all of them.
    index_.Reserve(meta->entries().size());
    UpdateIndex(*meta);
    if (journal_) {
        journal_->patches[id] = PatchFooter{
            static_cast<uint32_t>(levels_.size() - 1), meta, nullptr};
    }
    return true;
}

void
Slice::StartFlush()
{
    SDF_CHECK(!flush_active_);
    flush_active_ = true;
    ++stats_.flushes;

    // Every WAL record so far describes an item now leaving the memtable
    // (newer versions of the same key shadow older records, so the whole
    // prefix is covered); truncate it when the patch lands.
    wal_mark_ = journal_ ? journal_->wal.size() : 0;

    // Build sorts the items in place: gets binary-search them until the
    // patch lands.
    imm_items_ = mem_.TakeAll();
    const uint64_t seq = next_seq_++;
    const uint64_t id = ids_.Next();
    auto meta = std::make_shared<PatchMeta>(
        PatchMeta::Build(id, seq, imm_items_, storage_.patch_bytes()));

    const uint8_t *data = nullptr;
    if (config_.store_payloads) {
        auto image = std::make_shared<std::vector<uint8_t>>(
            PatchMeta::AssembleBuffer(*meta, imm_items_,
                                      storage_.patch_bytes()));
        data = image->data();
        patch_images_[id] = std::move(image);
    }

    storage_.PutPatch(id,
                      [this, meta](bool ok) { FinishFlush(ok, meta); }, data,
                      blocklayer::kClientPriority);
}

void
Slice::FinishFlush(bool ok, std::shared_ptr<PatchMeta> meta)
{
    if (detached_) {
        flush_active_ = false;
        return;
    }
    if (ok) {
        levels_[0].push_back(meta);
        UpdateIndex(*meta);
        if (journal_) {
            journal_->patches[meta->id()] = PatchFooter{
                0, meta,
                config_.store_payloads ? patch_images_[meta->id()] : nullptr};
            SDF_CHECK(journal_->wal.size() >= wal_mark_);
            journal_->wal.erase(
                journal_->wal.begin(),
                journal_->wal.begin() + static_cast<long>(wal_mark_));
        }
    } else {
        ++stats_.failed_flushes;
        patch_images_.erase(meta->id());
        // Failed flush: the WAL keeps the covered records, so a restart
        // still recovers the items even though they were dropped from
        // memory here.
    }
    wal_mark_ = 0;
    imm_items_.clear();
    flush_active_ = false;

    // Replay puts that stalled behind this flush.
    while (!stalled_puts_.empty()) {
        auto &[item, done] = stalled_puts_.front();
        if (mem_.WouldOverflow(item.StorageCharge())) {
            if (flush_active_) break;
            StartFlush();
            if (flush_active_) {
                // Re-check after the new flush drained the memtable.
                continue;
            }
        }
        AddPut(std::move(item), std::move(done));
        stalled_puts_.pop_front();
    }

    MaybeStartCompaction();
}

// ---------------------------------------------------------------------------
// Read path
// ---------------------------------------------------------------------------

void
Slice::Get(uint64_t key, GetCallback done)
{
    ++stats_.gets;

    auto respond_mem = [this, &done](const KvItem &item) {
        ++stats_.gets_from_memtable;
        GetResult r;
        r.found = !item.tombstone;
        r.value_size = item.value_size;
        r.payload = item.payload;
        if (item.tombstone) ++stats_.gets_not_found;
        sim_.Post([done = std::move(done), r]() { done(r); });
    };

    if (const KvItem *m = mem_.Lookup(key)) {
        respond_mem(*m);
        return;
    }
    if (const KvItem *f = FindFlushing(key)) {
        respond_mem(*f);
        return;
    }
    const EntryRef *ref = index_.Find(key);
    if (ref == nullptr || ref->entry().tombstone) {
        ++stats_.gets_not_found;
        sim_.Post([done = std::move(done)]() {
            done(GetResult{false, true, 0, nullptr});
        });
        return;
    }
    DoStorageGet(key, std::move(done), 3);
}

void
Slice::DoStorageGet(uint64_t key, GetCallback done, int attempts)
{
    const EntryRef *ref = index_.Find(key);
    if (ref == nullptr || ref->entry().tombstone) {
        ++stats_.gets_not_found;
        sim_.Post([done = std::move(done)]() {
            done(GetResult{false, true, 0, nullptr});
        });
        return;
    }
    // Copy the location out: the patch may be compacted away, and the
    // slot re-pointed, before the read completes.
    const uint64_t patch_id = ref->patch->id();
    const uint64_t offset = ref->entry().offset;
    const uint32_t value_size = ref->entry().value_size;
    const uint64_t align = storage_.alignment();
    const uint64_t start = offset / align * align;
    uint64_t end = offset + value_size;
    end = (end + align - 1) / align * align;
    end = std::min(end, storage_.patch_bytes());
    const uint64_t aligned_len = std::max<uint64_t>(end - start, align);

    auto out = config_.store_payloads
                   ? std::make_shared<std::vector<uint8_t>>()
                   : nullptr;
    storage_.GetRange(
        patch_id, start, aligned_len,
        [this, key, offset, value_size, start, out, attempts,
         done = std::move(done)](bool ok) mutable {
            if (!ok) {
                // The patch may have been compacted away mid-read; retry
                // through the (updated) index.
                ++stats_.get_retries;
                if (attempts > 1) {
                    DoStorageGet(key, std::move(done), attempts - 1);
                } else {
                    done(GetResult{false, false, 0, nullptr});
                }
                return;
            }
            GetResult r;
            r.found = true;
            r.value_size = value_size;
            if (out) {
                const size_t rel = static_cast<size_t>(offset - start);
                r.payload = std::make_shared<std::vector<uint8_t>>(
                    out->begin() + static_cast<long>(rel),
                    out->begin() + static_cast<long>(rel + value_size));
            }
            done(r);
        },
        out.get(), blocklayer::kClientPriority);
}

void
Slice::UpdateIndex(const PatchMeta &meta)
{
    const auto n = static_cast<uint32_t>(meta.entries().size());
    for (uint32_t i = 0; i < n; ++i) index_.Upsert(meta, i);
}

const KvItem *
Slice::FindFlushing(uint64_t key) const
{
    auto it = std::lower_bound(
        imm_items_.begin(), imm_items_.end(), key,
        [](const KvItem &item, uint64_t k) { return item.key < k; });
    return it != imm_items_.end() && it->key == key ? &*it : nullptr;
}

// ---------------------------------------------------------------------------
// Compaction (tiered: merge a full level into one run of the next level)
// ---------------------------------------------------------------------------

void
Slice::MaybeStartCompaction()
{
    if (compaction_active_) return;
    for (uint32_t level = 0; level < levels_.size(); ++level) {
        if (level + 1 >= config_.max_levels) break;
        if (levels_[level].size() < config_.compaction_trigger) continue;

        compaction_active_ = true;
        compaction_level_ = level;
        compaction_inputs_ = levels_[level];  // Snapshot; stays readable.
        compaction_read_next_ = 0;
        compaction_io_inflight_ = 0;
        compaction_buffers_.assign(compaction_inputs_.size(), nullptr);
        compaction_outputs_.clear();
        compaction_out_bufs_.clear();
        compaction_write_next_ = 0;
        ++stats_.compactions;
        CompactionReadNext();
        return;
    }
}

void
Slice::CompactionReadNext()
{
    if (detached_) return;
    while (compaction_io_inflight_ < kCompactionIoConcurrency &&
           compaction_read_next_ < compaction_inputs_.size()) {
        const size_t i = compaction_read_next_++;
        ++compaction_io_inflight_;
        auto buf = config_.store_payloads
                       ? std::make_shared<std::vector<uint8_t>>()
                       : nullptr;
        compaction_buffers_[i] = buf;
        stats_.compaction_bytes_read += storage_.patch_bytes();
        storage_.GetRange(
            compaction_inputs_[i]->id(), 0, storage_.patch_bytes(),
            [this](bool) {
                --compaction_io_inflight_;
                if (compaction_read_next_ == compaction_inputs_.size() &&
                    compaction_io_inflight_ == 0) {
                    CompactionMergeAndWrite();
                } else {
                    CompactionReadNext();
                }
            },
            buf.get(), blocklayer::kInternalPriority);
    }
}

void
Slice::CompactionMergeAndWrite()
{
    if (detached_) return;
    std::vector<const PatchMeta *> inputs;
    inputs.reserve(compaction_inputs_.size());
    uint64_t total_bytes = 0;
    for (const auto &m : compaction_inputs_) {
        inputs.push_back(m.get());
        total_bytes += m->data_bytes();
    }
    // Tombstones can be discarded only when nothing older can still hold
    // the key: the merge targets the bottom level AND that level has no
    // pre-existing runs outside this merge's inputs.
    const uint32_t target = compaction_level_ + 1;
    bool to_bottom = target + 1 >= config_.max_levels;
    if (to_bottom && target < levels_.size() && !levels_[target].empty()) {
        to_bottom = false;
    }
    compaction_dropped_tombstones_ = to_bottom;
    size_t entries_in = 0;
    for (const PatchMeta *m : inputs) entries_in += m->entries().size();
    auto parts = MergeEntries(inputs, storage_.patch_bytes(), to_bottom);
    if (to_bottom) {
        size_t entries_out = 0;
        for (const auto &p : parts) entries_out += p.size();
        // Everything removed beyond version dedup is a dropped tombstone
        // (and whatever it shadowed).
        stats_.tombstones_dropped += entries_in - entries_out;
    }

    for (auto &part : parts) {
        const uint64_t id = ids_.Next();
        auto meta = std::make_shared<PatchMeta>(
            PatchMeta::FromEntries(id, std::move(part), storage_.patch_bytes()));

        std::shared_ptr<std::vector<uint8_t>> out_buf;
        if (config_.store_payloads) {
            // Rebuild the output image from the input images.
            out_buf = std::make_shared<std::vector<uint8_t>>(
                storage_.patch_bytes(), 0);
            for (const PatchEntry &e : meta->entries()) {
                for (size_t i = 0; i < compaction_inputs_.size(); ++i) {
                    const PatchEntry *src =
                        compaction_inputs_[i]->Find(e.key);
                    if (!src || src->seq != e.seq) continue;
                    const auto &src_buf = compaction_buffers_[i];
                    if (src_buf && src_buf->size() >=
                                       src->offset + src->value_size) {
                        std::memcpy(out_buf->data() + e.offset,
                                    src_buf->data() + src->offset,
                                    e.value_size);
                    }
                    break;
                }
            }
        }
        compaction_outputs_.push_back(std::move(meta));
        compaction_out_bufs_.push_back(std::move(out_buf));
    }

    // Merge-sort CPU cost before the writes begin.
    const auto merge_cost = static_cast<TimeNs>(
        kMergeCpuPerByteNs * static_cast<double>(total_bytes));
    sim_.Schedule(merge_cost, [this]() { CompactionWriteNext(); });
}

void
Slice::CompactionWriteNext()
{
    // A detached slice must not issue new writes: the IDs it would use
    // were never recorded, and its successor store has already reconciled
    // the device.
    if (detached_) return;
    if (compaction_write_next_ == compaction_outputs_.size() &&
        compaction_io_inflight_ == 0) {
        FinishCompaction();
        return;
    }
    while (compaction_io_inflight_ < kCompactionIoConcurrency &&
           compaction_write_next_ < compaction_outputs_.size()) {
        const size_t i = compaction_write_next_++;
        ++compaction_io_inflight_;
        const auto &meta = compaction_outputs_[i];
        const auto &buf = compaction_out_bufs_[i];
        if (buf) patch_images_[meta->id()] = buf;
        stats_.compaction_bytes_written += storage_.patch_bytes();
        storage_.PutPatch(meta->id(),
                          [this](bool) {
                              --compaction_io_inflight_;
                              CompactionWriteNext();
                          },
                          buf ? buf->data() : nullptr,
                          blocklayer::kInternalPriority);
    }
}

void
Slice::FinishCompaction()
{
    // A zombie compaction (process stopped mid-merge) must not delete its
    // input patches: the recovered store still indexes them.
    if (detached_) return;
    // Detach the inputs from their level (new flushes may have appended
    // more runs meanwhile; remove exactly the snapshot).
    auto &level = levels_[compaction_level_];
    for (const auto &input : compaction_inputs_) {
        level.erase(std::remove_if(level.begin(), level.end(),
                                   [&](const auto &m) {
                                       return m->id() == input->id();
                                   }),
                    level.end());
    }
    if (levels_.size() <= compaction_level_ + 1)
        levels_.resize(compaction_level_ + 2);
    for (const auto &out : compaction_outputs_) {
        levels_[compaction_level_ + 1].push_back(out);
        UpdateIndex(*out);
    }
    if (compaction_dropped_tombstones_) {
        // Tombstones discarded by this merge: remove their index shadows
        // (only if the index still points at exactly this marker — a
        // newer version may have arrived mid-compaction).
        for (const auto &input : compaction_inputs_) {
            for (const PatchEntry &e : input->entries()) {
                if (!e.tombstone) continue;
                const EntryRef *ref = index_.Find(e.key);
                if (ref != nullptr && ref->entry().tombstone &&
                    ref->entry().seq == e.seq) {
                    index_.Erase(e.key);
                }
            }
        }
    }
    if (journal_) {
        // Record the outputs before dropping the inputs: if both are
        // momentarily present the index's sequence numbers dedup them,
        // whereas the reverse order could lose coverage.
        for (size_t i = 0; i < compaction_outputs_.size(); ++i) {
            const auto &out = compaction_outputs_[i];
            journal_->patches[out->id()] =
                PatchFooter{compaction_level_ + 1, out,
                            config_.store_payloads
                                ? patch_images_[out->id()]
                                : nullptr};
        }
        for (const auto &input : compaction_inputs_)
            journal_->patches.erase(input->id());
    }
    for (const auto &input : compaction_inputs_) {
        storage_.DeletePatch(input->id());
        patch_images_.erase(input->id());
    }

    compaction_inputs_.clear();
    compaction_buffers_.clear();
    compaction_outputs_.clear();
    compaction_out_bufs_.clear();
    compaction_active_ = false;
    MaybeStartCompaction();
}

}  // namespace sdf::kv
