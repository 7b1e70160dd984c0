/**
 * @file
 * Spans taken at the stack's public seams, from the benchmark's own code.
 *
 * Three decorators wrap the public interfaces between layers:
 *
 *  - FreshService wraps a workload::KvService (kv::Store or client::KvClient)
 *    and also carries the per-key freshness check: every put writes its
 *    per-key write sequence number into the low bits of the value size it
 *    passes down, and every read decodes it;
 *  - TracedPatchStorage wraps a kv::PatchStorage (BlockPatchStorage);
 *  - TracedDevice wraps a core::BlockDevice (SdfDevice).
 *
 * Each decorator records one span per call on the simulated clock (start at
 * the call, end at the completion callback) and tags it with its parent, so
 * a layer's self time is its span minus the part its child spans cover.
 * Completions run inline inside the wrapped callback, so the decorators add
 * no simulated events: a decorated stack replays the same event sequence as
 * an undecorated one.
 *
 * Parents: a KvService get is the "current op" while the store runs
 * synchronously inside it, and again while a PatchStorage completion runs
 * (the slice's get-retry path re-enters storage from there). Block-device
 * calls can be issued later from another op's completion (the block layer's
 * per-channel queue), so they are matched to the oldest outstanding
 * PatchStorage call on the same channel with the same offset and length
 * (reads) or to the oldest outstanding patch write on the channel (writes
 * and inline erases).
 *
 * Wall clock: each decorator also opens a wall-clock frame around the call
 * it forwards and around the completion it hands back up, charged to the
 * layer whose code runs there. Frames nest; a frame's self time excludes
 * the frames opened inside it.
 */
#ifndef SDFBENCH_SEAMS_H
#define SDFBENCH_SEAMS_H

#include <array>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_map>
#include <vector>

#include "blocklayer/block_layer.h"
#include "kv/patch_storage.h"
#include "sdf/block_device.h"
#include "sim/simulator.h"
#include "workload/kv_driver.h"

namespace sdfbench {

using sdf::util::TimeNs;

/** Layers a span or a wall-clock frame is charged to. */
enum class Layer : uint8_t
{
    kWorkload,    ///< The benchmark's load loops and completion handlers.
    kClient,      ///< client::KvClient (cluster workloads).
    kKv,          ///< kv::Store and its slices.
    kBlockLayer,  ///< PatchStorage -> IoStack -> BlockLayer.
    kSdf,         ///< The SDF device.
    kCount
};

const char *LayerName(Layer layer);

enum class OpKind : uint8_t
{
    kGet,
    kPut,
    kRead,
    kWrite,
    kErase,
};

/** One call through a seam, on the simulated clock. */
struct Span
{
    uint32_t parent = 0;  ///< 1-based span id; 0 = background work.
    Layer layer = Layer::kWorkload;
    OpKind kind = OpKind::kGet;
    TimeNs start = 0;
    TimeNs end = -1;  ///< -1 until the completion ran.
};

/** Span store plus the wall-clock frame stack, for one simulator. */
class Tracer
{
  public:
    explicit Tracer(sdf::sim::Simulator &sim) : sim_(sim) {}

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** Open a span now; @return its 1-based id. */
    uint32_t Begin(Layer layer, OpKind kind, uint32_t parent);
    void End(uint32_t id) { spans_[id - 1].end = sim_.Now(); }

    const std::vector<Span> &spans() const { return spans_; }

    /** The KvService get whose code is running synchronously (0 = none). */
    uint32_t current() const { return current_; }
    void set_current(uint32_t id) { current_ = id; }

    /** A PatchStorage read of (@p offset, @p length) on @p channel. */
    void ExpectRead(uint32_t channel, uint64_t offset, uint64_t length,
                    uint32_t span);
    /** The span a device read of (@p offset, @p length) belongs to. */
    uint32_t ClaimRead(uint32_t channel, uint64_t offset, uint64_t length);
    /** A PatchStorage patch write headed for @p channel. */
    void ExpectWrite(uint32_t channel, uint32_t span);
    /** The patch write a device WriteUnit belongs to (consumed). */
    uint32_t ClaimWrite(uint32_t channel);
    /** The patch write an inline erase runs for (not consumed). */
    uint32_t PeekWrite(uint32_t channel) const;
    /** Drop @p span's unclaimed expectations (it completed without one). */
    void Forget(uint32_t channel, uint32_t span);

    /** Wall nanoseconds spent in @p layer's own code (frames minus nested
     *  frames). */
    uint64_t wall_self_ns(Layer layer) const
    {
        return wall_self_ns_[static_cast<size_t>(layer)];
    }

    /** RAII wall-clock frame; a null tracer makes it a no-op. */
    class Frame
    {
      public:
        Frame(Tracer *tracer, Layer layer);
        ~Frame();
        Frame(const Frame &) = delete;
        Frame &operator=(const Frame &) = delete;

      private:
        Tracer *tracer_;
    };

  private:
    using Clock = std::chrono::steady_clock;

    struct Pending
    {
        uint64_t offset;
        uint64_t length;
        uint32_t span;
    };

    struct OpenFrame
    {
        Layer layer;
        Clock::time_point start;
        uint64_t child_ns;
    };

    std::deque<Pending> &ReadsOn(uint32_t channel);
    std::deque<uint32_t> &WritesOn(uint32_t channel);

    sdf::sim::Simulator &sim_;
    std::vector<Span> spans_;
    uint32_t current_ = 0;
    std::vector<std::deque<Pending>> reads_;
    std::vector<std::deque<uint32_t>> writes_;
    std::vector<OpenFrame> frames_;
    std::array<uint64_t, static_cast<size_t>(Layer::kCount)> wall_self_ns_{};
};

/** core::BlockDevice decorator: one span per Read/WriteUnit/EraseUnit. */
class TracedDevice : public sdf::core::BlockDevice
{
  public:
    TracedDevice(sdf::core::BlockDevice &inner, Tracer &tracer)
        : inner_(inner), tracer_(tracer) {}

    const sdf::core::DeviceCaps &caps() const override
    {
        return inner_.caps();
    }
    void Read(uint32_t channel, uint32_t unit, uint64_t offset,
              uint64_t length, sdf::core::IoCallback done,
              std::vector<uint8_t> *out = nullptr,
              sdf::obs::IoSpan *span = nullptr) override;
    void WriteUnit(uint32_t channel, uint32_t unit, sdf::core::IoCallback done,
                   const uint8_t *data = nullptr,
                   sdf::obs::IoSpan *span = nullptr) override;
    void EraseUnit(uint32_t channel, uint32_t unit, sdf::core::IoCallback done,
                   sdf::obs::IoSpan *span = nullptr) override;
    sdf::core::UnitState unit_state(uint32_t channel,
                                    uint32_t unit) const override
    {
        return inner_.unit_state(channel, unit);
    }
    bool ChannelDead(uint32_t channel) const override
    {
        return inner_.ChannelDead(channel);
    }
    void DebugForceWritten(uint32_t channel, uint32_t unit) override
    {
        inner_.DebugForceWritten(channel, unit);
    }

  private:
    /** Completion wrapper: close the span, run the block layer's handler. */
    sdf::core::IoCallback Wrap(uint32_t id, sdf::core::IoCallback done);

    sdf::core::BlockDevice &inner_;
    Tracer &tracer_;
};

/** kv::PatchStorage decorator over a BlockPatchStorage. */
class TracedPatchStorage : public sdf::kv::PatchStorage
{
  public:
    TracedPatchStorage(sdf::kv::PatchStorage &inner,
                       const sdf::blocklayer::BlockLayer &layer,
                       Tracer &tracer)
        : inner_(inner), layer_(layer), tracer_(tracer) {}

    uint64_t patch_bytes() const override { return inner_.patch_bytes(); }
    uint32_t alignment() const override { return inner_.alignment(); }
    void PutPatch(uint64_t id, sdf::kv::PatchCallback done,
                  const uint8_t *data, int priority) override;
    void GetRange(uint64_t id, uint64_t offset, uint64_t length,
                  sdf::kv::PatchCallback done, std::vector<uint8_t> *out,
                  int priority) override;
    void DeletePatch(uint64_t id) override { inner_.DeletePatch(id); }
    std::vector<uint64_t> StoredIds() const override
    {
        return inner_.StoredIds();
    }
    uint64_t FreePatchSlots() const override
    {
        return inner_.FreePatchSlots();
    }
    bool DebugInstallPatch(uint64_t id) override
    {
        return inner_.DebugInstallPatch(id);
    }

  private:
    sdf::kv::PatchStorage &inner_;
    const sdf::blocklayer::BlockLayer &layer_;
    Tracer &tracer_;
};

/** Low value-size bits that carry a key's write sequence number. */
inline constexpr uint32_t kVersionMask = 1023;

/** @p size with its low bits replaced by @p seq (mod 1024). */
inline uint32_t
EncodeVersion(uint32_t size, uint64_t seq)
{
    return (size & ~kVersionMask) | static_cast<uint32_t>(seq & kVersionMask);
}

inline uint32_t
DecodeVersion(uint32_t size)
{
    return size & kVersionMask;
}

/** Per-key write history the freshness check and the audit read. */
struct KeyVersion
{
    uint64_t issued = 0;     ///< Highest write sequence number issued.
    uint64_t acked = 0;      ///< Highest write sequence number acked.
    bool preloaded = false;  ///< Present (version 0) before the run.
};

/** Outcome counters and sim-clock latencies of one FreshService. */
struct ServiceStats
{
    uint64_t gets = 0;
    uint64_t puts = 0;
    uint64_t get_errors = 0;     ///< Untyped failures (kError).
    uint64_t put_errors = 0;
    uint64_t get_shed = 0;       ///< Typed kOverloaded / kDeadlineExceeded.
    uint64_t put_shed = 0;
    uint64_t reads_checked = 0;  ///< Reads of a known key that came back ok.
    uint64_t stale_reads = 0;    ///< ... older than the last ack at issue.
    uint64_t put_bytes_acked = 0;
    std::vector<TimeNs> get_ns;  ///< Every completed get, issue to completion.
    std::vector<TimeNs> put_ns;
};

/**
 * KvService decorator: latency per op on the simulated clock, per-key
 * versions for the freshness check, and (with a tracer) one span per op.
 * Keys must be registered (Preloaded) before they are read or written.
 */
class FreshService
{
  public:
    FreshService(sdf::sim::Simulator &sim, sdf::workload::KvService inner,
                 Layer layer, Tracer *tracer)
        : sim_(sim), inner_(std::move(inner)), layer_(layer), tracer_(tracer)
    {
    }

    FreshService(const FreshService &) = delete;
    FreshService &operator=(const FreshService &) = delete;

    /** Record @p key as present at version 0 (preloaded). */
    void Preloaded(uint64_t key) { versions_[key].preloaded = true; }

    void Put(uint64_t key, uint32_t value_size,
             sdf::kv::PutStatusCallback done);
    void Get(uint64_t key, sdf::kv::GetCallback done);

    /** This decorator as a workload target (for workload::RunYcsb). */
    sdf::workload::KvService Service();

    /** Called every @p every ops (traced runs sample gauges with it). */
    void set_sampler(uint32_t every, std::function<void()> fn)
    {
        sample_every_ = every;
        sampler_ = std::move(fn);
    }

    const ServiceStats &stats() const { return stats_; }
    const std::unordered_map<uint64_t, KeyVersion> &versions() const
    {
        return versions_;
    }

    /** True when @p got (a decoded version) is older than @p min_ok. */
    bool Stale(uint64_t key, uint64_t min_ok, uint32_t got) const;

  private:
    void Tick();

    sdf::sim::Simulator &sim_;
    sdf::workload::KvService inner_;
    Layer layer_;
    Tracer *tracer_;
    std::unordered_map<uint64_t, KeyVersion> versions_;
    ServiceStats stats_;
    uint64_t ops_ = 0;
    uint32_t sample_every_ = 0;
    std::function<void()> sampler_;
};

/**
 * End-of-run audit through @p get (router or store, bypassing the client):
 * every key with an acked write (or preloaded) must be found, at the
 * version of its last acked write. Drives the simulator to completion.
 */
struct AuditResult
{
    uint64_t audited = 0;
    uint64_t lost = 0;   ///< Not found, or unreadable.
    uint64_t stale = 0;  ///< Found at an older version than the last ack.
};

AuditResult Audit(sdf::sim::Simulator &sim, const FreshService &svc,
                  const std::function<void(uint64_t, sdf::kv::GetCallback)>
                      &get);

}  // namespace sdfbench

#endif  // SDFBENCH_SEAMS_H
