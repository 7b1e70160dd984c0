#include "seams.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <utility>

namespace sdfbench {

using sdf::core::IoCallback;
using sdf::core::IoStatus;

const char *
LayerName(Layer layer)
{
    switch (layer) {
      case Layer::kWorkload: return "workload";
      case Layer::kClient: return "client";
      case Layer::kKv: return "kv";
      case Layer::kBlockLayer: return "blocklayer";
      case Layer::kSdf: return "sdf";
      case Layer::kCount: break;
    }
    return "?";
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

uint32_t
Tracer::Begin(Layer layer, OpKind kind, uint32_t parent)
{
    spans_.push_back(Span{parent, layer, kind, sim_.Now(), -1});
    return static_cast<uint32_t>(spans_.size());
}

std::deque<Tracer::Pending> &
Tracer::ReadsOn(uint32_t channel)
{
    if (channel >= reads_.size()) reads_.resize(channel + 1);
    return reads_[channel];
}

std::deque<uint32_t> &
Tracer::WritesOn(uint32_t channel)
{
    if (channel >= writes_.size()) writes_.resize(channel + 1);
    return writes_[channel];
}

void
Tracer::ExpectRead(uint32_t channel, uint64_t offset, uint64_t length,
                   uint32_t span)
{
    ReadsOn(channel).push_back(Pending{offset, length, span});
}

uint32_t
Tracer::ClaimRead(uint32_t channel, uint64_t offset, uint64_t length)
{
    auto &q = ReadsOn(channel);
    for (auto it = q.begin(); it != q.end(); ++it) {
        if (it->offset == offset && it->length == length) {
            const uint32_t span = it->span;
            q.erase(it);
            return span;
        }
    }
    return 0;
}

void
Tracer::ExpectWrite(uint32_t channel, uint32_t span)
{
    WritesOn(channel).push_back(span);
}

uint32_t
Tracer::ClaimWrite(uint32_t channel)
{
    auto &q = WritesOn(channel);
    if (q.empty()) return 0;
    const uint32_t span = q.front();
    q.pop_front();
    return span;
}

uint32_t
Tracer::PeekWrite(uint32_t channel) const
{
    if (channel >= writes_.size() || writes_[channel].empty()) return 0;
    return writes_[channel].front();
}

void
Tracer::Forget(uint32_t channel, uint32_t span)
{
    auto &reads = ReadsOn(channel);
    for (auto it = reads.begin(); it != reads.end(); ++it) {
        if (it->span == span) {
            reads.erase(it);
            break;
        }
    }
    auto &writes = WritesOn(channel);
    for (auto it = writes.begin(); it != writes.end(); ++it) {
        if (*it == span) {
            writes.erase(it);
            break;
        }
    }
}

Tracer::Frame::Frame(Tracer *tracer, Layer layer) : tracer_(tracer)
{
    if (tracer_ == nullptr) return;
    tracer_->frames_.push_back(OpenFrame{layer, Clock::now(), 0});
}

Tracer::Frame::~Frame()
{
    if (tracer_ == nullptr) return;
    auto &frames = tracer_->frames_;
    const OpenFrame f = frames.back();
    frames.pop_back();
    const auto elapsed = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             f.start)
            .count());
    tracer_->wall_self_ns_[static_cast<size_t>(f.layer)] +=
        elapsed > f.child_ns ? elapsed - f.child_ns : 0;
    if (!frames.empty()) frames.back().child_ns += elapsed;
}

// ---------------------------------------------------------------------------
// TracedDevice
// ---------------------------------------------------------------------------

IoCallback
TracedDevice::Wrap(uint32_t id, IoCallback done)
{
    return [this, id, done = std::move(done)](IoStatus st) {
        tracer_.End(id);
        Tracer::Frame frame(&tracer_, Layer::kBlockLayer);
        done(st);
    };
}

void
TracedDevice::Read(uint32_t channel, uint32_t unit, uint64_t offset,
                   uint64_t length, IoCallback done, std::vector<uint8_t> *out,
                   sdf::obs::IoSpan *span)
{
    const uint32_t parent = tracer_.ClaimRead(channel, offset, length);
    const uint32_t id = tracer_.Begin(Layer::kSdf, OpKind::kRead, parent);
    Tracer::Frame frame(&tracer_, Layer::kSdf);
    inner_.Read(channel, unit, offset, length, Wrap(id, std::move(done)), out,
                span);
}

void
TracedDevice::WriteUnit(uint32_t channel, uint32_t unit, IoCallback done,
                        const uint8_t *data, sdf::obs::IoSpan *span)
{
    const uint32_t parent = tracer_.ClaimWrite(channel);
    const uint32_t id = tracer_.Begin(Layer::kSdf, OpKind::kWrite, parent);
    Tracer::Frame frame(&tracer_, Layer::kSdf);
    inner_.WriteUnit(channel, unit, Wrap(id, std::move(done)), data, span);
}

void
TracedDevice::EraseUnit(uint32_t channel, uint32_t unit, IoCallback done,
                        sdf::obs::IoSpan *span)
{
    const uint32_t parent = tracer_.PeekWrite(channel);
    const uint32_t id = tracer_.Begin(Layer::kSdf, OpKind::kErase, parent);
    Tracer::Frame frame(&tracer_, Layer::kSdf);
    inner_.EraseUnit(channel, unit, Wrap(id, std::move(done)), span);
}

// ---------------------------------------------------------------------------
// TracedPatchStorage
// ---------------------------------------------------------------------------

void
TracedPatchStorage::PutPatch(uint64_t id, sdf::kv::PatchCallback done,
                             const uint8_t *data, int priority)
{
    // Patch writes (flushes, compaction output) never block a client op's
    // completion, so they are background spans.
    const uint32_t ch = layer_.ChannelOf(id);
    const uint32_t sid = tracer_.Begin(Layer::kBlockLayer, OpKind::kWrite, 0);
    tracer_.ExpectWrite(ch, sid);
    Tracer::Frame frame(&tracer_, Layer::kBlockLayer);
    inner_.PutPatch(
        id,
        [this, ch, sid, done = std::move(done)](IoStatus st) {
            tracer_.End(sid);
            tracer_.Forget(ch, sid);
            Tracer::Frame up(&tracer_, Layer::kKv);
            done(st);
        },
        data, priority);
}

void
TracedPatchStorage::GetRange(uint64_t id, uint64_t offset, uint64_t length,
                             sdf::kv::PatchCallback done,
                             std::vector<uint8_t> *out, int priority)
{
    const uint32_t ch = layer_.ChannelOf(id);
    // Only client-priority reads serve a get; compaction and recovery
    // reads are background work even when a get's code is running.
    const uint32_t parent =
        priority == sdf::blocklayer::kClientPriority ? tracer_.current() : 0;
    const uint32_t sid =
        tracer_.Begin(Layer::kBlockLayer, OpKind::kRead, parent);
    tracer_.ExpectRead(ch, offset, length, sid);
    Tracer::Frame frame(&tracer_, Layer::kBlockLayer);
    inner_.GetRange(
        id, offset, length,
        [this, ch, sid, parent, done = std::move(done)](IoStatus st) {
            tracer_.End(sid);
            tracer_.Forget(ch, sid);
            // The slice may re-enter storage from here (get retry): that
            // read belongs to the same client op.
            const uint32_t saved = tracer_.current();
            tracer_.set_current(parent);
            {
                Tracer::Frame up(&tracer_, Layer::kKv);
                done(st);
            }
            tracer_.set_current(saved);
        },
        out, priority);
}

// ---------------------------------------------------------------------------
// FreshService
// ---------------------------------------------------------------------------

void
FreshService::Tick()
{
    if (sampler_ && ++ops_ % sample_every_ == 0) sampler_();
}

void
FreshService::Put(uint64_t key, uint32_t value_size,
                  sdf::kv::PutStatusCallback done)
{
    Tick();
    ++stats_.puts;
    KeyVersion &v = versions_[key];
    const uint64_t seq = ++v.issued;
    const uint32_t size = EncodeVersion(value_size, seq);
    const TimeNs t0 = sim_.Now();
    const uint32_t sid =
        tracer_ != nullptr ? tracer_->Begin(layer_, OpKind::kPut, 0) : 0;
    auto finish = [this, key, seq, size, t0, sid,
                   done = std::move(done)](sdf::kv::OpStatus s) {
        stats_.put_ns.push_back(sim_.Now() - t0);
        if (s == sdf::kv::OpStatus::kOk) {
            KeyVersion &kv = versions_[key];
            if (seq > kv.acked) kv.acked = seq;
            stats_.put_bytes_acked += size;
        } else if (s == sdf::kv::OpStatus::kError) {
            ++stats_.put_errors;
        } else {
            ++stats_.put_shed;
        }
        if (sid != 0) tracer_->End(sid);
        Tracer::Frame up(tracer_, Layer::kWorkload);
        if (done) done(s);
    };
    Tracer::Frame frame(tracer_, layer_);
    if (inner_.put_typed) {
        inner_.put_typed(key, size, std::move(finish));
    } else {
        inner_.put(key, size, [finish = std::move(finish)](bool ok) {
            finish(ok ? sdf::kv::OpStatus::kOk : sdf::kv::OpStatus::kError);
        });
    }
}

void
FreshService::Get(uint64_t key, sdf::kv::GetCallback done)
{
    Tick();
    ++stats_.gets;
    const uint64_t min_ok = versions_[key].acked;
    const TimeNs t0 = sim_.Now();
    const uint32_t sid =
        tracer_ != nullptr ? tracer_->Begin(layer_, OpKind::kGet, 0) : 0;
    Tracer::Frame frame(tracer_, layer_);
    const uint32_t saved = tracer_ != nullptr ? tracer_->current() : 0;
    if (tracer_ != nullptr) tracer_->set_current(sid);
    inner_.get(key, [this, key, min_ok, t0, sid, done = std::move(done)](
                        const sdf::kv::GetResult &res) {
        stats_.get_ns.push_back(sim_.Now() - t0);
        if (!res.ok) {
            if (res.status == sdf::kv::OpStatus::kOverloaded ||
                res.status == sdf::kv::OpStatus::kDeadlineExceeded) {
                ++stats_.get_shed;
            } else {
                ++stats_.get_errors;
            }
        } else {
            // Every key the benchmark reads is known, so a miss is as
            // stale as an old version.
            ++stats_.reads_checked;
            if (!res.found ||
                Stale(key, min_ok, DecodeVersion(res.value_size))) {
                ++stats_.stale_reads;
            }
        }
        if (sid != 0) tracer_->End(sid);
        Tracer::Frame up(tracer_, Layer::kWorkload);
        if (done) done(res);
    });
    if (tracer_ != nullptr) tracer_->set_current(saved);
}

bool
FreshService::Stale(uint64_t key, uint64_t min_ok, uint32_t got) const
{
    // The newest version <= the highest issued one whose low bits match.
    const auto it = versions_.find(key);
    const uint64_t issued = it == versions_.end() ? 0 : it->second.issued;
    const uint64_t back = (issued - got) & kVersionMask;
    if (back > issued) return true;
    return issued - back < min_ok;
}

sdf::workload::KvService
FreshService::Service()
{
    sdf::workload::KvService svc;
    svc.put_typed = [this](uint64_t key, uint32_t value_size,
                           sdf::kv::PutStatusCallback done) {
        Put(key, value_size, std::move(done));
    };
    svc.get = [this](uint64_t key, sdf::kv::GetCallback done) {
        Get(key, std::move(done));
    };
    return svc;
}

// ---------------------------------------------------------------------------
// Audit
// ---------------------------------------------------------------------------

AuditResult
Audit(sdf::sim::Simulator &sim, const FreshService &svc,
      const std::function<void(uint64_t, sdf::kv::GetCallback)> &get)
{
    std::vector<std::pair<uint64_t, KeyVersion>> keys;
    for (const auto &kv : svc.versions()) {
        if (kv.second.preloaded || kv.second.acked > 0) keys.push_back(kv);
    }
    std::sort(keys.begin(), keys.end(),
              [](const auto &a, const auto &b) { return a.first < b.first; });
    AuditResult out;
    size_t next = 0;
    std::function<void()> step = [&]() {
        if (next >= keys.size()) return;
        const auto [key, v] = keys[next++];
        get(key, [&, key, v](const sdf::kv::GetResult &res) {
            ++out.audited;
            if (!res.ok || !res.found) {
                ++out.lost;
            } else if (svc.Stale(key, v.acked,
                                 DecodeVersion(res.value_size))) {
                ++out.stale;
            }
            step();
        });
    };
    for (int i = 0; i < 8; ++i) step();
    sim.Run();
    return out;
}

}  // namespace sdfbench
