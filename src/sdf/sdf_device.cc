#include "sdf/sdf_device.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <utility>

#include "nand/timing.h"
#include "obs/hub.h"
#include "util/assert.h"

namespace sdf::core {

namespace {

/** Pages per DMA descriptor on the read path (512 KB with 8 KB pages). */
constexpr uint32_t kChunkPages = 64;
/** Channel-engine processing cost per command (FPGA pipeline). */
constexpr TimeNs kEngineOpCost = util::UsToNs(1);

}  // namespace

/**
 * A unit write in progress. Per plane, one page programs and the next
 * waits in the plane's cache register, its data-in already booked. The
 * device owns it (writes_) until its last program completes.
 */
struct SdfDevice::UnitWrite
{
    uint32_t channel = 0;
    uint32_t unit = 0;
    const uint8_t *data = nullptr;
    obs::IoSpan *span = nullptr;
    IoCallback done;
    IoStatus status;                  ///< First page-level error wins.
    std::vector<uint32_t> next_page;  ///< Per plane: next page to stage.
    std::vector<std::optional<nand::StagedPage>> staged;  ///< Per plane.
    uint32_t inflight = 0;            ///< Programs booked, not done.
    std::list<UnitWrite>::iterator self;  ///< Its place in writes_.
};

/**
 * A read in progress: its pages come off the flash in any order and go to
 * the host in DMA chunks as they come. The device owns it (reads_) until
 * its last chunk lands.
 */
struct SdfDevice::UnitRead
{
    uint32_t channel = 0;
    uint32_t unit = 0;
    uint64_t offset = 0;  ///< Its first byte in the unit.
    uint32_t total_pages = 0;
    uint32_t flash_done = 0;
    uint32_t transferred = 0;
    bool on_demand = false;
    IoStatus status;  ///< First page-level error wins.
    IoCallback done;
    std::vector<uint8_t> *out = nullptr;
    /** Per page, the data sensed (only when the caller wants the data). */
    std::vector<std::vector<uint8_t>> sensed;
    obs::IoSpan *span = nullptr;
    std::list<UnitRead>::iterator self;  ///< Its place in reads_.
};

SdfDevice::SdfDevice(sim::Simulator &sim, const SdfConfig &config)
    : sim_(sim),
      config_(config),
      flash_(std::make_unique<nand::FlashArray>(sim, config.flash)),
      link_(std::make_unique<controller::Link>(sim, config.link)),
      irq_(std::make_unique<controller::InterruptCoalescer>(
          sim, config.irq, config.flash.geometry.channels))
{
    const nand::Geometry &geo = flash_->geometry();

    // Per-plane bad-block managers take ownership of the factory-bad list
    // and the spare pool; the free pool only ever holds usable blocks.
    // Logical sizing: a unit needs one block in every plane, so the number
    // of exposed units is bounded by the worst plane's good-block count.
    uint32_t min_good = geo.blocks_per_plane;
    channels_.resize(geo.channels);
    for (uint32_t c = 0; c < geo.channels; ++c) {
        ChannelEngine &ce = channels_[c];
        ce.engine = std::make_unique<sim::FifoResource>(sim);
        ce.planes.resize(geo.PlanesPerChannel());
        for (uint32_t pl = 0; pl < geo.PlanesPerChannel(); ++pl) {
            PlaneEngine &pe = ce.planes[pl];
            std::vector<uint32_t> factory_bad;
            for (uint32_t b = 0; b < geo.blocks_per_plane; ++b) {
                if (flash_->channel(c).block_meta(nand::BlockAddr{pl, b}).bad)
                    factory_bad.push_back(b);
            }
            SDF_CHECK_MSG(geo.blocks_per_plane - factory_bad.size() >
                              config_.spare_blocks_per_plane,
                          "too many factory bad blocks");
            pe.bbm = std::make_unique<ftl::BadBlockManager>(
                geo.blocks_per_plane, factory_bad,
                config_.spare_blocks_per_plane);
            for (uint32_t b : pe.bbm->usable_blocks()) pe.free_pool.Release(b, 0);
            min_good = std::min(
                min_good, static_cast<uint32_t>(geo.blocks_per_plane -
                                                factory_bad.size()));
        }
    }
    const SdfSizing sizing = SizeSdf(config_, min_good);
    unit_bytes_ = sizing.unit_bytes;
    units_per_channel_ = sizing.units_per_channel;
    for (auto &ce : channels_) {
        ce.units.assign(units_per_channel_, UnitState::kUnwritten);
        for (auto &pe : ce.planes) {
            pe.map = std::make_unique<ftl::BlockMap>(units_per_channel_);
        }
    }

    caps_.name = config_.name;
    caps_.channels = geo.channels;
    caps_.units_per_channel = units_per_channel_;
    caps_.unit_bytes = unit_bytes_;
    caps_.read_unit_bytes = geo.page_size;
    caps_.user_capacity = sizing.user_capacity;
    caps_.raw_capacity = sizing.raw_capacity;

    RegisterMetrics();
}

SdfDevice::~SdfDevice()
{
    if (hub_ != nullptr) {
        for (const std::string &p : metric_prefixes_) {
            hub_->metrics().UnregisterPrefix(p);
        }
    }
}

void
SdfDevice::RegisterMetrics()
{
    hub_ = sim_.hub();
    if (hub_ == nullptr) return;
    obs::MetricsRegistry &m = hub_->metrics();

    const std::string dev = m.UniquePrefix("sdf");
    metric_prefixes_.push_back(dev);
    m.RegisterCounter(dev + ".unit_writes", &stats_.unit_writes);
    m.RegisterCounter(dev + ".unit_erases", &stats_.unit_erases);
    m.RegisterCounter(dev + ".physical_block_erases",
                      &stats_.physical_block_erases);
    m.RegisterCounter(dev + ".page_reads", &stats_.page_reads);
    m.RegisterCounter(dev + ".resent_pages", &stats_.resent_pages);
    m.RegisterCounter(dev + ".program_suspends", &stats_.program_suspends);
    m.RegisterCounter(dev + ".bus_overtakes", &stats_.bus_overtakes);
    m.RegisterCounter(dev + ".read_bytes", &stats_.read_bytes);
    m.RegisterCounter(dev + ".written_bytes", &stats_.written_bytes);
    m.RegisterCounter(dev + ".contract_violations",
                      &stats_.contract_violations);
    m.RegisterCounter(dev + ".blocks_retired", &stats_.blocks_retired);
    m.RegisterCounter(dev + ".read_failures", &stats_.read_failures);
    m.RegisterCounter(dev + ".read_retries", &stats_.read_retries);
    m.RegisterCounter(dev + ".retry_recoveries", &stats_.retry_recoveries);
    m.RegisterCounter(dev + ".read_retirements", &stats_.read_retirements);
    m.RegisterCounter(dev + ".units_lost", &stats_.units_lost);
    m.RegisterHistogram(dev + ".recovery_latency_ns", [this]() {
        return &recovery_latencies_.histogram();
    });
    m.RegisterHistogram(dev + ".on_demand_bus_wait_ns",
                        [this]() { return &bus_wait_; });

    const std::string link = m.UniquePrefix("link");
    metric_prefixes_.push_back(link);
    m.RegisterCounter(link + ".to_host_bytes",
                      [this]() { return link_->to_host_bytes(); });
    m.RegisterCounter(link + ".to_device_bytes",
                      [this]() { return link_->to_device_bytes(); });

    const std::string irq = m.UniquePrefix("irq");
    metric_prefixes_.push_back(irq);
    m.RegisterCounter(irq + ".completions",
                      [this]() { return irq_->completions(); });
    m.RegisterCounter(irq + ".interrupts",
                      [this]() { return irq_->interrupts(); });
    m.RegisterGauge(irq + ".merge_factor",
                    [this]() { return irq_->MergeFactor(); });

    // Per-channel flash metrics, e.g. nand.ch07.page_reads. A second
    // device instance lands under nand.2.chNN so prefixes never collide.
    const std::string nand = m.UniquePrefix("nand");
    metric_prefixes_.push_back(nand);
    const uint32_t channels = flash_->geometry().channels;
    for (uint32_t c = 0; c < channels; ++c) {
        char chname[16];
        std::snprintf(chname, sizeof chname, "ch%02u", c);
        const std::string ch = nand + "." + chname;
        const nand::ChannelStats &cs = flash_->channel(c).stats();
        m.RegisterCounter(ch + ".page_reads", &cs.reads);
        m.RegisterCounter(ch + ".page_programs", &cs.programs);
        m.RegisterCounter(ch + ".block_erases", &cs.erases);
        m.RegisterCounter(ch + ".read_bytes", &cs.read_bytes);
        m.RegisterCounter(ch + ".programmed_bytes", &cs.programmed_bytes);
        m.RegisterCounter(ch + ".corrected_bit_errors",
                          &cs.corrected_bit_errors);
        m.RegisterCounter(ch + ".uncorrectable_reads",
                          &cs.uncorrectable_reads);
        m.RegisterCounter(ch + ".retry_reads", &cs.retry_reads);
        m.RegisterGauge(ch + ".bus_utilization", [this, c]() {
            return flash_->channel(c).BusUtilization();
        });
    }

    // Flash tracks are named after the same unique prefix, so a cluster's
    // nodes never share one: node1.nand.ch07.bus. The first unscoped
    // device keeps the bare chNN names.
    if (hub_->trace() != nullptr) {
        const std::string track = nand == "nand" ? "" : nand + ".";
        for (uint32_t c = 0; c < channels; ++c) {
            char chname[16];
            std::snprintf(chname, sizeof chname, "ch%02u", c);
            flash_->channel(c).EnableTrace(hub_->trace(), track + chname);
        }
    }
}

bool
SdfDevice::ValidUnit(uint32_t channel, uint32_t unit) const
{
    return channel < channels_.size() && unit < units_per_channel_;
}

UnitState
SdfDevice::unit_state(uint32_t channel, uint32_t unit) const
{
    SDF_CHECK(ValidUnit(channel, unit));
    return channels_[channel].units[unit];
}

void
SdfDevice::DebugForceWritten(uint32_t channel, uint32_t unit)
{
    SDF_CHECK(ValidUnit(channel, unit));
    ChannelEngine &ce = channels_[channel];
    SDF_CHECK_MSG(ce.units[unit] == UnitState::kUnwritten,
                  "preconditioning a unit already in use");
    const nand::Geometry &geo = flash_->geometry();
    for (uint32_t plane = 0; plane < geo.PlanesPerChannel(); ++plane) {
        PlaneEngine &pe = ce.planes[plane];
        SDF_CHECK(!pe.free_pool.Empty());
        const uint32_t block = pe.free_pool.Allocate();
        pe.map->Set(unit, block);
        flash_->channel(channel).DebugSetProgrammed(
            nand::BlockAddr{plane, block}, geo.pages_per_block);
    }
    ce.units[unit] = UnitState::kWritten;
}

void
SdfDevice::Complete(uint32_t channel, IoCallback done, IoStatus status,
                    obs::IoSpan *span)
{
    if (!done) return;
    // From here the request waits for the (coalesced) completion interrupt.
    if (span != nullptr) span->Enter(obs::Stage::kInterrupt, sim_.Now());
    irq_->OnCompletion(channel,
                       [done = std::move(done), status]() { done(status); });
}

uint32_t
SdfDevice::RetireAndRemap(uint32_t channel, uint32_t plane, uint32_t unit,
                          uint32_t block)
{
    ChannelEngine &ce = channels_[channel];
    PlaneEngine &pe = ce.planes[plane];
    flash_->channel(channel).MarkBad(nand::BlockAddr{plane, block});
    ++stats_.blocks_retired;
    const uint32_t spare = pe.bbm->RetireBlock(block);
    if (spare != ftl::kNoSpare) {
        const uint32_t ec = flash_->channel(channel)
                                .block_meta(nand::BlockAddr{plane, spare})
                                .erase_count;
        pe.free_pool.Release(spare, ec);
    }
    if (!pe.free_pool.Empty()) {
        const uint32_t fresh = pe.free_pool.Allocate();
        pe.map->Set(unit, fresh);
        return fresh;
    }
    // Spares and pool both exhausted: the logical unit is lost.
    pe.map->Clear(unit);
    if (ce.units[unit] != UnitState::kDead) {
        ce.units[unit] = UnitState::kDead;
        ++stats_.units_lost;
    }
    return ftl::kUnmappedBlock;
}

void
SdfDevice::ReadPageLadder(UnitRead &r, uint32_t index, uint32_t block,
                          uint32_t level, TimeNs first_fail)
{
    const nand::Geometry &geo = flash_->geometry();
    const uint64_t byte_off = r.offset + uint64_t{index} * geo.page_size;
    const auto plane = static_cast<uint32_t>(byte_off / geo.BlockBytes());
    const auto page_in_block =
        static_cast<uint32_t>((byte_off % geo.BlockBytes()) / geo.page_size);
    auto sensed = [this, r = &r, index, block, level, first_fail,
                   plane](nand::OpStatus status) {
        if (nand::IsOk(status)) {  // kOk or kOkErased (unprogrammed).
            if (level > 0) {
                ++stats_.retry_recoveries;
                recovery_latencies_.Record(sim_.Now() - first_fail);
            }
            PageDone(*r, index, IoStatus());
            return;
        }
        if (status == nand::OpStatus::kChannelDead) {
            PageDone(*r, index, IoError::kChannelDead);
            return;
        }
        // ECC-uncorrectable: climb the retry-voltage ladder.
        if (level < config_.read_retry_levels) {
            ++stats_.read_retries;
            ReadPageLadder(*r, index, block, level + 1,
                           level == 0 ? sim_.Now() : first_fail);
            return;
        }
        // Ladder exhausted: data is lost; retire the block so future
        // writes land on healthy flash. The host sees a typed error and
        // must recover from a replica.
        ++stats_.read_failures;
        ++stats_.read_retirements;
        RetireAndRemap(r->channel, plane, r->unit, block);
        PageDone(*r, index, IoError::kReadUncorrectable);
    };
    static_assert(nand::OpCallback::kFitsInline<decltype(sensed)>);
    // On-demand reads go ahead of the page program on their plane and of
    // background transfers on the bus (§5). A one-page read gets its fine
    // cuts inside Channel::ReadPage.
    nand::Channel &flash = flash_->channel(r.channel);
    const nand::ReadOutcome booked = flash.ReadPage(
        nand::PageAddr{plane, block, page_in_block}, std::move(sensed),
        r.sensed.empty() ? nullptr : &r.sensed[index], level,
        r.total_pages == 1 ? r.span : nullptr, r.on_demand);
    if (booked.suspended) ++stats_.program_suspends;
    if (booked.overtook) ++stats_.bus_overtakes;
    // A read of a dead channel never reached the bus.
    if (r.on_demand && hub_ != nullptr && !flash.dead()) {
        bus_wait_.Add(booked.bus_wait);
    }
}

void
SdfDevice::PageDone(UnitRead &r, uint32_t index, IoStatus status)
{
    const uint32_t page = flash_->geometry().page_size;
    if (!status.ok() && r.status.ok()) r.status = status;
    if (!r.sensed.empty() && !r.sensed[index].empty()) {
        std::memcpy(r.out->data() + uint64_t{index} * page,
                    r.sensed[index].data(),
                    std::min<size_t>(page, r.sensed[index].size()));
        r.sensed[index] = std::vector<uint8_t>();  // Its bytes are in out.
    }
    // DMA pages to the host in chunks as they come off the flash, so the
    // PCIe transfer pipelines with the channel-bus reads (the controller
    // stages data in its DDR3 buffers; §2.1).
    ++r.flash_done;
    while (r.transferred < r.flash_done &&
           (r.flash_done - r.transferred >= kChunkPages ||
            r.flash_done == r.total_pages)) {
        const uint32_t n = std::min(kChunkPages, r.flash_done - r.transferred);
        r.transferred += n;
        const bool final_chunk = r.transferred == r.total_pages;
        if (final_chunk && r.span != nullptr) {
            r.span->Enter(obs::Stage::kLinkTransfer, sim_.Now());
        }
        link_->TransferToHost(
            sim_.Now(), uint64_t{n} * page,
            final_chunk ? sim::Callback([this, r = &r]() {
                Complete(r->channel, std::move(r->done), r->status, r->span);
                reads_.erase(r->self);
            })
                        : nullptr);
    }
}

void
SdfDevice::Read(uint32_t channel, uint32_t unit, uint64_t offset,
                uint64_t length, IoCallback done, std::vector<uint8_t> *out,
                obs::IoSpan *span)
{
    const nand::Geometry &geo = flash_->geometry();
    const uint32_t page = geo.page_size;
    if (!ValidUnit(channel, unit) || length == 0 || offset % page != 0 ||
        length % page != 0 || offset + length > unit_bytes_) {
        ++stats_.contract_violations;
        sim_.Post([done = std::move(done)]() {
            if (done) done(IoError::kContractViolation);
        });
        return;
    }

    const auto pages = static_cast<uint32_t>(length / page);
    stats_.page_reads += pages;
    stats_.read_bytes += length;
    if (out) out->assign(length, 0);

    UnitRead &r = reads_.emplace_back();
    r.self = std::prev(reads_.end());
    r.channel = channel;
    r.unit = unit;
    r.offset = offset;
    r.total_pages = pages;
    r.on_demand = ReadClassScope::Current() == ReadClass::kOnDemand;
    r.done = std::move(done);
    r.out = out;
    if (out) r.sensed.resize(pages);
    r.span = span;

    // Everything until the engine picks the command up is queueing.
    if (span != nullptr) span->Enter(obs::Stage::kQueue, sim_.Now());

    channels_[channel].engine->Submit(kEngineOpCost, [this, r = &r]() {
        // A multi-page read pipelines planes, bus, and DMA; attribute its
        // critical path (flash until the last page, then the DMA tail).
        if (r->span != nullptr && r->total_pages != 1) {
            r->span->Enter(obs::Stage::kFlashOp, sim_.Now());
        }
        const nand::Geometry &geo2 = flash_->geometry();
        const ChannelEngine &ce = channels_[r->channel];
        for (uint32_t i = 0; i < r->total_pages; ++i) {
            const uint64_t byte_off = r->offset + uint64_t{i} * geo2.page_size;
            const auto plane =
                static_cast<uint32_t>(byte_off / geo2.BlockBytes());
            const uint32_t block = ce.planes[plane].map->Lookup(r->unit);
            if (block == ftl::kUnmappedBlock) {
                // Unwritten unit: reads as erased flash (0xFF).
                if (r->out) {
                    std::memset(r->out->data() + uint64_t{i} * geo2.page_size,
                                0xFF, geo2.page_size);
                }
                PageDone(*r, i, IoStatus());
                continue;
            }
            ReadPageLadder(*r, i, block, 0, 0);
        }
    });
}

void
SdfDevice::WriteUnit(uint32_t channel, uint32_t unit, IoCallback done,
                     const uint8_t *data, obs::IoSpan *span)
{
    if (!ValidUnit(channel, unit) ||
        channels_[channel].units[unit] != UnitState::kErased) {
        ++stats_.contract_violations;
        sim_.Post([done = std::move(done)]() {
            if (done) done(IoError::kContractViolation);
        });
        return;
    }

    ChannelEngine &ce = channels_[channel];
    ce.units[unit] = UnitState::kWritten;
    ++stats_.unit_writes;
    stats_.written_bytes += unit_bytes_;

    if (span != nullptr) span->Enter(obs::Stage::kQueue, sim_.Now());

    ce.engine->Submit(kEngineOpCost, [this, channel, unit, data, span,
                                      done = std::move(done)]() mutable {
        // Stage the whole unit into the on-board DRAM buffers, then program.
        if (span != nullptr) {
            span->Enter(obs::Stage::kLinkTransfer, sim_.Now());
        }
        link_->TransferToDevice(
            sim_.Now(), unit_bytes_,
            [this, channel, unit, data, span,
             done = std::move(done)]() mutable {
                if (span != nullptr) {
                    span->Enter(obs::Stage::kFlashOp, sim_.Now());
                }
                const uint32_t planes = flash_->geometry().PlanesPerChannel();
                UnitWrite &w = writes_.emplace_back();
                w.self = std::prev(writes_.end());
                w.channel = channel;
                w.unit = unit;
                w.data = data;
                w.span = span;
                w.done = std::move(done);
                w.next_page.assign(planes, 0);
                w.staged.assign(planes, std::nullopt);
                // Interleave planes page by page so all four program
                // pipelines stay fed (§2.3: 2 MB striping within a unit):
                // the first pass stages each plane's first page, the
                // second programs it and stages the second.
                for (int pass = 0; pass < 2; ++pass) {
                    for (uint32_t plane = 0; plane < planes; ++plane) {
                        AdvancePlane(w, plane);
                    }
                }
                if (w.inflight == 0) FinishWrite(w);  // Dead or failed.
            });
    });
}

void
SdfDevice::FinishWrite(UnitWrite &w)
{
    Complete(w.channel, std::move(w.done), w.status, w.span);
    writes_.erase(w.self);
}

void
SdfDevice::AdvancePlane(UnitWrite &w, uint32_t plane)
{
    const nand::Geometry &geo = flash_->geometry();
    nand::Channel &flash = flash_->channel(w.channel);
    std::optional<nand::StagedPage> &staged = w.staged[plane];
    const bool pages_left = staged || w.next_page[plane] < geo.pages_per_block;
    if (!w.status.ok() || !pages_left) {
        staged.reset();  // A failed write drops its staged page.
        return;
    }
    if (flash.dead()) {
        staged.reset();
        w.status = IoError::kChannelDead;
        return;
    }
    if (staged) {
        ++w.inflight;
        auto programmed = [this, w = &w, plane](nand::OpStatus) {
            --w->inflight;
            AdvancePlane(*w, plane);
            if (w->inflight == 0) FinishWrite(*w);
        };
        static_assert(nand::OpCallback::kFitsInline<decltype(programmed)>);
        if (flash.ProgramStaged(*staged, std::move(programmed))) {
            ++stats_.resent_pages;
        }
        staged.reset();
    }
    if (w.next_page[plane] == geo.pages_per_block) return;
    const uint32_t page = w.next_page[plane]++;
    const uint32_t block = channels_[w.channel].planes[plane].map->Lookup(
        w.unit);
    SDF_CHECK(block != ftl::kUnmappedBlock);
    const uint8_t *payload =
        w.data == nullptr ? nullptr
                          : w.data + plane * geo.BlockBytes() +
                                uint64_t{page} * geo.page_size;
    nand::StagedPage next;
    if (flash.StagePage(nand::PageAddr{plane, block, page}, payload, &next) ==
        nand::OpStatus::kOk) {
        staged = next;
    } else {
        w.status = IoError::kWriteFailed;
    }
}

void
SdfDevice::EraseUnit(uint32_t channel, uint32_t unit, IoCallback done,
                     obs::IoSpan *span)
{
    if (!ValidUnit(channel, unit)) {
        ++stats_.contract_violations;
        sim_.Post([done = std::move(done)]() {
            if (done) done(IoError::kContractViolation);
        });
        return;
    }
    if (channels_[channel].units[unit] == UnitState::kDead) {
        // Not a software bug: the unit was lost to wear-out. Report it as
        // such so hosts can distinguish "stop using this" from "you
        // violated the contract".
        sim_.Post([done = std::move(done)]() {
            if (done) done(IoError::kUnitDead);
        });
        return;
    }

    ChannelEngine &ce = channels_[channel];
    ++stats_.unit_erases;

    if (span != nullptr) span->Enter(obs::Stage::kQueue, sim_.Now());

    ce.engine->Submit(kEngineOpCost, [this, channel, unit, span,
                                      done = std::move(done)]() mutable {
        const nand::Geometry &geo = flash_->geometry();
        const uint32_t planes = geo.PlanesPerChannel();
        ChannelEngine &ce2 = channels_[channel];

        if (span != nullptr) span->Enter(obs::Stage::kEraseOp, sim_.Now());

        auto remaining = std::make_shared<uint32_t>(planes);
        auto st = std::make_shared<IoStatus>();
        auto finish = std::make_shared<sim::Callback>(
            [this, channel, unit, remaining, st, span,
             done = std::move(done)]() mutable {
                if (--*remaining > 0) return;
                ChannelEngine &ce3 = channels_[channel];
                if (st->ok() && ce3.units[unit] != UnitState::kDead) {
                    ce3.units[unit] = UnitState::kErased;
                }
                Complete(channel, std::move(done), *st, span);
            });

        for (uint32_t plane = 0; plane < planes; ++plane) {
            PlaneEngine &pe = ce2.planes[plane];
            const uint32_t old_block = pe.map->Lookup(unit);
            if (old_block == ftl::kUnmappedBlock) {
                // First use: just map a pre-erased block from the pool.
                if (pe.free_pool.Empty()) {
                    *st = IoStatus(IoError::kUnitDead);
                    if (ce2.units[unit] != UnitState::kDead) {
                        ce2.units[unit] = UnitState::kDead;
                        ++stats_.units_lost;
                    }
                    sim_.Post([finish]() { (*finish)(); });
                    continue;
                }
                pe.map->Set(unit, pe.free_pool.Allocate());
                sim_.Post([finish]() { (*finish)(); });
                continue;
            }
            ++stats_.physical_block_erases;
            flash_->channel(channel).EraseBlock(
                nand::BlockAddr{plane, old_block},
                [this, channel, plane, unit, old_block, st,
                 finish](nand::OpStatus status) mutable {
                    ChannelEngine &ce3 = channels_[channel];
                    PlaneEngine &pe2 = ce3.planes[plane];
                    if (status == nand::OpStatus::kOk) {
                        // Dynamic wear leveling: rotate through the pool.
                        const uint32_t ec =
                            flash_->channel(channel)
                                .block_meta(nand::BlockAddr{plane, old_block})
                                .erase_count;
                        pe2.free_pool.Release(old_block, ec);
                        pe2.map->Set(unit, pe2.free_pool.Allocate());
                    } else if (status == nand::OpStatus::kChannelDead) {
                        // The whole channel is gone; keep the mapping so a
                        // post-mortem sees where the data lived.
                        if (st->ok()) *st = IoError::kChannelDead;
                    } else {
                        // Wear-out: retire the block, remap via the spare
                        // pool; the unit dies only when spares run out.
                        if (RetireAndRemap(channel, plane, unit, old_block) ==
                                ftl::kUnmappedBlock &&
                            st->ok()) {
                            *st = IoError::kUnitDead;
                        }
                    }
                    (*finish)();
                });
        }
    });
}

void
SdfDevice::ScanUnit(uint32_t channel, uint32_t unit, double selectivity,
                    std::function<void(bool ok, uint64_t matched)> done)
{
    if (!ValidUnit(channel, unit) || selectivity < 0.0 || selectivity > 1.0) {
        ++stats_.contract_violations;
        sim_.Post([done = std::move(done)]() {
            if (done) done(false, 0);
        });
        return;
    }
    const nand::Geometry &geo = flash_->geometry();
    const uint32_t page = geo.page_size;
    const uint64_t block_bytes = geo.BlockBytes();
    const auto pages = static_cast<uint32_t>(unit_bytes_ / page);
    const auto matched =
        static_cast<uint64_t>(static_cast<double>(unit_bytes_) * selectivity);
    stats_.page_reads += pages;
    stats_.read_bytes += matched;

    struct Scan
    {
        uint32_t remaining;
        bool ok;
        std::function<void(bool ok, uint64_t matched)> done;
    };
    auto scan = std::make_shared<Scan>(Scan{pages, true, std::move(done)});
    channels_[channel].engine->Submit(kEngineOpCost, [this, channel, unit,
                                                      page, pages,
                                                      block_bytes, matched,
                                                      scan]() {
        ChannelEngine &ce = channels_[channel];
        auto finish = [this, channel, matched, scan](bool page_ok) {
            if (!page_ok) scan->ok = false;
            if (--scan->remaining > 0) return;
            // Only the matching bytes cross the PCIe link.
            link_->TransferToHost(
                sim_.Now(), matched, [this, channel, matched, scan]() {
                    Complete(channel,
                             [scan, matched](bool) {
                                 scan->done(scan->ok, matched);
                             },
                             scan->ok);
                });
        };
        for (uint32_t i = 0; i < pages; ++i) {
            const uint64_t byte_off = uint64_t{i} * page;
            const auto plane = static_cast<uint32_t>(byte_off / block_bytes);
            const auto page_in_block =
                static_cast<uint32_t>((byte_off % block_bytes) / page);
            const uint32_t block = ce.planes[plane].map->Lookup(unit);
            if (block == ftl::kUnmappedBlock) {
                finish(true);  // Unwritten plane stripe: nothing to scan.
                continue;
            }
            auto sensed = [finish](nand::OpStatus status) {
                finish(nand::IsOk(status));
            };
            static_assert(nand::OpCallback::kFitsInline<decltype(sensed)>);
            flash_->channel(channel).ReadPage(
                nand::PageAddr{plane, block, page_in_block},
                std::move(sensed));
        }
    });
}

SdfDevice::WearReport
SdfDevice::GetWearReport() const
{
    WearReport report;
    report.rated_endurance = config_.flash.errors.endurance_cycles;
    report.blocks_retired = stats_.blocks_retired;
    uint64_t total_ec = 0;
    uint64_t blocks = 0;
    bool first = true;
    const nand::Geometry &geo = flash_->geometry();
    for (uint32_t c = 0; c < geo.channels; ++c) {
        for (uint32_t pl = 0; pl < geo.PlanesPerChannel(); ++pl) {
            for (uint32_t b = 0; b < geo.blocks_per_plane; ++b) {
                const auto &meta =
                    flash_->channel(c).block_meta(nand::BlockAddr{pl, b});
                if (meta.bad) continue;
                const uint32_t ec = meta.erase_count;
                if (first) {
                    report.min_erase_count = report.max_erase_count = ec;
                    first = false;
                } else {
                    report.min_erase_count =
                        std::min(report.min_erase_count, ec);
                    report.max_erase_count =
                        std::max(report.max_erase_count, ec);
                }
                total_ec += ec;
                ++blocks;
            }
        }
        for (uint32_t u = 0; u < units_per_channel_; ++u) {
            if (channels_[c].units[u] == UnitState::kDead) ++report.dead_units;
        }
    }
    if (blocks > 0) {
        report.mean_erase_count =
            static_cast<double>(total_ec) / static_cast<double>(blocks);
    }
    if (report.rated_endurance > 0) {
        report.life_used =
            report.mean_erase_count / report.rated_endurance;
    }
    return report;
}

SdfConfig
BaiduSdfConfig(double capacity_scale)
{
    SdfConfig c;
    c.flash.geometry = nand::BaiduSdfGeometry();
    const auto scaled = static_cast<uint32_t>(
        c.flash.geometry.blocks_per_plane * capacity_scale);
    c.flash.geometry.blocks_per_plane = std::max(scaled, 16u);
    c.flash.timing = nand::Micron25nmMlcTiming();
    c.link = controller::Pcie11x8Spec();
    return c;
}

SdfSizing
SizeSdf(const SdfConfig &config, uint32_t worst_plane_good_blocks)
{
    const nand::Geometry &geo = config.flash.geometry;
    SDF_CHECK_MSG(worst_plane_good_blocks > config.spare_blocks_per_plane,
                  "too many factory bad blocks");
    SdfSizing s;
    s.units_per_channel =
        worst_plane_good_blocks - config.spare_blocks_per_plane;
    s.unit_bytes = uint64_t{geo.PlanesPerChannel()} * geo.BlockBytes();
    s.user_capacity = uint64_t{geo.channels} * s.units_per_channel *
                      s.unit_bytes;
    s.raw_capacity = geo.TotalBytes();
    return s;
}

SdfSizing
SizeSdf(const SdfConfig &config)
{
    SDF_CHECK_MSG(config.flash.factory_bad_per_mille == 0.0,
                  "sizing without a device needs no factory-bad blocks");
    return SizeSdf(config, config.flash.geometry.blocks_per_plane);
}

}  // namespace sdf::core
