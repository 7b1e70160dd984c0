#include "nand/channel.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "util/assert.h"

namespace sdf::nand {

namespace {

/** Additional correction budget gained per read-retry level (retry
 *  voltage shifts recover margin). */
constexpr uint32_t kRetryExtraBits = 10;

/** A suspending read senses this long after it stops a running program
 *  (program suspend for MLC NAND: Wu & He, FAST '12). */
constexpr util::TimeNs kSuspendLatency = util::UsToNs(20);

/** A suspended program runs again this long after the last read it let
 *  in has sensed. */
constexpr util::TimeNs kResumeLatency = util::UsToNs(5);

}  // namespace

Channel::Channel(sim::Simulator &sim, const Geometry &geo,
                 const TimingSpec &timing, const ErrorModel &errors,
                 util::Rng rng, bool store_payloads,
                 uint32_t ecc_correctable_bits)
    : sim_(sim),
      geo_(geo),
      timing_(timing),
      errors_(errors),
      rng_(rng),
      store_payloads_(store_payloads),
      ecc_correctable_bits_(ecc_correctable_bits),
      on_demand_done_(sim),
      background_done_(sim),
      plane_senses_(geo.PlanesPerChannel(), 0),
      programs_(geo.PlanesPerChannel()),
      latches_(geo.PlanesPerChannel()),
      blocks_(geo.BlocksPerChannel())
{
    geo_.Validate();
    planes_.reserve(geo_.PlanesPerChannel());
    for (uint32_t p = 0; p < geo_.PlanesPerChannel(); ++p)
        planes_.push_back(std::make_unique<sim::FifoResource>(sim));
}

bool
Channel::ValidBlock(const BlockAddr &a) const
{
    return a.plane < geo_.PlanesPerChannel() && a.block < geo_.blocks_per_plane;
}

bool
Channel::ValidPage(const PageAddr &a) const
{
    return ValidBlock(a.BlockOf()) && a.page < geo_.pages_per_block;
}

BlockMeta &
Channel::Meta(const BlockAddr &a)
{
    return blocks_[FlatBlockIndex(geo_, a)];
}

const BlockMeta &
Channel::block_meta(const BlockAddr &addr) const
{
    SDF_CHECK(ValidBlock(addr));
    return blocks_[FlatBlockIndex(geo_, addr)];
}

void
Channel::MarkBad(const BlockAddr &addr)
{
    SDF_CHECK(ValidBlock(addr));
    Meta(addr).bad = true;
}

void
Channel::EnableTrace(obs::TraceSink *sink, const std::string &name)
{
    trace_ = sink;
    bus_track_ = sink->RegisterTrack("flash", name + ".bus");
    plane_tracks_.clear();
    for (uint32_t p = 0; p < geo_.PlanesPerChannel(); ++p) {
        plane_tracks_.push_back(
            sink->RegisterTrack("flash", name + ".p" + std::to_string(p)));
    }
}

void
Channel::InjectStall(util::TimeNs duration)
{
    BookBackground(TransferKind::kStall, 0, sim_.Now(), duration, nullptr,
                   "stall");
    for (size_t p = 0; p < planes_.size(); ++p) {
        const util::TimeNs end = planes_[p]->Submit(duration, nullptr);
        if (trace_ != nullptr) {
            TraceOp(plane_tracks_[p], "stall", end, duration);
        }
    }
}

void
Channel::CorruptPage(const PageAddr &addr)
{
    SDF_CHECK(ValidPage(addr));
    corrupted_.insert(FlatPageIndex(geo_, addr));
}

void
Channel::InjectTransientErrors(util::TimeNs duration, double probability)
{
    transient_until_ = std::max(transient_until_, sim_.Now() + duration);
    transient_prob_ = probability;
}

void
Channel::ElevateRber(const BlockAddr &addr, double factor)
{
    SDF_CHECK(ValidBlock(addr));
    Meta(addr).rber_boost *= factor;
}

void
Channel::DebugSetProgrammed(const BlockAddr &addr, uint32_t pages)
{
    SDF_CHECK(ValidBlock(addr));
    SDF_CHECK(pages <= geo_.pages_per_block);
    BlockMeta &meta = Meta(addr);
    SDF_CHECK_MSG(!meta.bad && meta.state == BlockState::kErased,
                  "preconditioning a non-erased block");
    meta.next_page = pages;
    meta.state = pages == geo_.pages_per_block ? BlockState::kFull
                 : pages == 0                  ? BlockState::kErased
                                               : BlockState::kOpen;
}

void
Channel::CompleteAt(util::TimeNs when, OpCallback done, OpStatus status)
{
    if (!done) return;
    // Same-time completions (validation failures, dead channels) ride the
    // completion ring instead of paying for a timed-queue slot.
    if (when == sim_.Now()) {
        sim_.Post([done = std::move(done), status]() { done(status); });
        return;
    }
    sim_.ScheduleAt(when, [done = std::move(done), status]() { done(status); });
}

ReadOutcome
Channel::ReadPage(const PageAddr &addr, OpCallback &&done,
                  std::vector<uint8_t> *out, uint32_t retry_level,
                  obs::IoSpan *span, bool on_demand)
{
    if (!ValidPage(addr)) {
        CompleteAt(sim_.Now(), std::move(done), OpStatus::kOutOfRange);
        return {};
    }
    if (dead_) {
        CompleteAt(sim_.Now(), std::move(done), OpStatus::kChannelDead);
        return {};
    }
    BlockMeta &meta = Meta(addr.BlockOf());
    if (meta.bad) {
        CompleteAt(sim_.Now(), std::move(done), OpStatus::kBadBlock);
        return {};
    }
    if (retry_level > 0) ++stats_.retry_reads;

    // Resolve data and status at submit time; plane/bus ordering makes this
    // consistent with completion-time semantics.
    OpStatus status = OpStatus::kOk;
    const bool programmed =
        meta.state != BlockState::kErased && addr.page < meta.next_page;
    if (!programmed) {
        status = OpStatus::kOkErased;
        if (out) {
            out->assign(geo_.page_size, 0xFF);
        }
    } else {
        if (out) {
            out->assign(geo_.page_size, 0);
            if (store_payloads_) {
                auto it = data_.find(FlatPageIndex(geo_, addr));
                if (it != data_.end()) {
                    std::memcpy(out->data(), it->second.data(),
                                std::min(out->size(), it->second.size()));
                }
            }
        }
        // Each retry level re-senses with shifted read voltages, buying
        // extra correction margin; latent corruption defeats all levels.
        const uint64_t budget = uint64_t{ecc_correctable_bits_} +
                                uint64_t{retry_level} * kRetryExtraBits;
        const uint32_t errs = errors_.SampleBitErrors(
            rng_, geo_.page_size, meta.erase_count, meta.rber_boost);
        const bool corrupted =
            corrupted_.count(FlatPageIndex(geo_, addr)) != 0;
        bool transient = false;
        if (sim_.Now() < transient_until_ &&
            rng_.NextBool(transient_prob_)) {
            transient = true;
            ++stats_.transient_errors;
        }
        if (corrupted || transient || errs > budget) {
            status = OpStatus::kReadUncorrectable;
            ++stats_.uncorrectable_reads;
        } else {
            stats_.corrected_bit_errors += errs;
        }
    }

    ++stats_.reads;
    stats_.read_bytes += geo_.page_size;

    // Array read on the plane, then data transfer out over the shared bus.
    // An on-demand read goes ahead of a program that is the plane's only
    // booked work (the plane frees when the program ends), unless the
    // program is running and ends no later than the read would sense
    // after suspending it.
    const util::TimeNs now = sim_.Now();
    const PlaneProgram &prog = programs_[addr.plane];
    const bool ahead = on_demand && now < prog.end &&
                       PlaneRes(addr.plane).free_at() == prog.end &&
                       (now <= prog.resume || now + kSuspendLatency < prog.end);
    ReadOutcome outcome;
    const util::TimeNs array_done =
        ahead ? SenseAheadOfProgram(addr.plane, &outcome.suspended)
              : PlaneRes(addr.plane).Submit(timing_.read_page, nullptr);
    ++plane_senses_[addr.plane];
    if (trace_ != nullptr) {
        TraceOp(plane_tracks_[addr.plane], "tR", array_done,
                timing_.read_page);
    }
    const util::TimeNs bus_time = timing_.BusTime(geo_.page_size);
    const util::TimeNs decode = timing_.bch_decode;
    auto complete = [this, done = std::move(done), status,
                     decode]() mutable {
        if (decode > 0) {
            auto decoded = [done = std::move(done), status]() {
                if (done) done(status);
            };
            static_assert(sim::Callback::kFitsInline<decltype(decoded)>);
            sim_.Schedule(decode, std::move(decoded));
        } else if (done) {
            done(status);
        }
    };
    static_assert(sim::Callback::kFitsInline<decltype(complete)>);
    const util::TimeNs bus_done =
        on_demand ? BookOnDemand(array_done, bus_time, std::move(complete),
                                 &outcome)
                  : BookBackground(TransferKind::kReadOut, addr.plane,
                                   array_done, bus_time, std::move(complete),
                                   "xfer");
    if (span != nullptr) {
        if (retry_level == 0) {
            // The flow is serial for one page, so cut points are faithful:
            // wait for the plane, sense, wait for the bus, transfer, decode.
            span->Enter(obs::Stage::kQueue, sim_.Now());
            span->Enter(obs::Stage::kFlashOp, array_done - timing_.read_page);
            span->Enter(obs::Stage::kQueue, array_done);
            span->Enter(obs::Stage::kChannelBus, bus_done - bus_time);
            span->Enter(obs::Stage::kBchDecode, bus_done);
        } else {
            // A retry rung repeats the whole sequence; attribute it whole.
            span->Enter(obs::Stage::kRetry, sim_.Now());
        }
    }
    return outcome;
}

util::TimeNs
Channel::SenseAheadOfProgram(uint32_t plane, bool *suspended)
{
    PlaneProgram &prog = programs_[plane];
    const util::TimeNs now = sim_.Now();
    util::TimeNs sense = 0;
    util::TimeNs resume = 0;
    if (now <= prog.resume) {
        // Not running: not started yet, or suspended. The read senses
        // after the reads already ahead of the program, with no suspend.
        sense = std::max(now, prog.hold);
        const util::TimeNs sensed = sense + timing_.read_page;
        resume = prog.suspended ? sensed + kResumeLatency
                                : std::max(prog.resume, sensed);
    } else {
        sense = now + kSuspendLatency;
        resume = sense + timing_.read_page + kResumeLatency;
        *suspended = true;
    }
    // The program's remaining work moves from max(now, prog.resume) to
    // resume, and its completion with it.
    const util::TimeNs slip = resume - std::max(now, prog.resume);
    PlaneRes(plane).Insert(
        prog.suspended || *suspended ? slip : timing_.read_page, slip);
    prog.end += slip;
    prog.hold = sense + timing_.read_page;
    if (trace_ != nullptr) {
        if (*suspended) {
            // Cut the running segment at the suspend; the rest runs from
            // the resume.
            trace_->Retime(prog.trace_event, prog.resume, now - prog.resume);
            prog.trace_event = TraceOp(plane_tracks_[plane], "tPROG",
                                       prog.end, prog.end - resume);
        } else {
            trace_->Retime(prog.trace_event, resume, prog.end - resume);
        }
    }
    prog.resume = resume;
    prog.suspended = prog.suspended || *suspended;
    return prog.hold;
}

void
Channel::FinishProgram(uint32_t plane, uint64_t id, OpCallback &&done)
{
    const PlaneProgram &prog = programs_[plane];
    if (prog.id == id && prog.end > sim_.Now()) {
        sim_.ScheduleAt(prog.end, [this, plane, id,
                                   done = std::move(done)]() mutable {
            FinishProgram(plane, id, std::move(done));
        });
        return;
    }
    if (done) done(OpStatus::kOk);
}

void
Channel::ProgramPage(const PageAddr &addr, OpCallback done,
                     const uint8_t *payload)
{
    StagedPage staged;
    const OpStatus status = StagePage(addr, payload, &staged);
    if (status != OpStatus::kOk) {
        CompleteAt(sim_.Now(), std::move(done), status);
        return;
    }
    ProgramStaged(staged, std::move(done));
}

OpStatus
Channel::StagePage(const PageAddr &addr, const uint8_t *payload,
                   StagedPage *staged)
{
    if (!ValidPage(addr)) return OpStatus::kOutOfRange;
    if (dead_) return OpStatus::kChannelDead;
    BlockMeta &meta = Meta(addr.BlockOf());
    if (meta.bad) return OpStatus::kBadBlock;
    if (meta.state == BlockState::kFull ||
        (meta.state == BlockState::kOpen && addr.page < meta.next_page)) {
        return OpStatus::kWriteNotErased;
    }
    if (addr.page != meta.next_page) return OpStatus::kWriteSequenceError;

    // Commit state at submit time; per-plane FIFO keeps this consistent.
    meta.next_page = addr.page + 1;
    meta.state = meta.next_page == geo_.pages_per_block ? BlockState::kFull
                                                        : BlockState::kOpen;
    if (store_payloads_) {
        auto &slot = data_[FlatPageIndex(geo_, addr)];
        slot.assign(geo_.page_size, 0);
        if (payload) std::memcpy(slot.data(), payload, geo_.page_size);
    }

    ++stats_.programs;
    stats_.programmed_bytes += geo_.page_size;

    const util::TimeNs latched = DataIn(addr.plane, nullptr);
    *staged = StagedPage{addr.plane, next_transfer_ - 1, latched,
                         plane_senses_[addr.plane]};
    return OpStatus::kOk;
}

bool
Channel::ProgramStaged(const StagedPage &staged, OpCallback &&done)
{
    const bool resend = plane_senses_[staged.plane] != staged.senses;
    // The data-in as it stands: queued (an on-demand read may have pushed
    // it back), or started, when its end is final.
    Transfer *pending = nullptr;
    util::TimeNs data_in = 0;
    if (resend) {
        data_in = DataIn(staged.plane, &pending);
    } else if ((pending = Queued(staged.data_in)) != nullptr) {
        data_in = pending->end();
    } else {
        const Latch &latch = latches_[staged.plane];
        data_in = latch.data_in == staged.data_in ? latch.end : staged.latched;
    }
    sim::FifoResource &plane = PlaneRes(staged.plane);
    PlaneProgram &prog = programs_[staged.plane];
    // A program booked behind a tracked one still pending stays FIFO work
    // (SdfDevice books one program per plane at a time, so all of its
    // programs are tracked).
    const bool track = prog.end <= sim_.Now();
    const uint64_t id = track ? prog.id + 1 : 0;
    const util::TimeNs hold = std::max(sim_.Now(), plane.free_at());
    auto finish = [this, p = staged.plane, id,
                   done = std::move(done)]() mutable {
        FinishProgram(p, id, std::move(done));
    };
    static_assert(sim::Callback::kFitsInline<decltype(finish)>);
    const util::TimeNs prog_done =
        plane.SubmitAfter(data_in, timing_.program_page, std::move(finish));
    size_t event = obs::TraceSink::kDropped;
    if (trace_ != nullptr) {
        event = TraceOp(plane_tracks_[staged.plane], "tPROG", prog_done,
                        timing_.program_page);
    }
    if (track) {
        prog = PlaneProgram{.id = id,
                            .hold = hold,
                            .resume = prog_done - timing_.program_page,
                            .end = prog_done,
                            .trace_event = event};
    }
    // While the data-in is queued, an on-demand read may push it back;
    // the program moves with it then (SlipProgram).
    if (pending != nullptr && pending->start > sim_.Now()) {
        pending->program = track ? id : kUntracked;
    }
    return resend;
}

void
Channel::SlipProgram(uint32_t plane, util::TimeNs latched)
{
    PlaneProgram &prog = programs_[plane];
    if (latched <= prog.resume) return;  // Its slack absorbs the push.
    const util::TimeNs slip = latched - prog.resume;
    PlaneRes(plane).Insert(0, slip);
    prog.resume = latched;
    prog.end += slip;
    if (trace_ != nullptr) {
        trace_->Retime(prog.trace_event, prog.resume, prog.end - prog.resume);
    }
}

util::TimeNs
Channel::DataIn(uint32_t plane, Transfer **pending)
{
    return BookBackground(TransferKind::kDataIn, plane, sim_.Now(),
                          timing_.BusTime(geo_.page_size), nullptr, "din",
                          pending);
}

Channel::Transfer *
Channel::Queued(uint64_t number)
{
    // Queued transfers carry consecutive numbers: a background booking
    // queues whenever one is queued already.
    if (queued_.empty() || number < queued_.front().number ||
        number > queued_.back().number) {
        return nullptr;
    }
    return &queued_[number - queued_.front().number];
}

void
Channel::PruneBus()
{
    const util::TimeNs now = sim_.Now();
    while (!queued_.empty() && queued_.front().start <= now) {
        const Transfer &x = queued_.front();
        started_end_ = x.end();
        if (x.kind == TransferKind::kDataIn) {
            latches_[x.plane] = Latch{x.number, x.end()};
        }
        queued_.pop_front();
    }
    while (!reserved_.empty() && reserved_.front().second <= now) {
        reserved_.pop_front();
    }
}

util::TimeNs
Channel::Place(util::TimeNs t, util::TimeNs dur) const
{
    // Reservations end in booking order, so one pass finds the first gap.
    for (const auto &[sensed, end] : reserved_) {
        if (t < end && t + dur > sensed) t = end;
    }
    return t;
}

util::TimeNs
Channel::BookBackground(TransferKind kind, uint32_t plane, util::TimeNs ready,
                        util::TimeNs dur, sim::Callback &&done,
                        const char *name, Transfer **pending)
{
    PruneBus();
    const util::TimeNs now = sim_.Now();
    const util::TimeNs start =
        Place(std::max({now, ready, background_free_}), dur);
    const util::TimeNs end = start + dur;
    background_free_ = end;
    bus_busy_ += dur;
    const uint64_t number = next_transfer_++;
    const uint64_t job = background_done_.Book(end, std::move(done));
    const size_t trace_event = TraceOp(bus_track_, name, end, dur);
    if (pending != nullptr) *pending = nullptr;
    if (start <= now) {
        started_end_ = end;
        if (kind == TransferKind::kDataIn) latches_[plane] = Latch{number, end};
        return end;
    }
    queued_.push_back(Transfer{.number = number,
                               .kind = kind,
                               .plane = plane,
                               .ready = ready,
                               .start = start,
                               .dur = dur,
                               .job = job,
                               .trace_event = trace_event});
    if (pending != nullptr) *pending = &queued_.back();
    return end;
}

util::TimeNs
Channel::BookOnDemand(util::TimeNs sensed, util::TimeNs dur,
                      sim::Callback &&done, ReadOutcome *outcome)
{
    PruneBus();
    // The read waits for the transfer in progress and for every queued
    // one up to the last that cannot move; of the rest, those that end by
    // its sense end stay ahead too, and the others move behind it.
    size_t keep = queued_.size();
    while (keep > 0 && Movable(queued_[keep - 1])) --keep;
    util::TimeNs before = keep > 0 ? queued_[keep - 1].end() : started_end_;
    const util::TimeNs start = std::max({sensed, on_demand_free_, before});
    while (keep < queued_.size() && queued_[keep].end() <= sensed) {
        before = queued_[keep++].end();
    }
    const util::TimeNs end = start + dur;
    on_demand_free_ = end;
    reserved_.emplace_back(sensed, end);
    bus_busy_ += dur;
    on_demand_done_.Book(end, std::move(done));
    TraceOp(bus_track_, "xfer", end, dur);
    outcome->bus_wait = start - sensed;
    outcome->overtook = keep < queued_.size();
    if (!outcome->overtook) return end;
    // The pushed transfers keep their booking order behind the read.
    const util::TimeNs now = sim_.Now();
    for (size_t i = keep; i < queued_.size(); ++i) {
        Transfer &x = queued_[i];
        const util::TimeNs at =
            Place(std::max({before, x.ready, now}), x.dur);
        SDF_CHECK(at >= x.start);
        if (at > x.start) Move(x, at);
        before = x.end();
    }
    background_free_ = before;
    return end;
}

bool
Channel::Movable(const Transfer &x) const
{
    switch (x.kind) {
    case TransferKind::kReadOut:
        return true;
    case TransferKind::kStall:
        return false;
    case TransferKind::kDataIn: {
        // Its program, once booked, must be able to slip with it.
        if (x.program == 0) return true;
        const PlaneProgram &prog = programs_[x.plane];
        return x.program == prog.id &&
               planes_[x.plane]->free_at() == prog.end;
    }
    case TransferKind::kEraseCmd:
        return x.erase_end > 0 && planes_[x.plane]->free_at() == x.erase_end;
    }
    return false;
}

void
Channel::Move(Transfer &x, util::TimeNs start)
{
    x.start = start;
    const util::TimeNs end = x.end();
    if (x.job != 0) {
        background_done_.Retime(x.job, end);
    } else {
        sim_.ScheduleAt(end, nullptr);  // Its end stays the clock's horizon.
    }
    if (trace_ != nullptr) trace_->Retime(x.trace_event, start, x.dur);
    if (x.kind == TransferKind::kDataIn) {
        if (x.program != 0) SlipProgram(x.plane, end);
    } else if (x.kind == TransferKind::kEraseCmd) {
        const util::TimeNs erase_start = x.erase_end - timing_.erase_block;
        if (end <= erase_start) return;  // Its slack absorbs the push.
        const util::TimeNs slip = end - erase_start;
        PlaneRes(x.plane).DelayLast(slip);
        x.erase_end += slip;
        if (trace_ != nullptr) {
            trace_->Retime(x.erase_trace, end, timing_.erase_block);
        }
    }
}

void
Channel::EraseBlock(const BlockAddr &addr, OpCallback done)
{
    if (!ValidBlock(addr)) {
        CompleteAt(sim_.Now(), std::move(done), OpStatus::kOutOfRange);
        return;
    }
    if (dead_) {
        CompleteAt(sim_.Now(), std::move(done), OpStatus::kChannelDead);
        return;
    }
    BlockMeta &meta = Meta(addr);
    if (meta.bad) {
        CompleteAt(sim_.Now(), std::move(done), OpStatus::kBadBlock);
        return;
    }

    ++meta.erase_count;
    OpStatus status = OpStatus::kOk;
    if (errors_.SampleWearOut(rng_, meta.erase_count)) {
        meta.bad = true;
        ++stats_.blocks_gone_bad;
        status = OpStatus::kWornOut;
    } else {
        meta.state = BlockState::kErased;
        meta.next_page = 0;
        meta.rber_boost = 1.0;  // Injected RBER elevation clears on erase.
        const PageAddr base{addr.plane, addr.block, 0};
        const uint64_t first = FlatPageIndex(geo_, base);
        for (uint32_t p = 0; p < geo_.pages_per_block; ++p) {
            corrupted_.erase(first + p);
            if (store_payloads_) data_.erase(first + p);
        }
    }

    ++stats_.erases;

    Transfer *cmd = nullptr;
    const util::TimeNs cmd_done =
        BookBackground(TransferKind::kEraseCmd, addr.plane, sim_.Now(),
                       timing_.bus_cmd_overhead, nullptr, "cmd", &cmd);
    const util::TimeNs erase_done = PlaneRes(addr.plane).SubmitAfter(
        cmd_done, timing_.erase_block,
        [done = std::move(done), status]() {
            if (done) done(status);
        });
    const size_t trace_event =
        trace_ != nullptr ? TraceOp(plane_tracks_[addr.plane], "tBERS",
                                    erase_done, timing_.erase_block)
                          : obs::TraceSink::kDropped;
    if (cmd != nullptr) {
        cmd->erase_end = erase_done;
        cmd->erase_trace = trace_event;
    }
}

bool
Channel::Busy() const
{
    if (std::max(background_free_, on_demand_free_) > sim_.Now()) return true;
    for (const auto &p : planes_)
        if (p->Busy()) return true;
    return false;
}

}  // namespace sdf::nand
