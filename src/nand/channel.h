/**
 * @file
 * One NAND flash channel: a shared command/data bus serving the planes of
 * the dies attached to it.
 *
 * Timing model:
 *  - Read:    plane array read (tR), then bus transfer out (pipelines with
 *             other planes' array reads).
 *  - Program: bus transfer in to the plane's cache register, then plane
 *             program (tPROG); bus frees as soon as the data is latched,
 *             so four planes pipeline. The two steps can be booked apart
 *             (StagePage, ProgramStaged), so a page waits in the register
 *             while the plane finishes its previous program.
 *  - Suspend: an on-demand read senses ahead of the page program on
 *             its plane when that program is the plane's only booked
 *             work. A running program is suspended (a fixed suspend
 *             latency before the sense, a resume latency after it) and
 *             completes later by the plane time the read took, unless it
 *             ends within the suspend latency; a program not yet started
 *             simply starts after the read.
 *  - Erase:   short bus command, then plane busy for tBERS.
 *  - Bus:     one transfer at a time, booked when the operation is
 *             submitted. An on-demand read's page data-out goes before
 *             every background transfer that has not started yet
 *             (data-ins, erase commands, background data-outs);
 *             on-demand data-outs are FIFO among themselves. Background
 *             transfers keep their booking order, and none starts if it
 *             would still hold the bus when a booked on-demand read's
 *             sense ends (the reservation). A
 *             transfer pushed back moves its completion and trace event;
 *             a data-in delays its page program, and an erase command its
 *             erase, only once the slack before it runs out. A transfer
 *             whose plane work is not the last booked on its plane, or a
 *             stall, is not moved: the read waits behind it and what was
 *             booked before it. With no on-demand read the bus is plain
 *             FIFO, so ConventionalSsd and background-only traffic keep
 *             the same timing.
 *
 * Events: only completions someone waits on are events. A sense, a
 * data-in, an erase command and a stall have none; their ends only raise
 * the clock's horizon (sim::Simulator). Each plane's completions wait in
 * its FifoResource's queue and the bus's data-outs in two queues
 * (on-demand, background), each holding one engine event for its head,
 * so a channel with a whole unit of pages booked holds a handful of
 * pending events, not one per page.
 *
 * State machine: blocks must be erased before programming, and pages within
 * a block must be programmed sequentially (real NAND constraint that the
 * SDF interface design leans on). Violations complete with an error status.
 */
#ifndef SDF_NAND_CHANNEL_H
#define SDF_NAND_CHANNEL_H

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "nand/error_model.h"
#include "nand/geometry.h"
#include "nand/timing.h"
#include "nand/types.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "sim/fifo_resource.h"
#include "sim/simulator.h"
#include "util/ring.h"
#include "util/rng.h"

namespace sdf::nand {

/** Lifecycle state of an erase block. */
enum class BlockState : uint8_t
{
    kErased,  ///< Ready for programming from page 0.
    kOpen,    ///< Partially programmed; next_page is the write pointer.
    kFull,    ///< All pages programmed; must be erased before reuse.
};

/** Per-block bookkeeping kept by the channel. */
struct BlockMeta
{
    BlockState state = BlockState::kErased;
    uint32_t next_page = 0;
    uint32_t erase_count = 0;
    bool bad = false;
    /** RBER multiplier for this block (fault injection; reset on erase). */
    double rber_boost = 1.0;
};

/** Cumulative operation counters for one channel. */
struct ChannelStats
{
    uint64_t reads = 0;
    uint64_t programs = 0;
    uint64_t erases = 0;
    uint64_t read_bytes = 0;
    uint64_t programmed_bytes = 0;
    uint64_t corrected_bit_errors = 0;
    uint64_t uncorrectable_reads = 0;
    uint64_t blocks_gone_bad = 0;
    uint64_t retry_reads = 0;        ///< Reads issued at retry level > 0.
    uint64_t transient_errors = 0;   ///< Injected link-CRC read failures.
};

/**
 * A page staged by Channel::StagePage: its data-in is booked into the
 * plane's cache register, its program is not booked yet.
 */
struct StagedPage
{
    uint32_t plane = 0;
    uint64_t data_in = 0;      ///< Booking number of its data-in.
    util::TimeNs latched = 0;  ///< Its data-in's end when booked.
    uint64_t senses = 0;       ///< Array reads booked on the plane by then.
};

/** What booking one page read did (Channel::ReadPage). */
struct ReadOutcome
{
    /** It suspended the page program on its plane. */
    bool suspended = false;
    /** Its data-out goes ahead of a background transfer booked before it. */
    bool overtook = false;
    /** From its sense end to the start of its data-out (on-demand only). */
    util::TimeNs bus_wait = 0;
};

/** One flash channel with its dies, planes, bus, and block state. */
class Channel
{
  public:
    /**
     * @param sim Shared simulator.
     * @param geo Full device geometry (channel uses the per-channel parts).
     * @param timing Channel timing spec.
     * @param errors Reliability model (disabled by default).
     * @param rng Channel-private RNG stream.
     * @param store_payloads When true, programmed page contents are kept
     *     and returned by reads (needed for data-integrity tests; benches
     *     run timing-only with this off).
     * @param ecc_correctable_bits ECC correction budget per page.
     */
    Channel(sim::Simulator &sim, const Geometry &geo, const TimingSpec &timing,
            const ErrorModel &errors, util::Rng rng, bool store_payloads,
            uint32_t ecc_correctable_bits);

    Channel(const Channel &) = delete;
    Channel &operator=(const Channel &) = delete;

    /**
     * Read one page. If @p out is non-null and payload storage is enabled,
     * the stored payload is copied into it (erased pages read as 0xFF).
     *
     * @p retry_level models the controller's read-retry voltage ladder:
     * each level above 0 re-senses the page and widens the effective ECC
     * correction budget by `kRetryExtraBits` (channel.cc), at the cost of
     * another full array read. Level 0 is a normal read.
     *
     * @p span, when non-null, receives fine-grained stage milestones
     * (queue / flash_op / channel_bus / bch_decode for level 0; the whole
     * rung is attributed to `retry` for levels above 0). The channel can
     * mark known-future milestones because it books the plane and the bus
     * at submit time. A suspend latency counts as queue. An on-demand
     * read's data-out never moves once booked; a background read's span
     * keeps the booking's milestones if an on-demand read pushes it back.
     *
     * An @p on_demand read (a client waits on it) does not wait for a
     * page program that is the plane's only booked work. If the program
     * is running, the read suspends it: it senses `kSuspendLatency`
     * (channel.cc) from now and the program resumes `kResumeLatency`
     * after the sense, so its completion moves later by the plane time
     * the read took. A running program that ends within
     * `kSuspendLatency` is not suspended; the read waits for it. A read
     * arriving while the program is suspended senses after the reads
     * already ahead of it and pays no second suspend. A program still
     * waiting for its data-in starts after the read. On the bus its
     * data-out goes ahead of background transfers (see the file comment).
     * A background read is FIFO on the plane and in booking order on the
     * bus.
     */
    ReadOutcome ReadPage(const PageAddr &addr, OpCallback &&done,
                         std::vector<uint8_t> *out = nullptr,
                         uint32_t retry_level = 0,
                         obs::IoSpan *span = nullptr, bool on_demand = false);

    /**
     * Program one page: StagePage() and ProgramStaged() back to back.
     * @p payload may be null (timing-only mode); when payload storage is
     * enabled a null payload stores a zero page.
     */
    void ProgramPage(const PageAddr &addr, OpCallback done,
                     const uint8_t *payload = nullptr);

    /**
     * First step of a program: validate @p addr, commit the block's write
     * pointer and @p payload, count the program, and book the page's
     * data-in over the bus into its plane's cache register. Returns kOk
     * and fills @p staged, or the error with nothing booked.
     */
    OpStatus StagePage(const PageAddr &addr, const uint8_t *payload,
                       StagedPage *staged);

    /**
     * Second step: book tPROG for @p staged on its plane once the data is
     * in (which an on-demand read may have pushed back since staging);
     * @p done fires with kOk when the program completes. A read booked on
     * the plane since staging used the register, so the data-in goes over
     * the bus again first (the controller still holds the data). The
     * caller checks dead() first. @return true if the data-in was sent
     * again.
     */
    bool ProgramStaged(const StagedPage &staged, OpCallback &&done);

    /** Erase one block. */
    void EraseBlock(const BlockAddr &addr, OpCallback done);

    /** Mark a block bad (factory defects, FTL decisions). */
    void MarkBad(const BlockAddr &addr);

    // ---- fault-injection hooks (driven by sdf::fault::FaultInjector) ----

    /**
     * Kill the channel: every subsequent operation completes immediately
     * with kChannelDead. Models controller/chip death; irreversible.
     */
    void InjectDeath() { dead_ = true; }

    /** True once InjectDeath() has been called. */
    bool dead() const { return dead_; }

    /**
     * Stall the channel for @p duration: the bus and every plane are
     * occupied with dummy work, delaying all queued and future operations
     * (models firmware hiccups / chip-level retries blocking the bus).
     */
    void InjectStall(util::TimeNs duration);

    /**
     * Latent corruption of one page: reads of it fail uncorrectably at
     * every retry level until the containing block is erased. Models
     * retention loss / program disturb beyond any read-retry voltage.
     */
    void CorruptPage(const PageAddr &addr);

    /**
     * For @p duration from now, each read additionally fails with
     * probability @p probability (transient link CRC errors; a plain
     * re-read at any retry level can succeed).
     */
    void InjectTransientErrors(util::TimeNs duration, double probability);

    /** Multiply @p addr's RBER by @p factor (sticky until erase). */
    void ElevateRber(const BlockAddr &addr, double factor);

    /**
     * Instantly mark @p pages pages of @p addr as programmed, bypassing
     * timing and payload storage. Simulation backdoor used only to
     * precondition devices before experiments (the paper's "almost full
     * at the beginning" setup); never called on the data path.
     */
    void DebugSetProgrammed(const BlockAddr &addr, uint32_t pages);

    /** Block metadata (valid address required). */
    const BlockMeta &block_meta(const BlockAddr &addr) const;

    const ChannelStats &stats() const { return stats_; }
    const Geometry &geometry() const { return geo_; }
    const TimingSpec &timing() const { return timing_; }

    /**
     * Attach a trace sink: registers one track for the channel bus
     * ("<name>.bus") and one per plane ("<name>.pK") under process
     * "flash", then emits an event for every array read/program/erase and
     * bus transfer. @p name must be unique per channel in the sink, or two
     * channels' events land on one track.
     */
    void EnableTrace(obs::TraceSink *sink, const std::string &name);

    /** Bus utilization in [0,1] over [0, now]. */
    double
    BusUtilization() const
    {
        const util::TimeNs now = sim_.Now();
        if (now <= 0) return 0.0;
        return std::min(1.0, static_cast<double>(bus_busy_) /
                                 static_cast<double>(now));
    }

    /** Accumulated bus service time (utilization numerator). */
    util::TimeNs bus_busy_ns() const { return bus_busy_; }

    /** True if any plane or the bus has outstanding work. */
    bool Busy() const;

  private:
    /**
     * The page program on one plane that a suspending read may slot
     * ahead of: the last program booked there while no earlier tracked
     * program was pending. It can be suspended while it is the plane's
     * only booked work (the plane frees when it ends).
     */
    struct PlaneProgram
    {
        uint64_t id = 0;          ///< Generation on this plane; 0 = none.
        util::TimeNs hold = 0;    ///< Work ahead of it holds the plane.
        util::TimeNs resume = 0;  ///< It (re)starts running here.
        util::TimeNs end = 0;     ///< It completes here.
        bool suspended = false;   ///< A read has suspended it.
        size_t trace_event = obs::TraceSink::kDropped;  ///< Last tPROG cut.
    };

    /** What a background bus transfer carries. */
    enum class TransferKind : uint8_t
    {
        kDataIn,    ///< A page into its plane's cache register.
        kEraseCmd,  ///< An erase command; tBERS follows on its plane.
        kReadOut,   ///< A background read's data-out.
        kStall,     ///< Injected dummy work; never moves.
    };

    /** A background transfer booked on the bus that has not started. */
    struct Transfer
    {
        uint64_t number = 0;  ///< Booking order among background transfers.
        TransferKind kind = TransferKind::kStall;
        uint32_t plane = 0;   ///< A data-in's or erase command's plane.
        util::TimeNs ready = 0;  ///< It cannot start earlier.
        util::TimeNs start = 0;
        util::TimeNs dur = 0;
        /** A data-out's completion in background_done_; 0 = none. */
        uint64_t job = 0;
        size_t trace_event = obs::TraceSink::kDropped;
        /**
         * A data-in's program, once booked: the tracked program's id, or
         * kUntracked; 0 while none is booked.
         */
        uint64_t program = 0;
        /**
         * An erase command's tBERS, once booked: its end (0 before) and
         * trace event. Its completion is its plane's last booked item.
         */
        util::TimeNs erase_end = 0;
        size_t erase_trace = obs::TraceSink::kDropped;

        util::TimeNs end() const { return start + dur; }
    };

    /** The data-in into one plane that started last. */
    struct Latch
    {
        uint64_t data_in = 0;  ///< Its booking number; 0 = none.
        util::TimeNs end = 0;  ///< When it is latched.
    };
    static constexpr uint64_t kUntracked = UINT64_MAX;

    bool ValidBlock(const BlockAddr &a) const;
    bool ValidPage(const PageAddr &a) const;
    BlockMeta &Meta(const BlockAddr &a);
    sim::FifoResource &PlaneRes(uint32_t plane) { return *planes_[plane]; }

    /**
     * Book one page's data-in into @p plane's cache register on the bus;
     * @return when it is latched. @p pending gets the queued transfer, or
     * null if it started at once.
     */
    util::TimeNs DataIn(uint32_t plane, Transfer **pending);

    /** Queued transfer number @p number, or null if it has started. */
    Transfer *Queued(uint64_t number);

    /**
     * Book a background transfer of @p dur on the bus, ready at @p ready:
     * after every background transfer booked before it and clear of the
     * booked on-demand reads' reservations. Books @p done (only the
     * clock's horizon if null) at its end and traces it as @p name.
     * @p pending, if given, gets the queued transfer, or null if it
     * started at once; the pointer holds until the next booking.
     * @return its end.
     */
    util::TimeNs BookBackground(TransferKind kind, uint32_t plane,
                                util::TimeNs ready, util::TimeNs dur,
                                sim::Callback &&done, const char *name,
                                Transfer **pending = nullptr);

    /**
     * Book an on-demand read's data-out of @p dur, ready at @p sensed:
     * after the on-demand data-outs booked before it and the transfers
     * that cannot move, ahead of every other background transfer that
     * would still hold the bus at @p sensed (they move back, in booking
     * order). Fills @p outcome's bus fields. @return its end.
     */
    util::TimeNs BookOnDemand(util::TimeNs sensed, util::TimeNs dur,
                              sim::Callback &&done, ReadOutcome *outcome);

    /** Drop started transfers and elapsed reservations. */
    void PruneBus();

    /**
     * The earliest start at or after @p t for a background transfer of
     * @p dur that overlaps no reservation.
     */
    util::TimeNs Place(util::TimeNs t, util::TimeNs dur) const;

    /** True if an on-demand read may push queued transfer @p x back. */
    bool Movable(const Transfer &x) const;

    /**
     * Move queued transfer @p x to @p start and what waits on it: its
     * completion, or the clock's horizon if it has none.
     */
    void Move(Transfer &x, util::TimeNs start);

    /**
     * Book a suspending read's sense on @p plane ahead of the tracked
     * program there, which must be the plane's only booked work (see
     * ReadPage), and move the program's end. @return when the sense ends.
     * Sets @p suspended if the read suspended the running program.
     */
    util::TimeNs SenseAheadOfProgram(uint32_t plane, bool *suspended);

    /**
     * Completion of program @p id on @p plane: fire @p done, or wait
     * again if reads have moved the program's end past now.
     */
    void FinishProgram(uint32_t plane, uint64_t id, OpCallback &&done);

    /**
     * The data-in the tracked program on @p plane waits for is now
     * latched at @p latched: start the program no earlier.
     */
    void SlipProgram(uint32_t plane, util::TimeNs latched);

    /** Deliver @p status via @p done at bus/plane completion time @p when. */
    void CompleteAt(util::TimeNs when, OpCallback done, OpStatus status);

    /**
     * Emit a trace event on @p track if tracing is attached. @return its
     * index in the sink (TraceSink::kDropped if none).
     */
    size_t
    TraceOp(int32_t track, const char *name, util::TimeNs end,
            util::TimeNs dur) const
    {
        if (trace_ == nullptr) return obs::TraceSink::kDropped;
        return trace_->Complete(track, name, end - dur, dur);
    }

    sim::Simulator &sim_;
    Geometry geo_;
    TimingSpec timing_;
    ErrorModel errors_;
    util::Rng rng_;
    bool store_payloads_;
    uint32_t ecc_correctable_bits_;

    // The bus. Its data-outs' completions wait in two queues, each in
    // (end, sequence) order with one engine event: on-demand data-outs
    // never move, and background ones move back only in booking order.
    sim::JobQueue on_demand_done_;
    sim::JobQueue background_done_;
    util::Ring<Transfer> queued_;  ///< Background, not started; in order.
    /** Reservations: on-demand reads' [sense end, data-out end), FIFO. */
    std::deque<std::pair<util::TimeNs, util::TimeNs>> reserved_;
    uint64_t next_transfer_ = 1;     ///< Next background booking number.
    util::TimeNs background_free_ = 0;  ///< End of the last background one.
    util::TimeNs started_end_ = 0;   ///< End of the last one started.
    util::TimeNs on_demand_free_ = 0;  ///< End of the last on-demand one.
    util::TimeNs bus_busy_ = 0;      ///< Accumulated transfer time.

    std::vector<std::unique_ptr<sim::FifoResource>> planes_;
    std::vector<uint64_t> plane_senses_;  ///< Array reads booked per plane.
    std::vector<PlaneProgram> programs_;  ///< Per plane.
    std::vector<Latch> latches_;          ///< Per plane.
    std::vector<BlockMeta> blocks_;  ///< Indexed by FlatBlockIndex.
    std::unordered_map<uint64_t, std::vector<uint8_t>> data_;
    std::unordered_set<uint64_t> corrupted_;  ///< Flat indices of bad pages.
    bool dead_ = false;
    util::TimeNs transient_until_ = 0;
    double transient_prob_ = 0.0;
    ChannelStats stats_;

    obs::TraceSink *trace_ = nullptr;          ///< Owned by the Hub.
    int32_t bus_track_ = -1;
    std::vector<int32_t> plane_tracks_;        ///< One per plane.
};

}  // namespace sdf::nand

#endif  // SDF_NAND_CHANNEL_H
