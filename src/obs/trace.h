/**
 * @file
 * Chrome-trace-event / Perfetto-compatible trace sink.
 *
 * Events are recorded on the *simulated* clock and dumped as the JSON
 * object format (`{"traceEvents": [...]}`) that `chrome://tracing` and
 * ui.perfetto.dev load directly. Tracks map onto the trace model as
 * process ("flash", "host") / thread ("ch07.bus", "ch07.p2", "req.ch07")
 * pairs with `process_name`/`thread_name` metadata, so a 44-channel run
 * shows one lane per channel resource: erase stalls, bus convoys, and the
 * read/write overlap the paper's Figure 8 explains become visible.
 *
 * Event names must be string literals (or otherwise outlive the sink);
 * the sink stores the pointer, not a copy. A configurable cap bounds
 * memory; events beyond it are counted as dropped rather than recorded.
 */
#ifndef SDF_OBS_TRACE_H
#define SDF_OBS_TRACE_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/units.h"

namespace sdf::obs {

using util::TimeNs;

/** Buffering trace-event sink; write-once at end of run. */
class TraceSink
{
  public:
    static constexpr size_t kDefaultMaxEvents = 1u << 20;

    explicit TraceSink(size_t max_events = kDefaultMaxEvents)
        : max_events_(max_events)
    {
    }

    TraceSink(const TraceSink &) = delete;
    TraceSink &operator=(const TraceSink &) = delete;

    /**
     * Create (or look up) the track named @p process / @p thread and return
     * its handle. Tracks are cheap; register one per channel resource.
     */
    int32_t RegisterTrack(const std::string &process,
                          const std::string &thread);

    struct Track
    {
        std::string process;
        std::string thread;
        uint32_t pid;
        uint32_t tid;
    };

    struct Event
    {
        const char *name;
        TimeNs start;
        TimeNs dur;
        int32_t track;
        uint64_t trace_id;  ///< Distributed-request id; 0 = untagged.
    };

    /** Complete()'s return for an event the cap dropped. */
    static constexpr size_t kDropped = SIZE_MAX;

    /**
     * Record a complete ("X") event of @p dur starting at @p start. A
     * nonzero @p trace_id tags the event with its distributed request
     * (exported as `args.trace`), linking e.g. a hedge duplicate on one
     * node's track to its parent on the client track.
     * @return the event's index for Retime(), or kDropped.
     */
    size_t
    Complete(int32_t track, const char *name, TimeNs start, TimeNs dur,
             uint64_t trace_id = 0)
    {
        if (events_.size() >= max_events_) {
            ++dropped_;
            return kDropped;
        }
        events_.push_back(Event{name, start, dur, track, trace_id});
        return events_.size() - 1;
    }

    /**
     * Move a recorded event (an index Complete() returned) to
     * [@p start, @p start + @p dur): a booked operation that was cut or
     * pushed later. kDropped is ignored.
     */
    void
    Retime(size_t event, TimeNs start, TimeNs dur)
    {
        if (event == kDropped) return;
        events_[event].start = start;
        events_[event].dur = dur;
    }

    /** Serialize all events to @p path. @return false on I/O error. */
    bool WriteJson(const std::string &path) const;

    /** Serialize to a string (tests, in-memory validation). */
    std::string ToJson() const;

    size_t events() const { return events_.size(); }
    size_t tracks() const { return tracks_.size(); }
    uint64_t dropped() const { return dropped_; }

    /** Recorded events in order (tests: trace-id linkage assertions). */
    const std::vector<Event> &event_list() const { return events_; }

    /** Track metadata for a handle returned by RegisterTrack. */
    const Track &
    track_info(int32_t track) const
    {
        return tracks_[static_cast<size_t>(track)];
    }

  private:
    std::vector<Track> tracks_;
    std::map<std::string, uint32_t> pids_;           ///< process -> pid.
    std::map<std::string, int32_t> track_by_name_;   ///< "proc/thread" -> idx.
    std::vector<Event> events_;
    size_t max_events_;
    uint64_t dropped_ = 0;
};

}  // namespace sdf::obs

#endif  // SDF_OBS_TRACE_H
