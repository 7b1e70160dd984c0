/**
 * @file
 * The observability hub: one object bundling the metrics registry, the
 * per-request stage collector, and the (optional) trace sink.
 *
 * A hub is installed on the Simulator (`sim.set_hub(&hub)`) *before* the
 * components are constructed; every layer already holds a `Simulator &`,
 * so each component self-registers its metrics from its constructor and
 * unregisters in its destructor — no constructor signature in the stack
 * changes. With no hub installed (the default) every check is a null
 * pointer test and the system behaves exactly as before.
 */
#ifndef SDF_OBS_HUB_H
#define SDF_OBS_HUB_H

#include <map>
#include <memory>
#include <string>

#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/trace.h"

namespace sdf::obs {

/** Per-run observability state shared by every layer. */
class Hub
{
  public:
    Hub() = default;
    Hub(const Hub &) = delete;
    Hub &operator=(const Hub &) = delete;

    MetricsRegistry &metrics() { return metrics_; }
    const MetricsRegistry &metrics() const { return metrics_; }

    StageCollector &stages() { return stages_; }
    const StageCollector &stages() const { return stages_; }

    /** Null unless EnableTrace() was called (tracing is opt-in: volume). */
    TraceSink *trace() { return trace_.get(); }
    const TraceSink *trace() const { return trace_.get(); }

    /** Turn on trace collection (idempotent). */
    TraceSink &
    EnableTrace(size_t max_events = TraceSink::kDefaultMaxEvents)
    {
        if (!trace_) trace_ = std::make_unique<TraceSink>(max_events);
        return *trace_;
    }

  private:
    MetricsRegistry metrics_;
    StageCollector stages_;
    std::unique_ptr<TraceSink> trace_;
};

// ---------------------------------------------------------------------------
// Structured exporters. Output is deterministic: keys are sorted, numbers
// are printed with fixed formats, and all values derive from the simulated
// clock — two same-seed runs produce byte-identical files.
// ---------------------------------------------------------------------------

/** Free-form run description ("device" -> "sdf", ...), emitted verbatim. */
using MetaMap = std::map<std::string, std::string>;
/** Derived numeric results ("result.mbps" -> 1542.3, ...). */
using DerivedMap = std::map<std::string, double>;

/** Render the full stats document (meta + counters + stages) as JSON. */
std::string StatsJson(const Hub &hub, const MetaMap &meta,
                      const DerivedMap &derived);

/** Write @p content to @p path. @return false on I/O error. */
bool WriteFile(const std::string &path, const std::string &content);

}  // namespace sdf::obs

#endif  // SDF_OBS_HUB_H
