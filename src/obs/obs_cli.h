/**
 * @file
 * Observability CLI flags shared by every binary that runs a simulation:
 * the bench suite, sdfsim, and the examples. Header-only so a binary only
 * pays for it when it links nothing else from obs.
 *
 * Flags: --stats-json=<path>, --trace=<path>, --trace-limit=<n>,
 * --stats-series=<path> and --series-interval-ms=<f>.
 * When any export is requested the helper owns an obs::Hub ready to
 * install on a Simulator (before device construction); otherwise hub()
 * stays null and the run is unchanged. Workloads with a time axis call
 * StartSeries(sim, label, horizon) once their load phase begins; the call
 * is inert unless --stats-series was given.
 */
#ifndef SDF_OBS_OBS_CLI_H
#define SDF_OBS_OBS_CLI_H

#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>

#include "obs/hub.h"
#include "obs/series.h"
#include "sim/simulator.h"
#include "util/units.h"

namespace sdf::obs {

/** Parses the obs flags and performs the end-of-run exports. */
class ObsCli
{
  public:
    /**
     * One --key=value pair; @return true when it was an obs flag. A bad
     * value throws std::invalid_argument naming the flag.
     */
    bool
    TryFlag(const std::string &key, const std::string &val)
    {
        if (key == "--stats-json") stats_json_ = val;
        else if (key == "--trace") trace_path_ = val;
        else if (key == "--trace-limit") {
            const long long n = util::ParseWhole(
                key, val, [](const std::string &s, size_t *used) {
                    return std::stoll(s, used);
                });
            if (n < 0) {
                throw std::invalid_argument(key + " must not be negative");
            }
            trace_limit_ = static_cast<size_t>(n);
        }
        else if (key == "--stats-series") series_path_ = val;
        else if (key == "--series-interval-ms") {
            const double ms = util::ParseWhole(
                key, val, [](const std::string &s, size_t *used) {
                    return std::stod(s, used);
                });
            // At least 1 ns and inside the clock's range; NaN fails both.
            const double ns = ms * util::kNsPerMs;
            if (!(ns >= 1 && util::FitsClock(ns))) {
                throw std::invalid_argument(
                    key + " must be 1 ns or more and fit the clock");
            }
            series_interval_ = util::MsToNs(ms);
        }
        else return false;
        return true;
    }

    /** Consume recognised "--key=value" args, compacting argv in place. */
    void
    ParseAndStrip(int &argc, char **argv)
    {
        int out = 1;
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            const auto eq = arg.find('=');
            const std::string key = arg.substr(0, eq);
            const std::string val =
                eq == std::string::npos ? "" : arg.substr(eq + 1);
            if (!TryFlag(key, val)) argv[out++] = argv[i];
        }
        argc = out;
    }

    bool
    enabled() const
    {
        return !stats_json_.empty() || !trace_path_.empty() ||
               !series_path_.empty();
    }

    /** The hub to install with sim.set_hub(), or null when disabled. */
    obs::Hub *
    hub()
    {
        if (!enabled()) return nullptr;
        if (!hub_) {
            hub_ = std::make_unique<obs::Hub>();
            if (!trace_path_.empty()) hub_->EnableTrace(trace_limit_);
            // Registered whether or not tracing is on (it reads 0 when
            // off) so a --trace run exports the same stats document as a
            // run without it.
            obs::Hub *h = hub_.get();
            h->metrics().RegisterCounter("obs.trace.dropped", [h]() {
                return h->trace() != nullptr ? h->trace()->dropped() : 0;
            });
        }
        return hub_.get();
    }

    /**
     * Begin the windowed time series for the load phase starting now and
     * lasting @p horizon. No-op unless --stats-series was requested. Safe
     * to call once per run in a multi-run bench; each call opens a new
     * labelled segment in the exported document.
     */
    void
    StartSeries(sim::Simulator &sim, const std::string &label,
                util::TimeNs horizon)
    {
        if (series_path_.empty()) return;
        series_.Start(sim, hub()->metrics(), label, series_interval_,
                      horizon);
    }

    void AddMeta(const std::string &k, const std::string &v) { meta_[k] = v; }
    void AddDerived(const std::string &k, double v) { derived_[k] = v; }

    /** Write the requested files. @return 0 on success. */
    int
    Export()
    {
        if (!enabled()) return 0;
        int rc = 0;
        obs::Hub &h = *hub();
        if (!stats_json_.empty() &&
            !obs::WriteFile(stats_json_, obs::StatsJson(h, meta_, derived_))) {
            std::fprintf(stderr, "cannot write %s\n", stats_json_.c_str());
            rc = 1;
        }
        if (!trace_path_.empty()) {
            if (!h.trace()->WriteJson(trace_path_)) {
                std::fprintf(stderr, "cannot write %s\n", trace_path_.c_str());
                rc = 1;
            } else if (h.trace()->dropped() > 0) {
                std::fprintf(stderr,
                             "trace: dropped %llu events past the "
                             "--trace-limit cap\n",
                             static_cast<unsigned long long>(
                                 h.trace()->dropped()));
            }
        }
        if (!series_path_.empty() && !series_.WriteJson(series_path_)) {
            std::fprintf(stderr, "cannot write %s\n", series_path_.c_str());
            rc = 1;
        }
        return rc;
    }

    static const char *
    HelpText()
    {
        return "observability:\n"
               "  --stats-json=<file>  export metrics+stage stats as JSON\n"
               "  --trace=<file>       Perfetto/chrome://tracing JSON trace\n"
               "  --trace-limit=<n>    trace event cap (default 1048576);\n"
               "                       overflow is counted, not silent\n"
               "  --stats-series=<file>      windowed time-series JSON\n"
               "  --series-interval-ms=<f>   window width (default 50 ms)\n";
    }

  private:
    std::string stats_json_;
    std::string trace_path_;
    size_t trace_limit_ = obs::TraceSink::kDefaultMaxEvents;
    std::string series_path_;
    util::TimeNs series_interval_ = util::MsToNs(50.0);
    obs::SeriesRecorder series_;
    std::unique_ptr<obs::Hub> hub_;
    obs::MetaMap meta_;
    obs::DerivedMap derived_;
};

/**
 * Process-wide ObsCli. main() calls ParseAndStrip(argc, argv) on it, every
 * Simulator creation site calls BindObs(sim), and main() ends with
 * GlobalObs().Export(). With no obs flags on the command line all of it
 * is inert.
 */
inline ObsCli &
GlobalObs()
{
    static ObsCli cli;
    return cli;
}

/** Install the global hub (when exports were requested) on @p sim. */
inline void
BindObs(sim::Simulator &sim)
{
    if (obs::Hub *hub = GlobalObs().hub()) sim.set_hub(hub);
}

}  // namespace sdf::obs

#endif  // SDF_OBS_OBS_CLI_H
