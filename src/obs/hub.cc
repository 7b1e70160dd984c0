#include "obs/hub.h"

#include <cstdio>

namespace sdf::obs {

namespace {

/** Minimal JSON string escaping (quotes, backslashes, control chars). */
std::string
JsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

/**
 * Fixed-format double rendering so same-seed runs are byte-identical.
 * %.9g round-trips every value the simulator produces (ns-derived means)
 * without locale dependence.
 */
std::string
Num(double v)
{
    char buf[48];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    return buf;
}

std::string
Num(uint64_t v)
{
    return std::to_string(v);
}

std::string
Num(int64_t v)
{
    return std::to_string(v);
}

/** Emit `"key":value` pairs of @p map as one JSON object into @p out. */
template <typename Map, typename Fn>
void
JsonObject(std::string &out, const Map &map, Fn &&value)
{
    out += "{";
    bool first = true;
    for (const auto &[k, v] : map) {
        if (!first) out += ",";
        first = false;
        out += "\n    \"" + JsonEscape(k) + "\": " + value(v);
    }
    out += first ? "}" : "\n  }";
}

void
AppendHistogramStats(std::string &out, const HistogramStats &h)
{
    out += "{\"count\": " + Num(h.count);
    out += ", \"min\": " + Num(h.min);
    out += ", \"max\": " + Num(h.max);
    out += ", \"mean\": " + Num(h.mean);
    out += ", \"p50\": " + Num(h.p50);
    out += ", \"p99\": " + Num(h.p99);
    out += ", \"p999\": " + Num(h.p999);
    out += "}";
}

}  // namespace

std::string
StatsJson(const Hub &hub, const MetaMap &meta, const DerivedMap &derived)
{
    const MetricsRegistry::Snapshot snap = hub.metrics().Take();
    std::string out;
    out.reserve(4096);
    out += "{\n  \"meta\": ";
    JsonObject(out, meta, [](const std::string &v) {
        return "\"" + JsonEscape(v) + "\"";
    });
    out += ",\n  \"derived\": ";
    JsonObject(out, derived, [](double v) { return Num(v); });
    out += ",\n  \"counters\": ";
    JsonObject(out, snap.counters, [](uint64_t v) { return Num(v); });
    out += ",\n  \"gauges\": ";
    JsonObject(out, snap.gauges, [](double v) { return Num(v); });
    out += ",\n  \"histograms\": ";
    JsonObject(out, snap.histograms, [](const HistogramStats &h) {
        std::string s;
        AppendHistogramStats(s, h);
        return s;
    });

    // Per-request stage attribution. Stages with zero accumulated time are
    // omitted; the emitted means still sum to end_to_end_ns_mean exactly
    // because spans tile the request lifetime (see span.h).
    out += ",\n  \"stages\": {";
    bool first_op = true;
    for (const auto &[op, s] : hub.stages().ops()) {
        if (!first_op) out += ",";
        first_op = false;
        out += "\n    \"" + JsonEscape(op) + "\": {";
        out += "\n      \"count\": " + Num(s.count);
        out += ",\n      \"end_to_end_ns_mean\": " + Num(s.TotalMeanNs());
        const util::Histogram &h = s.end_to_end.histogram();
        out += ",\n      \"end_to_end_ns_p50\": " + Num(h.Percentile(50.0));
        out += ",\n      \"end_to_end_ns_p99\": " + Num(h.Percentile(99.0));
        out += ",\n      \"end_to_end_ns_max\": " +
               Num(static_cast<int64_t>(h.max()));
        out += ",\n      \"stage_ns_mean\": {";
        bool first_stage = true;
        for (size_t i = 0; i < kStageCount; ++i) {
            if (s.stage_sum_ns[i] == 0) continue;
            if (!first_stage) out += ",";
            first_stage = false;
            out += "\n        \"";
            out += StageName(static_cast<Stage>(i));
            out += "\": " + Num(s.StageMeanNs(static_cast<Stage>(i)));
        }
        out += first_stage ? "}" : "\n      }";
        out += "\n    }";
    }
    out += first_op ? "}" : "\n  }";
    out += "\n}\n";
    return out;
}

bool
WriteFile(const std::string &path, const std::string &content)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) return false;
    const size_t n = std::fwrite(content.data(), 1, content.size(), f);
    const bool closed = std::fclose(f) == 0;
    return n == content.size() && closed;
}

}  // namespace sdf::obs
