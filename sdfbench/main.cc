/**
 * @file
 * sdfbench: one benchmark for the SDF stack.
 *
 *   sdfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *
 * Repeats the workload on the same seed until --seconds of wall time are
 * used (at least twice), checks that every repetition reproduces the same
 * simulated-clock results, and prints a human-readable report followed by
 * one JSON line: {"correct", "attempted", "failed", "metrics"}. --trace 0
 * reports the end-to-end metrics; --trace 1 also runs decorated (traced)
 * repetitions and reports the per-layer metrics instead.
 */
#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "measure.h"
#include "workloads.h"

namespace sdfbench {
namespace {

struct MetricDef
{
    const char *name;
    const char *unit;
};

/** End-to-end metrics, every workload (keep in sync with BENCHMARK.json). */
constexpr MetricDef kEndToEnd[] = {
    {"get_p50_ms", "ms"}, {"get_p99_ms", "ms"},   {"put_p99_ms", "ms"},
    {"write_mbps", "MB/s"}, {"peak_rss_mb", "MB"}, {"setup_s", "s"},
};

/** Per-layer metrics. "e2e.<x>" are workload-specific end-to-end results
 *  (simulated clock), reported here because not every workload has them. */
constexpr MetricDef kPerLayer[] = {
    {"e2e.get_p999_ms", "ms"},
    {"e2e.slo_miss_ratio", "ratio"},
    {"e2e.max_rate_at_slo", "1/s"},
    {"e2e.stale_read_ratio", "ratio"},
    {"e2e.lost_acked_writes", "count"},
    {"e2e.audit_stale_keys", "count"},
    {"e2e.recovery_ms", "ms"},
    {"e2e.rebalance_ms", "ms"},
    {"e2e.rung_40k.goodput_ops_per_s", "1/s"},
    {"e2e.rung_100k.goodput_ops_per_s", "1/s"},
    {"e2e.rung_140k.goodput_ops_per_s", "1/s"},
    {"e2e.rung_150k.goodput_ops_per_s", "1/s"},
    {"e2e.rung_160k.goodput_ops_per_s", "1/s"},
    {"e2e.rung_170k.goodput_ops_per_s", "1/s"},
    {"e2e.rung_200k.goodput_ops_per_s", "1/s"},
    {"e2e.rung_240k.goodput_ops_per_s", "1/s"},
    {"e2e.rung_40k.fail_ratio", "ratio"},
    {"e2e.rung_100k.fail_ratio", "ratio"},
    {"e2e.rung_140k.fail_ratio", "ratio"},
    {"e2e.rung_150k.fail_ratio", "ratio"},
    {"e2e.rung_160k.fail_ratio", "ratio"},
    {"e2e.rung_170k.fail_ratio", "ratio"},
    {"e2e.rung_200k.fail_ratio", "ratio"},
    {"e2e.rung_240k.fail_ratio", "ratio"},
    {"sim.ops_per_wall_s", "1/s"},
    {"sim.peak_rss_mb", "MB"},
    {"sim.events_per_op", "count"},
    {"sim.events_per_wall_s", "1/s"},
    {"sim.trace_overhead_ops_per_wall_s", "1/s"},
    {"sim.other.wall_self_ns_per_op", "ns"},
    {"workload.wall_self_ns_per_op", "ns"},
    {"client.coalesce_ratio", "ratio"},
    {"client.queued_ratio", "ratio"},
    {"client.hedge.launch_ratio", "ratio"},
    {"client.hedge.win_ratio", "ratio"},
    {"client.shed_ratio", "ratio"},
    {"client.wall_self_ns_per_op", "ns"},
    {"cluster.path.get.client_queue_us", "us"},
    {"cluster.path.get.rpc_wire_us", "us"},
    {"cluster.path.get.admission_us", "us"},
    {"cluster.path.get.server_handle_us", "us"},
    {"cluster.path.get.storage_us", "us"},
    {"cluster.path.get.hedge_wait_us", "us"},
    {"cluster.admission.shed_ratio", "ratio"},
    {"cluster.admission.peak_inflight", "count"},
    {"cluster.degraded_read_ratio", "ratio"},
    {"cluster.node_get_imbalance", "ratio"},
    {"cluster.recovery.wal_records", "count"},
    {"cluster.recovery.patches_scanned", "count"},
    {"cluster.rebalance.keys_moved", "count"},
    {"cluster.rebalance.bytes_moved", "B"},
    {"cluster.under_replicated_keys", "count"},
    {"net.messages_per_op", "count"},
    {"net.bytes_per_op", "B"},
    {"net.rpc.timeouts", "count"},
    {"net.rpc.retries", "count"},
    {"net.rpc.deadline_drops", "count"},
    {"kv.memtable_hit_ratio", "ratio"},
    {"kv.device_reads_per_get", "count"},
    {"kv.write_amp", "ratio"},
    {"kv.compaction_read_per_user_byte", "ratio"},
    {"kv.put_stalls", "count"},
    {"kv.get_retries", "count"},
    {"kv.self.sim_p99_us", "us"},
    {"kv.get_span.sim_mean_us", "us"},
    {"kv.self.get_sim_mean_us", "us"},
    {"kv.wall_self_ns_per_op", "ns"},
    {"blocklayer.queue_wait.sim_p99_us", "us"},
    {"blocklayer.self.get_sim_mean_us", "us"},
    {"blocklayer.inline_erases", "count"},
    {"blocklayer.background_erases", "count"},
    {"blocklayer.failed_ops", "count"},
    {"blocklayer.channel_load_max", "count"},
    {"blocklayer.wall_self_ns_per_op", "ns"},
    {"sdf.read.sim_p50_us", "us"},
    {"sdf.read.sim_p99_us", "us"},
    {"sdf.write_unit.sim_p99_ms", "ms"},
    {"sdf.erase.sim_p99_ms", "ms"},
    {"sdf.programmed_bytes", "B"},
    {"sdf.page_reads_per_op", "count"},
    {"sdf.read_retries", "count"},
    {"sdf.self.get_sim_mean_us", "us"},
    {"sdf.wall_self_ns_per_op", "ns"},
    {"trace.get_attribution_residual_ns", "ns"},
};

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
};

bool
ParseArgs(int argc, char **argv, Args &a)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i];
        const char *v = argv[i + 1];
        if (k == "--workload") {
            a.workload = v;
        } else if (k == "--seed") {
            a.seed = std::strtoull(v, nullptr, 10);
        } else if (k == "--seconds") {
            a.seconds = std::strtod(v, nullptr);
        } else if (k == "--trace") {
            a.trace = std::strcmp(v, "0") != 0;
        } else {
            return false;
        }
    }
    return !a.workload.empty() && argc % 2 == 1;
}

double
Median(std::vector<double> v)
{
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

std::string
Fingerprint(const std::map<std::string, double> &m)
{
    std::string out;
    for (const auto &[k, v] : m) out += k + "=" + Fmt("%.17g", v) + ";";
    return out;
}

double
Rate(const RepResult &r)
{
    return r.measured_wall_s > 0
               ? static_cast<double>(r.ops) / r.measured_wall_s
               : 0.0;
}

int
Main(int argc, char **argv)
{
    Args args;
    if (!ParseArgs(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: sdfbench --workload <ycsb_b_zipf|ycsb_a_restart|"
                     "ccdb_write_compaction> --seed <n> --seconds <s> "
                     "--trace <0|1>\n");
        return 2;
    }
    std::function<RepResult(uint64_t, bool)> run;
    if (args.workload == "ycsb_b_zipf") {
        run = RunYcsbBZipf;
    } else if (args.workload == "ycsb_a_restart") {
        run = RunYcsbARestart;
    } else if (args.workload == "ccdb_write_compaction") {
        run = RunCcdbWriteCompaction;
    } else {
        std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
        return 2;
    }

    // A fixed mmap threshold: glibc's dynamic one moves with the order of
    // large frees, which makes peak RSS wander between seeds.
    mallopt(M_MMAP_THRESHOLD, 256 * 1024);

    // Repeat on the same seed until the time is used; never start a
    // repetition that would overrun it, and stop well inside 180 s.
    std::vector<RepResult> plain, traced;
    Stopwatch total;
    double peak_rss_mb = 0;
    for (;;) {
        plain.push_back(run(args.seed, false));
        // Peak memory of the first repetition; later ones only add
        // allocator noise (a repetition frees everything it built).
        if (plain.size() == 1) peak_rss_mb = PeakRssMb();
        if (args.trace) traced.push_back(run(args.seed, true));
        const double used = total.Seconds();
        const double per = used / static_cast<double>(plain.size());
        if (plain.size() >= 2 && used + per > args.seconds) break;
        if (used + per > 150) break;
    }

    std::vector<std::string> errors;
    uint64_t attempted = 0, failed = 0;
    const std::string fp = Fingerprint(plain.front().sim);
    for (const auto *reps : {&plain, &traced}) {
        for (const RepResult &r : *reps) {
            attempted += r.attempted;
            failed += r.failed;
            for (const std::string &e : r.errors) errors.push_back(e);
            if (Fingerprint(r.sim) != fp) {
                errors.push_back(reps == &plain
                                     ? "simulated results differ between "
                                       "repetitions on one seed"
                                     : "traced and untraced simulated "
                                       "results differ");
            }
        }
    }

    std::vector<double> setups, rates, traced_rates, events_rates;
    for (const RepResult &r : plain) {
        setups.insert(setups.end(), r.setup_s.begin(), r.setup_s.end());
        rates.push_back(Rate(r));
        events_rates.push_back(static_cast<double>(r.events) /
                               r.measured_wall_s);
    }
    for (const RepResult &r : traced) traced_rates.push_back(Rate(r));

    const RepResult &first = args.trace ? traced.front() : plain.front();
    std::printf("== sdfbench %s, seed %llu, %zu repetition(s)%s ==\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), plain.size(),
                args.trace ? " untraced + traced" : "");
    std::fputs(first.report.c_str(), stdout);
    std::printf("ops per wall-second, by repetition:");
    for (double v : rates) std::printf(" %.0f", v);
    std::printf("\nsetup seconds:");
    for (double v : setups) std::printf(" %.4f", v);
    std::printf("\n");

    std::map<std::string, std::pair<double, std::string>> out;
    if (!args.trace) {
        for (const MetricDef &m : kEndToEnd) {
            double v = 0;
            if (std::strcmp(m.name, "peak_rss_mb") == 0) {
                v = plain.front().peak_rss_mb;
            } else if (std::strcmp(m.name, "setup_s") == 0) {
                v = Median(setups);
            } else if (auto it = first.sim.find(m.name);
                       it != first.sim.end()) {
                v = it->second;
            } else {
                errors.push_back(std::string("missing metric ") + m.name);
            }
            out[m.name] = {v, m.unit};
        }
    } else {
        std::map<std::string, double> layer = first.layer;
        // Wall-clock layer numbers: median over the traced repetitions.
        for (auto &[name, v] : layer) {
            if (name.find("wall_self_ns_per_op") == std::string::npos)
                continue;
            std::vector<double> vs;
            for (const RepResult &r : traced) vs.push_back(r.layer.at(name));
            v = Median(vs);
        }
        layer["sim.events_per_op"] =
            first.ops > 0 ? static_cast<double>(first.events) /
                                static_cast<double>(first.ops)
                          : 0.0;
        layer["sim.ops_per_wall_s"] = Median(rates);
        layer["sim.peak_rss_mb"] = peak_rss_mb;
        layer["sim.events_per_wall_s"] = Median(events_rates);
        layer["sim.trace_overhead_ops_per_wall_s"] =
            Median(rates) - Median(traced_rates);
        for (const MetricDef &m : kPerLayer) {
            double v = 0;
            if (std::strncmp(m.name, "e2e.", 4) == 0) {
                auto it = first.sim.find(m.name + 4);
                if (it != first.sim.end()) v = it->second;
            } else if (auto it = layer.find(m.name); it != layer.end()) {
                v = it->second;
            }
            out[m.name] = {v, m.unit};
        }
        std::printf("untraced %.0f ops/wall-s, traced %.0f ops/wall-s\n",
                    Median(rates), Median(traced_rates));
    }

    std::printf("-- metrics --\n");
    for (const auto &[name, vu] : out) {
        auto b = first.base.find(name);
        std::printf("%-40s %16.6g %-6s %s\n", name.c_str(), vu.first,
                    vu.second.c_str(),
                    b != first.base.end() ? b->second.c_str() : "");
    }
    for (const std::string &e : errors) {
        std::printf("INCORRECT: %s\n", e.c_str());
    }

    std::string json = "{\"correct\": ";
    json += errors.empty() ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    bool sep = false;
    for (const auto &[name, vu] : out) {
        if (sep) json += ", ";
        sep = true;
        json += "\"" + name + "\": {\"value\": " + Fmt("%.17g", vu.first) +
                ", \"unit\": \"" + vu.second + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
}

}  // namespace
}  // namespace sdfbench

int
main(int argc, char **argv)
{
    return sdfbench::Main(argc, argv);
}
