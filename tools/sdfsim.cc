/**
 * @file
 * sdfsim — command-line driver for ad-hoc experiments on the simulated
 * devices, without writing C++.
 *
 * Examples:
 *   sdfsim --device=sdf --workload=seqread --request=8m --duration=2
 *   sdfsim --device=huawei --workload=randread --request=8k --qd=64
 *   sdfsim --device=sdf --workload=write --channels=16
 *   sdfsim --device=intel --workload=randwrite --request=4k --op=0.07
 *   sdfsim --device=sdf --workload=kvread --slices=8 --batch=44
 *   sdfsim --device=sdf --workload=kvwrite --slices=16
 *
 * Run with --help for the full flag list.
 */
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_common.h"
#include "client/kv_client.h"
#include "cluster/cluster.h"
#include "cluster/rebalancer.h"
#include "fault_common.h"
#include "util/table_printer.h"
#include "workload/ycsb.h"

namespace sdf {
namespace {

struct Options
{
    std::string device = "sdf";      // sdf | huawei | intel | memblaze
    std::string workload = "seqread";
    uint64_t request = 8 * util::kMiB;
    uint32_t channels = 44;          // SDF sync threads.
    uint32_t qd = 64;                // Conventional async queue depth.
    double duration = 2.0;
    double warmup = 0.5;
    double scale = 0.04;
    std::optional<double> op_ratio;  // Unset: device default.
    uint32_t slices = 8;             // KV workloads.
    uint32_t batch = 44;
    uint32_t value_kib = 512;
    bool value_explicit = false;     // --value was passed on the command line.
    uint64_t seed = 42;
    bool wear_report = false;

    // Error model overrides (apply to the sdf device; unset keeps defaults).
    bool errors = false;             // Enable the NAND error model.
    std::optional<double> rber;      // Base raw bit-error rate.
    std::optional<double> wear_factor;  // RBER multiplier at rated endurance.
    std::optional<uint32_t> endurance;     // Rated P/E cycles.
    std::optional<uint32_t> ecc_bits;      // ECC correction budget per page.
    std::optional<uint32_t> retry_levels;  // Read-retry ladder depth.

    // Fault-campaign workload (--workload=faults).
    std::string fault_plan;          // Plan file; empty = random from seed.
    bool print_plan = false;         // Print the random plan and exit.
    uint32_t faults = 120;
    uint32_t replicas = 3;
    uint32_t keys = 300;
    uint32_t reads = 1500;

    // Cluster modes (--workload=cluster|overload|ycsb).
    uint32_t nodes = 4;
    uint32_t replication = 2;
    double read_fraction = 0.9;
    int64_t kill_node = -1;          // >=0: kill that node's device mid-run.
    int64_t restart_node = -1;       // >=0: stop + restart that node mid-run.
    bool rebalance = false;          // Heal placement after --kill-node.
    double arrival_rate = 50000.0;   // Open-loop arrivals/sec.
    double storm = 2.0;              // Arrival multiplier in the storm window.
    int64_t fail_slow_node = -1;     // >=0: that node serves slower mid-run.
    double fail_slow_factor = 4.0;   // Service-time multiplier for it.
    bool hedge = true;               // Hedged reads at the client.
    uint32_t window = 64;            // Client outstanding ops per node.
    uint32_t coalesce = 8;           // Max reads per batched RPC.
    double deadline_ms = 5.0;        // Per-op deadline and SLO; 0 = none.
    uint32_t queue_cap = 256;        // Client pending queue per node.
    uint32_t admission_cap = 128;    // Server inflight cap per node.
    bool breaker = true;             // Fail-slow circuit breaker.

    // YCSB workload (--workload=ycsb).
    std::string profile = "b";       // a|b|c|e|storm|diurnal.
    double theta = 0.99;             // Zipfian exponent.
    uint32_t scan_limit = 50;        // Max keys per range scan.

    // Observability exports (--stats-json/--trace/--stats-series).
    sdf::obs::ObsCli obs;
};

void
PrintHelp()
{
    std::puts(
        "sdfsim — drive the SDF-reproduction devices from the command line\n"
        "\n"
        "  --device=sdf|huawei|intel|memblaze   device model (default sdf);\n"
        "                       kv and cluster modes take sdf|huawei|intel,\n"
        "                       faults and --kill-node sdf only\n"
        "  --workload=seqread|randread|write|randwrite|kvread|kvwrite|scan\n"
        "             |faults|cluster|overload|ycsb\n"
        "  --request=<n>[k|m]   request size, whole device pages (default "
        "8m;\n"
        "                       sdf reads: at most one 8 MiB unit)\n"
        "  --channels=<n>       SDF sync threads, 1-44 (default 44)\n"
        "  --qd=<n>             conventional-device queue depth (default 64)\n"
        "  --duration=<sec>     measurement window (default 2.0)\n"
        "  --warmup=<sec>       warmup before measuring (default 0.5)\n"
        "  --scale=<f>          device capacity scale, in (0, 1] (default "
        "0.04)\n"
        "  --op=<f>             over-provisioning ratio in [0, 1) "
        "(conventional only)\n"
        "  --slices=<n>         CCDB slices for kv workloads (default 8);\n"
        "                       kvwrite exits 1 if any flush fails\n"
        "  --batch=<n>          kvread batch size (default 44)\n"
        "  --value=<KiB>        kv value size in KiB (default 512)\n"
        "  --seed=<n>           RNG seed (default 42)\n"
        "  --wear               print the device wear report afterwards\n"
        "\n"
        "error model (sdf device):\n"
        "  --errors             enable the NAND error model\n"
        "  --rber=<f>           base raw bit-error rate, in [0, 1]\n"
        "  --wear-factor=<f>    RBER multiplier at rated endurance, >= 0\n"
        "  --endurance=<n>      rated P/E cycles, >= 1\n"
        "  --ecc-bits=<n>       ECC correction budget per page\n"
        "  --retry-levels=<n>   read-retry ladder depth\n"
        "\n"
        "fault campaign (--workload=faults), on a cluster whose every node\n"
        "holds every key; the fault window lasts --duration:\n"
        "  --fault-plan=<file>  replay a saved fault plan (else random)\n"
        "  --print-plan         print the random plan a run would use, and\n"
        "                       exit (save it, edit it, replay it)\n"
        "  --faults=<n>         random faults to inject (default 120)\n"
        "  --replicas=<n>       nodes = replicas per key (default 3)\n"
        "  --keys=<n>           keys preloaded via the router (default 300)\n"
        "  --reads=<n>          mean reads over the fault window, beside\n"
        "                       200 fresh-key inserts (default 1500)\n"
        "\n"
        "cluster modes (--workload=cluster|overload|ycsb) share one path:\n"
        "build, preload via the router, disrupt, run the load engine, audit\n"
        "every acked write (exit 1 on any loss), export.\n"
        "  cluster   8 closed-loop clients through the router, uniform\n"
        "            reads + fresh-key inserts, 64 KiB values\n"
        "  overload  open-loop arrivals through the async client, three\n"
        "            equal phases with the middle one at --storm x the rate\n"
        "  ycsb      a named YCSB profile through the async client\n"
        "  --nodes=<n>          storage nodes (default 4)\n"
        "  --replication=<r>    replicas per key, 1..nodes (default 2)\n"
        "  --keys=<n>           keys preloaded via the router (default 300)\n"
        "  --read-frac=<f>      cluster/overload read fraction; the rest are\n"
        "                       inserts (default 0.9)\n"
        "  --arrival-rate=<f>   open-loop arrivals/sec, at most 1e9\n"
        "                       (default 50000)\n"
        "  --storm=<f>          overload: middle-third arrival multiplier\n"
        "                       (default 2.0; 1.0 = no storm)\n"
        "  --admission-cap=<n>  server inflight cap per node (default 128)\n"
        "  --no-breaker         disable the fail-slow circuit breaker\n"
        "\n"
        "disruptions over the load window T (every cluster mode):\n"
        "  --kill-node=<id>     kill that node's device at T/2 (degraded "
        "mode)\n"
        "  --rebalance          with --kill-node: declare the node dead at\n"
        "                       0.6T and run anti-entropy\n"
        "  --restart-node=<id>  stop that node's process at T/3 and restart\n"
        "                       it at 2T/3 (recovery scan + rebalance)\n"
        "  --fail-slow-node=<n> that node serves slower for the middle third\n"
        "  --fail-slow-factor=<f>  its service-time multiplier, 1-1000\n"
        "                       (default 4)\n"
        "\n"
        "async client (overload, ycsb):\n"
        "  --hedge / --no-hedge    hedged reads at the client (default on)\n"
        "  --window=<n>         client outstanding ops per node (default 64)\n"
        "  --coalesce=<n>       max reads per batched RPC (default 8)\n"
        "  --deadline-ms=<f>    per-op deadline and SLO, 0 = none (default 5)\n"
        "  --queue-cap=<n>      client pending queue per node (default 256)\n"
        "\n"
        "ycsb (--workload=ycsb):\n"
        "  --profile=a|b|c|e|storm|diurnal   op mix + phase schedule:\n"
        "                       a 50/50 read/update Zipfian, b 95/5,\n"
        "                       c read-only, e 95% scans / 5% inserts,\n"
        "                       storm flash-crowd spike on a hot range,\n"
        "                       diurnal rate ramp + evening write shift\n"
        "  --theta=<f>          Zipfian exponent (default 0.99)\n"
        "  --scan-limit=<n>     max keys per range scan (default 50)\n"
        "\n");
    std::puts(obs::ObsCli::HelpText());
    std::puts(
        "example:\n"
        "  sdfsim --device=sdf --workload=write \\\n"
        "      --stats-json=out.json --trace=out.trace.json\n"
        "  # out.json: counters, per-stage latency means, p99s\n"
        "  # out.trace.json: open in https://ui.perfetto.dev\n");
}

/** A byte count with one optional k (KiB) or m (MiB) suffix. */
uint64_t
ParseSize(const std::string &key, const std::string &val)
{
    return util::ParseWhole(key, val, [](const std::string &s, size_t *n) {
        const double v = std::stod(s, n);
        double unit = 1;
        if (*n < s.size() && (s[*n] == 'k' || s[*n] == 'K')) {
            unit = static_cast<double>(util::kKiB);
            ++*n;
        } else if (*n < s.size() && (s[*n] == 'm' || s[*n] == 'M')) {
            unit = static_cast<double>(util::kMiB);
            ++*n;
        }
        // 2^64: the first byte count a uint64_t cannot hold.
        if (!(v >= 0 && v * unit < 18446744073709551616.0)) {
            throw std::invalid_argument(s);
        }
        return static_cast<uint64_t>(v * unit);
    });
}

/** A finite double; NaN and infinity are rejected like junk. */
double
ToF64(const std::string &key, const std::string &val)
{
    return util::ParseWhole(key, val, [](const std::string &s, size_t *n) {
        const double v = std::stod(s, n);
        if (!std::isfinite(v)) throw std::invalid_argument(s);
        return v;
    });
}

int64_t
ToI64(const std::string &key, const std::string &val)
{
    return util::ParseWhole(key, val, [](const std::string &s, size_t *n) {
        return static_cast<int64_t>(std::stoll(s, n));
    });
}

uint64_t
ToU64(const std::string &key, const std::string &val)
{
    return util::ParseWhole(key, val, [](const std::string &s, size_t *n) {
        // stoull takes "-1" as 2^64-1; an unsigned flag takes no sign.
        if (s.find('-') != std::string::npos) throw std::invalid_argument(s);
        return static_cast<uint64_t>(std::stoull(s, n));
    });
}

uint32_t
ToU32(const std::string &key, const std::string &val)
{
    const uint64_t v = ToU64(key, val);
    if (v > UINT32_MAX) {
        throw std::invalid_argument(key + ": bad value '" + val + "'");
    }
    return static_cast<uint32_t>(v);
}

/** The conventional SSD model --device names (Intel 320 for "intel"). */
ssd::ConventionalSsdConfig
ConventionalConfig(const Options &opt)
{
    ssd::ConventionalSsdConfig cfg =
        opt.device == "huawei"     ? ssd::HuaweiGen3Config(opt.scale)
        : opt.device == "memblaze" ? ssd::MemblazeQ520Config(opt.scale)
                                   : ssd::Intel320Config(opt.scale);
    if (opt.op_ratio) cfg.op_ratio = *opt.op_ratio;
    return cfg;
}

/** The modes that run a cluster (RunClusterWorkload). */
bool
IsClusterMode(const std::string &workload)
{
    return workload == "cluster" || workload == "overload" ||
           workload == "ycsb";
}

/** The modes that run one KV testbed (RunKv). */
bool
IsKvMode(const std::string &workload)
{
    return workload.rfind("kv", 0) == 0 || workload == "scan";
}

/**
 * The KV-stack backend a --device name runs on, or none when the device
 * has no KV stack (memblaze runs in the raw device modes only).
 */
std::optional<testbed::Backend>
BackendFor(const std::string &device)
{
    if (device == "sdf") return testbed::Backend::kBaiduSdf;
    if (device == "huawei") return testbed::Backend::kHuaweiGen3;
    if (device == "intel") return testbed::Backend::kIntel320;
    return std::nullopt;
}

/** Reject values the workloads cannot run with. @return an error or "". */
std::string
Validate(const Options &opt)
{
    if (opt.device != "sdf" && opt.device != "huawei" &&
        opt.device != "intel" && opt.device != "memblaze") {
        return "--device=" + opt.device +
               ": unknown device (sdf|huawei|intel|memblaze)";
    }
    const bool cluster_mode = IsClusterMode(opt.workload);
    if ((cluster_mode || IsKvMode(opt.workload)) && !BackendFor(opt.device)) {
        return "--device=" + opt.device + ": no KV stack for --workload=" +
               opt.workload + " (sdf|huawei|intel)";
    }
    // The campaign and --kill-node fail SDF channels; a conventional SSD
    // hides its channels behind its FTL.
    if (opt.workload == "faults" && opt.device != "sdf") {
        return "--workload=faults injects SDF device faults; --device=" +
               opt.device + " has none";
    }
    if (cluster_mode && opt.kill_node >= 0 && opt.device != "sdf") {
        return "--kill-node kills SDF channels; --device=" + opt.device +
               " exposes none";
    }
    if (!workload::IsYcsbProfile(opt.profile)) {
        return "--profile=" + opt.profile +
               ": unknown profile (a|b|c|e|storm|diurnal)";
    }
    const uint32_t max_channels = nand::BaiduSdfGeometry().channels;
    if (opt.channels == 0 || opt.channels > max_channels) {
        return "--channels must be in 1.." + std::to_string(max_channels);
    }
    if (opt.request == 0) return "--request must be positive";
    const double duration_ns = opt.duration * util::kNsPerSec;
    if (!(duration_ns > 0 && util::FitsClock(duration_ns))) {
        return "--duration must be positive and fit the clock";
    }
    if (!(opt.warmup >= 0 &&
          util::FitsClock((opt.warmup + opt.duration) * util::kNsPerSec))) {
        return "--warmup must not be negative, and --warmup plus "
               "--duration must fit the clock";
    }
    if (!(opt.scale > 0 && opt.scale <= 1)) {
        return "--scale must be in (0, 1]";
    }
    if (opt.op_ratio && !(*opt.op_ratio >= 0 && *opt.op_ratio < 1)) {
        return "--op must be in [0, 1)";
    }
    if (opt.rber && !(*opt.rber >= 0 && *opt.rber <= 1)) {
        return "--rber must be in [0, 1]";
    }
    if (opt.wear_factor && *opt.wear_factor < 0) {
        return "--wear-factor must not be negative";
    }
    // The rated cycles divide the erase count in the RBER's wear term.
    if (opt.endurance && *opt.endurance < 1) {
        return "--endurance must be at least 1";
    }
    // The raw device modes issue --request as is: an SDF read covers whole
    // pages of one unit, a conventional request whole pages.
    const bool raw_read =
        opt.workload == "seqread" || opt.workload == "randread";
    const bool raw = raw_read || opt.workload == "write" ||
                     opt.workload == "randwrite";
    if (raw_read && opt.device == "sdf") {
        const nand::Geometry geo = nand::BaiduSdfGeometry();
        const uint64_t unit =
            uint64_t{geo.PlanesPerChannel()} * geo.BlockBytes();
        if (opt.request % geo.page_size != 0 || opt.request > unit) {
            return "--request must be a multiple of " +
                   std::to_string(geo.page_size / util::kKiB) +
                   "k up to " + std::to_string(unit / util::kMiB) +
                   "m for sdf reads";
        }
    } else if (raw && opt.device != "sdf") {
        const uint32_t page = ConventionalConfig(opt).flash.geometry.page_size;
        if (opt.request % page != 0) {
            return "--request must be a multiple of " +
                   std::to_string(page / util::kKiB) + "k on " + opt.device;
        }
    }
    if (opt.slices == 0) return "--slices must be at least 1";
    if (opt.replicas == 0) return "--replicas must be at least 1";
    if (opt.keys == 0) return "--keys must be at least 1";
    // At most one arrival per ns in the mean: the clock's resolution.
    if (!(opt.arrival_rate > 0 && opt.arrival_rate <= 1e9)) {
        return "--arrival-rate must be in (0, 1e9]";
    }
    if (opt.scan_limit == 0) return "--scan-limit must be at least 1";
    if (opt.nodes == 0) return "--nodes must be at least 1";
    if (opt.replication == 0 || opt.replication > opt.nodes) {
        return "--replication must be in 1..nodes";
    }
    if (!(opt.read_fraction >= 0 && opt.read_fraction <= 1)) {
        return "--read-frac must be in [0, 1]";
    }
    if (opt.qd == 0) return "--qd must be at least 1";
    if (opt.batch == 0) return "--batch must be at least 1";
    if (opt.window == 0) return "--window must be at least 1";
    if (opt.coalesce == 0) return "--coalesce must be at least 1";
    if (!(opt.storm > 0)) return "--storm must be positive";
    if (!(opt.theta > 0)) return "--theta must be positive";
    if (!util::FitsClock(opt.deadline_ms * util::kNsPerMs)) {
        return "--deadline-ms must not be negative and must fit the clock";
    }
    if (!fault::ValidFailSlowFactor(opt.fail_slow_factor)) {
        return "--fail-slow-factor must be in [1, 1000]";
    }
    // Taking the only node out of the ring leaves the router nothing to
    // route to: every op is rejected at once, and closed-loop clients
    // re-issue at the same instant forever. (Open-loop arrivals still
    // advance the clock, so those modes run a one-node restart.)
    if (opt.rebalance && opt.nodes < 2) {
        return "--rebalance needs --nodes of at least 2";
    }
    if (opt.workload == "cluster" && opt.restart_node >= 0 && opt.nodes < 2) {
        return "--restart-node needs --nodes of at least 2 in "
               "--workload=cluster";
    }
    return "";
}

bool
ParseArgs(int argc, char **argv, Options &opt)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto eq = arg.find('=');
        const std::string key = arg.substr(0, eq);
        const std::string val =
            eq == std::string::npos ? "" : arg.substr(eq + 1);
        if (key == "--help" || key == "-h") {
            PrintHelp();
            return false;
        } else if (key == "--device") {
            opt.device = val;
        } else if (key == "--workload") {
            opt.workload = val;
        } else if (key == "--request") {
            opt.request = ParseSize(key, val);
        } else if (key == "--channels") {
            opt.channels = ToU32(key, val);
        } else if (key == "--qd") {
            opt.qd = ToU32(key, val);
        } else if (key == "--duration") {
            opt.duration = ToF64(key, val);
        } else if (key == "--warmup") {
            opt.warmup = ToF64(key, val);
        } else if (key == "--scale") {
            opt.scale = ToF64(key, val);
        } else if (key == "--op") {
            opt.op_ratio = ToF64(key, val);
        } else if (key == "--slices") {
            opt.slices = ToU32(key, val);
        } else if (key == "--batch") {
            opt.batch = ToU32(key, val);
        } else if (key == "--value") {
            opt.value_kib = ToU32(key, val);
            opt.value_explicit = true;
        } else if (key == "--seed") {
            opt.seed = ToU64(key, val);
        } else if (key == "--wear") {
            opt.wear_report = true;
        } else if (key == "--errors") {
            opt.errors = true;
        } else if (key == "--rber") {
            opt.rber = ToF64(key, val);
            opt.errors = true;
        } else if (key == "--wear-factor") {
            opt.wear_factor = ToF64(key, val);
            opt.errors = true;
        } else if (key == "--endurance") {
            opt.endurance = ToU32(key, val);
            opt.errors = true;
        } else if (key == "--ecc-bits") {
            opt.ecc_bits = ToU32(key, val);
        } else if (key == "--retry-levels") {
            opt.retry_levels = ToU32(key, val);
        } else if (key == "--fault-plan") {
            opt.fault_plan = val;
        } else if (key == "--print-plan") {
            opt.print_plan = true;
        } else if (key == "--faults") {
            opt.faults = ToU32(key, val);
        } else if (key == "--replicas") {
            opt.replicas = ToU32(key, val);
        } else if (key == "--keys") {
            opt.keys = ToU32(key, val);
        } else if (key == "--reads") {
            opt.reads = ToU32(key, val);
        } else if (key == "--nodes") {
            opt.nodes = ToU32(key, val);
        } else if (key == "--replication") {
            opt.replication = ToU32(key, val);
        } else if (key == "--read-frac") {
            opt.read_fraction = ToF64(key, val);
        } else if (key == "--kill-node") {
            opt.kill_node = ToI64(key, val);
        } else if (key == "--restart-node") {
            opt.restart_node = ToI64(key, val);
        } else if (key == "--rebalance") {
            opt.rebalance = true;
        } else if (key == "--arrival-rate") {
            opt.arrival_rate = ToF64(key, val);
        } else if (key == "--storm") {
            opt.storm = ToF64(key, val);
        } else if (key == "--fail-slow-node") {
            opt.fail_slow_node = ToI64(key, val);
        } else if (key == "--fail-slow-factor") {
            opt.fail_slow_factor = ToF64(key, val);
        } else if (key == "--hedge") {
            opt.hedge = true;
        } else if (key == "--no-hedge") {
            opt.hedge = false;
        } else if (key == "--window") {
            opt.window = ToU32(key, val);
        } else if (key == "--coalesce") {
            opt.coalesce = ToU32(key, val);
        } else if (key == "--deadline-ms") {
            opt.deadline_ms = ToF64(key, val);
        } else if (key == "--queue-cap") {
            opt.queue_cap = ToU32(key, val);
        } else if (key == "--admission-cap") {
            opt.admission_cap = ToU32(key, val);
        } else if (key == "--no-breaker") {
            opt.breaker = false;
        } else if (key == "--profile") {
            opt.profile = val;
        } else if (key == "--theta") {
            opt.theta = ToF64(key, val);
        } else if (key == "--scan-limit") {
            opt.scan_limit = ToU32(key, val);
        } else if (!opt.obs.TryFlag(key, val)) {
            std::fprintf(stderr, "unknown flag: %s (try --help)\n",
                         key.c_str());
            return false;
        }
    }
    if (const std::string err = Validate(opt); !err.empty()) {
        std::fprintf(stderr, "%s\n", err.c_str());
        return false;
    }
    return true;
}

/** Apply the --errors/--rber/... overrides to an sdf device config. */
void
ApplyErrorOverrides(core::SdfConfig &cfg, const Options &opt)
{
    if (opt.errors) cfg.flash.errors.enabled = true;
    if (opt.rber) cfg.flash.errors.base_rber = *opt.rber;
    if (opt.wear_factor) cfg.flash.errors.wear_rber_factor = *opt.wear_factor;
    if (opt.endurance) cfg.flash.errors.endurance_cycles = *opt.endurance;
    if (opt.ecc_bits) cfg.flash.ecc_correctable_bits = *opt.ecc_bits;
    if (opt.retry_levels) cfg.read_retry_levels = *opt.retry_levels;
}

/** Meta keys every workload shares. */
void
AddCommonMeta(Options &opt)
{
    opt.obs.AddMeta("device", opt.device);
    opt.obs.AddMeta("workload", opt.workload);
    opt.obs.AddMeta("seed", std::to_string(opt.seed));
    opt.obs.AddMeta("duration_sec", std::to_string(opt.duration));
    opt.obs.AddMeta("scale", std::to_string(opt.scale));
}

/** Install the (optional) hub and its simulator-core counter. */
void
InstallHub(Options &opt, sim::Simulator &sim)
{
    obs::Hub *hub = opt.obs.hub();
    if (hub == nullptr) return;
    sim.set_hub(hub);
    hub->metrics().RegisterCounter("sim.events_processed", [&sim]() {
        return sim.events_processed();
    });
}

int
RunRawSdf(Options &opt)
{
    sim::Simulator sim;
    InstallHub(opt, sim);
    core::SdfConfig cfg = core::BaiduSdfConfig(opt.scale);
    ApplyErrorOverrides(cfg, opt);
    core::SdfDevice device(sim, cfg);
    host::IoStack stack(sim, host::SdfUserStackSpec());
    workload::PreconditionSdf(device);

    workload::RawRunConfig run;
    run.warmup = util::SecToNs(opt.warmup);
    run.duration = util::SecToNs(opt.duration);
    run.seed = opt.seed;

    workload::RawResult r;
    if (opt.workload == "seqread" || opt.workload == "randread") {
        r = workload::RunSdfReads(sim, device, stack, opt.channels,
                                  opt.request,
                                  opt.workload == "seqread"
                                      ? workload::Pattern::kSequential
                                      : workload::Pattern::kRandom,
                                  run);
    } else if (opt.workload == "write" || opt.workload == "randwrite") {
        r = workload::RunSdfWrites(sim, device, stack, opt.channels, run);
    } else {
        std::fprintf(stderr, "workload %s not supported on sdf\n",
                     opt.workload.c_str());
        return 1;
    }
    std::printf("%s %s x%u: %.1f MB/s, %llu ops",
                "sdf", opt.workload.c_str(), opt.channels, r.mbps,
                static_cast<unsigned long long>(r.operations));
    if (r.latencies.count() > 0) {
        std::printf(", latency mean %.1f ms p99 %.1f ms",
                    r.latencies.MeanMs(), r.latencies.PercentileMs(99));
    }
    std::printf("\n");
    if (opt.wear_report) {
        const auto w = device.GetWearReport();
        std::printf("wear: erase counts %u..%u mean %.2f, retired %llu, "
                    "life used %.4f%%\n",
                    w.min_erase_count, w.max_erase_count, w.mean_erase_count,
                    static_cast<unsigned long long>(w.blocks_retired),
                    100 * w.life_used);
    }
    if (opt.errors) {
        const core::SdfStats &s = device.stats();
        std::printf("errors: %llu retries, %llu recoveries, %llu terminal "
                    "failures, %llu blocks retired\n",
                    static_cast<unsigned long long>(s.read_retries),
                    static_cast<unsigned long long>(s.retry_recoveries),
                    static_cast<unsigned long long>(s.read_failures),
                    static_cast<unsigned long long>(s.blocks_retired));
    }
    AddCommonMeta(opt);
    opt.obs.AddMeta("channels", std::to_string(opt.channels));
    opt.obs.AddMeta("request_bytes", std::to_string(opt.request));
    opt.obs.AddDerived("result.mbps", r.mbps);
    opt.obs.AddDerived("result.operations",
                       static_cast<double>(r.operations));
    if (r.latencies.count() > 0) {
        opt.obs.AddDerived("result.latency_mean_ms", r.latencies.MeanMs());
        opt.obs.AddDerived("result.latency_p99_ms",
                           r.latencies.PercentileMs(99));
    }
    return opt.obs.Export();
}

int
RunFaults(Options &opt)
{
    bench::FaultCampaignConfig cfg;
    cfg.hub = opt.obs.hub();
    cfg.replicas = opt.replicas;
    cfg.fault_count = opt.faults;
    cfg.keys = opt.keys;
    cfg.reads = opt.reads;
    cfg.seed = opt.seed;
    cfg.horizon_sec = opt.duration;
    cfg.capacity_scale = opt.scale;
    cfg.slices_per_replica = opt.slices;
    // Keep the campaign's own 64 KiB value default unless the user asked
    // for a specific size (sdfsim's 512 KiB default serves the bandwidth
    // workloads).
    if (opt.value_explicit) cfg.value_bytes = opt.value_kib * util::kKiB;
    if (opt.rber) cfg.base_rber = *opt.rber;
    if (opt.wear_factor) cfg.wear_rber_factor = *opt.wear_factor;
    if (opt.endurance) cfg.endurance_cycles = *opt.endurance;
    if (opt.ecc_bits) cfg.ecc_bits = *opt.ecc_bits;
    if (opt.retry_levels) cfg.read_retry_levels = *opt.retry_levels;
    if (opt.print_plan) {
        std::fputs(fault::FaultPlan::Random(bench::CampaignFaultSpec(cfg),
                                            bench::CampaignPlanSeed(cfg))
                       .ToText()
                       .c_str(),
                   stdout);
        return 0;
    }
    if (!opt.fault_plan.empty()) {
        std::FILE *f = std::fopen(opt.fault_plan.c_str(), "rb");
        if (f == nullptr) {
            std::fprintf(stderr, "cannot open fault plan %s\n",
                         opt.fault_plan.c_str());
            return 1;
        }
        char buf[4096];
        size_t n;
        while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) {
            cfg.plan_text.append(buf, n);
        }
        std::fclose(f);
    }

    std::printf("== fault campaign: %u-way replication, %s over %.0f ms, "
                "seed %llu ==\n",
                cfg.replicas,
                opt.fault_plan.empty()
                    ? (std::to_string(cfg.fault_count) + " random faults")
                          .c_str()
                    : opt.fault_plan.c_str(),
                cfg.horizon_sec * 1000.0,
                static_cast<unsigned long long>(cfg.seed));
    const bench::FaultCampaignResult r = bench::RunFaultCampaign(cfg);
    if (!r.plan_error.empty()) return 1;  // Parse error already printed.
    bench::PrintFaultCampaignResult(cfg, r);
    AddCommonMeta(opt);
    opt.obs.AddMeta("replicas", std::to_string(cfg.replicas));
    opt.obs.AddDerived("result.availability", r.availability);
    opt.obs.AddDerived("result.keys_lost", static_cast<double>(r.keys_lost));
    opt.obs.AddDerived("result.failovers",
                       static_cast<double>(r.failovers));
    if (const int rc = opt.obs.Export(); rc != 0) return rc;
    return r.keys_lost == 0 && r.requests_completed == r.requests_issued
               ? 0
               : 1;
}

int
RunRawConventional(Options &opt)
{
    const ssd::ConventionalSsdConfig cfg = ConventionalConfig(opt);
    sim::Simulator sim;
    InstallHub(opt, sim);
    ssd::ConventionalSsd device(sim, cfg);
    host::IoStack stack(sim, host::KernelIoStackSpec());

    workload::RawRunConfig run;
    run.warmup = util::SecToNs(opt.warmup);
    run.duration = util::SecToNs(opt.duration);
    run.seed = opt.seed;

    workload::RawResult r;
    if (opt.workload == "seqread" || opt.workload == "randread") {
        device.PreconditionFill(0.95);
        r = workload::RunConvReads(sim, device, stack, opt.qd, opt.request,
                                   opt.workload == "seqread"
                                       ? workload::Pattern::kSequential
                                       : workload::Pattern::kRandom,
                                   run);
    } else if (opt.workload == "write" || opt.workload == "randwrite") {
        if (opt.workload == "randwrite") device.PreconditionFillRandom(1.0);
        r = workload::RunConvWrites(sim, device, stack, opt.qd, opt.request,
                                    opt.workload == "write"
                                        ? workload::Pattern::kSequential
                                        : workload::Pattern::kRandom,
                                    run);
    } else {
        std::fprintf(stderr, "workload %s not supported on %s\n",
                     opt.workload.c_str(), opt.device.c_str());
        return 1;
    }
    std::printf("%s %s qd%u: %.1f MB/s, %llu ops, WA %.2f\n",
                cfg.name.c_str(), opt.workload.c_str(), opt.qd, r.mbps,
                static_cast<unsigned long long>(r.operations),
                device.stats().WriteAmplification());
    AddCommonMeta(opt);
    opt.obs.AddMeta("qd", std::to_string(opt.qd));
    opt.obs.AddMeta("request_bytes", std::to_string(opt.request));
    opt.obs.AddDerived("result.mbps", r.mbps);
    opt.obs.AddDerived("result.operations",
                       static_cast<double>(r.operations));
    opt.obs.AddDerived("result.write_amplification",
                       device.stats().WriteAmplification());
    return opt.obs.Export();
}

/** The cluster every --workload=cluster|overload|ycsb run builds. */
cluster::ClusterConfig
ClusterConfigFor(const Options &opt)
{
    cluster::ClusterConfig cc;
    cc.nodes = opt.nodes;
    cc.replication = opt.replication;
    cc.node.kv.stack.backend = *BackendFor(opt.device);
    cc.node.kv.stack.capacity_scale = opt.scale;
    cc.node.kv.stack.tune_sdf = [&opt](core::SdfConfig &dc) {
        ApplyErrorOverrides(dc, opt);
    };
    cc.node.kv.store.slice_count = opt.slices;
    cc.node.admission_cap = opt.admission_cap;
    cc.breaker.enabled = opt.breaker;
    return cc;
}

/**
 * Schedule the disruption flags over the load window [now, now + T):
 * --fail-slow-node slows one node for the middle third, --kill-node kills
 * every channel of one node's device at T/2 (--rebalance then declares
 * it dead at 0.6T and runs anti-entropy), and --restart-node stops one
 * node's process at T/3 and restarts it at 2T/3. Device faults go through
 * a replayable fault plan held by @p injector.
 * @return false, after a message, when a flag names a missing node.
 */
bool
ScheduleDisruptions(const Options &opt, sim::Simulator &sim,
                    cluster::Cluster &cl,
                    std::unique_ptr<fault::FaultInjector> &injector)
{
    const std::vector<core::SdfDevice *> devices = cl.SdfDevices();
    auto missing = [](const char *flag, int64_t id, size_t count) {
        if (id < static_cast<int64_t>(count)) return false;
        std::fprintf(stderr, "%s=%lld: no such node\n", flag,
                     static_cast<long long>(id));
        return true;
    };
    if (missing("--kill-node", opt.kill_node, devices.size()) ||
        missing("--restart-node", opt.restart_node, cl.node_count()) ||
        missing("--fail-slow-node", opt.fail_slow_node, cl.node_count())) {
        return false;
    }

    const util::TimeNs t0 = sim.Now();
    const util::TimeNs dur = util::SecToNs(opt.duration);
    std::vector<fault::FaultEvent> events;
    if (opt.fail_slow_node >= 0) {
        fault::FaultEvent e;
        e.when = t0 + dur / 3;
        e.kind = fault::FaultKind::kFailSlow;
        e.device = static_cast<uint32_t>(opt.fail_slow_node);
        e.duration = dur / 3;
        e.magnitude = opt.fail_slow_factor;
        events.push_back(e);
    }
    if (opt.kill_node >= 0) {
        const auto victim = static_cast<uint32_t>(opt.kill_node);
        for (uint32_t ch = 0; ch < devices[victim]->channel_count(); ++ch) {
            fault::FaultEvent e;
            e.when = t0 + dur / 2;
            e.kind = fault::FaultKind::kChannelDeath;
            e.device = victim;
            e.channel = ch;
            events.push_back(e);
        }
    }
    if (!events.empty()) {
        // The sink delivers the fail-slow multiplier to the node and
        // restores health when the window ends.
        injector = std::make_unique<fault::FaultInjector>(
            sim, devices, fault::FaultPlan(std::move(events)),
            [&cl](uint32_t node, double m) {
                if (node < cl.node_count()) cl.node(node).SetFailSlow(m);
            });
    }

    if (opt.restart_node >= 0) {
        const auto victim = static_cast<uint32_t>(opt.restart_node);
        sim.ScheduleAt(t0 + dur / 3, [&cl, &sim, victim]() {
            std::printf("t=%.1f ms: stopping node %u\n",
                        static_cast<double>(sim.Now()) / 1e6, victim);
            cl.StopNode(victim);
        });
        sim.ScheduleAt(t0 + 2 * dur / 3, [&cl, &sim, victim]() {
            cl.RestartNode(victim, [&cl, &sim, victim]() {
                std::printf("t=%.1f ms: node %u recovered (%.2f ms) and "
                            "rebalanced\n",
                            static_cast<double>(sim.Now()) / 1e6, victim,
                            static_cast<double>(
                                cl.node(victim).recovery().last_recovery_ns) /
                                1e6);
            });
        });
    }
    if (opt.rebalance && opt.kill_node >= 0) {
        // Shortly after the device died, declare the node gone for good
        // and restore R-way redundancy from the survivors.
        const auto victim = static_cast<uint32_t>(opt.kill_node);
        sim.ScheduleAt(t0 + dur * 6 / 10, [&cl, &sim, victim]() {
            std::printf("t=%.1f ms: node %u declared dead, anti-entropy "
                        "started\n",
                        static_cast<double>(sim.Now()) / 1e6, victim);
            cl.router().MarkNodeDown(victim);
            cl.rebalancer().RunRepairPass();
        });
    }
    return true;
}

/**
 * --workload=cluster|overload|ycsb: build the cluster, preload it through
 * the router, schedule the disruption flags, run the load engine, audit
 * every acked write (plus the preload after a kill or restart), export.
 * The modes differ only in the front door (the router for cluster, the
 * async client for the others), the YcsbConfig (8 closed-loop clients,
 * the three-phase overload storm, a named YCSB profile) and the keys
 * they export. Exits nonzero on any lost ack or under-replicated key.
 */
int
RunClusterWorkload(Options &opt)
{
    const bool closed_loop = opt.workload == "cluster";
    sim::Simulator sim;
    InstallHub(opt, sim);
    cluster::Cluster cl(sim, ClusterConfigFor(opt));

    // Bandwidth-sized values for the closed loop; small ones for the
    // open-loop modes, which are request-rate experiments.
    const uint32_t value_bytes =
        (opt.value_explicit ? opt.value_kib : closed_loop ? 64 : 4) *
        util::kKiB;
    const std::vector<uint64_t> keys = cl.Preload(opt.keys, value_bytes);
    if (keys.size() != opt.keys) {
        std::fprintf(stderr, "preload: only %zu/%u keys acked\n",
                     keys.size(), opt.keys);
        return 1;
    }

    std::unique_ptr<fault::FaultInjector> injector;
    if (!ScheduleDisruptions(opt, sim, cl, injector)) return 1;

    std::unique_ptr<client::KvClient> client;
    if (!closed_loop) {
        client::KvClientConfig kc;
        kc.window_per_node = opt.window;
        kc.queue_cap = opt.queue_cap;
        kc.batch_max = opt.coalesce;
        kc.deadline =
            opt.deadline_ms > 0 ? util::MsToNs(opt.deadline_ms) : 0;
        kc.hedge_reads = opt.hedge;
        client = std::make_unique<client::KvClient>(sim, cl.router(), kc);
    }

    workload::YcsbConfig cfg;
    cfg.arrival_rate = opt.arrival_rate;
    cfg.duration = util::SecToNs(opt.duration);
    cfg.seed = opt.seed;
    cfg.theta = opt.theta;
    cfg.value_bytes = value_bytes;
    cfg.scan_limit_max = opt.scan_limit;
    cfg.slo = util::MsToNs(opt.deadline_ms > 0 ? opt.deadline_ms : 5.0);
    std::string shape;
    if (opt.workload == "ycsb") {
        // One labelled series segment per profile phase: windowed metrics
        // cut exactly at the schedule's boundaries (no-op without
        // --stats-series).
        cfg.on_phase_start = [&opt, &sim](size_t,
                                          const workload::YcsbPhase &p,
                                          util::TimeNs, util::TimeNs dur) {
            opt.obs.StartSeries(sim, "ycsb." + p.name, dur);
        };
        cfg = workload::YcsbProfile(opt.profile, cfg);
        shape = "profile " + opt.profile + ", " +
                util::TablePrinter::Num(opt.arrival_rate, 0) +
                " base arrivals/s";
    } else if (opt.workload == "overload") {
        cfg.phases = workload::StormSchedule(opt.read_fraction, opt.storm);
        shape = util::TablePrinter::Num(opt.arrival_rate, 0) +
                " arrivals/s, storm x" +
                util::TablePrinter::Num(opt.storm, 1) + " in the middle third";
    } else {
        cfg.actors = 8;
        cfg.phases = {workload::UniformMix(opt.read_fraction)};
        cfg.phases[0].name = "mixed";
        shape = std::to_string(cfg.actors) + " closed-loop clients";
    }
    if (!cfg.on_phase_start) {
        // One series segment over the whole load window, so the storm and
        // any disruption land in their own windows instead of the run
        // aggregate.
        opt.obs.StartSeries(sim, closed_loop ? "mixed" : "overload",
                            cfg.duration);
    }

    const workload::YcsbResult r = workload::RunYcsb(
        sim, client ? client->Service() : cl.Service(), keys, cfg);

    std::printf("%s: %u nodes, R=%u, %u slices/node, %s, value %u KiB\n",
                opt.workload.c_str(), opt.nodes, opt.replication, opt.slices,
                shape.c_str(),
                value_bytes / static_cast<uint32_t>(util::kKiB));
    std::printf("offered %.0f ops/s, goodput %.0f ops/s "
                "(%llu issued, %llu completed)\n",
                r.offered_ops_per_sec, r.goodput_ops_per_sec,
                static_cast<unsigned long long>(r.issued),
                static_cast<unsigned long long>(r.completed));
    std::printf("outcomes: %llu reads, %llu updates, %llu inserts, "
                "%llu scans (%llu keys, %.1f MiB), %llu misses\n",
                static_cast<unsigned long long>(r.ok_reads),
                static_cast<unsigned long long>(r.ok_updates),
                static_cast<unsigned long long>(r.ok_inserts),
                static_cast<unsigned long long>(r.ok_scans),
                static_cast<unsigned long long>(r.scanned_keys),
                static_cast<double>(r.scanned_bytes) / (1 << 20),
                static_cast<unsigned long long>(r.misses));
    std::printf("shed: %llu overloaded, %llu deadline, %llu errors; "
                "SLO violations %llu; p50 %.3f ms, p99 %.3f ms, "
                "p99.9 %.3f ms (read p99 %.3f ms)\n",
                static_cast<unsigned long long>(r.shed_overloaded),
                static_cast<unsigned long long>(r.shed_deadline),
                static_cast<unsigned long long>(r.errors),
                static_cast<unsigned long long>(r.slo_violations),
                r.p50_ms, r.p99_ms, r.p999_ms, r.read_p99_ms);

    util::TablePrinter phases("per-phase breakdown");
    phases.SetHeader({"phase", "issued", "completed", "shed", "slo viol",
                      "p50 ms", "p99 ms", "p99.9 ms"});
    for (const workload::YcsbPhaseResult &p : r.phases) {
        phases.AddRow({p.name, std::to_string(p.issued),
                       std::to_string(p.completed),
                       std::to_string(p.shed_overloaded + p.shed_deadline),
                       std::to_string(p.slo_violations),
                       util::TablePrinter::Num(p.p50_ms, 3),
                       util::TablePrinter::Num(p.p99_ms, 3),
                       util::TablePrinter::Num(p.p999_ms, 3)});
    }
    phases.Print();

    if (client) {
        const client::ClientStats &cs = client->stats();
        const client::HedgeStats &hs = client->hedge_stats();
        std::printf("client: %llu queued, %llu shed at the front door, "
                    "%llu batches carrying %llu reads, %llu fallback "
                    "walks\n",
                    static_cast<unsigned long long>(cs.queued),
                    static_cast<unsigned long long>(cs.shed_queue_full),
                    static_cast<unsigned long long>(cs.batches),
                    static_cast<unsigned long long>(cs.batched_gets),
                    static_cast<unsigned long long>(cs.fallback_walks));
        std::printf("hedge: %llu launched, %llu wins, %llu losses, "
                    "%llu cancelled\n",
                    static_cast<unsigned long long>(hs.launched),
                    static_cast<unsigned long long>(hs.wins),
                    static_cast<unsigned long long>(hs.losses),
                    static_cast<unsigned long long>(hs.cancelled));
    }
    const cluster::ReplicatedKvStats &rs = cl.router().stats();
    std::printf("replication: %llu degraded reads, %llu failed reads, "
                "%llu re-replications, %llu put failures\n",
                static_cast<unsigned long long>(rs.degraded_reads),
                static_cast<unsigned long long>(rs.failed_reads),
                static_cast<unsigned long long>(rs.re_replications),
                static_cast<unsigned long long>(rs.put_failures));
    uint64_t admission_shed = 0;
    util::TablePrinter nodes("per node");
    nodes.SetHeader({"node", "puts routed", "gets routed", "admitted",
                     "shed", "peak inflight"});
    for (uint32_t n = 0; n < cl.node_count(); ++n) {
        const cluster::StorageNode::AdmissionStats &as =
            cl.node(n).admission();
        admission_shed += as.shed_overload;
        nodes.AddRow({std::to_string(n),
                      std::to_string(cl.router().node_puts(n)),
                      std::to_string(cl.router().node_gets(n)),
                      std::to_string(as.admitted),
                      std::to_string(as.shed_overload),
                      std::to_string(as.peak_inflight)});
    }
    nodes.Print();
    const cluster::FailSlowBreaker::Stats &bs = cl.router().breaker().stats();
    std::printf("breaker: %llu trips, %llu resets, %llu reroutes, "
                "%u open now\n",
                static_cast<unsigned long long>(bs.trips),
                static_cast<unsigned long long>(bs.resets),
                static_cast<unsigned long long>(bs.reroutes),
                cl.router().breaker().open_count());

    // Load may shed, but every acked write must stay readable — and after
    // a node kill or restart, so must the preload.
    std::vector<uint64_t> audit_keys;
    if (opt.kill_node >= 0 || opt.restart_node >= 0) audit_keys = keys;
    audit_keys.insert(audit_keys.end(), r.acked_writes.begin(),
                      r.acked_writes.end());
    const cluster::Cluster::Audit audit = cl.AuditKeys(audit_keys);
    std::printf("consistency audit: %llu acked keys, %llu lost\n",
                static_cast<unsigned long long>(audit.audited),
                static_cast<unsigned long long>(audit.lost));
    // The first few losses with their placement: which vnode owns the key
    // and which nodes the ring currently maps it to.
    for (uint64_t key : audit.lost_keys) {
        const auto [point, owner] = cl.router().ring().OwnerVnode(key);
        std::string replicas;
        for (uint32_t n : cl.router().ReplicaNodes(key)) {
            if (!replicas.empty()) replicas += ",";
            replicas += std::to_string(n);
        }
        std::fprintf(stderr,
                     "lost key %llu: vnode 0x%016llx on node %u, replica "
                     "set [%s]\n",
                     static_cast<unsigned long long>(key),
                     static_cast<unsigned long long>(point), owner,
                     replicas.c_str());
    }

    uint64_t under_replicated = 0;
    if (opt.restart_node >= 0 || (opt.rebalance && opt.kill_node >= 0)) {
        const cluster::Rebalancer::Stats &rb = cl.rebalancer().stats();
        under_replicated = cl.rebalancer().CountUnderReplicated();
        std::printf("rebalance: %llu passes (%llu anti-entropy), %llu keys "
                    "moved (%.1f MiB), %llu failures, %llu keys still "
                    "under-replicated\n",
                    static_cast<unsigned long long>(rb.passes),
                    static_cast<unsigned long long>(rb.anti_entropy_passes),
                    static_cast<unsigned long long>(rb.keys_moved),
                    static_cast<double>(rb.bytes_moved) / (1 << 20),
                    static_cast<unsigned long long>(rb.move_failures),
                    static_cast<unsigned long long>(under_replicated));
        opt.obs.AddDerived("result.rebalance_keys_moved",
                           static_cast<double>(rb.keys_moved));
        opt.obs.AddDerived("result.rebalance_bytes_moved",
                           static_cast<double>(rb.bytes_moved));
        opt.obs.AddDerived("result.under_replicated",
                           static_cast<double>(under_replicated));
    }
    if (opt.restart_node >= 0) {
        const auto &rec =
            cl.node(static_cast<uint32_t>(opt.restart_node)).recovery();
        std::printf("recovery: %llu patches scanned (%.1f MiB), %llu WAL "
                    "records replayed, %.2f ms\n",
                    static_cast<unsigned long long>(rec.patches_scanned),
                    static_cast<double>(rec.bytes_scanned) / (1 << 20),
                    static_cast<unsigned long long>(
                        rec.wal_records_replayed),
                    static_cast<double>(rec.last_recovery_ns) / 1e6);
        opt.obs.AddDerived("result.recovery_ms",
                           static_cast<double>(rec.last_recovery_ns) / 1e6);
        opt.obs.AddDerived("result.recovery_patches_scanned",
                           static_cast<double>(rec.patches_scanned));
    }

    AddCommonMeta(opt);
    opt.obs.AddMeta("nodes", std::to_string(opt.nodes));
    opt.obs.AddMeta("replication", std::to_string(opt.replication));
    if (closed_loop) {
        opt.obs.AddMeta("slices", std::to_string(opt.slices));
        opt.obs.AddDerived("result.degraded_reads",
                           static_cast<double>(rs.degraded_reads));
        opt.obs.AddDerived("result.failed_reads",
                           static_cast<double>(rs.failed_reads));
    } else {
        opt.obs.AddMeta("arrival_rate", std::to_string(opt.arrival_rate));
    }
    if (opt.workload == "ycsb") {
        opt.obs.AddMeta("profile", opt.profile);
        opt.obs.AddMeta("theta", std::to_string(opt.theta));
    } else {
        opt.obs.AddDerived("result.read_p99_ms", r.read_p99_ms);
    }
    if (opt.workload == "overload") {
        opt.obs.AddMeta("storm", std::to_string(opt.storm));
        opt.obs.AddMeta("hedge", opt.hedge ? "1" : "0");
        opt.obs.AddDerived("result.hedge_launched",
                           static_cast<double>(client->hedge_stats().launched));
        opt.obs.AddDerived("result.hedge_wins",
                           static_cast<double>(client->hedge_stats().wins));
        opt.obs.AddDerived("result.admission_shed",
                           static_cast<double>(admission_shed));
        opt.obs.AddDerived("result.breaker_trips",
                           static_cast<double>(bs.trips));
    }
    opt.obs.AddDerived("result.issued", static_cast<double>(r.issued));
    opt.obs.AddDerived("result.completed", static_cast<double>(r.completed));
    opt.obs.AddDerived("result.offered_ops_per_sec", r.offered_ops_per_sec);
    opt.obs.AddDerived("result.goodput_ops_per_sec", r.goodput_ops_per_sec);
    opt.obs.AddDerived("result.p50_ms", r.p50_ms);
    opt.obs.AddDerived("result.p99_ms", r.p99_ms);
    opt.obs.AddDerived("result.p999_ms", r.p999_ms);
    opt.obs.AddDerived("result.ok_scans", static_cast<double>(r.ok_scans));
    opt.obs.AddDerived("result.scanned_keys",
                       static_cast<double>(r.scanned_keys));
    opt.obs.AddDerived("result.scanned_bytes",
                       static_cast<double>(r.scanned_bytes));
    opt.obs.AddDerived("result.misses", static_cast<double>(r.misses));
    opt.obs.AddDerived("result.shed_overloaded",
                       static_cast<double>(r.shed_overloaded));
    opt.obs.AddDerived("result.shed_deadline",
                       static_cast<double>(r.shed_deadline));
    opt.obs.AddDerived("result.errors", static_cast<double>(r.errors));
    opt.obs.AddDerived("result.slo_violations",
                       static_cast<double>(r.slo_violations));
    opt.obs.AddDerived("result.lost_acked_writes",
                       static_cast<double>(audit.lost));
    for (const workload::YcsbPhaseResult &p : r.phases) {
        const std::string pre = "result.phase." + p.name + ".";
        opt.obs.AddDerived(pre + "issued", static_cast<double>(p.issued));
        opt.obs.AddDerived(pre + "completed",
                           static_cast<double>(p.completed));
        opt.obs.AddDerived(pre + "p99_ms", p.p99_ms);
        opt.obs.AddDerived(pre + "slo_violations",
                           static_cast<double>(p.slo_violations));
    }
    if (const int rc = opt.obs.Export(); rc != 0) return rc;
    return audit.lost == 0 && under_replicated == 0 ? 0 : 1;
}

int
RunKv(Options &opt)
{
    const testbed::Backend kind = *BackendFor(opt.device);
    testbed::KvTestbed bed(kind, opt.slices, opt.slices, opt.scale, {},
                           opt.obs.hub());
    workload::KvRunConfig run;
    run.warmup = util::SecToNs(opt.warmup);
    run.duration = util::SecToNs(opt.duration);
    run.seed = opt.seed;

    bool failed = false;
    if (opt.workload == "kvread") {
        const auto keys = bed.Preload(200 * util::kMiB,
                                      opt.value_kib * util::kKiB);
        const auto r = workload::RunBatchedRandomReads(
            bed.sim(), bed.net(), bed.SlicePtrs(), keys, opt.batch, run);
        std::printf("%s kvread %u slices batch %u value %uKiB: %.1f MB/s "
                    "(%llu batches)\n",
                    testbed::BackendName(kind), opt.slices, opt.batch,
                    opt.value_kib, r.client_mbps,
                    static_cast<unsigned long long>(r.requests));
    } else if (opt.workload == "scan") {
        bed.Preload(200 * util::kMiB, opt.value_kib * util::kKiB);
        const auto r =
            workload::RunSequentialScan(bed.sim(), bed.SlicePtrs(), 6, run);
        std::printf("%s scan %u slices x6 threads: %.1f MB/s\n",
                    testbed::BackendName(kind), opt.slices, r.client_mbps);
    } else if (opt.workload == "kvwrite") {
        const auto r = workload::RunKvWrites(bed.sim(), bed.net(),
                                             bed.SlicePtrs(), 100 * util::kKiB,
                                             util::kMiB, run);
        std::printf("%s kvwrite %u slices: device write %.1f MB/s, "
                    "compaction read %.1f MB/s (%llu puts, %llu failed "
                    "flushes)\n",
                    testbed::BackendName(kind), opt.slices,
                    r.device_write_mbps, r.device_read_mbps,
                    static_cast<unsigned long long>(r.requests),
                    static_cast<unsigned long long>(r.failed_flushes));
        failed = r.failed_flushes > 0;
    } else {
        std::fprintf(stderr, "unknown kv workload %s\n",
                     opt.workload.c_str());
        return 1;
    }
    AddCommonMeta(opt);
    opt.obs.AddMeta("slices", std::to_string(opt.slices));
    opt.obs.AddMeta("value_kib", std::to_string(opt.value_kib));
    if (const int rc = opt.obs.Export(); rc != 0) return rc;
    // A failed flush dropped acked puts from memory: the run failed.
    return failed ? 1 : 0;
}

}  // namespace
}  // namespace sdf

int
main(int argc, char **argv)
{
    sdf::Options opt;
    try {
        if (!sdf::ParseArgs(argc, argv, opt)) return argc > 1 ? 1 : 0;
    } catch (const std::invalid_argument &e) {
        std::fprintf(stderr, "%s (try --help)\n", e.what());
        return 1;
    }

    if (opt.workload == "faults") return sdf::RunFaults(opt);
    if (sdf::IsClusterMode(opt.workload)) return sdf::RunClusterWorkload(opt);
    if (sdf::IsKvMode(opt.workload)) return sdf::RunKv(opt);
    if (opt.device == "sdf") return sdf::RunRawSdf(opt);
    return sdf::RunRawConventional(opt);
}
