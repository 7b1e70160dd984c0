/**
 * @file
 * End-to-end fault-injection campaign (robustness headline experiment).
 *
 * The paper's SDF deployment strips the drive of internal redundancy and
 * relies on the distributed software layer for fault tolerance (§2, §5).
 * This campaign stresses that claim: the storage nodes of an R-node,
 * R-way replicated cluster take a barrage of injected hardware faults
 * (channel stalls and deaths, latent page corruption, link CRC windows,
 * elevated RBER) while open-loop clients keep reading and inserting
 * through the router's RPC path. With 3-way replication the expected
 * outcome is zero data loss and every request completing — degraded, not
 * down.
 *
 * Usage:
 *   fault_campaign [--replicas=3] [--faults=120] [--keys=800] [--reads=1500]
 *                  [--seed=42] [--horizon-ms=400] [--plan=<file>]
 *                  [--retry-levels=4] [--print-plan]
 */
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "bench_common.h"
#include "fault_common.h"

namespace {

bool
MatchArg(const char *arg, const char *name, const char **value)
{
    const size_t n = std::strlen(name);
    if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
    *value = arg + n + 1;
    return true;
}

}  // namespace

int
main(int argc, char **argv)
{
    sdf::bench::GlobalObs().ParseAndStrip(argc, argv);
    sdf::bench::FaultCampaignConfig cfg;
    bool print_plan = false;
    std::string plan_path;
    for (int i = 1; i < argc; ++i) {
        const char *v = nullptr;
        if (MatchArg(argv[i], "--replicas", &v)) {
            cfg.replicas = static_cast<uint32_t>(std::atoi(v));
        } else if (MatchArg(argv[i], "--faults", &v)) {
            cfg.fault_count = static_cast<uint32_t>(std::atoi(v));
        } else if (MatchArg(argv[i], "--keys", &v)) {
            cfg.keys = static_cast<uint32_t>(std::atoi(v));
        } else if (MatchArg(argv[i], "--reads", &v)) {
            cfg.reads = static_cast<uint32_t>(std::atoi(v));
        } else if (MatchArg(argv[i], "--seed", &v)) {
            cfg.seed = static_cast<uint64_t>(std::atoll(v));
        } else if (MatchArg(argv[i], "--horizon-ms", &v)) {
            cfg.horizon_sec = std::atof(v) / 1000.0;
        } else if (MatchArg(argv[i], "--retry-levels", &v)) {
            cfg.read_retry_levels = static_cast<uint32_t>(std::atoi(v));
        } else if (MatchArg(argv[i], "--plan", &v)) {
            plan_path = v;
        } else if (std::strcmp(argv[i], "--print-plan") == 0) {
            print_plan = true;
        } else {
            std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
            return 2;
        }
    }
    if (cfg.replicas == 0) {
        std::fprintf(stderr, "--replicas must be >= 1\n");
        return 2;
    }
    if (cfg.keys == 0 || !(cfg.horizon_sec > 0)) {
        std::fprintf(stderr, "--keys and --horizon-ms must be positive\n");
        return 2;
    }
    if (!plan_path.empty()) {
        std::ifstream in(plan_path);
        if (!in) {
            std::fprintf(stderr, "cannot open plan file %s\n",
                         plan_path.c_str());
            return 2;
        }
        std::ostringstream text;
        text << in.rdbuf();
        cfg.plan_text = text.str();
    }

    if (print_plan) {
        // Emit the plan this configuration would run, without running it
        // (pipe to a file, edit, replay with --plan=).
        std::fputs(sdf::fault::FaultPlan::Random(
                       sdf::bench::CampaignFaultSpec(cfg),
                       sdf::bench::CampaignPlanSeed(cfg))
                       .ToText()
                       .c_str(),
                   stdout);
        return 0;
    }

    cfg.hub = sdf::bench::GlobalObs().hub();
    std::printf("== fault campaign: %u-way replication, %u faults over "
                "%.0f ms, seed %llu ==\n",
                cfg.replicas, cfg.fault_count, cfg.horizon_sec * 1000.0,
                static_cast<unsigned long long>(cfg.seed));
    const sdf::bench::FaultCampaignResult r = sdf::bench::RunFaultCampaign(cfg);
    if (!r.plan_error.empty()) return 2;  // Parse error already printed.
    sdf::bench::PrintFaultCampaignResult(cfg, r);

    const bool ok = r.keys_lost == 0 &&
                    r.requests_completed == r.requests_issued;
    std::printf("verdict:       %s\n",
                ok ? "PASS (no data loss, all requests completed)"
                   : "FAIL");
    sdf::bench::GlobalObs().AddMeta("experiment", "fault_campaign");
    sdf::bench::GlobalObs().AddDerived("result.availability", r.availability);
    if (const int rc = sdf::bench::GlobalObs().Export(); rc != 0) return rc;
    return ok ? 0 : 1;
}
