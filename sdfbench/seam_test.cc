/**
 * @file
 * Seam-decorator test: on the same seed, the stack with the TracedDevice
 * and TracedPatchStorage decorators spliced in and the stack
 * testbed::BuildKvStack assembles must dispatch the same number of
 * simulator events and produce identical simulated-clock results. The
 * same holds for the cluster workload with and without the hub and the
 * traced front door. Exits 0 on success, 1 with a diff otherwise.
 *
 *   sdfbench_seam_test [seed...]
 */
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "measure.h"
#include "workloads.h"

namespace {

using sdfbench::RepResult;

bool
Same(const char *what, uint64_t seed, const RepResult &plain,
     const RepResult &traced)
{
    bool ok = plain.events == traced.events && plain.ops == traced.ops &&
              plain.sim == traced.sim && traced.errors.empty() &&
              plain.errors.empty();
    std::printf("%s seed %llu: events %llu vs %llu, ops %llu vs %llu, "
                "%zu simulated metrics %s\n",
                what, static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(plain.events),
                static_cast<unsigned long long>(traced.events),
                static_cast<unsigned long long>(plain.ops),
                static_cast<unsigned long long>(traced.ops),
                plain.sim.size(), plain.sim == traced.sim ? "equal" : "DIFFER");
    for (const auto &[name, v] : plain.sim) {
        auto it = traced.sim.find(name);
        if (it == traced.sim.end() || it->second != v) {
            std::printf("  %s: %.17g vs %.17g\n", name.c_str(), v,
                        it == traced.sim.end() ? -1.0 : it->second);
        }
    }
    for (const std::string &e : plain.errors) {
        std::printf("  untraced: %s\n", e.c_str());
    }
    for (const std::string &e : traced.errors) {
        std::printf("  traced: %s\n", e.c_str());
    }
    return ok;
}

}  // namespace

int
main(int argc, char **argv)
{
    std::vector<uint64_t> seeds;
    for (int i = 1; i < argc; ++i) seeds.push_back(std::strtoull(argv[i],
                                                                nullptr, 10));
    if (seeds.empty()) seeds = {1, 2};
    bool ok = true;
    for (uint64_t seed : seeds) {
        ok &= Same("ccdb_write_compaction", seed,
                   sdfbench::RunCcdbWriteCompaction(seed, false),
                   sdfbench::RunCcdbWriteCompaction(seed, true));
        ok &= Same("ycsb_a_restart", seed,
                   sdfbench::RunYcsbARestart(seed, false),
                   sdfbench::RunYcsbARestart(seed, true));
    }
    std::printf("%s\n", ok ? "PASS" : "FAIL");
    return ok ? 0 : 1;
}
