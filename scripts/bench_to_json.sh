#!/usr/bin/env bash
# Regenerate the machine-readable perf snapshot (BENCH_pr10.json by
# default) from a fixed set of sdfsim runs with --stats-json. Every run is
# on the simulated clock with a fixed seed, so the snapshot is
# deterministic and diffs meaningfully across PRs: counters, per-stage
# latency means, and derived throughput for the canonical workloads,
# including the open-loop overload runs (storm goodput, typed sheds,
# hedge/breaker accounting) and the YCSB runs (Zipfian skew, phased
# arrivals, cluster range scans, per-phase p99/SLO accounting; the
# bench/ycsb_suite export rides along as the ycsb_suite run).
# The time-axis runs also capture --stats-series windowed timelines, which
# are merged into the snapshot under each run's "series" key so the storm
# and fail-slow windows are diffable across PRs too.
#
# Usage: scripts/bench_to_json.sh [output.json]
set -euo pipefail

cd "$(dirname "$0")/.."
out="${1:-BENCH_pr10.json}"

cmake -B build -S . > /dev/null
cmake --build build -j --target sdfsim --target ycsb_suite > /dev/null

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

run() {
    local name="$1"
    shift
    echo "bench_to_json: $name"
    ./build/tools/sdfsim "$@" --stats-json="$tmp/$name.json" > /dev/null
}

# Time-axis runs additionally export the windowed series.
run_series() {
    local name="$1"
    shift
    echo "bench_to_json: $name (+series)"
    ./build/tools/sdfsim "$@" --stats-json="$tmp/$name.json" \
        --stats-series="$tmp/$name.series.json" > /dev/null
}

# The paper's canonical operating points (capacity-scaled).
run sdf_seqread_8m   --device=sdf --workload=seqread  --request=8m --duration=1
run sdf_randread_8k  --device=sdf --workload=randread --request=8k --duration=0.5
run sdf_write_unit   --device=sdf --workload=write    --duration=0.5
run conv_randread_8k --device=huawei --workload=randread --request=8k --duration=0.5
run conv_write_8m    --device=huawei --workload=write --request=8m --duration=0.5
run cluster_3n_r2    --workload=cluster --nodes=3 --replication=2 --duration=0.5
run cluster_restart  --workload=cluster --nodes=4 --replication=2 --duration=0.5 --restart-node=1
run cluster_rebal    --workload=cluster --nodes=4 --replication=2 --duration=0.5 --kill-node=0 --rebalance
run_series overload_storm   --workload=overload --nodes=3 --replication=2 --duration=0.3 --arrival-rate=60000 --storm=2.0
run_series overload_failslow --workload=overload --nodes=3 --replication=2 --duration=0.3 --arrival-rate=20000 --fail-slow-node=1 --fail-slow-factor=4
# YCSB: skewed phased traffic (per-phase p99/SLO in derived result.phase.*)
# and the scan-heavy profile E through the cluster front door.
run_series ycsb_storm --workload=ycsb --profile=storm --nodes=3 --replication=2 --duration=0.3 --arrival-rate=40000
run_series ycsb_diurnal --workload=ycsb --profile=diurnal --nodes=3 --replication=2 --duration=0.3 --arrival-rate=30000
run ycsb_e --workload=ycsb --profile=e --nodes=3 --replication=2 --duration=0.3 --arrival-rate=400 --keys=200

echo "bench_to_json: ycsb_suite (+series)"
./build/bench/ycsb_suite --stats-json="$tmp/ycsb_suite.json" \
    --stats-series="$tmp/ycsb_suite.series.json" > /dev/null

python3 - "$out" "$tmp" <<'EOF'
import json
import os
import sys

out_path, tmp = sys.argv[1], sys.argv[2]
runs = {}
for fn in sorted(os.listdir(tmp)):
    if fn.endswith(".series.json"):
        continue
    if fn.endswith(".json"):
        name = fn[:-5]
        with open(os.path.join(tmp, fn)) as f:
            runs[name] = json.load(f)
        series_fn = os.path.join(tmp, name + ".series.json")
        if os.path.exists(series_fn):
            with open(series_fn) as f:
                runs[name]["series"] = json.load(f)["series"]
doc = {"generated_by": "scripts/bench_to_json.sh", "runs": runs}
with open(out_path, "w") as f:
    json.dump(doc, f, indent=1, sort_keys=True)
    f.write("\n")
print("bench_to_json: wrote %s (%d runs)" % (out_path, len(runs)))
EOF
