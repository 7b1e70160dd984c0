#!/usr/bin/env bash
# Build and run the full test suite three times: a normal RelWithDebInfo
# build, a warnings-as-errors build (-DSDF_WERROR=ON), and an ASan+UBSan
# build (-DSDF_SANITIZE=ON), each in its own build tree. Also smoke-tests
# the observability exports (stats JSON invariants, trace well-formedness,
# same-seed byte identity) via tools/validate_stats.py, the cluster
# workload (same-seed determinism + degraded-mode zero-loss), the
# open-loop overload workload (typed sheds, fail-slow hedging/breaker),
# YCSB traffic under disruptions, and sdfsim's bad-input exits.
# Usage: scripts/check.sh [extra ctest args...]
set -euo pipefail

cd "$(dirname "$0")/.."

echo "== normal build =="
cmake -B build -S . > /dev/null
cmake --build build -j
(cd build && ctest --output-on-failure -j "$@")

echo "== observability smoke =="
obs_tmp="$(mktemp -d)"
trap 'rm -rf "$obs_tmp"' EXIT
./build/tools/sdfsim --device=sdf --workload=write --duration=0.5 \
    --stats-json="$obs_tmp/a.json" --stats-csv="$obs_tmp/a.csv" \
    --trace="$obs_tmp/a.trace.json" > /dev/null
./build/tools/sdfsim --device=sdf --workload=write --duration=0.5 \
    --stats-json="$obs_tmp/b.json" --stats-csv="$obs_tmp/b.csv" > /dev/null
cmp "$obs_tmp/a.json" "$obs_tmp/b.json"   # Same seed => byte-identical.
cmp "$obs_tmp/a.csv" "$obs_tmp/b.csv"
python3 tools/validate_stats.py "$obs_tmp/a.json" \
    --trace="$obs_tmp/a.trace.json" --channels=44
./build/tools/sdfsim --device=sdf --workload=randread --request=8k \
    --duration=0.3 --stats-json="$obs_tmp/r.json" > /dev/null
python3 tools/validate_stats.py "$obs_tmp/r.json"

echo "== cluster smoke =="
./build/tools/sdfsim --workload=cluster --nodes=3 --replication=2 \
    --duration=0.3 --stats-json="$obs_tmp/c1.json" > /dev/null
./build/tools/sdfsim --workload=cluster --nodes=3 --replication=2 \
    --duration=0.3 --stats-json="$obs_tmp/c2.json" > /dev/null
cmp "$obs_tmp/c1.json" "$obs_tmp/c2.json"  # Same seed => byte-identical.
python3 tools/validate_stats.py "$obs_tmp/c1.json"
# Degraded mode: kill a node mid-run; exit is nonzero on any lost ack.
./build/tools/sdfsim --workload=cluster --nodes=3 --replication=2 \
    --duration=0.3 --kill-node=0 > /dev/null

echo "== recovery smoke =="
# Permanent node loss + anti-entropy: nonzero exit on lost acks or any
# key left under-replicated after the pass.
./build/tools/sdfsim --workload=cluster --nodes=3 --replication=2 \
    --duration=0.3 --kill-node=0 --rebalance > /dev/null
# Rolling restart: stop at T/3, recover + rebalance at 2T/3.
./build/tools/sdfsim --workload=cluster --nodes=3 --replication=2 \
    --duration=0.3 --restart-node=1 > /dev/null

echo "== overload smoke =="
# Open-loop storm through the client front door: nonzero exit on any
# lost acked write; storms, sheds, hedges, the distributed trace and the
# windowed series all stay seed-deterministic (byte-identical exports).
./build/tools/sdfsim --workload=overload --nodes=3 --replication=2 \
    --duration=0.2 --arrival-rate=60000 --storm=2.0 \
    --stats-json="$obs_tmp/o1.json" --trace="$obs_tmp/o1.trace.json" \
    --stats-series="$obs_tmp/o1.series.json" > /dev/null
./build/tools/sdfsim --workload=overload --nodes=3 --replication=2 \
    --duration=0.2 --arrival-rate=60000 --storm=2.0 \
    --stats-json="$obs_tmp/o2.json" --trace="$obs_tmp/o2.trace.json" \
    --stats-series="$obs_tmp/o2.series.json" > /dev/null
cmp "$obs_tmp/o1.json" "$obs_tmp/o2.json"  # Same seed => byte-identical.
cmp "$obs_tmp/o1.trace.json" "$obs_tmp/o2.trace.json"
cmp "$obs_tmp/o1.series.json" "$obs_tmp/o2.series.json"
# Cluster critical-path tiling (client.path.*) + window contiguity.
python3 tools/validate_stats.py "$obs_tmp/o1.json" \
    --trace="$obs_tmp/o1.trace.json" --series="$obs_tmp/o1.series.json" \
    --require-op=client.path.get --require-op=client.path.put
# One fail-slow node mid-run; hedged reads + breaker route around it.
./build/tools/sdfsim --workload=overload --nodes=3 --replication=2 \
    --duration=0.2 --fail-slow-node=1 --fail-slow-factor=4 > /dev/null

echo "== ycsb smoke =="
# Skewed phased traffic with range scans through the client front door:
# same seed => byte-identical stats/trace/series; the scan critical path
# (client.path.scan) is attributed, and per-phase counts sum exactly to
# the run totals (--check-phases).
./build/tools/sdfsim --workload=ycsb --profile=e --nodes=3 --replication=2 \
    --duration=0.2 --arrival-rate=400 --keys=200 \
    --stats-json="$obs_tmp/y1.json" --trace="$obs_tmp/y1.trace.json" \
    --stats-series="$obs_tmp/y1.series.json" > /dev/null
./build/tools/sdfsim --workload=ycsb --profile=e --nodes=3 --replication=2 \
    --duration=0.2 --arrival-rate=400 --keys=200 \
    --stats-json="$obs_tmp/y2.json" --trace="$obs_tmp/y2.trace.json" \
    --stats-series="$obs_tmp/y2.series.json" > /dev/null
cmp "$obs_tmp/y1.json" "$obs_tmp/y2.json"  # Same seed => byte-identical.
cmp "$obs_tmp/y1.trace.json" "$obs_tmp/y2.trace.json"
cmp "$obs_tmp/y1.series.json" "$obs_tmp/y2.series.json"
python3 tools/validate_stats.py "$obs_tmp/y1.json" \
    --trace="$obs_tmp/y1.trace.json" --series="$obs_tmp/y1.series.json" \
    --require-op=client.path.scan --check-phases
# The storm profile's flash crowd: per-phase accounting over a schedule
# with a hot-range spike (3 labelled series segments).
./build/tools/sdfsim --workload=ycsb --profile=storm --nodes=3 \
    --replication=2 --duration=0.3 --arrival-rate=40000 \
    --stats-json="$obs_tmp/ystorm.json" > /dev/null
python3 tools/validate_stats.py "$obs_tmp/ystorm.json" --check-phases
# The disruption flags apply in every cluster mode: a rolling restart and
# a fail-slow node under YCSB traffic, nonzero exit on any lost ack.
./build/tools/sdfsim --workload=ycsb --profile=a --nodes=3 --replication=2 \
    --duration=0.3 --restart-node=1 > /dev/null
./build/tools/sdfsim --workload=ycsb --nodes=3 --replication=2 \
    --duration=0.2 --fail-slow-node=1 > /dev/null

echo "== bad input =="
# Unusable flag values are rejected with a message and exit 1 — never an
# abort (134) from an assertion deep inside the engine.
for bad in --profile=bogus --nodes=x --keys=0 --arrival-rate=0 \
    --scan-limit=0; do
    rc=0
    ./build/tools/sdfsim --workload=ycsb "$bad" > /dev/null 2>&1 || rc=$?
    if [ "$rc" -ne 1 ]; then
        echo "sdfsim --workload=ycsb $bad: exit $rc, want 1" >&2
        exit 1
    fi
done

echo "== engine cross-check (heap vs calendar) =="
# The two event engines must produce byte-identical runs: same seed, same
# dispatch order, same stats/trace/series exports. The overload workload
# exercises every scheduling path (device, network retry ladders, client
# hedges, completion ring), so it is the cross-check workload of record.
for eng in heap calendar; do
    ./build/tools/sdfsim --workload=overload --nodes=3 --replication=2 \
        --duration=0.2 --arrival-rate=60000 --storm=2.0 --engine="$eng" \
        --stats-json="$obs_tmp/x-$eng.json" \
        --trace="$obs_tmp/x-$eng.trace.json" \
        --stats-series="$obs_tmp/x-$eng.series.json" > /dev/null
    ./build/tools/sdfsim --workload=cluster --nodes=3 --replication=2 \
        --duration=0.3 --engine="$eng" \
        --stats-json="$obs_tmp/xc-$eng.json" > /dev/null
    # The ycsb storm adds phased arrivals + cluster scans to the
    # cross-checked surface (per-phase p99s and SLO counters must be
    # byte-identical across engines too).
    ./build/tools/sdfsim --workload=ycsb --profile=storm --nodes=3 \
        --replication=2 --duration=0.2 --arrival-rate=30000 \
        --engine="$eng" \
        --stats-json="$obs_tmp/xy-$eng.json" \
        --stats-series="$obs_tmp/xy-$eng.series.json" > /dev/null
done
cmp "$obs_tmp/x-heap.json" "$obs_tmp/x-calendar.json"
cmp "$obs_tmp/x-heap.trace.json" "$obs_tmp/x-calendar.trace.json"
cmp "$obs_tmp/x-heap.series.json" "$obs_tmp/x-calendar.series.json"
cmp "$obs_tmp/xc-heap.json" "$obs_tmp/xc-calendar.json"
cmp "$obs_tmp/xy-heap.json" "$obs_tmp/xy-calendar.json"
cmp "$obs_tmp/xy-heap.series.json" "$obs_tmp/xy-calendar.series.json"

echo "== warnings-as-errors build =="
cmake -B build-werror -S . -DSDF_WERROR=ON > /dev/null
cmake --build build-werror -j
(cd build-werror && ctest --output-on-failure -j "$@")

echo "== sanitizer build (ASan+UBSan) =="
cmake -B build-asan -S . -DSDF_SANITIZE=ON > /dev/null
cmake --build build-asan -j
(cd build-asan && ctest --output-on-failure -j "$@")
# The recovery paths (restart scan, rebalance streaming, zombie-store
# detach) under the sanitizers as well.
./build-asan/tools/sdfsim --workload=cluster --nodes=3 --replication=2 \
    --duration=0.3 --kill-node=0 --rebalance > /dev/null
./build-asan/tools/sdfsim --workload=cluster --nodes=3 --replication=2 \
    --duration=0.3 --restart-node=1 > /dev/null
# The overload path (open-loop driver, client windows/batches/hedges,
# admission sheds, fail-slow deferral) under the sanitizers as well.
./build-asan/tools/sdfsim --workload=overload --nodes=3 --replication=2 \
    --duration=0.2 --arrival-rate=60000 --storm=2.0 > /dev/null
./build-asan/tools/sdfsim --workload=overload --nodes=3 --replication=2 \
    --duration=0.2 --fail-slow-node=1 --no-breaker > /dev/null
# Both engines under the sanitizers (ctest above runs the default
# calendar engine; this covers the reference heap path too).
./build-asan/tools/sdfsim --workload=overload --nodes=3 --replication=2 \
    --duration=0.2 --arrival-rate=60000 --storm=2.0 --engine=heap \
    > /dev/null
# The ycsb storm under the sanitizers: phased arrivals, hot-range skew,
# cluster scan fan-out/merge, and per-phase accounting.
./build-asan/tools/sdfsim --workload=ycsb --profile=storm --nodes=3 \
    --replication=2 --duration=0.2 --arrival-rate=30000 > /dev/null
./build-asan/tools/sdfsim --workload=ycsb --profile=e --nodes=3 \
    --replication=2 --duration=0.2 --arrival-rate=400 --keys=200 \
    > /dev/null
# Disruptions under YCSB traffic (restart + rebalance, fail-slow window).
./build-asan/tools/sdfsim --workload=ycsb --profile=a --nodes=3 \
    --replication=2 --duration=0.3 --restart-node=1 > /dev/null
./build-asan/tools/sdfsim --workload=ycsb --nodes=3 --replication=2 \
    --duration=0.2 --fail-slow-node=1 > /dev/null

echo "All checks passed."
