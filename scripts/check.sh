#!/usr/bin/env bash
# Build and run the full test suite three times: a normal RelWithDebInfo
# build, a warnings-as-errors build (-DSDF_WERROR=ON), and an ASan+UBSan
# build (-DSDF_SANITIZE=ON), each in its own build tree. Also smoke-tests
# the observability exports (stats JSON invariants, trace well-formedness,
# same-seed byte identity) via tools/validate_stats.py, every example
# (same-seed stdout for the reliability walkthrough), write placement
# under ID skew (the ablation_scheduler gate), the pieced
# compaction path beside unit writes (no overlapping flash events),
# whole-unit reads (1,024-page queues on a channel bus: no
# overlapping flash events and same-seed stats and trace),
# on-demand reads beside unit writes (the production day: reads suspend
# page programs and overtake queued bus transfers, with no overlapping
# flash events and same-seed stats and trace), the cluster workload
# (same-seed determinism + degraded-mode zero-loss), the open-loop
# overload workload (typed sheds, fail-slow hedging/breaker),
# YCSB traffic under disruptions, hedging at 160k/s YCSB-B (goodput
# holds, few gets hedge) and on every rung of the healthy YCSB-B ladder
# (hedged goodput >= unhedged), the recovery paths (same-seed byte
# identity under node loss and restart), a cluster on a conventional SSD
# (a restart under YCSB-A on the extent allocator: zero loss, same-seed
# stats), the fault campaign (zero loss, plan replay, same-seed stats),
# sdfsim's bad-input exits (flag values, fault plans and devices a mode
# cannot run; NaN, infinity, times past the clock and error-model values
# out of range included), and
# the benchmark's seam selftest (sdfbench/ built against this tree).
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
    --stats-json="$obs_tmp/a.json" --trace="$obs_tmp/a.trace.json" \
    > /dev/null
./build/tools/sdfsim --device=sdf --workload=write --duration=0.5 \
    --stats-json="$obs_tmp/b.json" > /dev/null
cmp "$obs_tmp/a.json" "$obs_tmp/b.json"   # Same seed => byte-identical.
python3 tools/validate_stats.py "$obs_tmp/a.json" \
    --trace="$obs_tmp/a.trace.json" --channels=44
./build/tools/sdfsim --device=sdf --workload=randread --request=8k \
    --duration=0.3 --stats-json="$obs_tmp/r.json" > /dev/null
python3 tools/validate_stats.py "$obs_tmp/r.json"

echo "== examples =="
# Every example runs to a clean exit; the reliability walkthrough, which
# samples bit errors against the ECC budget, prints the same text twice.
for ex in quickstart webpage_repository kv_batch_server \
          wear_and_reliability production_day; do
    ./build/examples/"$ex" > "$obs_tmp/ex-$ex.txt"
done
./build/examples/wear_and_reliability > "$obs_tmp/ex-wear2.txt"
cmp "$obs_tmp/ex-wear_and_reliability.txt" "$obs_tmp/ex-wear2.txt"

echo "== placement gate =="
# 64 closed-loop writers whose IDs hash to 8 hot channels at 0, 50 and
# 90 % skew. Each write goes to a channel that is not writing, so the
# bench exits 1 unless the uniform row reaches 1,000 MB/s and every row
# keeps 95 % of it (hash placement alone gave 706, 277 and 193 MB/s).
./build/bench/ablation_scheduler

echo "== compaction smoke =="
# The pieced compaction path: unit writes on 16 slices beside ~270 MB/s of
# compaction reads that go to the device in pieces. No two flash events
# may overlap on one bus or plane track, and same-seed exports are
# byte-identical.
./build/tools/sdfsim --device=sdf --workload=kvwrite --slices=16 \
    --duration=2 --stats-json="$obs_tmp/kw1.json" \
    --trace="$obs_tmp/kw1.trace.json" > /dev/null
./build/tools/sdfsim --device=sdf --workload=kvwrite --slices=16 \
    --duration=2 --stats-json="$obs_tmp/kw2.json" > /dev/null
cmp "$obs_tmp/kw1.json" "$obs_tmp/kw2.json"  # Same seed => byte-identical.
python3 tools/validate_stats.py "$obs_tmp/kw1.json" \
    --trace="$obs_tmp/kw1.trace.json" --channels=44

echo "== whole-unit read smoke =="
# An 8 MB read books its 1,024 page data-outs on its channel's bus at
# once, the longest completion queues any run builds. No two flash
# events may overlap on one bus or plane track, and same-seed stats and
# traces are byte-identical.
for i in 1 2; do
    ./build/tools/sdfsim --device=sdf --workload=seqread --request=8m \
        --duration=0.5 --stats-json="$obs_tmp/sr$i.json" \
        --trace="$obs_tmp/sr$i.trace.json" > /dev/null
done
cmp "$obs_tmp/sr1.json" "$obs_tmp/sr2.json"
cmp "$obs_tmp/sr1.trace.json" "$obs_tmp/sr2.trace.json"
python3 tools/validate_stats.py "$obs_tmp/sr1.json" \
    --trace="$obs_tmp/sr1.trace.json" --channels=44
rm -f "$obs_tmp"/sr*.trace.json

echo "== on-demand reads smoke =="
# The production day puts client reads beside unit writes, so reads
# suspend page programs and their data-outs overtake queued data-ins on
# the channel bus; the step fails unless some of each happen. A suspended
# program is cut into tPROG segments that must not overlap the reads on
# its plane track, a transfer pushed back is retimed so that no two
# overlap on a bus track, and same-seed stats and traces are
# byte-identical.
for i in 1 2; do
    ./build/examples/production_day --stats-json="$obs_tmp/pd$i.json" \
        --trace="$obs_tmp/pd$i.trace.json" > /dev/null
done
cmp "$obs_tmp/pd1.json" "$obs_tmp/pd2.json"
cmp "$obs_tmp/pd1.trace.json" "$obs_tmp/pd2.trace.json"
python3 tools/validate_stats.py "$obs_tmp/pd1.json" \
    --trace="$obs_tmp/pd1.trace.json" --channels=44
python3 - "$obs_tmp/pd1.json" <<'EOF'
import json
import sys

counters = json.load(open(sys.argv[1]))["counters"]
for name in ("program_suspends", "bus_overtakes"):
    total = sum(v for k, v in counters.items() if k.endswith("." + name))
    print(f"{name}: {total}")
    if total <= 0:
        sys.exit(f"on-demand reads smoke: no {name}")
EOF
rm -f "$obs_tmp"/pd*.trace.json

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
# Permanent node loss + anti-entropy, and a rolling restart (stop at T/3,
# recover + rebalance at 2T/3): nonzero exit on lost acks or any key left
# under-replicated after the pass. Each runs twice: the failover walk,
# epoch restarts, read-repair and the rebalance pass must stay
# seed-deterministic (byte-identical exports).
for i in 1 2; do
    ./build/tools/sdfsim --workload=cluster --nodes=3 --replication=2 \
        --duration=0.3 --kill-node=0 --rebalance \
        --stats-json="$obs_tmp/k$i.json" > /dev/null
    ./build/tools/sdfsim --workload=cluster --nodes=3 --replication=2 \
        --duration=0.3 --restart-node=1 \
        --stats-json="$obs_tmp/r$i.json" > /dev/null
done
cmp "$obs_tmp/k1.json" "$obs_tmp/k2.json"
cmp "$obs_tmp/r1.json" "$obs_tmp/r2.json"
python3 tools/validate_stats.py "$obs_tmp/k1.json"
python3 tools/validate_stats.py "$obs_tmp/r1.json"

echo "== conventional cluster smoke =="
# The conventional-SSD path under a cluster: each node is a Huawei Gen3
# behind the kernel I/O stack and the flat extent allocator. A rolling
# restart under YCSB-A replays the journal and diffs the stored extents
# against it; nonzero exit on a lost ack, and same-seed exports are
# byte-identical.
for i in 1 2; do
    ./build/tools/sdfsim --device=huawei --workload=ycsb --profile=a \
        --nodes=3 --replication=2 --duration=0.3 --restart-node=1 \
        --stats-json="$obs_tmp/hw$i.json" > /dev/null
done
cmp "$obs_tmp/hw1.json" "$obs_tmp/hw2.json"
python3 tools/validate_stats.py "$obs_tmp/hw1.json"

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
# with a hot-range spike (3 labelled series segments). Phased arrivals,
# hot-range skew and cluster scans stay seed-deterministic: the pair's
# stats and series are cmp'd.
for i in 1 2; do
    ./build/tools/sdfsim --workload=ycsb --profile=storm --nodes=3 \
        --replication=2 --duration=0.3 --arrival-rate=40000 \
        --stats-json="$obs_tmp/ystorm$i.json" \
        --stats-series="$obs_tmp/ystorm$i.series.json" > /dev/null
done
cmp "$obs_tmp/ystorm1.json" "$obs_tmp/ystorm2.json"
cmp "$obs_tmp/ystorm1.series.json" "$obs_tmp/ystorm2.series.json"
python3 tools/validate_stats.py "$obs_tmp/ystorm1.json" \
    --series="$obs_tmp/ystorm1.series.json" --check-phases
# The disruption flags apply in every cluster mode: a rolling restart and
# a fail-slow node under YCSB traffic, nonzero exit on any lost ack. The
# restart run (epoch restarts, failover, rebalance under client traffic)
# runs twice and its stats, trace and series are cmp'd.
for i in 1 2; do
    ./build/tools/sdfsim --workload=ycsb --profile=a --nodes=3 \
        --replication=2 --duration=0.3 --restart-node=1 \
        --stats-json="$obs_tmp/ya$i.json" --trace="$obs_tmp/ya$i.trace.json" \
        --stats-series="$obs_tmp/ya$i.series.json" > /dev/null
done
cmp "$obs_tmp/ya1.json" "$obs_tmp/ya2.json"
cmp "$obs_tmp/ya1.trace.json" "$obs_tmp/ya2.trace.json"
cmp "$obs_tmp/ya1.series.json" "$obs_tmp/ya2.series.json"
python3 tools/validate_stats.py "$obs_tmp/ya1.json" \
    --trace="$obs_tmp/ya1.trace.json" --series="$obs_tmp/ya1.series.json" \
    --require-op=client.path.get
./build/tools/sdfsim --workload=ycsb --nodes=3 --replication=2 \
    --duration=0.2 --fail-slow-node=1 > /dev/null

echo "== hedge trough smoke =="
# Hedging must not feed itself: a hedge point set too low sends
# duplicates that load the other replica and widen the tail it hedges
# against. YCSB-B at 160k/s on 3 nodes is where that shows (a threshold
# at the client's read p99 clamped to 3x its median hedged half the gets
# and served 83% of the offer): at least 98% of the offer must be served
# and at most 5% of gets may hedge.
./build/tools/sdfsim --workload=ycsb --profile=b --nodes=3 --replication=2 \
    --arrival-rate=160000 --duration=0.5 --seed=1 \
    --stats-json="$obs_tmp/trough.json" > /dev/null
python3 - "$obs_tmp/trough.json" <<'EOF'
import json
import sys

stats = json.load(open(sys.argv[1]))
result, counters = stats["derived"], stats["counters"]
served = (result["result.goodput_ops_per_sec"]
          / result["result.offered_ops_per_sec"])
hedged = counters["client.hedge.launched"] / counters["client.gets"]
print(f"trough: {served:.1%} of the offer served, {hedged:.1%} of gets hedged")
if served < 0.98 or hedged > 0.05:
    sys.exit("trough smoke: want >= 98% served and <= 5% hedged")
EOF

echo "== hedge ladder gate =="
# On a healthy cluster hedging must cost no goodput: at every rung of the
# benchmark's YCSB-B ladder, hedged goodput is at least unhedged goodput.
for rate in 40000 100000 140000 150000 160000 170000 200000 240000; do
    for hedge in hedge no-hedge; do
        ./build/tools/sdfsim --workload=ycsb --profile=b --nodes=3 \
            --replication=2 --duration=0.5 --seed=1 --arrival-rate="$rate" \
            --"$hedge" --stats-json="$obs_tmp/ladder-$rate-$hedge.json" \
            > /dev/null
    done
done
python3 - "$obs_tmp" <<'EOF'
import json
import sys

failed = False
for rate in (40000, 100000, 140000, 150000, 160000, 170000, 200000, 240000):
    goodput = {}
    for hedge in ("hedge", "no-hedge"):
        path = "%s/ladder-%d-%s.json" % (sys.argv[1], rate, hedge)
        goodput[hedge] = json.load(open(path))["derived"][
            "result.goodput_ops_per_sec"]
    print(f"ladder {rate}: hedged {goodput['hedge']:.0f}, "
          f"unhedged {goodput['no-hedge']:.0f} ops/s")
    failed |= goodput["hedge"] < goodput["no-hedge"]
if failed:
    sys.exit("hedge ladder gate: hedging lowered goodput on a rung")
EOF

fault_smoke() {
    local build="$1"
    # The robustness headline on a 3-node R=3 cluster: exit 1 on any lost
    # key or unfinished request.
    local headline=(--workload=faults --duration=0.4 --keys=800 --slices=4
                    --scale=0.02)
    "$build/tools/sdfsim" "${headline[@]}" > "$obs_tmp/fc.txt"
    # A printed plan replays to the random-plan run's fingerprint.
    "$build/tools/sdfsim" "${headline[@]}" --print-plan > "$obs_tmp/fc.plan"
    "$build/tools/sdfsim" "${headline[@]}" --fault-plan="$obs_tmp/fc.plan" \
        > "$obs_tmp/fc-replay.txt"
    grep '^fingerprint:' "$obs_tmp/fc.txt" > "$obs_tmp/fc.fp"
    grep '^fingerprint:' "$obs_tmp/fc-replay.txt" > "$obs_tmp/fc-replay.fp"
    cmp "$obs_tmp/fc.fp" "$obs_tmp/fc-replay.fp"
    # Same seed => byte-identical stats.
    "$build/tools/sdfsim" --workload=faults --duration=0.4 \
        --stats-json="$obs_tmp/f1.json" > /dev/null
    "$build/tools/sdfsim" --workload=faults --duration=0.4 \
        --stats-json="$obs_tmp/f2.json" > /dev/null
    cmp "$obs_tmp/f1.json" "$obs_tmp/f2.json"
    python3 tools/validate_stats.py "$obs_tmp/f1.json"
}
echo "== fault campaign smoke =="
fault_smoke ./build

echo "== bad input =="
# Unusable flag values are rejected with a message and exit 1 — never an
# abort (134), a trap from deep inside the engine, or a hang: each case
# runs under a timeout, so a hang fails the loop instead of stalling it.
# A line may carry several flags; $flags is word-split on purpose. Float
# flags take no NaN or infinity, times must fit the clock, and so must
# the times in a fault plan (one bad plan per file below).
echo "100 stall 0 0 1e300" > "$obs_tmp/stall-past-clock.plan"
echo "1e300 stall 0 0 5" > "$obs_tmp/time-past-clock.plan"
echo "100 failslow 0 0 50 1e300" > "$obs_tmp/failslow-factor.plan"
while read -r workload flags; do
    rc=0
    # shellcheck disable=SC2086
    timeout 60 ./build/tools/sdfsim --workload="$workload" $flags \
        > /dev/null 2>&1 || rc=$?
    if [ "$rc" -ne 1 ]; then
        echo "sdfsim --workload=$workload $flags: exit $rc, want 1" >&2
        exit 1
    fi
done <<EOF
ycsb --profile=bogus
ycsb --nodes=x
ycsb --keys=0
ycsb --arrival-rate=0
ycsb --scan-limit=0
faults --replicas=0
faults --replicas=-1
faults --faults=-1
faults --keys=12abc
faults --fault-plan=/nonexistent
faults --fault-plan=$obs_tmp/stall-past-clock.plan
faults --fault-plan=$obs_tmp/time-past-clock.plan
faults --fault-plan=$obs_tmp/failslow-factor.plan
faults --duration=0
faults --rber=nan
faults --rber=2
faults --endurance=-1
randread --rber=1e300
randread --rber=-0.1
randread --endurance=0 --errors
randread --wear-factor=-1
randread --endurance=4294967296
randread --ecc-bits=-1
randread --ecc-bits=4294967296
randread --retry-levels=-1
randread --retry-levels=4294967296
cluster --slices=0
kvread --slices=0
seqread --channels=0
seqread --channels=45
randread --request=0
randread --request=8kb
randread --request=8kk
randread --device=huawei --qd=0
kvread --batch=0
overload --window=0
overload --coalesce=0
overload --storm=0
overload --storm=-1
ycsb --theta=0
ycsb --theta=-1
cluster --nodes=1 --replication=1 --restart-node=0
cluster --nodes=1 --replication=1 --kill-node=0 --rebalance
ycsb --nodes=1 --replication=1 --kill-node=0 --rebalance
seqread --device=bogus
randread --device=sdf --request=3k
seqread --device=sdf --request=16m
randwrite --device=huawei --op=1.5
randread --device=huawei --request=3k
seqread --scale=-1
seqread --scale=0
seqread --warmup=-1
ycsb --engine=heap
ycsb --trace=/dev/null --trace-limit=-1
ycsb --trace=/dev/null --trace-limit=12abc
ycsb --stats-series=/dev/null --series-interval-ms=5ms
ycsb --stats-series=/dev/null --series-interval-ms=0
ycsb --stats-csv=/dev/null
overload --fail-slow-node=1 --fail-slow-factor=nan
overload --fail-slow-node=1 --fail-slow-factor=1e300
overload --fail-slow-node=1 --fail-slow-factor=-3
ycsb --arrival-rate=inf
ycsb --arrival-rate=1e300
ycsb --theta=inf
ycsb --deadline-ms=1e300
ycsb --deadline-ms=-1
randread --duration=1e300
randread --warmup=1e300
kvwrite --device=memblaze
cluster --device=memblaze
faults --device=huawei
cluster --device=huawei --kill-node=0
EOF
# The open-loop modes do run a one-node restart: ops are rejected while
# the ring is empty, but arrivals keep the clock moving.
timeout 60 ./build/tools/sdfsim --workload=overload --nodes=1 \
    --replication=1 --restart-node=0 --duration=0.2 > /dev/null

echo "== benchmark selftest =="
# Builds sdfbench/ against this tree, so a cluster or client API change
# the benchmark calls fails here and not only in the pipeline; then checks
# that the decorated and plain stacks dispatch the same events.
python3 sdfbench/run.py --selftest 1

echo "== warnings-as-errors build =="
cmake -B build-werror -S . -DSDF_WERROR=ON > /dev/null
cmake --build build-werror -j
(cd build-werror && ctest --output-on-failure -j "$@")

echo "== sanitizer build (ASan+UBSan) =="
cmake -B build-asan -S . -DSDF_SANITIZE=ON > /dev/null
cmake --build build-asan -j
(cd build-asan && ctest --output-on-failure -j "$@")
# The pieced compaction path beside unit writes under the sanitizers.
./build-asan/tools/sdfsim --device=sdf --workload=kvwrite --slices=16 \
    --duration=2 > /dev/null
# The reliability walkthrough (wear-out, bit-error sampling) under the
# sanitizers.
./build-asan/examples/wear_and_reliability > /dev/null
# On-demand reads beside unit writes (traced) under the sanitizers.
./build-asan/examples/production_day --trace="$obs_tmp/pd-asan.trace.json" \
    > /dev/null
rm -f "$obs_tmp/pd-asan.trace.json"
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
# The ycsb storm under the sanitizers: phased arrivals, hot-range skew,
# cluster scan fan-out/merge, and per-phase accounting.
./build-asan/tools/sdfsim --workload=ycsb --profile=storm --nodes=3 \
    --replication=2 --duration=0.2 --arrival-rate=30000 > /dev/null
./build-asan/tools/sdfsim --workload=ycsb --profile=e --nodes=3 \
    --replication=2 --duration=0.2 --arrival-rate=400 --keys=200 \
    > /dev/null
# Disruptions under YCSB traffic (restart + rebalance, fail-slow window),
# on SDF and on the conventional SSD's extent allocator.
./build-asan/tools/sdfsim --workload=ycsb --profile=a --nodes=3 \
    --replication=2 --duration=0.3 --restart-node=1 > /dev/null
./build-asan/tools/sdfsim --device=huawei --workload=ycsb --profile=a \
    --nodes=3 --replication=2 --duration=0.3 --restart-node=1 > /dev/null
./build-asan/tools/sdfsim --workload=ycsb --nodes=3 --replication=2 \
    --duration=0.2 --fail-slow-node=1 > /dev/null
# The fault campaign (injector, retry ladder, failover + read-repair, plan
# replay) under the sanitizers.
fault_smoke ./build-asan

echo "All checks passed."
