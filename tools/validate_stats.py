#!/usr/bin/env python3
"""Validate sdfsim/bench observability exports.

Checks that a --stats-json document is well-formed and that its core
invariant holds: for every operation class, the per-stage latency means
sum to the end-to-end mean (within a tolerance; the cut-point span
construction makes it exact up to float rounding). This covers the
cluster critical path too: client.path.get / client.path.put segments
(client_queue, rpc_wire, admission, server_handle, storage, hedge_wait)
must tile the client-observed end-to-end latency across RPC hops exactly
like the device stages tile a device request. Optionally validates a
--trace export (parses as JSON, has traceEvents and a dropped_events
count, carries the expected per-channel tracks, and no two events on one
flash bus or plane track overlap) and a --series export
(windows are monotone, contiguous, and no wider than the interval).

Usage:
    validate_stats.py STATS.json [--trace=TRACE.json] [--channels=N]
                      [--series=SERIES.json] [--require-op=OP]...
                      [--check-phases] [--tolerance=0.01]

--require-op fails unless stages.OP is present with count > 0 (used by
check.sh to prove the cluster path attribution actually ran).

--check-phases validates a phased workload export (sdfsim
--workload=ycsb): derived must carry at least one
result.phase.<name>.issued section, and the per-phase issued/completed/
slo_violations must sum exactly to the run-level result.* totals —
attribution by issue time makes the phase boundary accounting exact, so
any mismatch is a real bug, not rounding.

Exit status 0 when every check passes; 1 with a message per failure.
"""

import json
import re
import sys

REQUIRED_TOP_KEYS = ("meta", "derived", "counters", "gauges", "histograms",
                     "stages")
REQUIRED_STAGE_KEYS = ("count", "end_to_end_ns_mean", "end_to_end_ns_p50",
                       "end_to_end_ns_p99", "end_to_end_ns_max",
                       "stage_ns_mean")


def fail(msg):
    print("validate_stats: FAIL: %s" % msg)
    return 1


def check_stats(path, tolerance, require_ops=()):
    rc = 0
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        return fail("%s: %s" % (path, e))

    for op in require_ops:
        if op not in doc.get("stages", {}):
            rc |= fail("%s: required stage op %r is missing" % (path, op))

    for key in REQUIRED_TOP_KEYS:
        if key not in doc:
            rc |= fail("%s: missing top-level key %r" % (path, key))
    if rc:
        return rc

    if not doc["stages"]:
        print("validate_stats: note: %s has no stage records" % path)
    for op, s in sorted(doc["stages"].items()):
        for key in REQUIRED_STAGE_KEYS:
            if key not in s:
                rc |= fail("%s: stages.%s missing %r" % (path, op, key))
        if rc:
            continue
        if s["count"] <= 0:
            rc |= fail("%s: stages.%s has count %s" % (path, op, s["count"]))
            continue
        stage_sum = sum(s["stage_ns_mean"].values())
        e2e = s["end_to_end_ns_mean"]
        if e2e <= 0:
            rc |= fail("%s: stages.%s end_to_end_ns_mean is %s"
                       % (path, op, e2e))
            continue
        rel = abs(stage_sum - e2e) / e2e
        if rel > tolerance:
            rc |= fail("%s: stages.%s stage means sum to %.1f but "
                       "end-to-end mean is %.1f (rel err %.3g > %.3g)"
                       % (path, op, stage_sum, e2e, rel, tolerance))
        else:
            print("validate_stats: %s: stages.%s ok (count %d, "
                  "sum/e2e rel err %.3g)" % (path, op, s["count"], rel))

    for name, h in sorted(doc["histograms"].items()):
        for key in ("count", "min", "max", "mean", "p50", "p99", "p999"):
            if key not in h:
                rc |= fail("%s: histograms.%s missing %r" % (path, name, key))
    return rc


def check_phases(path):
    """Exact per-phase accounting in a phased workload's derived keys."""
    rc = 0
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        return fail("%s: %s" % (path, e))

    derived = doc.get("derived", {})
    phases = {}
    for key, value in derived.items():
        m = re.fullmatch(r"result\.phase\.([^.]+)\.(\w+)", key)
        if m:
            phases.setdefault(m.group(1), {})[m.group(2)] = value
    if not phases:
        return fail("%s: no result.phase.* sections in derived" % path)

    for name, section in sorted(phases.items()):
        for want in ("issued", "completed", "p99_ms", "slo_violations"):
            if want not in section:
                rc |= fail("%s: phase %r missing derived key %r"
                           % (path, name, want))
    if rc:
        return rc

    for total_key in ("issued", "completed", "slo_violations"):
        total = derived.get("result.%s" % total_key)
        if total is None:
            rc |= fail("%s: missing derived result.%s" % (path, total_key))
            continue
        phase_sum = sum(s[total_key] for s in phases.values())
        if phase_sum != total:
            rc |= fail("%s: per-phase %s sums to %s but result.%s is %s"
                       % (path, total_key, phase_sum, total_key, total))
    if rc == 0:
        print("validate_stats: %s: phases ok (%d phases, counts sum "
              "exactly to totals)" % (path, len(phases)))
    return rc


def check_trace(path, channels):
    rc = 0
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        return fail("%s: %s" % (path, e))

    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        return fail("%s: no traceEvents" % path)
    # A capped sink must report how much it left out, in-band.
    if not isinstance(doc.get("dropped_events"), int):
        rc |= fail("%s: missing integer dropped_events field" % path)

    thread_names = set()
    flash = {}  # (pid, tid) -> [(start_ns, end_ns)] of one flash resource.
    for ev in events:
        if ev.get("ph") == "M" and ev.get("name") == "thread_name":
            thread_names.add(ev["args"]["name"])
        elif ev.get("ph") == "X":
            for key in ("name", "ts", "dur", "pid", "tid"):
                if key not in ev:
                    return fail("%s: X event missing %r: %r"
                                % (path, key, ev))
            if ev.get("cat") == "flash":
                start = round(ev["ts"] * 1000)
                flash.setdefault((ev["pid"], ev["tid"]), []).append(
                    (start, start + round(ev["dur"] * 1000)))
    bus_tracks = [n for n in thread_names
                  if re.fullmatch(r"(.+\.)?ch\d+\.bus", n)]
    if channels > 0 and len(bus_tracks) < channels:
        rc |= fail("%s: expected >= %d per-channel bus tracks, found %d"
                   % (path, channels, len(bus_tracks)))
    # A flash track is one bus or plane, which serves one command at a
    # time: overlapping events mean two resources share the track.
    overlaps = 0
    for spans in flash.values():
        spans.sort()
        busy_until = None
        for start, end in spans:
            if busy_until is not None and start < busy_until:
                overlaps += 1
            busy_until = end if busy_until is None else max(busy_until, end)
    if overlaps:
        rc |= fail("%s: %d overlapping event pairs on %d flash tracks"
                   % (path, overlaps, len(flash)))
    if rc == 0:
        print("validate_stats: %s: ok (%d events, %d tracks, %d channel "
              "bus tracks, no flash overlap)"
              % (path, len(events), len(thread_names), len(bus_tracks)))
    return rc


def check_series(path):
    rc = 0
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        return fail("%s: %s" % (path, e))

    segments = doc.get("series")
    if not isinstance(segments, list) or not segments:
        return fail("%s: no series segments" % path)
    total_windows = 0
    for seg in segments:
        label = seg.get("label", "?")
        interval = seg.get("interval_ns", 0)
        if interval <= 0:
            rc |= fail("%s: segment %r has interval_ns %s"
                       % (path, label, interval))
            continue
        windows = seg.get("windows", [])
        prev_end = None
        for i, w in enumerate(windows):
            start, end = w.get("start_ns"), w.get("end_ns")
            if start is None or end is None or start >= end:
                rc |= fail("%s: %s window %d has bad bounds [%s, %s)"
                           % (path, label, i, start, end))
                continue
            # Windows tile the segment: monotone, contiguous, and never
            # wider than the tick interval (the last one may be clipped).
            if prev_end is not None and start != prev_end:
                rc |= fail("%s: %s window %d starts at %d, previous "
                           "ended at %d (gap/overlap)"
                           % (path, label, i, start, prev_end))
            if end - start > interval:
                rc |= fail("%s: %s window %d spans %d ns > interval %d"
                           % (path, label, i, end - start, interval))
            prev_end = end
            for name, v in w.get("counters", {}).items():
                if not isinstance(v, int) or v < 0:
                    rc |= fail("%s: %s window %d counter %s = %r"
                               % (path, label, i, name, v))
        total_windows += len(windows)
    if rc == 0:
        print("validate_stats: %s: ok (%d segments, %d windows)"
              % (path, len(segments), total_windows))
    return rc


def main(argv):
    stats_path = None
    trace_path = None
    series_path = None
    require_ops = []
    channels = 0
    tolerance = 0.01
    phases = False
    for arg in argv[1:]:
        if arg.startswith("--trace="):
            trace_path = arg.split("=", 1)[1]
        elif arg.startswith("--series="):
            series_path = arg.split("=", 1)[1]
        elif arg.startswith("--require-op="):
            require_ops.append(arg.split("=", 1)[1])
        elif arg.startswith("--channels="):
            channels = int(arg.split("=", 1)[1])
        elif arg.startswith("--tolerance="):
            tolerance = float(arg.split("=", 1)[1])
        elif arg == "--check-phases":
            phases = True
        elif arg.startswith("--"):
            print(__doc__)
            return 2
        else:
            stats_path = arg
    if stats_path is None:
        print(__doc__)
        return 2

    rc = check_stats(stats_path, tolerance, require_ops)
    if phases:
        rc |= check_phases(stats_path)
    if trace_path is not None:
        rc |= check_trace(trace_path, channels)
    if series_path is not None:
        rc |= check_series(series_path)
    if rc == 0:
        print("validate_stats: PASS")
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv))
