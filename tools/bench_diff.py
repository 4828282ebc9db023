#!/usr/bin/env python3
"""Compare a scale_fleet result against a checked-in baseline.

Reads the BENCH_scale.json written by bench/scale_fleet and compares the
serial ("incremental" series) events_per_sec for every N against the baseline file. The
check fails when any point drops below --min-ratio of its baseline (default
0.7: a >30% throughput regression). Faster-than-baseline results pass; use
--update-baseline to ratchet the baseline forward after a deliberate
improvement.

Wall-clock numbers differ between machines, so the baseline is a floor
against catastrophic regressions (an accidentally-disabled incremental
path shows up as a 2-7x drop), not a precise performance contract.

When the result carries a "threaded" series (scale_fleet --threads=...),
further gates apply:
  * every threads_speedup row must report trace_identical (the parallel
    executor's byte-identity contract) — unconditional;
  * the best multi-thread speedup must reach min(2.0, 0.5 * min(threads,
    hardware_threads)) — but only when the recorded hardware_threads >= 2,
    since a single-core machine (most CI containers) cannot exhibit any
    parallel speedup, only verify identity;
  * crossed-topology rows (--topology=crossed) carry a HARD x2.0 floor,
    armed only when hardware_threads >= 4 — that workload is built to
    parallelize, so failing to double on a quad is a regression;
  * when the baseline carries a "crossed" block, every crossed threaded
    row must satisfy its epochs_min / cross_deliveries_min floors. These
    are virtual-time workload-shape invariants (machine-independent): a
    run that collapses to one epoch or zero cross-shard deliveries is
    silently benchmarking the embarrassingly-parallel case, and its
    speedup number is meaningless.

A result file that is not valid JSON is a hard failure (exit 1), not a
usage error: the bench emitter wrote it, so broken JSON means the emitter
regressed (a stray separator once did exactly that) and CI must go red.

The store-layer column (trace_encode_ms) is warn-only: pathological values
print a WARNING for the CI log but never change the exit code — see
warn_store_columns.

Usage:
  tools/bench_diff.py RESULT.json [--baseline=bench/baselines/scale_fleet.json]
                                  [--min-ratio=0.7] [--update-baseline]

Exit codes: 0 ok / baseline seeded or updated, 1 regression, 2 usage error.
Only the Python standard library is used.
"""

import json
import os
import sys


def load_points(path):
    """Returns {n: events_per_sec} for the incremental series in `path`."""
    with open(path) as fh:
        doc = json.load(fh)
    series = doc.get("incremental")
    if not series:
        raise ValueError(f"{path}: no incremental series; not a scale_fleet result")
    points = {}
    for point in series:
        points[int(point["n"])] = float(point["events_per_sec"])
    return points


def warn_store_columns(doc):
    """Warn-only visibility for the store-layer columns (PR 6).

    trace_encode_ms is a wall-clock measurement of the trace serializer. It
    varies too much across machines to gate hard, and a slow encode is a
    nuisance, not a correctness problem — so out-of-range values print a
    WARNING and never flip the exit code. The thresholds only exist to make a pathological
    regression (say, an accidentally quadratic encoder) visible in CI logs.
    """
    rows = list(doc.get("threaded") or []) + [
        dict(row, threads=1) for row in doc.get("incremental") or []
    ]
    for row in rows:
        n = int(row.get("n", 0))
        encode_ms = row.get("trace_encode_ms")
        if encode_ms is not None and row.get("events"):
            # >2 us per event is an order of magnitude beyond the measured
            # encoder cost; flag it, loudly but harmlessly.
            per_event_us = 1000.0 * float(encode_ms) / float(row["events"])
            if per_event_us > 2.0:
                print(
                    f"  WARNING n={n}: trace encode {float(encode_ms):.1f} ms "
                    f"({per_event_us:.2f} us/event) — encoder may have regressed"
                )


def check_threaded(doc):
    """Gates the parallel-executor series. Returns True when it passes."""
    speedups = doc.get("threads_speedup")
    if not speedups:
        return True
    ok = True
    for row in speedups:
        if not row.get("trace_identical", False):
            print(
                f"  threads={row['threads']} n={row['n']}: trace NOT identical "
                f"to threads=1 — determinism violation",
                file=sys.stderr,
            )
            ok = False
    hardware = int(doc.get("hardware_threads", 1))
    if hardware < 2:
        print(f"  speedup gate skipped: {hardware} hardware thread(s); identity still checked")
        return ok
    # Best speedup per (topology, n); floors differ by topology.
    best = {}
    for row in speedups:
        key = (str(row.get("topology", "isolated")), int(row["n"]))
        if row["wall_clock"] > best.get(key, (0, 0))[0]:
            best[key] = (float(row["wall_clock"]), int(row["threads"]))
    for (topology, n), (speedup, threads) in sorted(best.items()):
        if topology == "crossed":
            # The crossed workload is the tentpole claim: >= 2x at 4 threads
            # on real multicore hardware, no scaling excuses.
            if hardware < 4:
                print(
                    f"  [{topology}] n={n}: speedup x{speedup:.2f} recorded; "
                    f"x2.0 floor needs >=4 hw threads (have {hardware}), skipped"
                )
                continue
            floor = 2.0
        else:
            floor = min(2.0, 0.5 * min(threads, hardware))
        status = "ok" if speedup >= floor else "TOO SLOW"
        print(
            f"  [{topology}] n={n}: best parallel speedup x{speedup:.2f} at {threads} "
            f"threads (floor x{floor:.2f}, {hardware} hw threads) {status}"
        )
        ok = ok and speedup >= floor
    return ok


def check_crossed_shape(doc, baseline_doc):
    """Workload-shape floors for crossed rows. Returns True when it passes.

    epochs and cross_deliveries are virtual-time quantities — identical on
    every machine for a fixed (seed, n, shards) — so the baseline can pin
    hard minimums. A crossed run that degrades to epochs=1 or
    cross_deliveries=0 has lost the cross-shard coupling entirely (the
    executor stopped windowing, or the workload stopped crossing), and the
    speedup it reports is for the wrong experiment.
    """
    mins = (baseline_doc or {}).get("crossed")
    rows = [r for r in doc.get("threaded") or [] if r.get("topology") == "crossed"]
    if not rows or not mins:
        return True
    epochs_min = int(mins.get("epochs_min", 2))
    deliveries_min = int(mins.get("cross_deliveries_min", 1))
    ok = True
    for row in rows:
        epochs = int(row.get("epochs", 0))
        deliveries = int(row.get("cross_deliveries", 0))
        if epochs < epochs_min or deliveries < deliveries_min:
            print(
                f"  [crossed] n={row['n']} threads={row['threads']}: epochs={epochs} "
                f"(min {epochs_min}), cross_deliveries={deliveries} (min {deliveries_min}) "
                f"— workload no longer crosses shards",
                file=sys.stderr,
            )
            ok = False
    if ok:
        print(
            f"  crossed shape ok: {len(rows)} row(s) >= {epochs_min} epochs, "
            f">= {deliveries_min} cross-deliveries"
        )
    return ok


def main(argv):
    baseline_path = os.path.join("bench", "baselines", "scale_fleet.json")
    min_ratio = 0.7
    update = False
    result_path = None
    for arg in argv[1:]:
        if arg.startswith("--baseline="):
            baseline_path = arg.split("=", 1)[1]
        elif arg.startswith("--min-ratio="):
            min_ratio = float(arg.split("=", 1)[1])
        elif arg == "--update-baseline":
            update = True
        elif arg.startswith("--"):
            print(f"bench_diff: unknown flag {arg}", file=sys.stderr)
            return 2
        else:
            result_path = arg
    if result_path is None:
        print(__doc__, file=sys.stderr)
        return 2

    try:
        result = load_points(result_path)
        with open(result_path) as fh:
            result_doc = json.load(fh)
    except json.JSONDecodeError as err:
        # Not a usage error: the bench emitter WROTE this file, so broken
        # JSON means the emitter itself regressed. Fail the build, loudly.
        print(
            f"bench_diff: {result_path} is not valid JSON ({err}) — the bench "
            f"emitter produced corrupt output; every downstream consumer of "
            f"this file is now blind",
            file=sys.stderr,
        )
        return 1
    except (OSError, ValueError, KeyError) as err:
        print(f"bench_diff: {err}", file=sys.stderr)
        return 2

    threaded_ok = check_threaded(result_doc)
    warn_store_columns(result_doc)

    if update or not os.path.exists(baseline_path):
        os.makedirs(os.path.dirname(baseline_path) or ".", exist_ok=True)
        new_baseline = {"bench": "scale_fleet", "events_per_sec": result}
        crossed_rows = [r for r in result_doc.get("threaded") or []
                        if r.get("topology") == "crossed"]
        if crossed_rows:
            # Conservative shape floors: half the observed minimum, but never
            # below the degenerate thresholds (epochs=1 / deliveries=0 must
            # always fail). epochs/cross_deliveries are virtual-time values,
            # stable across machines for a fixed workload.
            new_baseline["crossed"] = {
                "epochs_min": max(2, min(int(r.get("epochs", 0)) for r in crossed_rows) // 2),
                "cross_deliveries_min": max(
                    1, min(int(r.get("cross_deliveries", 0)) for r in crossed_rows) // 2),
            }
        with open(baseline_path, "w") as fh:
            json.dump(new_baseline, fh, indent=2)
            fh.write("\n")
        verb = "updated" if update else "seeded"
        print(f"bench_diff: {verb} baseline {baseline_path} from {result_path}")
        return 0 if threaded_ok else 1

    try:
        with open(baseline_path) as fh:
            baseline_doc = json.load(fh)
        baseline = {int(n): float(v) for n, v in baseline_doc["events_per_sec"].items()}
    except (OSError, ValueError, KeyError) as err:
        print(f"bench_diff: bad baseline {baseline_path}: {err}", file=sys.stderr)
        return 2

    crossed_ok = check_crossed_shape(result_doc, baseline_doc)

    failed = False
    for n in sorted(result):
        if n not in baseline:
            print(f"  n={n}: {result[n]:.0f} events/s (no baseline point, skipped)")
            continue
        ratio = result[n] / baseline[n] if baseline[n] > 0 else float("inf")
        status = "ok" if ratio >= min_ratio else "REGRESSION"
        failed = failed or ratio < min_ratio
        print(
            f"  n={n}: {result[n]:.0f} events/s vs baseline {baseline[n]:.0f} "
            f"(x{ratio:.2f}, floor x{min_ratio:.2f}) {status}"
        )
    if failed:
        print(f"bench_diff: below {min_ratio:.2f}x of baseline; investigate or "
              f"re-baseline deliberately with --update-baseline", file=sys.stderr)
        return 1
    if not threaded_ok:
        print("bench_diff: parallel executor gate failed", file=sys.stderr)
        return 1
    if not crossed_ok:
        print("bench_diff: crossed workload shape gate failed", file=sys.stderr)
        return 1
    print("bench_diff: within budget")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
