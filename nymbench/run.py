#!/usr/bin/env python3
"""Host-cost benchmark of the Nymix simulator.

Measures what it costs the host to simulate nymboxes: wall time to set up
and to run a workload, peak resident memory, and (traced) where the time
goes layer by layer. Virtual-time results are fixed by the model, so every
run also checks them against the values recorded in expected.json.

    python3 nymbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 nymbench/run.py --workload all --seed 13 --seconds 10 --trace 0

Run from anywhere; paths resolve against this file. The first run builds
nymbench.cc and the repository's src/ with CMake into $CARGO_TARGET_DIR
(default .bench_build at the repository root); later runs rebuild only what
changed. Each workload iteration runs in its own process
(nymbench --workload ...), with tracing off unless --trace 1. Iterations
repeat for about --seconds (a round starts if half of it fits). setup_s and
run_s are the fastest of the run's samples: every iteration does the same
deterministic work, so the spread between them is host interference, which
only ever adds time. peak_rss_mb is their median.

--trace 0 prints every end-to-end metric of BENCHMARK.json; --trace 1
alternates untraced and traced iterations and prints every per-layer
metric (medians over the traced iterations), including obs.overhead_frac
(median over back-to-back pairs of traced run_s / untraced run_s, - 1), and
writes the benchmark's own spans to <build dir>/spans/.

The last line of stdout is one JSON object:
  {"correct": bool, "attempted": int, "failed": int,
   "metrics": {name: {"value": number, "unit": str}}}
Exit status: 0 after a result, 1 if the benchmark cannot run (missing
sources, build failure), 2 on a usage error.
"""
import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("fleet_churn", "fleet_crossed", "adversary_mixed", "nym_persist")
CROSSED_MAX_THREADS = 4
# Set-up is short next to a run, so each round adds set-up-only processes
# to give setup_s a median over more samples.
SETUP_ONLY_PER_ROUND = 2
# An iteration takes seconds; a hung one must not keep the run past its limit.
ITERATION_TIMEOUT_S = 60


def fail(message):
    print("nymbench: " + message, file=sys.stderr)
    sys.exit(1)


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def parse_args(argv):
    def positive(text):
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError("not a number: %r" % text)
        if not value > 0 or value > 3600:
            raise argparse.ArgumentTypeError("want 0 < seconds <= 3600, got %r" % text)
        return value

    def seed(text):
        if not text.isdigit():
            raise argparse.ArgumentTypeError("want a non-negative integer, got %r" % text)
        return int(text)

    parser = argparse.ArgumentParser(
        prog="run.py", allow_abbrev=False,
        description="Host-cost benchmark of the Nymix simulator (see BENCHMARK.json).")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", required=True, type=seed,
                        help="selects the workload inputs; same seed, same inputs")
    parser.add_argument("--seconds", required=True, type=positive,
                        help="how long to keep repeating iterations")
    parser.add_argument("--trace", required=True, choices=("0", "1"),
                        help="0: end-to-end metrics; 1: per-layer metrics")
    parser.add_argument("--tiny", action="store_true",
                        help="self-test size (8 nyms, 2 cycles); skips expected.json")
    return parser.parse_args(argv)


# --- build -----------------------------------------------------------------

def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/ next to %s: run from a full checkout" % BENCH_DIR)
    out = build_dir()
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "--target", "nymbench", "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))
    return os.path.join(out, "nymbench")


def stamp():
    digest = hashlib.sha256()
    for top in ("src", os.path.basename(BENCH_DIR)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        git = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = git.stdout.strip() if git.returncode == 0 else None
    return {"nproc": len(os.sched_getaffinity(0)), "git_commit": commit,
            "source_sha256": digest.hexdigest()}


# --- one iteration ---------------------------------------------------------

def harness(binary, args):
    """Runs the harness once; returns its JSON result, or None if it failed."""
    try:
        proc = subprocess.run([binary] + args, capture_output=True, text=True,
                              timeout=ITERATION_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("nymbench: %s timed out" % " ".join(args), file=sys.stderr)
        return None
    if proc.returncode != 0:
        print("nymbench: %s exited %d: %s" % (" ".join(args), proc.returncode,
                                              proc.stderr.strip()[-2000:]), file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Workload:
    """One workload at one seed: its fixed arguments and expected outputs."""

    def __init__(self, binary, name, seed, tiny, expected):
        self.binary = binary
        self.name = name
        seeds = expected["seeds"]
        # --seed N picks one of the recorded seeds, so every run's
        # virtual-time outputs can be checked exactly.
        self.program_seed = seeds[seed % len(seeds)]
        self.expected = None if tiny else expected["outputs"][name][str(self.program_seed)]
        self.args = ["--workload=" + name, "--seed=%d" % self.program_seed]
        if tiny:
            self.args.append("--tiny")
        if name == "fleet_crossed":
            # The BalancedPlacement is part of the workload definition: one
            # serial calibration per seed, before and outside any timing.
            calibration = harness(binary, self.args + ["--calibrate"])
            if calibration is None:
                fail("fleet_crossed calibration failed")
            threads = min(CROSSED_MAX_THREADS, len(os.sched_getaffinity(0)))
            self.args += ["--threads=%d" % threads, "--placement=" + calibration["placement"]]
        self.reference_outputs = None

    def setup_only(self):
        """Runs set-up only, in a fresh process; returns its setup_s or None."""
        result = harness(self.binary, self.args + ["--setup-only"])
        return None if result is None else result["setup_s"]

    def iterate(self, traced):
        """Runs once; returns (result or None, failure reason or None)."""
        result = harness(self.binary, self.args + (["--trace"] if traced else []))
        if result is None:
            return None, "iteration crashed"
        outputs = result["outputs"]
        if self.expected is not None and outputs != self.expected:
            return result, "outputs %s != expected %s" % (outputs, self.expected)
        # Traced and untraced runs must agree on every virtual-time output.
        if self.reference_outputs is None:
            self.reference_outputs = outputs
        elif outputs != self.reference_outputs:
            return result, "outputs %s != first iteration's %s" % (outputs, self.reference_outputs)
        if result["failed"]:
            return result, "%d failed operations" % result["failed"]
        return result, None


def percentile(values, p):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def measure(workload, seconds, trace):
    """Repeats iterations for `seconds`; returns aggregated figures."""
    runs = {False: [], True: []}
    setups = []
    attempted = failed = 0
    reasons = []
    start = time.monotonic()
    rounds = []
    modes = [False, True] if trace else [False]
    # Start another round only if at least half of it fits in `seconds`, so
    # a run takes about `seconds` whatever the workload's iteration length.
    while not rounds or time.monotonic() - start + statistics.median(rounds) / 2 <= seconds:
        round_start = time.monotonic()
        for traced in modes:
            result, reason = workload.iterate(traced)
            if result is None:
                attempted += 1
            else:
                attempted += result["attempted"]
                failed += result["failed"]
                runs[traced].append(result)
            if reason is not None:
                # A crashed run or a wrong output is one more failure.
                failed += 1
                reasons.append(reason)
        if not trace:
            for _ in range(SETUP_ONLY_PER_ROUND):
                setup_s = workload.setup_only()
                if setup_s is None:
                    attempted, failed = attempted + 1, failed + 1
                    reasons.append("set-up crashed")
                else:
                    setups.append(setup_s)
        rounds.append(time.monotonic() - round_start)
    return runs, setups, attempted, failed, reasons


def end_to_end(runs, setups):
    plain = runs[False]
    setups = setups + [r["setup_s"] for r in plain]
    figures = {"setup_s": min(setups), "run_s": min(r["run_s"] for r in plain),
               "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain)}
    for op in ("load", "save"):
        samples = [ms for r in plain for ms in r["latencies"].get(op + "_ms", [])]
        if samples:
            figures[op + "_p50_ms"] = percentile(samples, 50)
            figures[op + "_p90_ms"] = percentile(samples, 90)
            figures[op + "_samples"] = len(samples)
    return figures


def per_layer(workload, runs, layer_map, untraced):
    """Medians over the traced iterations; op latencies come from the
    untraced ones (`untraced` is end_to_end(runs))."""
    traced = runs[True]
    figures = {}
    for name, info in layer_map.items():
        if name == "obs.overhead_frac":
            # Each traced iteration runs right after an untraced one; the
            # pairwise ratio cancels host slowdowns that span both.
            figures[name] = statistics.median(
                t["run_s"] / u["run_s"] for u, t in zip(runs[False], traced)) - 1
        elif workload not in info["applies_to"]:
            figures[name] = 0
        elif name.startswith("core.") and name[len("core."):] in untraced:
            figures[name] = untraced[name[len("core."):]]
        else:
            values = [r["layers"][name] for r in traced if name in r["layers"]]
            if len(values) != len(traced):
                fail("%s did not report %s" % (workload, name))
            figures[name] = statistics.median(values)
    return figures


def write_spans(workload, seed, runs):
    """Writes the benchmark's spans (with self time) to a new file."""
    directory = os.path.join(build_dir(), "spans")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, "%s-seed%d-%d.json" % (workload, seed, time.time_ns()))
    records = []
    for traced, results in runs.items():
        for r in results:
            spans = r["spans"]
            child_ms = [0.0] * len(spans)
            for span in spans:
                if span["parent"] >= 0:
                    child_ms[span["parent"]] += span["end_ms"] - span["start_ms"]
            for i, span in enumerate(spans):
                records.append({"run_id": r["run_id"], "traced": traced, "id": i,
                                "parent": span["parent"], "name": span["name"],
                                "start_ms": span["start_ms"], "end_ms": span["end_ms"],
                                "self_ms": span["end_ms"] - span["start_ms"] - child_ms[i]})
    with open(path, "x") as f:  # "x": never overwrite an earlier artifact
        json.dump({"workload": workload, "seed": seed, "spans": records}, f)
    return path


def print_figure(name, value, unit):
    print("%-28s %16.6g %s" % (name, value, unit))


def run_workload(binary, name, args, bench, expected, layer_map, info):
    workload = Workload(binary, name, args.seed, args.tiny, expected)
    trace = args.trace == "1"
    runs, setups, attempted, failed, reasons = measure(workload, args.seconds, trace)
    for reason in reasons:
        print("nymbench: %s seed %d: %s" % (name, workload.program_seed, reason), file=sys.stderr)
    if not runs[False] or (trace and not runs[True]):
        return {}, attempted, failed, False
    first = runs[False][0]
    print("# %s: seed %d -> program seed %d; %d untraced + %d traced iterations, %d set-ups; "
          "stamp %s" % (name, args.seed, workload.program_seed, len(runs[False]),
                        len(runs[True]), len(setups) + len(runs[False]),
                        json.dumps(dict(info, **first["stamp"]), sort_keys=True)))
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    units["failed_frac"] = "ratio"
    for traced in sorted(runs):
        print("# %s run_s per iteration: %s" % ("traced" if traced else "untraced",
                                               " ".join("%.4f" % r["run_s"] for r in runs[traced])))
    print("# setup_s per set-up: " + " ".join(
        "%.4f" % s for s in setups + [r["setup_s"] for r in runs[False]]))
    figures = end_to_end(runs, setups)
    figures["failed_frac"] = failed / attempted
    for key, value in sorted(figures.items()):
        print_figure(key, value, units.get(key) or ("count" if key.endswith("_samples") else "ms"))
    if trace:
        figures = per_layer(name, runs, layer_map, figures)
        wanted = bench["per_layer"]
        print("# spans: " + write_spans(name, args.seed, runs))
        for key, value in sorted(figures.items()):
            print_figure(key, value, units[key])
    else:
        wanted = bench["end_to_end"]
    metrics = {m["name"]: {"value": figures[m["name"]], "unit": m["unit"]} for m in wanted}
    return metrics, attempted, failed, not reasons


def main(argv):
    args = parse_args(argv)
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    expected = load_json(os.path.join(BENCH_DIR, "expected.json"))
    layer_map = load_json(os.path.join(BENCH_DIR, "layers.json"))
    if sorted(layer_map) != sorted(m["name"] for m in bench["per_layer"]):
        fail("layers.json and BENCHMARK.json disagree on the per-layer metrics")
    binary = build()
    info = stamp()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        m, a, f, ok = run_workload(binary, name, args, bench, expected, layer_map, info)
        correct, attempted, failed = correct and ok, attempted + a, failed + f
        prefix = name + "." if args.workload == "all" else ""
        metrics.update({prefix + k: v for k, v in m.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
