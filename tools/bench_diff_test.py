#!/usr/bin/env python3
"""Unit tests for tools/bench_diff.py — the CI benchmark gate.

Each case builds a (BENCH_scale.json, baseline) fixture pair in a temp dir
and drives bench_diff.main() directly, asserting on the exit code and the
printed report. Covers the 30% throughput-regression gate, the parallel
trace-identity gate, the hardware_threads>=2 arming of the speedup floor,
the crossed-topology hard x2.0 floor (armed at hardware_threads>=4), the
crossed epochs/cross_deliveries shape floors, the hard failure on
unparseable bench JSON, the warn-only store columns, and baseline
seeding/ratcheting.

Run directly (python3 tools/bench_diff_test.py) or via ctest
(`ctest -R bench_diff`). Only the standard library is used.
"""

import contextlib
import importlib.util
import io
import json
import os
import sys
import tempfile
import unittest

_SPEC = importlib.util.spec_from_file_location(
    "bench_diff", os.path.join(os.path.dirname(os.path.abspath(__file__)), "bench_diff.py"))
bench_diff = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_diff)


def incremental(points, **extra):
    """A result doc with an incremental series of {n: events_per_sec}."""
    doc = {"bench": "scale_fleet",
           "incremental": [{"n": n, "events_per_sec": eps} for n, eps in sorted(points.items())]}
    doc.update(extra)
    return doc


def baseline(points):
    return {"bench": "scale_fleet",
            "events_per_sec": {str(n): eps for n, eps in points.items()}}


class BenchDiffCase(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self._tmp.cleanup)
        self.dir = self._tmp.name

    def write(self, name, doc):
        path = os.path.join(self.dir, name)
        with open(path, "w") as fh:
            json.dump(doc, fh)
        return path

    def run_diff(self, result_doc, baseline_doc=None, extra_args=()):
        """Returns (exit_code, stdout_text, stderr_text)."""
        result = self.write("BENCH_scale.json", result_doc)
        args = ["bench_diff.py", result]
        if baseline_doc is not None:
            args.append("--baseline=" + self.write("baseline.json", baseline_doc))
        else:
            args.append("--baseline=" + os.path.join(self.dir, "absent", "baseline.json"))
        args.extend(extra_args)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = bench_diff.main(args)
        return code, out.getvalue(), err.getvalue()

    # --- throughput gate ---------------------------------------------------

    def test_within_budget_passes(self):
        code, out, _ = self.run_diff(incremental({100: 1000.0, 1000: 900.0}),
                                     baseline({100: 1000.0, 1000: 1000.0}))
        self.assertEqual(code, 0)
        self.assertIn("within budget", out)

    def test_thirty_percent_regression_fails(self):
        # 0.69x is just below the default 0.7 floor: the gate must trip.
        code, out, err = self.run_diff(incremental({100: 690.0}),
                                       baseline({100: 1000.0}))
        self.assertEqual(code, 1)
        self.assertIn("REGRESSION", out)
        self.assertIn("re-baseline deliberately", err)

    def test_exactly_at_floor_passes(self):
        code, _, _ = self.run_diff(incremental({100: 700.0}), baseline({100: 1000.0}))
        self.assertEqual(code, 0)

    def test_faster_than_baseline_passes(self):
        code, _, _ = self.run_diff(incremental({100: 5000.0}), baseline({100: 1000.0}))
        self.assertEqual(code, 0)

    def test_min_ratio_flag_overrides_floor(self):
        code, _, _ = self.run_diff(incremental({100: 690.0}), baseline({100: 1000.0}),
                                   extra_args=["--min-ratio=0.5"])
        self.assertEqual(code, 0)

    def test_point_missing_from_baseline_is_skipped(self):
        code, out, _ = self.run_diff(incremental({100: 1000.0, 5000: 1.0}),
                                     baseline({100: 1000.0}))
        self.assertEqual(code, 0)
        self.assertIn("no baseline point", out)

    # --- baseline lifecycle ------------------------------------------------

    def test_missing_baseline_is_seeded(self):
        code, out, _ = self.run_diff(incremental({100: 1234.0}))
        self.assertEqual(code, 0)
        self.assertIn("seeded", out)
        seeded = os.path.join(self.dir, "absent", "baseline.json")
        with open(seeded) as fh:
            doc = json.load(fh)
        self.assertEqual(doc["events_per_sec"]["100"], 1234.0)

    def test_update_baseline_ratchets_forward(self):
        code, out, _ = self.run_diff(incremental({100: 2000.0}), baseline({100: 1000.0}),
                                     extra_args=["--update-baseline"])
        self.assertEqual(code, 0)
        self.assertIn("updated", out)
        with open(os.path.join(self.dir, "baseline.json")) as fh:
            self.assertEqual(json.load(fh)["events_per_sec"]["100"], 2000.0)

    # --- parallel executor gates -------------------------------------------

    def threaded_doc(self, identical, speedup, hardware):
        return incremental(
            {100: 1000.0},
            hardware_threads=hardware,
            threads_speedup=[{"n": 100, "threads": 4, "wall_clock": speedup,
                              "trace_identical": identical}])

    def test_trace_identity_violation_fails_even_on_one_core(self):
        # Identity is unconditional: even a single-hardware-thread machine
        # (where the speedup floor is disarmed) must fail on divergence.
        code, _, err = self.run_diff(self.threaded_doc(False, 2.0, hardware=1),
                                     baseline({100: 1000.0}))
        self.assertEqual(code, 1)
        self.assertIn("determinism violation", err)

    def test_speedup_floor_armed_with_multicore_hardware(self):
        # 4 threads on 8 hardware threads: floor = min(2.0, 0.5*4) = 2.0.
        code, out, err = self.run_diff(self.threaded_doc(True, 1.2, hardware=8),
                                       baseline({100: 1000.0}))
        self.assertEqual(code, 1)
        self.assertIn("TOO SLOW", out)
        self.assertIn("parallel executor gate failed", err)

    def test_speedup_floor_met_passes(self):
        code, _, _ = self.run_diff(self.threaded_doc(True, 2.1, hardware=8),
                                   baseline({100: 1000.0}))
        self.assertEqual(code, 0)

    def test_speedup_floor_disarmed_on_single_core(self):
        # Same slow speedup, but hardware_threads=1: only identity is checked.
        code, out, _ = self.run_diff(self.threaded_doc(True, 1.2, hardware=1),
                                     baseline({100: 1000.0}))
        self.assertEqual(code, 0)
        self.assertIn("speedup gate skipped", out)

    def test_floor_scales_down_with_fewer_threads(self):
        # 2 threads: floor = min(2.0, 0.5*2) = 1.0, so x1.2 passes.
        doc = incremental({100: 1000.0}, hardware_threads=8,
                          threads_speedup=[{"n": 100, "threads": 2, "wall_clock": 1.2,
                                            "trace_identical": True}])
        code, _, _ = self.run_diff(doc, baseline({100: 1000.0}))
        self.assertEqual(code, 0)

    # --- warn-only store columns -------------------------------------------

    def test_slow_trace_encode_warns_but_passes(self):
        doc = incremental({100: 1000.0})
        # 50 ms for 1000 events = 50 us/event: far past the 2 us threshold.
        doc["incremental"][0].update(events=1000, trace_encode_ms=50.0)
        code, out, _ = self.run_diff(doc, baseline({100: 1000.0}))
        self.assertEqual(code, 0)
        self.assertIn("WARNING", out)
        self.assertIn("encoder may have regressed", out)

    def test_healthy_store_columns_stay_quiet(self):
        doc = incremental({100: 1000.0})
        doc["incremental"][0].update(events=100000, trace_encode_ms=20.0)
        code, out, _ = self.run_diff(doc, baseline({100: 1000.0}))
        self.assertEqual(code, 0)
        self.assertNotIn("WARNING", out)

    # --- crossed-topology gates --------------------------------------------

    def crossed_doc(self, speedup, hardware, epochs=126, deliveries=576):
        """A result with one crossed threaded row + speedup row at 4 threads."""
        return incremental(
            {256: 1000.0},
            topology="crossed",
            hardware_threads=hardware,
            threaded=[{"n": 256, "threads": 4, "topology": "crossed",
                       "epochs": epochs, "cross_deliveries": deliveries}],
            threads_speedup=[{"n": 256, "threads": 4, "topology": "crossed",
                              "wall_clock": speedup, "trace_identical": True}])

    def crossed_baseline(self, epochs_min=2, deliveries_min=1):
        doc = baseline({256: 1000.0})
        doc["crossed"] = {"epochs_min": epochs_min, "cross_deliveries_min": deliveries_min}
        return doc

    def test_crossed_speedup_floor_is_hard_two_on_quad(self):
        # x1.5 would pass the generic min(2.0, 0.5*threads) floor at 3 hw
        # threads; the crossed floor is a hard x2.0 once hardware >= 4.
        code, out, err = self.run_diff(self.crossed_doc(1.5, hardware=4),
                                       self.crossed_baseline())
        self.assertEqual(code, 1)
        self.assertIn("TOO SLOW", out)
        self.assertIn("parallel executor gate failed", err)

    def test_crossed_speedup_floor_met_passes(self):
        code, out, _ = self.run_diff(self.crossed_doc(2.1, hardware=4),
                                     self.crossed_baseline())
        self.assertEqual(code, 0)
        self.assertIn("crossed shape ok", out)

    def test_crossed_floor_skipped_below_four_hardware_threads(self):
        # 2 hw threads arm the generic gate but not the crossed x2.0 floor:
        # the workload cannot double on a dual-core, only prove identity.
        code, out, _ = self.run_diff(self.crossed_doc(0.9, hardware=2),
                                     self.crossed_baseline())
        self.assertEqual(code, 0)
        self.assertIn("needs >=4 hw threads", out)

    def test_crossed_epoch_collapse_fails(self):
        # epochs=1 means the executor ran everything in one barrier-less
        # sweep — the workload no longer crosses shards, so the (passing)
        # speedup number is meaningless and the gate must trip.
        code, _, err = self.run_diff(self.crossed_doc(2.5, hardware=4, epochs=1),
                                     self.crossed_baseline(epochs_min=2))
        self.assertEqual(code, 1)
        self.assertIn("no longer crosses shards", err)
        self.assertIn("crossed workload shape gate failed", err)

    def test_crossed_zero_deliveries_fails(self):
        code, _, err = self.run_diff(self.crossed_doc(2.5, hardware=4, deliveries=0),
                                     self.crossed_baseline(deliveries_min=1))
        self.assertEqual(code, 1)
        self.assertIn("cross_deliveries=0", err)

    def test_crossed_shape_skipped_without_baseline_block(self):
        # Old baselines carry no "crossed" block; the shape gate stays off
        # rather than inventing floors.
        code, _, _ = self.run_diff(self.crossed_doc(2.5, hardware=4, epochs=1),
                                   baseline({256: 1000.0}))
        self.assertEqual(code, 0)

    def test_isolated_rows_keep_generic_floor_next_to_crossed(self):
        # Per-topology bests: an isolated x1.2 at 2 threads (floor 1.0)
        # passes while the crossed x1.5 at 4 threads (floor 2.0) fails.
        doc = incremental(
            {256: 1000.0}, hardware_threads=8,
            threads_speedup=[
                {"n": 256, "threads": 2, "topology": "isolated",
                 "wall_clock": 1.2, "trace_identical": True},
                {"n": 256, "threads": 4, "topology": "crossed",
                 "wall_clock": 1.5, "trace_identical": True}])
        code, out, _ = self.run_diff(doc, baseline({256: 1000.0}))
        self.assertEqual(code, 1)
        self.assertIn("[isolated] n=256: best parallel speedup x1.20", out)
        self.assertIn("[crossed] n=256: best parallel speedup x1.50", out)

    def test_seeding_records_crossed_minimums(self):
        code, _, _ = self.run_diff(self.crossed_doc(2.5, hardware=4,
                                                    epochs=100, deliveries=500))
        self.assertEqual(code, 0)
        with open(os.path.join(self.dir, "absent", "baseline.json")) as fh:
            doc = json.load(fh)
        # Half the observed minimum, floored at the degenerate thresholds.
        self.assertEqual(doc["crossed"], {"epochs_min": 50, "cross_deliveries_min": 250})

    # --- corrupt bench emission --------------------------------------------

    def test_unparseable_result_is_hard_failure(self):
        # The bench emitter wrote this file, so broken JSON is an emitter
        # regression (a stray separator once caused exactly this): exit 1
        # with a pointed message, not a quiet usage error.
        bad = os.path.join(self.dir, "BENCH_scale.json")
        with open(bad, "w") as fh:
            fh.write('{"bench": "scale_fleet", "speedup": [1.0,]\n  "shards": 4}')
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = bench_diff.main(["bench_diff.py", bad])
        self.assertEqual(code, 1)
        self.assertIn("not valid JSON", err.getvalue())
        self.assertIn("emitter produced corrupt output", err.getvalue())

    # --- usage errors ------------------------------------------------------

    def test_unknown_flag_is_usage_error(self):
        code, _, err = self.run_diff(incremental({100: 1000.0}), baseline({100: 1000.0}),
                                     extra_args=["--frobnicate"])
        self.assertEqual(code, 2)
        self.assertIn("unknown flag", err)

    def test_missing_incremental_series_is_usage_error(self):
        code, _, err = self.run_diff({"bench": "scale_fleet"}, baseline({100: 1000.0}))
        self.assertEqual(code, 2)
        self.assertIn("no incremental series", err)

    def test_corrupt_baseline_is_usage_error(self):
        result = self.write("BENCH_scale.json", incremental({100: 1000.0}))
        bad = os.path.join(self.dir, "bad.json")
        with open(bad, "w") as fh:
            fh.write("{not json")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = bench_diff.main(["bench_diff.py", result, "--baseline=" + bad])
        self.assertEqual(code, 2)
        self.assertIn("bad baseline", err.getvalue())


if __name__ == "__main__":
    unittest.main()
