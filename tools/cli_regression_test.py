#!/usr/bin/env python3
"""CLI regression tests for the built binaries.

Covers the contracts a shell user (or CI script) relies on. Every bench
and tool below parses argv with one FlagSet (src/util/flags.h):
  * Every binary answers --help with exit 0 and its synopsis on stdout, and
    rejects an unknown flag with exit 2, the synopsis on stderr, nothing on
    stdout and no artifact.
  * scale_fleet rejects unknown --topology= values, and any --mode= (the
    flag is deleted), with exit 2 and a usage line instead of silently
    falling back to a default.
  * scale_fleet and ablation_adversary reject malformed, empty or
    out-of-range values and unknown flags with exit 2 and a usage line
    (no abort, no segfault, no artifact), while the BenchStats flags
    (--stats-out= etc.) still pass through.
  * nymfuzz --minimize= re-shrinks a checked-in corpus entry: the rewritten
    file replays clean and carries a digest pin.
  * nymfuzz rejects malformed numbers, the space-separated forms of its
    valued flags and unknown oracle names with exit 2 before running.
  * The benches whose only flags are the BenchStats ones (figures, table,
    validation, most ablations) reject an unknown flag, a malformed one or
    a positional argument with exit 2 and a usage line, before running.
  * nbt2json rejects any '-'-prefixed argument but --recover with exit 2
    and a usage line instead of opening it as a path, and answers --help.
  * golden_gen never takes a flag for its output directory: an unknown
    flag before the directory writes nothing.
  * nymlint (its own parser) rejects an empty valued flag, an unknown flag
    and a missing explicit baseline with exit 2, and answers --help.

Binary paths come from argv (ctest passes $<TARGET_FILE:...>):
  cli_regression_test.py SCALE_FLEET_BIN NYMFUZZ_BIN CORPUS_DIR ABLATION_ADVERSARY_BIN BENCH_DIR
                         NBT2JSON_BIN GOLDEN_GEN_BIN NYMLINT_BIN

Only the standard library is used.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import unittest

SCALE_FLEET = None
NYMFUZZ = None
CORPUS_DIR = None
ABLATION_ADVERSARY = None
BENCH_DIR = None
NBT2JSON = None
GOLDEN_GEN = None
NYMLINT = None

# Benches that take no flags beyond --stats-out/--trace-out/--trace-format.
BENCH_STATS_ONLY = [
    "fig3_memory", "fig4_cpu", "fig5_bandwidth", "fig6_storage", "fig7_startup",
    "tab1_installed_os", "validation", "ablation_anonymizers", "ablation_faults",
    "ablation_fingerprint", "ablation_guard_persistence", "ablation_ksm", "ablation_staining",
]


class StrictFlagsMixin:
    """Usage-error cases shared by the fleet front-end CLIs."""

    BIN_NAME = None
    BAD_ARGS = []

    def binary(self):
        raise NotImplementedError

    def run_in(self, tmp, *args):
        return subprocess.run([self.binary(), *args, "--out=" + os.path.join(tmp, "out.json")],
                              capture_output=True, text=True, cwd=tmp)

    def test_bad_values_and_unknown_flags_exit_2_with_usage(self):
        for arg in self.BAD_ARGS:
            with self.subTest(arg=arg), tempfile.TemporaryDirectory() as tmp:
                proc = self.run_in(tmp, arg)
                self.assertEqual(proc.returncode, 2, proc.stderr)
                self.assertIn("usage: " + self.BIN_NAME, proc.stderr)
                self.assertEqual(os.listdir(tmp), [], "usage error wrote an artifact")

    def test_help_exits_0_with_usage(self):
        proc = subprocess.run([self.binary(), "--help"], capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("usage: " + self.BIN_NAME, proc.stdout)


class ScaleFleetCliTest(StrictFlagsMixin, unittest.TestCase):
    BIN_NAME = "scale_fleet"
    BAD_ARGS = ["--n=abc", "--n=-8", "--n=", "--n=8,,64", "--threads=", "--threads=0",
                "--shards=0", "--shards=2,4", "--seed=x", "--bogus-flag=1", "--n",
                "--out", "--out=", "--full-recompute", "--warm-start", "--warm-start=x.ckpt"]

    def binary(self):
        return SCALE_FLEET

    def run_bench(self, *args):
        return subprocess.run([SCALE_FLEET, *args], capture_output=True, text=True)

    def test_bench_stats_flags_pass_through(self):
        with tempfile.TemporaryDirectory() as tmp:
            stats = os.path.join(tmp, "stats.json")
            proc = self.run_in(tmp, "--n=8", "--stats-out=" + stats)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            self.assertTrue(os.path.exists(stats))

    def test_unknown_topology_exits_2_with_usage(self):
        proc = self.run_bench("--topology=bogus")
        self.assertEqual(proc.returncode, 2)
        self.assertIn('unknown --topology "bogus"', proc.stderr)
        self.assertIn("usage: scale_fleet", proc.stderr)
        self.assertIn("[--topology=isolated|crossed]", proc.stderr)

    def test_deleted_mode_flag_exits_2_with_usage(self):
        for value in ("full", "bogus"):
            with self.subTest(value=value), tempfile.TemporaryDirectory() as tmp:
                proc = self.run_in(tmp, "--mode=" + value)
                self.assertEqual(proc.returncode, 2)
                self.assertIn('unknown flag "--mode=' + value + '"', proc.stderr)
                self.assertIn("usage: scale_fleet", proc.stderr)
                self.assertEqual(proc.stdout, "")
                self.assertEqual(os.listdir(tmp), [], "usage error wrote an artifact")


class AblationAdversaryCliTest(StrictFlagsMixin, unittest.TestCase):
    BIN_NAME = "ablation_adversary"
    BAD_ARGS = ["--threads=", "--n=", "--n=abc", "--n=-8", "--generations=0",
                "--shards=0", "--shards=", "--seed=-1", "--bogus", "--threads", "--out=",
                "--out"]

    def binary(self):
        return ABLATION_ADVERSARY

    def test_bench_stats_flags_pass_through(self):
        with tempfile.TemporaryDirectory() as tmp:
            stats = os.path.join(tmp, "stats.json")
            proc = self.run_in(tmp, "--n=2", "--generations=1", "--threads=1", "--shards=1",
                               "--stats-out=" + stats)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            self.assertTrue(os.path.exists(stats))


class BenchStatsOnlyCliTest(unittest.TestCase):
    BAD_ARGS = ["--nonsense", "--n=abc", "extra", "--stats-out", "--stats-out=", "--trace-out="]

    def test_other_arguments_exit_2_with_usage(self):
        for name in BENCH_STATS_ONLY:
            binary = os.path.join(BENCH_DIR, name)
            self.assertTrue(os.path.isfile(binary), binary)
            for arg in self.BAD_ARGS:
                with self.subTest(bench=name, arg=arg), tempfile.TemporaryDirectory() as tmp:
                    stats = "--stats-out=" + os.path.join(tmp, "stats.json")
                    proc = subprocess.run([binary, stats, arg], capture_output=True,
                                          text=True, cwd=tmp)
                    self.assertEqual(proc.returncode, 2, proc.stderr)
                    self.assertIn("usage: " + name + " [--stats-out=<path>]", proc.stderr)
                    self.assertEqual(proc.stdout, "", "usage error ran the bench")
                    self.assertEqual(os.listdir(tmp), [], "usage error wrote an artifact")


class Nbt2JsonCliTest(unittest.TestCase):
    BAD_ARGS = [["--nonsense"], ["-x"], ["--recover=1"], ["-"], ["in.nbt", "--nonsense"],
                ["in.nbt", "out.json", "extra"]]

    def test_unknown_flags_exit_2_with_usage(self):
        for args in self.BAD_ARGS:
            with self.subTest(args=args), tempfile.TemporaryDirectory() as tmp:
                proc = subprocess.run([NBT2JSON, *args], capture_output=True, text=True,
                                      cwd=tmp)
                self.assertEqual(proc.returncode, 2, proc.stderr)
                self.assertIn("usage: nbt2json", proc.stderr)
                self.assertNotIn("NOT_FOUND", proc.stderr)
                self.assertEqual(proc.stdout, "")
                self.assertEqual(os.listdir(tmp), [], "usage error wrote an artifact")

    def test_help_exits_0_with_usage(self):
        proc = subprocess.run([NBT2JSON, "--help"], capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("usage: nbt2json", proc.stdout)

    def test_missing_input_still_exits_1(self):
        proc = subprocess.run([NBT2JSON, "/nonexistent/trace.nbt"], capture_output=True,
                              text=True)
        self.assertEqual(proc.returncode, 1, proc.stderr)
        self.assertIn("nbt2json:", proc.stderr)


class NymfuzzMinimizeTest(unittest.TestCase):
    def test_minimize_rewrites_corpus_entry_that_still_replays(self):
        source = os.path.join(CORPUS_DIR, "adversary-planted-cookie-23.nymfuzz")
        with tempfile.TemporaryDirectory() as tmp:
            entry = os.path.join(tmp, "entry.nymfuzz")
            shutil.copy(source, entry)
            minimized = subprocess.run(
                [NYMFUZZ, "--minimize=" + entry, "--out=" + entry],
                capture_output=True, text=True)
            self.assertEqual(minimized.returncode, 0, minimized.stderr)
            with open(entry) as handle:
                text = handle.read()
            self.assertIn("family adversary", text)
            self.assertIn("digest ", text)
            replay = subprocess.run(
                [NYMFUZZ, "--replay=" + entry], capture_output=True, text=True)
            self.assertEqual(replay.returncode, 0, replay.stderr)
            self.assertIn("verified (clean)", replay.stdout)

    def test_minimize_unreadable_file_exits_2(self):
        proc = subprocess.run(
            [NYMFUZZ, "--minimize=/nonexistent/no.nymfuzz"],
            capture_output=True, text=True)
        self.assertEqual(proc.returncode, 2)


class NymfuzzCliTest(unittest.TestCase):
    # Each of these used to run: the numbers were read with atoi/strtoull
    # (--seed=abc ran seed 0), and the space-separated forms and -v were
    # accepted aliases.
    BAD_ARGS = [["--seed=abc"], ["--runs=3x"], ["--max-steps=2junk"], ["--gen-seed=xyz"],
                ["--corpus", "tests/fuzz_corpus"], ["--replay", "entry.nymfuzz"],
                ["-v"], ["--disable-oracle=bogus"]]

    def test_bad_args_exit_2_with_usage(self):
        for args in self.BAD_ARGS:
            with self.subTest(args=args), tempfile.TemporaryDirectory() as tmp:
                proc = subprocess.run([NYMFUZZ, *args], capture_output=True, text=True, cwd=tmp)
                self.assertEqual(proc.returncode, 2, proc.stderr)
                self.assertIn("usage: nymfuzz", proc.stderr)
                self.assertEqual(proc.stdout, "", "usage error ran the fuzzer")
                self.assertEqual(os.listdir(tmp), [], "usage error wrote an artifact")


class GoldenGenCliTest(unittest.TestCase):
    def test_unknown_flag_before_output_dir_writes_nothing(self):
        with tempfile.TemporaryDirectory() as tmp:
            os.mkdir(os.path.join(tmp, "out"))
            proc = subprocess.run([GOLDEN_GEN, "--bogus", "out"], capture_output=True,
                                  text=True, cwd=tmp)
            self.assertEqual(proc.returncode, 2, proc.stderr)
            self.assertIn("usage: golden_gen", proc.stderr)
            self.assertEqual(proc.stdout, "")
            self.assertEqual(sorted(os.listdir(tmp)), ["out"])
            self.assertEqual(os.listdir(os.path.join(tmp, "out")), [])


class NymlintCliTest(unittest.TestCase):
    EMPTY_VALUES = ["--out=", "--sarif=", "--baseline=", "--registry=", "--write-baseline=",
                    "--root="]

    def run_in(self, tmp, *args):
        return subprocess.run([NYMLINT, *args], capture_output=True, text=True, cwd=tmp)

    def test_empty_values_exit_2_instead_of_falling_back(self):
        for arg in self.EMPTY_VALUES:
            with self.subTest(arg=arg), tempfile.TemporaryDirectory() as tmp:
                proc = self.run_in(tmp, arg)
                self.assertEqual(proc.returncode, 2, proc.stderr)
                self.assertIn(arg + " needs a value", proc.stderr)
                self.assertEqual(proc.stdout, "")
                self.assertEqual(os.listdir(tmp), [], "usage error wrote an artifact")

    def test_unknown_flag_exits_2(self):
        with tempfile.TemporaryDirectory() as tmp:
            proc = self.run_in(tmp, "--no-such-flag")
            self.assertEqual(proc.returncode, 2, proc.stderr)
            self.assertIn("unknown flag --no-such-flag", proc.stderr)

    def test_help_exits_0_with_usage(self):
        with tempfile.TemporaryDirectory() as tmp:
            proc = self.run_in(tmp, "--help")
            self.assertEqual(proc.returncode, 0, proc.stderr)
            self.assertTrue(proc.stdout.startswith("usage: nymlint"), proc.stdout)
            self.assertIn("nymbench/", proc.stdout)

    def test_missing_explicit_baseline_exits_2(self):
        with tempfile.TemporaryDirectory() as tmp:
            os.mkdir(os.path.join(tmp, "src"))
            proc = self.run_in(tmp, "--root=" + tmp, "--baseline=missing.json", "src")
            self.assertEqual(proc.returncode, 2, proc.stderr)
            self.assertIn("cannot open baseline missing.json", proc.stderr)


class EveryBinaryHelpTest(unittest.TestCase):
    """--help and an unknown flag, table-driven over every FlagSet binary."""

    def binaries(self):
        benches = [(name, os.path.join(BENCH_DIR, name)) for name in BENCH_STATS_ONLY]
        return benches + [("scale_fleet", SCALE_FLEET),
                          ("ablation_adversary", ABLATION_ADVERSARY), ("nymfuzz", NYMFUZZ),
                          ("nbt2json", NBT2JSON), ("golden_gen", GOLDEN_GEN)]

    def test_help_exits_0_and_unknown_flag_exits_2(self):
        self.assertEqual(len(self.binaries()), 18)
        for name, binary in self.binaries():
            with self.subTest(binary=name), tempfile.TemporaryDirectory() as tmp:
                proc = subprocess.run([binary, "--help"], capture_output=True, text=True,
                                      cwd=tmp)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                self.assertTrue(proc.stdout.startswith("usage: " + name), proc.stdout)
                proc = subprocess.run([binary, "--no-such-flag"], capture_output=True,
                                      text=True, cwd=tmp)
                self.assertEqual(proc.returncode, 2, proc.stderr)
                self.assertIn('unknown flag "--no-such-flag"', proc.stderr)
                self.assertIn("\nusage: " + name, proc.stderr)
                self.assertEqual(proc.stdout, "")
                self.assertEqual(os.listdir(tmp), [], "usage error wrote an artifact")


def main():
    global SCALE_FLEET, NYMFUZZ, CORPUS_DIR, ABLATION_ADVERSARY, BENCH_DIR, NBT2JSON, GOLDEN_GEN
    global NYMLINT
    if len(sys.argv) != 9:
        print("usage: cli_regression_test.py SCALE_FLEET_BIN NYMFUZZ_BIN CORPUS_DIR "
              "ABLATION_ADVERSARY_BIN BENCH_DIR NBT2JSON_BIN GOLDEN_GEN_BIN NYMLINT_BIN",
              file=sys.stderr)
        return 2
    (SCALE_FLEET, NYMFUZZ, CORPUS_DIR, ABLATION_ADVERSARY, BENCH_DIR, NBT2JSON,
     GOLDEN_GEN, NYMLINT) = sys.argv[1:9]
    sys.argv = sys.argv[:1]
    unittest.main()


if __name__ == "__main__":
    sys.exit(main())
