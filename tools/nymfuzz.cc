// nymfuzz: property-based scenario fuzzer for the nymix simulation stack.
//
// Modes:
//   nymfuzz --runs=200 --seed=1            fixed-seed sweep (CI smoke lane)
//   nymfuzz --runs=500 --seed=random       nightly randomized lane; the
//                                          chosen seed is printed so any
//                                          finding replays exactly
//   nymfuzz --replay=repro.nymfuzz         re-run a shrunk repro and verify
//                                          the recorded oracle AND outcome
//                                          digest byte-for-byte
//   nymfuzz --corpus=tests/fuzz_corpus     replay every .nymfuzz in a dir
//   nymfuzz --gen-seed=S --record=FILE     run one scenario and write it —
//                                          with its observed oracle and
//                                          outcome digest — as a .nymfuzz
//                                          fixture (corpus curation; a clean
//                                          run records an empty oracle, so
//                                          the fixture pins the digest)
//   nymfuzz --list-oracles                 print the invariant suite
//   nymfuzz --minimize=FILE [--out=FILE]   re-shrink a checked-in corpus
//                                          entry after behavior changes: a
//                                          still-failing repro is minimized
//                                          again and its expectation block
//                                          refreshed; a clean entry gets its
//                                          digest pin refreshed
//
// Knobs: --family=net|host|fleet|decoder|parallel|adversary, --max-steps=N,
// --out-dir=DIR (where shrunk repros are written), --plant=nat-leak
// (sabotage the CommVM policy; the nat-isolation oracle MUST catch it — the
// self-test that the suite is alive), --no-shrink, --disable-oracle=NAME
// (repeatable), --verbose, --dump. `nymfuzz --help` lists every flag.
//
// Exit codes: 0 = clean, 1 = an oracle failed (or a replay diverged),
// 2 = usage/IO error.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "src/fuzz/entropy.h"
#include "src/fuzz/generator.h"
#include "src/fuzz/oracle.h"
#include "src/fuzz/runner.h"
#include "src/fuzz/scenario.h"
#include "src/fuzz/shrink.h"
#include "src/store/file_io.h"
#include "src/util/bytes.h"
#include "src/util/flags.h"
#include "src/util/prng.h"

namespace {

// Replays one .nymfuzz file and verifies its expectation block.
// Returns 0 = verified, 1 = diverged, 2 = unreadable.
int ReplayFile(const std::string& path, const nymix::RunnerOptions& options) {
  nymix::Result<nymix::Bytes> data = nymix::ReadFileBytes(path);
  if (!data.ok()) {
    std::fprintf(stderr, "nymfuzz: %s: %s\n", path.c_str(), data.status().ToString().c_str());
    return 2;
  }
  nymix::Result<nymix::ReproFile> repro =
      nymix::ReproFromText(nymix::StringFromBytes(*data));
  if (!repro.ok()) {
    std::fprintf(stderr, "nymfuzz: %s: %s\n", path.c_str(), repro.status().ToString().c_str());
    return 2;
  }
  nymix::RunReport report = nymix::RunScenario(repro->scenario, options);
  const std::string& want_oracle = repro->oracle;
  if (report.oracle != want_oracle) {
    std::fprintf(stderr, "nymfuzz: %s: oracle mismatch: recorded '%s', got '%s' (%s)\n",
                 path.c_str(), want_oracle.c_str(), report.oracle.c_str(),
                 report.detail.c_str());
    return 1;
  }
  if (!repro->digest.empty() && report.digest != repro->digest) {
    std::fprintf(stderr, "nymfuzz: %s: outcome digest mismatch: recorded %s, got %s\n",
                 path.c_str(), repro->digest.c_str(), report.digest.c_str());
    return 1;
  }
  std::printf("nymfuzz: %s: verified (%s)\n", path.c_str(),
              want_oracle.empty() ? "clean" : want_oracle.c_str());
  return 0;
}

// Re-shrinks a checked-in .nymfuzz entry against current behavior. A repro
// that still fails gets minimized again (its oracle may have shifted since
// it was recorded); a clean entry keeps its scenario and gets a fresh
// digest pin. Returns 0 = rewritten, 2 = unreadable/unwritable.
int MinimizeFile(const std::string& path, const std::string& out_path,
                 const nymix::RunnerOptions& options) {
  nymix::Result<nymix::Bytes> data = nymix::ReadFileBytes(path);
  if (!data.ok()) {
    std::fprintf(stderr, "nymfuzz: %s: %s\n", path.c_str(), data.status().ToString().c_str());
    return 2;
  }
  nymix::Result<nymix::ReproFile> repro =
      nymix::ReproFromText(nymix::StringFromBytes(*data));
  if (!repro.ok()) {
    std::fprintf(stderr, "nymfuzz: %s: %s\n", path.c_str(), repro.status().ToString().c_str());
    return 2;
  }
  nymix::RunReport report = nymix::RunScenario(repro->scenario, options);
  nymix::ReproFile minimized;
  if (report.ok) {
    minimized.scenario = std::move(repro->scenario);
    std::printf("nymfuzz: %s: clean (%zu steps); refreshing digest pin\n", path.c_str(),
                minimized.scenario.steps.size());
  } else {
    nymix::ShrinkResult shrunk = nymix::ShrinkScenario(repro->scenario, report, options);
    std::printf("nymfuzz: %s: %s still fires; re-shrunk %zu -> %zu steps\n", path.c_str(),
                shrunk.report.oracle.c_str(), repro->scenario.steps.size(),
                shrunk.scenario.steps.size());
    minimized.scenario = std::move(shrunk.scenario);
    minimized.oracle = shrunk.report.oracle;
    minimized.detail = shrunk.report.detail;
    report = shrunk.report;
  }
  minimized.digest = report.digest;
  const std::string& target = out_path.empty() ? path : out_path;
  nymix::Status wrote =
      nymix::WriteFileBytes(target, nymix::BytesFromString(nymix::ReproToText(minimized)));
  if (!wrote.ok()) {
    std::fprintf(stderr, "nymfuzz: writing %s: %s\n", target.c_str(), wrote.ToString().c_str());
    return 2;
  }
  std::printf("nymfuzz: wrote %s (%s, digest %s)\n", target.c_str(),
              minimized.oracle.empty() ? "clean" : minimized.oracle.c_str(),
              minimized.digest.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  int runs = 100;
  std::string seed_text = "1";
  std::string gen_seed_text;
  std::string family;
  nymix::GeneratorOptions generator_options;
  nymix::RunnerOptions runner_options;
  std::string plant;
  bool no_shrink = false;
  bool verbose = false;
  bool dump = false;
  bool list_oracles = false;
  std::string out_dir;
  std::string replay_path;
  std::string corpus_dir;
  std::string record_path;
  std::string minimize_path;
  std::string minimize_out;

  nymix::FlagSet flags("nymfuzz");
  flags.Int("runs", &runs, 1, "scenarios in the sweep");
  flags.String("seed", &seed_text, "<n>|random", "base seed; random picks one and prints it");
  // Replays ONE scenario from the exact generator seed a failure line
  // printed (`run N seed S ...`), skipping the base-seed derivation.
  flags.String("gen-seed", &gen_seed_text, "<n>", "run one scenario from this generator seed");
  flags.Choice("family", &family, {"net", "host", "fleet", "decoder", "parallel", "adversary"},
               "pin the scenario family (default: the seed picks one)");
  flags.Int("max-steps", &generator_options.max_steps, 1, "upper bound on generated steps");
  flags.String("out-dir", &out_dir, "<dir>", "write shrunk repros here instead of stdout");
  flags.Choice("plant", &plant, {"nat-leak"}, "sabotage CommVM; nat-isolation must catch it");
  flags.Bool("no-shrink", &no_shrink, "report a failing scenario unshrunk");
  flags.Repeated("disable-oracle", &runner_options.disabled_oracles, "<name>", "skip (repeatable)");
  flags.Bool("verbose", &verbose, "print one line per scenario");
  flags.Bool("dump", &dump, "print every generated scenario");
  flags.Bool("list-oracles", &list_oracles, "print the invariant suite and exit");
  flags.String("replay", &replay_path, "<file>", "verify one repro's oracle and digest");
  flags.String("corpus", &corpus_dir, "<dir>", "replay every .nymfuzz file in a directory");
  flags.String("record", &record_path, "<file>", "run one scenario and save it as a fixture");
  flags.String("minimize", &minimize_path, "<file>", "re-shrink a corpus entry in place");
  flags.String("out", &minimize_out, "<file>", "write the --minimize result here instead");
  flags.Parse(argc, argv);

  const bool seed_random = seed_text == "random";
  std::optional<uint64_t> seed = nymix::ParseUint64(seed_text);
  if (!seed_random && !seed.has_value()) {
    flags.Fail("malformed --seed \"" + seed_text + "\" (want an unsigned integer or random)");
  }
  std::optional<uint64_t> gen_seed = nymix::ParseUint64(gen_seed_text);
  if (!gen_seed_text.empty() && !gen_seed.has_value()) {
    flags.Fail("malformed --gen-seed \"" + gen_seed_text + "\" (want an unsigned integer)");
  }
  if (!family.empty()) {
    generator_options.family = *nymix::ParseScenarioFamily(family);
  }
  for (const std::string& oracle : runner_options.disabled_oracles) {
    if (!nymix::IsKnownOracle(oracle)) {
      flags.Fail("unknown --disable-oracle \"" + oracle + "\" (see --list-oracles)");
    }
  }
  runner_options.plant_nat_leak = plant == "nat-leak";

  if (list_oracles) {
    for (const nymix::OracleInfo& oracle : nymix::AllOracles()) {
      std::printf("%-20s %s\n", oracle.name, oracle.property);
    }
    return 0;
  }

  if (!replay_path.empty()) {
    return ReplayFile(replay_path, runner_options);
  }

  if (!minimize_path.empty()) {
    return MinimizeFile(minimize_path, minimize_out, runner_options);
  }

  if (!corpus_dir.empty()) {
    std::error_code ec;
    std::vector<std::string> files;
    for (const auto& entry : std::filesystem::directory_iterator(corpus_dir, ec)) {
      if (entry.path().extension() == ".nymfuzz") {
        files.push_back(entry.path().string());
      }
    }
    if (ec) {
      std::fprintf(stderr, "nymfuzz: %s: %s\n", corpus_dir.c_str(), ec.message().c_str());
      return 2;
    }
    std::sort(files.begin(), files.end());
    if (files.empty()) {
      std::fprintf(stderr, "nymfuzz: %s: no .nymfuzz files\n", corpus_dir.c_str());
      return 2;
    }
    int worst = 0;
    for (const std::string& file : files) {
      worst = std::max(worst, ReplayFile(file, runner_options));
    }
    return worst;
  }

  if (seed_random) {
    seed = nymix::AmbientSeed();
    std::printf("nymfuzz: --seed=random chose %llu (pass --seed=%llu to replay)\n",
                static_cast<unsigned long long>(*seed), static_cast<unsigned long long>(*seed));
  }

  // --- the fuzz loop ----------------------------------------------------
  // Scenario seeds derive from (base seed, run index); every line printed
  // carries enough to replay that single run.
  if (gen_seed.has_value() || !record_path.empty()) {
    runs = 1;
  }
  for (int run = 0; run < runs; ++run) {
    uint64_t scenario_seed = gen_seed.has_value()
                                 ? *gen_seed
                                 : nymix::Mix64(*seed ^ (static_cast<uint64_t>(run) *
                                                         0x9e3779b97f4a7c15ULL));
    nymix::Scenario scenario = nymix::GenerateScenario(scenario_seed, generator_options);
    if (verbose) {
      std::printf("nymfuzz: run %d seed %llu family %s steps %zu\n", run,
                  static_cast<unsigned long long>(scenario_seed),
                  std::string(nymix::ScenarioFamilyName(scenario.family)).c_str(),
                  scenario.steps.size());
      std::fflush(stdout);
    }
    if (dump) {
      std::printf("%s", nymix::ScenarioToText(scenario).c_str());
      std::fflush(stdout);
    }
    nymix::RunReport report = nymix::RunScenario(scenario, runner_options);
    if (!record_path.empty()) {
      nymix::ReproFile repro;
      repro.scenario = scenario;
      repro.oracle = report.oracle;
      repro.detail = report.detail;
      repro.digest = report.digest;
      nymix::Status wrote =
          nymix::WriteFileBytes(record_path, nymix::BytesFromString(nymix::ReproToText(repro)));
      if (!wrote.ok()) {
        std::fprintf(stderr, "nymfuzz: writing %s: %s\n", record_path.c_str(),
                     wrote.ToString().c_str());
        return 2;
      }
      std::printf("nymfuzz: recorded %s (%s, digest %s)\n", record_path.c_str(),
                  report.ok ? "clean" : report.oracle.c_str(), report.digest.c_str());
      return 0;
    }
    if (report.ok) {
      if ((run + 1) % 50 == 0) {
        std::printf("nymfuzz: %d/%d clean\n", run + 1, runs);
      }
      continue;
    }

    std::printf("nymfuzz: run %d (scenario seed %llu, family %s): ORACLE %s: %s\n", run,
                static_cast<unsigned long long>(scenario_seed),
                std::string(nymix::ScenarioFamilyName(scenario.family)).c_str(),
                report.oracle.c_str(), report.detail.c_str());

    nymix::ReproFile repro;
    if (!no_shrink) {
      nymix::ShrinkResult shrunk = nymix::ShrinkScenario(scenario, report, runner_options);
      std::printf("nymfuzz: shrunk %zu -> %zu steps (%d candidates, %d accepted)\n",
                  scenario.steps.size(), shrunk.scenario.steps.size(),
                  shrunk.candidates_tried, shrunk.candidates_accepted);
      repro.scenario = std::move(shrunk.scenario);
      repro.oracle = shrunk.report.oracle;
      repro.detail = shrunk.report.detail;
      repro.digest = shrunk.report.digest;
    } else {
      repro.scenario = std::move(scenario);
      repro.oracle = report.oracle;
      repro.detail = report.detail;
      repro.digest = report.digest;
    }

    std::string text = nymix::ReproToText(repro);
    if (!out_dir.empty()) {
      std::error_code ec;
      std::filesystem::create_directories(out_dir, ec);
      std::string path = out_dir + "/repro-" + repro.oracle + "-" +
                         std::to_string(scenario_seed) + ".nymfuzz";
      nymix::Status wrote = nymix::WriteFileBytes(path, nymix::BytesFromString(text));
      if (!wrote.ok()) {
        std::fprintf(stderr, "nymfuzz: writing %s: %s\n", path.c_str(),
                     wrote.ToString().c_str());
        return 2;
      }
      std::printf("nymfuzz: repro written to %s\n", path.c_str());
    } else {
      std::printf("%s", text.c_str());
    }
    return 1;
  }

  std::printf("nymfuzz: %d run(s) clean\n", runs);
  return 0;
}
