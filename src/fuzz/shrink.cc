#include "src/fuzz/shrink.h"

#include <algorithm>
#include <cstdlib>

namespace nymix {
namespace {

uint64_t Magnitude(int64_t v) {
  return v < 0 ? static_cast<uint64_t>(-(v + 1)) + 1 : static_cast<uint64_t>(v);
}

// One shrink attempt bundle: tracks the current best and the execution cap.
struct ShrinkState {
  Scenario best;
  RunReport best_report;
  uint64_t best_weight = 0;
  const RunnerOptions* options = nullptr;
  std::string oracle;  // the failure we must preserve
  int tried = 0;
  int accepted = 0;
  int max_candidates = 0;

  bool Exhausted() const { return tried >= max_candidates; }

  // Runs `candidate`; adopts it when it fails the SAME oracle at strictly
  // lower weight. Returns true on adoption.
  bool Try(const Scenario& candidate) {
    if (Exhausted()) {
      return false;
    }
    uint64_t weight = ScenarioWeight(candidate);
    if (weight >= best_weight) {
      return false;  // not an improvement; don't burn an execution on it
    }
    ++tried;
    RunReport report = RunScenario(candidate, *options);
    if (report.ok || report.oracle != oracle) {
      return false;
    }
    best = candidate;
    best_report = report;
    best_weight = weight;
    ++accepted;
    return true;
  }
};

// --- passes ---------------------------------------------------------------
// Each pass returns true if it improved the best scenario at least once.
// Passes run in a fixed order inside a fixed-point loop; within a pass,
// candidates are proposed in a fixed order and restart on improvement —
// that (plus strict weight decrease) is what makes shrinking deterministic
// and monotonic.

// ddmin-style chunk deletion: halves first, then quarters, down to single
// steps. Deleting a chunk of a failing scenario very often still fails —
// this pass does nearly all the work.
bool PassDeleteSteps(ShrinkState& state) {
  bool improved = false;
  size_t chunk = state.best.steps.size();
  while (chunk >= 1 && !state.Exhausted()) {
    bool deleted_any = false;
    for (size_t start = 0; start < state.best.steps.size() && !state.Exhausted();) {
      Scenario candidate = state.best;
      size_t take = std::min(chunk, candidate.steps.size() - start);
      candidate.steps.erase(
          candidate.steps.begin() + static_cast<ptrdiff_t>(start),
          candidate.steps.begin() + static_cast<ptrdiff_t>(start + take));
      if (state.Try(candidate)) {
        improved = deleted_any = true;
        // Don't advance: the step now at `start` is new.
      } else {
        start += chunk;
      }
    }
    if (!deleted_any) {
      chunk /= 2;
    }
  }
  return improved;
}

// Payload trimming: halve, then cut the tail by quarters, then drop single
// trailing bytes. Decoder repros shrink from kilobytes to a handful of
// header bytes here.
bool PassTrimPayloads(ShrinkState& state) {
  bool improved = false;
  for (size_t i = 0; i < state.best.steps.size() && !state.Exhausted(); ++i) {
    bool shrunk = true;
    while (shrunk && !state.Exhausted()) {
      shrunk = false;
      size_t size = state.best.steps[i].payload.size();
      if (size == 0) {
        break;
      }
      for (size_t keep : {size / 2, size - std::max<size_t>(size / 4, 1), size - 1}) {
        if (keep >= size) {
          continue;
        }
        Scenario candidate = state.best;
        candidate.steps[i].payload.resize(keep);
        if (state.Try(candidate)) {
          shrunk = improved = true;
          break;
        }
      }
    }
  }
  return improved;
}

// Topology minimization: walk every knob toward its floor.
bool PassShrinkTopology(ShrinkState& state) {
  bool improved = false;
  auto try_set = [&](auto setter) {
    Scenario candidate = state.best;
    setter(candidate.topology);
    if (state.Try(candidate)) {
      improved = true;
      return true;
    }
    return false;
  };
  bool moved = true;
  while (moved && !state.Exhausted()) {
    moved = false;
    ScenarioTopology t = state.best.topology;
    if (t.shards > 1) {
      moved |= try_set([&](ScenarioTopology& c) { c.shards = std::max(1, t.shards / 2); });
    }
    if (t.threads > 2) {  // 2 keeps trace-identity comparisons meaningful
      moved |= try_set([&](ScenarioTopology& c) { c.threads = std::max(2, t.threads / 2); });
    }
    if (t.nym_count > 1) {
      moved |= try_set([&](ScenarioTopology& c) { c.nym_count = std::max(1, t.nym_count / 2); });
    }
    if (t.nyms_per_host > 1) {
      moved |= try_set([&](ScenarioTopology& c) {
        c.nyms_per_host = std::max(1, t.nyms_per_host / 2);
      });
    }
    if (t.visits > 1) {
      moved |= try_set([&](ScenarioTopology& c) { c.visits = std::max(1, t.visits / 2); });
    }
    if (t.generations > 1) {
      moved |= try_set([&](ScenarioTopology& c) {
        c.generations = std::max(1, t.generations / 2);
      });
    }
    if (t.checkpoint_roundtrip) {
      moved |= try_set([&](ScenarioTopology& c) { c.checkpoint_roundtrip = false; });
    }
  }
  return improved;
}

// Argument simplification: zero first, then halve toward zero. Small args
// make the wrapped/clamped values — and thus the repro — easier to read.
bool PassShrinkArgs(ShrinkState& state) {
  bool improved = false;
  for (size_t i = 0; i < state.best.steps.size() && !state.Exhausted(); ++i) {
    for (int field = 0; field < 4 && !state.Exhausted(); ++field) {
      auto get = [field](const ScenarioStep& s) -> int64_t {
        return field == 0 ? s.a : field == 1 ? s.b : field == 2 ? s.c : s.d;
      };
      auto set = [field](ScenarioStep& s, int64_t v) {
        (field == 0 ? s.a : field == 1 ? s.b : field == 2 ? s.c : s.d) = v;
      };
      bool moved = true;
      while (moved && !state.Exhausted()) {
        moved = false;
        int64_t current = get(state.best.steps[i]);
        if (current == 0) {
          break;
        }
        for (int64_t next : {int64_t{0}, current / 2}) {
          if (Magnitude(next) >= Magnitude(current)) {
            continue;
          }
          Scenario candidate = state.best;
          set(candidate.steps[i], next);
          if (state.Try(candidate)) {
            moved = improved = true;
            break;
          }
        }
      }
    }
  }
  return improved;
}

}  // namespace

uint64_t ScenarioWeight(const Scenario& scenario) {
  uint64_t weight = static_cast<uint64_t>(scenario.steps.size()) * 1'000'000;
  for (const ScenarioStep& step : scenario.steps) {
    weight += static_cast<uint64_t>(step.payload.size()) * 16;
    // Argument term is log-scaled and bounded so it can never outweigh a
    // payload byte, let alone a step.
    for (int64_t arg : {step.a, step.b, step.c, step.d}) {
      uint64_t magnitude = Magnitude(arg);
      while (magnitude > 0) {
        ++weight;
        magnitude /= 2;
      }
    }
  }
  const ScenarioTopology& t = scenario.topology;
  weight += static_cast<uint64_t>(t.shards + t.threads + t.nym_count + t.nyms_per_host +
                                  t.visits + t.generations) *
            64;
  weight += t.checkpoint_roundtrip ? 64 : 0;
  return weight;
}

ShrinkResult ShrinkScenario(const Scenario& scenario, const RunReport& report,
                            const RunnerOptions& options, int max_candidates) {
  ShrinkState state;
  state.best = scenario;
  state.best_report = report;
  state.best_weight = ScenarioWeight(scenario);
  state.options = &options;
  state.oracle = report.oracle;
  state.max_candidates = max_candidates;

  // Fixed-point over the fixed pass order; every accepted candidate
  // strictly lowers the weight, so this loop terminates.
  bool improved = true;
  while (improved && !state.Exhausted()) {
    improved = false;
    improved |= PassDeleteSteps(state);
    improved |= PassTrimPayloads(state);
    improved |= PassShrinkTopology(state);
    improved |= PassShrinkArgs(state);
  }

  ShrinkResult result;
  result.scenario = std::move(state.best);
  result.report = std::move(state.best_report);
  result.candidates_tried = state.tried;
  result.candidates_accepted = state.accepted;
  return result;
}

}  // namespace nymix
