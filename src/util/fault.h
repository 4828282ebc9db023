// Deterministic fault injection and failure recovery primitives.
//
// The paper's safety story rests on Nymix degrading gracefully — probes to
// dead hosts "fail with no-response" (§5.1), entry guards persist across
// crashes and restores (§3.5) — so faults are first-class citizens of the
// simulation: seeded, replayable, and observable. This header holds the
// shared toolkit:
//
//   - FaultInjector: a registry of named probabilistic fault points plus a
//     schedule of one-shot fault events, all driven by Prng streams derived
//     from one seed. The same seed yields the same crash at the same
//     virtual microsecond (tests/determinism_test.cc enforces it).
//   - BackoffPolicy / Backoff: retry budget + exponential-backoff math,
//     returning a Status when attempts are exhausted.
//   - RetryWithBackoff: generic async retry runner over the event loop.
//   - OnceCallback<T>: exactly-once completion guard; a completion that is
//     dropped without firing fires a kCancelled Status instead of silently
//     vanishing. Every Anonymizer::Start/Fetch path goes through this.
#ifndef SRC_UTIL_FAULT_H_
#define SRC_UTIL_FAULT_H_

#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "src/util/event_loop.h"
#include "src/util/prng.h"
#include "src/util/status.h"

namespace nymix {

// ---------------------------------------------------------------- injector

// Configuration of one named probabilistic fault point.
struct FaultPointConfig {
  // Chance that a Roll() on this point injects a fault.
  double probability = 0.0;
  // Stop injecting after this many triggers (the fault "heals").
  uint64_t max_triggers = std::numeric_limits<uint64_t>::max();
  // Virtual-time window in which the point is live.
  SimTime active_from = 0;
  SimTime active_until = std::numeric_limits<SimTime>::max();
};

// Seeded registry of fault points and scheduled fault events. One injector
// hangs off each Simulation; components and experiments register points
// under stable names ("net.uplink.loss", "anon.tor.relay_crash", ...).
// Every fault decision draws from a per-point Prng stream derived from the
// injector's seed and the point's name, so streams are independent of both
// registration order and of one another.
class FaultInjector {
 public:
  FaultInjector(EventLoop& loop, uint64_t seed) : loop_(loop), seed_(seed) {}

  // Registers or reconfigures a fault point. The point's Prng stream is
  // (re-)derived from the injector seed and the name.
  void Configure(const std::string& point, FaultPointConfig config);

  // Convenience: register a plain always-active probability.
  // nymlint:allow(dead-api): fault-injection API: tests configure seeded fault points through it
  void ConfigureProbability(const std::string& point, double probability);

  // Draws from the point's stream; true if a fault should be injected now.
  // Unregistered points never fire (the zero-cost disabled path is a map
  // lookup miss). Triggers are counted and emitted as obs metrics.
  // nymlint:allow(dead-api): fault-injection API: tests roll seeded fault points through it
  bool Roll(const std::string& point);

  // Schedules a one-shot fault action at an absolute virtual time ("crash
  // relay 3 at t=5s"). Purely a labeled, traced wrapper over the event
  // loop, so fault timelines live beside probabilistic points.
  // nymlint:allow(dead-api): fault-injection API: tests schedule faults at a virtual time through it
  uint64_t At(SimTime when, const std::string& label, std::function<void()> fire);

  // Stable per-component seed, independent of call order. Components that
  // own their own fault randomness (Link loss, FlowScheduler aborts) derive
  // it from here so one experiment seed governs every fault stream.
  uint64_t SeedFor(std::string_view component) const {
    return Mix64(seed_ ^ Fnv1a64(component));
  }

  uint64_t rolls(const std::string& point) const;
  uint64_t triggers(const std::string& point) const;
  // nymlint:allow(dead-api): tests count fired faults
  uint64_t total_triggers() const { return total_triggers_; }
  // nymlint:allow(dead-api): tests check a fresh injector is inert
  bool any_configured() const { return !points_.empty(); }

 private:
  struct Point {
    FaultPointConfig config;
    Prng prng;
    uint64_t rolls = 0;
    uint64_t triggers = 0;
  };

  EventLoop& loop_;
  uint64_t seed_;
  std::map<std::string, Point> points_;
  uint64_t total_triggers_ = 0;
};

// ----------------------------------------------------------------- backoff

// Retry budget with exponential backoff. `max_attempts` counts every try
// including the first; `jitter` spreads delays by a +/- fraction drawn from
// the seeded stream (deterministic, but decorrelates retry herds).
struct BackoffPolicy {
  SimDuration initial_delay = Millis(500);
  double multiplier = 2.0;
  SimDuration max_delay = Seconds(30);
  int max_attempts = 4;
  double jitter = 0.0;
};

class Backoff {
 public:
  Backoff(BackoffPolicy policy, uint64_t seed) : policy_(policy), prng_(seed) {}

  // Consumes one attempt; returns the virtual-time delay to wait before the
  // next try, or kResourceExhausted once the budget is spent. The first
  // failure waits `initial_delay`; each subsequent failure multiplies, up
  // to `max_delay`.
  Result<SimDuration> NextDelay();

  // Failed attempts consumed so far.
  int attempts() const { return attempts_; }
  // nymlint:allow(dead-api): tests check the backoff budget runs out
  bool exhausted() const { return attempts_ >= policy_.max_attempts - 1; }

  // Canonical exhaustion status: kResourceExhausted carrying both the
  // attempt budget and the last underlying error, so a shrunk fuzz repro
  // (or a log line) shows the root cause instead of just "exhausted".
  // `what` names the abandoned operation ("circuit build abandoned", ...).
  Status Exhausted(std::string_view what, const Status& last_error) const;

  // Fresh budget (e.g. a new circuit-build request reuses the object).
  void Reset() { attempts_ = 0; }

 private:
  BackoffPolicy policy_;
  Prng prng_;
  int attempts_ = 0;
};

// ------------------------------------------------------------ OnceCallback

// Exactly-once completion guard. Wraps a callback taking a Status-bearing
// value (Status itself, or Result<V>) so that:
//   - firing twice is a programmer error (NYMIX_CHECK);
//   - dropping every copy without firing delivers a kCancelled Status to
//     the callback instead of silently losing the completion.
// Copies share one fire state, so the guard can ride through std::function
// captures. A default-constructed or null-wrapped guard is inert.
template <typename T>
class OnceCallback {
 public:
  OnceCallback() = default;
  explicit OnceCallback(std::function<void(T)> fn)
      : OnceCallback(std::move(fn),
                     Status(StatusCode::kCancelled, "completion dropped without firing")) {}
  OnceCallback(std::function<void(T)> fn, Status dropped) {
    if (fn) {
      state_ = std::make_shared<State>();
      state_->fn = std::move(fn);
      state_->dropped = std::move(dropped);
    }
  }

  void operator()(T value) {
    if (state_ == nullptr) {
      return;  // inert (caller passed a null callback)
    }
    NYMIX_CHECK_MSG(!state_->fired, "completion fired twice");
    state_->fired = true;
    auto fn = std::move(state_->fn);
    state_->fn = nullptr;
    fn(std::move(value));
  }

  // True while armed: holds a callback that has not fired yet.
  explicit operator bool() const { return state_ != nullptr && !state_->fired; }
  bool fired() const { return state_ != nullptr && state_->fired; }

  // Consciously drop the pending completion (owner teardown). After this
  // neither the drop-status nor a late fire runs the callback.
  void Dismiss() {
    if (state_ != nullptr) {
      state_->fired = true;
      state_->fn = nullptr;
    }
  }

 private:
  struct State {
    std::function<void(T)> fn;
    Status dropped = OkStatus();
    bool fired = false;
    ~State() {
      if (!fired && fn) {
        auto f = std::move(fn);
        fn = nullptr;
        f(T(std::move(dropped)));
      }
    }
  };

  std::shared_ptr<State> state_;
};

// ------------------------------------------------------------------- retry

// Runs `attempt` until it reports success or `policy` is exhausted.
// `attempt` receives a finish callback it must eventually invoke exactly
// once with the attempt's Status; on failure the runner waits the next
// backoff delay in virtual time and tries again. `done` fires exactly once:
// OkStatus() on success, or — on exhaustion — Backoff::Exhausted's
// kResourceExhausted carrying the attempt budget and the last attempt's
// underlying error. `label` names the operation in metrics
// ("retry.<label>.attempts" / ".retries" / ".exhausted") and traces.
void RetryWithBackoff(EventLoop& loop, const BackoffPolicy& policy, uint64_t seed,
                      std::string label,
                      std::function<void(std::function<void(Status)>)> attempt,
                      std::function<void(Status)> done);

}  // namespace nymix

#endif  // SRC_UTIL_FAULT_H_
