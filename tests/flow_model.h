// Global max-min fair-share reference for FlowScheduler, kept in tests only.
//
// FlowScheduler re-waterfills only the connected components a change
// touched (src/net/flow.h). This model re-waterfills the world: one
// progressive filling over every started flow and every link they cross,
// with the fixing rule FlowScheduler::Waterfill documents:
//   * each round's min share is the smallest capacity / unfixed-crossings
//     over the links; a flow whose own tightest link's share is within
//     1e-12 of it is fixed at that own share, not at the round minimum;
//   * flows are visited in ascending id order, links in creation order;
//   * a route that crosses a link twice claims two shares of it;
//   * a downed link has zero capacity;
//   * an empty route (loopback) shares no link and is rated at
//     kUnconstrainedBytesPerUs (1e9 bytes/us), outside the filling.
// Components cannot affect each other's max-min rates and every fixed rate
// is computed from the flow's own links only, so the model's rates equal
// the scheduler's bit for bit: the tests compare them with ==.
//
// FlowAuditor checks a live scheduler against the model (and against an
// algorithm-free max-min certificate) after every event.
#ifndef TESTS_FLOW_MODEL_H_
#define TESTS_FLOW_MODEL_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/net/flow.h"
#include "src/net/link.h"
#include "src/util/event_loop.h"

namespace nymix {

using StartedFlows = std::vector<FlowScheduler::StartedFlow>;
using LinkDown = std::function<bool(const Link*)>;

inline double ModelCapacity(const Link* link, const LinkDown& is_down) {
  return is_down(link) ? 0.0 : static_cast<double>(link->bandwidth_bps()) / 8e6;
}

// Each flow's max-min rate in bytes/us, index-aligned with `flows` (which
// must be in ascending id order, as FlowScheduler::StartedFlows returns).
inline std::vector<double> ReferenceRates(const StartedFlows& flows, const LinkDown& is_down) {
  std::map<const Link*, double, LinkIdLess> capacity;
  std::map<const Link*, int, LinkIdLess> unfixed_crossings;
  for (const FlowScheduler::StartedFlow& flow : flows) {
    for (const Link* link : flow.links) {
      capacity.emplace(link, ModelCapacity(link, is_down));
      ++unfixed_crossings[link];
    }
  }
  std::vector<double> rates(flows.size(), 0.0);
  std::vector<size_t> unfixed;
  for (size_t i = 0; i < flows.size(); ++i) {
    if (flows[i].links.empty()) {
      rates[i] = kUnconstrainedBytesPerUs;
    } else {
      unfixed.push_back(i);
    }
  }
  while (!unfixed.empty()) {
    double min_share = std::numeric_limits<double>::infinity();
    for (const auto& [link, count] : unfixed_crossings) {
      if (count > 0) {
        min_share = std::min(min_share, capacity.at(link) / count);
      }
    }
    std::vector<size_t> still_unfixed;
    for (size_t i : unfixed) {
      const std::vector<Link*>& links = flows[i].links;
      double own_share = std::numeric_limits<double>::infinity();
      for (const Link* link : links) {
        own_share = std::min(own_share, capacity.at(link) / unfixed_crossings.at(link));
      }
      if (own_share <= min_share + 1e-12) {
        rates[i] = own_share;
        for (const Link* link : links) {
          capacity.at(link) -= own_share;
          --unfixed_crossings.at(link);
        }
      } else {
        still_unfixed.push_back(i);
      }
    }
    if (still_unfixed.size() == unfixed.size()) {
      break;  // no progress: leave the rest at 0 and let the comparison fail
    }
    unfixed = std::move(still_unfixed);
  }
  return rates;
}

// The max-min property itself, with no reference to how rates were found:
// no link carries more than its capacity, and every flow with a positive
// rate and a non-empty route crosses a saturated link on which no flow has
// a higher rate. Tolerances are 1e-9 relative. Returns "" when it holds.
inline std::string MaxMinViolation(const StartedFlows& flows, const LinkDown& is_down) {
  constexpr double kTolerance = 1e-9;
  std::map<const Link*, double, LinkIdLess> load;
  std::map<const Link*, double, LinkIdLess> top_rate;
  for (const FlowScheduler::StartedFlow& flow : flows) {
    for (const Link* link : flow.links) {
      load[link] += flow.rate_bytes_per_us;
      top_rate[link] = std::max(top_rate[link], flow.rate_bytes_per_us);
    }
  }
  std::ostringstream out;
  out.precision(17);
  for (const auto& [link, carried] : load) {
    const double capacity = ModelCapacity(link, is_down);
    if (carried > capacity * (1 + kTolerance)) {
      out << "link " << link->name() << " carries " << carried << " > capacity " << capacity;
      return out.str();
    }
  }
  for (const FlowScheduler::StartedFlow& flow : flows) {
    if (flow.rate_bytes_per_us < 0) {
      out << "flow " << flow.id << " has negative rate " << flow.rate_bytes_per_us;
      return out.str();
    }
    if (flow.rate_bytes_per_us == 0 || flow.links.empty()) {
      continue;
    }
    bool bottlenecked = false;
    for (const Link* link : flow.links) {
      const bool saturated = load.at(link) >= ModelCapacity(link, is_down) * (1 - kTolerance);
      bottlenecked |= saturated && top_rate.at(link) <= flow.rate_bytes_per_us * (1 + kTolerance);
    }
    if (!bottlenecked) {
      out << "flow " << flow.id << " at " << flow.rate_bytes_per_us
          << " has no saturated link where it is the fastest";
      return out.str();
    }
  }
  return "";
}

// Audits a FlowScheduler against the model after every event.
//
// Link flaps reach the rates only at the next Reschedule (flow.h), so the
// auditor models each link as it stood at the scheduler's last Reschedule:
// it re-reads link state whenever the scheduler's reschedule count
// (component + skipped) has moved since the previous check, and otherwise
// keeps the state it read then. This assumes no link flaps after a
// Reschedule within the same event, which holds for flaps applied between
// events or as events of their own.
class FlowAuditor {
 public:
  // Which flows carry a stall deadline. With it, a flow must be stalled
  // exactly when it has a deadline and the model rates it 0. Without it, a
  // stalled flow must be rated 0.
  void ExpectStallDeadlines(std::function<bool(FlowId)> has_deadline) {
    has_deadline_ = std::move(has_deadline);
  }

  // An extra property checked after the model comparison at every check:
  // returns "" when it holds, otherwise the failure to record.
  void AlsoRequire(std::function<std::string(const FlowScheduler&)> property) {
    property_ = std::move(property);
  }

  // Compares every started flow with the model now; records the first
  // failure and ignores later ones.
  void Check(const FlowScheduler& scheduler) {
    ++checks_;
    if (!failure_.empty()) {
      return;
    }
    const StartedFlows flows = scheduler.StartedFlows();
    const uint64_t reschedules = scheduler.waterfills_component() + scheduler.waterfill_skips();
    if (reschedules != reschedules_) {
      reschedules_ = reschedules;
      down_.clear();
      for (const FlowScheduler::StartedFlow& flow : flows) {
        for (const Link* link : flow.links) {
          down_[link] = link->is_down();
        }
      }
    }
    const LinkDown is_down = [this](const Link* link) {
      auto it = down_.find(link);
      return it != down_.end() ? it->second : link->is_down();
    };
    const std::vector<double> want = ReferenceRates(flows, is_down);
    rates_compared_ += flows.size();
    std::ostringstream out;
    out.precision(17);
    for (size_t i = 0; i < flows.size(); ++i) {
      const FlowScheduler::StartedFlow& flow = flows[i];
      if (flow.rate_bytes_per_us != want[i]) {
        out << "flow " << flow.id << ": rate " << flow.rate_bytes_per_us << ", model " << want[i];
        break;
      }
      const bool rated_zero = want[i] <= 0;
      if (has_deadline_ ? flow.stalled != (has_deadline_(flow.id) && rated_zero)
                        : flow.stalled && !rated_zero) {
        out << "flow " << flow.id << ": stalled=" << flow.stalled << " at model rate " << want[i];
        break;
      }
    }
    std::string failure = out.str();
    if (failure.empty()) {
      failure = MaxMinViolation(flows, is_down);
    }
    if (failure.empty() && property_) {
      failure = property_(scheduler);
    }
    if (!failure.empty()) {
      failure_ = "check " + std::to_string(checks_) + ": " + failure;
    }
  }

  // EventLoop::RunUntil(now + duration), one event at a time, with a Check
  // after each event.
  void RunFor(EventLoop& loop, const FlowScheduler& scheduler, SimDuration duration) {
    const SimTime deadline = loop.now() + duration;
    for (std::optional<SimTime> next = loop.NextEventTime(); next && *next <= deadline;
         next = loop.NextEventTime()) {
      Step(loop, scheduler);
    }
    loop.RunUntil(deadline);  // no event is due by now: this only moves the clock
  }

  // EventLoop::RunUntilCondition(done), one event at a time, with a Check
  // after each event. False if the loop went idle first.
  bool RunUntil(EventLoop& loop, const FlowScheduler& scheduler,
                const std::function<bool()>& done) {
    while (!done()) {
      if (loop.pending_events() == 0) {
        return false;
      }
      Step(loop, scheduler);
    }
    return true;
  }

  const std::string& failure() const { return failure_; }
  uint64_t checks() const { return checks_; }
  // Started-flow rates compared with the model, over all checks.
  uint64_t rates_compared() const { return rates_compared_; }

 private:
  void Step(EventLoop& loop, const FlowScheduler& scheduler) {
    // The predicate holds from its second call on: exactly one event runs.
    bool ran = false;
    loop.RunUntilCondition([&ran] { return std::exchange(ran, true); });
    Check(scheduler);
  }

  std::function<bool(FlowId)> has_deadline_;
  std::function<std::string(const FlowScheduler&)> property_;
  std::map<const Link*, bool, LinkIdLess> down_;
  uint64_t reschedules_ = 0;
  uint64_t checks_ = 0;
  uint64_t rates_compared_ = 0;
  std::string failure_;
};

}  // namespace nymix

#endif  // TESTS_FLOW_MODEL_H_
