// Property test for the dirty-driven fair-share scheduler: random sequences
// of flow starts, cancels, link flaps and clock advances run on a
// FlowScheduler, and after every op and every event its rates and stall
// flags must equal the global max-min model in tests/flow_model.h bit for
// bit, and satisfy the max-min certificate (FlowAuditor).
//
// The flows run over several disjoint link clusters, so reschedules restrict
// themselves to components; routes include empty ones (which run
// unconstrained), ones that cross a link twice, and stall deadlines that
// fire.
//
// In the style of rapidcheck: each case is generated from a seed, and a
// failing case is shrunk, by dropping ops while it still fails, to a short
// sequence printed with its seed.
#include <algorithm>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/net/simulation.h"
#include "src/util/prng.h"
#include "tests/flow_model.h"

namespace nymix {
namespace {

constexpr int kClusters = 3;
// Cluster 1 repeats a bandwidth, and 4 Mbit recurs across clusters, so
// equal shares meet inside a component and across components.
constexpr uint64_t kBandwidths[kClusters][3] = {{8'000'000, 4'000'000, 2'000'000},
                                                {6'000'000, 6'000'000, 3'000'000},
                                                {10'000'000, 1'000'000, 4'000'000}};
constexpr int kRouteShapes = 8;

// Route shape `shape` over a cluster's links {a, b, c}.
std::vector<Link*> RouteShape(const std::vector<Link*>& cluster, int shape) {
  Link* a = cluster[0];
  Link* b = cluster[1];
  Link* c = cluster[2];
  switch (shape) {
    case 0:
      return {};  // loopback
    case 1:
      return {a};
    case 2:
      return {a, b};
    case 3:
      return {a, c};
    case 4:
      return {b, c};
    case 5:
      return {a, b, a};  // crosses a twice
    case 6:
      return {c, c};
    default:
      return {a, b, c};
  }
}

struct Op {
  enum Kind { kStart, kCancel, kDown, kUp, kAdvance };
  Kind kind;
  int cluster;        // kStart, kDown, kUp
  int pick;           // kStart: route shape; kDown/kUp: link; kCancel: issued flow
  uint64_t value;     // kStart: bytes; kAdvance: microseconds
  SimDuration stall;  // kStart: stall_timeout (0 = none)
};

std::string Describe(const std::vector<Op>& ops) {
  static const char* const kNames[] = {"start", "cancel", "down", "up", "advance"};
  std::ostringstream out;
  for (const Op& op : ops) {
    out << "  " << kNames[op.kind] << " cluster=" << op.cluster << " pick=" << op.pick
        << " value=" << op.value << " stall=" << op.stall << "\n";
  }
  return out.str();
}

std::vector<Op> Generate(uint64_t seed, int length) {
  Prng prng(seed);
  std::vector<Op> ops;
  for (int i = 0; i < length; ++i) {
    Op op{};
    op.cluster = static_cast<int>(prng.NextBelow(kClusters));
    switch (prng.NextBelow(20)) {
      case 0:
      case 1:
      case 2:
      case 3:
      case 4:
      case 5:
      case 6:
        op.kind = Op::kStart;
        op.pick = static_cast<int>(prng.NextBelow(kRouteShapes));
        op.value = prng.NextInRange(5'000, 300'000);
        op.stall = prng.NextBelow(2) == 0
                       ? 0
                       : Millis(static_cast<int64_t>(prng.NextInRange(20, 400)));
        break;
      case 7:
      case 8:
        op.kind = Op::kCancel;
        op.pick = static_cast<int>(prng.NextBelow(64));
        break;
      case 9:
      case 10:
        op.kind = Op::kDown;
        op.pick = static_cast<int>(prng.NextBelow(3));
        break;
      case 11:
      case 12:
        op.kind = Op::kUp;
        op.pick = static_cast<int>(prng.NextBelow(3));
        break;
      default:
        op.kind = Op::kAdvance;
        op.value = prng.NextBelow(4) == 0 ? prng.NextBelow(500'000) : prng.NextBelow(30'000);
        break;
    }
    ops.push_back(op);
  }
  return ops;
}

// Which edges a run reached; a property that never met them would prove
// nothing.
struct Coverage {
  bool empty_route = false;     // an empty-route flow ran to completion
  bool repeated_link = false;   // a started flow crosses one link twice
  bool zero_rate = false;       // a started flow was rated 0 (route down)
  bool stalled = false;         // ...with its stall deadline armed
  bool stall_failed = false;    // a stall deadline fired and failed a flow
  bool cancelled = false;       // a started flow was cancelled
  uint64_t component = 0;
  uint64_t skips = 0;

  void Add(const Coverage& other) {
    empty_route |= other.empty_route;
    repeated_link |= other.repeated_link;
    zero_rate |= other.zero_rate;
    stalled |= other.stalled;
    stall_failed |= other.stall_failed;
    cancelled |= other.cancelled;
    component += other.component;
    skips += other.skips;
  }
};

// One run of an op sequence: kClusters disjoint clusters of three links on
// one Simulation, audited after every op and every event.
class World {
 public:
  World() : sim_(0xF10E) {
    for (int c = 0; c < kClusters; ++c) {
      std::vector<Link*> links;
      for (int l = 0; l < 3; ++l) {
        links.push_back(sim_.CreateLink("c" + std::to_string(c) + "-l" + std::to_string(l),
                                        Millis(1 + (c + l) % 3), kBandwidths[c][l]));
      }
      clusters_.push_back(std::move(links));
    }
    audit_.ExpectStallDeadlines([this](FlowId id) { return deadlines_.at(id); });
  }

  // Applies one op, auditing after it and after every event it runs;
  // returns the first audit failure, or "".
  std::string Apply(const Op& op) {
    FlowScheduler& flows = sim_.flows();
    const std::vector<Link*>& cluster = clusters_[static_cast<size_t>(op.cluster)];
    switch (op.kind) {
      case Op::kStart: {
        const std::vector<Link*> links = RouteShape(cluster, op.pick);
        FlowId id = flows.StartFlow(Route::Through(links), op.value, 1.0, op.stall,
                                    [this, loopback = links.empty()](Result<SimTime> done) {
                                      coverage_.empty_route |= loopback && done.ok();
                                      coverage_.stall_failed |=
                                          !done.ok() &&
                                          done.status().code() == StatusCode::kUnavailable;
                                    });
        deadlines_[id] = op.stall > 0;
        issued_.push_back(id);
        audit_.Check(flows);
        break;
      }
      case Op::kCancel:
        if (!issued_.empty()) {
          const size_t before = StartedCount();
          const FlowId id = issued_[static_cast<size_t>(op.pick) % issued_.size()];
          flows.CancelFlow(id);
          coverage_.cancelled |= StartedCount() < before;
        }
        audit_.Check(flows);
        break;
      case Op::kDown:
      case Op::kUp:
        cluster[static_cast<size_t>(op.pick)]->SetDown(op.kind == Op::kDown);
        audit_.Check(flows);
        break;
      case Op::kAdvance:
        audit_.RunFor(sim_.loop(), flows, static_cast<SimDuration>(op.value));
        break;
    }
    Observe();
    return audit_.failure();
  }

  FlowAuditor& audit() { return audit_; }

  Coverage coverage() {
    Coverage out = coverage_;
    out.component = sim_.flows().waterfills_component();
    out.skips = sim_.flows().waterfill_skips();
    return out;
  }

 private:
  size_t StartedCount() { return sim_.flows().StartedFlows().size(); }

  void Observe() {
    for (const FlowScheduler::StartedFlow& flow : sim_.flows().StartedFlows()) {
      std::vector<Link*> sorted = flow.links;
      std::sort(sorted.begin(), sorted.end(), LinkIdLess());
      coverage_.repeated_link |= std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end();
      coverage_.zero_rate |= !flow.links.empty() && flow.rate_bytes_per_us == 0;
      coverage_.stalled |= flow.stalled;
    }
  }

  Simulation sim_;
  FlowAuditor audit_;
  std::vector<std::vector<Link*>> clusters_;
  std::vector<FlowId> issued_;
  std::map<FlowId, bool> deadlines_;
  Coverage coverage_;
};

// Runs `ops` on a fresh world; returns the first failure (with the index
// of the op that exposed it), or "".
std::string RunOps(const std::vector<Op>& ops, size_t* failed_at, Coverage* coverage = nullptr) {
  World world;
  for (size_t i = 0; i < ops.size(); ++i) {
    std::string failure = world.Apply(ops[i]);
    if (!failure.empty()) {
      *failed_at = i;
      return failure;
    }
  }
  if (coverage != nullptr) {
    coverage->Add(world.coverage());
  }
  return "";
}

// Greedy shrink: drop ops one at a time while the sequence still fails.
std::vector<Op> Shrink(std::vector<Op> ops) {
  for (size_t i = ops.size(); i-- > 0;) {
    std::vector<Op> smaller = ops;
    smaller.erase(smaller.begin() + static_cast<ptrdiff_t>(i));
    size_t failed_at = 0;
    if (!RunOps(smaller, &failed_at).empty()) {
      smaller.resize(failed_at + 1);
      ops = std::move(smaller);
      i = std::min(i, ops.size());
    }
  }
  return ops;
}

TEST(FlowPropertyTest, IncrementalRatesMatchGlobalMaxMinModel) {
  Coverage coverage;
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    std::vector<Op> ops = Generate(seed, 120);
    size_t failed_at = 0;
    if (!RunOps(ops, &failed_at, &coverage).empty()) {
      ops.resize(failed_at + 1);
      std::vector<Op> minimal = Shrink(ops);
      FAIL() << "seed " << seed << ": " << RunOps(minimal, &failed_at) << "\nminimal sequence:\n"
             << Describe(minimal);
    }
  }
  EXPECT_TRUE(coverage.empty_route);
  EXPECT_TRUE(coverage.repeated_link);
  EXPECT_TRUE(coverage.zero_rate);
  EXPECT_TRUE(coverage.stalled);
  EXPECT_TRUE(coverage.stall_failed);
  EXPECT_TRUE(coverage.cancelled);
  EXPECT_GT(coverage.component, 0u);
  EXPECT_GT(coverage.skips, 0u);
}

// Pinned cases, each one of the edges above on its own.
TEST(FlowPropertyTest, RepeatedLinkClaimsTwoShares) {
  Simulation sim(1);
  Link* a = sim.CreateLink("a", Millis(1), 6'000'000);
  Link* b = sim.CreateLink("b", Millis(1), 8'000'000);
  FlowAuditor audit;
  FlowId twice = sim.flows().StartFlow(Route::Through({a, b, a}), 1'000'000, 1.0, 0, nullptr);
  FlowId once = sim.flows().StartFlow(Route::Through({a}), 1'000'000, 1.0, 0, nullptr);
  audit.RunFor(sim.loop(), sim.flows(), Millis(10));
  EXPECT_EQ(audit.failure(), "");
  // Three crossings of a 6 Mbit link: 2 Mbit per crossing, for each flow.
  EXPECT_EQ(sim.flows().FlowRateBps(twice), 2'000'000u);
  EXPECT_EQ(sim.flows().FlowRateBps(once), 2'000'000u);
}

TEST(FlowPropertyTest, EmptyRouteIsUnconstrained) {
  // A loopback flow lives beside a saturated link and a downed one (the
  // loopback's own start brings the flap into the rates, so the flow
  // crossing it sits at 0). It is sized to outlast the sequence at the
  // unconstrained rate and carries a stall deadline, so a zero rating
  // would both move its rate and arm the deadline.
  constexpr uint64_t kLoopbackBytes = 1'000'000'000'000'000;  // ~1 s at 1e9 bytes/us
  const std::vector<Op> ops = {
      {Op::kStart, 0, 1, 200'000, 0},      {Op::kStart, 2, 4, 200'000, 0},
      {Op::kAdvance, 0, 0, Millis(20), 0}, {Op::kDown, 2, 1, 0, 0},
      {Op::kStart, 1, 0, kLoopbackBytes, Millis(50)},
      {Op::kAdvance, 0, 0, Millis(1), 0},  {Op::kAdvance, 0, 0, Millis(20), 0},
      {Op::kUp, 2, 1, 0, 0},               {Op::kAdvance, 0, 0, Millis(500), 0},
  };
  World world;
  int checks_beside_zero_rate = 0;
  world.audit().AlsoRequire([&checks_beside_zero_rate](const FlowScheduler& flows) {
    bool loopback_live = false;
    bool zero_rate = false;
    for (const FlowScheduler::StartedFlow& flow : flows.StartedFlows()) {
      zero_rate |= flow.rate_bytes_per_us == 0;
      if (!flow.links.empty()) {
        continue;
      }
      loopback_live = true;
      if (flows.FlowRateBps(flow.id) != 8'000'000'000'000'000u) {
        return "loopback flow " + std::to_string(flow.id) + " at " +
               std::to_string(flows.FlowRateBps(flow.id)) + " bps";
      }
      if (flow.stalled) {
        return "loopback flow " + std::to_string(flow.id) + " stalled";
      }
    }
    checks_beside_zero_rate += loopback_live && zero_rate ? 1 : 0;
    return std::string();
  });
  for (const Op& op : ops) {
    ASSERT_EQ(world.Apply(op), "");
  }
  EXPECT_GT(checks_beside_zero_rate, 0);
  const Coverage coverage = world.coverage();
  EXPECT_TRUE(coverage.zero_rate);
  EXPECT_FALSE(coverage.stalled);
}

TEST(FlowPropertyTest, StallDeadlineFiresOnADownedRoute) {
  // The flap reaches the rates at the next start's Reschedule; the route
  // then flaps up and down again with no Reschedule between, so the
  // deadline finds it down and fails the flow.
  std::vector<Op> ops = {
      {Op::kStart, 1, 2, 300'000, Millis(50)}, {Op::kAdvance, 1, 0, Millis(20), 0},
      {Op::kDown, 1, 1, 0, 0},                 {Op::kStart, 1, 6, 300'000, 0},
      {Op::kAdvance, 1, 0, Millis(5), 0},      {Op::kUp, 1, 1, 0, 0},
      {Op::kDown, 1, 1, 0, 0},                 {Op::kAdvance, 1, 0, Millis(100), 0},
  };
  size_t failed_at = 0;
  Coverage coverage;
  EXPECT_EQ(RunOps(ops, &failed_at, &coverage), "");
  EXPECT_TRUE(coverage.zero_rate);
  EXPECT_TRUE(coverage.stalled);
  EXPECT_TRUE(coverage.stall_failed);
}

}  // namespace
}  // namespace nymix
