// Flow-level bulk transfers with max-min fair bandwidth sharing.
//
// Packet-level simulation of a 77 MB kernel download would be pointless
// detail; instead a Flow claims capacity on every Link along its Route and
// the scheduler waterfills rates across competing flows, recomputing
// whenever a flow starts or finishes. This reproduces Figure 5's behaviour:
// N nyms share the 10 Mbit bottleneck almost exactly N-ways, and the Tor
// cell overhead appears as a per-flow byte inflation factor.
//
// Rescheduling is dirty-driven (docs/performance.md): the scheduler keeps
// per-link membership (which started flows cross each link) and a list of
// links whose membership or capacity changed since the last waterfill. A
// Reschedule with nothing dirty skips the waterfill outright; otherwise it
// re-waterfills only the connected component(s) reachable from the dirty
// links. Components cannot affect each other's max-min rates, so the
// restricted waterfill assigns the same rates the global one would. A
// loopback flow (empty route) shares no link: it runs at an unconstrained
// rate from the end of its setup RTT and never joins a waterfill. The
// global max-min reference lives in tests/flow_model.h; the property and
// determinism tests compare every started flow's rate against it, bit for
// bit, after every event (StartedFlows()).
//
// A component pass allocates nothing in steady state. Each link's state
// (membership plus the waterfill's scratch: remaining capacity, unfixed
// crossings, a visit stamp, a dirty flag) is created the first time the
// link carries a flow or is marked dirty, and is never erased, so a started
// flow caches pointers to its route's states, one per crossing. The closure
// marks links and flows with one per-pass stamp instead of inserting into
// sets, collects them into scratch vectors the scheduler reuses, and sorts
// the flows by id. Rounding cannot depend on the order links are scanned
// in: a round's min share and a flow's own share are exact minimums, and
// every subtraction runs in ascending flow id, then route order, as in the
// global model.
//
// Model notes (documented substitutions): transfers begin after one route
// RTT (connection + request); TCP slow-start and congestion dynamics are
// abstracted away, which is faithful to the paper's rate-limited DeterLab
// setup where flows are long and the bottleneck is a hard shaper.
//
// Failure model: a flow crossing lossy links (LinkFaultProfile) may abort
// with a Status instead of completing — the seeded roll happens at start so
// the event count stays flow-level — and a flow whose route goes down stalls
// at rate 0 and fails after its stall_timeout rather than hanging the event
// loop forever.
#ifndef SRC_NET_FLOW_H_
#define SRC_NET_FLOW_H_

#include <functional>
#include <map>
#include <vector>

#include "src/net/link.h"
#include "src/util/event_loop.h"
#include "src/util/prng.h"
#include "src/util/status.h"

namespace nymix {

struct Route {
  std::vector<Link*> links;
  // One-way propagation for the whole path; the flow starts after 2x this
  // (connection setup + request).
  SimDuration one_way_latency = 0;

  static Route Through(std::vector<Link*> links);
};

using FlowId = uint64_t;

// A flow is modeled as aborting when loss defeats retransmission; the
// per-link abort chance is min(1, loss_probability * this multiplier),
// independent across route links. 4.0 makes transfers robust below ~10%
// loss and mostly doomed above ~25%, matching TCP-over-Tor intuition.
inline constexpr double kLossAbortMultiplier = 4.0;

// The nominal rate of a loopback flow, in bytes/us: it finishes "instantly".
inline constexpr double kUnconstrainedBytesPerUs = 1e9;

class FlowScheduler {
 public:
  // `loss_seed` seeds the loss-abort stream (FaultInjector::SeedFor("net.flows")).
  FlowScheduler(EventLoop& loop, uint64_t loss_seed) : loop_(loop), loss_prng_(loss_seed) {}

  // Transfers `bytes * overhead_factor` wire bytes along `route`.
  // `overhead_factor` >= 1 models protocol framing (Tor cells ~1.12, Dissent
  // DC-net much higher). `done` fires exactly once: with the completion time
  // on success, or kUnavailable (loss abort, stall) / kCancelled
  // (CancelFlow). A started flow that spends `stall_timeout` at rate 0 (all
  // paths down) fails with kUnavailable; 0 means no deadline.
  FlowId StartFlow(const Route& route, uint64_t bytes, double overhead_factor,
                   SimDuration stall_timeout, std::function<void(Result<SimTime>)> done);

  // Cancels an in-progress flow (nym terminated mid-download). False if the
  // flow already completed; otherwise its callback fires kCancelled.
  bool CancelFlow(FlowId id);

  // nymlint:allow(dead-api): tests check every flow drained
  size_t active_flows() const { return flows_.size(); }

  // Current fair-share rate of a flow in bits/s (0 if unknown/not started).
  // nymlint:allow(dead-api): tests compare each flow's rate against the reference waterfill
  uint64_t FlowRateBps(FlowId id) const;

  // Marks `link` dirty (capacity changed: SetDown flap). Rates only move at
  // the next Reschedule, exactly as before the incremental scheduler. Wired
  // from Link::SetDown via Link::set_flow_scheduler.
  void NoteLinkStateChanged(Link* link);

  // Every started flow (ascending id) with its route, its exact fair-share
  // rate and its stall flag: the read-only view the tests audit against the
  // global max-min model in tests/flow_model.h.
  struct StartedFlow {
    FlowId id = 0;
    std::vector<Link*> links;
    double rate_bytes_per_us = 0;
    bool stalled = false;
  };
  // nymlint:allow(dead-api): the reference waterfill in tests/flow_model.h reads the started flows
  std::vector<StartedFlow> StartedFlows() const;

  // Waterfill-effort introspection (always counted, metrics attached or
  // not): how many Reschedules ran a component-restricted waterfill, or
  // skipped the computation entirely.
  uint64_t waterfills_component() const { return waterfills_component_; }
  uint64_t waterfill_skips() const { return waterfill_skips_; }

 private:
  struct LinkState;

  struct Flow {
    FlowId id = 0;
    std::vector<Link*> links;
    // The state of each route link, one entry per crossing (a link crossed
    // twice appears twice); filled when the flow starts.
    std::vector<LinkState*> link_states;
    double remaining_bytes = 0;
    double wire_bytes_total = 0;  // initial remaining_bytes, for tap reports
    double rate_bytes_per_us = 0;
    bool started = false;  // becomes true after the setup RTT
    SimTime created_at = 0;
    SimDuration stall_timeout = 0;  // 0 = no deadline
    // Loss abort decided at start (seeded): the flow dies when setup ends.
    bool doomed = false;
    // Stall tracking: set while the flow is started but rated 0.
    bool stalled = false;
    SimTime stalled_since = 0;
    uint64_t stall_event = 0;
    bool has_stall_event = false;
    uint64_t visit_stamp = 0;  // Reschedule's closure mark
    std::function<void(Result<SimTime>)> done;
  };

  // One link's fair-share state. Created once and never erased, so flows
  // and dirty_links_ hold pointers to it; a link nobody crosses any more
  // just has no flows.
  struct LinkState {
    Link* link = nullptr;
    // Started flows crossing the link, ascending id. May hold a flow twice
    // (a route may cross the same link twice — each crossing claims a
    // capacity share, matching the waterfill's multiplicity accounting).
    std::vector<Flow*> flows;
    // Waterfill scratch, set for the links of the component being filled.
    double capacity = 0;  // bytes/us remaining
    int unfixed = 0;      // crossings by flows not yet fixed
    uint64_t visit_stamp = 0;
    bool dirty = false;  // listed in dirty_links_
  };

  // Advances all running flows to now, completing any that finished.
  void Settle();
  // Reports a finished flow (completed or not) to the taps of every unique
  // link on its route (src/net/tap.h). Deduplicated and ordered by link id,
  // so observation order is reproducible.
  void NotifyFlowTaps(FlowId id, const Flow& flow, bool completed);
  // Refreshes rates (component waterfill, or a skip when nothing is dirty)
  // and schedules the next completion event.
  void Reschedule();
  // Removes the flow and fires its callback with a failure Status.
  void FailFlow(FlowId id, Status status, const char* counter);

  LinkState& StateOf(Link* link);
  void MarkDirty(LinkState& state);
  // Membership bookkeeping: called when a flow becomes started / when a
  // started flow is removed. Marks the flow's links dirty (a loopback flow
  // has none).
  void AddFlowMembership(Flow& flow);
  void RemoveFlowMembership(const Flow& flow);

  // Waterfills comp_flows_ (ascending id, each with a non-empty route) over
  // comp_links_, exactly the links they cross: the closure Reschedule found.
  void Waterfill();
  // Stall-deadline arm/disarm for comp_flows_. Only flows whose rate was
  // just recomputed can transition, so restricting the scan keeps the
  // scheduled-event sequence identical to a full scan.
  void UpdateStallWatches();
  void RefreshMeters();

  EventLoop& loop_;
  std::map<FlowId, Flow> flows_;
  FlowId next_id_ = 1;
  SimTime last_settle_ = 0;
  uint64_t pending_event_ = 0;
  bool has_pending_event_ = false;
  Prng loss_prng_;

  // --- Incremental fair-share state --------------------------------------
  // Only looked up when a flow starts or a link flaps; map nodes keep every
  // LinkState at one address for the scheduler's lifetime.
  std::map<Link*, LinkState, LinkIdLess> link_states_;
  std::vector<LinkState*> dirty_links_;  // each at most once (LinkState::dirty)
  // Per-pass scratch, reused so a component pass allocates nothing once the
  // vectors have grown: the closure's links and flows, the pass stamp, and
  // the waterfill's unfixed lists.
  std::vector<LinkState*> comp_links_;
  std::vector<Flow*> comp_flows_;
  uint64_t visit_stamp_ = 0;
  std::vector<Flow*> unfixed_;
  std::vector<Flow*> still_unfixed_;

  uint64_t waterfills_component_ = 0;
  uint64_t waterfill_skips_ = 0;

  // Cached instruments, refreshed when the loop's observability epoch
  // moves (see EventLoop::observability_epoch()).
  uint64_t meters_epoch_ = 0;
  Counter* recomputes_counter_ = nullptr;
  Counter* skipped_counter_ = nullptr;
  Counter* flows_started_counter_ = nullptr;
  Counter* wire_bytes_counter_ = nullptr;
  Counter* flows_completed_counter_ = nullptr;
  Histogram* flow_duration_histogram_ = nullptr;
};

}  // namespace nymix

#endif  // SRC_NET_FLOW_H_
