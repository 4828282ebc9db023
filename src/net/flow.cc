#include "src/net/flow.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace nymix {

Route Route::Through(std::vector<Link*> links) {
  Route route;
  route.links = std::move(links);
  for (const Link* link : route.links) {
    route.one_way_latency += link->latency();
  }
  return route;
}

void FlowScheduler::RefreshMeters() {
  if (meters_epoch_ == loop_.observability_epoch()) {
    return;
  }
  meters_epoch_ = loop_.observability_epoch();
  recomputes_counter_ = nullptr;
  skipped_counter_ = nullptr;
  flows_started_counter_ = nullptr;
  wire_bytes_counter_ = nullptr;
  flows_completed_counter_ = nullptr;
  flow_duration_histogram_ = nullptr;
  if (MetricsRegistry* meters = loop_.meters()) {
    recomputes_counter_ = meters->GetCounter("net.fair_share_recomputes");
    skipped_counter_ = meters->GetCounter("net.fair_share_skipped");
    flows_started_counter_ = meters->GetCounter("net.flows_started");
    wire_bytes_counter_ = meters->GetCounter("net.flow_wire_bytes");
    flows_completed_counter_ = meters->GetCounter("net.flows_completed");
    flow_duration_histogram_ = meters->GetHistogram("net.flow_duration_us");
  }
}

FlowId FlowScheduler::StartFlow(const Route& route, uint64_t bytes, double overhead_factor,
                                SimDuration stall_timeout,
                                std::function<void(Result<SimTime>)> done) {
  NYMIX_CHECK(overhead_factor >= 1.0);
  Settle();
  RefreshMeters();
  FlowId id = next_id_++;
  Flow flow;
  flow.id = id;
  for (Link* link : route.links) {
    // Flows fair-share inside one shard's scheduler; a cross-shard half-link
    // has no local receiving side, so routing a flow over it would silently
    // model half a wire. Cross-shard traffic goes packet-by-packet through
    // CrossShardChannel (src/parallel) instead.
    NYMIX_CHECK(!link->remote());
  }
  flow.links = route.links;
  flow.remaining_bytes = static_cast<double>(bytes) * overhead_factor;
  flow.wire_bytes_total = flow.remaining_bytes;
  flow.stall_timeout = stall_timeout;
  flow.done = std::move(done);
  flow.started = false;
  flow.created_at = loop_.now();

  // Seeded loss-abort roll: a flow crossing lossy links may be doomed from
  // the start (loss defeating retransmission partway through). The Prng is
  // only consumed when the route actually has loss, so fault-free runs draw
  // nothing here.
  double survive = 1.0;
  for (const Link* link : route.links) {
    survive *= 1.0 - std::min(1.0, link->loss_probability() * kLossAbortMultiplier);
  }
  const double p_fail = 1.0 - survive;
  if (p_fail > 0.0 && loss_prng_.NextDouble() < p_fail) {
    flow.doomed = true;
  }

  if (flows_started_counter_ != nullptr) {
    flows_started_counter_->Increment();
    wire_bytes_counter_->Increment(static_cast<uint64_t>(flow.remaining_bytes));
  }
  if (TraceRecorder* tracer = loop_.tracer()) {
    tracer->AddAsyncBegin("net", "flow", id, loop_.now());
  }
  flows_.emplace(id, std::move(flow));

  // Connection setup + request takes one round trip; then the flow joins
  // the fair-share competition (or dies, if the loss roll doomed it). A
  // loopback flow shares no link, so it runs unconstrained instead.
  loop_.ScheduleAfter(2 * route.one_way_latency, [this, id] {
    auto it = flows_.find(id);
    if (it == flows_.end()) {
      return;  // cancelled during setup
    }
    if (it->second.doomed) {
      FailFlow(id, UnavailableError("flow aborted: packet loss on route"),
               "net.flows_aborted_loss");
      Reschedule();
      return;
    }
    Settle();
    it->second.started = true;
    if (it->second.links.empty()) {
      it->second.rate_bytes_per_us = kUnconstrainedBytesPerUs;
    }
    AddFlowMembership(it->second);
    Reschedule();
  });
  Reschedule();
  return id;
}

bool FlowScheduler::CancelFlow(FlowId id) {
  Settle();
  auto it = flows_.find(id);
  if (it == flows_.end()) {
    return false;
  }
  if (it->second.has_stall_event) {
    loop_.Cancel(it->second.stall_event);
  }
  auto node = flows_.extract(it);
  if (node.mapped().started) {
    RemoveFlowMembership(node.mapped());
  }
  if (MetricsRegistry* meters = loop_.meters()) {
    meters->GetCounter("net.flows_cancelled")->Increment();
  }
  if (TraceRecorder* tracer = loop_.tracer()) {
    tracer->AddAsyncEnd("net", "flow", id, loop_.now());
  }
  NotifyFlowTaps(id, node.mapped(), /*completed=*/false);
  if (node.mapped().done) {
    node.mapped().done(CancelledError("flow cancelled"));
  }
  Reschedule();
  return true;
}

uint64_t FlowScheduler::FlowRateBps(FlowId id) const {
  auto it = flows_.find(id);
  if (it == flows_.end()) {
    return 0;
  }
  return static_cast<uint64_t>(it->second.rate_bytes_per_us * 8e6);
}

std::vector<FlowScheduler::StartedFlow> FlowScheduler::StartedFlows() const {
  std::vector<StartedFlow> out;
  for (const auto& [id, flow] : flows_) {
    if (flow.started) {
      out.push_back(StartedFlow{id, flow.links, flow.rate_bytes_per_us, flow.stalled});
    }
  }
  return out;
}

void FlowScheduler::NotifyFlowTaps(FlowId id, const Flow& flow, bool completed) {
  FlowMetadata meta;
  meta.flow_id = id;
  meta.created_at = flow.created_at;
  meta.ended_at = loop_.now();
  meta.wire_bytes = static_cast<uint64_t>(flow.wire_bytes_total);
  meta.completed = completed;
  // Dedupe in id order: a route crossing the same link twice is one
  // observation, and ordered iteration keeps tap callback order a function
  // of creation order only. Routes are a few links long, so each step picks
  // the next larger id by a scan instead of building a sorted copy.
  const Link* prev = nullptr;
  for (;;) {
    Link* next = nullptr;
    for (Link* link : flow.links) {
      if ((prev == nullptr || link->id() > prev->id()) &&
          (next == nullptr || link->id() < next->id())) {
        next = link;
      }
    }
    if (next == nullptr) {
      return;
    }
    if (LinkTap* tap = next->tap()) {
      tap->OnFlowEnded(*next, meta);
    }
    prev = next;
  }
}

void FlowScheduler::FailFlow(FlowId id, Status status, const char* counter) {
  auto it = flows_.find(id);
  if (it == flows_.end()) {
    return;
  }
  if (it->second.has_stall_event) {
    loop_.Cancel(it->second.stall_event);
  }
  auto node = flows_.extract(it);
  if (node.mapped().started) {
    RemoveFlowMembership(node.mapped());
  }
  if (MetricsRegistry* meters = loop_.meters()) {
    meters->GetCounter("net.flows_failed")->Increment();
    meters->GetCounter(counter)->Increment();
  }
  if (TraceRecorder* tracer = loop_.tracer()) {
    tracer->AddAsyncEnd("net", "flow", id, loop_.now());
    tracer->AddInstant("fault", std::string("flow_failed:") + StatusCodeName(status.code()).data(),
                       "faults", loop_.now());
  }
  NotifyFlowTaps(id, node.mapped(), /*completed=*/false);
  if (node.mapped().done) {
    node.mapped().done(std::move(status));
  }
}

FlowScheduler::LinkState& FlowScheduler::StateOf(Link* link) {
  LinkState& state = link_states_[link];
  state.link = link;
  return state;
}

void FlowScheduler::MarkDirty(LinkState& state) {
  if (!state.dirty) {
    state.dirty = true;
    dirty_links_.push_back(&state);
  }
}

void FlowScheduler::NoteLinkStateChanged(Link* link) { MarkDirty(StateOf(link)); }

void FlowScheduler::AddFlowMembership(Flow& flow) {
  flow.link_states.reserve(flow.links.size());
  for (Link* link : flow.links) {
    LinkState& state = StateOf(link);
    auto pos = std::upper_bound(state.flows.begin(), state.flows.end(), flow.id,
                                [](FlowId id, const Flow* other) { return id < other->id; });
    state.flows.insert(pos, &flow);
    MarkDirty(state);
    flow.link_states.push_back(&state);
  }
}

void FlowScheduler::RemoveFlowMembership(const Flow& flow) {
  for (LinkState* state : flow.link_states) {
    std::vector<Flow*>& flows = state->flows;
    auto pos = std::lower_bound(flows.begin(), flows.end(), flow.id,
                                [](const Flow* other, FlowId id) { return other->id < id; });
    NYMIX_CHECK_MSG(pos != flows.end() && *pos == &flow, "flow missing from link membership");
    flows.erase(pos);
    MarkDirty(*state);
  }
}

void FlowScheduler::Settle() {
  SimTime now = loop_.now();
  if (now == last_settle_) {
    return;
  }
  RefreshMeters();
  double elapsed_us = static_cast<double>(now - last_settle_);
  last_settle_ = now;

  std::vector<FlowId> finished;
  for (auto& [id, flow] : flows_) {
    if (!flow.started) {
      continue;
    }
    flow.remaining_bytes -= flow.rate_bytes_per_us * elapsed_us;
    if (flow.remaining_bytes <= 1e-6) {
      flow.remaining_bytes = 0;
      finished.push_back(id);
    }
  }
  for (FlowId id : finished) {
    auto node = flows_.extract(id);
    if (node.mapped().started) {
      RemoveFlowMembership(node.mapped());
    }
    if (node.mapped().has_stall_event) {
      loop_.Cancel(node.mapped().stall_event);
    }
    if (flows_completed_counter_ != nullptr) {
      flows_completed_counter_->Increment();
      flow_duration_histogram_->Record(static_cast<double>(now - node.mapped().created_at));
    }
    if (TraceRecorder* tracer = loop_.tracer()) {
      tracer->AddAsyncEnd("net", "flow", id, now);
    }
    NotifyFlowTaps(id, node.mapped(), /*completed=*/true);
    if (node.mapped().done) {
      node.mapped().done(now);
    }
  }
}

void FlowScheduler::Waterfill() {
  // Max-min fair allocation by progressive filling over exactly the links
  // the component's flows cross.
  for (LinkState* state : comp_links_) {
    // A downed link contributes zero capacity: flows crossing it rate at
    // 0 and (with a stall_timeout) eventually fail instead of hanging.
    const Link* link = state->link;
    state->capacity = link->is_down() ? 0.0 : static_cast<double>(link->bandwidth_bps()) / 8e6;
    state->unfixed = 0;
  }
  unfixed_.clear();
  for (Flow* flow : comp_flows_) {
    flow->rate_bytes_per_us = 0;
    unfixed_.push_back(flow);
    for (LinkState* state : flow->link_states) {
      ++state->unfixed;
    }
  }

  while (!unfixed_.empty()) {
    // Find the most contended link's per-flow share. A minimum is exact, so
    // the order the links are scanned in cannot reach the result.
    double min_share = std::numeric_limits<double>::infinity();
    for (const LinkState* state : comp_links_) {
      if (state->unfixed > 0) {
        min_share = std::min(min_share, state->capacity / state->unfixed);
      }
    }
    // Fix every flow bottlenecked at that share. A bottlenecked flow is
    // fixed at its OWN tightest link's share rather than at min_share:
    // min_share can come from an unrelated connected component whose
    // arithmetic history differs in the last bits, and rounding that noise
    // into the rate would make a component-restricted waterfill disagree
    // with a global one by one ulp. The flow's own share is computed purely
    // from links it crosses, so it is bit-identical either way; it is
    // always >= min_share (min_share minimizes over a superset of links),
    // so the epsilon window and the progress guarantee are unchanged.
    // Flows are fixed in ascending id, so each link's capacity is reduced
    // in the same order the global model reduces it.
    still_unfixed_.clear();
    for (Flow* flow : unfixed_) {
      double own_share = std::numeric_limits<double>::infinity();
      for (const LinkState* state : flow->link_states) {
        own_share = std::min(own_share, state->capacity / state->unfixed);
      }
      if (own_share <= min_share + 1e-12) {
        flow->rate_bytes_per_us = own_share;
        for (LinkState* state : flow->link_states) {
          state->capacity -= own_share;
          --state->unfixed;
        }
      } else {
        still_unfixed_.push_back(flow);
      }
    }
    NYMIX_CHECK_MSG(still_unfixed_.size() < unfixed_.size(), "waterfilling did not progress");
    unfixed_.swap(still_unfixed_);
  }
}

void FlowScheduler::UpdateStallWatches() {
  // Stall bookkeeping: a started flow rated 0 with a stall deadline either
  // arms its deadline or, if rates recovered, disarms it. Scanning only the
  // just-recomputed flows (ascending id, like a full scan would visit them)
  // is exact: a flow whose rate was not recomputed cannot transition.
  const SimTime now = loop_.now();
  for (Flow* started : comp_flows_) {
    Flow& flow = *started;
    if (!flow.started || flow.stall_timeout == 0) {
      continue;
    }
    const bool rate_zero = flow.rate_bytes_per_us <= 0 && flow.remaining_bytes > 0;
    if (rate_zero && !flow.stalled) {
      flow.stalled = true;
      flow.stalled_since = now;
      const FlowId flow_id = flow.id;
      flow.stall_event = loop_.ScheduleAfter(flow.stall_timeout, [this, flow_id] {
        auto it = flows_.find(flow_id);
        if (it == flows_.end() || !it->second.stalled) {
          return;
        }
        it->second.has_stall_event = false;
        // Nothing rescheduled since the stall began; if the route flapped
        // back up in the meantime, rejoin the competition instead of dying.
        bool route_up = true;
        for (const Link* link : it->second.links) {
          if (link->is_down()) {
            route_up = false;
            break;
          }
        }
        Settle();
        if (route_up) {
          it->second.stalled = false;
          Reschedule();
          return;
        }
        FailFlow(flow_id, UnavailableError("flow stalled: route down"), "net.flows_stalled");
        Reschedule();
      });
      flow.has_stall_event = true;
      if (MetricsRegistry* meters = loop_.meters()) {
        meters->GetCounter("net.flow_stall_watches")->Increment();
      }
    } else if (!rate_zero && flow.stalled) {
      flow.stalled = false;
      if (flow.has_stall_event) {
        loop_.Cancel(flow.stall_event);
        flow.has_stall_event = false;
      }
    }
  }
}

void FlowScheduler::Reschedule() {
  if (has_pending_event_) {
    loop_.Cancel(pending_event_);
    has_pending_event_ = false;
  }
  RefreshMeters();

  if (dirty_links_.empty()) {
    // Nothing changed since the last waterfill: every rate is still exact.
    ++waterfill_skips_;
    if (skipped_counter_ != nullptr) {
      skipped_counter_->Increment();
    }
  } else {
    // Re-waterfill only the connected component(s) touching a dirty link.
    // Closure: any flow on a dirty link, any link of such a flow, and so on.
    // Links outside the closure saw no membership or capacity change and
    // share no flow with one that did, so their flows' max-min rates are
    // unchanged by definition of the waterfill. Every link and flow reached
    // is marked with this pass's stamp; the dirty links and, after them,
    // each newly reached flow's links are appended to comp_links_, which
    // doubles as the search queue.
    const uint64_t stamp = ++visit_stamp_;
    comp_links_.clear();
    comp_flows_.clear();
    for (LinkState* state : dirty_links_) {
      state->dirty = false;
      // A dirty link with no started flows (flap on an idle link, or the
      // last flow just left) constrains nobody — skip it.
      if (!state->flows.empty()) {
        state->visit_stamp = stamp;
        comp_links_.push_back(state);
      }
    }
    for (size_t next_link = 0; next_link < comp_links_.size(); ++next_link) {
      for (Flow* flow : comp_links_[next_link]->flows) {
        if (flow->visit_stamp == stamp) {
          continue;
        }
        flow->visit_stamp = stamp;
        comp_flows_.push_back(flow);
        for (LinkState* state : flow->link_states) {
          if (state->visit_stamp != stamp) {
            state->visit_stamp = stamp;
            comp_links_.push_back(state);
          }
        }
      }
    }
    std::sort(comp_flows_.begin(), comp_flows_.end(),
              [](const Flow* a, const Flow* b) { return a->id < b->id; });
    Waterfill();
    UpdateStallWatches();
    ++waterfills_component_;
    if (recomputes_counter_ != nullptr) {
      recomputes_counter_->Increment();
    }
    dirty_links_.clear();
  }

  // Schedule the earliest completion. Runs identically after a component
  // pass and a skip: the scan is over all flows, and the pending event is
  // cancelled above and rescheduled below on every call, so the event table
  // (and EventLoop's pending_events trace counter) does not depend on
  // whether the waterfill ran.
  double min_eta_us = std::numeric_limits<double>::infinity();
  for (const auto& [id, flow] : flows_) {
    (void)id;
    if (flow.started && flow.rate_bytes_per_us > 0) {
      min_eta_us = std::min(min_eta_us, flow.remaining_bytes / flow.rate_bytes_per_us);
    }
  }
  if (std::isfinite(min_eta_us)) {
    SimDuration delay = static_cast<SimDuration>(min_eta_us) + 1;
    pending_event_ = loop_.ScheduleAfter(delay, [this] {
      has_pending_event_ = false;
      Settle();
      Reschedule();
    });
    has_pending_event_ = true;
  }
}

}  // namespace nymix
