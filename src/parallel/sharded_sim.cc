#include "src/parallel/sharded_sim.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstddef>
#include <limits>
#include <tuple>
#include <utility>

#include "src/util/check.h"

namespace nymix {
namespace {

constexpr SimTime kNoHorizon = std::numeric_limits<SimTime>::max();

bool DeliveryOrder(const CrossShardChannel::PendingDelivery& a,
                   const CrossShardChannel::PendingDelivery& b) {
  // The total order that makes cross-shard traffic thread-count-invariant:
  // virtual delivery time, then source shard, then channel creation order,
  // then per-direction send sequence. Every component is deterministic.
  return std::tie(a.deliver_at, a.src_shard, a.channel_id, a.seq) <
         std::tie(b.deliver_at, b.src_shard, b.channel_id, b.seq);
}

}  // namespace

ShardedSimulation::ShardedSimulation(uint64_t seed, ShardPlan plan)
    : plan_(plan), pool_(plan.threads) {
  NYMIX_CHECK(plan_.shards >= 1);
  size_t n = static_cast<size_t>(plan_.shards);
  shard_obs_.reserve(n);
  shards_.reserve(n);
  for (int i = 0; i < plan_.shards; ++i) {
    // Shard seeds depend on (experiment seed, shard id) only — never on the
    // thread count — so the plan fully determines every shard's randomness.
    uint64_t shard_seed =
        Mix64(seed ^ Fnv1a64("nymix.shard") ^ static_cast<uint64_t>(i));
    shard_obs_.push_back(std::make_unique<Observability>());
    shards_.push_back(std::make_unique<Simulation>(shard_seed));
    shards_.back()->loop().set_observability(shard_obs_.back().get());
  }
  inboxes_.resize(n);
  t_next_.resize(n);
  exec_floor_.resize(n);
  horizon_.resize(n);
  fresh_deliveries_.resize(n);
  shard_wall_ms_.resize(n);
  shard_events_base_.resize(n);
  // Executor self-metrics are always on: they are cheap (a handful of
  // histogram records per epoch, on the coordinator) and never reach the
  // identity-hashed merged() stream.
  exec_obs_.metrics.set_enabled(true);
  barrier_wait_ms_ = exec_obs_.metrics.GetHistogram("parallel.barrier_wait_ms");
  shard_skew_events_ = exec_obs_.metrics.GetHistogram("parallel.shard_skew_events");
  outbox_depth_ = exec_obs_.metrics.GetHistogram("parallel.outbox_depth");
  active_shards_ = exec_obs_.metrics.GetHistogram("parallel.active_shards");
  pump_events_ = exec_obs_.metrics.GetCounter("parallel.pump_events");
  deliveries_pumped_ = exec_obs_.metrics.GetCounter("parallel.deliveries_pumped");
}

void ShardedSimulation::EnableObservability(bool record_wall_time) {
  for (int i = 0; i < plan_.shards; ++i) {
    Observability& obs = *shard_obs_[static_cast<size_t>(i)];
    obs.EnableAll();
    obs.trace.set_record_wall_time(record_wall_time);
    obs.metrics.set_record_wall_time(record_wall_time);
    // Re-attach so the loop re-resolves its cached instrument pointers now
    // that the registry is enabled.
    shards_[static_cast<size_t>(i)]->loop().set_observability(&obs);
  }
  merged_obs_.EnableAll();
  merged_obs_.trace.set_record_wall_time(record_wall_time);
  merged_obs_.metrics.set_record_wall_time(record_wall_time);
}

CrossShardChannel* ShardedSimulation::CreateChannel(std::string name, int shard_a, int shard_b,
                                                    SimDuration latency,
                                                    uint64_t bandwidth_bps) {
  NYMIX_CHECK(shard_a >= 0 && shard_a < plan_.shards);
  NYMIX_CHECK(shard_b >= 0 && shard_b < plan_.shards);
  auto channel = std::make_unique<CrossShardChannel>(
      static_cast<uint64_t>(channels_.size()), std::move(name), shard_a, shard_b,
      shard(shard_a), shard(shard_b), latency, bandwidth_bps);
  if (lookahead_ == 0 || latency < lookahead_) {
    lookahead_ = latency;
  }
  edges_.push_back(Edge{shard_a, shard_b, channel.get(), /*a_to_b=*/true});
  edges_.push_back(Edge{shard_b, shard_a, channel.get(), /*a_to_b=*/false});
  channels_.push_back(std::move(channel));
  return channels_.back().get();
}

void ShardedSimulation::RunUntilIdle() {
  size_t n = shards_.size();
  if (channels_.empty()) {
    // No cross-shard edges: the shards are fully independent simulations.
    // One "epoch" of run-to-idle each; worker assignment is irrelevant
    // because no state is shared.
    pool_.RunIndexed(n, [&](size_t i) { shards_[i]->loop().RunUntilIdle(); });
    ++epochs_;
    return;
  }
  for (;;) {
    // Inboxes always drain into loop events at the barrier that filled
    // them and outboxes are drained at every barrier, so global quiescence
    // is exactly "no shard has a pending event".
    bool any_pending = false;
    for (size_t i = 0; i < n; ++i) {
      t_next_[i] = shards_[i]->loop().NextEventTime();
      any_pending = any_pending || t_next_[i].has_value();
    }
    if (!any_pending) {
      return;
    }
    // Execution floor: the earliest virtual instant each shard could still
    // execute ANY event. Starts at the shard's own next pending event and
    // is lowered transitively by wake-up chains — an idle shard can still
    // be woken by a delivery, and once awake can send on its own outgoing
    // edges (a send from src departs no earlier than the next promised
    // window at or after src's floor and arrives a wire latency later).
    // The fixpoint is a shortest-path relaxation over the edge graph;
    // latency > 0 on every channel means each relaxation moves a floor
    // strictly above its source's, so it converges in <= shards passes.
    // Without the transitive part an idle-but-wakeable shard would
    // contribute no bound and its neighbors would run unboundedly past
    // traffic the idle shard is about to originate (the classic
    // conservative-PDES wake-up deadlock).
    for (size_t i = 0; i < n; ++i) {
      exec_floor_[i] = t_next_[i].has_value() ? *t_next_[i] : kNoHorizon;
    }
    for (bool changed = true; changed;) {
      changed = false;
      for (const Edge& edge : edges_) {
        SimTime src_floor = exec_floor_[static_cast<size_t>(edge.src)];
        if (src_floor == kNoHorizon) {
          continue;
        }
        const SendSchedule& schedule = edge.a_to_b ? edge.channel->schedule_a_to_b()
                                                   : edge.channel->schedule_b_to_a();
        SimTime arrival = NextSendWindow(schedule, src_floor) + edge.channel->latency();
        if (arrival < exec_floor_[static_cast<size_t>(edge.dst)]) {
          exec_floor_[static_cast<size_t>(edge.dst)] = arrival;
          changed = true;
        }
      }
    }
    // Per-shard adaptive horizon: the earliest future arrival the shard
    // could still receive, minus one. A source whose floor is unbounded
    // (idle and unreachable) contributes no bound; a promised send window
    // lets the bound jump past the gap to the next window. No bound at all
    // means the shard may run all the way to idle in this epoch — that is
    // the "batch multiple logical epochs" case.
    for (size_t i = 0; i < n; ++i) {
      horizon_[i] = kNoHorizon;
    }
    for (const Edge& edge : edges_) {
      SimTime src_floor = exec_floor_[static_cast<size_t>(edge.src)];
      if (src_floor == kNoHorizon) {
        continue;
      }
      const SendSchedule& schedule = edge.a_to_b ? edge.channel->schedule_a_to_b()
                                                 : edge.channel->schedule_b_to_a();
      SimTime bound = NextSendWindow(schedule, src_floor) + edge.channel->latency() - 1;
      SimTime& horizon = horizon_[static_cast<size_t>(edge.dst)];
      horizon = std::min(horizon, bound);
    }
    // Active-shard-only dispatch: a shard whose next event lies beyond its
    // horizon has nothing runnable this epoch; skipping it entirely keeps
    // the pool's batches dense. (Its clock lags, which is harmless — event
    // timestamps, not clock reads, define the trace, and barrier-injected
    // deliveries are scheduled at absolute times.)
    active_.clear();
    for (size_t i = 0; i < n; ++i) {
      if (t_next_[i].has_value() && *t_next_[i] <= horizon_[i]) {
        active_.push_back(i);
        shard_events_base_[i] = shards_[i]->loop().events_executed();
      }
    }
    // The shard holding the global t_min always satisfies
    // horizon >= t_min + min_latency - 1 >= t_min, so progress is certain.
    NYMIX_CHECK(!active_.empty());
    // Operator escape hatch for diagnosing stuck or slow epoch structure
    // (stderr only; never touches simulation state or outputs).
    // nymlint:allow(determinism-env): read-only diagnostics toggle, never feeds simulation state
    static const bool debug_epochs = std::getenv("NYMIX_DEBUG_EPOCHS") != nullptr;
    if (debug_epochs && epochs_ % 1000 == 0) {
      std::fprintf(stderr, "epoch=%llu active=%zu xdeliv=%llu",
                   static_cast<unsigned long long>(epochs_), active_.size(),
                   static_cast<unsigned long long>(cross_deliveries_));
      for (size_t i = 0; i < n; ++i) {
        std::fprintf(stderr, " s%zu[t_next=%lld hor=%lld now=%lld]", i,
                     t_next_[i].has_value() ? static_cast<long long>(*t_next_[i]) : -1,
                     horizon_[i] == kNoHorizon ? -1 : static_cast<long long>(horizon_[i]),
                     static_cast<long long>(shards_[i]->loop().now()));
      }
      std::fprintf(stderr, "\n");
    }
    pool_.RunIndexed(active_.size(), [&](size_t k) {
      size_t i = active_[k];
      // nymlint:allow(determinism-wallclock): executor self-profiling (parallel.barrier_wait_ms); never feeds virtual time
      auto t0 = std::chrono::steady_clock::now();
      if (horizon_[i] == kNoHorizon) {
        shards_[i]->loop().RunUntilIdle();
      } else {
        shards_[i]->loop().RunUntil(horizon_[i]);
      }
      // nymlint:allow(determinism-wallclock): executor self-profiling (parallel.barrier_wait_ms); never feeds virtual time
      auto t1 = std::chrono::steady_clock::now();
      shard_wall_ms_[i] = std::chrono::duration<double, std::milli>(t1 - t0).count();
    });
    ++epochs_;
    // Epoch skew diagnostics: how unbalanced was this epoch, in events (a
    // placement-quality signal) and wall ms (the barrier wait — time the
    // fastest shard spent blocked on the slowest)?
    uint64_t events_min = std::numeric_limits<uint64_t>::max();
    uint64_t events_max = 0;
    double wall_min = std::numeric_limits<double>::max();
    double wall_max = 0;
    for (size_t i : active_) {
      uint64_t delta = shards_[i]->loop().events_executed() - shard_events_base_[i];
      events_min = std::min(events_min, delta);
      events_max = std::max(events_max, delta);
      wall_min = std::min(wall_min, shard_wall_ms_[i]);
      wall_max = std::max(wall_max, shard_wall_ms_[i]);
    }
    active_shards_->Record(static_cast<double>(active_.size()));
    shard_skew_events_->Record(static_cast<double>(events_max - events_min));
    barrier_wait_ms_->Record(active_.size() > 1 ? wall_max - wall_min : 0.0);
    for (Inbox& inbox : inboxes_) {
      pump_events_->Increment(inbox.pumps_rescheduled);
      deliveries_pumped_->Increment(inbox.deliveries_pumped);
      inbox.pumps_rescheduled = 0;
      inbox.deliveries_pumped = 0;
    }
    DispatchDeliveries();
  }
}

void ShardedSimulation::DispatchDeliveries() {
  pending_.clear();
  for (auto& channel : channels_) {
    channel->DrainInto(pending_);
  }
  outbox_depth_->Record(static_cast<double>(pending_.size()));
  if (pending_.empty()) {
    return;
  }
  std::sort(pending_.begin(), pending_.end(), DeliveryOrder);
  cross_deliveries_ += pending_.size();
  // Partition the sorted batch into per-destination mailboxes. Everything
  // below is a function of the sorted content only, so pump scheduling —
  // and with it every delivery's position in its shard's event order — is
  // identical at every thread count.
  std::fill(fresh_deliveries_.begin(), fresh_deliveries_.end(), size_t{0});
  for (CrossShardChannel::PendingDelivery& delivery : pending_) {
    size_t dst = static_cast<size_t>(delivery.dst_shard);
    inboxes_[dst].queue.push_back(std::move(delivery));
    ++fresh_deliveries_[dst];
  }
  for (size_t dst = 0; dst < inboxes_.size(); ++dst) {
    if (fresh_deliveries_[dst] == 0) {
      continue;
    }
    Inbox& inbox = inboxes_[dst];
    // Compact the consumed prefix (delivered in earlier epochs) before
    // merging, so the mailbox never grows beyond its high-water mark.
    if (inbox.head > 0) {
      inbox.queue.erase(inbox.queue.begin(),
                        inbox.queue.begin() + static_cast<ptrdiff_t>(inbox.head));
      inbox.head = 0;
    }
    // Leftover (future) deliveries from earlier barriers and this barrier's
    // batch are each sorted; merge preserves the global delivery order.
    auto middle = inbox.queue.end() - static_cast<ptrdiff_t>(fresh_deliveries_[dst]);
    std::inplace_merge(inbox.queue.begin(), middle, inbox.queue.end(), DeliveryOrder);
    SimTime front = inbox.queue.front().deliver_at;
    // One pump event per destination per barrier (instead of one scheduled
    // closure per delivery): keep the earliest outstanding pump only.
    if (inbox.pump_event.has_value() && front < inbox.pump_at) {
      shards_[dst]->loop().Cancel(*inbox.pump_event);
      inbox.pump_event.reset();
    }
    if (!inbox.pump_event.has_value()) {
      int dst_shard = static_cast<int>(dst);
      inbox.pump_at = front;
      inbox.pump_event = shards_[dst]->loop().ScheduleAt(
          front, [this, dst_shard] { PumpInbox(dst_shard); });
      pump_events_->Increment();
    }
  }
}

void ShardedSimulation::PumpInbox(int dst) {
  Inbox& inbox = inboxes_[static_cast<size_t>(dst)];
  EventLoop& loop = shards_[static_cast<size_t>(dst)]->loop();
  inbox.pump_event.reset();
  const SimTime now = loop.now();
  while (inbox.head < inbox.queue.size() && inbox.queue[inbox.head].deliver_at <= now) {
    CrossShardChannel::PendingDelivery& delivery = inbox.queue[inbox.head];
    ++inbox.head;
    ++inbox.deliveries_pumped;
    delivery.dst_link->DeliverFromRemote(delivery.packet);
    // Release the payload now; the record slot itself is reclaimed in bulk
    // at the next barrier compaction.
    delivery.packet = Packet{};
  }
  if (inbox.head < inbox.queue.size()) {
    int dst_shard = dst;
    inbox.pump_at = inbox.queue[inbox.head].deliver_at;
    inbox.pump_event =
        loop.ScheduleAt(inbox.pump_at, [this, dst_shard] { PumpInbox(dst_shard); });
    ++inbox.pumps_rescheduled;
  } else {
    inbox.queue.clear();
    inbox.head = 0;
  }
}

void ShardedSimulation::MergeObservability() {
  NYMIX_CHECK(!merged_done_);
  merged_done_ = true;
  if (!placement_label_.empty()) {
    // The plan header: identity is a pure function of (seed, shards,
    // placement), so the merged trace names the placement it ran under.
    // Thread-count-invariant by construction (the label is part of the
    // experiment definition).
    merged_obs_.trace.AddInstant("parallel", "shard_plan:" + placement_label_, "executor", 0);
  }
  std::vector<const TraceRecorder*> parts;
  parts.reserve(shard_obs_.size());
  for (auto& obs : shard_obs_) {
    parts.push_back(&obs->trace);
  }
  merged_obs_.trace.MergeShardTraces(parts);
  for (auto& obs : shard_obs_) {
    merged_obs_.metrics.MergeFrom(obs->metrics);
  }
}

double ShardedSimulation::barrier_wait_ms_mean() const {
  return barrier_wait_ms_->mean();
}

double ShardedSimulation::shard_skew_events_mean() const {
  return shard_skew_events_->mean();
}

double ShardedSimulation::outbox_depth_max() const {
  return outbox_depth_->max();
}

}  // namespace nymix
