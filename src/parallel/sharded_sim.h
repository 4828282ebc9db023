// ShardedSimulation: a conservative (lookahead-synchronized) parallel
// executor over K independent Simulation shards.
//
// Determinism contract — the reason this subsystem exists:
//
//   For a fixed (seed, ShardPlan::shards, experiment definition), the
//   merged trace JSON and metrics dump are byte-identical for EVERY thread
//   count, including threads=1. Thread count is execution mechanics, not
//   experiment definition.
//
// How the contract is kept:
//   * Shard seeds derive from (experiment seed, shard id) only.
//   * Within an epoch, shards touch disjoint state, so worker assignment
//     cannot matter; the epoch barrier is the only synchronization.
//   * Cross-shard packets are buffered in per-direction channel outboxes
//     (single-writer: the source shard) and handed to per-destination
//     inbox mailboxes at the barrier by the coordinator in (deliver_at,
//     src shard, channel id, seq) order. Each destination shard drains its
//     mailbox from one "pump" event per delivery instant — scheduling
//     decisions are functions of that sorted order only, never of which
//     worker thread ran which shard.
//   * Per-shard Observability is merged in shard-id order
//     (TraceRecorder::MergeShardTraces, MetricsRegistry::MergeFrom).
//   * Executor self-metrics (barrier wait wall time, shard skew, mailbox
//     depth — the parallel.* family) live in a SEPARATE registry
//     (executor_metrics()) that is never folded into merged(): wall-clock
//     content there would break cross-thread byte-identity.
//   * threads=1 runs the SAME sharded structure inline in shard order — the
//     serial reference that tests/parallel_equivalence_test.cc compares
//     against.
//
// Epoch algorithm (conservative PDES with per-edge adaptive horizons):
// first compute each shard's execution floor — the earliest virtual
// instant it could still execute any event:
//
//     floor(i) = t_next(i), lowered to a fixpoint by
//     floor(dst) = min(floor(dst),
//                      NextSendWindow(schedule, floor(src)) + latency)
//
// over every directed channel edge. The transitive part matters: an idle
// shard (no pending event) can still be woken by a delivery, and once
// awake can originate traffic of its own — without the fixpoint its
// neighbors would run unboundedly past that traffic (the classic
// conservative-PDES wake-up deadlock; a hostless cloud-server shard in a
// crossed fleet hits it on the very first epoch). Latency > 0 everywhere
// makes the relaxation converge in <= shards passes. Then the earliest
// future delivery dst can still receive is bounded below by
//
//     eot(src -> dst) = NextSendWindow(schedule, floor(src)) + latency
//
// where the send window is the direction's promised SendSchedule (identity
// when unconstrained). Each shard runs to
//
//     horizon(dst) = min over incoming edges of eot(src -> dst) - 1,
//
// or all the way to idle when no incoming edge constrains it. Shards whose
// next event lies beyond their horizon are skipped entirely — the executor
// dispatches only runnable shards to the pool. Progress: the shard holding
// the globally earliest event t_min has floor == t_min (no fixpoint value
// can drop below the global minimum), so its horizon >= t_min +
// min_latency - 1 >= t_min and every epoch executes at least one event.
// Causality: a send executed at t <= horizon(src's own run) departs on a
// window >= floor(src) and delivers at t + latency > horizon(dst) by
// construction, so no delivery ever lands in an epoch its destination
// already executed. Horizons are computed from virtual-time state only, so
// epoch structure — and therefore every output byte — is identical at
// every thread count. With no channels the shards are fully independent
// and run to idle in one epoch.
#ifndef SRC_PARALLEL_SHARDED_SIM_H_
#define SRC_PARALLEL_SHARDED_SIM_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/net/simulation.h"
#include "src/obs/observability.h"
#include "src/parallel/channel.h"
#include "src/parallel/shard_plan.h"
#include "src/util/thread_pool.h"

namespace nymix {

class ShardedSimulation {
 public:
  ShardedSimulation(uint64_t seed, ShardPlan plan);

  int shard_count() const { return plan_.shards; }
  int thread_count() const { return pool_.thread_count(); }
  Simulation& shard(int i) { return *shards_[static_cast<size_t>(i)]; }
  Observability& shard_obs(int i) { return *shard_obs_[static_cast<size_t>(i)]; }

  // Enables tracing + metrics on every shard (and the merged sink).
  // record_wall_time=false is what byte-identity comparisons need: all
  // virtual-time content is reproducible, the simulator's own wall clock
  // never is.
  void EnableObservability(bool record_wall_time);

  // Creates a cross-shard wire (owned by this executor; see channel.h).
  // Must be called before Run — channels define the lookahead.
  CrossShardChannel* CreateChannel(std::string name, int shard_a, int shard_b,
                                   SimDuration latency, uint64_t bandwidth_bps);

  // Runs epochs until every shard is idle and no cross-shard deliveries are
  // pending. Callable repeatedly (schedule more work between calls).
  void RunUntilIdle();

  // Folds per-shard traces and metrics into merged() in shard-id order.
  // Call once, after the run; the merged trace interleaves shard events by
  // virtual time with "s<i>/" track prefixes. When a placement label is
  // set, it is stamped into the merged trace first (an instant at t=0 on
  // the "executor" track) so identity is visibly a function of the plan.
  void MergeObservability();
  Observability& merged() { return merged_obs_; }

  // Names the host -> shard placement this run was built under
  // (ShardPlacement::Label()). Call before MergeObservability. Default
  // (empty) stamps nothing, preserving byte-compat with pre-placement
  // traces.
  void set_placement_label(std::string label) { placement_label_ = std::move(label); }

  // Executor introspection (for benches and tests).
  uint64_t epochs() const { return epochs_; }
  uint64_t cross_deliveries() const { return cross_deliveries_; }

  // The parallel.* self-metric family: barrier wait (wall ms lost between
  // the first and last shard finishing an epoch), shard skew (spread of
  // events executed per epoch), outbox/mailbox depth per barrier, pump
  // event counts. Kept out of merged() by design — see the header comment.
  const MetricsRegistry& executor_metrics() const { return exec_obs_.metrics; }
  // Scalar views of the three headline histograms, for bench emission.
  double barrier_wait_ms_mean() const;
  double shard_skew_events_mean() const;
  double outbox_depth_max() const;

 private:
  // One directed channel endpoint: deliveries flow src -> dst.
  struct Edge {
    int src = 0;
    int dst = 0;
    CrossShardChannel* channel = nullptr;
    bool a_to_b = true;
  };

  // Per-destination mailbox: deliveries sorted by (deliver_at, src shard,
  // channel id, seq), drained head-first by pump events on the owning
  // shard's loop. The coordinator appends/merges at barriers only; the
  // owning shard consumes during its epoch only — never both at once.
  struct Inbox {
    std::vector<CrossShardChannel::PendingDelivery> queue;
    size_t head = 0;
    std::optional<uint64_t> pump_event;  // outstanding pump, if any
    SimTime pump_at = 0;
    // Counted by the owning shard during its epoch and folded into the
    // parallel.* counters at the barrier, so no two threads ever write
    // the same counter.
    uint64_t pumps_rescheduled = 0;
    uint64_t deliveries_pumped = 0;
  };

  void DispatchDeliveries();
  void PumpInbox(int dst);

  ShardPlan plan_;
  ThreadPool pool_;
  std::vector<std::unique_ptr<Observability>> shard_obs_;
  std::vector<std::unique_ptr<Simulation>> shards_;
  std::vector<std::unique_ptr<CrossShardChannel>> channels_;
  std::vector<Edge> edges_;
  std::vector<Inbox> inboxes_;
  Observability merged_obs_;
  Observability exec_obs_;
  std::string placement_label_;
  SimDuration lookahead_ = 0;  // min channel latency; 0 = no channels yet
  uint64_t epochs_ = 0;
  uint64_t cross_deliveries_ = 0;
  bool merged_done_ = false;

  // Reused epoch scratch (pooled across barriers: steady state performs no
  // allocation in the coordinator loop).
  std::vector<std::optional<SimTime>> t_next_;
  std::vector<SimTime> exec_floor_;
  std::vector<SimTime> horizon_;
  std::vector<size_t> active_;
  std::vector<CrossShardChannel::PendingDelivery> pending_;
  std::vector<size_t> fresh_deliveries_;  // per dst shard, this barrier
  std::vector<double> shard_wall_ms_;
  std::vector<uint64_t> shard_events_base_;

  // Cached parallel.* instruments (exec_obs_ owns them).
  Histogram* barrier_wait_ms_ = nullptr;
  Histogram* shard_skew_events_ = nullptr;
  Histogram* outbox_depth_ = nullptr;
  Histogram* active_shards_ = nullptr;
  Counter* pump_events_ = nullptr;
  Counter* deliveries_pumped_ = nullptr;
};

}  // namespace nymix

#endif  // SRC_PARALLEL_SHARDED_SIM_H_
