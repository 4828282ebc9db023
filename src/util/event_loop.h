// Discrete-event simulation loop: a priority queue of timestamped callbacks
// over a SimClock. This is the heartbeat of every substrate model (network
// flows, VM boot phases, KSM scans, anonymizer handshakes).
//
// The loop is also the stack's observability anchor: attach an
// Observability (src/obs) and every instrumented layer that holds an
// EventLoop reference reports through tracer()/meters(). Unattached (the
// default), every instrumentation site reduces to a null-pointer check.
#ifndef SRC_UTIL_EVENT_LOOP_H_
#define SRC_UTIL_EVENT_LOOP_H_

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <queue>
#include <vector>

#include "src/obs/observability.h"
#include "src/util/sim_clock.h"

namespace nymix {

class EventLoop {
 public:
  using Callback = std::function<void()>;

  SimClock& clock() { return clock_; }
  const SimClock& clock() const { return clock_; }
  SimTime now() const { return clock_.now(); }

  // Schedules `fn` to run `delay` after the current virtual time.
  // Events at equal times run in scheduling (FIFO) order.
  uint64_t ScheduleAfter(SimDuration delay, Callback fn);

  // Schedules `fn` at an absolute virtual time (clamped to now).
  uint64_t ScheduleAt(SimTime when, Callback fn);

  // Cancels a pending event; returns false if it already ran, was already
  // cancelled, or is unknown. Safe to call any number of times.
  bool Cancel(uint64_t event_id);

  // Runs events until none remain. Returns the number of events executed.
  size_t RunUntilIdle();

  // Runs events with timestamps <= deadline, then advances the clock to the
  // deadline. Returns the number of events executed.
  size_t RunUntil(SimTime deadline);

  // Runs until `done` returns true or no events remain; returns whether the
  // predicate was satisfied.
  bool RunUntilCondition(const std::function<bool()>& done);

  // Virtual time of the earliest live pending event, or nullopt when idle.
  // Prunes cancelled tombstones from the heap top to find it, hence
  // non-const. The parallel shard executor (src/parallel) uses this to
  // compute conservative epoch horizons.
  std::optional<SimTime> NextEventTime();

  // Deterministic per-loop id fountain for objects created while the
  // simulation runs (links, guest memories). Per-loop rather than
  // process-wide so parallel shards can allocate concurrently without
  // racing, and so a shard's ids depend only on its own event order —
  // these ids key ordered containers (LinkIdLess, KSM's per-memory state)
  // whose iteration order reaches simulation outputs.
  uint64_t AllocateObjectId() { return next_object_id_++; }

  // Live (scheduled, not cancelled, not yet run) events. Robust against
  // cancelled entries that still sit in the heap awaiting their lazy pop:
  // the count is taken from the callback table, which cancellation updates
  // eagerly.
  // nymlint:allow(dead-api): the reference model in tests/flow_model.h runs the loop until it drains
  size_t pending_events() const { return callbacks_.size(); }

  // Lifetime total of events executed, counted whether or not metrics are
  // attached — benches derive events/sec from this without paying for a
  // registry.
  uint64_t events_executed() const { return executed_count_; }

  // --- Observability ----------------------------------------------------
  // The loop does not own the Observability; benches/tests attach one for
  // the runs they want instrumented. Metrics recorded here: events
  // executed, queue depth at dispatch, and per-event wall time (the
  // simulator profiling itself).
  void set_observability(Observability* obs);
  // Bumped on every set_observability call. Layers that cache instrument
  // pointers (FlowScheduler, KsmDaemon) compare this against the epoch they
  // cached under, so the hot path pays an integer compare instead of a
  // registry map lookup, yet never holds pointers across an attach/detach.
  uint64_t observability_epoch() const { return obs_epoch_; }
  TraceRecorder* tracer() const {
    return obs_ != nullptr && obs_->trace.enabled() ? &obs_->trace : nullptr;
  }
  MetricsRegistry* meters() const {
    return obs_ != nullptr && obs_->metrics.enabled() ? &obs_->metrics : nullptr;
  }

 private:
  struct Event {
    SimTime when;
    uint64_t sequence;
    uint64_t id;
  };
  struct EventLater {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) {
        return a.when > b.when;
      }
      return a.sequence > b.sequence;
    }
  };

  // Pops and executes the earliest pending event; false if none.
  bool RunOne();
  // Drops cancelled entries from the top of the heap so heap_.top() (when
  // the heap is non-empty) is a live event.
  void PruneCancelledTop();
  // Returns a callback-table node to the recycling pool (releasing its
  // closure immediately) instead of freeing it.
  void RecycleNode(std::map<uint64_t, Callback>::node_type node);

  SimClock clock_;
  std::priority_queue<Event, std::vector<Event>, EventLater> heap_;
  // Ordered map, not a hash table: nothing may iterate callbacks_ today,
  // but the determinism contract (docs/static-analysis.md) bans unordered
  // containers from the sim core outright so a future walk cannot leak
  // hash/allocation order into outputs. Lookups are O(log n) on ids that
  // are dense and small; the heap dominates scheduling cost regardless.
  std::map<uint64_t, Callback> callbacks_;
  // Allocation diet for the schedule→run→erase cycle: spent callback-table
  // nodes are parked here (closure released, key stale) and reused by the
  // next ScheduleAt, so steady-state event traffic performs zero node
  // allocations. Bounded so a one-off scheduling burst cannot pin memory.
  std::vector<std::map<uint64_t, Callback>::node_type> node_pool_;
  static constexpr size_t kMaxPooledNodes = 256;
  uint64_t next_id_ = 1;
  uint64_t next_sequence_ = 1;
  uint64_t next_object_id_ = 1;

  Observability* obs_ = nullptr;
  uint64_t obs_epoch_ = 1;
  // Cached instruments (non-null only while metrics are enabled) so the
  // per-event cost is a pointer check + increment, not a map lookup.
  Counter* events_executed_ = nullptr;
  Histogram* event_wall_ns_ = nullptr;
  Histogram* queue_depth_ = nullptr;
  // Schedule fast-path stats: node reuses vs fresh allocations.
  Counter* node_reuses_ = nullptr;
  Counter* node_allocs_ = nullptr;
  uint64_t executed_count_ = 0;
};

}  // namespace nymix

#endif  // SRC_UTIL_EVENT_LOOP_H_
