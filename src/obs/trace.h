// TraceRecorder: virtual-time span and event recording with Chrome
// `trace_event` JSON export (loadable in chrome://tracing or Perfetto).
//
// Spans are recorded against the simulation's virtual clock, so a trace of
// a Figure-7 run shows the paper's phases (boot VM -> start Tor -> load
// page) at their *reported* durations; each span also carries the wall
// time the simulator spent producing it, which is how the simulator
// profiles itself.
//
// Tracks: every span/instant names a track (a nym, a VM, "ksm", ...).
// Tracks map to Chrome thread ids with thread_name metadata, so parallel
// activities (two VMs booting at once) render on separate rows while spans
// on one track nest by containment.
//
// The disabled path is the default and costs one pointer/flag check per
// call site; no clock is read and nothing allocates.
#ifndef SRC_OBS_TRACE_H_
#define SRC_OBS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/sim_clock.h"

namespace nymix {

class TraceRecorder {
 public:
  // One recorded trace event. Public so binary codecs (src/store/nbt) can
  // re-encode a recorder's exact state; `category` must point at storage
  // that outlives the recorder (string literals, or InternCategory below).
  struct Event {
    char phase;  // 'X', 'i', 'C', 'b', 'e'
    const char* category;
    std::string name;
    uint32_t tid = 0;       // track row ('X'/'i')
    uint64_t async_id = 0;  // 'b'/'e'
    SimTime ts = 0;
    SimDuration dur = 0;    // 'X'
    double wall_us = -1.0;  // 'X': simulator self-profiling arg
    double value = 0;       // 'C'
  };

  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  // Complete ("X") event covering virtual [ts, ts + dur] on `track`.
  // `wall_us` >= 0 attaches the simulator's own wall-clock cost as an arg.
  void AddComplete(const char* category, const std::string& name, const std::string& track,
                   SimTime ts, SimDuration dur, double wall_us = -1.0);

  // Instant ("i") event: a point in virtual time on a track.
  void AddInstant(const char* category, const std::string& name, const std::string& track,
                  SimTime ts);

  // Counter ("C") event: a sampled value series (e.g. event-queue depth).
  void AddCounter(const char* category, const std::string& name, SimTime ts, double value);

  // Async ("b"/"e") events: intervals that may overlap freely (flows).
  void AddAsyncBegin(const char* category, const std::string& name, uint64_t id, SimTime ts);
  void AddAsyncEnd(const char* category, const std::string& name, uint64_t id, SimTime ts);

  // Starts a fresh timeline segment: subsequent events are shifted past
  // everything recorded so far. Benches that run several simulations (each
  // starting at virtual t=0) call this per run so the runs lay out
  // sequentially instead of piling onto t=0.
  void NextTimeline(SimDuration gap = Seconds(1));

  size_t event_count() const { return events_.size(); }

  // Read-only views of the recorded state, for serialization (src/store).
  const std::vector<Event>& events() const { return events_; }
  const std::map<std::string, uint32_t>& track_tids() const { return track_tids_; }

  // Stable storage for category strings decoded from a serialized trace:
  // Event holds `const char*` (call sites pass literals), so a decoder
  // needs pointers that outlive any recorder. Interned strings are never
  // freed. Not thread-safe: decode happens on one thread, like every
  // single-writer path in the store.
  static const char* InternCategory(std::string_view category);

  // Replaces this recorder's contents with a decoded event stream + track
  // table, recomputing the derived counters (next tid, timeline high-water
  // mark) so a restored recorder exports byte-identical JSON and can keep
  // recording. The recorder is left enabled.
  void RestoreForDecode(std::vector<Event> events, std::map<std::string, uint32_t> track_tids);

  // Folds per-shard recorders into this one as one stream, deterministically:
  // events are interleaved by (virtual time, position in `parts`, in-shard
  // recording order), tracks and counter names gain an "s<i>/" shard prefix,
  // and async ids are salted with the shard index so same-numbered flows in
  // different shards stay distinct. Because the order depends only on
  // recorded virtual times and the caller passing shards in id order, the
  // merged JSON is byte-identical no matter how many threads produced the
  // parts (src/parallel's determinism contract). Events land after this
  // recorder's current timeline offset, so NextTimeline() composes.
  void MergeShardTraces(const std::vector<const TraceRecorder*>& parts);

  // Wall-clock self-profiling args ("wall_us" on 'X' events) are recorded
  // by default. Turn them off to make exported JSON byte-identical across
  // identically-seeded runs: all virtual-time content is reproducible, the
  // simulator's own wall time never is (tests/determinism_test.cc).
  bool record_wall_time() const { return record_wall_time_; }
  void set_record_wall_time(bool record) { record_wall_time_ = record; }

  // Chrome trace_event JSON: {"traceEvents": [...], ...}.
  void WriteChromeJson(std::ostream& out) const;
  std::string ToChromeJson() const;
  // Returns false on I/O failure.
  bool WriteChromeJsonFile(const std::string& path) const;

 private:
  uint32_t TidForTrack(const std::string& track);

  bool enabled_ = false;
  bool record_wall_time_ = true;
  SimTime offset_ = 0;    // applied to every recorded timestamp
  SimTime max_ts_ = 0;    // high-water mark of shifted timestamps
  std::vector<Event> events_;
  std::map<std::string, uint32_t> track_tids_;
  uint32_t next_tid_ = 1;
};

// RAII span over virtual time, with wall-clock self-profiling. A null or
// disabled recorder makes construction and destruction no-ops.
class TraceSpan {
 public:
  TraceSpan(TraceRecorder* recorder, const SimClock& clock, const char* category,
            std::string name, std::string track);
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  TraceRecorder* recorder_ = nullptr;  // null when disabled
  const SimClock* clock_ = nullptr;
  const char* category_ = nullptr;
  std::string name_;
  std::string track_;
  SimTime start_ = 0;
  // nymlint:allow(determinism-wallclock): span self-profiling; wall cost is an arg on the span, never simulated time
  std::chrono::steady_clock::time_point wall_start_;
};

}  // namespace nymix

#endif  // SRC_OBS_TRACE_H_
