#include "src/obs/trace.h"

#include <algorithm>
// nymlint:allow(store-raw-io): WriteChromeJsonFile streams below — src/store depends on src/obs, so file_io.h is off-limits here
#include <fstream>
#include <set>
#include <sstream>

#include "src/obs/json.h"

namespace nymix {

uint32_t TraceRecorder::TidForTrack(const std::string& track) {
  auto it = track_tids_.find(track);
  if (it != track_tids_.end()) {
    return it->second;
  }
  uint32_t tid = next_tid_++;
  track_tids_.emplace(track, tid);
  return tid;
}

void TraceRecorder::AddComplete(const char* category, const std::string& name,
                                const std::string& track, SimTime ts, SimDuration dur,
                                double wall_us) {
  if (!enabled_) {
    return;
  }
  Event event;
  event.phase = 'X';
  event.category = category;
  event.name = name;
  event.tid = TidForTrack(track);
  event.ts = ts + offset_;
  event.dur = std::max<SimDuration>(dur, 0);
  event.wall_us = record_wall_time_ ? wall_us : -1.0;
  max_ts_ = std::max(max_ts_, event.ts + event.dur);
  events_.push_back(std::move(event));
}

void TraceRecorder::AddInstant(const char* category, const std::string& name,
                               const std::string& track, SimTime ts) {
  if (!enabled_) {
    return;
  }
  Event event;
  event.phase = 'i';
  event.category = category;
  event.name = name;
  event.tid = TidForTrack(track);
  event.ts = ts + offset_;
  max_ts_ = std::max(max_ts_, event.ts);
  events_.push_back(std::move(event));
}

void TraceRecorder::AddCounter(const char* category, const std::string& name, SimTime ts,
                               double value) {
  if (!enabled_) {
    return;
  }
  Event event;
  event.phase = 'C';
  event.category = category;
  event.name = name;
  event.ts = ts + offset_;
  event.value = value;
  max_ts_ = std::max(max_ts_, event.ts);
  events_.push_back(std::move(event));
}

void TraceRecorder::AddAsyncBegin(const char* category, const std::string& name, uint64_t id,
                                  SimTime ts) {
  if (!enabled_) {
    return;
  }
  Event event;
  event.phase = 'b';
  event.category = category;
  event.name = name;
  event.async_id = id;
  event.ts = ts + offset_;
  max_ts_ = std::max(max_ts_, event.ts);
  events_.push_back(std::move(event));
}

void TraceRecorder::AddAsyncEnd(const char* category, const std::string& name, uint64_t id,
                                SimTime ts) {
  if (!enabled_) {
    return;
  }
  Event event;
  event.phase = 'e';
  event.category = category;
  event.name = name;
  event.async_id = id;
  event.ts = ts + offset_;
  max_ts_ = std::max(max_ts_, event.ts);
  events_.push_back(std::move(event));
}

void TraceRecorder::MergeShardTraces(const std::vector<const TraceRecorder*>& parts) {
  if (!enabled_) {
    return;
  }
  // Reverse tid -> track-name view of every part, so merged events can be
  // re-homed onto prefixed tracks through this recorder's own tid table.
  std::vector<std::vector<const std::string*>> part_tracks(parts.size());
  std::vector<std::string> part_prefixes(parts.size());
  size_t total = 0;
  for (size_t p = 0; p < parts.size(); ++p) {
    part_tracks[p].resize(parts[p]->next_tid_, nullptr);
    for (const auto& [track, tid] : parts[p]->track_tids_) {
      part_tracks[p][tid] = &track;
    }
    part_prefixes[p] = "s" + std::to_string(p) + "/";
    total += parts[p]->events_.size();
  }

  struct Ref {
    uint32_t part;
    uint32_t index;
  };
  std::vector<Ref> order;
  order.reserve(total);
  for (size_t p = 0; p < parts.size(); ++p) {
    for (size_t i = 0; i < parts[p]->events_.size(); ++i) {
      order.push_back(Ref{static_cast<uint32_t>(p), static_cast<uint32_t>(i)});
    }
  }
  // Stable sort on virtual time only: ties keep the (shard id, in-shard
  // recording order) sequence the loop above laid down.
  std::stable_sort(order.begin(), order.end(), [&](const Ref& a, const Ref& b) {
    return parts[a.part]->events_[a.index].ts < parts[b.part]->events_[b.index].ts;
  });

  events_.reserve(events_.size() + total);
  for (const Ref& ref : order) {
    Event event = parts[ref.part]->events_[ref.index];
    const std::string& prefix = part_prefixes[ref.part];
    event.ts += offset_;
    switch (event.phase) {
      case 'X':
        if (!record_wall_time_) {
          event.wall_us = -1.0;
        }
        [[fallthrough]];
      case 'i':
        event.tid = TidForTrack(prefix + *part_tracks[ref.part][event.tid]);
        break;
      case 'C':
        // Counters carry no track; the shard prefix on the name keeps one
        // shard's series from interleaving into another's.
        event.name = prefix + event.name;
        break;
      case 'b':
      case 'e':
        // Shard-salted async ids: per-shard flow ids restart at 1, so two
        // shards' flow 7 must not pair up in the merged stream. Real ids
        // are small (event counters), far below the 2^48 salt boundary.
        event.async_id |= static_cast<uint64_t>(ref.part) << 48;
        break;
      default:
        break;
    }
    max_ts_ = std::max(max_ts_, event.ts + (event.phase == 'X' ? event.dur : 0));
    events_.push_back(std::move(event));
  }
}

void TraceRecorder::NextTimeline(SimDuration gap) {
  if (!enabled_) {
    return;
  }
  offset_ = max_ts_ + std::max<SimDuration>(gap, 0);
}

const char* TraceRecorder::InternCategory(std::string_view category) {
  // std::set node addresses are stable across inserts, so the returned
  // c_str() stays valid for the process lifetime.
  static std::set<std::string, std::less<>>* interned = new std::set<std::string, std::less<>>();
  auto it = interned->find(category);
  if (it == interned->end()) {
    it = interned->emplace(category).first;
  }
  return it->c_str();
}

void TraceRecorder::RestoreForDecode(std::vector<Event> events,
                                     std::map<std::string, uint32_t> track_tids) {
  events_ = std::move(events);
  track_tids_ = std::move(track_tids);
  enabled_ = true;
  next_tid_ = 1;
  for (const auto& [track, tid] : track_tids_) {
    next_tid_ = std::max(next_tid_, tid + 1);
  }
  max_ts_ = 0;
  for (const Event& event : events_) {
    max_ts_ = std::max(max_ts_, event.ts + (event.phase == 'X' ? event.dur : 0));
  }
  offset_ = 0;
}

void TraceRecorder::WriteChromeJson(std::ostream& out) const {
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto separator = [&] {
    if (!first) {
      out << ",";
    }
    first = false;
    out << "\n";
  };
  // Process / thread metadata so tracks render with readable names.
  separator();
  out << "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\","
         "\"args\":{\"name\":\"nymix-sim (virtual time)\"}}";
  for (const auto& [track, tid] : track_tids_) {
    separator();
    out << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << tid
        << ",\"name\":\"thread_name\",\"args\":{\"name\":\"" << JsonEscape(track) << "\"}}";
  }
  for (const Event& event : events_) {
    separator();
    out << "{\"ph\":\"" << event.phase << "\",\"pid\":1,\"cat\":\"" << event.category
        << "\",\"name\":\"" << JsonEscape(event.name) << "\",\"ts\":" << event.ts;
    switch (event.phase) {
      case 'X':
        out << ",\"tid\":" << event.tid << ",\"dur\":" << event.dur;
        if (event.wall_us >= 0) {
          out << ",\"args\":{\"wall_us\":" << JsonNumber(event.wall_us) << "}";
        }
        break;
      case 'i':
        out << ",\"tid\":" << event.tid << ",\"s\":\"t\"";
        break;
      case 'C':
        out << ",\"tid\":0,\"args\":{\"value\":" << JsonNumber(event.value) << "}";
        break;
      case 'b':
      case 'e':
        out << ",\"tid\":0,\"id\":\"0x" << std::hex << event.async_id << std::dec << "\"";
        break;
      default:
        break;
    }
    out << "}";
  }
  out << "\n]}\n";
}

std::string TraceRecorder::ToChromeJson() const {
  std::ostringstream out;
  WriteChromeJson(out);
  return out.str();
}

bool TraceRecorder::WriteChromeJsonFile(const std::string& path) const {
  // src/store depends on src/obs (the NBT codec reads recorder internals),
  // so the trace writer cannot call into src/store/file_io.h without a
  // dependency cycle; it streams straight from WriteChromeJson instead.
  // nymlint:allow(store-raw-io): dependency cycle — see the note above
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return false;
  }
  WriteChromeJson(out);
  out.flush();
  return static_cast<bool>(out);
}

TraceSpan::TraceSpan(TraceRecorder* recorder, const SimClock& clock, const char* category,
                     std::string name, std::string track) {
  if (recorder == nullptr || !recorder->enabled()) {
    return;
  }
  recorder_ = recorder;
  clock_ = &clock;
  category_ = category;
  name_ = std::move(name);
  track_ = std::move(track);
  start_ = clock.now();
  if (recorder->record_wall_time()) {
    // nymlint:allow(determinism-wallclock): span self-profiling; wall cost is an arg on the span, never simulated time
    wall_start_ = std::chrono::steady_clock::now();
  }
}

TraceSpan::~TraceSpan() {
  if (recorder_ == nullptr) {
    return;
  }
  double wall_us = -1.0;
  if (recorder_->record_wall_time()) {
    // nymlint:allow(determinism-wallclock): span self-profiling; wall cost is an arg on the span, never simulated time
    auto wall_end = std::chrono::steady_clock::now();
    wall_us = std::chrono::duration<double, std::micro>(wall_end - wall_start_).count();
  }
  recorder_->AddComplete(category_, name_, track_, start_, clock_->now() - start_, wall_us);
}

}  // namespace nymix
