// MetricsRegistry: named counters, gauges and log-scale histograms with a
// stable JSON dump — the machine-readable side of the observability
// subsystem (the Chrome trace is the human-readable side).
//
// Instruments are owned by the registry and handed out as stable pointers,
// so hot paths can cache them and pay a plain add per update. The registry
// is disabled by default; call sites gate on enabled() (via
// EventLoop::meters()) so the disabled path is a pointer/flag check.
//
// Histograms are log-scale: geometric buckets with ratio 2^(1/8) (~9% per
// bucket), which bounds the relative error of the reported p50/p95/p99 at
// ~4.5% across any value range without pre-declaring bounds.
#ifndef SRC_OBS_METRICS_H_
#define SRC_OBS_METRICS_H_

#include <cstdint>
#include <map>
#include <ostream>
#include <string>

namespace nymix {

class Counter {
 public:
  void Increment(uint64_t delta = 1) { value_ += delta; }
  uint64_t value() const { return value_; }
  void Reset() { value_ = 0; }

 private:
  uint64_t value_ = 0;
};

class Gauge {
 public:
  void Set(double value) { value_ = value; }
  void Add(double delta) { value_ += delta; }
  double value() const { return value_; }

 private:
  double value_ = 0;
};

class Histogram {
 public:
  void Record(double value);

  // Folds `other` in: bucket-exact, so merging shard histograms in any
  // grouping yields the same result as recording every sample into one
  // histogram (up to float-summation order of `sum`, which is why merges
  // must happen in a deterministic order — see MetricsRegistry::MergeFrom).
  void MergeFrom(const Histogram& other);

  uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double min() const { return count_ == 0 ? 0 : min_; }
  double max() const { return count_ == 0 ? 0 : max_; }
  double mean() const { return count_ == 0 ? 0 : sum_ / static_cast<double>(count_); }

  // `p` in [0, 100]. Interpolates inside the matching log bucket and clamps
  // to the observed [min, max]. Returns 0 on an empty histogram.
  double Percentile(double p) const;

  // Read-only bucket view / exact-state restore, for binary serialization
  // (src/store/nbt). RestoreState replaces all recorded state; the caller
  // supplies the same fields a Record() sequence would have produced, so a
  // restored histogram reports identical statistics.
  const std::map<int32_t, uint64_t>& buckets() const { return buckets_; }
  void RestoreState(std::map<int32_t, uint64_t> buckets, uint64_t count, double sum, double min,
                    double max);

 private:
  // value -> geometric bucket index (ratio 2^(1/8)); <= 0 collapses into a
  // dedicated underflow bucket below every positive index.
  static int32_t BucketIndex(double value);

  std::map<int32_t, uint64_t> buckets_;
  uint64_t count_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
};

class MetricsRegistry {
 public:
  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  // Find-or-create; returned pointers stay valid for the registry's life.
  Counter* GetCounter(const std::string& name) { return &counters_[name]; }
  Gauge* GetGauge(const std::string& name) { return &gauges_[name]; }
  Histogram* GetHistogram(const std::string& name) { return &histograms_[name]; }

  // nymlint:allow(dead-api): tests check the disabled observability path registers no instruments
  size_t instrument_count() const {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

  // Read-only instrument views in name order, for serialization (src/store).
  const std::map<std::string, Counter>& counters() const { return counters_; }
  const std::map<std::string, Gauge>& gauges() const { return gauges_; }
  const std::map<std::string, Histogram>& histograms() const { return histograms_; }

  // Wall-clock self-profiling instruments (EventLoop's event_wall_ns) are
  // recorded by default. Turn them off to make the registry dump
  // byte-identical across identically-seeded runs — the metrics-side twin
  // of TraceRecorder::set_record_wall_time(false). Virtual-time metrics
  // are unaffected.
  bool record_wall_time() const { return record_wall_time_; }
  void set_record_wall_time(bool record) { record_wall_time_ = record; }

  // Folds `other` into this registry: counters and gauges add, histograms
  // bucket-merge; instruments missing here are created. The parallel
  // executor merges per-shard registries in shard-id order, which fixes
  // the float-summation order and keeps the merged dump byte-identical
  // across thread counts.
  void MergeFrom(const MetricsRegistry& other);

  // {"counters": {...}, "gauges": {...}, "histograms": {name: {count, sum,
  // min, max, mean, p50, p95, p99}}} — keys in lexicographic order, so the
  // document is stable across runs.
  void WriteJson(std::ostream& out, const std::string& indent = "") const;

 private:
  bool enabled_ = false;
  bool record_wall_time_ = true;
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace nymix

#endif  // SRC_OBS_METRICS_H_
