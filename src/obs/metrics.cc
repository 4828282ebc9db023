#include "src/obs/metrics.h"

#include <cmath>
#include <limits>

#include "src/obs/json.h"

namespace nymix {

namespace {

constexpr double kBucketsPerOctave = 8.0;  // ratio 2^(1/8) per bucket
constexpr int32_t kUnderflowBucket = std::numeric_limits<int32_t>::min();

// Geometric midpoint of bucket `index`: 2^((index - 0.5) / 8).
double BucketMidpoint(int32_t index) {
  if (index == kUnderflowBucket) {
    return 0;
  }
  return std::exp2((static_cast<double>(index) - 0.5) / kBucketsPerOctave);
}

}  // namespace

int32_t Histogram::BucketIndex(double value) {
  if (!(value > 0)) {  // zero, negative, NaN
    return kUnderflowBucket;
  }
  return static_cast<int32_t>(std::ceil(std::log2(value) * kBucketsPerOctave));
}

void Histogram::Record(double value) {
  if (std::isnan(value)) {
    return;
  }
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
  ++buckets_[BucketIndex(value)];
}

void Histogram::MergeFrom(const Histogram& other) {
  if (other.count_ == 0) {
    return;
  }
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
  for (const auto& [index, bucket_count] : other.buckets_) {
    buckets_[index] += bucket_count;
  }
}

void Histogram::RestoreState(std::map<int32_t, uint64_t> buckets, uint64_t count, double sum,
                             double min, double max) {
  buckets_ = std::move(buckets);
  count_ = count;
  sum_ = sum;
  min_ = min;
  max_ = max;
}

void MetricsRegistry::MergeFrom(const MetricsRegistry& other) {
  for (const auto& [name, counter] : other.counters_) {
    counters_[name].Increment(counter.value());
  }
  for (const auto& [name, gauge] : other.gauges_) {
    gauges_[name].Add(gauge.value());
  }
  for (const auto& [name, histogram] : other.histograms_) {
    histograms_[name].MergeFrom(histogram);
  }
}

double Histogram::Percentile(double p) const {
  if (count_ == 0) {
    return 0;
  }
  if (p <= 0) {
    return min_;
  }
  if (p >= 100) {
    return max_;
  }
  double target = p / 100.0 * static_cast<double>(count_);
  uint64_t cumulative = 0;
  for (const auto& [index, bucket_count] : buckets_) {
    cumulative += bucket_count;
    if (static_cast<double>(cumulative) >= target) {
      return std::min(std::max(BucketMidpoint(index), min_), max_);
    }
  }
  return max_;
}

void MetricsRegistry::WriteJson(std::ostream& out, const std::string& indent) const {
  const std::string inner = indent + "  ";
  const std::string item = inner + "  ";
  out << "{";
  bool first_section = true;
  auto section = [&](const char* name) {
    if (!first_section) {
      out << ",";
    }
    first_section = false;
    out << "\n" << inner << "\"" << name << "\": {";
  };

  section("counters");
  bool first = true;
  for (const auto& [name, counter] : counters_) {
    out << (first ? "" : ",") << "\n"
        << item << "\"" << JsonEscape(name) << "\": " << JsonNumber(counter.value());
    first = false;
  }
  out << (first ? "" : "\n" + inner) << "}";

  section("gauges");
  first = true;
  for (const auto& [name, gauge] : gauges_) {
    out << (first ? "" : ",") << "\n"
        << item << "\"" << JsonEscape(name) << "\": " << JsonNumber(gauge.value());
    first = false;
  }
  out << (first ? "" : "\n" + inner) << "}";

  section("histograms");
  first = true;
  for (const auto& [name, histogram] : histograms_) {
    out << (first ? "" : ",") << "\n"
        << item << "\"" << JsonEscape(name) << "\": {"
        << "\"count\": " << JsonNumber(histogram.count())
        << ", \"sum\": " << JsonNumber(histogram.sum())
        << ", \"min\": " << JsonNumber(histogram.min())
        << ", \"max\": " << JsonNumber(histogram.max())
        << ", \"mean\": " << JsonNumber(histogram.mean())
        << ", \"p50\": " << JsonNumber(histogram.Percentile(50))
        << ", \"p95\": " << JsonNumber(histogram.Percentile(95))
        << ", \"p99\": " << JsonNumber(histogram.Percentile(99)) << "}";
    first = false;
  }
  out << (first ? "" : "\n" + inner) << "}";

  out << "\n" << indent << "}";
}

}  // namespace nymix
