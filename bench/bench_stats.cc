#include "bench/bench_stats.h"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "src/net/simulation.h"
#include "src/obs/json.h"
#include "src/store/file_io.h"
#include "src/store/nbt.h"

namespace nymix {

namespace {

// Matches "--flag=value"; returns the value or nullptr.
const char* FlagValue(const char* arg, const char* flag) {
  size_t flag_len = std::strlen(flag);
  if (std::strncmp(arg, flag, flag_len) == 0 && arg[flag_len] == '=') {
    return arg + flag_len + 1;
  }
  return nullptr;
}

// The whole of `text` as one decimal number, or nullopt.
template <typename T>
std::optional<T> ParseWhole(std::string_view text) {
  T value{};
  auto [end, error] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (text.empty() || error != std::errc() || end != text.data() + text.size()) {
    return std::nullopt;
  }
  return value;
}

}  // namespace

std::optional<std::vector<int>> ParseIntList(std::string_view text, int min_value) {
  std::vector<int> values;
  while (true) {
    size_t comma = text.find(',');
    std::optional<int> value = ParseWhole<int>(text.substr(0, comma));
    if (!value.has_value() || *value < min_value) {
      return std::nullopt;
    }
    values.push_back(*value);
    if (comma == std::string_view::npos) {
      return values;
    }
    text.remove_prefix(comma + 1);
  }
}

std::optional<uint64_t> ParseUint64(std::string_view text) { return ParseWhole<uint64_t>(text); }

void JsonWriter::BeforeValue() {
  if (pending_key_) {
    pending_key_ = false;
    return;
  }
  if (stack_.empty()) {
    return;  // document root
  }
  Frame& frame = stack_.back();
  if (frame.compact) {
    if (!frame.first) {
      out_ << ", ";
    }
  } else {
    out_ << (frame.first ? "\n" : ",\n") << indent();
  }
  frame.first = false;
}

void JsonWriter::BeginObject(Style style) {
  BeforeValue();
  Frame frame;
  frame.compact = style == kCompact || InCompact();
  out_ << '{';
  stack_.push_back(frame);
}

void JsonWriter::EndObject() {
  Frame frame = stack_.back();
  stack_.pop_back();
  if (!frame.compact && !frame.first) {
    out_ << '\n' << indent();
  }
  out_ << '}';
}

void JsonWriter::BeginArray(Style style) {
  BeforeValue();
  Frame frame;
  frame.array = true;
  frame.compact = style == kCompact || InCompact();
  out_ << '[';
  stack_.push_back(frame);
}

void JsonWriter::EndArray() {
  Frame frame = stack_.back();
  stack_.pop_back();
  if (!frame.compact && !frame.first) {
    out_ << '\n' << indent();
  }
  out_ << ']';
}

void JsonWriter::Key(std::string_view name) {
  BeforeValue();
  out_ << '"' << JsonEscape(name) << "\": ";
  pending_key_ = true;
}

void JsonWriter::String(std::string_view value) {
  BeforeValue();
  out_ << '"' << JsonEscape(value) << '"';
}

void JsonWriter::Number(double value) {
  BeforeValue();
  out_ << JsonNumber(value);
}

void JsonWriter::Number(double value, int precision) {
  BeforeValue();
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  out_ << buf;
}

void JsonWriter::Number(uint64_t value) {
  BeforeValue();
  out_ << JsonNumber(value);
}

void JsonWriter::Number(int64_t value) {
  BeforeValue();
  out_ << JsonNumber(value);
}

void JsonWriter::Bool(bool value) {
  BeforeValue();
  out_ << (value ? "true" : "false");
}

std::ostream& JsonWriter::RawValue() {
  BeforeValue();
  return out_;
}

BenchStats::BenchStats(std::string bench_name, int argc, char** argv)
    : bench_name_(std::move(bench_name)) {
  for (int i = 1; i < argc; ++i) {
    if (const char* value = FlagValue(argv[i], "--stats-out")) {
      stats_path_ = value;
    } else if (const char* value = FlagValue(argv[i], "--trace-out")) {
      trace_path_ = value;
    } else if (const char* value = FlagValue(argv[i], "--trace-format")) {
      trace_format_ = value;
    }
  }
  if (trace_format_ != "json" && trace_format_ != "nbt") {
    std::fprintf(stderr, "bench_stats: --trace-format must be json or nbt, got \"%s\"\n",
                 trace_format_.c_str());
    std::exit(2);
  }
  if (!stats_path_.empty()) {
    obs_.metrics.set_enabled(true);
  }
  if (!trace_path_.empty()) {
    obs_.trace.set_enabled(true);
  }
}

bool BenchStats::OwnsFlag(const char* arg) {
  return FlagValue(arg, "--stats-out") != nullptr || FlagValue(arg, "--trace-out") != nullptr ||
         FlagValue(arg, "--trace-format") != nullptr;
}

void BenchStats::Attach(Simulation& sim) {
  if (obs_.trace.event_count() > 0) {
    obs_.trace.NextTimeline();
  }
  sim.loop().set_observability(&obs_);
}

void BenchStats::Set(const std::string& name, double value) { values_[name] = value; }

void BenchStats::SetLabel(const std::string& name, const std::string& value) {
  labels_[name] = value;
}

int BenchStats::Finish() {
  int rc = 0;
  if (!stats_path_.empty()) {
    std::ofstream out(stats_path_, std::ios::binary | std::ios::trunc);
    if (out) {
      JsonWriter writer(out);
      writer.BeginObject();
      writer.Key("bench");
      writer.String(bench_name_);
      if (!labels_.empty()) {
        writer.Key("labels");
        writer.BeginObject();
        for (const auto& [name, value] : labels_) {
          writer.Key(name);
          writer.String(value);
        }
        writer.EndObject();
      }
      if (!values_.empty()) {
        writer.Key("values");
        writer.BeginObject();
        for (const auto& [name, value] : values_) {
          writer.Key(name);
          writer.Number(value);
        }
        writer.EndObject();
      }
      writer.Key("metrics");
      obs_.metrics.WriteJson(writer.RawValue(), writer.indent());
      writer.EndObject();
      out << "\n";
      out.flush();
      if (!out) {
        std::fprintf(stderr, "bench_stats: write failed: %s\n", stats_path_.c_str());
        rc = 1;
      }
    } else {
      std::fprintf(stderr, "bench_stats: cannot open %s\n", stats_path_.c_str());
      rc = 1;
    }
  }
  if (!trace_path_.empty()) {
    if (trace_format_ == "nbt") {
      Status written = WriteFileBytes(trace_path_, EncodeNbt(&obs_.trace, nullptr));
      if (!written.ok()) {
        std::fprintf(stderr, "bench_stats: cannot write %s: %s\n", trace_path_.c_str(),
                     written.ToString().c_str());
        rc = 1;
      }
    } else if (!obs_.trace.WriteChromeJsonFile(trace_path_)) {
      std::fprintf(stderr, "bench_stats: cannot write %s\n", trace_path_.c_str());
      rc = 1;
    }
  }
  return rc;
}

}  // namespace nymix
