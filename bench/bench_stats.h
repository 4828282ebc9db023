// Common bench plumbing for machine-readable output. Every figure/table
// bench accepts:
//   --stats-out=<path>   one JSON document per run: headline values set by
//                        the bench plus the full metrics-registry dump
//   --trace-out=<path>   Chrome trace_event JSON covering every attached
//                        simulation (open in chrome://tracing or Perfetto)
//   --trace-format=json|nbt
//                        trace artifact encoding: Chrome JSON (default) or
//                        the compact NBT binary format (src/store/nbt);
//                        tools/nbt2json converts an NBT artifact into the
//                        byte-identical JSON the json format would emit
// Without --stats-out/--trace-out nothing is enabled and every
// instrumentation site in the stack stays on its disabled (null-check) path.
#ifndef BENCH_BENCH_STATS_H_
#define BENCH_BENCH_STATS_H_

#include <cstdint>
#include <map>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "src/obs/observability.h"

namespace nymix {

class Simulation;

// Canonical JSON emitter for bench artifacts. The writer owns every
// separator and all indentation, so no bench can emit a dangling comma or
// an unbalanced brace no matter which optional sections it skips (the bug
// class scale_fleet's hand-rolled emitter patched point-wise before).
//
// Layout: 2-space pretty printing, one key or array element per line.
// BeginObject(kCompact) renders that object (and everything inside it) on
// a single line — the row format bench artifacts use for point arrays.
class JsonWriter {
 public:
  enum Style { kPretty, kCompact };

  explicit JsonWriter(std::ostream& out) : out_(out) {}

  void BeginObject(Style style = kPretty);
  void EndObject();
  void BeginArray(Style style = kPretty);
  void EndArray();

  // Starts a key inside the current object; the next call writes its value.
  void Key(std::string_view name);

  void String(std::string_view value);
  void Number(double value);
  // Fixed-precision decimal, for fields whose artifact-diff granularity is
  // deliberate (e.g. wall_seconds at 4 places).
  void Number(double value, int precision);
  void Number(uint64_t value);
  void Number(int64_t value);
  void Number(int value) { Number(static_cast<int64_t>(value)); }
  void Bool(bool value);

  // Positions the stream for one externally-rendered value (e.g.
  // MetricsRegistry::WriteJson) and returns it. The caller must write
  // exactly one well-formed JSON value before the next writer call,
  // using indent() as its continuation-line prefix.
  std::ostream& RawValue();

  // Indentation of the line the current value sits on.
  std::string indent() const { return std::string(2 * stack_.size(), ' '); }

  // True once every Begin* has been matched — callers assert this before
  // trusting the artifact.
  bool balanced() const { return stack_.empty() && !pending_key_; }

 private:
  struct Frame {
    bool array = false;
    bool first = true;
    bool compact = false;
  };

  // Emits the separator/indentation owed before a value or key.
  void BeforeValue();
  bool InCompact() const { return !stack_.empty() && stack_.back().compact; }

  std::ostream& out_;
  std::vector<Frame> stack_;
  bool pending_key_ = false;
};

// Strict flag values for the bench CLIs. ParseIntList reads "8,64,256":
// every element a decimal int >= min_value. Both return nullopt on empty
// input (or an empty element), trailing junk, a sign where none fits, or
// overflow — the caller turns that into a usage error (exit 2).
std::optional<std::vector<int>> ParseIntList(std::string_view text, int min_value);
std::optional<uint64_t> ParseUint64(std::string_view text);

class BenchStats {
 public:
  // Parses --stats-out= / --trace-out= out of argv; other arguments are
  // left for the bench itself.
  BenchStats(std::string bench_name, int argc, char** argv);

  // True for the flags the constructor consumes, so a bench's own parser
  // can reject everything else as unknown.
  static bool OwnsFlag(const char* arg);

  // Hooks a simulation's event loop into the shared Observability. Call
  // once per simulation; each attached run is laid out after the previous
  // one in the trace, so sequential simulations (which all start at
  // virtual t=0) do not pile up on the origin.
  void Attach(Simulation& sim);

  // Headline values for the stats doc, e.g. Set("fresh.boot_vm_s", 9.8).
  void Set(const std::string& name, double value);
  void SetLabel(const std::string& name, const std::string& value);

  bool stats_requested() const { return !stats_path_.empty(); }
  bool trace_requested() const { return !trace_path_.empty(); }
  // "json" or "nbt" (validated at parse time).
  const std::string& trace_format() const { return trace_format_; }
  Observability& obs() { return obs_; }

  // Writes whichever files were requested. Returns 0, or 1 after printing
  // a diagnostic to stderr on I/O failure — benches fold this into their
  // exit code.
  int Finish();

 private:
  std::string bench_name_;
  std::string stats_path_;
  std::string trace_path_;
  std::string trace_format_ = "json";
  Observability obs_;
  std::map<std::string, double> values_;
  std::map<std::string, std::string> labels_;
};

}  // namespace nymix

#endif  // BENCH_BENCH_STATS_H_
