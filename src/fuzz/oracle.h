// Invariant oracles: the properties every fuzzed scenario is checked
// against. Each oracle has a stable name — the shrinker minimizes against
// "same oracle still fails", repro files record which oracle tripped, and
// `nymfuzz --list-oracles` prints this table.
#ifndef SRC_FUZZ_ORACLE_H_
#define SRC_FUZZ_ORACLE_H_

#include <string>
#include <string_view>
#include <vector>

#include "src/util/status.h"

namespace nymix {

struct OracleInfo {
  const char* name;
  const char* property;
};

// The full suite, in reporting order:
//   nat-isolation        no AnonVM probe is ever answered; nothing but
//                        DHCP + anonymizer classes on the host uplink
//   ops-terminate        every async op fires its completion with a Status
//                        (success or failure — never silence)
//   trace-identity       merged trace+metrics bytes identical across
//                        --threads=1 and the scenario's thread count
//   checkpoint-identity  checkpoint → crash → restore → re-checkpoint
//                        yields a byte-identical checkpoint log
//   unionfs-model        UnionFs agrees with a plain map model of the
//                        same write/unlink sequence
//   decoder-sane         Scan/Recover never crash, never claim more bytes
//                        than exist, and recovered data re-encodes cleanly
//   scrub-clean          a successful scrub leaves no detectable risks of
//                        the classes it claims to remove
//   fleet-accounting     fleet aggregates are consistent (exact visit
//                        counts when fault-free; recovery/abandon ledgers
//                        never exceed their causes)
const std::vector<OracleInfo>& AllOracles();
bool IsKnownOracle(std::string_view name);

// What one scenario execution reports back.
struct RunReport {
  bool ok = true;
  std::string oracle;  // first failing oracle name; empty when ok
  std::string detail;  // human-readable failure specifics
  // Hex SHA-256 of the run's outcome surface (family-specific: trace and
  // metrics bytes, decoder verdict log, ...). Two runs of the same
  // scenario must produce the same digest — `nymfuzz --replay` enforces it.
  std::string digest;
  uint64_t steps_executed = 0;
};

// Tracks the first failure across a run; later failures are dropped (the
// shrinker needs ONE stable name to minimize against, and the first trip
// is the closest to the root cause).
class OracleSuite {
 public:
  OracleSuite() = default;
  explicit OracleSuite(std::vector<std::string> disabled) : disabled_(std::move(disabled)) {}

  bool enabled(std::string_view name) const;

  // Records a failure (no-op if `name` is disabled or something already
  // failed). Returns true when this call recorded the failure.
  bool Fail(std::string_view name, std::string detail);

  bool ok() const { return oracle_.empty(); }
  const std::string& failed_oracle() const { return oracle_; }
  const std::string& detail() const { return detail_; }

 private:
  std::vector<std::string> disabled_;
  std::string oracle_;
  std::string detail_;
};

}  // namespace nymix

#endif  // SRC_FUZZ_ORACLE_H_
