#include "src/fuzz/oracle.h"

namespace nymix {

const std::vector<OracleInfo>& AllOracles() {
  static const std::vector<OracleInfo> kOracles = {
      {"nat-isolation",
       "no AnonVM probe answered; uplink carries only DHCP + anonymizer traffic"},
      {"ops-terminate", "every async op fires its completion with a Status"},
      {"trace-identity", "trace+metrics bytes identical across thread counts"},
      {"checkpoint-identity", "checkpoint→restore→re-checkpoint log is byte-identical"},
      {"unionfs-model", "UnionFs agrees with a plain map model"},
      {"decoder-sane", "decoders never crash, never over-claim, roundtrip cleanly"},
      {"scrub-clean", "successful scrubs leave no detectable removed-class risks"},
      {"fleet-accounting", "fleet visit/recovery/abandon ledgers are consistent"},
      {"adversary-leak",
       "planted isolation failures are caught (advantage >= 0.9); clean fleets are not"},
  };
  return kOracles;
}

bool IsKnownOracle(std::string_view name) {
  for (const OracleInfo& oracle : AllOracles()) {
    if (name == oracle.name) {
      return true;
    }
  }
  return false;
}

bool OracleSuite::enabled(std::string_view name) const {
  for (const std::string& disabled : disabled_) {
    if (name == disabled) {
      return false;
    }
  }
  return true;
}

bool OracleSuite::Fail(std::string_view name, std::string detail) {
  if (!enabled(name) || !oracle_.empty()) {
    return false;
  }
  oracle_ = std::string(name);
  detail_ = std::move(detail);
  return true;
}

}  // namespace nymix
