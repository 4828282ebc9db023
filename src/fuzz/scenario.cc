#include "src/fuzz/scenario.h"

#include <charconv>

namespace nymix {
namespace {

struct FamilyName {
  ScenarioFamily family;
  const char* name;
};

constexpr FamilyName kFamilyNames[] = {
    {ScenarioFamily::kNet, "net"},
    {ScenarioFamily::kHost, "host"},
    {ScenarioFamily::kFleet, "fleet"},
    {ScenarioFamily::kDecoder, "decoder"},
    {ScenarioFamily::kParallel, "parallel"},
    {ScenarioFamily::kAdversary, "adversary"},
};

struct KindName {
  StepKind kind;
  ScenarioFamily family;
  const char* name;
};

constexpr KindName kKindNames[] = {
    {StepKind::kNetChannel, ScenarioFamily::kNet, "net_channel"},
    {StepKind::kNetFaultProfile, ScenarioFamily::kNet, "net_fault_profile"},
    {StepKind::kNetFlow, ScenarioFamily::kNet, "net_flow"},
    {StepKind::kNetLinkFlap, ScenarioFamily::kNet, "net_link_flap"},
    {StepKind::kHostVisit, ScenarioFamily::kHost, "host_visit"},
    {StepKind::kHostCrashRecover, ScenarioFamily::kHost, "host_crash_recover"},
    {StepKind::kHostCheckpoint, ScenarioFamily::kHost, "host_checkpoint"},
    {StepKind::kHostRelayCrash, ScenarioFamily::kHost, "host_relay_crash"},
    {StepKind::kHostUplinkFlap, ScenarioFamily::kHost, "host_uplink_flap"},
    {StepKind::kHostUnionWrite, ScenarioFamily::kHost, "host_union_write"},
    {StepKind::kHostUnionUnlink, ScenarioFamily::kHost, "host_union_unlink"},
    {StepKind::kHostScrub, ScenarioFamily::kHost, "host_scrub"},
    {StepKind::kFleetVmCrash, ScenarioFamily::kFleet, "fleet_vm_crash"},
    {StepKind::kFleetUplinkFlap, ScenarioFamily::kFleet, "fleet_uplink_flap"},
    {StepKind::kFleetRelayCrash, ScenarioFamily::kFleet, "fleet_relay_crash"},
    {StepKind::kDecodeRecordLog, ScenarioFamily::kDecoder, "decode_record_log"},
    {StepKind::kDecodeKv, ScenarioFamily::kDecoder, "decode_kv"},
    {StepKind::kDecodeNbt, ScenarioFamily::kDecoder, "decode_nbt"},
    {StepKind::kDecodeScenario, ScenarioFamily::kDecoder, "decode_scenario"},
    {StepKind::kScrubBytes, ScenarioFamily::kDecoder, "scrub_bytes"},
    {StepKind::kParChannel, ScenarioFamily::kParallel, "par_channel"},
    {StepKind::kParBurst, ScenarioFamily::kParallel, "par_burst"},
    {StepKind::kParEcho, ScenarioFamily::kParallel, "par_echo"},
    {StepKind::kAdvPlant, ScenarioFamily::kAdversary, "adv_plant"},
    {StepKind::kAdvWorkload, ScenarioFamily::kAdversary, "adv_workload"},
    {StepKind::kAdvChurn, ScenarioFamily::kAdversary, "adv_churn"},
};

std::string_view TrimSpace(std::string_view text) {
  while (!text.empty() && (text.front() == ' ' || text.front() == '\t' || text.front() == '\r')) {
    text.remove_prefix(1);
  }
  while (!text.empty() && (text.back() == ' ' || text.back() == '\t' || text.back() == '\r')) {
    text.remove_suffix(1);
  }
  return text;
}

// Pops the next space-separated token off `line`.
std::string_view NextToken(std::string_view& line) {
  line = TrimSpace(line);
  size_t end = line.find(' ');
  std::string_view token = line.substr(0, end);
  line.remove_prefix(end == std::string_view::npos ? line.size() : end + 1);
  return token;
}

Result<int64_t> ParseInt(std::string_view text) {
  int64_t value = 0;
  auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || ptr != text.data() + text.size()) {
    return InvalidArgumentError("bad integer '" + std::string(text) + "'");
  }
  return value;
}

Result<uint64_t> ParseU64(std::string_view text) {
  uint64_t value = 0;
  auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || ptr != text.data() + text.size()) {
    return InvalidArgumentError("bad unsigned integer '" + std::string(text) + "'");
  }
  return value;
}

// Splits `key=value`; returns false when no '=' is present.
bool SplitKeyValue(std::string_view token, std::string_view& key, std::string_view& value) {
  size_t eq = token.find('=');
  if (eq == std::string_view::npos) {
    return false;
  }
  key = token.substr(0, eq);
  value = token.substr(eq + 1);
  return true;
}

void AppendTopology(std::string& out, const ScenarioTopology& t) {
  out += "topology shards=" + std::to_string(t.shards);
  out += " threads=" + std::to_string(t.threads);
  out += " nyms=" + std::to_string(t.nym_count);
  out += " per_host=" + std::to_string(t.nyms_per_host);
  out += " visits=" + std::to_string(t.visits);
  out += " generations=" + std::to_string(t.generations);
  out += " echo_ms=" + std::to_string(t.echo_deadline_ms);
  out += " checkpoint=" + std::to_string(t.checkpoint_roundtrip ? 1 : 0);
  out += "\n";
}

Status ParseTopologyLine(std::string_view rest, ScenarioTopology& t) {
  while (!(rest = TrimSpace(rest)).empty()) {
    std::string_view token = NextToken(rest);
    std::string_view key;
    std::string_view value;
    if (!SplitKeyValue(token, key, value)) {
      return InvalidArgumentError("topology token without '=': '" + std::string(token) + "'");
    }
    Result<int64_t> parsed = ParseInt(value);
    if (!parsed.ok()) {
      return parsed.status();
    }
    int v = static_cast<int>(*parsed);
    if (key == "shards") {
      t.shards = v;
    } else if (key == "threads") {
      t.threads = v;
    } else if (key == "nyms") {
      t.nym_count = v;
    } else if (key == "per_host") {
      t.nyms_per_host = v;
    } else if (key == "visits") {
      t.visits = v;
    } else if (key == "generations") {
      t.generations = v;
    } else if (key == "echo_ms") {
      t.echo_deadline_ms = v;
    } else if (key == "checkpoint") {
      t.checkpoint_roundtrip = v != 0;
    } else {
      return InvalidArgumentError("unknown topology key '" + std::string(key) + "'");
    }
  }
  return OkStatus();
}

Status ParseStepLine(std::string_view rest, ScenarioStep& step) {
  std::string_view kind_name = NextToken(rest);
  Result<StepKind> kind = ParseStepKind(kind_name);
  if (!kind.ok()) {
    return kind.status();
  }
  step.kind = *kind;
  while (!(rest = TrimSpace(rest)).empty()) {
    std::string_view token = NextToken(rest);
    std::string_view key;
    std::string_view value;
    if (!SplitKeyValue(token, key, value)) {
      return InvalidArgumentError("step token without '=': '" + std::string(token) + "'");
    }
    if (key == "payload") {
      Result<Bytes> bytes = HexDecode(value);
      if (!bytes.ok()) {
        return bytes.status();
      }
      step.payload = std::move(*bytes);
      continue;
    }
    Result<int64_t> parsed = ParseInt(value);
    if (!parsed.ok()) {
      return parsed.status();
    }
    if (key == "a") {
      step.a = *parsed;
    } else if (key == "b") {
      step.b = *parsed;
    } else if (key == "c") {
      step.c = *parsed;
    } else if (key == "d") {
      step.d = *parsed;
    } else {
      return InvalidArgumentError("unknown step key '" + std::string(key) + "'");
    }
  }
  return OkStatus();
}

// Shared scanner for ScenarioFromText / ReproFromText. When `repro` is
// null, expectation lines (oracle/detail/digest) are rejected.
Status ParseNymfuzz(std::string_view text, Scenario& scenario, ReproFile* repro) {
  bool saw_header = false;
  bool saw_end = false;
  size_t pos = 0;
  while (pos <= text.size()) {
    size_t eol = text.find('\n', pos);
    std::string_view line = text.substr(pos, eol == std::string_view::npos ? text.size() - pos
                                                                           : eol - pos);
    pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
    line = TrimSpace(line);
    if (line.empty() || line.front() == '#') {
      continue;
    }
    std::string_view rest = line;
    std::string_view keyword = NextToken(rest);
    if (!saw_header) {
      if (keyword != "nymfuzz" || TrimSpace(rest) != "1") {
        return InvalidArgumentError("not a nymfuzz v1 file (missing 'nymfuzz 1' header)");
      }
      saw_header = true;
      continue;
    }
    if (keyword == "family") {
      Result<ScenarioFamily> family = ParseScenarioFamily(TrimSpace(rest));
      if (!family.ok()) {
        return family.status();
      }
      scenario.family = *family;
    } else if (keyword == "seed") {
      Result<uint64_t> seed = ParseU64(TrimSpace(rest));
      if (!seed.ok()) {
        return seed.status();
      }
      scenario.seed = *seed;
    } else if (keyword == "topology") {
      Status status = ParseTopologyLine(rest, scenario.topology);
      if (!status.ok()) {
        return status;
      }
    } else if (keyword == "step") {
      if (saw_end) {
        return InvalidArgumentError("step after 'end'");
      }
      ScenarioStep step;
      Status status = ParseStepLine(rest, step);
      if (!status.ok()) {
        return status;
      }
      scenario.steps.push_back(std::move(step));
    } else if (keyword == "end") {
      saw_end = true;
    } else if (keyword == "oracle" || keyword == "detail" || keyword == "digest") {
      if (repro == nullptr) {
        return InvalidArgumentError("'" + std::string(keyword) +
                                    "' expectation line in a plain scenario file");
      }
      std::string value(TrimSpace(rest));
      if (keyword == "oracle") {
        repro->oracle = std::move(value);
      } else if (keyword == "detail") {
        repro->detail = std::move(value);
      } else {
        repro->digest = std::move(value);
      }
    } else {
      return InvalidArgumentError("unknown keyword '" + std::string(keyword) + "'");
    }
  }
  if (!saw_header) {
    return InvalidArgumentError("empty nymfuzz file");
  }
  if (!saw_end) {
    return InvalidArgumentError("missing 'end' line (truncated file?)");
  }
  return OkStatus();
}

std::string SingleLine(std::string_view text) {
  std::string out(text);
  for (char& c : out) {
    if (c == '\n' || c == '\r') {
      c = ' ';
    }
  }
  return out;
}

}  // namespace

std::string_view ScenarioFamilyName(ScenarioFamily family) {
  for (const FamilyName& entry : kFamilyNames) {
    if (entry.family == family) {
      return entry.name;
    }
  }
  return "?";
}

Result<ScenarioFamily> ParseScenarioFamily(std::string_view name) {
  for (const FamilyName& entry : kFamilyNames) {
    if (name == entry.name) {
      return entry.family;
    }
  }
  return InvalidArgumentError("unknown scenario family '" + std::string(name) + "'");
}

std::string_view StepKindName(StepKind kind) {
  for (const KindName& entry : kKindNames) {
    if (entry.kind == kind) {
      return entry.name;
    }
  }
  return "?";
}

Result<StepKind> ParseStepKind(std::string_view name) {
  for (const KindName& entry : kKindNames) {
    if (name == entry.name) {
      return entry.kind;
    }
  }
  return InvalidArgumentError("unknown step kind '" + std::string(name) + "'");
}

ScenarioFamily FamilyOfStep(StepKind kind) {
  for (const KindName& entry : kKindNames) {
    if (entry.kind == kind) {
      return entry.family;
    }
  }
  return ScenarioFamily::kNet;
}

std::string ScenarioToText(const Scenario& scenario) {
  std::string out = "nymfuzz 1\n";
  out += "family " + std::string(ScenarioFamilyName(scenario.family)) + "\n";
  out += "seed " + std::to_string(scenario.seed) + "\n";
  AppendTopology(out, scenario.topology);
  for (const ScenarioStep& step : scenario.steps) {
    out += "step " + std::string(StepKindName(step.kind));
    out += " a=" + std::to_string(step.a);
    out += " b=" + std::to_string(step.b);
    out += " c=" + std::to_string(step.c);
    out += " d=" + std::to_string(step.d);
    if (!step.payload.empty()) {
      out += " payload=" + HexEncode(step.payload);
    }
    out += "\n";
  }
  out += "end\n";
  return out;
}

Result<Scenario> ScenarioFromText(std::string_view text) {
  Scenario scenario;
  Status status = ParseNymfuzz(text, scenario, nullptr);
  if (!status.ok()) {
    return status;
  }
  return scenario;
}

std::string ReproToText(const ReproFile& repro) {
  std::string out = ScenarioToText(repro.scenario);
  if (!repro.oracle.empty()) {
    out += "oracle " + SingleLine(repro.oracle) + "\n";
  }
  if (!repro.detail.empty()) {
    out += "detail " + SingleLine(repro.detail) + "\n";
  }
  if (!repro.digest.empty()) {
    out += "digest " + SingleLine(repro.digest) + "\n";
  }
  return out;
}

Result<ReproFile> ReproFromText(std::string_view text) {
  ReproFile repro;
  Status status = ParseNymfuzz(text, repro.scenario, &repro);
  if (!status.ok()) {
    return status;
  }
  return repro;
}

}  // namespace nymix
