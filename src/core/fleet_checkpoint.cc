#include "src/core/fleet_checkpoint.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "src/unionfs/serialize.h"
#include "src/util/check.h"

namespace nymix {

namespace {

// Nym checkpoint payload: options, both writable layers, save sequence.
// Fixed-endian fields only; MemFs serialization is already deterministic
// (sorted paths), so the payload is a pure function of the nym's state.
Bytes EncodeNymState(const NymManager::CreateOptions& options, const MemFs& anon_writable,
                     const MemFs& comm_writable, uint32_t next_sequence) {
  Bytes payload;
  payload.push_back(static_cast<uint8_t>(options.anonymizer));
  payload.push_back(static_cast<uint8_t>(options.mode));
  payload.push_back(options.guard_seed.has_value() ? 1 : 0);
  AppendU64(payload, options.guard_seed.value_or(0));
  payload.push_back(static_cast<uint8_t>(options.chain_inner));
  payload.push_back(static_cast<uint8_t>(options.chain_outer));
  AppendLengthPrefixed(payload, SerializeMemFs(anon_writable));
  AppendLengthPrefixed(payload, SerializeMemFs(comm_writable));
  AppendU32(payload, next_sequence);
  return payload;
}

struct DecodedNymState {
  NymManager::CreateOptions options;
  std::unique_ptr<MemFs> anon_writable;
  std::unique_ptr<MemFs> comm_writable;
  uint32_t next_sequence = 0;
};

Result<DecodedNymState> DecodeNymState(ByteSpan payload) {
  if (payload.size() < 6) {
    return DataLossError("nym checkpoint: payload too short");
  }
  DecodedNymState out;
  size_t offset = 0;
  out.options.anonymizer = static_cast<AnonymizerKind>(payload[offset++]);
  out.options.mode = static_cast<NymMode>(payload[offset++]);
  const bool has_guard_seed = payload[offset++] != 0;
  NYMIX_ASSIGN_OR_RETURN(uint64_t guard_seed, ReadU64(payload, offset));
  if (has_guard_seed) {
    out.options.guard_seed = guard_seed;
  }
  out.options.chain_inner = static_cast<AnonymizerKind>(payload[offset++]);
  out.options.chain_outer = static_cast<AnonymizerKind>(payload[offset++]);
  NYMIX_ASSIGN_OR_RETURN(Bytes anon_fs, ReadLengthPrefixed(payload, offset));
  NYMIX_ASSIGN_OR_RETURN(out.anon_writable, DeserializeMemFs(anon_fs));
  NYMIX_ASSIGN_OR_RETURN(Bytes comm_fs, ReadLengthPrefixed(payload, offset));
  NYMIX_ASSIGN_OR_RETURN(out.comm_writable, DeserializeMemFs(comm_fs));
  NYMIX_ASSIGN_OR_RETURN(out.next_sequence, ReadU32(payload, offset));
  if (offset != payload.size()) {
    return DataLossError("nym checkpoint: trailing bytes");
  }
  return out;
}

std::string NymKeyPrefix(const std::string& host_key) { return host_key + "/nym/"; }

}  // namespace

Status CheckpointHost(NymManager& manager, const std::string& host_key, KvStore& store) {
  const std::string prefix = NymKeyPrefix(host_key);
  // Drop stale entries first: the checkpoint must mirror the host, not
  // accumulate every nym that ever lived on it.
  std::vector<std::string> stale;
  for (const auto& [key, value] : store.entries()) {
    if (key.compare(0, prefix.size(), prefix) == 0) {
      stale.push_back(key);
    }
  }
  for (const std::string& key : stale) {
    store.Delete(key);
  }
  // Checkpoint in name order, not manager order: recovery re-wires a nym at
  // the back of the manager's list, so manager order encodes the host's
  // crash history. The log must be a pure function of host *state* or a
  // restored host re-checkpoints differently (caught by the fuzzer's
  // checkpoint-identity oracle).
  std::vector<Nym*> live = manager.nyms();
  std::sort(live.begin(), live.end(),
            [](const Nym* a, const Nym* b) { return a->name() < b->name(); });
  for (Nym* nym : live) {
    if (nym->anon_vm() == nullptr || nym->comm_vm() == nullptr) {
      continue;  // mid-teardown; nothing coherent to capture
    }
    // Sync anonymizer state into the CommVM layer so the checkpoint holds
    // guards/consensus even if the nym never saved on its own.
    NYMIX_RETURN_IF_ERROR(manager.CheckpointNym(*nym));
    const NymManager::CreateOptions* options = manager.FindOptions(nym->name());
    if (options == nullptr) {
      return InternalError("checkpoint: nym without recorded options: " + nym->name());
    }
    // Host checkpoints are keyed by nym name on purpose: the store is
    // host-local state that never leaves the host, and restore has to find
    // a nym by its name.
    // nymlint:allow(nymflow-identity-taint): host-local checkpoint store; the key never leaves the host
    store.Put(prefix + nym->name(),
              EncodeNymState(*options, nym->anon_vm()->disk().fs().writable(),
                             nym->comm_vm()->disk().fs().writable(), nym->save_sequence()));
  }
  return OkStatus();
}

Status RestoreHost(NymManager& manager, const std::string& host_key, KvStore& store,
                   int* restored_count) {
  const std::string prefix = NymKeyPrefix(host_key);
  int count = 0;
  for (const auto& [key, value] : store.entries()) {
    if (key.compare(0, prefix.size(), prefix) != 0) {
      continue;
    }
    const std::string name = key.substr(prefix.size());
    NYMIX_ASSIGN_OR_RETURN(DecodedNymState state, DecodeNymState(value));
    manager.RestoreNymFromState(name, state.options, std::move(state.anon_writable),
                                std::move(state.comm_writable), state.next_sequence,
                                [name](Result<Nym*> nym, NymStartupReport) {
                                  NYMIX_CHECK_MSG(nym.ok(),
                                                  ("restore failed for " + name).c_str());
                                });
    ++count;
  }
  if (restored_count != nullptr) {
    *restored_count = count;
  }
  return OkStatus();
}

}  // namespace nymix
