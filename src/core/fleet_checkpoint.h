// Whole-host checkpoint/restore over the deterministic KV store:
// NymManager's CheckpointNym/RecoverNym lifted from one nym to every nym a
// host is running.
//
// A host checkpoint captures, per live nym: its creation options, both
// RAM-backed writable disk layers (anonymizer state included — the
// checkpoint first runs CheckpointNym so guards and consensus are synced
// into the CommVM layer, exactly like tor rewriting its state file), and
// the save-sequence counter. Restore tears down whatever is running under
// each checkpointed name and boots a replacement from the captured state;
// boots execute in virtual time, so the caller drives the simulation to
// quiescence afterwards. Guard choice survives the round trip (§3.5's
// intersection-attack defence) because the anonymizer re-derives it from
// the restored state.
//
// Keying: "<host_key>/nym/<name>". Host keys are caller-chosen, so several
// hosts can checkpoint into one store.
#ifndef SRC_CORE_FLEET_CHECKPOINT_H_
#define SRC_CORE_FLEET_CHECKPOINT_H_

#include <string>

#include "src/core/nym_manager.h"
#include "src/store/kv_store.h"

namespace nymix {

// Checkpoints every live nym managed by `manager` into `store`. Existing
// entries under the same host key are replaced (a nym that died since the
// last checkpoint disappears from the store, matching the host's reality).
Status CheckpointHost(NymManager& manager, const std::string& host_key, KvStore& store);

// Restores every nym checkpointed under `host_key`. Each restore boots in
// virtual time; `restored_count` (optional) reports how many nyms were
// found. Restore callbacks abort the simulation on failure — a checkpoint
// that cannot boot is a bug, not a recoverable condition.
Status RestoreHost(NymManager& manager, const std::string& host_key, KvStore& store,
                   int* restored_count = nullptr);

}  // namespace nymix

#endif  // SRC_CORE_FLEET_CHECKPOINT_H_
