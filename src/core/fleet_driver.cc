#include "src/core/fleet_driver.h"

namespace nymix {
namespace {

// Retry budgets for the fault-tolerant slot paths. Generous relative to
// recovery times (a crashed VM is back in tens of virtual seconds, a visit
// retry waits 0.5–2 s), so only a genuinely unrecoverable schedule — e.g. a
// host whose uplink never comes back — burns through them.
constexpr int kMaxVisitRetries = 64;
constexpr int kMaxCreateRetries = 8;

}  // namespace

FleetDriver::FleetDriver(ShardedSimulation& sharded, Config config, uint64_t seed,
                         FleetHooks& hooks)
    : sharded_(sharded), config_(std::move(config)), hooks_(hooks) {
  NYMIX_CHECK(config_.nym_count >= 1);
  NYMIX_CHECK(config_.nyms_per_host >= 1);
  const int shards = sharded_.shard_count();
  for (int s = 0; s < shards; ++s) {
    // Think-time randomness is per shard and derived from (seed, shard id):
    // a slot's think stream must not depend on how other shards interleave.
    shard_states_.push_back(std::make_unique<ShardState>(
        Mix64(seed ^ Fnv1a64(config_.think_label) ^ static_cast<uint64_t>(s))));
  }

  const int hosts = (config_.nym_count + config_.nyms_per_host - 1) / config_.nyms_per_host;
  const ShardPlacement& placement = config_.placement;
  if (!placement.empty()) {
    // A placement is part of the experiment definition; a partial or
    // out-of-range table would silently fall back to round-robin for the
    // missing hosts, so reject it loudly instead.
    NYMIX_CHECK_MSG(static_cast<int>(placement.shard_of_host.size()) == hosts,
                    "ShardPlacement must assign exactly one shard per host");
    for (int assigned : placement.shard_of_host) {
      NYMIX_CHECK(assigned >= 0 && assigned < shards);
    }
    sharded_.set_placement_label(placement.Label());
  }
  // Every host boots from the same release image. The interned image is
  // immutable, so all shards share it read-only.
  std::vector<std::shared_ptr<const BaseImage>>& images = config_.images;
  if (static_cast<int>(images.size()) != shards) {
    NYMIX_CHECK_MSG(images.empty(), "fleet images must match the shard plan");
    images.assign(static_cast<size_t>(shards),
                  BaseImage::CreateDistribution(kFleetImageName, kFleetImageSeed,
                                                kFleetImageSizeBytes));
  }

  for (int c = 0; c < hosts; ++c) {
    const int shard = placement.shard_for(static_cast<size_t>(c), shards);
    Simulation& sim = sharded_.shard(shard);
    auto cluster = std::make_unique<FleetCluster>();
    cluster->shard = shard;
    cluster->host = std::make_unique<HostMachine>(sim);
    cluster->tor = std::make_unique<TorNetwork>(sim, config_.tor);
    cluster->manager = std::make_unique<NymManager>(
        *cluster->host, images[static_cast<size_t>(shard)], cluster->tor.get(), nullptr);
    clusters_.push_back(std::move(cluster));
    hooks_.BuildCluster(c, *clusters_.back(), sim);
    NYMIX_CHECK_MSG(!clusters_.back()->sites.empty(), "every fleet cluster needs a site");
  }

  slots_.resize(static_cast<size_t>(config_.nym_count));
  for (int i = 0; i < config_.nym_count; ++i) {
    slots_[static_cast<size_t>(i)].cluster = i / config_.nyms_per_host;
    ++ShardOf(i).total_slots;
  }
  // A plan with more shards than hosts leaves some shards empty — they
  // simply idle through every epoch.
}

FleetDriver::~FleetDriver() = default;

void FleetDriver::Run() {
  for (int i = 0; i < config_.nym_count; ++i) {
    SpawnNym(i);
  }
  sharded_.RunUntilIdle();
  for (const auto& state : shard_states_) {
    NYMIX_CHECK(state->finished_slots == state->total_slots);
  }
}

bool FleetDriver::Stale(int slot, int epoch) const {
  const Slot& state = slots_[static_cast<size_t>(slot)];
  return state.finished || state.epoch != epoch;
}

void FleetDriver::AfterThink(int slot, EventLoop::Callback fn) {
  ShardState& shard = ShardOf(slot);
  SimDuration think = Millis(500 + static_cast<SimDuration>(shard.think_prng.NextBelow(1500)));
  sharded_.shard(ClusterOf(slot).shard).loop().ScheduleAfter(think, std::move(fn));
}

void FleetDriver::SpawnNym(int slot) {
  Slot& state = slots_[static_cast<size_t>(slot)];
  const int epoch = state.epoch;
  std::string name = config_.name_prefix + std::to_string(state.cluster) + "-s" +
                     std::to_string(slot % config_.nyms_per_host) + "-g" +
                     std::to_string(state.generation);
  ClusterOf(slot).manager->CreateNym(
      name, hooks_.CreateOptionsFor(slot),
      [this, slot, epoch](Result<Nym*> nym, NymStartupReport) {
        Slot& state = slots_[static_cast<size_t>(slot)];
        if (Stale(slot, epoch)) {
          // Abandoned or superseded while booting; tear the straggler down
          // if it made it.
          if (nym.ok()) {
            Status ignored = ClusterOf(slot).manager->TerminateNym(*nym);
            (void)ignored;
          }
          return;
        }
        if (!nym.ok()) {
          // A create can fail under fault schedules (anonymizer bootstrap
          // exhausted its retry budget, say). Back off and try again; the
          // boot is from pristine base state, so a retry is safe.
          ++ShardOf(slot).create_failures;
          if (++state.create_retries > kMaxCreateRetries) {
            AbandonSlot(slot);
            return;
          }
          AfterThink(slot, [this, slot] { SpawnNym(slot); });
          return;
        }
        state.create_retries = 0;
        state.nym = *nym;
        state.visits_done = 0;
        hooks_.OnNymReady(slot);
        VisitNext(slot, epoch);
      });
}

void FleetDriver::RetryVisit(int slot, EventLoop::Callback step) {
  if (++slots_[static_cast<size_t>(slot)].visit_retries > kMaxVisitRetries) {
    AbandonSlot(slot);
    return;
  }
  AfterThink(slot, std::move(step));
}

void FleetDriver::VisitNext(int slot, int epoch) {
  if (Stale(slot, epoch)) {
    return;
  }
  Slot& state = slots_[static_cast<size_t>(slot)];
  if (state.nym == nullptr) {
    // The slot's VM crashed and its recovery has not handed back a nym yet
    // (ScheduleVmCrash nulls the pointer at crash time). Wait a think-time
    // and look again, on the same budget as failed visits.
    RetryVisit(slot, [this, slot, epoch] { VisitNext(slot, epoch); });
    return;
  }
  FleetCluster& cluster = ClusterOf(slot);
  Website& site = *cluster.sites[static_cast<size_t>(state.visits_done) % cluster.sites.size()];
  state.nym->browser()->Visit(site, [this, slot, epoch](Result<SimTime> done) {
    if (Stale(slot, epoch)) {
      return;
    }
    if (!done.ok()) {
      // Failed visit (aborted flow, dead uplink, crashed VM): retry after a
      // think-time. The budget keeps a never-healing fault from looping.
      ++ShardOf(slot).visit_failures;
      RetryVisit(slot, [this, slot, epoch] { VisitNext(slot, epoch); });
      return;
    }
    Slot& state = slots_[static_cast<size_t>(slot)];
    state.visit_retries = 0;
    ++ShardOf(slot).visits;
    ++state.visits_done;
    ++ClusterOf(slot).weight_events;
    // Think time before the next action; acting from a fresh event also
    // means churn never tears a nym down from inside its own callback.
    AfterThink(slot, [this, slot, epoch] {
      if (!hooks_.ClaimAfterVisit(slot, epoch)) {
        Advance(slot, epoch);
      }
    });
  });
}

void FleetDriver::Advance(int slot, int epoch) {
  if (Stale(slot, epoch)) {
    return;
  }
  Slot& state = slots_[static_cast<size_t>(slot)];
  FleetCluster& cluster = ClusterOf(slot);
  const int target = config_.passes_per_generation * cluster.visit_multiplier *
                     static_cast<int>(cluster.sites.size());
  if (state.visits_done < target) {
    VisitNext(slot, epoch);
    return;
  }
  if (state.nym == nullptr) {
    // A crash landed between the last visit and this churn; wait for the
    // recovery to hand the slot a nym to terminate (same retry budget).
    RetryVisit(slot, [this, slot, epoch] { Advance(slot, epoch); });
    return;
  }
  hooks_.BeforeTerminate(slot);
  ++state.generation;
  Status terminated = cluster.manager->TerminateNym(state.nym);
  NYMIX_CHECK_MSG(terminated.ok(), terminated.ToString().c_str());
  state.nym = nullptr;
  if (state.generation >= config_.generations) {
    FinishSlot(slot);
    return;
  }
  ++ShardOf(slot).churns;
  ++cluster.weight_events;
  SpawnNym(slot);
}

void FleetDriver::AbandonSlot(int slot) {
  Slot& state = slots_[static_cast<size_t>(slot)];
  ++ShardOf(slot).slots_abandoned;
  // Retire before the teardown: callbacks the teardown fires synchronously
  // must already see a finished slot.
  state.finished = true;
  if (state.nym != nullptr) {
    // Best-effort teardown; a half-crashed wreck may refuse, and the slot
    // is being written off either way.
    Status ignored = ClusterOf(slot).manager->TerminateNym(state.nym);
    (void)ignored;
    state.nym = nullptr;
  }
  FinishSlot(slot);
}

void FleetDriver::FinishSlot(int slot) {
  // Every path here ends the slot's chain with no continuation pending
  // (Advance after the last generation, or AbandonSlot), so marking it
  // finished only makes later stray callbacks stand down — it never cuts a
  // live chain short.
  slots_[static_cast<size_t>(slot)].finished = true;
  const int shard = ClusterOf(slot).shard;
  ShardState& state = *shard_states_[static_cast<size_t>(shard)];
  if (++state.finished_slots == state.total_slots) {
    hooks_.OnShardFinished(shard);
  }
}

void FleetDriver::ScheduleVmCrash(int host, SimTime at) {
  NYMIX_CHECK(host >= 0 && host < host_count());
  sharded_.shard(cluster(host).shard).loop().ScheduleAt(at, [this, host] {
    // Crash the first slot on this host that currently has a live nym; a
    // host whose slots are all booting, recovering, or finished absorbs the
    // event as a no-op (so shrinking a scenario never creates a crash that
    // aborts the run).
    for (int i = 0; i < config_.nym_count; ++i) {
      Slot& state = slots_[static_cast<size_t>(i)];
      if (state.cluster != host || state.finished || state.nym == nullptr) {
        continue;
      }
      NymManager& manager = *cluster(host).manager;
      Nym* wreck = state.nym;
      // Null the pointer and bump the epoch first: the wreck's in-flight
      // work evaporates at its lifetime guards (no failure callback comes
      // back), so the old drive chain is dead — and any timer of it that
      // does survive now stands down as stale. The recovery callback below
      // starts the slot's one replacement chain.
      state.nym = nullptr;
      ++state.epoch;
      manager.InjectCrash(*wreck);
      manager.RecoverNym(wreck, [this, i, &manager](Result<Nym*> nym, NymStartupReport) {
        Slot& state = slots_[static_cast<size_t>(i)];
        if (state.finished) {
          // The slot gave up while we were rebooting; don't leave a live
          // orphan VM keeping the shard from quiescing.
          if (nym.ok()) {
            Status ignored = manager.TerminateNym(*nym);
            (void)ignored;
          }
          return;
        }
        if (!nym.ok()) {
          AbandonSlot(i);
          return;
        }
        ++ShardOf(i).vm_recoveries;
        state.nym = *nym;
        // Resume the drive loop. Advance handles both positions the severed
        // chain could have been in: mid-generation (more visits due) and the
        // churn boundary. Epoch is re-read, not captured from crash time: a
        // later crash landing before this timer fires supersedes it.
        const int epoch = state.epoch;
        AfterThink(i, [this, i, epoch] { Advance(i, epoch); });
      });
      return;
    }
  });
}

uint64_t FleetDriver::Total(uint64_t ShardState::*counter) const {
  uint64_t total = 0;
  for (const auto& state : shard_states_) {
    total += (*state).*counter;
  }
  return total;
}

std::vector<double> FleetDriver::HostWeights() const {
  std::vector<double> weights;
  weights.reserve(clusters_.size());
  for (const auto& cluster : clusters_) {
    // Floor at 1 so an idle host still gets packed somewhere deliberate.
    weights.push_back(cluster->weight_events > 0 ? static_cast<double>(cluster->weight_events)
                                                 : 1.0);
  }
  return weights;
}

}  // namespace nymix
