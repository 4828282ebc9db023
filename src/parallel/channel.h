// CrossShardChannel: a point-to-point wire whose endpoints live in two
// different simulation shards.
//
// The wire is modeled as two half-links, one created in each shard's
// Simulation. On each half-link the local endpoint is side A; side B is the
// remote shard. A send runs the normal Link pipeline in the source shard
// (capture, drop accounting, seeded fault draws, latency + serialization
// into a delivery time) and then lands in this channel's per-direction
// outbox instead of the local event loop. At the next epoch barrier the
// executor drains every channel's outbox, sorts the deliveries by
// (deliver_at, source shard, channel id, per-direction sequence) and
// schedules each into the destination shard's loop — a total order that
// depends only on virtual time and creation order, never on which worker
// thread ran which shard. That sort key is the heart of the byte-identity
// contract.
//
// Causality: every delivery satisfies deliver_at >= send time + latency,
// and the executor's epoch horizon is (earliest pending event) + (minimum
// channel latency) - 1, so a delivery can never land inside the epoch that
// produced it. Channel latency must therefore be > 0.
//
// Not modeled across shards: flow fair-sharing (FlowScheduler CHECKs that
// routes stay shard-local) and max_in_flight queue bounds. Loss and spike
// faults work per direction — draws happen on the sending half-link.
#ifndef SRC_PARALLEL_CHANNEL_H_
#define SRC_PARALLEL_CHANNEL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/net/link.h"
#include "src/net/packet.h"

namespace nymix {

class Simulation;

class CrossShardChannel {
 public:
  // One cross-shard packet awaiting scheduling into its destination shard.
  // Ordering fields first; the executor sorts a flat vector of these.
  struct PendingDelivery {
    SimTime deliver_at = 0;
    int src_shard = 0;
    uint64_t channel_id = 0;
    uint64_t seq = 0;  // per channel direction, assigned at send
    int dst_shard = 0;
    Link* dst_link = nullptr;  // half-link whose side A receives
    Packet packet;
  };

  // Created via ShardedSimulation::CreateChannel, which owns the channel and
  // assigns `id` in creation order.
  CrossShardChannel(uint64_t id, std::string name, int shard_a, int shard_b,
                    Simulation& sim_a, Simulation& sim_b, SimDuration latency,
                    uint64_t bandwidth_bps);

  uint64_t id() const { return id_; }
  const std::string& name() const { return name_; }
  SimDuration latency() const { return latency_; }
  int shard_a() const { return shard_a_; }
  int shard_b() const { return shard_b_; }

  // The half-link endpoints. Attach the local sink with AttachA and send
  // with SendFromA, exactly like a local Link.
  Link* a_end() { return link_a_; }
  Link* b_end() { return link_b_; }

  // Installs the same fault profile on both directions, with per-direction
  // seeds derived from `seed` (draws happen on the sending half-link).
  void SetFaultProfile(const LinkFaultProfile& profile, uint64_t seed);

  // Promises per-direction send windows (see SendSchedule in src/net/link.h):
  // every send in a direction departs exactly at t = phase + k * period.
  // The executor's adaptive horizon then jumps a destination shard past the
  // gap to the next window + latency instead of trailing the source shard's
  // next local event — the difference between hundreds of epochs and a
  // handful for round-based cross-shard traffic. A default (period 0)
  // schedule keeps the direction unconstrained. Enforced by a CHECK at
  // send, so the promise cannot drift from the workload.
  void PromiseSendWindows(SendSchedule a_to_b, SendSchedule b_to_a);
  const SendSchedule& schedule_a_to_b() const { return link_a_->remote_send_schedule(); }
  const SendSchedule& schedule_b_to_a() const { return link_b_->remote_send_schedule(); }

  // Pre-sizes both direction outboxes (a mailbox capacity hint from the
  // workload, so steady-state sends never reallocate mid-epoch).
  void ReserveOutboxes(size_t per_direction);

  // Buffered-but-undelivered sends (sampled by the executor at barriers
  // for the parallel.outbox_depth histogram).
  size_t outbox_depth() const { return outbox_to_b_.size() + outbox_to_a_.size(); }

  // Takes both directions down/up (a fault-injection hook; each half drops
  // with LinkDropReason::kDown while down).
  void SetDown(bool down);

  // Epoch barrier: moves all buffered deliveries into `out` (a->b first,
  // then b->a) and clears the outboxes. Called from the coordinator thread
  // only; outboxes are single-writer because each direction is filled only
  // by its source shard's epoch execution.
  void DrainInto(std::vector<PendingDelivery>& out);

 private:
  struct Buffered {
    SimTime deliver_at;
    uint64_t seq;
    Packet packet;
  };

  uint64_t id_;
  std::string name_;
  int shard_a_;
  int shard_b_;
  SimDuration latency_;
  Link* link_a_;  // lives in shard_a_'s Simulation
  Link* link_b_;  // lives in shard_b_'s Simulation
  uint64_t seq_to_b_ = 0;
  uint64_t seq_to_a_ = 0;
  std::vector<Buffered> outbox_to_b_;
  std::vector<Buffered> outbox_to_a_;
};

}  // namespace nymix

#endif  // SRC_PARALLEL_CHANNEL_H_
