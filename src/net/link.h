// Link: a point-to-point virtual wire between two packet sinks, with
// propagation latency and serialization bandwidth. The AnonVM<->CommVM
// "virtual wire" (§4.2), the CommVM's NAT uplink, the host's 10 Mbit
// DeterLab-style uplink, and inter-relay links are all Links. A Link with a
// missing sink silently drops — that is the mechanism behind the §5.1
// observation that probes to nonexistent neighbors "fail with no-response,
// as if the host did not exist."
#ifndef SRC_NET_LINK_H_
#define SRC_NET_LINK_H_

#include <array>
#include <functional>
#include <optional>
#include <string>

#include "src/net/capture.h"
#include "src/net/packet.h"
#include "src/net/tap.h"
#include "src/util/event_loop.h"
#include "src/util/prng.h"

namespace nymix {

class FlowScheduler;
class Link;

// Why a packet was dropped instead of delivered. kNoSink is the benign
// baseline (the §5.1 "as if the host did not exist" mechanism); the rest
// are injected or induced faults.
enum class LinkDropReason {
  kNoSink = 0,        // no sink attached on the receiving side
  kFault = 1,         // seeded random loss (LinkFaultProfile::loss_probability)
  kDown = 2,          // link administratively/fault down (SetDown)
  kQueueOverflow = 3, // more packets in flight than max_in_flight allows
};
inline constexpr size_t kNumLinkDropReasons = 4;

std::string_view LinkDropReasonName(LinkDropReason reason);

// Seeded fault behavior of a Link. All randomness flows from the seed
// passed to SetFaultProfile, so identically-seeded runs drop and spike the
// same packets at the same virtual times.
struct LinkFaultProfile {
  // Chance each packet is dropped in transit.
  double loss_probability = 0.0;
  // Chance each surviving packet suffers an extra latency spike.
  double spike_probability = 0.0;
  SimDuration spike_latency = 0;
  // Queue bound: packets beyond this many concurrently in flight are
  // dropped (0 = unbounded).
  uint64_t max_in_flight = 0;
};

class PacketSink {
 public:
  virtual ~PacketSink() = default;
  // `link` is the wire the packet arrived on; `from_a` tells which side sent.
  virtual void OnPacket(const Packet& packet, Link& link, bool from_a) = 0;
};

// A send-window promise for a cross-shard half-link: every send departs at
// exactly t = phase + k * period (k >= 0). period 0 means unconstrained —
// sends may happen at any virtual time, which is the default. The promise
// is application lookahead: the parallel executor can advance a
// destination shard's horizon to the *next window* plus the wire latency
// instead of tracking the source shard's next local event, which is what
// collapses epoch counts for round-based traffic (directory fetch rounds,
// DC-net rounds). Enforced with a CHECK at send time, so a workload cannot
// quietly break the horizon proof.
struct SendSchedule {
  SimDuration period = 0;
  SimTime phase = 0;
};

// First window time >= t (identity when the schedule is unconstrained).
inline SimTime NextSendWindow(const SendSchedule& schedule, SimTime t) {
  if (schedule.period <= 0) {
    return t;
  }
  if (t <= schedule.phase) {
    return schedule.phase;
  }
  SimTime k = (t - schedule.phase + schedule.period - 1) / schedule.period;
  return schedule.phase + k * schedule.period;
}

class Link {
 public:
  Link(EventLoop& loop, std::string name, SimDuration latency, uint64_t bandwidth_bps);

  // Creation-order sequence number, drawn from the owning loop's per-loop
  // fountain (EventLoop::AllocateObjectId) so parallel shards allocate
  // without racing. Containers keyed on Link* must order by this
  // (LinkIdLess below), never by address: link creation order within a
  // shard is deterministic, heap addresses are not, and iteration order
  // reaches simulation outputs (fair-share rounding, NIC scan order).
  uint64_t id() const { return id_; }

  const std::string& name() const { return name_; }
  SimDuration latency() const { return latency_; }
  uint64_t bandwidth_bps() const { return bandwidth_bps_; }

  void AttachA(PacketSink* sink) { a_ = sink; }
  void AttachB(PacketSink* sink) { b_ = sink; }
  PacketSink* side_a() const { return a_; }

  // Taps observe both directions (the §5.1 Wireshark position).
  void AttachCapture(PacketCapture* capture) { capture_ = capture; }

  // Adversary tap (src/net/tap.h): metadata-only, single slot. Sees every
  // packet put on the wire (before drop/fault resolution — a wire tap sits
  // upstream of the receiver) and every bulk flow that ends having crossed
  // this link. Unlike AttachCapture it never retains payloads.
  void AttachTap(LinkTap* tap) { tap_ = tap; }
  LinkTap* tap() const { return tap_; }

  // Schedules delivery to the opposite side after latency + serialization.
  void SendFromA(Packet packet) { Send(std::move(packet), /*from_a=*/true); }
  void SendFromB(Packet packet) { Send(std::move(packet), /*from_a=*/false); }

  // Installs (or clears, with a default profile) seeded fault behavior.
  // The seed should come from FaultInjector::SeedFor so one experiment seed
  // governs every link's loss stream.
  void SetFaultProfile(const LinkFaultProfile& profile, uint64_t seed);
  double loss_probability() const { return fault_profile_.loss_probability; }

  // A down link drops everything (flap it from a FaultInjector schedule).
  void SetDown(bool down);
  bool is_down() const { return down_; }

  // --- Cross-shard endpoints (src/parallel) -----------------------------
  // A cross-shard wire is modeled as two half-links, one per shard, bridged
  // by a mailbox: on each half-link the local endpoint is side A and side B
  // is remote. With a forward installed, SendFromA runs the normal local
  // pipeline (capture, drop reasons, fault draws, latency + serialization
  // into `deliver_at`) but hands (packet, deliver_at) to the forward
  // instead of scheduling local delivery; the peer half-link's
  // DeliverFromRemote is the inbound end, invoked by the executor at
  // exactly `deliver_at` in the destination shard. Cross-shard causality is
  // safe because deliver_at >= send time + latency >= the executor's
  // lookahead horizon (ShardedSimulation computes its lookahead as the
  // minimum latency over all cross-shard half-links).
  void set_remote_forward(std::function<void(Packet, SimTime deliver_at)> forward) {
    remote_forward_ = std::move(forward);
  }
  bool remote() const { return static_cast<bool>(remote_forward_); }
  // Promises that every outbound send on this half-link departs on a
  // window of `schedule` (CHECKed in Send). Meaningful only on remote
  // half-links; CrossShardChannel::PromiseSendWindows installs it.
  void set_remote_send_schedule(SendSchedule schedule) { remote_schedule_ = schedule; }
  const SendSchedule& remote_send_schedule() const { return remote_schedule_; }
  // Delivers an inbound cross-shard packet to the local side-A sink (drops
  // with kNoSink when nothing is attached, like any other link).
  void DeliverFromRemote(const Packet& packet);

  // Wired by Simulation::CreateLink so SetDown can mark this link dirty in
  // the flow scheduler's incremental fair-share state. Rates still only
  // move at the next Reschedule — flapping a link does not itself trigger
  // a recompute, exactly as before the incremental scheduler existed.
  void set_flow_scheduler(FlowScheduler* scheduler) { scheduler_ = scheduler; }

  // nymlint:allow(dead-api): tests count delivered packets
  uint64_t packets_delivered() const { return delivered_; }
  // Total drops across all reasons (back-compat with pre-fault callers).
  // nymlint:allow(dead-api): tests count dropped packets, in total and by reason
  uint64_t packets_dropped() const;
  uint64_t packets_dropped(LinkDropReason reason) const {
    return dropped_by_reason_[static_cast<size_t>(reason)];
  }

 private:
  void Send(Packet packet, bool from_a);
  void Drop(LinkDropReason reason);

  EventLoop& loop_;
  uint64_t id_;
  std::string name_;
  SimDuration latency_;
  uint64_t bandwidth_bps_;
  PacketSink* a_ = nullptr;
  PacketSink* b_ = nullptr;
  PacketCapture* capture_ = nullptr;
  LinkTap* tap_ = nullptr;
  uint64_t delivered_ = 0;
  std::array<uint64_t, kNumLinkDropReasons> dropped_by_reason_{};
  LinkFaultProfile fault_profile_;
  std::optional<Prng> fault_prng_;
  FlowScheduler* scheduler_ = nullptr;
  bool down_ = false;
  uint64_t in_flight_ = 0;
  std::function<void(Packet, SimTime)> remote_forward_;
  SendSchedule remote_schedule_;
};

// Comparator for Link*-keyed ordered containers: creation order, which is
// reproducible run to run, instead of allocation address, which is not.
struct LinkIdLess {
  bool operator()(const Link* a, const Link* b) const { return a->id() < b->id(); }
};

}  // namespace nymix

#endif  // SRC_NET_LINK_H_
