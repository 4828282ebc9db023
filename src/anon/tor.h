// Tor model: a directory authority, a relay population with guard/exit
// flags, and TorClient — the per-nym anonymizer instance running in a
// CommVM (§3.3). The model captures the costs the paper measures:
//   - bootstrap: consensus + descriptor download, then circuit building
//     (the Figure 7 "Start Tor" phase; much cheaper with cached state);
//   - entry-guard persistence: a fresh client picks a random guard, a
//     restored client reuses the stored one (§3.5's intersection-attack
//     argument), and a guard can be derived deterministically from a seed
//     (the paper's proposed hash-of-location-and-password scheme);
//   - data overhead: 512-byte cells with 498 payload bytes plus per-hop
//     TLS framing, ~12% total (Figure 5's "fixed cost, approximately 12%").
#ifndef SRC_ANON_TOR_H_
#define SRC_ANON_TOR_H_

#include <optional>
#include <set>
#include <vector>

#include "src/anon/anonymizer.h"

namespace nymix {

struct TorRelayInfo {
  std::string nickname;
  Ipv4Address ip;
  bool is_guard = false;
  bool is_exit = false;
};

// A relay answers circuit-building cells after a small crypto-processing
// delay. An onion-encapsulated EXTEND cell carries "fwd=<next-hop-ip>"
// layers: the relay peels one layer, forwards the inner cell to the next
// hop, and relays the answer back — so each relay only ever talks to its
// neighbors, which is the property that makes the middle relay blind to
// the client (testable via sources_seen()). Bulk data is flow-modeled and
// does not pass through OnDatagram.
class TorRelay : public InternetHost {
 public:
  TorRelay(EventLoop& loop, std::string nickname);

  // Called by TorNetwork after registration.
  void AttachToInternet(Internet* internet, Ipv4Address self_ip) {
    internet_ = internet;
    self_ip_ = self_ip;
  }

  void OnDatagram(const Packet& packet, const std::function<void(Packet)>& reply) override;

  // nymlint:allow(dead-api): tests check the guard relayed the circuit's cells
  uint64_t cells_forwarded() const { return cells_forwarded_; }
  // Every source address this relay has observed — the basis of the
  // "middle never sees the client" test.
  // nymlint:allow(dead-api): the guard-view check: tests assert no relay saw a guest address
  const std::set<Ipv4Address>& sources_seen() const { return sources_seen_; }

 private:
  EventLoop& loop_;
  std::string nickname_;
  Internet* internet_ = nullptr;
  Ipv4Address self_ip_;
  uint64_t cells_forwarded_ = 0;
  std::set<Ipv4Address> sources_seen_;
};

// The deployed relay population plus a directory authority, registered on
// the simulation's Internet (the paper's "test Tor deployment running on
// the DeterLab testbed").
class TorNetwork {
 public:
  struct Config {
    size_t relay_count = 12;
    size_t guard_count = 4;   // first `guard_count` relays are guards
    size_t exit_count = 4;    // last `exit_count` relays are exits
  };

  explicit TorNetwork(Simulation& sim) : TorNetwork(sim, Config{}) {}
  TorNetwork(Simulation& sim, Config config);

  const std::vector<TorRelayInfo>& relays() const { return infos_; }
  std::vector<size_t> GuardIndices() const;
  std::vector<size_t> ExitIndices() const;
  Link* RelayAccessLink(size_t index) const { return access_links_[index]; }
  Result<size_t> IndexOfRelay(const std::string& nickname) const;
  // nymlint:allow(dead-api): tests check the directory authority is reachable on the Internet
  Ipv4Address directory_ip() const { return directory_ip_; }
  TorRelay& relay(size_t index) { return *relays_[index]; }

  // Fault injection: a crashed relay vanishes from the network (packets to
  // it drop as if the host never existed, its access link goes down so
  // flows through it stall) until RestartRelay. Crash/restart order and
  // timing come from the experiment's FaultInjector schedule, so they are
  // seeded and replayable.
  void CrashRelay(size_t index);
  void RestartRelay(size_t index);
  bool RelayUp(size_t index) const;

 private:
  // The directory authority serves consensus documents; modeled as flows,
  // so the host only needs to exist and be routable.
  class DirectoryServer : public InternetHost {
   public:
    void OnDatagram(const Packet& packet, const std::function<void(Packet)>& reply) override {
      (void)packet;
      (void)reply;
    }
  };

  Simulation& sim_;
  Config config_;
  std::vector<std::unique_ptr<TorRelay>> relays_;
  std::vector<TorRelayInfo> infos_;
  std::vector<Link*> access_links_;
  DirectoryServer directory_;
  Ipv4Address directory_ip_;
};

class TorClient : public Anonymizer {
 public:
  // `exit_pin_seed` is the leak plant (src/adversary): when set,
  // per-destination exit selection is derived from
  // Mix64(*exit_pin_seed ^ Fnv1a64(host)) instead of this client's private
  // prng stream — so every nym sharing the pin seed lands on the SAME exit
  // for the same destination, the "reused circuit" isolation failure the
  // adversary suite must catch. Never set on the clean path; nullopt draws
  // from prng_ exactly as before, consuming identical Prng state.
  TorClient(ClientAttachment attachment, TorNetwork& network, uint64_t seed,
            std::optional<uint64_t> exit_pin_seed = std::nullopt);
  ~TorClient() override;

  AnonymizerKind kind() const override { return AnonymizerKind::kTor; }
  std::string_view Name() const override { return "Tor"; }
  void Start(std::function<void(Result<SimTime>)> ready) override;
  bool ready() const override { return circuit_ready_; }
  void Fetch(const std::string& host, uint64_t request_bytes, uint64_t response_bytes,
             std::function<void(Result<FetchReceipt>)> done) override;
  double OverheadFactor() const override;
  bool ProtectsNetworkIdentity() const override { return true; }
  Status SaveState(MemFs& fs) const override;
  Status RestoreState(const MemFs& fs) override;
  void HandlePacket(const Packet& packet) override;

  // §3.5: derive the guard choice from H(storage location || password) so a
  // restored nym — and even the ephemeral nym that downloads it — lands on
  // the same guard. Must be called before Start().
  void SeedGuardSelection(uint64_t seed);

  // Drops the current circuit and builds a fresh one (Tor's NEWNYM). An
  // in-flight build is cancelled cleanly: its pending ready callback fires
  // kCancelled before the new build starts (never silently dropped).
  // nymlint:allow(dead-api): Tor NEWNYM; tests pin that superseding an in-flight build cancels it exactly once
  void NewIdentity(std::function<void(Result<SimTime>)> ready);

  std::optional<size_t> entry_guard_index() const { return guard_index_; }
  std::optional<size_t> exit_index() const { return exit_index_; }
  // nymlint:allow(dead-api): tests count circuit builds across bootstrap and NEWNYM
  int circuits_built() const { return circuits_built_; }
  // nymlint:allow(dead-api): tests check a client restored from saved state has the consensus cached
  bool has_cached_consensus() const { return has_cached_consensus_; }
  // nymlint:allow(dead-api): tests check a crashed guard is marked failed and not reused
  const std::set<size_t>& failed_guards() const { return failed_guards_; }

  // Stream isolation (IsolateDestAddr): each destination gets its own
  // exit, so two sites visited through the same nym cannot be linked by a
  // shared exit address. The guard stays fixed (§3.5).
  size_t ExitIndexForDestination(const std::string& host);
  // nymlint:allow(dead-api): tests check stream isolation binds one exit per destination
  size_t isolated_destinations() const { return exit_by_destination_.size(); }

 private:
  void DownloadDirectory(std::function<void(Status)> then);
  void ChooseGuardIfNeeded();
  void BuildCircuit(std::function<void(Result<SimTime>)> ready);
  // One seeded attempt of the current build; retried with backoff on
  // timeout until the retry budget is spent.
  void StartBuildAttempt();
  void OnBuildAttemptFailure(Status status);
  // Fails over the entry guard: mark it dead and re-derive the next one
  // (same seed for seeded clients — §3.5 persistence).
  void MarkGuardFailed();
  // Fires the pending ready callback (if any) with `status` and
  // invalidates every outstanding build event (timeout, retry).
  void CancelPendingBuild(Status status);
  void SendCircuitCell(int step);
  Route RouteThroughCircuit(Ipv4Address destination, size_t exit_index) const;
  // Trace track for this client's spans: the uplink name minus "-uplink",
  // which is the owning nym/VM name, so Tor spans nest under its lifecycle.
  std::string TraceTrack() const;

  ClientAttachment attachment_;
  TorNetwork& network_;
  std::optional<uint64_t> exit_pin_seed_;
  uint64_t seed_;
  Prng prng_;
  // Lifetime token for deferred work. The client schedules events on the
  // simulation-owned loop (circuit timeouts, backoff retries, bootstrap
  // processing) and hands callbacks to the flow scheduler; a nym crash
  // (§3.4 wipe) destroys the client while those are still pending. Every
  // such lambda captures a weak_ptr to this token and evaporates if the
  // client is gone — it must not touch freed state or complete into the
  // equally-dead browser.
  std::shared_ptr<char> alive_ = std::make_shared<char>(0);

  bool has_cached_consensus_ = false;
  bool circuit_ready_ = false;
  std::optional<size_t> guard_index_;
  std::optional<size_t> middle_index_;
  std::optional<size_t> exit_index_;
  std::optional<uint64_t> guard_seed_;
  SimTime guard_chosen_at_ = 0;
  int circuits_built_ = 0;

  // Guard failover state.
  std::set<size_t> failed_guards_;
  int consecutive_guard_failures_ = 0;

  // In-progress circuit build. The generation counter invalidates stale
  // timeout/retry events after a build is superseded (NewIdentity) or
  // completes; OnceCallback guarantees the ready callback fires once.
  SimTime circuit_build_started_ = 0;
  int pending_step_ = 0;
  uint32_t circuit_id_ = 0;
  uint64_t build_generation_ = 0;
  uint64_t timeout_event_ = 0;
  bool has_timeout_event_ = false;
  Backoff circuit_backoff_;
  OnceCallback<Result<SimTime>> on_circuit_ready_;
  Port next_port_ = 40000;
  std::map<std::string, size_t> exit_by_destination_;  // stream isolation
};

}  // namespace nymix

#endif  // SRC_ANON_TOR_H_
