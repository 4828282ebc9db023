#include "src/anon/tor.h"

#include <cstdlib>
#include <string_view>

#include "src/util/prng.h"

namespace nymix {
namespace {

// The deployed relays: 100 Mbit/s access links 5 ms from the core, and
// 30 ms of crypto processing per cell.
constexpr uint64_t kRelayBandwidthBps = 100'000'000;
constexpr SimDuration kRelayLinkLatency = Millis(5);
constexpr SimDuration kRelayCryptoDelay = Millis(30);

// Fresh bootstrap: network consensus + relay descriptors.
constexpr uint64_t kConsensusBytes = 2 * kMiB;
constexpr uint64_t kDescriptorsBytes = 6 * kMiB;
// Warm bootstrap with cached state: differential refresh only.
constexpr uint64_t kRefreshBytes = 256 * kKiB;
// Client-side processing time folded into bootstrap (parse, verify).
constexpr SimDuration kBootstrapProcessing = SecondsF(2.0);
constexpr int kCircuitHops = 3;
// 512-byte cells carrying 498 payload bytes, ~3% TLS/TCP framing per hop.
constexpr double kCellOverhead = (512.0 / 498.0) * 1.03 * 1.03 * 1.03;
// Entry-guard rotation period: "Tor normally maintains the same entry
// relay for several months — and may increase this period further
// [14, 20]" (§3.5). Persisted guards older than this are re-drawn.
constexpr SimDuration kGuardLifetime = Seconds(90LL * 24 * 3600);  // ~3 months

// --- Robustness (fault injection / recovery) ------------------------------
// A circuit-build attempt that has not completed within this window is
// failed and retried with backoff (real Tor's CircuitBuildTimeout).
constexpr SimDuration kCircuitBuildTimeout = Seconds(10);
// Circuit, directory and fetch retries: 500 ms, x2, 4 attempts.
constexpr BackoffPolicy kRetry{};
// Consecutive failed build attempts before the entry guard is marked
// dead and the next one is derived (seeded clients re-derive from the
// same seed, preserving the §3.5 persistence argument).
constexpr int kGuardFailureThreshold = 2;
// Directory and fetch flows fail after stalling this long at rate 0.
constexpr SimDuration kDirectoryStallTimeout = Seconds(60);
constexpr SimDuration kFetchStallTimeout = Seconds(30);

}  // namespace

// ------------------------------------------------------------------ relays

TorRelay::TorRelay(EventLoop& loop, std::string nickname)
    : loop_(loop), nickname_(std::move(nickname)) {}

void TorRelay::OnDatagram(const Packet& packet, const std::function<void(Packet)>& reply) {
  sources_seen_.insert(packet.src_ip);
  std::string text = StringFromBytes(packet.payload);

  // Onion layer present? Peel it and forward the inner cell to the next
  // hop; our answer to the requester is whatever comes back.
  size_t fwd = text.find(" fwd=");
  if (fwd != std::string::npos && internet_ != nullptr) {
    size_t ip_start = fwd + 5;
    size_t ip_end = text.find(' ', ip_start);
    std::string next_hop_text =
        text.substr(ip_start, ip_end == std::string::npos ? std::string::npos
                                                          : ip_end - ip_start);
    std::string inner_text =
        text.substr(0, fwd) + (ip_end == std::string::npos ? "" : text.substr(ip_end));
    auto next_hop = ParseIpv4(next_hop_text);
    if (next_hop.ok()) {
      ++cells_forwarded_;
      Packet inner;
      inner.dst_ip = *next_hop;
      inner.dst_port = 9001;
      inner.protocol = IpProtocol::kTcp;
      inner.payload = BytesFromString(inner_text);
      inner.annotation = "Tor";
      Packet request = packet;  // addressing for the eventual answer
      loop_.ScheduleAfter(kRelayCryptoDelay, [this, inner = std::move(inner),
                                          request = std::move(request), reply]() mutable {
        internet_->SendBetweenHosts(
            self_ip_, std::move(inner), [request, reply](Packet answer) {
              Packet response;
              response.src_ip = request.dst_ip;
              response.src_port = request.dst_port;
              response.dst_ip = request.src_ip;
              response.dst_port = request.src_port;
              response.protocol = IpProtocol::kTcp;
              response.payload = answer.payload;
              response.annotation = "Tor";
              reply(std::move(response));
            });
      });
      return;
    }
  }

  // Terminal hop: acknowledge the cell.
  Packet response;
  response.src_ip = packet.dst_ip;
  response.src_port = packet.dst_port;
  response.dst_ip = packet.src_ip;
  response.dst_port = packet.src_port;
  response.protocol = IpProtocol::kTcp;
  response.payload = BytesFromString("ACK " + text);
  response.annotation = "Tor";
  loop_.ScheduleAfter(kRelayCryptoDelay, [reply, response = std::move(response)]() mutable {
    reply(std::move(response));
  });
}

// ------------------------------------------------------------------ network

TorNetwork::TorNetwork(Simulation& sim, Config config) : sim_(sim), config_(config) {
  NYMIX_CHECK(config_.guard_count + config_.exit_count <= config_.relay_count);
  for (size_t i = 0; i < config_.relay_count; ++i) {
    std::string nickname = "relay" + std::to_string(i);
    relays_.push_back(
        std::make_unique<TorRelay>(sim.loop(), nickname));
    Link* access = sim.CreateLink("tor-" + nickname, kRelayLinkLatency, kRelayBandwidthBps);
    Ipv4Address ip = sim.internet().RegisterHost(nickname + ".tor.net", relays_.back().get(),
                                                 access);
    relays_.back()->AttachToInternet(&sim.internet(), ip);
    access_links_.push_back(access);
    TorRelayInfo info;
    info.nickname = nickname;
    info.ip = ip;
    info.is_guard = i < config_.guard_count;
    info.is_exit = i >= config_.relay_count - config_.exit_count;
    infos_.push_back(info);
  }
  directory_ip_ = sim.internet().RegisterHost("dirauth.tor.net", &directory_);
}

std::vector<size_t> TorNetwork::GuardIndices() const {
  std::vector<size_t> out;
  for (size_t i = 0; i < infos_.size(); ++i) {
    if (infos_[i].is_guard) {
      out.push_back(i);
    }
  }
  return out;
}

std::vector<size_t> TorNetwork::ExitIndices() const {
  std::vector<size_t> out;
  for (size_t i = 0; i < infos_.size(); ++i) {
    if (infos_[i].is_exit) {
      out.push_back(i);
    }
  }
  return out;
}

Result<size_t> TorNetwork::IndexOfRelay(const std::string& nickname) const {
  for (size_t i = 0; i < infos_.size(); ++i) {
    if (infos_[i].nickname == nickname) {
      return i;
    }
  }
  return NotFoundError("no such relay: " + nickname);
}

void TorNetwork::CrashRelay(size_t index) {
  NYMIX_CHECK(index < infos_.size());
  sim_.internet().SetHostUp(infos_[index].ip, false);
  access_links_[index]->SetDown(true);
  if (MetricsRegistry* meters = sim_.loop().meters()) {
    meters->GetCounter("anon.tor.relay_crashes")->Increment();
  }
  if (TraceRecorder* tracer = sim_.loop().tracer()) {
    tracer->AddInstant("fault", "relay_crash:" + infos_[index].nickname, "faults",
                       sim_.now());
  }
}

void TorNetwork::RestartRelay(size_t index) {
  NYMIX_CHECK(index < infos_.size());
  sim_.internet().SetHostUp(infos_[index].ip, true);
  access_links_[index]->SetDown(false);
  if (MetricsRegistry* meters = sim_.loop().meters()) {
    meters->GetCounter("anon.tor.relay_restarts")->Increment();
  }
  if (TraceRecorder* tracer = sim_.loop().tracer()) {
    tracer->AddInstant("fault", "relay_restart:" + infos_[index].nickname, "faults",
                       sim_.now());
  }
}

bool TorNetwork::RelayUp(size_t index) const {
  NYMIX_CHECK(index < infos_.size());
  return sim_.internet().HostUp(infos_[index].ip);
}

// ------------------------------------------------------------------ client

TorClient::TorClient(ClientAttachment attachment, TorNetwork& network, uint64_t seed,
                     std::optional<uint64_t> exit_pin_seed)
    : attachment_(attachment),
      network_(network),
      exit_pin_seed_(exit_pin_seed),
      seed_(seed),
      prng_(seed),
      // Retry/jitter streams are derived statelessly from the seed so they
      // never perturb prng_'s draw sequence (guard/relay choices must stay
      // byte-compatible with fault-free runs).
      circuit_backoff_(kRetry, Mix64(seed ^ Fnv1a64("tor.circuit.backoff"))) {
  NYMIX_CHECK(attachment_.sim != nullptr);
  NYMIX_CHECK(attachment_.vm_uplink != nullptr);
}

double TorClient::OverheadFactor() const { return kCellOverhead; }

TorClient::~TorClient() {
  // Owner teardown: a build pending at destruction must not complete — the
  // ready callback belongs to the nym being destroyed right now, and the
  // drop-status fire from the OnceCallback destructor would run it
  // mid-teardown.
  on_circuit_ready_.Dismiss();
}

std::string TorClient::TraceTrack() const {
  std::string track = attachment_.vm_uplink->name();
  constexpr std::string_view kSuffix = "-uplink";
  if (track.size() > kSuffix.size() &&
      track.compare(track.size() - kSuffix.size(), kSuffix.size(), kSuffix) == 0) {
    track.resize(track.size() - kSuffix.size());
  }
  return track;
}

void TorClient::SeedGuardSelection(uint64_t seed) {
  NYMIX_CHECK_MSG(!guard_index_.has_value(), "guard already chosen");
  guard_seed_ = seed;
}

void TorClient::ChooseGuardIfNeeded() {
  // Rotate out a guard past its lifetime ([14, 20]); a seeded choice is
  // location-derived and therefore stable.
  if (guard_index_.has_value() && !guard_seed_.has_value() &&
      attachment_.sim->now() - guard_chosen_at_ > kGuardLifetime) {
    guard_index_.reset();
  }
  MetricsRegistry* meters = attachment_.sim->loop().meters();
  if (guard_index_.has_value()) {
    if (meters != nullptr) {
      meters->GetCounter("anon.tor.guard_reused")->Increment();
    }
    return;
  }
  std::vector<size_t> guards = network_.GuardIndices();
  NYMIX_CHECK(!guards.empty());
  if (guard_seed_.has_value()) {
    // k=0 is the original hash-of-location choice (§3.5); each failover
    // re-derives the k-th candidate from the same seed, skipping guards
    // marked dead — so two same-seed clients fail over identically, and
    // the persistence argument survives guard crashes. Bounded scan: if
    // every guard has failed, the final candidate is accepted anyway
    // (deterministic desperation beats no guard at all).
    size_t pick = guards[*guard_seed_ % guards.size()];
    for (uint64_t k = 1;
         failed_guards_.find(pick) != failed_guards_.end() && k <= guards.size() * 4; ++k) {
      pick = guards[Mix64(*guard_seed_ + k) % guards.size()];
    }
    guard_index_ = pick;
  } else {
    std::vector<size_t> alive;
    for (size_t g : guards) {
      if (failed_guards_.find(g) == failed_guards_.end()) {
        alive.push_back(g);
      }
    }
    const std::vector<size_t>& pool = alive.empty() ? guards : alive;
    guard_index_ = pool[prng_.NextBelow(pool.size())];
  }
  guard_chosen_at_ = attachment_.sim->now();
  if (meters != nullptr) {
    meters->GetCounter("anon.tor.guard_chosen")->Increment();
  }
}

void TorClient::DownloadDirectory(std::function<void(Status)> then) {
  SimTime started = attachment_.sim->now();
  std::weak_ptr<char> alive = alive_;
  RetryWithBackoff(
      attachment_.sim->loop(), kRetry,
      Mix64(seed_ ^ Fnv1a64("tor.directory.backoff")), "tor.directory",
      [this, alive](std::function<void(Status)> finish) {
        if (alive.expired()) {
          return;  // client torn down; dropping finish cancels the retry run
        }
        uint64_t bytes =
            has_cached_consensus_ ? kRefreshBytes : kConsensusBytes + kDescriptorsBytes;
        if (MetricsRegistry* meters = attachment_.sim->loop().meters()) {
          meters->GetCounter("anon.tor.directory_bytes")->Increment(bytes);
        }
        Route route = Route::Through(attachment_.client_links);
        attachment_.sim->flows().StartFlow(
            route, bytes, 1.0, kDirectoryStallTimeout,
            [finish = std::move(finish)](Result<SimTime> finished) {
              finish(finished.ok() ? OkStatus() : finished.status());
            });
      },
      [this, alive, started, then = std::move(then)](Status status) {
        if (alive.expired()) {
          return;  // client torn down while retries drained
        }
        if (!status.ok()) {
          then(std::move(status));
          return;
        }
        has_cached_consensus_ = true;
        attachment_.sim->loop().ScheduleAfter(kBootstrapProcessing,
                                              [this, alive, started, then] {
                                                if (alive.expired()) {
                                                  return;
                                                }
                                                if (TraceRecorder* tracer =
                                                        attachment_.sim->loop().tracer()) {
                                                  tracer->AddComplete(
                                                      "anon", "tor_directory", TraceTrack(),
                                                      started, attachment_.sim->now() - started);
                                                }
                                                then(OkStatus());
                                              });
      });
}

void TorClient::Start(std::function<void(Result<SimTime>)> ready) {
  // The guard makes dropping the bootstrap completion impossible: any path
  // that loses the callback delivers kCancelled instead.
  auto once = OnceCallback<Result<SimTime>>(std::move(ready));
  DownloadDirectory([this, once](Status status) mutable {
    if (!status.ok()) {
      once(Status(StatusCode::kUnavailable,
                  "Tor bootstrap failed: " + status.ToString()));
      return;
    }
    ChooseGuardIfNeeded();
    BuildCircuit([once](Result<SimTime> built) mutable { once(std::move(built)); });
  });
}

void TorClient::NewIdentity(std::function<void(Result<SimTime>)> ready) {
  NYMIX_CHECK_MSG(has_cached_consensus_, "NewIdentity before bootstrap");
  circuit_ready_ = false;
  exit_by_destination_.clear();  // fresh identity: drop all stream bindings
  BuildCircuit(std::move(ready));
}

void TorClient::CancelPendingBuild(Status status) {
  // Invalidate the attempt in flight: stale replies no longer match
  // (pending_step_ 0), and the timeout/retry events see a newer generation.
  pending_step_ = 0;
  ++build_generation_;
  if (has_timeout_event_) {
    attachment_.sim->loop().Cancel(timeout_event_);
    has_timeout_event_ = false;
  }
  if (on_circuit_ready_) {
    auto callback = std::move(on_circuit_ready_);
    on_circuit_ready_ = OnceCallback<Result<SimTime>>();
    if (MetricsRegistry* meters = attachment_.sim->loop().meters()) {
      meters->GetCounter("anon.tor.builds_cancelled")->Increment();
    }
    callback(std::move(status));
  }
}

void TorClient::BuildCircuit(std::function<void(Result<SimTime>)> ready) {
  // A build superseding an in-flight one (NewIdentity mid-build) cancels
  // the old one cleanly — its callback fires kCancelled, never races the
  // new build's completion and is never silently dropped.
  CancelPendingBuild(CancelledError("circuit build superseded"));
  on_circuit_ready_ = OnceCallback<Result<SimTime>>(std::move(ready));
  circuit_backoff_.Reset();
  StartBuildAttempt();
}

void TorClient::StartBuildAttempt() {
  ChooseGuardIfNeeded();
  // Middle: any relay that is neither the guard nor exit-flagged; exit: any
  // exit relay other than guard/middle.
  std::vector<size_t> exits = network_.ExitIndices();
  NYMIX_CHECK(!exits.empty());
  do {
    exit_index_ = exits[prng_.NextBelow(exits.size())];
  } while (exits.size() > 1 && *exit_index_ == *guard_index_);
  const auto& relays = network_.relays();
  std::vector<size_t> middles;
  for (size_t i = 0; i < relays.size(); ++i) {
    if (i != *guard_index_ && i != *exit_index_) {
      middles.push_back(i);
    }
  }
  NYMIX_CHECK(!middles.empty());
  middle_index_ = middles[prng_.NextBelow(middles.size())];

  circuit_id_ = static_cast<uint32_t>(prng_.NextU64());
  circuit_build_started_ = attachment_.sim->now();
  pending_step_ = 1;
  ++build_generation_;
  const uint64_t generation = build_generation_;
  timeout_event_ = attachment_.sim->loop().ScheduleAfter(
      kCircuitBuildTimeout, [this, alive = std::weak_ptr<char>(alive_), generation] {
        if (alive.expired()) {
          return;  // client torn down with the timeout still queued
        }
        if (generation != build_generation_ || pending_step_ == 0) {
          return;  // attempt already finished or was superseded
        }
        has_timeout_event_ = false;
        if (MetricsRegistry* meters = attachment_.sim->loop().meters()) {
          meters->GetCounter("anon.tor.circuit_timeouts")->Increment();
        }
        OnBuildAttemptFailure(DeadlineExceededError("circuit build timed out at step " +
                                                    std::to_string(pending_step_)));
      });
  has_timeout_event_ = true;
  SendCircuitCell(pending_step_);
}

void TorClient::MarkGuardFailed() {
  if (!guard_index_.has_value()) {
    return;
  }
  failed_guards_.insert(*guard_index_);
  if (MetricsRegistry* meters = attachment_.sim->loop().meters()) {
    meters->GetCounter("anon.tor.guard_failover")->Increment();
  }
  if (TraceRecorder* tracer = attachment_.sim->loop().tracer()) {
    tracer->AddInstant("fault",
                       "guard_failover:" + network_.relays()[*guard_index_].nickname,
                       TraceTrack(), attachment_.sim->now());
  }
  guard_index_.reset();
  consecutive_guard_failures_ = 0;
}

void TorClient::OnBuildAttemptFailure(Status status) {
  pending_step_ = 0;
  if (has_timeout_event_) {
    attachment_.sim->loop().Cancel(timeout_event_);
    has_timeout_event_ = false;
  }
  if (MetricsRegistry* meters = attachment_.sim->loop().meters()) {
    meters->GetCounter("anon.tor.circuit_build_failures")->Increment();
  }
  ++consecutive_guard_failures_;
  if (consecutive_guard_failures_ >= kGuardFailureThreshold) {
    // The common cause of repeated timeouts is a dead entry guard (every
    // cell physically goes through it); fail over before retrying.
    MarkGuardFailed();
  }
  Result<SimDuration> delay = circuit_backoff_.NextDelay();
  if (!delay.ok()) {
    if (MetricsRegistry* meters = attachment_.sim->loop().meters()) {
      meters->GetCounter("anon.tor.circuits_abandoned")->Increment();
    }
    if (on_circuit_ready_) {
      auto callback = std::move(on_circuit_ready_);
      on_circuit_ready_ = OnceCallback<Result<SimTime>>();
      callback(circuit_backoff_.Exhausted("circuit build abandoned", status));
    }
    return;
  }
  if (MetricsRegistry* meters = attachment_.sim->loop().meters()) {
    meters->GetCounter("anon.tor.circuit_retries")->Increment();
  }
  if (TraceRecorder* tracer = attachment_.sim->loop().tracer()) {
    tracer->AddInstant("retry", "circuit_retry", TraceTrack(), attachment_.sim->now());
  }
  const uint64_t generation = build_generation_;
  attachment_.sim->loop().ScheduleAfter(
      *delay, [this, alive = std::weak_ptr<char>(alive_), generation] {
        if (alive.expired()) {
          return;  // client torn down while waiting out the backoff
        }
        if (generation != build_generation_) {
          return;  // superseded while waiting out the backoff
        }
        StartBuildAttempt();
      });
}

void TorClient::SendCircuitCell(int step) {
  // All circuit cells physically go to the entry guard. EXTEND cells are
  // onion-wrapped: each " fwd=<ip>" layer tells one relay where to forward
  // the (to it, opaque) inner cell, so the middle relay hears only from
  // the guard and the exit only from the middle.
  const TorRelayInfo& guard = network_.relays()[*guard_index_];
  Packet cell;
  cell.src_ip = kGuestCommVmIp;
  cell.src_port = next_port_++;
  cell.dst_ip = guard.ip;
  cell.dst_port = 9001;
  cell.protocol = IpProtocol::kTcp;
  std::string verb = step == 1 ? "CREATE2" : "EXTEND2";
  std::string payload = verb + " circ=" + std::to_string(circuit_id_) +
                        " step=" + std::to_string(step);
  if (step >= 2) {
    payload += " fwd=" + network_.relays()[*middle_index_].ip.ToString();
  }
  if (step >= 3) {
    payload += " fwd=" + network_.relays()[*exit_index_].ip.ToString();
  }
  cell.payload = BytesFromString(payload);
  cell.annotation = "Tor";
  if (MetricsRegistry* meters = attachment_.sim->loop().meters()) {
    meters->GetCounter("anon.tor.circuit_cells")->Increment();
  }
  attachment_.vm_uplink->SendFromA(std::move(cell));
}

void TorClient::HandlePacket(const Packet& packet) {
  std::string text = StringFromBytes(packet.payload);
  std::string expect = " circ=" + std::to_string(circuit_id_) +
                       " step=" + std::to_string(pending_step_);
  if (pending_step_ == 0 || text.find(expect) == std::string::npos) {
    return;  // stale or unrelated cell
  }
  if (pending_step_ < kCircuitHops) {
    ++pending_step_;
    SendCircuitCell(pending_step_);
    return;
  }
  pending_step_ = 0;
  if (has_timeout_event_) {
    attachment_.sim->loop().Cancel(timeout_event_);
    has_timeout_event_ = false;
  }
  consecutive_guard_failures_ = 0;
  circuit_ready_ = true;
  ++circuits_built_;
  if (TraceRecorder* tracer = attachment_.sim->loop().tracer()) {
    tracer->AddComplete("anon", "build_circuit", TraceTrack(), circuit_build_started_,
                        attachment_.sim->now() - circuit_build_started_);
  }
  if (MetricsRegistry* meters = attachment_.sim->loop().meters()) {
    meters->GetCounter("anon.tor.circuits_built")->Increment();
    meters->GetHistogram("anon.tor.circuit_build_us")
        ->Record(static_cast<double>(attachment_.sim->now() - circuit_build_started_));
  }
  if (on_circuit_ready_) {
    auto callback = std::move(on_circuit_ready_);
    on_circuit_ready_ = OnceCallback<Result<SimTime>>();
    callback(attachment_.sim->now());
  }
}

size_t TorClient::ExitIndexForDestination(const std::string& host) {
  auto it = exit_by_destination_.find(host);
  if (it != exit_by_destination_.end()) {
    return it->second;
  }
  std::vector<size_t> exits = network_.ExitIndices();
  // Prefer exits that are currently up (a crashed relay should not get new
  // streams); with nothing up, fall back to the full set so the choice —
  // and the prng_ draw count — stays deterministic.
  std::vector<size_t> alive;
  for (size_t e : exits) {
    if (network_.RelayUp(e)) {
      alive.push_back(e);
    }
  }
  const std::vector<size_t>& pool = alive.empty() ? exits : alive;
  size_t exit;
  if (exit_pin_seed_.has_value()) {
    // Planted circuit reuse: the exit is a pure function of (pin seed,
    // destination), shared by every client carrying the same pin. No prng_
    // draw happens on this branch — the plant must not perturb any other
    // seeded decision this client makes.
    exit = pool[Mix64(*exit_pin_seed_ ^ Fnv1a64(host)) % pool.size()];
  } else {
    exit = pool[prng_.NextBelow(pool.size())];
  }
  exit_by_destination_.emplace(host, exit);
  return exit;
}

Route TorClient::RouteThroughCircuit(Ipv4Address destination, size_t exit_index) const {
  std::vector<Link*> links = attachment_.client_links;
  links.push_back(network_.RelayAccessLink(*guard_index_));
  links.push_back(network_.RelayAccessLink(*middle_index_));
  links.push_back(network_.RelayAccessLink(exit_index));
  if (Link* dest_access = attachment_.sim->internet().AccessLink(destination)) {
    links.push_back(dest_access);
  }
  return Route::Through(std::move(links));
}

void TorClient::Fetch(const std::string& host, uint64_t request_bytes, uint64_t response_bytes,
                      std::function<void(Result<FetchReceipt>)> done) {
  auto once = OnceCallback<Result<FetchReceipt>>(std::move(done));
  if (!circuit_ready_) {
    once(FailedPreconditionError("Tor circuit not ready"));
    return;
  }
  // DNS happens at the exit (§4.1: "Tor has a built-in DNS server").
  auto resolved = attachment_.sim->internet().Resolve(host);
  if (!resolved.ok()) {
    once(resolved.status());
    return;
  }
  // Retries respect stream isolation: the exit is always the destination's
  // bound exit; a failed attempt drops that binding so the retry re-rolls a
  // fresh (but still per-destination) exit. Other destinations' bindings —
  // and the entry guard — are untouched.
  auto receipt = std::make_shared<FetchReceipt>();
  const Ipv4Address destination = *resolved;
  std::weak_ptr<char> alive = alive_;
  RetryWithBackoff(
      attachment_.sim->loop(), kRetry,
      Mix64(seed_ ^ Fnv1a64("tor.fetch.backoff") ^ Fnv1a64(host)), "tor.fetch",
      [this, alive, host, destination, request_bytes, response_bytes,
       receipt](std::function<void(Status)> finish) {
        if (alive.expired()) {
          return;  // client torn down; dropping finish cancels the retry run
        }
        size_t exit_index = ExitIndexForDestination(host);
        Ipv4Address exit_ip = network_.relays()[exit_index].ip;
        Route route = RouteThroughCircuit(destination, exit_index);
        attachment_.sim->flows().StartFlow(
            route, request_bytes + response_bytes, kCellOverhead, kFetchStallTimeout,
            [this, alive, host, exit_ip, receipt,
             finish = std::move(finish)](Result<SimTime> t) {
              if (alive.expired()) {
                return;  // flow outlived the client (nym crash mid-fetch)
              }
              if (!t.ok()) {
                exit_by_destination_.erase(host);
                if (MetricsRegistry* meters = attachment_.sim->loop().meters()) {
                  meters->GetCounter("anon.tor.fetch_attempt_failures")->Increment();
                }
                finish(t.status());
                return;
              }
              *receipt = FetchReceipt{*t, exit_ip};
              finish(OkStatus());
            });
      },
      [alive, once, receipt](Status status) mutable {
        if (alive.expired()) {
          // The caller's completion belongs to the same dead nym (browser
          // and client are torn down together); Dismiss so neither a late
          // fire nor the drop-status path runs it.
          once.Dismiss();
          return;
        }
        if (!status.ok()) {
          once(std::move(status));
          return;
        }
        once(*receipt);
      });
}

Status TorClient::SaveState(MemFs& fs) const {
  std::string state;
  if (guard_index_.has_value()) {
    state += "guard=" + network_.relays()[*guard_index_].nickname + "\n";
    state += "guard-since=" + std::to_string(guard_chosen_at_) + "\n";
  }
  if (has_cached_consensus_) {
    state += "consensus-cached=1\n";
    // The cached consensus + microdescriptors are the bulk of persisted
    // CommVM state (the ~15% non-AnonVM share of a nym archive, §5.3).
    NYMIX_RETURN_IF_ERROR(fs.WriteFile(
        "/var/lib/tor/cached-microdescs",
        Blob::Synthetic(kConsensusBytes + kDescriptorsBytes,
                        Fnv1a64("cached-microdescs"), 0.55)));
  }
  return fs.WriteFile("/var/lib/tor/state", Blob::FromString(state));
}

Status TorClient::RestoreState(const MemFs& fs) {
  auto blob = fs.ReadFile("/var/lib/tor/state");
  if (!blob.ok()) {
    return blob.status();
  }
  std::string text = StringFromBytes(blob->Materialize());
  size_t guard_pos = text.find("guard=");
  if (guard_pos != std::string::npos) {
    size_t end = text.find('\n', guard_pos);
    std::string nickname = text.substr(guard_pos + 6, end - guard_pos - 6);
    NYMIX_ASSIGN_OR_RETURN(size_t index, network_.IndexOfRelay(nickname));
    guard_index_ = index;
    size_t since_pos = text.find("guard-since=");
    if (since_pos != std::string::npos) {
      guard_chosen_at_ = std::atoll(text.c_str() + since_pos + 12);
    }
  }
  if (text.find("consensus-cached=1") != std::string::npos) {
    has_cached_consensus_ = true;
  }
  return OkStatus();
}

}  // namespace nymix
