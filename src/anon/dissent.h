// Dissent model (§4.1): anonymous group communication in the anytrust
// model. A small set of servers runs DC-net rounds for a client group;
// every client transmits a fixed-size ciphertext per round whether or not
// it has data ("experimentally supports anonymous browsing via Dissent ...
// in principle offers formally provable traffic analysis resistance ...
// but is less mature and currently less scalable than Tor").
//
// Cost model: the group's aggregate DC-net throughput is the server
// bandwidth divided by the group size (every slot byte is covered by a
// same-size ciphertext from each member), surfaced as a shared group link;
// ciphertext expansion appears as a 2x per-byte overhead, and round
// batching as the group link's latency.
#ifndef SRC_ANON_DISSENT_H_
#define SRC_ANON_DISSENT_H_

#include <optional>

#include "src/anon/anonymizer.h"
#include "src/anon/dcnet.h"

namespace nymix {

// Clients sharing the DC-net.
inline constexpr size_t kDissentGroupSize = 16;
// Round batching: the group link's latency, and one round of wall-clock
// delay per anonymous post.
inline constexpr SimDuration kDissentRoundInterval = Millis(500);

// The anytrust server set (one honest server suffices).
class DissentServers {
 public:
  explicit DissentServers(Simulation& sim);

  Link* group_link() const { return group_link_; }
  Ipv4Address front_ip() const { return front_ip_; }
  Simulation& sim() { return sim_; }

  // Deterministic slot permutation for a joining client (models the
  // verifiable shuffle's output order).
  size_t AssignSlot(uint64_t client_nonce);

  size_t members_joined() const { return members_joined_; }

  // The group's live DC-net engine (real XOR rounds; see dcnet.h).
  DcNetGroup& dcnet() { return *dcnet_; }
  uint64_t NextRoundNumber() { return next_round_++; }

 private:
  class FrontServer : public InternetHost {
   public:
    explicit FrontServer(EventLoop& loop) : loop_(loop) {}
    void OnDatagram(const Packet& packet, const std::function<void(Packet)>& reply) override;

   private:
    EventLoop& loop_;
  };

  Simulation& sim_;
  FrontServer front_;
  Ipv4Address front_ip_;
  Link* group_link_;
  size_t members_joined_ = 0;
  std::unique_ptr<DcNetGroup> dcnet_;
  uint64_t next_round_ = 1;
};

class DissentClient : public Anonymizer {
 public:
  DissentClient(ClientAttachment attachment, DissentServers& servers, uint64_t seed);

  AnonymizerKind kind() const override { return AnonymizerKind::kDissent; }
  std::string_view Name() const override { return "Dissent"; }
  void Start(std::function<void(Result<SimTime>)> ready) override;
  bool ready() const override { return joined_; }
  void Fetch(const std::string& host, uint64_t request_bytes, uint64_t response_bytes,
             std::function<void(Result<FetchReceipt>)> done) override;
  // DC-net ciphertext expansion.
  double OverheadFactor() const override { return 2.0; }
  bool ProtectsNetworkIdentity() const override { return true; }
  void HandlePacket(const Packet& packet) override;

  // Posts a small message through one REAL DC-net round: the other group
  // members transmit cover ciphertexts, the round is combined, and `done`
  // receives this member's slot payload as recovered from the mix —
  // exercising actual sender-anonymous transmission, not just its cost.
  void PostAnonymousMessage(ByteSpan message, std::function<void(Result<Bytes>)> done);

  std::optional<size_t> member_index() const { return member_index_; }
  std::optional<size_t> slot() const { return slot_; }
  // Rounds consumed by completed fetches (each round moves one slot's worth
  // of payload through the group link).
  // nymlint:allow(dead-api): tests check that a Dissent post consumed protocol rounds
  uint64_t rounds_used() const { return *rounds_used_; }

 private:
  ClientAttachment attachment_;
  DissentServers& servers_;
  Prng prng_;
  bool joined_ = false;
  std::optional<size_t> member_index_;
  std::optional<size_t> slot_;
  uint64_t join_nonce_ = 0;
  int pending_exchange_ = 0;
  OnceCallback<Result<SimTime>> on_joined_;
  Port next_port_ = 42000;
  // Shared so a completion callback outliving the client stays safe.
  std::shared_ptr<uint64_t> rounds_used_ = std::make_shared<uint64_t>(0);

  void SendJoinPacket(int exchange);
};

}  // namespace nymix

#endif  // SRC_ANON_DISSENT_H_
