#include "src/anon/dissent.h"

namespace nymix {
namespace {

constexpr uint64_t kServerBandwidthBps = 100'000'000;
// DH + shuffle setup after the join exchange.
constexpr SimDuration kKeyCeremony = SecondsF(1.5);
// Round accounting: each round carries one slot's share of the group pipe.
constexpr uint64_t kRoundCapacityBytes =
    kServerBandwidthBps / kDissentGroupSize / 8 *
    static_cast<uint64_t>(ToSeconds(kDissentRoundInterval) * 1000) / 1000;
static_assert(kRoundCapacityBytes > 0);

}  // namespace

void DissentServers::FrontServer::OnDatagram(const Packet& packet,
                                             const std::function<void(Packet)>& reply) {
  Packet response;
  response.src_ip = packet.dst_ip;
  response.src_port = packet.dst_port;
  response.dst_ip = packet.src_ip;
  response.dst_port = packet.src_port;
  response.protocol = IpProtocol::kTcp;
  response.payload = BytesFromString("ACK " + StringFromBytes(packet.payload));
  response.annotation = "Dissent";
  // Anytrust: every server must countersign, so one exchange costs a full
  // server-set round trip; modeled as a fixed processing delay.
  loop_.ScheduleAfter(Millis(60), [reply, response = std::move(response)]() mutable {
    reply(std::move(response));
  });
}

DissentServers::DissentServers(Simulation& sim) : sim_(sim), front_(sim.loop()) {
  // The group link is the DC-net's effective pipe: aggregate server
  // bandwidth divided by the member count, with round batching latency.
  group_link_ = sim.CreateLink("dissent-group", kDissentRoundInterval,
                               kServerBandwidthBps / kDissentGroupSize);
  front_ip_ = sim.internet().RegisterHost("dissent.front.net", &front_, group_link_);
  dcnet_ = std::make_unique<DcNetGroup>(kDissentGroupSize, /*slot_bytes=*/512,
                                        sim.prng().NextU64());
}

size_t DissentServers::AssignSlot(uint64_t client_nonce) {
  ++members_joined_;
  // The verifiable shuffle's output position for this member. Mix the nonce
  // so slots look random but are reproducible.
  return static_cast<size_t>(Mix64(client_nonce ^ members_joined_) % kDissentGroupSize);
}

DissentClient::DissentClient(ClientAttachment attachment, DissentServers& servers, uint64_t seed)
    : attachment_(attachment), servers_(servers), prng_(seed) {
  NYMIX_CHECK(attachment_.sim != nullptr);
  NYMIX_CHECK(attachment_.vm_uplink != nullptr);
}

void DissentClient::SendJoinPacket(int exchange) {
  Packet packet;
  packet.src_ip = kGuestCommVmIp;
  packet.src_port = next_port_++;
  packet.dst_ip = servers_.front_ip();
  packet.dst_port = 12345;
  packet.protocol = IpProtocol::kTcp;
  packet.payload = BytesFromString("JOIN nonce=" + std::to_string(join_nonce_) +
                                   " exchange=" + std::to_string(exchange));
  packet.annotation = "Dissent";
  attachment_.vm_uplink->SendFromA(std::move(packet));
}

void DissentClient::Start(std::function<void(Result<SimTime>)> ready) {
  join_nonce_ = prng_.NextU64();
  on_joined_ = OnceCallback<Result<SimTime>>(std::move(ready));
  pending_exchange_ = 1;
  SendJoinPacket(pending_exchange_);
}

void DissentClient::HandlePacket(const Packet& packet) {
  std::string text = StringFromBytes(packet.payload);
  std::string expect = "nonce=" + std::to_string(join_nonce_) +
                       " exchange=" + std::to_string(pending_exchange_);
  if (pending_exchange_ == 0 || text.find(expect) == std::string::npos) {
    return;
  }
  // Three exchanges: identity registration, key agreement, shuffle commit.
  if (pending_exchange_ < 3) {
    ++pending_exchange_;
    SendJoinPacket(pending_exchange_);
    return;
  }
  pending_exchange_ = 0;
  member_index_ = servers_.members_joined();  // joining order = member id
  slot_ = servers_.AssignSlot(join_nonce_);
  attachment_.sim->loop().ScheduleAfter(kKeyCeremony, [this] {
    joined_ = true;
    if (on_joined_) {
      auto callback = std::move(on_joined_);
      on_joined_ = OnceCallback<Result<SimTime>>();
      callback(attachment_.sim->now());
    }
  });
}

void DissentClient::PostAnonymousMessage(ByteSpan message,
                                         std::function<void(Result<Bytes>)> done) {
  if (!joined_ || !member_index_.has_value()) {
    done(FailedPreconditionError("not joined to a DC-net group"));
    return;
  }
  DcNetGroup& group = servers_.dcnet();
  if (message.size() > group.slot_bytes()) {
    done(InvalidArgumentError("message exceeds the DC-net slot size"));
    return;
  }
  if (*member_index_ >= group.member_count()) {
    done(FailedPreconditionError("group is full beyond the DC-net size"));
    return;
  }
  uint64_t round = servers_.NextRoundNumber();
  size_t me = *member_index_;
  Bytes payload(message.begin(), message.end());
  // One round of wall-clock latency: everyone must transmit before the
  // servers can combine.
  attachment_.sim->loop().ScheduleAfter(
      kDissentRoundInterval,
      [&group, me, round, payload = std::move(payload), done = std::move(done)] {
        std::vector<size_t> slots = group.SlotPermutation(round);
        std::vector<Bytes> messages(group.member_count());
        messages[me] = payload;  // everyone else transmits cover traffic
        DcNetGroup::RoundResult result = group.RunRound(messages, slots, round);
        if (!result.corrupted_slots.empty()) {
          done(DataLossError("round disrupted"));
          return;
        }
        done(group.SlotPayload(result.plaintext, slots[me]));
      });
}

void DissentClient::Fetch(const std::string& host, uint64_t request_bytes,
                          uint64_t response_bytes,
                          std::function<void(Result<FetchReceipt>)> done) {
  if (!joined_) {
    done(FailedPreconditionError("not joined to a DC-net group"));
    return;
  }
  auto resolved = attachment_.sim->internet().Resolve(host);
  if (!resolved.ok()) {
    done(resolved.status());
    return;
  }
  std::vector<Link*> links = attachment_.client_links;
  links.push_back(servers_.group_link());
  if (Link* access = attachment_.sim->internet().AccessLink(*resolved);
      access != nullptr && access != servers_.group_link()) {
    links.push_back(access);
  }
  uint64_t total = request_bytes + response_bytes;
  Ipv4Address observed = servers_.front_ip();
  attachment_.sim->flows().StartFlow(
      Route::Through(std::move(links)), total, OverheadFactor(), /*stall_timeout=*/0,
      [rounds = rounds_used_, total, observed, done = std::move(done)](Result<SimTime> t) {
        if (!t.ok()) {
          done(t.status());
          return;
        }
        *rounds += (total + kRoundCapacityBytes - 1) / kRoundCapacityBytes;
        done(FetchReceipt{*t, observed});
      });
}

}  // namespace nymix
