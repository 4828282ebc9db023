// Anonymous posting through Dissent (§3.3/§4.1 + §7's Buddies plan): a
// nym joins a DC-net group, checks the Buddies anonymity-set policy, and
// posts a message through a REAL XOR-combined round — then a disruptor
// jams a round and the blame audit unmasks them.
//
//   ./build/examples/anonymous_posting
#include <cstdio>
#include <set>

#include "src/core/metrics.h"
#include "src/core/testbed.h"

using namespace nymix;

int main() {
  Testbed bed(/*seed=*/17);
  std::printf("== Posting through a live DC-net round ==\n\n");

  NymManager::CreateOptions options;
  options.anonymizer = AnonymizerKind::kDissent;
  Nym* nym = bed.CreateNymBlocking("speaker", options);
  auto* dissent = static_cast<DissentClient*>(nym->anonymizer());
  std::printf("joined DC-net group: member %zu of %zu, slot %zu (shuffled per round)\n",
              *dissent->member_index(), kDissentGroupSize, *dissent->slot());

  // Buddies gate (§7): refuse to post when the anonymity set is too small.
  IntersectionObserver adversary;
  adversary.RecordRound({"bob", "farid", "zarina", "gulya"}, true);
  BuddiesPolicy policy(3);
  std::set<std::string> online = {"bob", "farid", "zarina", "rustam"};
  std::printf("Buddies projected anonymity set: %zu (threshold %zu) -> %s\n\n",
              policy.ProjectedSetSize(adversary, online), policy.threshold(),
              policy.MayPost(adversary, online) ? "posting" : "BLOCKED");
  NYMIX_CHECK(policy.MayPost(adversary, online));

  // The actual round: everyone else transmits cover ciphertexts; the
  // message is recovered only from the combined XOR.
  Result<Bytes> mixed = InternalError("pending");
  bool done = false;
  SimTime start = bed.sim().now();
  dissent->PostAnonymousMessage(BytesFromString("rally at nine, bring candles"),
                                [&](Result<Bytes> r) {
                                  mixed = std::move(r);
                                  done = true;
                                });
  bed.sim().RunUntil([&] { return done; });
  NYMIX_CHECK(mixed.ok());
  std::printf("round output (slot payload): \"%s\"\n", StringFromBytes(*mixed).c_str());
  std::printf("round latency: %.2f s (batching interval %.2f s)\n\n",
              ToSeconds(bed.sim().now() - start), ToSeconds(kDissentRoundInterval));

  // A disruptor jams the next round; checksums catch it and the
  // seed-reveal audit names the culprit.
  DcNetGroup& group = bed.dissent().dcnet();
  uint64_t round = 99;
  auto slots = group.SlotPermutation(round);
  std::vector<Bytes> messages(group.member_count());
  messages[2] = BytesFromString("another message");
  auto jammed = group.RunRound(messages, slots, round, /*disruptor=*/7);
  std::printf("disrupted round: %zu corrupted slot(s) detected\n",
              jammed.corrupted_slots.size());

  std::vector<Bytes> transmitted;
  for (size_t member = 0; member < group.member_count(); ++member) {
    transmitted.push_back(
        *group.MemberCiphertext(member, slots[member], messages[member], round));
  }
  Prng noise(Mix64(round ^ 0xbadc0deULL));
  for (auto& byte : transmitted[7]) {
    byte ^= static_cast<uint8_t>(noise.NextBelow(256));
  }
  auto blamed = group.Blame(transmitted, messages, slots, round);
  std::printf("blame audit (seeds revealed, anonymity of that round sacrificed): ");
  for (size_t member : blamed) {
    std::printf("member %zu ", member);
  }
  std::printf("expelled\n");

  NYMIX_CHECK(bed.manager().TerminateNym(nym).ok());
  std::printf("\ndone at virtual t=%.1f s\n", ToSeconds(bed.sim().now()));
  return 0;
}
