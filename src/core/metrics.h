// Anonymity metrics (§7 "Long Term Intersection Attacks" / Buddies).
//
// IntersectionObserver models the adversary: it watches which users are
// online whenever a linkable pseudonymous message appears and intersects
// those sets — with enough messages the owner is exposed. BuddiesPolicy is
// the paper's planned countermeasure: report the current anonymity-set
// size and refuse to post when it would fall below a floor.
//
// FingerprintSurface captures §4.2's homogeneity claim as a checkable
// predicate over the VM-visible identifiers.
#ifndef SRC_CORE_METRICS_H_
#define SRC_CORE_METRICS_H_

#include <set>
#include <string>
#include <vector>

#include "src/hv/vm.h"

namespace nymix {

class IntersectionObserver {
 public:
  // One observation round: who was online, and whether the target
  // pseudonym posted a linkable message in that round.
  void RecordRound(const std::set<std::string>& online_users, bool pseudonym_posted);

  // Users consistent with every posting round so far (the pseudonym's
  // anonymity set from the adversary's viewpoint). Before any posting
  // round, everyone ever seen is possible.
  std::set<std::string> CandidateSet() const;
  // nymlint:allow(dead-api): tests read the intersection attack's remaining anonymity set
  size_t AnonymitySetSize() const { return CandidateSet().size(); }
  // nymlint:allow(dead-api): tests check how many rounds the intersection observer scored
  size_t posting_rounds() const;

 private:
  struct Round {
    std::set<std::string> online;
    bool posted = false;
  };
  std::vector<Round> rounds_;
  std::set<std::string> ever_seen_;
};

// Buddies-style policy: given who is online now, decide whether posting
// keeps the anonymity set at or above the threshold.
class BuddiesPolicy {
 public:
  explicit BuddiesPolicy(size_t min_anonymity_set) : threshold_(min_anonymity_set) {}

  size_t threshold() const { return threshold_; }

  // The set size *after* a hypothetical post in this round.
  size_t ProjectedSetSize(const IntersectionObserver& observer,
                          const std::set<std::string>& online_now) const;

  bool MayPost(const IntersectionObserver& observer,
               const std::set<std::string>& online_now) const {
    return ProjectedSetSize(observer, online_now) >= threshold_;
  }

 private:
  size_t threshold_;
};

struct FingerprintSurface {
  std::string cpu_model;
  std::string resolution;
  std::string mac;
  uint32_t visible_cpus = 0;

  bool operator==(const FingerprintSurface&) const = default;
};

FingerprintSurface FingerprintOf(const VirtualMachine& vm);

// §4.2's property: every AnonVM looks identical to a fingerprinter.
bool IndistinguishableFingerprints(const VirtualMachine& a, const VirtualMachine& b);

// Panopticlick-style surprisal: how many bits of identifying information
// the target's fingerprint carries within a population
// (-log2 P[fingerprint == target's]). 0 bits = perfectly hidden;
// log2(population) bits = uniquely identified.
double FingerprintSurprisalBits(const std::vector<FingerprintSurface>& population,
                                const FingerprintSurface& target);

// A population of conventional (non-Nymix) browsers with natural variety
// in hardware and configuration, for comparison benches.
std::vector<FingerprintSurface> SyntheticNativePopulation(size_t count, Prng& prng);

}  // namespace nymix

#endif  // SRC_CORE_METRICS_H_
