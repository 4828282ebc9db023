// InternTable: a thread-safe find-or-build map of immutable values that
// are a pure function of their key (the distribution image every fleet
// shard boots from). The first caller of a key builds the value under the
// lock; every caller, on any thread, gets the same pointer. Entries are
// never evicted. It lives here because nymlint confines locks to src/util
// and src/parallel.
#ifndef SRC_UTIL_INTERN_TABLE_H_
#define SRC_UTIL_INTERN_TABLE_H_

#include <map>
#include <memory>
#include <mutex>

namespace nymix {

template <typename Key, typename Value>
class InternTable {
 public:
  // `build` returns std::shared_ptr<const Value>; it runs at most once per key.
  template <typename Build>
  std::shared_ptr<const Value> FindOrBuild(const Key& key, const Build& build) {
    std::lock_guard<std::mutex> lock(mu_);
    std::shared_ptr<const Value>& entry = entries_[key];
    if (entry == nullptr) {
      entry = build();
    }
    return entry;
  }

 private:
  std::mutex mu_;
  std::map<Key, std::shared_ptr<const Value>> entries_;
};

}  // namespace nymix

#endif  // SRC_UTIL_INTERN_TABLE_H_
