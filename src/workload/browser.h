// BrowserModel: the Chromium instance inside an AnonVM. Visits fetch a
// site through the nym's anonymizer; completed visits write cache entries
// into the VM's RAM-backed disk (with the default 83 MB Chromium cache cap
// and LRU eviction — §5.3 notes the cache "could have been configured to
// be smaller than the default of 83 MB"), set cookies, append history, and
// dirty guest heap pages. Everything Figure 3 and Figure 6 measure flows
// through here.
#ifndef SRC_WORKLOAD_BROWSER_H_
#define SRC_WORKLOAD_BROWSER_H_

#include <memory>
#include <string>

#include "src/anon/anonymizer.h"
#include "src/anon/dns_proxy.h"
#include "src/hv/vm.h"
#include "src/workload/website.h"

namespace nymix {

// Chromium's default disk-cache cap (§5.3); LRU eviction keeps the cache
// at or below it.
inline constexpr uint64_t kBrowserCacheCapacity = 83 * kMiB;

class BrowserModel {
 public:
  BrowserModel(Simulation& sim, VirtualMachine* anon_vm, Anonymizer* anonymizer, uint64_t seed);

  // Routes name resolution through the CommVM's DNS proxy (§4.1). Without
  // one, resolution is folded into the anonymizer's Fetch.
  void UseDnsProxy(DnsProxy* dns) { dns_ = dns; }

  // Loads the site's page; `done` fires when rendering completes. The
  // tracker sees (exit identity, this browser's cookie for the domain).
  void Visit(Website& site, std::function<void(Result<SimTime>)> done);

  // Logs into the site; stores the credential in the browser profile so
  // future sessions restored from this state need not re-enter it (§3.5).
  void Login(Website& site, const std::string& account, const std::string& password,
             std::function<void(Result<SimTime>)> done);

  bool HasStoredCredential(const std::string& domain) const;
  Result<std::string> StoredAccount(const std::string& domain) const;

  // Stable per-domain tracking cookie (created on first contact).
  std::string CookieFor(const std::string& domain);
  bool HasCookieFor(const std::string& domain) const;

  // Merges externally supplied cookies into the jar (and persists them),
  // overwriting on collision. This is the "shared cookie jar" isolation
  // failure the adversary suite plants: a sync service or misconfigured
  // profile bleed that gives two nyms the same tracking identity. Clean
  // Nymix code never calls this.
  void ImportCookies(const std::map<std::string, std::string>& cookies);

  // "Clear cookies": empties the cookie jar — but NOT evercookies, which
  // is precisely why per-nym throwaway VMs beat in-browser private modes
  // (§3.3: "a single state management bug ... render the user trackable").
  Status ClearCookies();

  // Evercookie planted by a hostile site: stored redundantly in the cache
  // directory and a Flash-LSO-style store; reading it repairs any copy the
  // user deleted. Empty return = no stain present yet.
  std::string PlantOrReadEvercookie(const std::string& domain);
  // nymlint:allow(dead-api): the staining check: tests assert clearing cookies leaves the evercookie in place
  bool HasEvercookie(const std::string& domain) const;

  uint64_t CacheBytes() const;
  // nymlint:allow(dead-api): tests check the browser cache evicts
  size_t CacheEntryCount() const;
  std::vector<std::string> History() const;

 private:
  void WriteCacheEntry(const WebsiteProfile& profile, uint64_t bytes);
  void EvictCacheIfNeeded();
  Status AppendHistory(const std::string& domain);

  Simulation& sim_;
  VirtualMachine* anon_vm_;
  Anonymizer* anonymizer_;
  DnsProxy* dns_ = nullptr;
  Prng prng_;
  std::map<std::string, std::string> cookies_;      // domain -> cookie id
  std::map<std::string, std::string> credentials_;  // domain -> account
  std::map<std::string, bool> visited_;             // domain -> seen before
  uint64_t next_cache_file_ = 1;
  // Lifetime token for the render timer: the browser schedules it on the
  // simulation-owned loop, and a nym crash (§3.4 wipe) destroys the browser
  // with the timer still queued. The timer must evaporate, not touch the
  // freed browser or complete a visit for a dead nym.
  std::shared_ptr<char> alive_ = std::make_shared<char>(0);
};

}  // namespace nymix

#endif  // SRC_WORKLOAD_BROWSER_H_
