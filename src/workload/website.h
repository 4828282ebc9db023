// Website models: the eight sites of the §5.2 memory experiment (Gmail,
// Twitter, Youtube, Tor Blog, BBC, Facebook, Slashdot, ESPN) plus the
// DeterLab kernel mirror of §5.2's bandwidth experiment. Each site has a
// traffic/caching profile, and — because this is a tracking-protection
// paper — a tracker's view: the per-visit log of (time, observed source
// address, cookie) that linkability tests and the Buddies metric inspect.
#ifndef SRC_WORKLOAD_WEBSITE_H_
#define SRC_WORKLOAD_WEBSITE_H_

#include <string>
#include <vector>

#include "src/net/simulation.h"

namespace nymix {

struct WebsiteProfile {
  std::string name;
  std::string domain;
  uint64_t page_bytes = 2 * kMiB;          // first page load
  uint64_t revisit_bytes = 1 * kMiB;       // subsequent loads (cached assets)
  uint64_t cache_first_bytes = 10 * kMiB;  // browser cache written on first visit
  uint64_t cache_revisit_bytes = 1 * kMiB;
  double cache_entropy = 0.85;             // compressibility of cached assets
  bool supports_login = false;
  uint64_t memory_dirty_bytes = 40 * kMiB;  // browser heap growth per visit
  // Hostile tracker: plants an evercookie [38] — a stain persisted outside
  // the cookie jar (cache + Flash-LSO store) that survives "clear cookies"
  // and re-identifies the browser instance across sessions (§3.3).
  bool plants_evercookie = false;
  // Streaming: a visit fetches this many media segments, each of
  // revisit_bytes, on top of the page itself (1 = plain page load). Long
  // steady transfers are the most correlatable traffic shape the adversary
  // suite models.
  int stream_segments = 1;
  // Large upload: a visit additionally uploads this many bytes (photo
  // share / backup). Uploads pass the SaniVM scrub pipeline, so they are
  // where a disabled scrub leaks EXIF stains.
  uint64_t upload_bytes = 0;
};

// The paper's visit order: "Gmail, Twitter, Youtube, Tor Blog, BBC,
// Facebook, Slashdot, and ESPN".
std::vector<WebsiteProfile> PaperWebsiteProfiles();

// Beyond the paper's browse set (ROADMAP item 4): a segment-streaming video
// site and a large-upload share site, the two traffic shapes the adversary
// bench sweeps against. Deterministic fixed profiles like the paper set.
WebsiteProfile StreamingWebsiteProfile();
WebsiteProfile LargeUploadWebsiteProfile();

class Website : public InternetHost {
 public:
  Website(Simulation& sim, WebsiteProfile profile);

  const WebsiteProfile& profile() const { return profile_; }
  Ipv4Address ip() const { return ip_; }
  Link* access_link() const { return access_link_; }

  struct VisitRecord {
    SimTime time = 0;
    Ipv4Address observed_source;
    std::string cookie;
    std::string account;     // empty unless logged in
    std::string evercookie;  // empty unless the site plants one (§3.3 stain)
  };

  void RecordVisit(SimTime time, Ipv4Address source, std::string cookie, std::string account,
                   std::string evercookie = "");
  const std::vector<VisitRecord>& tracker_log() const { return tracker_log_; }
  size_t visit_count() const { return tracker_log_.size(); }

  // Tracker analysis helper: distinct (cookie, source) identities seen. A
  // working Nymix shows this site one identity per nym and nothing linking
  // them.
  size_t DistinctCookies() const;
  // Stain-based linking: sessions sharing an evercookie are the same
  // browser instance no matter what the cookie jar says.
  size_t DistinctEvercookies() const;

  void OnDatagram(const Packet& packet, const std::function<void(Packet)>& reply) override;

 private:
  WebsiteProfile profile_;
  Link* access_link_;
  Ipv4Address ip_;
  std::vector<VisitRecord> tracker_log_;
};

// Owns one Website per profile; registered on the simulation's Internet.
class WebsiteDirectory {
 public:
  WebsiteDirectory(Simulation& sim, const std::vector<WebsiteProfile>& profiles);

  Website& ByName(const std::string& name);
  std::vector<Website*> all();

 private:
  std::vector<std::unique_ptr<Website>> sites_;
};

}  // namespace nymix

#endif  // SRC_WORKLOAD_WEBSITE_H_
