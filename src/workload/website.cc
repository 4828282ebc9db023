#include "src/workload/website.h"

#include <algorithm>
#include <set>

namespace nymix {

std::vector<WebsiteProfile> PaperWebsiteProfiles() {
  std::vector<WebsiteProfile> profiles;

  WebsiteProfile gmail;
  gmail.name = "Gmail";
  gmail.domain = "mail.google.com";
  gmail.page_bytes = 2500 * kKiB;
  gmail.revisit_bytes = 1500 * kKiB;
  gmail.cache_first_bytes = 25 * kMiB;
  gmail.cache_revisit_bytes = 4 * kMiB;
  gmail.supports_login = true;
  gmail.memory_dirty_bytes = 16 * kMiB;
  profiles.push_back(gmail);

  WebsiteProfile twitter;
  twitter.name = "Twitter";
  twitter.domain = "twitter.com";
  twitter.page_bytes = 2000 * kKiB;
  twitter.revisit_bytes = 1200 * kKiB;
  twitter.cache_first_bytes = 15 * kMiB;
  twitter.cache_revisit_bytes = 2500 * kKiB;
  twitter.supports_login = true;
  twitter.memory_dirty_bytes = 12 * kMiB;
  profiles.push_back(twitter);

  WebsiteProfile youtube;
  youtube.name = "Youtube";
  youtube.domain = "youtube.com";
  youtube.page_bytes = 3 * kMiB;
  youtube.revisit_bytes = 2 * kMiB;
  youtube.cache_first_bytes = 22 * kMiB;
  youtube.cache_revisit_bytes = 8 * kMiB;
  youtube.supports_login = true;
  youtube.memory_dirty_bytes = 20 * kMiB;
  profiles.push_back(youtube);

  WebsiteProfile torblog;
  torblog.name = "TorBlog";
  torblog.domain = "blog.torproject.org";
  torblog.page_bytes = 800 * kKiB;
  torblog.revisit_bytes = 400 * kKiB;
  torblog.cache_first_bytes = 6 * kMiB;
  torblog.cache_revisit_bytes = 1 * kMiB;
  torblog.memory_dirty_bytes = 6 * kMiB;
  profiles.push_back(torblog);

  WebsiteProfile bbc;
  bbc.name = "BBC";
  bbc.domain = "bbc.co.uk";
  bbc.page_bytes = 1800 * kKiB;
  bbc.revisit_bytes = 900 * kKiB;
  bbc.cache_first_bytes = 9 * kMiB;
  bbc.cache_revisit_bytes = 1500 * kKiB;
  bbc.memory_dirty_bytes = 10 * kMiB;
  profiles.push_back(bbc);

  WebsiteProfile facebook;
  facebook.name = "Facebook";
  facebook.domain = "facebook.com";
  facebook.page_bytes = 2600 * kKiB;
  facebook.revisit_bytes = 1600 * kKiB;
  facebook.cache_first_bytes = 20 * kMiB;
  facebook.cache_revisit_bytes = 3500 * kKiB;
  facebook.supports_login = true;
  facebook.memory_dirty_bytes = 17 * kMiB;
  profiles.push_back(facebook);

  WebsiteProfile slashdot;
  slashdot.name = "Slashdot";
  slashdot.domain = "slashdot.org";
  slashdot.page_bytes = 1200 * kKiB;
  slashdot.revisit_bytes = 600 * kKiB;
  slashdot.cache_first_bytes = 4 * kMiB;
  slashdot.cache_revisit_bytes = 800 * kKiB;
  slashdot.memory_dirty_bytes = 7 * kMiB;
  profiles.push_back(slashdot);

  WebsiteProfile espn;
  espn.name = "ESPN";
  espn.domain = "espn.com";
  espn.page_bytes = 2200 * kKiB;
  espn.revisit_bytes = 1100 * kKiB;
  espn.cache_first_bytes = 11 * kMiB;
  espn.cache_revisit_bytes = 1800 * kKiB;
  espn.memory_dirty_bytes = 11 * kMiB;
  profiles.push_back(espn);

  return profiles;
}

WebsiteProfile StreamingWebsiteProfile() {
  WebsiteProfile stream;
  stream.name = "StreamTube";
  stream.domain = "stream.example.net";
  stream.page_bytes = 1 * kMiB;       // player shell
  stream.revisit_bytes = 2 * kMiB;    // one media segment
  stream.stream_segments = 6;         // ~11 MiB steady pull per visit
  stream.cache_first_bytes = 8 * kMiB;
  stream.cache_revisit_bytes = 2 * kMiB;
  stream.memory_dirty_bytes = 24 * kMiB;
  return stream;
}

WebsiteProfile LargeUploadWebsiteProfile() {
  WebsiteProfile upload;
  upload.name = "ShareDrop";
  upload.domain = "upload.example.net";
  upload.page_bytes = 600 * kKiB;
  upload.revisit_bytes = 300 * kKiB;
  upload.upload_bytes = 8 * kMiB;     // photo batch through the scrub path
  upload.cache_first_bytes = 2 * kMiB;
  upload.cache_revisit_bytes = 512 * kKiB;
  upload.memory_dirty_bytes = 9 * kMiB;
  return upload;
}

Website::Website(Simulation& sim, WebsiteProfile profile) : profile_(std::move(profile)) {
  access_link_ = sim.CreateLink("web-" + profile_.name, Millis(10), 1'000'000'000);
  ip_ = sim.internet().RegisterHost(profile_.domain, this, access_link_);
}

void Website::RecordVisit(SimTime time, Ipv4Address source, std::string cookie,
                          std::string account, std::string evercookie) {
  tracker_log_.push_back(
      VisitRecord{time, source, std::move(cookie), std::move(account), std::move(evercookie)});
}

size_t Website::DistinctCookies() const {
  std::set<std::string> cookies;
  for (const auto& record : tracker_log_) {
    cookies.insert(record.cookie);
  }
  return cookies.size();
}

size_t Website::DistinctEvercookies() const {
  std::set<std::string> stains;
  for (const auto& record : tracker_log_) {
    if (!record.evercookie.empty()) {
      stains.insert(record.evercookie);
    }
  }
  return stains.size();
}

void Website::OnDatagram(const Packet& packet, const std::function<void(Packet)>& reply) {
  Packet response;
  response.src_ip = packet.dst_ip;
  response.src_port = packet.dst_port;
  response.dst_ip = packet.src_ip;
  response.dst_port = packet.src_port;
  response.payload = BytesFromString("200 OK");
  response.annotation = packet.annotation;
  reply(std::move(response));
}

WebsiteDirectory::WebsiteDirectory(Simulation& sim, const std::vector<WebsiteProfile>& profiles) {
  for (const auto& profile : profiles) {
    sites_.push_back(std::make_unique<Website>(sim, profile));
  }
}

Website& WebsiteDirectory::ByName(const std::string& name) {
  auto it = std::find_if(sites_.begin(), sites_.end(),
                         [&](const auto& site) { return site->profile().name == name; });
  NYMIX_CHECK_MSG(it != sites_.end(), name.c_str());
  return **it;
}

std::vector<Website*> WebsiteDirectory::all() {
  std::vector<Website*> out;
  out.reserve(sites_.size());
  for (const auto& site : sites_) {
    out.push_back(site.get());
  }
  return out;
}

}  // namespace nymix
