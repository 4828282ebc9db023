#include "src/workload/browser.h"

#include <algorithm>
#include <string_view>

namespace nymix {

namespace {

constexpr std::string_view kCacheDir = "/home/user/.cache/chromium";
constexpr std::string_view kProfileDir = "/home/user/.config/chromium";
// Parse/layout/paint after the fetch completes.
constexpr SimDuration kRenderTime = Millis(900);

std::string InDir(std::string_view dir, std::string_view leaf) {
  std::string path(dir);
  path += '/';
  path += leaf;
  return path;
}

// Parses "key value" lines into a map.
std::map<std::string, std::string> ParseKvFile(const VmDisk& disk, const std::string& path) {
  std::map<std::string, std::string> out;
  auto blob = disk.fs().ReadFile(path);
  if (!blob.ok()) {
    return out;
  }
  std::string text = StringFromBytes(blob->Materialize());
  size_t position = 0;
  while (position < text.size()) {
    size_t end = text.find('\n', position);
    if (end == std::string::npos) {
      end = text.size();
    }
    std::string line = text.substr(position, end - position);
    position = end + 1;
    size_t space = line.find(' ');
    if (space != std::string::npos) {
      out[line.substr(0, space)] = line.substr(space + 1);
    }
  }
  return out;
}

std::string RenderKvFile(const std::map<std::string, std::string>& entries) {
  std::string out;
  for (const auto& [key, value] : entries) {
    out += key + " " + value + "\n";
  }
  return out;
}

}  // namespace

BrowserModel::BrowserModel(Simulation& sim, VirtualMachine* anon_vm, Anonymizer* anonymizer,
                           uint64_t seed)
    : sim_(sim), anon_vm_(anon_vm), anonymizer_(anonymizer), prng_(seed) {
  NYMIX_CHECK(anon_vm_ != nullptr);
  NYMIX_CHECK(anonymizer_ != nullptr);
  // A browser over a restored (quasi-persistent) disk picks its state back
  // up from the profile directory.
  cookies_ = ParseKvFile(anon_vm_->disk(), InDir(kProfileDir, "cookies"));
  credentials_ = ParseKvFile(anon_vm_->disk(), InDir(kProfileDir, "logins"));
  auto entries = anon_vm_->disk().fs().List(kCacheDir);
  if (entries.ok()) {
    for (const auto& entry : *entries) {
      if (entry.name.rfind("f_", 0) == 0) {
        uint64_t index = std::strtoull(entry.name.c_str() + 2, nullptr, 10);
        next_cache_file_ = std::max(next_cache_file_, index + 1);
      }
    }
  }
}

bool BrowserModel::HasCookieFor(const std::string& domain) const {
  return cookies_.count(domain) > 0;
}

std::string BrowserModel::CookieFor(const std::string& domain) {
  auto it = cookies_.find(domain);
  if (it != cookies_.end()) {
    return it->second;
  }
  std::string cookie = HexEncode(prng_.NextBytes(8));
  cookies_[domain] = cookie;
  NYMIX_CHECK(anon_vm_->disk()
                  .WriteFile(InDir(kProfileDir, "cookies"),
                             Blob::FromString(RenderKvFile(cookies_)))
                  .ok());
  return cookie;
}

void BrowserModel::ImportCookies(const std::map<std::string, std::string>& cookies) {
  for (const auto& [domain, value] : cookies) {
    cookies_[domain] = value;
  }
  NYMIX_CHECK(anon_vm_->disk()
                  .WriteFile(InDir(kProfileDir, "cookies"),
                             Blob::FromString(RenderKvFile(cookies_)))
                  .ok());
}

Status BrowserModel::ClearCookies() {
  cookies_.clear();
  if (anon_vm_->disk().fs().Exists(InDir(kProfileDir, "cookies"))) {
    return anon_vm_->disk().fs().Unlink(InDir(kProfileDir, "cookies"));
  }
  return OkStatus();
}

namespace {

std::string LsoPath(const std::string& domain) {
  return InDir(kProfileDir, "flash_lso/" + domain);
}

std::string CacheStainPath(const std::string& domain) {
  // Hides among cache entries with a name the eviction scan skips.
  return InDir(kCacheDir, "ec_" + domain);
}

}  // namespace

bool BrowserModel::HasEvercookie(const std::string& domain) const {
  return anon_vm_->disk().fs().Exists(LsoPath(domain)) ||
         anon_vm_->disk().fs().Exists(CacheStainPath(domain));
}

std::string BrowserModel::PlantOrReadEvercookie(const std::string& domain) {
  // Read whichever copy survived; a missing copy is silently repaired —
  // the essence of the evercookie.
  std::string value;
  for (const std::string& path : {LsoPath(domain), CacheStainPath(domain)}) {
    auto blob = anon_vm_->disk().fs().ReadFile(path);
    if (blob.ok() && !blob->is_synthetic()) {
      value = StringFromBytes(blob->Materialize());
      break;
    }
  }
  if (value.empty()) {
    value = HexEncode(prng_.NextBytes(8));
  }
  for (const std::string& path : {LsoPath(domain), CacheStainPath(domain)}) {
    NYMIX_CHECK(anon_vm_->disk().WriteFile(path, Blob::FromString(value)).ok());
  }
  return value;
}

bool BrowserModel::HasStoredCredential(const std::string& domain) const {
  return credentials_.count(domain) > 0;
}

Result<std::string> BrowserModel::StoredAccount(const std::string& domain) const {
  auto it = credentials_.find(domain);
  if (it == credentials_.end()) {
    return NotFoundError("no stored credential for " + domain);
  }
  return it->second;
}

uint64_t BrowserModel::CacheBytes() const {
  auto entries = anon_vm_->disk().fs().List(kCacheDir);
  if (!entries.ok()) {
    return 0;
  }
  uint64_t total = 0;
  for (const auto& entry : *entries) {
    total += entry.size;
  }
  return total;
}

size_t BrowserModel::CacheEntryCount() const {
  auto entries = anon_vm_->disk().fs().List(kCacheDir);
  return entries.ok() ? entries->size() : 0;
}

std::vector<std::string> BrowserModel::History() const {
  std::vector<std::string> out;
  auto blob = anon_vm_->disk().fs().ReadFile(InDir(kProfileDir, "history"));
  if (!blob.ok()) {
    return out;
  }
  std::string text = StringFromBytes(blob->Materialize());
  size_t position = 0;
  while (position < text.size()) {
    size_t end = text.find('\n', position);
    if (end == std::string::npos) {
      end = text.size();
    }
    if (end > position) {
      out.push_back(text.substr(position, end - position));
    }
    position = end + 1;
  }
  return out;
}

Status BrowserModel::AppendHistory(const std::string& domain) {
  std::string text;
  auto blob = anon_vm_->disk().fs().ReadFile(InDir(kProfileDir, "history"));
  if (blob.ok()) {
    text = StringFromBytes(blob->Materialize());
  }
  text += domain + "\n";
  return anon_vm_->disk().WriteFile(InDir(kProfileDir, "history"), Blob::FromString(text));
}

void BrowserModel::WriteCacheEntry(const WebsiteProfile& profile, uint64_t bytes) {
  if (bytes == 0) {
    return;
  }
  char name[32];
  std::snprintf(name, sizeof(name), "f_%08llu", static_cast<unsigned long long>(next_cache_file_));
  ++next_cache_file_;
  Status status = anon_vm_->disk().WriteFile(
      InDir(kCacheDir, name),
      Blob::Synthetic(bytes, prng_.NextU64(), profile.cache_entropy));
  if (!status.ok()) {
    // Disk full: evict and retry once; give up silently if still full
    // (the browser drops cache entries, it does not crash).
    EvictCacheIfNeeded();
    (void)anon_vm_->disk().WriteFile(
        InDir(kCacheDir, name),
        Blob::Synthetic(bytes, prng_.NextU64(), profile.cache_entropy));
  }
  EvictCacheIfNeeded();
}

void BrowserModel::EvictCacheIfNeeded() {
  while (CacheBytes() > kBrowserCacheCapacity) {
    auto entries = anon_vm_->disk().fs().List(kCacheDir);
    if (!entries.ok() || entries->empty()) {
      return;
    }
    // Entries sort lexicographically; the zero-padded names make the first
    // entry the oldest (LRU by insertion).
    const std::string oldest = (*entries)[0].name;
    if (!anon_vm_->disk().fs().Unlink(InDir(kCacheDir, oldest)).ok()) {
      return;
    }
  }
}

void BrowserModel::Visit(Website& site, std::function<void(Result<SimTime>)> done) {
  const WebsiteProfile& profile = site.profile();
  // First full page load vs revisit is a history question, not a cookie
  // question (logging in sets a cookie without populating the cache).
  auto history = History();
  bool revisit =
      std::find(history.begin(), history.end(), profile.domain) != history.end();
  uint64_t download = revisit ? profile.revisit_bytes : profile.page_bytes;
  if (profile.stream_segments > 1) {
    // Streaming profile: media segments ride the same fetch as one long
    // transfer (the flow model already coalesces bulk bytes).
    download += static_cast<uint64_t>(profile.stream_segments - 1) * profile.revisit_bytes;
  }
  // Default profiles upload only the 4 KiB request, exactly as before.
  uint64_t upload = 4 * kKiB + profile.upload_bytes;
  std::string cookie = CookieFor(profile.domain);
  std::string account = credentials_.count(profile.domain) ? credentials_[profile.domain] : "";
  std::string evercookie;
  if (profile.plants_evercookie) {
    evercookie = PlantOrReadEvercookie(profile.domain);
  }

  SimTime visit_start = sim_.now();
  auto perform = [this, &site, profile, revisit, download, upload, cookie, account, evercookie,
                  visit_start](std::function<void(Result<SimTime>)> fetch_done) {
    anonymizer_->Fetch(
        profile.domain, upload, download,
        [this, &site, profile, revisit, cookie, account, evercookie, visit_start,
         fetch_done = std::move(fetch_done)](Result<FetchReceipt> receipt) {
          if (!receipt.ok()) {
            fetch_done(receipt.status());
            return;
          }
          site.RecordVisit(receipt->completed_at, receipt->observed_source, cookie, account,
                           evercookie);
          WriteCacheEntry(profile,
                          revisit ? profile.cache_revisit_bytes : profile.cache_first_bytes);
          Status history = AppendHistory(profile.domain);
          if (!history.ok()) {
            fetch_done(history);
            return;
          }
          anon_vm_->memory().DirtyPages(profile.memory_dirty_bytes / kPageSize);
          sim_.loop().ScheduleAfter(
              kRenderTime,
              [this, alive = std::weak_ptr<char>(alive_), profile, visit_start,
               fetch_done = std::move(fetch_done)] {
                if (alive.expired()) {
                  return;  // browser (and its nym) torn down mid-render
                }
                if (TraceRecorder* tracer = sim_.loop().tracer()) {
                  // The span lands on the owning nym's track: the AnonVM is
                  // named "<nym>-anon".
                  std::string track = anon_vm_->name();
                  constexpr std::string_view kSuffix = "-anon";
                  if (track.size() > kSuffix.size() &&
                      track.compare(track.size() - kSuffix.size(), kSuffix.size(), kSuffix) == 0) {
                    track.resize(track.size() - kSuffix.size());
                  }
                  tracer->AddComplete("core", "page_load:" + profile.domain, track, visit_start,
                                      sim_.now() - visit_start);
                }
                if (MetricsRegistry* meters = sim_.loop().meters()) {
                  meters->GetCounter("core.page_loads")->Increment();
                  meters->GetHistogram("core.page_load_us")
                      ->Record(static_cast<double>(sim_.now() - visit_start));
                }
                fetch_done(sim_.now());
              });
        });
  };

  if (dns_ != nullptr) {
    // Resolution rides the CommVM's DNS path first (§4.1); a failed lookup
    // never turns into a direct query.
    dns_->Resolve(profile.domain,
                  [perform, done = std::move(done)](Result<Ipv4Address> resolved) mutable {
                    if (!resolved.ok()) {
                      done(resolved.status());
                      return;
                    }
                    perform(std::move(done));
                  });
  } else {
    perform(std::move(done));
  }
}

void BrowserModel::Login(Website& site, const std::string& account, const std::string& password,
                         std::function<void(Result<SimTime>)> done) {
  (void)password;  // the site model does not verify; the credential store matters
  const WebsiteProfile& profile = site.profile();
  if (!profile.supports_login) {
    done(FailedPreconditionError(profile.name + " does not support login"));
    return;
  }
  credentials_[profile.domain] = account;
  Status status = anon_vm_->disk().WriteFile(InDir(kProfileDir, "logins"),
                                             Blob::FromString(RenderKvFile(credentials_)));
  if (!status.ok()) {
    done(status);
    return;
  }
  std::string cookie = CookieFor(profile.domain);
  anonymizer_->Fetch(profile.domain, 8 * kKiB, 64 * kKiB,
                     [this, &site, cookie, account,
                      done = std::move(done)](Result<FetchReceipt> receipt) {
                       if (!receipt.ok()) {
                         done(receipt.status());
                         return;
                       }
                       site.RecordVisit(receipt->completed_at, receipt->observed_source, cookie,
                                        account);
                       done(receipt->completed_at);
                     });
}

}  // namespace nymix
