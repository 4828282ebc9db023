#include "src/adversary/experiment.h"

#include <algorithm>

#include "src/anon/tor.h"
#include "src/sanitize/jpeg.h"
#include "src/sanitize/scrubber.h"
#include "src/util/prng.h"

namespace nymix {
namespace {

// The four-site workloads. Canonical names/domains; each cluster registers
// replicas under "h<c>-" / "h<c>." prefixes (a shard's DNS would otherwise
// overwrite duplicate names across clusters). Distinct byte sizes per site
// keep the size dimension of flow correlation meaningful.
WebsiteProfile BrowseProfile(const char* name, const char* domain, uint64_t page_kib,
                             uint64_t revisit_kib) {
  WebsiteProfile profile;
  profile.name = name;
  profile.domain = domain;
  profile.page_bytes = page_kib * kKiB;
  profile.revisit_bytes = revisit_kib * kKiB;
  profile.cache_first_bytes = 3 * kMiB;
  profile.cache_revisit_bytes = 512 * kKiB;
  profile.memory_dirty_bytes = 8 * kMiB;
  return profile;
}

std::vector<WebsiteProfile> WorkloadProfiles(WorkloadMix mix) {
  WebsiteProfile alpha = BrowseProfile("alpha", "alpha.example.org", 900, 500);
  WebsiteProfile beta = BrowseProfile("beta", "beta.example.org", 1300, 700);
  WebsiteProfile gamma = BrowseProfile("gamma", "gamma.example.org", 700, 350);
  WebsiteProfile delta = BrowseProfile("delta", "delta.example.org", 1100, 600);
  switch (mix) {
    case WorkloadMix::kBrowse:
      return {alpha, beta, gamma, delta};
    case WorkloadMix::kStreaming:
      return {alpha, beta, gamma, StreamingWebsiteProfile()};
    case WorkloadMix::kUpload:
      return {alpha, beta, gamma, LargeUploadWebsiteProfile()};
    case WorkloadMix::kMixed:
      return {alpha, beta, StreamingWebsiteProfile(), LargeUploadWebsiteProfile()};
  }
  return {alpha, beta, gamma, delta};
}

FleetDriver::Config DriverConfig(const AdversaryOptions& options) {
  NYMIX_CHECK(options.generations >= 1);
  NYMIX_CHECK(options.passes_per_generation >= 1);
  FleetDriver::Config config;
  config.nym_count = options.nym_count;
  config.nyms_per_host = options.nyms_per_host;
  config.generations = options.generations;
  config.passes_per_generation = options.passes_per_generation;
  config.think_label = "adversary.think";
  config.name_prefix = "adv-h";
  config.tor = options.tor;
  return config;
}

}  // namespace

std::string_view LeakPlantName(LeakPlant plant) {
  switch (plant) {
    case LeakPlant::kNone:
      return "none";
    case LeakPlant::kSharedCookieJar:
      return "shared_cookie_jar";
    case LeakPlant::kReusedCircuit:
      return "reused_circuit";
    case LeakPlant::kDisabledScrub:
      return "disabled_scrub";
  }
  return "unknown";
}

std::string_view WorkloadMixName(WorkloadMix mix) {
  switch (mix) {
    case WorkloadMix::kBrowse:
      return "browse";
    case WorkloadMix::kStreaming:
      return "streaming";
    case WorkloadMix::kUpload:
      return "upload";
    case WorkloadMix::kMixed:
      return "mixed";
  }
  return "unknown";
}

AdversaryExperiment::AdversaryExperiment(ShardedSimulation& sharded,
                                         const AdversaryOptions& options, uint64_t seed)
    : options_(options),
      seed_(seed),
      site_profiles_(WorkloadProfiles(options.workload)),
      driver_(sharded, DriverConfig(options), seed, *this) {
  born_.resize(static_cast<size_t>(options_.nym_count));
  records_by_slot_.resize(static_cast<size_t>(options_.nym_count));
}

AdversaryExperiment::~AdversaryExperiment() = default;

void AdversaryExperiment::BuildCluster(int index, FleetCluster& cluster, Simulation& sim) {
  const std::string prefix = "h" + std::to_string(index);
  ClusterTaps taps;
  for (size_t i = 0; i < site_profiles_.size(); ++i) {
    WebsiteProfile replica = site_profiles_[i];
    replica.name = prefix + "-" + replica.name;
    replica.domain = prefix + "." + replica.domain;
    cluster.sites.push_back(std::make_unique<Website>(sim, replica));
    taps.exits.push_back(std::make_unique<PassiveObserver>(
        TapSite::kExit, index * static_cast<int>(site_profiles_.size()) + static_cast<int>(i)));
    cluster.sites.back()->access_link()->AttachTap(taps.exits.back().get());
  }
  taps.entry = std::make_unique<PassiveObserver>(TapSite::kEntry, index);
  cluster.host->uplink()->AttachTap(taps.entry.get());
  taps_.push_back(std::move(taps));
}

NymManager::CreateOptions AdversaryExperiment::CreateOptionsFor(int slot) {
  NymManager::CreateOptions create;
  if (options_.plant == LeakPlant::kReusedCircuit) {
    // Same-host nyms share the pin key, so they land on the same exit per
    // destination — the stream-isolation failure the exit probe catches.
    create.circuit_reuse_key = Mix64(seed_ ^ Fnv1a64("adversary.reuse") ^
                                     static_cast<uint64_t>(driver_.slot(slot).cluster));
  }
  return create;
}

void AdversaryExperiment::OnNymReady(int slot) {
  const int host = driver_.slot(slot).cluster;
  FleetCluster& cluster = driver_.cluster(host);
  born_[static_cast<size_t>(slot)] = driver_.Now(slot);
  if (options_.plant == LeakPlant::kSharedCookieJar) {
    // The bled jar: every nym on this host presents the same host-scoped
    // cookie values (a sync-service bleed, §3.3).
    std::map<std::string, std::string> jar;
    for (size_t i = 0; i < cluster.sites.size(); ++i) {
      jar[cluster.sites[i]->profile().domain] =
          "leak-h" + std::to_string(host) + "-" + site_profiles_[i].name;
    }
    driver_.slot(slot).nym->browser()->ImportCookies(jar);
  }
}

void AdversaryExperiment::BeforeTerminate(int slot) {
  records_by_slot_[static_cast<size_t>(slot)].push_back(SnapshotNym(slot));
}

NymRecord AdversaryExperiment::SnapshotNym(int slot) {
  const FleetDriver::Slot& state = driver_.slot(slot);
  const FleetCluster& cluster = driver_.cluster(state.cluster);
  NymRecord record;
  record.host = state.cluster;
  record.slot = slot;
  record.generation = state.generation;
  record.born = born_[static_cast<size_t>(slot)];
  record.died = driver_.Now(slot);

  BrowserModel* browser = state.nym->browser();
  Anonymizer* anonymizer = state.nym->anonymizer();
  TorClient* tor_client =
      anonymizer->kind() == AnonymizerKind::kTor ? static_cast<TorClient*>(anonymizer) : nullptr;
  bool uploaded = false;
  for (size_t i = 0; i < cluster.sites.size(); ++i) {
    const std::string& key = site_profiles_[i].name;  // canonical, cluster-invariant
    const std::string& domain = cluster.sites[i]->profile().domain;
    if (browser->HasCookieFor(domain)) {
      record.cookies[key] = browser->CookieFor(domain);
    }
    if (tor_client != nullptr) {
      // Cached from the visits above — reading it back consumes no Prng.
      record.exits[key] = tor_client->ExitIndexForDestination(domain);
    }
    if (site_profiles_[i].upload_bytes > 0) {
      uploaded = true;
    }
  }

  if (uploaded) {
    // What the upload destination received: a photo from the host's one
    // camera. The clean pipeline routes it through the SaniVM scrub first
    // (§3.6); the plant ships it raw, serial and all.
    JpegFile photo;
    photo.image = Image::Solid(16, 16, 120, 100, 90);
    ExifData exif;
    exif.camera_make = "NymCam";
    exif.body_serial_number = "serial-h" + std::to_string(state.cluster);
    photo.exif = exif;
    Bytes wire = EncodeJpeg(photo);
    if (options_.plant != LeakPlant::kDisabledScrub) {
      Prng scrub_prng(Mix64(seed_ ^ Fnv1a64("adversary.scrub") ^
                            (static_cast<uint64_t>(slot) << 8) ^
                            static_cast<uint64_t>(state.generation)));
      auto scrubbed = ScrubFile(wire, ScrubOptions{}, scrub_prng);
      NYMIX_CHECK_MSG(scrubbed.ok(), "upload scrub failed");
      wire = std::move(scrubbed->data);
    }
    auto received = DecodeJpeg(wire);
    if (received.ok() && received->exif.has_value() &&
        received->exif->body_serial_number.has_value()) {
      record.stain = *received->exif->body_serial_number;
    }
  }
  return record;
}

AdversaryReport AdversaryExperiment::Analyze() const {
  // Flatten in (cluster, slot, generation) order — slots are already
  // cluster-major, and per-slot records are generation-ordered.
  std::vector<NymRecord> records;
  for (const auto& slot_records : records_by_slot_) {
    records.insert(records.end(), slot_records.begin(), slot_records.end());
  }
  std::vector<FlowObservation> entry_flows;
  std::vector<FlowObservation> exit_flows;
  uint64_t tap_packets = 0;
  uint64_t tap_bytes = 0;
  for (const ClusterTaps& taps : taps_) {
    const auto& entry = taps.entry->flows();
    entry_flows.insert(entry_flows.end(), entry.begin(), entry.end());
    tap_packets += taps.entry->packets_seen();
    tap_bytes += taps.entry->bytes_seen();
    for (const auto& exit_tap : taps.exits) {
      const auto& exit = exit_tap->flows();
      exit_flows.insert(exit_flows.end(), exit.begin(), exit.end());
      tap_packets += exit_tap->packets_seen();
      tap_bytes += exit_tap->bytes_seen();
    }
  }

  AdversaryReport report;
  report.linkage = LinkNyms(records, options_.min_common_sites);
  report.anonymity = IntersectLifetimes(records, exit_flows);
  report.correlation = CorrelateFlows(entry_flows, exit_flows, options_.correlation_window);
  report.nym_instances = records.size();
  report.entry_flows = entry_flows.size();
  report.exit_flows = exit_flows.size();
  report.tap_packets = tap_packets;
  report.tap_bytes = tap_bytes;
  return report;
}

void AdversaryExperiment::ExportMetrics(const AdversaryReport& report, MetricsRegistry& metrics) {
  metrics.GetGauge("adversary.advantage.cookie")->Set(report.linkage.cookie.advantage());
  metrics.GetGauge("adversary.advantage.exit_fingerprint")
      ->Set(report.linkage.exit_fingerprint.advantage());
  metrics.GetGauge("adversary.advantage.stain")->Set(report.linkage.stain.advantage());
  metrics.GetGauge("adversary.advantage.overall")->Set(report.linkage.advantage);
  metrics.GetGauge("adversary.linkage_probability")->Set(report.linkage.linkage_probability);
  metrics.GetGauge("adversary.anonymity_set.min")->Set(report.anonymity.min_set);
  metrics.GetGauge("adversary.anonymity_set.mean")->Set(report.anonymity.mean_set);
  metrics.GetGauge("adversary.flowcorr.accuracy")->Set(report.correlation.accuracy);
  metrics.GetCounter("adversary.flowcorr.matched")->Increment(report.correlation.matched_correct);
  metrics.GetCounter("adversary.flowcorr.ambiguous")->Increment(report.correlation.ambiguous);
  metrics.GetCounter("adversary.flowcorr.unmatched")->Increment(report.correlation.unmatched);
  metrics.GetCounter("adversary.pairs.positive")->Increment(report.linkage.cookie.positives());
  metrics.GetCounter("adversary.pairs.negative")->Increment(report.linkage.cookie.negatives());
  metrics.GetCounter("adversary.nym_instances")->Increment(report.nym_instances);
  metrics.GetCounter("adversary.flows.entry")->Increment(report.entry_flows);
  metrics.GetCounter("adversary.flows.exit")->Increment(report.exit_flows);
  metrics.GetCounter("adversary.taps.packets")->Increment(report.tap_packets);
  metrics.GetCounter("adversary.taps.bytes")->Increment(report.tap_bytes);
}

}  // namespace nymix
