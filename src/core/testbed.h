// Testbed: the §5.2 evaluation deployment in one object — an i7/16 GB host
// behind a 10 Mbit / 80 ms RTT shaped uplink, a test Tor deployment,
// Dissent servers, the paper's eight websites, a cloud storage provider,
// the DeterLab kernel mirror, and a NymManager. Examples and every bench
// binary build on this.
#ifndef SRC_CORE_TESTBED_H_
#define SRC_CORE_TESTBED_H_

#include "src/core/installed_os.h"
#include "src/core/sanivm.h"
#include "src/core/validation.h"
#include "src/workload/downloader.h"
#include "src/workload/peacekeeper.h"

namespace nymix {

class Testbed {
 public:
  explicit Testbed(uint64_t seed = 1)
      : sim_(seed),
        host_(sim_, HostConfig{}),
        tor_(sim_),
        dissent_(sim_),
        image_(BaseImage::CreateDistribution("nymix", 42, 64 * kMiB)),
        manager_(host_, image_, &tor_, &dissent_),
        cloud_(sim_, "drop.example.com"),
        mirror_(sim_),
        sites_(sim_, PaperWebsiteProfiles()) {}

  Simulation& sim() { return sim_; }
  HostMachine& host() { return host_; }
  TorNetwork& tor() { return tor_; }
  DissentServers& dissent() { return dissent_; }
  const std::shared_ptr<const BaseImage>& image() { return image_; }
  NymManager& manager() { return manager_; }
  CloudService& cloud() { return cloud_; }
  KernelMirror& mirror() { return mirror_; }
  WebsiteDirectory& sites() { return sites_; }

  // Blocking helpers (drive the event loop until the async op completes).
  Nym* CreateNymBlocking(const std::string& name, NymManager::CreateOptions options = {},
                         NymStartupReport* report = nullptr) {
    Nym* created = nullptr;
    bool done = false;
    manager_.CreateNym(name, options, [&](Result<Nym*> nym, NymStartupReport r) {
      NYMIX_CHECK_MSG(nym.ok(), nym.status().ToString().c_str());
      created = *nym;
      if (report != nullptr) {
        *report = r;
      }
      done = true;
    });
    sim_.RunUntil([&] { return done; });
    return created;
  }

  Result<SimTime> VisitBlocking(Nym* nym, Website& site) {
    Result<SimTime> result = InternalError("pending");
    bool done = false;
    nym->browser()->Visit(site, [&](Result<SimTime> r) {
      result = std::move(r);
      done = true;
    });
    sim_.RunUntil([&] { return done; });
    return result;
  }

  // Crash-recovery helper: snapshots disks, terminates the wreck, boots
  // the replacement under the same name/options.
  Result<Nym*> RecoverNymBlocking(Nym* nym, NymStartupReport* report = nullptr) {
    Result<Nym*> result = InternalError("pending");
    bool done = false;
    manager_.RecoverNym(nym, [&](Result<Nym*> recovered, NymStartupReport r) {
      result = std::move(recovered);
      if (report != nullptr) {
        *report = r;
      }
      done = true;
    });
    sim_.RunUntil([&] { return done; });
    return result;
  }

  Result<SaveReceipt> SaveBlocking(Nym* nym, const std::string& account,
                                   const std::string& account_password,
                                   const std::string& archive_password) {
    Result<SaveReceipt> result = InternalError("pending");
    bool done = false;
    manager_.SaveNymToCloud(*nym, cloud_, account, account_password, archive_password,
                            [&](Result<SaveReceipt> r) {
                              result = std::move(r);
                              done = true;
                            });
    sim_.RunUntil([&] { return done; });
    return result;
  }

  Result<Nym*> LoadBlocking(const std::string& name, const std::string& account,
                            const std::string& account_password,
                            const std::string& archive_password,
                            NymManager::CreateOptions options = {},
                            NymStartupReport* report = nullptr) {
    Result<Nym*> result = InternalError("pending");
    bool done = false;
    manager_.LoadNymFromCloud(name, cloud_, account, account_password, archive_password,
                              options, [&](Result<Nym*> nym, NymStartupReport r) {
                                result = std::move(nym);
                                if (report != nullptr) {
                                  *report = r;
                                }
                                done = true;
                              });
    sim_.RunUntil([&] { return done; });
    return result;
  }

 private:
  Simulation sim_;
  HostMachine host_;
  TorNetwork tor_;
  DissentServers dissent_;
  std::shared_ptr<const BaseImage> image_;
  NymManager manager_;
  CloudService cloud_;
  KernelMirror mirror_;
  WebsiteDirectory sites_;
};

}  // namespace nymix

#endif  // SRC_CORE_TESTBED_H_
