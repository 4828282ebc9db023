// CloudService: a free-to-use storage provider (the paper's "DropBox or
// Google Drive", §3.5) modeled as an Internet host with pseudonymous
// accounts and opaque objects. The provider's view is deliberately
// explicit: an access log of (time, observed source address, action) plus
// the encrypted blobs — the basis for the deniability tests ("the cloud
// provider learns nothing about the account owner ... nor the pseudonym
// therein").
#ifndef SRC_STORAGE_CLOUD_H_
#define SRC_STORAGE_CLOUD_H_

#include <map>

#include "src/net/simulation.h"

namespace nymix {

struct StoredObject {
  Bytes data;                 // encrypted archive bytes actually held
  uint64_t logical_size = 0;  // archive's full logical size (Fig. 6 series)
  uint32_t sequence = 0;      // save-cycle counter (opaque to the provider)
  SimTime uploaded_at = 0;
};

struct CloudAccessLogEntry {
  SimTime time = 0;
  Ipv4Address observed_source;  // exit relay / VPN / user's real address
  std::string action;           // "login", "put nym1", ...
};

// Free-tier quota per account ("free-to-use cloud storage options, such
// as DropBox or Google Drive", §3.5). Counted in logical bytes.
inline constexpr uint64_t kCloudFreeQuotaBytes = 2 * kGiB;

class CloudService : public InternetHost {
 public:
  CloudService(Simulation& sim, const std::string& domain);

  const std::string& domain() const { return domain_; }
  Ipv4Address ip() const { return ip_; }
  Link* access_link() const { return access_link_; }

  // --- Account API (invoked by client logic; wire time is modeled by the
  // anonymizer Fetch that accompanies each call) ------------------------
  Status CreateAccount(const std::string& user, const std::string& password);
  Status Authenticate(const std::string& user, const std::string& password) const;

  Status Put(const std::string& user, const std::string& object, StoredObject stored);
  Result<StoredObject> Get(const std::string& user, const std::string& object) const;
  Status Delete(const std::string& user, const std::string& object);
  Result<std::vector<std::string>> List(const std::string& user) const;

  // The provider-side observation channel.
  void LogAccess(SimTime time, Ipv4Address observed_source, std::string action);
  const std::vector<CloudAccessLogEntry>& access_log() const { return access_log_; }

  void OnDatagram(const Packet& packet, const std::function<void(Packet)>& reply) override;

 private:
  struct Account {
    std::string password;
    std::map<std::string, StoredObject> objects;
  };

  std::string domain_;
  Link* access_link_;
  Ipv4Address ip_;
  std::map<std::string, Account> accounts_;
  std::vector<CloudAccessLogEntry> access_log_;
};

}  // namespace nymix

#endif  // SRC_STORAGE_CLOUD_H_
