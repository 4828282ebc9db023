// LocalStore: the non-cloud persistence option of §3.5 — "either on
// different local disks or USB drives". Unlike cloud storage, whatever is
// written here is visible to anyone who confiscates the device, which the
// store makes explicit through InspectDevice(): the forensic view an
// adversary obtains (names and sizes of encrypted blobs, but never keys).
#ifndef SRC_STORAGE_LOCAL_STORE_H_
#define SRC_STORAGE_LOCAL_STORE_H_

#include <map>
#include <string>

#include "src/storage/nym_archive.h"

namespace nymix {

class LocalStore {
 public:
  explicit LocalStore(std::string device_name) : device_name_(std::move(device_name)) {}

  const std::string& device_name() const { return device_name_; }

  Status Put(const std::string& name, NymArchive archive);
  Result<NymArchive> Get(const std::string& name) const;
  Status Delete(const std::string& name);

  struct ForensicEntry {
    std::string name;
    uint64_t stored_bytes = 0;
  };
  // What device confiscation reveals: presence of suspicious encrypted
  // blobs (contrast: a cloud-stored nym leaves nothing on the device).
  std::vector<ForensicEntry> InspectDevice() const;
  // nymlint:allow(dead-api): paper section 3.5 deniability check: tests assert what a searched USB stick shows
  bool HasSuspiciousState() const { return !archives_.empty(); }

 private:
  std::string device_name_;
  std::map<std::string, NymArchive> archives_;
};

}  // namespace nymix

#endif  // SRC_STORAGE_LOCAL_STORE_H_
