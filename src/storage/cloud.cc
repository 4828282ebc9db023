#include "src/storage/cloud.h"

namespace nymix {
namespace {

constexpr uint64_t kAccessBandwidthBps = 100'000'000;
constexpr SimDuration kAccessLatency = Millis(15);

}  // namespace

CloudService::CloudService(Simulation& sim, const std::string& domain) : domain_(domain) {
  access_link_ = sim.CreateLink("cloud-" + domain, kAccessLatency, kAccessBandwidthBps);
  ip_ = sim.internet().RegisterHost(domain, this, access_link_);
}

Status CloudService::CreateAccount(const std::string& user, const std::string& password) {
  if (accounts_.count(user) > 0) {
    return AlreadyExistsError("account exists: " + user);
  }
  accounts_[user].password = password;
  return OkStatus();
}

Status CloudService::Authenticate(const std::string& user, const std::string& password) const {
  auto it = accounts_.find(user);
  if (it == accounts_.end() || it->second.password != password) {
    // One error for both cases: the provider should not leak which accounts
    // exist (and neither should our model).
    return UnauthenticatedError("bad credentials");
  }
  return OkStatus();
}

Status CloudService::Put(const std::string& user, const std::string& object,
                         StoredObject stored) {
  auto it = accounts_.find(user);
  if (it == accounts_.end()) {
    return UnauthenticatedError("no such account");
  }
  uint64_t usage = 0;
  for (const auto& [name, existing] : it->second.objects) {
    if (name != object) {  // overwrite replaces, it doesn't add
      usage += existing.logical_size;
    }
  }
  if (usage + stored.logical_size > kCloudFreeQuotaBytes) {
    return ResourceExhaustedError("free-tier quota exceeded for " + user);
  }
  it->second.objects[object] = std::move(stored);
  return OkStatus();
}

Result<StoredObject> CloudService::Get(const std::string& user, const std::string& object) const {
  auto it = accounts_.find(user);
  if (it == accounts_.end()) {
    return UnauthenticatedError("no such account");
  }
  auto obj = it->second.objects.find(object);
  if (obj == it->second.objects.end()) {
    return NotFoundError("no such object: " + object);
  }
  return obj->second;
}

Status CloudService::Delete(const std::string& user, const std::string& object) {
  auto it = accounts_.find(user);
  if (it == accounts_.end()) {
    return UnauthenticatedError("no such account");
  }
  if (it->second.objects.erase(object) == 0) {
    return NotFoundError("no such object: " + object);
  }
  return OkStatus();
}

Result<std::vector<std::string>> CloudService::List(const std::string& user) const {
  auto it = accounts_.find(user);
  if (it == accounts_.end()) {
    return UnauthenticatedError("no such account");
  }
  std::vector<std::string> names;
  names.reserve(it->second.objects.size());
  for (const auto& [name, object] : it->second.objects) {
    (void)object;
    names.push_back(name);
  }
  return names;
}

void CloudService::LogAccess(SimTime time, Ipv4Address observed_source, std::string action) {
  access_log_.push_back(CloudAccessLogEntry{time, observed_source, std::move(action)});
}

void CloudService::OnDatagram(const Packet& packet, const std::function<void(Packet)>& reply) {
  // Control-plane pings (login page fetches) are acknowledged; bulk object
  // transfer is flow-modeled by the caller.
  Packet response;
  response.src_ip = packet.dst_ip;
  response.src_port = packet.dst_port;
  response.dst_ip = packet.src_ip;
  response.dst_port = packet.src_port;
  response.payload = BytesFromString("200 OK");
  response.annotation = packet.annotation;
  reply(std::move(response));
}

}  // namespace nymix
