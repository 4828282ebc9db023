// Nym: one pseudonym and its nymbox (§3.1). A nymbox is a pair of VMs —
// the AnonVM running the browser, and the CommVM running this nym's own
// anonymizer instance — joined by a private virtual wire. The CommVM
// enforces the paper's communication policy: AnonVM traffic reaches the
// Internet only through the anonymizer; raw guest packets aimed at the
// LAN, the host, or other nyms are silently dropped (§5.1: "all attempts
// failed with a no-response, as if the host did not exist").
#ifndef SRC_CORE_NYM_H_
#define SRC_CORE_NYM_H_

#include <memory>
#include <string>

#include "src/anon/anonymizer.h"
#include "src/anon/dns_proxy.h"
#include "src/hv/host.h"
#include "src/workload/browser.h"

namespace nymix {

// Usage models of §3.5.
enum class NymMode { kEphemeral, kPersistent, kPreConfigured };
std::string_view NymModeName(NymMode mode);

class Nym {
 public:
  // Constructed (wired, not yet booted) by NymManager.
  Nym(std::string name, NymMode mode, Simulation& sim);
  ~Nym();

  const std::string& name() const { return name_; }
  NymMode mode() const { return mode_; }

  VirtualMachine* anon_vm() { return anon_vm_; }
  VirtualMachine* comm_vm() { return comm_vm_; }
  const VirtualMachine* anon_vm() const { return anon_vm_; }
  const VirtualMachine* comm_vm() const { return comm_vm_; }
  Anonymizer* anonymizer() { return anonymizer_.get(); }
  // The CommVM's DNS path for this nym's anonymizer (§4.1).
  DnsProxy* dns() { return dns_.get(); }
  BrowserModel* browser() { return browser_.get(); }
  Link* wire() { return wire_; }
  Link* vm_uplink() { return vm_uplink_; }

  // Save/restore bookkeeping: the AEAD sequence number of the next save.
  uint32_t save_sequence() const { return save_sequence_; }

  // Raw AnonVM packets the CommVM refused to forward (leak attempts).
  uint64_t leak_packets_dropped() const { return leak_packets_dropped_; }

  // Installs the nymbox communication policy on both VMs. Called by the
  // manager after VMs and links exist.
  void InstallPolicy();

  bool terminated() const { return terminated_; }

 private:
  friend class NymManager;

  std::string name_;
  NymMode mode_;
  Simulation& sim_;
  VirtualMachine* anon_vm_ = nullptr;  // owned by HostMachine
  VirtualMachine* comm_vm_ = nullptr;
  Link* wire_ = nullptr;
  Link* vm_uplink_ = nullptr;
  std::unique_ptr<Anonymizer> anonymizer_;
  std::unique_ptr<DnsProxy> dns_;
  std::unique_ptr<BrowserModel> browser_;
  uint32_t save_sequence_ = 0;
  uint64_t leak_packets_dropped_ = 0;
  bool terminated_ = false;
};

}  // namespace nymix

#endif  // SRC_CORE_NYM_H_
