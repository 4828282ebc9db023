#include "src/core/sanivm.h"

namespace nymix {

SaniService::SaniService(NymManager& manager)
    : manager_(manager), prng_(manager.sim().prng().Fork("sanivm")) {}

void SaniService::Start(std::function<void(SimTime)> ready) {
  NYMIX_CHECK_MSG(sani_vm_ == nullptr, "SaniVM already started");
  auto vm = manager_.host().CreateVm(
      VmConfig::SaniVm("sani-vm"), manager_.base_image(),
      manager_.ConfigLayerFor(VmRole::kSaniVm, AnonymizerKind::kIncognito));
  NYMIX_CHECK_MSG(vm.ok(), vm.status().ToString().c_str());
  sani_vm_ = *vm;
  // Deliberately no NICs: the SaniVM is non-networked by construction.
  sani_vm_->Boot(std::move(ready));
}

Status SaniService::MountHostFilesystem(const std::string& label,
                                        std::shared_ptr<const MemFs> fs) {
  if (sani_vm_ == nullptr) {
    return FailedPreconditionError("SaniVM not started");
  }
  if (mounts_.count(label) > 0) {
    return AlreadyExistsError("mount exists: " + label);
  }
  mounts_[label] = std::move(fs);
  return OkStatus();
}

std::vector<std::string> SaniService::MountedFilesystems() const {
  std::vector<std::string> labels;
  labels.reserve(mounts_.size());
  for (const auto& [label, fs] : mounts_) {
    (void)fs;
    labels.push_back(label);
  }
  return labels;
}

Result<Blob> SaniService::ReadHostFile(const std::string& label,
                                       const std::string& path) const {
  auto it = mounts_.find(label);
  if (it == mounts_.end()) {
    return NotFoundError("no such mount: " + label);
  }
  return it->second->ReadFile(path);
}

Status SaniService::RegisterNym(Nym& nym) {
  if (sani_vm_ == nullptr) {
    return FailedPreconditionError("SaniVM not started");
  }
  if (nym_shares_.count(nym.name()) > 0) {
    return AlreadyExistsError("nym already registered: " + nym.name());
  }
  auto share = std::make_shared<MemFs>();
  // The share is VirtFS-mounted in both the SaniVM and the nym's AnonVM,
  // with the hypervisor as the intermediary (§4.3).
  NYMIX_RETURN_IF_ERROR(sani_vm_->AttachShare("transfer-" + nym.name(), share));
  Status attach = nym.anon_vm()->AttachShare("incoming", share);
  if (!attach.ok()) {
    NYMIX_CHECK(sani_vm_->DetachShare("transfer-" + nym.name()).ok());
    return attach;
  }
  nym_shares_[nym.name()] = std::move(share);
  return OkStatus();
}

Status SaniService::StageForNym(Nym& nym, const std::string& label,
                                const std::string& host_path) {
  if (nym_shares_.count(nym.name()) == 0) {
    return FailedPreconditionError("nym has no transfer share: " + nym.name());
  }
  NYMIX_ASSIGN_OR_RETURN(Blob blob, ReadHostFile(label, host_path));
  std::string pending = "/transfer/" + nym.name() + "/pending/" + BasenameOf(host_path);
  return sani_vm_->disk().WriteFile(pending, std::move(blob));
}

std::vector<std::string> SaniService::PendingFiles(const Nym& nym) const {
  std::vector<std::string> out;
  auto entries = sani_vm_->disk().fs().List("/transfer/" + nym.name() + "/pending");
  if (!entries.ok()) {
    return out;
  }
  for (const auto& entry : *entries) {
    if (!entry.is_directory) {
      out.push_back(entry.name);
    }
  }
  return out;
}

std::vector<Result<SaniService::TransferOutcome>> SaniService::ProcessPending(
    Nym& nym, const ScrubOptions& options) {
  std::vector<Result<TransferOutcome>> outcomes;
  auto share_it = nym_shares_.find(nym.name());
  if (share_it == nym_shares_.end()) {
    outcomes.push_back(FailedPreconditionError("nym has no transfer share: " + nym.name()));
    return outcomes;
  }
  std::string pending_dir = "/transfer/" + nym.name() + "/pending";
  for (const std::string& name : PendingFiles(nym)) {
    std::string pending_path = pending_dir + "/" + name;
    auto blob = sani_vm_->disk().fs().ReadFile(pending_path);
    if (!blob.ok()) {
      outcomes.push_back(blob.status());
      continue;
    }
    if (blob->is_synthetic()) {
      outcomes.push_back(Result<TransferOutcome>(
          InvalidArgumentError("cannot scrub synthetic bulk content: " + name)));
      continue;
    }
    auto scrubbed = ScrubFile(blob->bytes(), options, prng_);
    if (!scrubbed.ok()) {
      outcomes.push_back(scrubbed.status());
      continue;  // stays pending for the user to inspect
    }
    TransferOutcome outcome;
    outcome.analysis = scrubbed->before;
    outcome.actions = scrubbed->actions;
    outcome.guest_path = "/" + name;
    Status write =
        share_it->second->WriteFile(outcome.guest_path, Blob::FromBytes(scrubbed->data));
    if (!write.ok()) {
      outcomes.push_back(write);
      continue;
    }
    NYMIX_CHECK(sani_vm_->disk().fs().Unlink(pending_path).ok());
    ++transfers_completed_;
    outcomes.push_back(std::move(outcome));
  }
  return outcomes;
}

Result<RiskReport> SaniService::AnalyzeHostFile(const std::string& label,
                                                const std::string& path) const {
  NYMIX_ASSIGN_OR_RETURN(Blob blob, ReadHostFile(label, path));
  if (blob.is_synthetic()) {
    return InvalidArgumentError("cannot analyze synthetic bulk content");
  }
  return AnalyzeFile(blob.bytes());
}

Result<SaniService::TransferOutcome> SaniService::TransferToNym(Nym& nym,
                                                                const std::string& label,
                                                                const std::string& host_path,
                                                                const ScrubOptions& options) {
  auto share_it = nym_shares_.find(nym.name());
  if (share_it == nym_shares_.end()) {
    return FailedPreconditionError("nym has no transfer share: " + nym.name());
  }
  NYMIX_ASSIGN_OR_RETURN(Blob blob, ReadHostFile(label, host_path));
  if (blob.is_synthetic()) {
    return InvalidArgumentError("cannot scrub synthetic bulk content");
  }
  NYMIX_ASSIGN_OR_RETURN(ScrubResult scrubbed, ScrubFile(blob.bytes(), options, prng_));

  TransferOutcome outcome;
  outcome.analysis = scrubbed.before;
  outcome.actions = scrubbed.actions;
  // Within the share the file sits at its basename; the AnonVM sees the
  // share mounted at /incoming.
  outcome.guest_path = "/" + BasenameOf(host_path);
  NYMIX_RETURN_IF_ERROR(
      share_it->second->WriteFile(outcome.guest_path, Blob::FromBytes(scrubbed.data)));
  ++transfers_completed_;
  return outcome;
}

}  // namespace nymix
