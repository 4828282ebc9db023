#include "src/core/nym_manager.h"

#include <algorithm>

namespace nymix {

namespace {

// Copies every file from one MemFs into another (restore path).
void CopyInto(const MemFs& source, MemFs& destination) {
  source.ForEachFile([&destination](const std::string& path, const Blob& blob) {
    NYMIX_CHECK(destination.WriteFile(path, blob).ok());
  });
}

}  // namespace

NymManager::NymManager(HostMachine& host, std::shared_ptr<const BaseImage> image, TorNetwork* tor,
                       DissentServers* dissent, Config config)
    : host_(host), image_(std::move(image)), tor_(tor), dissent_(dissent), config_(config) {
  NYMIX_CHECK(image_ != nullptr);
}

NymManager::~NymManager() = default;

std::shared_ptr<const MemFs> NymManager::ConfigLayerFor(VmRole role, AnonymizerKind kind) {
  auto layer = std::make_shared<MemFs>();
  std::string rc;
  switch (role) {
    case VmRole::kAnonVm:
      rc = "#!/bin/sh\n/usr/bin/chromium --proxy=comm-vm\nexec window-manager\n";
      NYMIX_CHECK(layer->WriteFile("/etc/network/interfaces",
                                   Blob::FromString("auto eth0  # wire to CommVM only\n"))
                      .ok());
      break;
    case VmRole::kCommVm:
      rc = std::string("#!/bin/sh\nexec /usr/bin/") +
           (kind == AnonymizerKind::kTor          ? "tor"
            : kind == AnonymizerKind::kDissent    ? "dissent"
            : kind == AnonymizerKind::kSweet      ? "sweet"
            : kind == AnonymizerKind::kChained    ? "dissent-then-tor"
                                                  : "iptables-masquerade") +
           "\n";
      NYMIX_CHECK(layer->WriteFile("/etc/network/interfaces",
                                   Blob::FromString("auto eth0 eth1  # wire + NAT uplink\n"))
                      .ok());
      break;
    case VmRole::kSaniVm:
      rc = "#!/bin/sh\nexec /usr/bin/mat --watch /transfer\n";
      NYMIX_CHECK(layer->WriteFile("/etc/network/interfaces",
                                   Blob::FromString("# no network devices\n"))
                      .ok());
      break;
    case VmRole::kInstalledOs:
      rc = "# installed OS boots its own init\n";
      break;
  }
  NYMIX_CHECK(layer->WriteFile("/etc/rc.local", Blob::FromString(rc)).ok());
  return layer;
}

std::unique_ptr<Anonymizer> NymManager::MakeAnonymizer(const CreateOptions& options,
                                                       const ClientAttachment& attachment) {
  // Derives from the simulation's seeded stream so distinct experiment
  // seeds yield distinct circuits/cookies while a fixed seed reproduces
  // them exactly.
  uint64_t seed = host_.sim().prng().NextU64() ^ Mix64(next_nym_seed_ * 7919 + 13);
  switch (options.anonymizer) {
    case AnonymizerKind::kIncognito:
      return std::make_unique<IncognitoVpn>(attachment);
    case AnonymizerKind::kTor: {
      NYMIX_CHECK_MSG(tor_ != nullptr, "no Tor network deployed");
      TorClientConfig tor_config;
      tor_config.exit_pin_seed = options.circuit_reuse_key;
      auto client = std::make_unique<TorClient>(attachment, *tor_, seed, tor_config);
      if (options.guard_seed.has_value()) {
        client->SeedGuardSelection(*options.guard_seed);
      }
      return client;
    }
    case AnonymizerKind::kDissent:
      NYMIX_CHECK_MSG(dissent_ != nullptr, "no Dissent servers deployed");
      return std::make_unique<DissentClient>(attachment, *dissent_, seed);
    case AnonymizerKind::kSweet:
      return std::make_unique<SweetTunnel>(attachment, next_nym_seed_);
    case AnonymizerKind::kChained: {
      CreateOptions inner_options = options;
      inner_options.anonymizer = options.chain_inner;
      CreateOptions outer_options = options;
      outer_options.anonymizer = options.chain_outer;
      auto inner = MakeAnonymizer(inner_options, attachment);
      auto outer = MakeAnonymizer(outer_options, attachment);
      return std::make_unique<ChainedAnonymizer>(std::move(inner), std::move(outer));
    }
  }
  NYMIX_CHECK_MSG(false, "unknown anonymizer kind");
  return nullptr;
}

Result<Nym*> NymManager::WireNym(const std::string& name, const CreateOptions& options) {
  if (FindNym(name) != nullptr) {
    return AlreadyExistsError("nym exists: " + name);
  }
  // §3.4 extension: no VM derives from a base image whose blocks do not
  // match the well-known Merkle root. The image checked that when it was
  // built.
  if (!image_->verified()) {
    // Only on failure is the per-leaf scan worth its cost: find the first
    // tampered block so the error names it.
    for (uint64_t block = 0; block < image_->block_count(); ++block) {
      if (!image_->VerifyBlock(block)) {
        return FailedPreconditionError("base image block " + std::to_string(block) +
                                       " failed Merkle verification; refusing to start nym");
      }
    }
    return FailedPreconditionError("base image failed Merkle verification; refusing to start nym");
  }

  auto nym = std::make_unique<Nym>(name, options.mode, host_.sim());
  Nym* raw = nym.get();

  // The private virtual wire: "a virtual wire connecting the two machines
  // or a host-only network" (§4.2).
  raw->wire_ = host_.sim().CreateLink(name + "-wire", Micros(50), 1'000'000'000ULL);
  raw->vm_uplink_ = host_.CreateVmUplink(name + "-uplink");

  auto anon_vm = host_.CreateVm(VmConfig::AnonVm(name + "-anon"), image_,
                                ConfigLayerFor(VmRole::kAnonVm, options.anonymizer));
  if (!anon_vm.ok()) {
    return anon_vm.status();
  }
  auto comm_vm = host_.CreateVm(VmConfig::CommVm(name + "-comm"), image_,
                                ConfigLayerFor(VmRole::kCommVm, options.anonymizer));
  if (!comm_vm.ok()) {
    NYMIX_CHECK(host_.DestroyVm(*anon_vm).ok());
    return comm_vm.status();
  }
  raw->anon_vm_ = *anon_vm;
  raw->comm_vm_ = *comm_vm;
  raw->anon_vm_->AttachNic(raw->wire_, /*side_a=*/true);
  raw->comm_vm_->AttachNic(raw->wire_, /*side_a=*/false);
  raw->comm_vm_->AttachNic(raw->vm_uplink_, /*side_a=*/true);
  raw->InstallPolicy();

  ClientAttachment attachment;
  attachment.sim = &host_.sim();
  attachment.vm_uplink = raw->vm_uplink_;
  attachment.client_links = {raw->wire_, raw->vm_uplink_, host_.uplink()};
  attachment.host_public_ip = host_.public_ip();
  ++next_nym_seed_;
  raw->anonymizer_ = MakeAnonymizer(options, attachment);
  raw->dns_ = std::make_unique<DnsProxy>(host_.sim(), raw->anonymizer_.get(),
                                         DnsProxy::TransportFor(options.anonymizer));

  nyms_.push_back(std::move(nym));
  options_by_name_[name] = options;
  return raw;
}

void NymManager::BootNym(Nym* nym, RestoredState* restored, SimDuration ephemeral_phase,
                         CreateCallback done) {
  if (restored != nullptr) {
    CopyInto(*restored->anon_writable, nym->anon_vm_->disk().fs().writable_mutable());
    CopyInto(*restored->comm_writable, nym->comm_vm_->disk().fs().writable_mutable());
    nym->save_sequence_ = restored->next_sequence;
    // Anonymizer state (entry guards, cached consensus) rides in the
    // CommVM's writable layer (§3.5).
    (void)nym->anonymizer_->RestoreState(nym->comm_vm_->disk().fs().writable());
  }

  SimTime t0 = host_.sim().now();
  bool is_load = restored != nullptr;
  if (TraceRecorder* tracer = host_.sim().loop().tracer(); tracer != nullptr &&
                                                           ephemeral_phase > 0) {
    tracer->AddComplete("core", "ephemeral_nym", nym->name(), t0 - ephemeral_phase,
                        ephemeral_phase);
  }
  auto report = std::make_shared<NymStartupReport>();
  report->ephemeral_nym = ephemeral_phase;
  auto remaining = std::make_shared<int>(2);
  auto after_boot = [this, nym, report, t0, is_load, ephemeral_phase, remaining,
                     done = std::move(done)](SimTime) {
    if (--*remaining > 0) {
      return;
    }
    report->boot_vm = host_.sim().now() - t0;
    SimTime anonymizer_start = host_.sim().now();
    if (TraceRecorder* tracer = host_.sim().loop().tracer()) {
      tracer->AddComplete("core", "boot_vm", nym->name(), t0, report->boot_vm);
    }
    nym->anonymizer_->Start([this, nym, report, t0, is_load, ephemeral_phase, anonymizer_start,
                             done](Result<SimTime> ready) {
      if (!ready.ok()) {
        // Bootstrap failed for good (retries exhausted). The nym stays
        // wired so the caller can inspect or terminate it.
        if (MetricsRegistry* meters = host_.sim().loop().meters()) {
          meters->GetCounter("core.nym_start_failures")->Increment();
        }
        done(ready.status(), *report);
        return;
      }
      report->start_anonymizer = *ready - anonymizer_start;
      nym->browser_ = std::make_unique<BrowserModel>(
          host_.sim(), nym->anon_vm_, nym->anonymizer_.get(),
          host_.sim().prng().NextU64() ^ Mix64(next_nym_seed_ * 104729));
      nym->browser_->UseDnsProxy(nym->dns_.get());
      if (TraceRecorder* tracer = host_.sim().loop().tracer()) {
        tracer->AddComplete("anon", "start_anonymizer", nym->name(), anonymizer_start,
                            report->start_anonymizer);
        SimTime started = t0 - ephemeral_phase;
        tracer->AddComplete("core", is_load ? "load_nym" : "create_nym", nym->name(), started,
                            host_.sim().now() - started);
      }
      if (MetricsRegistry* meters = host_.sim().loop().meters()) {
        meters->GetCounter(is_load ? "core.nyms_loaded" : "core.nyms_created")->Increment();
        meters->GetHistogram("core.nym_startup_us")
            ->Record(static_cast<double>(host_.sim().now() - (t0 - ephemeral_phase)));
      }
      done(nym, *report);
    });
  };
  nym->anon_vm_->Boot(after_boot);
  nym->comm_vm_->Boot(after_boot);
}

void NymManager::CreateNym(const std::string& name, const CreateOptions& options,
                           CreateCallback done) {
  auto wired = WireNym(name, options);
  if (!wired.ok()) {
    done(wired.status(), NymStartupReport{});
    return;
  }
  BootNym(*wired, nullptr, 0, std::move(done));
}

Status NymManager::TerminateNym(Nym* nym) {
  auto it = std::find_if(nyms_.begin(), nyms_.end(),
                         [nym](const auto& owned) { return owned.get() == nym; });
  if (it == nyms_.end()) {
    return NotFoundError("unknown nym");
  }
  // Secure teardown: wipe memory, discard RAM-backed disks, drop the VMs.
  if (TraceRecorder* tracer = host_.sim().loop().tracer()) {
    tracer->AddInstant("core", "terminate_nym", nym->name(), host_.sim().now());
  }
  if (MetricsRegistry* meters = host_.sim().loop().meters()) {
    meters->GetCounter("core.nyms_terminated")->Increment();
  }
  NYMIX_CHECK(host_.DestroyVm(nym->anon_vm_).ok());
  NYMIX_CHECK(host_.DestroyVm(nym->comm_vm_).ok());
  nym->anon_vm_ = nullptr;
  nym->comm_vm_ = nullptr;
  nym->terminated_ = true;
  options_by_name_.erase(nym->name());
  nyms_.erase(it);
  return OkStatus();
}

void NymManager::InjectCrash(Nym& nym) {
  NYMIX_CHECK_MSG(nym.anon_vm_ != nullptr && nym.comm_vm_ != nullptr, "nym has no VMs");
  nym.anon_vm_->Crash();
  nym.comm_vm_->Crash();
  if (TraceRecorder* tracer = host_.sim().loop().tracer()) {
    tracer->AddInstant("fault", "nym_crash", nym.name(), host_.sim().now());
  }
  if (MetricsRegistry* meters = host_.sim().loop().meters()) {
    meters->GetCounter("core.nym_crashes")->Increment();
  }
}

Status NymManager::CheckpointNym(Nym& nym) {
  if (nym.comm_vm_ == nullptr) {
    return FailedPreconditionError("nym has no CommVM");
  }
  NYMIX_RETURN_IF_ERROR(
      nym.anonymizer_->SaveState(nym.comm_vm_->disk().fs().writable_mutable()));
  if (MetricsRegistry* meters = host_.sim().loop().meters()) {
    meters->GetCounter("core.nym_checkpoints")->Increment();
  }
  return OkStatus();
}

void NymManager::RecoverNym(Nym* nym, CreateCallback done) {
  auto it = std::find_if(nyms_.begin(), nyms_.end(),
                         [nym](const auto& owned) { return owned.get() == nym; });
  if (it == nyms_.end()) {
    done(NotFoundError("unknown nym"), NymStartupReport{});
    return;
  }
  if (nym->anon_vm_ == nullptr || nym->comm_vm_ == nullptr) {
    done(FailedPreconditionError("nym has no VMs"), NymStartupReport{});
    return;
  }
  std::string name = nym->name();
  auto options_it = options_by_name_.find(name);
  NYMIX_CHECK_MSG(options_it != options_by_name_.end(), "nym without recorded options");
  CreateOptions options = options_it->second;

  // Snapshot the writable layers before teardown: RAM-backed disks are
  // what survives a guest crash (the host process is fine; only the guest
  // died). Anonymizer state rides in the CommVM layer iff CheckpointNym —
  // or an earlier save — put it there.
  RestoredState restored;
  restored.anon_writable = std::make_unique<MemFs>();
  restored.comm_writable = std::make_unique<MemFs>();
  CopyInto(nym->anon_vm_->disk().fs().writable(), *restored.anon_writable);
  CopyInto(nym->comm_vm_->disk().fs().writable(), *restored.comm_writable);
  restored.next_sequence = nym->save_sequence_;

  SimTime t0 = host_.sim().now();
  NYMIX_CHECK(TerminateNym(nym).ok());
  if (TraceRecorder* tracer = host_.sim().loop().tracer()) {
    tracer->AddInstant("core", "recover_nym", name, t0);
  }
  if (MetricsRegistry* meters = host_.sim().loop().meters()) {
    meters->GetCounter("core.nym_recoveries")->Increment();
  }
  auto wired = WireNym(name, options);
  if (!wired.ok()) {
    done(wired.status(), NymStartupReport{});
    return;
  }
  BootNym(*wired, &restored, 0, std::move(done));
}

void NymManager::RestoreNymFromState(const std::string& name, const CreateOptions& options,
                                     std::unique_ptr<MemFs> anon_writable,
                                     std::unique_ptr<MemFs> comm_writable, uint32_t next_sequence,
                                     CreateCallback done) {
  if (Nym* existing = FindNym(name)) {
    Status torn_down = TerminateNym(existing);
    if (!torn_down.ok()) {
      done(torn_down, NymStartupReport{});
      return;
    }
  }
  RestoredState restored;
  restored.anon_writable = std::move(anon_writable);
  restored.comm_writable = std::move(comm_writable);
  restored.next_sequence = next_sequence;
  if (TraceRecorder* tracer = host_.sim().loop().tracer()) {
    tracer->AddInstant("core", "restore_nym", name, host_.sim().now());
  }
  if (MetricsRegistry* meters = host_.sim().loop().meters()) {
    meters->GetCounter("core.nym_restores")->Increment();
  }
  auto wired = WireNym(name, options);
  if (!wired.ok()) {
    done(wired.status(), NymStartupReport{});
    return;
  }
  BootNym(*wired, &restored, 0, std::move(done));
}

const NymManager::CreateOptions* NymManager::FindOptions(const std::string& name) const {
  auto it = options_by_name_.find(name);
  return it == options_by_name_.end() ? nullptr : &it->second;
}

std::vector<Nym*> NymManager::nyms() const {
  std::vector<Nym*> out;
  out.reserve(nyms_.size());
  for (const auto& nym : nyms_) {
    out.push_back(nym.get());
  }
  return out;
}

Nym* NymManager::FindNym(const std::string& name) const {
  auto it = std::find_if(nyms_.begin(), nyms_.end(),
                         [&](const auto& nym) { return nym->name() == name; });
  return it == nyms_.end() ? nullptr : it->get();
}

Result<NymArchive> NymManager::ArchiveNym(Nym& nym, const std::string& password) {
  if (nym.anon_vm_ == nullptr || nym.comm_vm_ == nullptr) {
    return FailedPreconditionError("nym has no VMs");
  }
  // "the nym manager pauses the nym's AnonVM and CommVM, syncs their file
  // systems, compresses and encrypts ... resumes the VMs" (§3.5).
  bool was_running = nym.anon_vm_->state() == VmState::kRunning;
  if (was_running) {
    nym.anon_vm_->Pause();
    nym.comm_vm_->Pause();
  }
  NYMIX_RETURN_IF_ERROR(
      nym.anonymizer_->SaveState(nym.comm_vm_->disk().fs().writable_mutable()));
  auto archive = NymArchiver::Seal(nym.anon_vm_->disk().fs().writable(),
                                   nym.comm_vm_->disk().fs().writable(), nym.name(), password,
                                   nym.save_sequence_);
  if (was_running) {
    nym.anon_vm_->Resume();
    nym.comm_vm_->Resume();
  }
  return archive;
}

void NymManager::CreateCloudAccount(Nym& nym, CloudService& cloud, const std::string& account,
                                    const std::string& password,
                                    std::function<void(Status)> done) {
  nym.anonymizer_->Fetch(cloud.domain(), 4 * kKiB, 128 * kKiB,
                         [&cloud, account, password, this,
                          done = std::move(done)](Result<FetchReceipt> receipt) {
                           if (!receipt.ok()) {
                             done(receipt.status());
                             return;
                           }
                           cloud.LogAccess(host_.sim().now(), receipt->observed_source,
                                           "signup " + account);
                           done(cloud.CreateAccount(account, password));
                         });
}

void NymManager::SaveNymToCloud(Nym& nym, CloudService& cloud, const std::string& account,
                                const std::string& account_password,
                                const std::string& archive_password,
                                std::function<void(Result<SaveReceipt>)> done) {
  SimTime t0 = host_.sim().now();
  auto archive = ArchiveNym(nym, archive_password);
  if (!archive.ok()) {
    done(archive.status());
    return;
  }
  SimDuration processing = SecondsF(static_cast<double>(archive->logical_size) /
                                    static_cast<double>(config_.archive_processing_bps));
  auto shared = std::make_shared<NymArchive>(std::move(*archive));
  host_.sim().loop().ScheduleAfter(processing, [this, &nym, &cloud, account, account_password,
                                                archive_password, shared, t0,
                                                done = std::move(done)]() mutable {
    // Upload rides the nym's own anonymizer: the provider sees an exit
    // relay, never the user.
    nym.anonymizer_->Fetch(
        cloud.domain(), shared->logical_size, 16 * kKiB,
        [this, &nym, &cloud, account, account_password, archive_password, shared, t0,
         done = std::move(done)](Result<FetchReceipt> receipt) {
          if (!receipt.ok()) {
            done(receipt.status());
            return;
          }
          Status auth = cloud.Authenticate(account, account_password);
          if (!auth.ok()) {
            done(auth);
            return;
          }
          StoredObject object;
          object.data = shared->sealed;
          object.logical_size = shared->logical_size;
          object.sequence = shared->sequence;
          object.uploaded_at = host_.sim().now();
          // The provider indexes by the blind name: its object listing and
          // access log must never contain the pseudonym (the deniability
          // contract in src/storage/cloud.h).
          const std::string blind = BlindObjectName(nym.name(), archive_password);
          Status put = cloud.Put(account, blind, std::move(object));
          if (!put.ok()) {
            done(put);
            return;
          }
          cloud.LogAccess(host_.sim().now(), receipt->observed_source, "put " + blind);
          SaveReceipt save;
          save.sequence = shared->sequence;
          save.logical_size = shared->logical_size;
          save.sealed_bytes = shared->sealed.size();
          save.anonvm_fraction = NymArchiver::AnonVmFraction(
              nym.anon_vm_->disk().fs().writable(), nym.comm_vm_->disk().fs().writable());
          save.duration = host_.sim().now() - t0;
          if (TraceRecorder* tracer = host_.sim().loop().tracer()) {
            tracer->AddComplete("core", "save_nym", nym.name(), t0, save.duration);
          }
          nym.save_sequence_ = shared->sequence + 1;
          done(save);
        });
  });
}

void NymManager::SaveNymToLocal(Nym& nym, LocalStore& store, const std::string& password,
                                std::function<void(Result<SaveReceipt>)> done) {
  SimTime t0 = host_.sim().now();
  auto archive = ArchiveNym(nym, password);
  if (!archive.ok()) {
    done(archive.status());
    return;
  }
  SimDuration processing = SecondsF(static_cast<double>(archive->logical_size) /
                                    static_cast<double>(config_.archive_processing_bps));
  auto shared = std::make_shared<NymArchive>(std::move(*archive));
  host_.sim().loop().ScheduleAfter(processing, [this, &nym, &store, shared, t0,
                                                done = std::move(done)] {
    Status put = store.Put(nym.name(), *shared);
    if (!put.ok()) {
      done(put);
      return;
    }
    SaveReceipt save;
    save.sequence = shared->sequence;
    save.logical_size = shared->logical_size;
    save.sealed_bytes = shared->sealed.size();
    save.anonvm_fraction = NymArchiver::AnonVmFraction(nym.anon_vm_->disk().fs().writable(),
                                                       nym.comm_vm_->disk().fs().writable());
    save.duration = host_.sim().now() - t0;
    if (TraceRecorder* tracer = host_.sim().loop().tracer()) {
      tracer->AddComplete("core", "save_nym", nym.name(), t0, save.duration);
    }
    nym.save_sequence_ = shared->sequence + 1;
    done(save);
  });
}

void NymManager::LoadCommon(const std::string& name, const std::string& password,
                            const CreateOptions& options, Result<NymArchive> archive,
                            SimTime load_started, Status auth, CreateCallback done) {
  if (!auth.ok()) {
    done(auth, NymStartupReport{});
    return;
  }
  if (!archive.ok()) {
    done(archive.status(), NymStartupReport{});
    return;
  }
  auto contents = NymArchiver::Open(archive->sealed, name, password, archive->sequence);
  if (!contents.ok()) {
    done(contents.status(), NymStartupReport{});
    return;
  }
  auto wired = WireNym(name, options);
  if (!wired.ok()) {
    done(wired.status(), NymStartupReport{});
    return;
  }
  RestoredState restored;
  restored.anon_writable = std::move(contents->anonvm_writable);
  restored.comm_writable = std::move(contents->commvm_writable);
  restored.next_sequence = archive->sequence + 1;
  SimDuration ephemeral_phase = host_.sim().now() - load_started;
  BootNym(*wired, &restored, ephemeral_phase, std::move(done));
}

void NymManager::LoadNymFromCloud(const std::string& name, CloudService& cloud,
                                  const std::string& account,
                                  const std::string& account_password,
                                  const std::string& archive_password,
                                  const CreateOptions& options, CreateCallback done) {
  SimTime t0 = host_.sim().now();
  // Phase 1: the one-shot ephemeral nym that fetches the encrypted state
  // (§3.5 workflow). It uses the same anonymizer kind — and, if a guard
  // seed is supplied, the same entry guard as the nym itself, closing the
  // paper's noted intersection-attack gap.
  CreateOptions loader_options = options;
  loader_options.mode = NymMode::kEphemeral;
  CreateNym(name + "-loader", loader_options,
            [this, name, &cloud, account, account_password, archive_password, options, t0,
             done = std::move(done)](Result<Nym*> loader, NymStartupReport) mutable {
              if (!loader.ok()) {
                done(loader.status(), NymStartupReport{});
                return;
              }
              Nym* loader_nym = *loader;
              Status auth = cloud.Authenticate(account, account_password);
              // Same blind name the save path wrote: the provider's view of
              // the download, like the upload, is pseudonym-free.
              auto stored = cloud.Get(account, BlindObjectName(name, archive_password));
              if (!auth.ok() || !stored.ok()) {
                Status failure = !auth.ok() ? auth : stored.status();
                NYMIX_CHECK(TerminateNym(loader_nym).ok());
                done(failure, NymStartupReport{});
                return;
              }
              uint64_t download_size = stored->logical_size;
              loader_nym->anonymizer_->Fetch(
                  cloud.domain(), 8 * kKiB, download_size,
                  [this, name, archive_password, options, t0, &cloud,
                   stored = *stored, loader_nym,
                   done = std::move(done)](Result<FetchReceipt> receipt) mutable {
                    if (!receipt.ok()) {
                      NYMIX_CHECK(TerminateNym(loader_nym).ok());
                      done(receipt.status(), NymStartupReport{});
                      return;
                    }
                    cloud.LogAccess(host_.sim().now(), receipt->observed_source,
                                    "get " + BlindObjectName(name, archive_password));
                    SimDuration decrypt =
                        SecondsF(static_cast<double>(stored.logical_size) /
                                 static_cast<double>(config_.archive_processing_bps));
                    host_.sim().loop().ScheduleAfter(
                        decrypt, [this, name, archive_password, options, t0, stored, loader_nym,
                                  done = std::move(done)]() mutable {
                          NYMIX_CHECK(TerminateNym(loader_nym).ok());
                          NymArchive archive;
                          archive.sealed = stored.data;
                          archive.logical_size = stored.logical_size;
                          archive.sequence = stored.sequence;
                          LoadCommon(name, archive_password, options, archive, t0, OkStatus(),
                                     std::move(done));
                        });
                  });
            });
}

void NymManager::LoadNymFromLocal(const std::string& name, LocalStore& store,
                                  const std::string& password, const CreateOptions& options,
                                  CreateCallback done) {
  SimTime t0 = host_.sim().now();
  auto archive = store.Get(name);
  if (!archive.ok()) {
    done(archive.status(), NymStartupReport{});
    return;
  }
  SimDuration decrypt = SecondsF(static_cast<double>(archive->logical_size) /
                                 static_cast<double>(config_.archive_processing_bps));
  auto shared = std::make_shared<NymArchive>(std::move(*archive));
  host_.sim().loop().ScheduleAfter(decrypt, [this, name, password, options, shared, t0,
                                             done = std::move(done)]() mutable {
    LoadCommon(name, password, options, *shared, t0, OkStatus(), std::move(done));
  });
}

}  // namespace nymix
