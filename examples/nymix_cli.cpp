// nymix_cli: an interactive/scriptable front-end to the Nym Manager — the
// closest thing to the paper's user-facing workflow ("Nymix on boot
// presents the user with a Nym Manager, offering options to start a fresh
// nym or load an existing nym", §3.5). Reads commands from stdin, drives
// the simulated deployment, prints state.
//
//   ./build/examples/nymix_cli <<'EOF'
//   create work tor
//   visit work Twitter
//   account user pw
//   save work user pw nympw
//   terminate work
//   load work user pw nympw
//   status
//   quit
//   EOF
//
// Commands:
//   create <name> [tor|dissent|incognito|sweet|chained]
//   visit <name> <Site>            (Gmail, Twitter, Youtube, TorBlog, BBC,
//                                   Facebook, Slashdot, ESPN)
//   login <name> <Site> <account> <password>
//   account <user> <password>      create a cloud account
//   save <name> <user> <cloudpw> <nympw>
//   load <name> <user> <cloudpw> <nympw>
//   terminate <name>
//   probe <name>                   leak-probe sweep from the nym's AnonVM
//   resolve <name> <domain>        DNS through the nym's CommVM proxy
//   status                         nyms, memory, KSM, capture audit
//   quit
#include <cstdio>
#include <iostream>
#include <sstream>

#include "src/core/testbed.h"

using namespace nymix;

namespace {

Result<AnonymizerKind> ParseAnonymizer(const std::string& text) {
  if (text.empty() || text == "tor") {
    return AnonymizerKind::kTor;
  }
  if (text == "dissent") {
    return AnonymizerKind::kDissent;
  }
  if (text == "incognito") {
    return AnonymizerKind::kIncognito;
  }
  if (text == "sweet") {
    return AnonymizerKind::kSweet;
  }
  if (text == "chained") {
    return AnonymizerKind::kChained;
  }
  return InvalidArgumentError("unknown anonymizer: " + text);
}

}  // namespace

int main() {
  Testbed bed(/*seed=*/2014);
  PacketCapture capture;
  bed.host().uplink()->AttachCapture(&capture);
  bed.host().EmitDhcp();
  bed.host().ksm().Start(Seconds(2));

  std::printf("nymix> Nym Manager ready. 'help' lists commands.\n");
  std::string line;
  while (std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string command;
    in >> command;
    if (command.empty() || command[0] == '#') {
      continue;
    }

    if (command == "quit" || command == "exit") {
      break;
    } else if (command == "help") {
      std::printf("commands: create visit login account save load terminate probe "
                  "resolve status quit\n");
    } else if (command == "create") {
      std::string name, tool;
      in >> name >> tool;
      auto kind = ParseAnonymizer(tool);
      if (name.empty() || !kind.ok()) {
        std::printf("usage: create <name> [tor|dissent|incognito|sweet|chained]\n");
        continue;
      }
      NymManager::CreateOptions options;
      options.anonymizer = *kind;
      bool done = false;
      bed.manager().CreateNym(name, options, [&](Result<Nym*> nym, NymStartupReport report) {
        if (nym.ok()) {
          std::printf("created '%s' (%s) in %.1fs [boot %.1fs, anonymizer %.1fs]\n",
                      name.c_str(), (*nym)->anonymizer()->Name().data(),
                      ToSeconds(report.Total()), ToSeconds(report.boot_vm),
                      ToSeconds(report.start_anonymizer));
        } else {
          std::printf("error: %s\n", nym.status().ToString().c_str());
        }
        done = true;
      });
      bed.sim().RunUntil([&] { return done; });
    } else if (command == "visit") {
      std::string name, site_name;
      in >> name >> site_name;
      Nym* nym = bed.manager().FindNym(name);
      if (nym == nullptr) {
        std::printf("error: no nym '%s'\n", name.c_str());
        continue;
      }
      Website& site = bed.sites().ByName(site_name);
      bool done = false;
      SimTime start = bed.sim().now();
      nym->browser()->Visit(site, [&](Result<SimTime> result) {
        if (result.ok()) {
          std::printf("loaded %s in %.1fs; tracker saw source=%s\n",
                      site.profile().domain.c_str(), ToSeconds(bed.sim().now() - start),
                      site.tracker_log().back().observed_source.ToString().c_str());
        } else {
          std::printf("error: %s\n", result.status().ToString().c_str());
        }
        done = true;
      });
      bed.sim().RunUntil([&] { return done; });
    } else if (command == "login") {
      std::string name, site_name, account, password;
      in >> name >> site_name >> account >> password;
      Nym* nym = bed.manager().FindNym(name);
      if (nym == nullptr) {
        std::printf("error: no nym '%s'\n", name.c_str());
        continue;
      }
      bool done = false;
      nym->browser()->Login(bed.sites().ByName(site_name), account, password,
                            [&](Result<SimTime> result) {
                              std::printf(result.ok() ? "logged in as %s\n" : "error: %s\n",
                                          result.ok()
                                              ? account.c_str()
                                              : result.status().ToString().c_str());
                              done = true;
                            });
      bed.sim().RunUntil([&] { return done; });
    } else if (command == "account") {
      std::string user, password;
      in >> user >> password;
      Status status = bed.cloud().CreateAccount(user, password);
      std::printf(status.ok() ? "cloud account '%s' created\n" : "error: %s\n",
                  status.ok() ? user.c_str() : status.ToString().c_str());
    } else if (command == "save") {
      std::string name, user, cloud_password, nym_password;
      in >> name >> user >> cloud_password >> nym_password;
      Nym* nym = bed.manager().FindNym(name);
      if (nym == nullptr) {
        std::printf("error: no nym '%s'\n", name.c_str());
        continue;
      }
      bool done = false;
      bed.manager().SaveNymToCloud(*nym, bed.cloud(), user, cloud_password, nym_password,
                                   [&](Result<SaveReceipt> receipt) {
                                     if (receipt.ok()) {
                                       std::printf("saved '%s': %s encrypted (seq %u, "
                                                   "AnonVM %.0f%%)\n",
                                                   name.c_str(),
                                                   FormatSize(receipt->logical_size).c_str(),
                                                   receipt->sequence,
                                                   100 * receipt->anonvm_fraction);
                                     } else {
                                       std::printf("error: %s\n",
                                                   receipt.status().ToString().c_str());
                                     }
                                     done = true;
                                   });
      bed.sim().RunUntil([&] { return done; });
    } else if (command == "load") {
      std::string name, user, cloud_password, nym_password;
      in >> name >> user >> cloud_password >> nym_password;
      bool done = false;
      bed.manager().LoadNymFromCloud(
          name, bed.cloud(), user, cloud_password, nym_password, {},
          [&](Result<Nym*> nym, NymStartupReport report) {
            if (nym.ok()) {
              std::printf("restored '%s' in %.1fs [ephemeral %.1fs, boot %.1fs, "
                          "anonymizer %.1fs]\n",
                          name.c_str(), ToSeconds(report.Total()),
                          ToSeconds(report.ephemeral_nym), ToSeconds(report.boot_vm),
                          ToSeconds(report.start_anonymizer));
            } else {
              std::printf("error: %s\n", nym.status().ToString().c_str());
            }
            done = true;
          });
      bed.sim().RunUntil([&] { return done; });
    } else if (command == "terminate") {
      std::string name;
      in >> name;
      Nym* nym = bed.manager().FindNym(name);
      if (nym == nullptr) {
        std::printf("error: no nym '%s'\n", name.c_str());
        continue;
      }
      Status status = bed.manager().TerminateNym(nym);
      std::printf(status.ok() ? "terminated '%s' (memory wiped)\n" : "error: %s\n",
                  status.ok() ? name.c_str() : status.ToString().c_str());
    } else if (command == "probe") {
      std::string name;
      in >> name;
      Nym* nym = bed.manager().FindNym(name);
      if (nym == nullptr) {
        std::printf("error: no nym '%s'\n", name.c_str());
        continue;
      }
      LeakProbeResult result = ProbeAnonVmIsolation(bed.sim(), bed.host(), *nym, nullptr);
      std::printf("probes: %zu sent, %zu answered, %llu dropped by CommVM -> %s\n",
                  result.probes_sent, result.responses_received,
                  static_cast<unsigned long long>(result.dropped_by_commvm),
                  result.responses_received == 0 ? "ISOLATED" : "LEAK!");
    } else if (command == "resolve") {
      std::string name, domain;
      in >> name >> domain;
      Nym* nym = bed.manager().FindNym(name);
      if (nym == nullptr) {
        std::printf("error: no nym '%s'\n", name.c_str());
        continue;
      }
      bool done = false;
      nym->dns()->Resolve(domain, [&](Result<Ipv4Address> ip) {
        std::printf(ip.ok() ? "%s -> %s (via %s)\n" : "error: %s\n",
                    ip.ok() ? domain.c_str() : ip.status().ToString().c_str(),
                    ip.ok() ? ip->ToString().c_str() : "",
                    DnsProxy::TransportName(nym->dns()->transport()).data());
        done = true;
      });
      bed.sim().RunUntil([&] { return done; });
    } else if (command == "status") {
      bed.host().ksm().ScanNow();
      std::printf("t=%.1fs | nyms: %zu | host memory %s / %s | KSM saved %s\n",
                  ToSeconds(bed.sim().now()), bed.manager().nyms().size(),
                  FormatSize(bed.host().UsedMemoryBytes()).c_str(),
                  FormatSize(kHostRamBytes).c_str(),
                  FormatSize(bed.host().ksm().stats().bytes_saved()).c_str());
      for (Nym* nym : bed.manager().nyms()) {
        std::printf("  %-16s %-10s %-12s seq=%u\n", nym->name().c_str(),
                    nym->anonymizer()->Name().data(), NymModeName(nym->mode()).data(),
                    nym->save_sequence());
      }
      CaptureAudit audit = AuditUplinkCapture(capture);
      std::printf("  uplink audit: %s |", audit.Passed() ? "PASS" : "FAIL");
      for (const auto& [annotation, count] : audit.histogram) {
        std::printf(" %s=%zu", annotation.c_str(), count);
      }
      std::printf("\n");
    } else {
      std::printf("unknown command '%s' (try 'help')\n", command.c_str());
    }
  }
  std::printf("nymix> session over at t=%.1fs; %zu nyms left running\n",
              ToSeconds(bed.sim().now()), bed.manager().nyms().size());
  return 0;
}
