// The §5.2 bandwidth workload: "we download the current Linux kernel
// version 3.14.2, from a server running within DeterLab in order to
// guarantee the 10 Mbit download rate" (Figure 5).
#ifndef SRC_WORKLOAD_DOWNLOADER_H_
#define SRC_WORKLOAD_DOWNLOADER_H_

#include "src/anon/anonymizer.h"

namespace nymix {

// linux-3.14.2.tar.xz.
inline constexpr uint64_t kLinuxKernelTarballBytes = 78'000'000;
inline constexpr char kKernelMirrorDomain[] = "mirror.deterlab.net";

class KernelMirror : public InternetHost {
 public:
  explicit KernelMirror(Simulation& sim);

  Ipv4Address ip() const { return ip_; }
  // nymlint:allow(dead-api): tests count mirror downloads
  size_t downloads_served() const { return downloads_served_; }
  void CountDownload() { ++downloads_served_; }

  void OnDatagram(const Packet& packet, const std::function<void(Packet)>& reply) override;

 private:
  Link* access_link_;
  Ipv4Address ip_;
  size_t downloads_served_ = 0;
};

// Downloads the kernel through `anonymizer`; `done` gets the elapsed
// virtual seconds.
void DownloadKernel(Anonymizer& anonymizer, KernelMirror& mirror, Simulation& sim,
                    std::function<void(Result<double>)> done);

}  // namespace nymix

#endif  // SRC_WORKLOAD_DOWNLOADER_H_
