#include "src/net/capture.h"

#include <algorithm>

namespace nymix {

void PacketCapture::Record(SimTime time, const Packet& packet) {
  packets_.push_back(CapturedPacket{time, packet});
}

size_t PacketCapture::CountAnnotation(std::string_view annotation) const {
  return static_cast<size_t>(
      std::count_if(packets_.begin(), packets_.end(), [&](const CapturedPacket& captured) {
        return captured.packet.annotation == annotation;
      }));
}

std::map<std::string, size_t> PacketCapture::AnnotationHistogram() const {
  std::map<std::string, size_t> histogram;
  for (const auto& captured : packets_) {
    ++histogram[captured.packet.annotation];
  }
  return histogram;
}

bool PacketCapture::OnlyContains(const std::vector<std::string>& allowed) const {
  return std::all_of(packets_.begin(), packets_.end(), [&](const CapturedPacket& captured) {
    return std::find(allowed.begin(), allowed.end(), captured.packet.annotation) != allowed.end();
  });
}

}  // namespace nymix
