// Virtual time. All Nymix latencies (VM boot phases, circuit handshakes,
// flow completions) are expressed against one SimClock owned by the
// simulation's EventLoop, so experiments are deterministic and run in
// milliseconds of wall time while reporting realistic virtual durations.
#ifndef SRC_UTIL_SIM_CLOCK_H_
#define SRC_UTIL_SIM_CLOCK_H_

#include <cstdint>

namespace nymix {

// Durations and timestamps are microseconds of virtual time.
using SimDuration = int64_t;
using SimTime = int64_t;

constexpr SimDuration Micros(int64_t n) { return n; }
constexpr SimDuration Millis(int64_t n) { return n * 1000; }
constexpr SimDuration Seconds(int64_t n) { return n * 1000 * 1000; }
constexpr SimDuration SecondsF(double s) { return static_cast<SimDuration>(s * 1e6); }

constexpr double ToSeconds(SimDuration d) { return static_cast<double>(d) / 1e6; }

class SimClock {
 public:
  SimTime now() const { return now_; }

  // Only the EventLoop advances time; components never move it backwards.
  void AdvanceTo(SimTime t) {
    if (t > now_) {
      now_ = t;
    }
  }

 private:
  SimTime now_ = 0;
};

}  // namespace nymix

#endif  // SRC_UTIL_SIM_CLOCK_H_
