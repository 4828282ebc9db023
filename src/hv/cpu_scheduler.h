// CpuScheduler: proportional-share scheduling of compute tasks over a fixed
// core count, the substrate behind Figure 4. A task is a sequence of
// compute and idle phases (a Peacekeeper run alternates JavaScript kernels
// with DOM/paint idle gaps). Virtualized tasks pay a multiplicative
// overhead on compute time ("virtualization incurs about a 20% overhead").
// Because idle gaps of concurrent VMs interleave, N parallel runs finish
// sooner than the naive N/cores scaling predicts — exactly the paper's
// "actual performance outperforms the expected results".
#ifndef SRC_HV_CPU_SCHEDULER_H_
#define SRC_HV_CPU_SCHEDULER_H_

#include <functional>
#include <map>
#include <vector>

#include "src/util/event_loop.h"

namespace nymix {

struct CpuPhase {
  bool is_compute = true;
  // Duration when executed natively at full speed on one core.
  SimDuration native_duration = 0;

  static CpuPhase Compute(SimDuration d) { return CpuPhase{true, d}; }
  static CpuPhase Idle(SimDuration d) { return CpuPhase{false, d}; }
};

using CpuTaskId = uint64_t;

class CpuScheduler {
 public:
  CpuScheduler(EventLoop& loop, uint32_t cores, double virtualization_overhead);

  uint32_t cores() const { return cores_; }
  double virtualization_overhead() const { return virt_overhead_; }

  // Submits a task; `virtualized` applies the overhead factor to compute
  // phases. `done` fires with the completion time.
  CpuTaskId Submit(std::vector<CpuPhase> phases, bool virtualized,
                   std::function<void(SimTime)> done);

  size_t runnable_tasks() const;

 private:
  struct Task {
    std::vector<CpuPhase> phases;
    size_t phase_index = 0;
    double remaining_us = 0;  // remaining work/idle in current phase
    double speed = 0;         // core share while computing (0..1)
    bool virtualized = false;
    std::function<void(SimTime)> done;
  };

  void Settle();
  void Reschedule();
  // Loads the current phase's cost into remaining_us; true if a phase
  // exists, false if the task is complete.
  bool LoadPhase(Task& task) const;

  EventLoop& loop_;
  uint32_t cores_;
  double virt_overhead_;
  std::map<CpuTaskId, Task> tasks_;
  CpuTaskId next_id_ = 1;
  SimTime last_settle_ = 0;
  uint64_t pending_event_ = 0;
  bool has_pending_event_ = false;
};

}  // namespace nymix

#endif  // SRC_HV_CPU_SCHEDULER_H_
