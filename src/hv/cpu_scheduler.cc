#include "src/hv/cpu_scheduler.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/util/check.h"

namespace nymix {

CpuScheduler::CpuScheduler(EventLoop& loop, uint32_t cores, double virtualization_overhead)
    : loop_(loop), cores_(cores), virt_overhead_(virtualization_overhead) {
  NYMIX_CHECK(cores_ > 0);
  NYMIX_CHECK(virt_overhead_ >= 0.0);
}

bool CpuScheduler::LoadPhase(Task& task) const {
  while (task.phase_index < task.phases.size()) {
    const CpuPhase& phase = task.phases[task.phase_index];
    double cost = static_cast<double>(phase.native_duration);
    if (task.virtualized) {
      // Guests pay the overhead on every phase: compute slows by trap/exit
      // cost, and "idle" render/IO phases slow at least as much under
      // device emulation. Wall time scales by (1 + overhead), the paper's
      // "about a 20% overhead".
      cost *= 1.0 + virt_overhead_;
    }
    if (cost > 0) {
      task.remaining_us = cost;
      return true;
    }
    ++task.phase_index;  // skip zero-length phases
  }
  return false;
}

CpuTaskId CpuScheduler::Submit(std::vector<CpuPhase> phases, bool virtualized,
                               std::function<void(SimTime)> done) {
  Settle();
  CpuTaskId id = next_id_++;
  Task task;
  task.phases = std::move(phases);
  task.virtualized = virtualized;
  task.done = std::move(done);
  if (!LoadPhase(task)) {
    // Empty task: completes immediately (still asynchronously).
    auto callback = std::move(task.done);
    loop_.ScheduleAfter(0, [callback, this] {
      if (callback) {
        callback(loop_.now());
      }
    });
    return id;
  }
  tasks_.emplace(id, std::move(task));
  Reschedule();
  return id;
}

size_t CpuScheduler::runnable_tasks() const {
  return static_cast<size_t>(
      std::count_if(tasks_.begin(), tasks_.end(), [](const auto& entry) {
        return entry.second.phases[entry.second.phase_index].is_compute;
      }));
}

void CpuScheduler::Settle() {
  SimTime now = loop_.now();
  if (now == last_settle_) {
    return;
  }
  double elapsed_us = static_cast<double>(now - last_settle_);
  last_settle_ = now;

  std::vector<CpuTaskId> finished;
  for (auto& [id, task] : tasks_) {
    const CpuPhase& phase = task.phases[task.phase_index];
    double progress = phase.is_compute ? elapsed_us * task.speed : elapsed_us;
    task.remaining_us -= progress;
    if (task.remaining_us <= 1e-6) {
      ++task.phase_index;
      if (!LoadPhase(task)) {
        finished.push_back(id);
      }
    }
  }
  for (CpuTaskId id : finished) {
    auto node = tasks_.extract(id);
    if (node.mapped().done) {
      node.mapped().done(now);
    }
  }
}

void CpuScheduler::Reschedule() {
  if (has_pending_event_) {
    loop_.Cancel(pending_event_);
    has_pending_event_ = false;
  }
  size_t runnable = runnable_tasks();
  double share = runnable == 0 ? 0.0
                               : std::min(1.0, static_cast<double>(cores_) /
                                                   static_cast<double>(runnable));

  double min_eta_us = std::numeric_limits<double>::infinity();
  for (auto& [id, task] : tasks_) {
    (void)id;
    const CpuPhase& phase = task.phases[task.phase_index];
    if (phase.is_compute) {
      task.speed = share;
      if (share > 0) {
        min_eta_us = std::min(min_eta_us, task.remaining_us / share);
      }
    } else {
      task.speed = 0;
      min_eta_us = std::min(min_eta_us, task.remaining_us);
    }
  }
  if (std::isfinite(min_eta_us)) {
    SimDuration delay = static_cast<SimDuration>(min_eta_us) + 1;
    pending_event_ = loop_.ScheduleAfter(delay, [this] {
      has_pending_event_ = false;
      Settle();
      Reschedule();
    });
    has_pending_event_ = true;
  }
}

}  // namespace nymix
