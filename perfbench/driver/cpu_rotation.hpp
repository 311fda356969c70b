// Rotates one thread across the CPUs the process may use.
//
// On a shared host the cores of one machine run at different and changing
// speeds (their hyperthread siblings belong to other tenants): a 150 M-write
// vm::HotspotWorkload loop pinned to each of 4 vCPUs in turn took 0.92 s to
// 1.56 s. A single-threaded run that the kernel leaves on one core measures
// that core, so runs minutes apart disagree by up to 30%. Moving the thread
// to the next allowed CPU every few milliseconds makes each run measure the
// machine's average core instead. Host time only; no model output depends
// on where a thread runs.
#pragma once

#include <pthread.h>
#include <sched.h>

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

namespace perfbench {

class CpuRotation {
 public:
  /// Starts rotating the calling thread every `period`. A no-op when the
  /// process may use only one CPU or its affinity cannot be read.
  explicit CpuRotation(std::chrono::milliseconds period);
  ~CpuRotation();

  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;
  CpuRotation(CpuRotation&&) = delete;
  CpuRotation& operator=(CpuRotation&&) = delete;

 private:
  void Loop(std::chrono::milliseconds period);

  pthread_t target_;
  cpu_set_t original_{};
  std::vector<int> cpus_;
  std::mutex mu_;
  std::condition_variable wake_;
  bool stop_ = false;  ///< guarded by mu_
  std::thread rotator_;  ///< declared last: uses every member above
};

}  // namespace perfbench
