#include "cpu_rotation.hpp"

namespace perfbench {

CpuRotation::CpuRotation(std::chrono::milliseconds period)
    : target_(pthread_self()) {
  if (pthread_getaffinity_np(target_, sizeof(original_), &original_) != 0) {
    return;
  }
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &original_)) cpus_.push_back(cpu);
  }
  if (cpus_.size() < 2) return;
  rotator_ = std::thread([this, period] { Loop(period); });
}

CpuRotation::~CpuRotation() {
  if (!rotator_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  wake_.notify_one();
  rotator_.join();
  pthread_setaffinity_np(target_, sizeof(original_), &original_);
}

void CpuRotation::Loop(std::chrono::milliseconds period) {
  std::size_t next = 0;
  std::unique_lock<std::mutex> lock(mu_);
  while (!wake_.wait_for(lock, period, [this] { return stop_; })) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next], &one);
    // Best effort: a failed move only leaves the thread where it was.
    (void)pthread_setaffinity_np(target_, sizeof(one), &one);
    next = (next + 1) % cpus_.size();
  }
}

}  // namespace perfbench
