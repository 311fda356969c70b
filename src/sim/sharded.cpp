#include "sim/sharded.hpp"

#include <algorithm>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>

#include "common/rng.hpp"

namespace vecycle::sim {

ShardPlan ShardPlan::Build(std::vector<std::string> keys,
                           std::uint32_t shard_count, std::uint64_t seed) {
  VEC_CHECK_MSG(shard_count > 0, "shard plan needs at least one shard");
  std::sort(keys.begin(), keys.end());
  VEC_CHECK_MSG(
      std::adjacent_find(keys.begin(), keys.end()) == keys.end(),
      "duplicate key in shard plan");
  // Fisher-Yates over the sorted keys: the shuffle is a pure function of
  // (key set, seed), so the partition replays identically everywhere.
  Xoshiro256 rng(seed);
  for (std::size_t i = keys.size(); i > 1; --i) {
    const std::size_t j = static_cast<std::size_t>(rng.NextBelow(i));
    std::swap(keys[i - 1], keys[j]);
  }
  ShardPlan plan;
  plan.shard_count_ = shard_count;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    plan.assignment_.emplace(std::move(keys[i]),
                             static_cast<ShardId>(i % shard_count));
  }
  return plan;
}

void ShardPlan::Assign(const std::string& key, ShardId shard) {
  assignment_[key] = shard;
  shard_count_ = std::max(shard_count_, shard + 1);
}

void ShardPlan::Validate() const {
  VEC_CHECK_MSG(shard_count_ > 0, "shard plan needs at least one shard");
  for (const auto& [key, shard] : assignment_) {
    VEC_CHECK_MSG(shard < shard_count_,
                  "shard assignment out of range for key: " + key);
  }
}

std::size_t ThreadsFromEnv() {
  const char* raw = std::getenv("VECYCLE_THREADS");
  if (raw == nullptr || *raw == '\0') return 1;
  char* end = nullptr;
  const unsigned long value = std::strtoul(raw, &end, 10);
  if (end == raw || *end != '\0') return 1;
  return std::clamp<std::size_t>(static_cast<std::size_t>(value), 1, 64);
}

ShardedSimulator::ShardedSimulator(std::uint32_t shard_count) {
  VEC_CHECK_MSG(shard_count > 0, "need at least one shard");
  shards_.reserve(shard_count);
  mailboxes_.reserve(shard_count);
  for (std::uint32_t s = 0; s < shard_count; ++s) {
    shards_.push_back(std::make_unique<Simulator>());
    mailboxes_.push_back(std::make_unique<pdes_internal::Mailbox>());
  }
}

ShardedSimulator::~ShardedSimulator() = default;

void ShardedSimulator::Post(ShardId from, ShardId to, SimTime when,
                            std::function<void()> action) {
  VEC_CHECK_MSG(from < shards_.size() && to < shards_.size(),
                "shard id out of range");
  // The conservative contract: anything posted during the window [T, E)
  // arrives at or after E, because the lookahead is the minimum
  // cross-shard latency. A violation here means a cross-shard path
  // shorter than the lookahead slipped past the planner.
  VEC_CHECK_MSG(when >= window_end_,
                "cross-shard message inside the lookahead window");
  pdes_internal::Mailbox& mailbox = *mailboxes_[from];
  common::LockGuard lock(mailbox.mu);
  mailbox.posts.push_back(pdes_internal::Posted{to, when, std::move(action)});
}

DeliveryExecutor& ShardedSimulator::Route(ShardId from, ShardId to) {
  VEC_CHECK_MSG(from < shards_.size() && to < shards_.size(),
                "shard id out of range");
  auto& route = routes_[{from, to}];
  if (route == nullptr) {
    route = std::make_unique<MailboxRoute>(this, from, to);
  }
  return *route;
}

std::size_t ShardedSimulator::DrainMailboxes(SimTime window_end) {
  std::size_t merged = 0;
  // Source shard id ascending, post order within a source: the one true
  // merge order. Target-queue sequence numbers — and with them every
  // same-timestamp tie-break — depend only on it, never on worker count.
  for (std::size_t from = 0; from < mailboxes_.size(); ++from) {
    std::vector<pdes_internal::Posted> taken;
    {
      common::LockGuard lock(mailboxes_[from]->mu);
      taken.swap(mailboxes_[from]->posts);
    }
    for (auto& post : taken) {
      VEC_CHECK_MSG(post.when >= window_end,
                    "cross-shard message lands inside an executed window");
      shards_[post.to]->ScheduleAt(post.when, std::move(post.action));
      ++merged;
    }
  }
  return merged;
}

/// Run()'s worker pool. The coordinator publishes a job — one call per
/// shard — under a new generation; worker w runs it for the shards
/// {s : s % size == w} and reports back. The condition-variable pair is
/// the happens-before edge that lets workers read what the coordinator
/// wrote before publishing (window_end_, barrier task lists) and the
/// coordinator read shard state afterwards without further locking.
struct ShardedSimulator::Pool {
  std::mutex mu;
  std::condition_variable work_ready;
  std::condition_variable job_done;
  std::uint64_t generation = 0;
  std::size_t remaining = 0;
  const ShardTask* job = nullptr;
  bool stop = false;
  /// One slot per shard, written only by the worker that owns the shard.
  std::vector<std::exception_ptr> errors;
  std::vector<std::thread> threads;
};

void ShardedSimulator::ForEachShard(const ShardTask& task) {
  std::exception_ptr lowest;
  if (pool_ == nullptr) {
    for (ShardId s = 0; s < ShardCount(); ++s) {
      try {
        task(s);
      } catch (...) {
        if (lowest == nullptr) lowest = std::current_exception();
      }
    }
  } else {
    Pool& pool = *pool_;
    {
      std::lock_guard<std::mutex> lock(pool.mu);
      pool.job = &task;
      ++pool.generation;
      pool.remaining = pool.threads.size();
    }
    pool.work_ready.notify_all();
    {
      std::unique_lock<std::mutex> lock(pool.mu);
      pool.job_done.wait(lock, [&pool] { return pool.remaining == 0; });
      pool.job = nullptr;
    }
    for (auto& error : pool.errors) {
      if (lowest == nullptr) lowest = error;
      error = nullptr;
    }
  }
  if (lowest != nullptr) std::rethrow_exception(lowest);
}

SimTime ShardedSimulator::Run(std::size_t workers, SimDuration lookahead,
                              const ControlFn& control) {
  VEC_CHECK_MSG(lookahead > SimDuration::zero(),
                "PDES lookahead must be positive");
  const std::size_t shard_count = shards_.size();
  const std::size_t pool_size =
      std::min(workers == 0 ? std::size_t{1} : workers, shard_count);

  Pool pool;
  const auto stop_pool = [this, &pool] {
    pool_ = nullptr;
    if (pool.threads.empty()) return;
    {
      std::lock_guard<std::mutex> lock(pool.mu);
      pool.stop = true;
    }
    pool.work_ready.notify_all();
    for (auto& thread : pool.threads) thread.join();
    pool.threads.clear();
  };

  SimTime control_wake = kNoPendingEvent;
  try {
    if (pool_size > 1) {
      pool.errors.resize(shard_count);
      pool.threads.reserve(pool_size);
      for (std::size_t w = 0; w < pool_size; ++w) {
        // Worker w owns shards {s : s % pool_size == w} — a fixed
        // mapping, though any mapping would do: shards share nothing
        // inside a window, and barrier tasks touch only their shard.
        pool.threads.emplace_back([this, &pool, w, pool_size, shard_count] {
          std::uint64_t seen = 0;
          while (true) {
            const ShardTask* job = nullptr;
            {
              std::unique_lock<std::mutex> lock(pool.mu);
              pool.work_ready.wait(lock, [&pool, seen] {
                return pool.stop || pool.generation != seen;
              });
              if (pool.stop) return;
              seen = pool.generation;
              job = pool.job;
            }
            for (std::size_t s = w; s < shard_count; s += pool_size) {
              try {
                (*job)(static_cast<ShardId>(s));
              } catch (...) {
                pool.errors[s] = std::current_exception();
              }
            }
            {
              std::lock_guard<std::mutex> lock(pool.mu);
              if (--pool.remaining == 0) pool.job_done.notify_one();
            }
          }
        });
      }
      pool_ = &pool;
    }

    while (true) {
      SimTime window_start = NextEventTime();
      if (control_wake < window_start) window_start = control_wake;
      if (window_start == kNoPendingEvent) break;
      const SimTime window_end = window_start + lookahead;
      window_end_ = window_end;

      ForEachShard([this, window_end](ShardId shard) {
        shards_[shard]->RunWindow(window_end);
      });

      DrainMailboxes(window_end);
      if (control != nullptr) {
        control_wake = control(window_end);
        VEC_CHECK_MSG(control_wake > window_end,
                      "control wake must be after the barrier");
        // The control plane may have started sessions whose setup posted
        // cross-shard work; merge it before the next window is chosen.
        DrainMailboxes(window_end);
      }
    }
  } catch (...) {
    stop_pool();
    throw;
  }
  stop_pool();
  return MaxNow();
}

void ShardedSimulator::AdvanceAllTo(SimTime deadline) {
  // Quiescent advance for the periods between Drain() calls, when VMs
  // churn in place: every event is shard-local, so the shards can run
  // serially with no windows. An occupied mailbox afterwards means a
  // migration was still in flight — that is a caller bug (Drain first).
  for (auto& shard : shards_) shard->RunUntil(deadline);
  for (const auto& mailbox : mailboxes_) {
    common::LockGuard lock(mailbox->mu);
    VEC_CHECK_MSG(mailbox->posts.empty(),
                  "cross-shard traffic during a quiescent advance");
  }
}

SimTime ShardedSimulator::MaxNow() const {
  SimTime latest = kSimEpoch;
  for (const auto& shard : shards_) latest = std::max(latest, shard->Now());
  return latest;
}

SimTime ShardedSimulator::NextEventTime() const {
  SimTime earliest = kNoPendingEvent;
  for (const auto& shard : shards_) {
    earliest = std::min(earliest, shard->NextEventTime());
  }
  return earliest;
}

}  // namespace vecycle::sim
