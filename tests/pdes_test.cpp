// Conservative-PDES sharding: ShardPlan determinism and validation, the
// barrier-window lookahead contract, the barrier parallel-for
// (ForEachShard), cross-shard migration sessions, and the worker-count
// determinism sweep (ReplayCheck::VerifyWorkers) with and without
// intra-shard faults and over warm ping-pong legs, and the refusal of
// flag- and env-armed tracing. Also covers the saturating retry-backoff
// arithmetic the PDES control plane shares with the serial scheduler.
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "audit/replay.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "core/cluster.hpp"
#include "core/orchestrator.hpp"
#include "core/scheduler.hpp"
#include "core/vm_instance.hpp"
#include "fault/fault.hpp"
#include "obs/metrics.hpp"
#include "sim/link.hpp"
#include "sim/sharded.hpp"
#include "vm/guest_memory.hpp"
#include "vm/workload.hpp"

namespace vecycle::core {
namespace {

// --- ShardPlan ---------------------------------------------------------

TEST(ShardPlan, BuildIsAPureFunctionOfKeySetSeedAndShardCount) {
  const std::vector<std::string> keys = {"h3", "h1", "h7", "h0", "h5",
                                         "h2", "h9", "h4", "h8", "h6"};
  std::vector<std::string> shuffled = {"h9", "h0", "h4", "h2", "h6",
                                       "h8", "h1", "h5", "h3", "h7"};
  const auto plan = sim::ShardPlan::Build(keys, 4, 42);
  const auto replayed = sim::ShardPlan::Build(shuffled, 4, 42);
  EXPECT_EQ(plan.ShardCount(), 4u);
  EXPECT_EQ(plan.KeyCount(), keys.size());
  for (const auto& key : keys) {
    EXPECT_EQ(plan.ShardOf(key), replayed.ShardOf(key))
        << "insertion order leaked into the partition for " << key;
    EXPECT_LT(plan.ShardOf(key), 4u);
  }
  // A different seed reshuffles (with ten keys on four shards the odds of
  // an identical partition by chance are negligible).
  const auto reseeded = sim::ShardPlan::Build(keys, 4, 43);
  bool any_moved = false;
  for (const auto& key : keys) {
    any_moved = any_moved || reseeded.ShardOf(key) != plan.ShardOf(key);
  }
  EXPECT_TRUE(any_moved);
}

TEST(ShardPlan, ValidateRejectsEmptyAndUncoveringPlans) {
  // A default ShardPlan has zero shards — no sharded run could use it.
  sim::ShardPlan empty;
  EXPECT_THROW(empty.Validate(), CheckFailure);
  EXPECT_THROW(sim::ShardPlan::Build({"a"}, 0, 1), CheckFailure);
  EXPECT_THROW(sim::ShardPlan::Build({"a", "a"}, 2, 1), CheckFailure);

  sim::ShardPlan plan;
  plan.Assign("a", 0);
  plan.Assign("b", 2);  // grows the shard count to 3
  plan.Validate();
  EXPECT_EQ(plan.ShardCount(), 3u);
  EXPECT_TRUE(plan.Covers("a"));
  EXPECT_FALSE(plan.Covers("c"));
  EXPECT_THROW(plan.ShardOf("c"), CheckFailure);
}

// --- ShardedSimulator windows ------------------------------------------

TEST(ShardedSimulator, CrossShardPostsLandAfterTheLookaheadWindow) {
  // Shard 1 runs a local event in the first window; shard 0 posts it more
  // work for after the barrier, honouring the lookahead.
  std::vector<int> order;
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2}}) {
    order.clear();
    sim::ShardedSimulator fresh(2);
    fresh.Shard(1).ScheduleAt(kSimEpoch + Milliseconds(1.0),
                              [&] { order.push_back(1); });
    fresh.Shard(0).ScheduleAt(kSimEpoch + Milliseconds(2.0), [&] {
      fresh.Post(0, 1, kSimEpoch + Milliseconds(12.0),
                 [&] { order.push_back(2); });
    });
    fresh.Run(workers, Milliseconds(10.0));
    EXPECT_EQ(order, (std::vector<int>{1, 2})) << workers << " workers";
    EXPECT_GE(fresh.MaxNow(), kSimEpoch + Milliseconds(12.0));
  }
}

TEST(ShardedSimulator, PostInsideTheWindowViolatesTheContract) {
  sim::ShardedSimulator pdes(2);
  // An event at t=1ms posting for t=2ms: inside the [1ms, 11ms) window —
  // exactly what the conservative lookahead forbids.
  pdes.Shard(0).ScheduleAt(kSimEpoch + Milliseconds(1.0), [&] {
    pdes.Post(0, 1, kSimEpoch + Milliseconds(2.0), [] {});
  });
  EXPECT_THROW(pdes.Run(1, Milliseconds(10.0)), CheckFailure);
}

// --- The barrier parallel-for (ForEachShard) ---------------------------

/// Schedules one event per shard at t = 1 ms that records which thread
/// ran the shard's window.
void RecordWindowThreads(sim::ShardedSimulator& pdes,
                         std::vector<std::thread::id>& threads) {
  threads.assign(pdes.ShardCount(), std::thread::id{});
  for (sim::ShardId s = 0; s < pdes.ShardCount(); ++s) {
    pdes.Shard(s).ScheduleAt(kSimEpoch + Milliseconds(1.0), [&threads, s] {
      threads[s] = std::this_thread::get_id();
    });
  }
}

TEST(ShardedSimulator, BarrierTasksRunOncePerShardOnTheWindowWorker) {
  constexpr std::uint32_t kShards = 6;
  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(std::to_string(workers) + " workers");
    sim::ShardedSimulator pdes(kShards);
    std::vector<std::thread::id> window_threads;
    RecordWindowThreads(pdes, window_threads);
    std::vector<int> calls(kShards, 0);
    std::vector<std::thread::id> task_threads(kShards);
    std::vector<sim::ShardId> inline_order;
    std::size_t barriers = 0;
    pdes.Run(workers, Milliseconds(10.0), [&](SimTime) {
      ++barriers;
      for (int round = 0; round < 2; ++round) {
        pdes.ForEachShard([&](sim::ShardId shard) {
          ++calls[shard];
          task_threads[shard] = std::this_thread::get_id();
          if (workers <= 1) inline_order.push_back(shard);
        });
      }
      return sim::kNoPendingEvent;
    });
    ASSERT_EQ(barriers, 1u);
    for (sim::ShardId s = 0; s < kShards; ++s) {
      EXPECT_EQ(calls[s], 2) << "shard " << s;
      // A shard's barrier work runs where its windows run.
      EXPECT_EQ(task_threads[s], window_threads[s]) << "shard " << s;
    }
    if (workers <= 1) {
      EXPECT_EQ(task_threads[0], std::this_thread::get_id());
      EXPECT_EQ(inline_order, (std::vector<sim::ShardId>{0, 1, 2, 3, 4, 5,
                                                         0, 1, 2, 3, 4, 5}));
    } else {
      EXPECT_NE(task_threads[1], std::this_thread::get_id());
    }
  }

  // Outside Run() the tasks run inline, in shard order.
  sim::ShardedSimulator idle(3);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<sim::ShardId> order;
  idle.ForEachShard([&](sim::ShardId shard) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(shard);
  });
  EXPECT_EQ(order, (std::vector<sim::ShardId>{0, 1, 2}));
}

TEST(ShardedSimulator, BarrierTaskErrorReachesTheCoordinatorAfterEveryTask) {
  constexpr std::uint32_t kShards = 6;
  // Shards 2 and 5 throw; the lowest one's exception surfaces, and only
  // once every other shard's task has finished.
  const auto task = [](std::vector<int>& ran) {
    return [&ran](sim::ShardId shard) {
      ran[shard] = 1;
      if (shard == 2 || shard == 5) {
        throw std::runtime_error("shard " + std::to_string(shard));
      }
    };
  };
  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(std::to_string(workers) + " workers");
    sim::ShardedSimulator pdes(kShards);
    std::vector<std::thread::id> window_threads;
    RecordWindowThreads(pdes, window_threads);
    std::vector<int> ran(kShards, 0);
    std::string caught;
    try {
      pdes.Run(workers, Milliseconds(10.0), [&](SimTime) {
        pdes.ForEachShard(task(ran));
        return sim::kNoPendingEvent;
      });
    } catch (const std::runtime_error& error) {
      caught = error.what();
    }
    EXPECT_EQ(caught, "shard 2");
    EXPECT_EQ(ran, std::vector<int>(kShards, 1));

    // The pool is gone with the failed Run(); the next one starts afresh.
    RecordWindowThreads(pdes, window_threads);
    std::vector<int> calls(kShards, 0);
    pdes.Run(workers, Milliseconds(10.0), [&](SimTime) {
      pdes.ForEachShard([&](sim::ShardId shard) { ++calls[shard]; });
      return sim::kNoPendingEvent;
    });
    EXPECT_EQ(calls, std::vector<int>(kShards, 1));
    for (sim::ShardId s = 0; s < kShards; ++s) {
      EXPECT_NE(window_threads[s], std::thread::id{}) << "shard " << s;
    }
  }

  // Outside Run() the inline path keeps the same contract.
  sim::ShardedSimulator idle(kShards);
  std::vector<int> ran(kShards, 0);
  try {
    idle.ForEachShard(task(ran));
    ADD_FAILURE() << "ForEachShard swallowed the tasks' exceptions";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "shard 2");
  }
  EXPECT_EQ(ran, std::vector<int>(kShards, 1));
}

// --- Worker-count environment knob -------------------------------------

TEST(ShardedSimulator, ThreadsFromEnvParsesAndClamps) {
  const char* saved = std::getenv("VECYCLE_THREADS");
  const std::string restore = saved == nullptr ? "" : saved;

  ::unsetenv("VECYCLE_THREADS");
  EXPECT_EQ(sim::ThreadsFromEnv(), 1u);
  ::setenv("VECYCLE_THREADS", "4", 1);
  EXPECT_EQ(sim::ThreadsFromEnv(), 4u);
  ::setenv("VECYCLE_THREADS", "0", 1);
  EXPECT_EQ(sim::ThreadsFromEnv(), 1u);
  ::setenv("VECYCLE_THREADS", "9999", 1);
  EXPECT_EQ(sim::ThreadsFromEnv(), 64u);
  ::setenv("VECYCLE_THREADS", "plenty", 1);
  EXPECT_EQ(sim::ThreadsFromEnv(), 1u);

  if (restore.empty()) {
    ::unsetenv("VECYCLE_THREADS");
  } else {
    ::setenv("VECYCLE_THREADS", restore.c_str(), 1);
  }
}

// --- Sharded fleet scenarios -------------------------------------------

std::string HostName(std::uint32_t site, std::uint32_t host) {
  return "s" + std::to_string(site) + "-h" + std::to_string(host);
}

/// A miniature of bench/fleet_pdes: `sites` shards of paired hosts, an
/// inter-site 5 ms ring through each site's gateway (host 0), gateway
/// VMs migrating cross-shard and everyone else to the in-site partner.
/// Returns the combined audit fingerprint folded with the completion
/// count — the number the worker sweep compares.
std::uint64_t RunMiniFleet(std::size_t workers, std::uint32_t sites,
                           std::uint32_t hosts_per_site,
                           std::uint64_t vms_per_host) {
  sim::ShardedSimulator pdes(sites);
  core::Cluster cluster(pdes.Shard(0));
  sim::ShardPlan plan;
  const sim::LinkConfig intersite{GigabitsPerSecond(1.0), Milliseconds(5.0),
                                  Bytes{0}};
  for (std::uint32_t site = 0; site < sites; ++site) {
    for (std::uint32_t host = 0; host < hosts_per_site; ++host) {
      cluster.AddHost({HostName(site, host), sim::DiskConfig::Ssd(), {}, {}, {}});
      plan.Assign(HostName(site, host), site);
    }
    for (std::uint32_t host = 0; host + 1 < hosts_per_site; host += 2) {
      cluster.Connect(HostName(site, host), HostName(site, host + 1),
                      sim::LinkConfig::Lan());
    }
  }
  for (std::uint32_t site = 0; site < sites; ++site) {
    cluster.Connect(HostName(site, 0), HostName((site + 1) % sites, 0),
                    intersite);
  }

  SchedulerConfig sconfig;
  sconfig.workers = workers;
  MigrationScheduler scheduler(cluster, pdes, plan, sconfig);

  migration::MigrationConfig config;
  config.strategy = migration::Strategy::kFull;
  std::vector<std::unique_ptr<VmInstance>> fleet;
  std::uint64_t vm_index = 0;
  for (std::uint32_t site = 0; site < sites; ++site) {
    for (std::uint32_t host = 0; host < hosts_per_site; ++host) {
      for (std::uint64_t v = 0; v < vms_per_host; ++v, ++vm_index) {
        fleet.push_back(std::make_unique<VmInstance>(
            "vm-" + std::to_string(vm_index), MiB(1),
            vm::ContentMode::kSeedOnly));
        Xoshiro256 rng(0x5eed0000 + vm_index);
        vm::MemoryProfile{}.Apply(fleet.back()->Memory(), rng);
        fleet.back()->SetCurrentHost(HostName(site, host));
        const std::string to =
            host == 0 ? HostName((site + 1) % sites, 0)
                      : HostName(site, host % 2 == 0 ? host + 1 : host - 1);
        scheduler.Submit(*fleet.back(), to, config);
      }
    }
  }

  const std::size_t completed = scheduler.Drain();
  VEC_CHECK_MSG(completed == vm_index, "mini fleet: not every VM migrated");
  return SplitMix64(scheduler.CombinedFingerprint() ^ completed).Next();
}

TEST(PdesDeterminism, CrossShardSessionsMatchAcrossOneAndTwoWorkers) {
  audit::ReplayCheck::VerifyWorkers(
      [](std::size_t workers) { return RunMiniFleet(workers, 3, 2, 1); },
      {1, 2});
}

TEST(PdesDeterminism, FleetFingerprintIsIdenticalAtOneTwoFourEightWorkers) {
  audit::ReplayCheck::VerifyWorkers(
      [](std::size_t workers) { return RunMiniFleet(workers, 4, 4, 2); });
}

TEST(PdesDeterminism, WorkerCountFromEnvironmentMatchesExplicitCount) {
  const char* saved = std::getenv("VECYCLE_THREADS");
  const std::string restore = saved == nullptr ? "" : saved;

  // workers == 0 defers to VECYCLE_THREADS — the path CI's threaded ctest
  // leg exercises. The result must match any explicit worker count.
  ::setenv("VECYCLE_THREADS", "2", 1);
  const std::uint64_t via_env = RunMiniFleet(0, 3, 2, 1);
  const std::uint64_t explicit_one = RunMiniFleet(1, 3, 2, 1);
  EXPECT_EQ(via_env, explicit_one);

  if (restore.empty()) {
    ::unsetenv("VECYCLE_THREADS");
  } else {
    ::setenv("VECYCLE_THREADS", restore.c_str(), 1);
  }
}

TEST(PdesDeterminism, IntraShardFaultSweepReplaysAcrossWorkerCounts) {
  // Two shards, each with one flaky intra-shard LAN link. The injectors
  // are per shard (a shared one would be fed from two workers at once —
  // the scheduler rejects that); identical (config, seed) pairs give both
  // shards the same outage plan, and every attempt, retry and backoff
  // must replay bit-for-bit at any worker count.
  const auto scenario = [](std::size_t workers) -> std::uint64_t {
    fault::FaultConfig fault_config;
    fault_config.enabled = true;
    fault_config.seed = 13;
    fault_config.link_outages_per_hour = 6.0;
    fault_config.link_outage_mean = Seconds(2.0);
    fault_config.horizon = Hours(4.0);

    sim::ShardedSimulator pdes(2);
    core::Cluster cluster(pdes.Shard(0));
    sim::ShardPlan plan;
    std::vector<std::unique_ptr<fault::FaultInjector>> injectors;
    for (std::uint32_t site = 0; site < 2; ++site) {
      cluster.AddHost({HostName(site, 0), sim::DiskConfig::Ssd(), {}, {}, {}});
      cluster.AddHost({HostName(site, 1), sim::DiskConfig::Ssd(), {}, {}, {}});
      plan.Assign(HostName(site, 0), site);
      plan.Assign(HostName(site, 1), site);
      sim::Link& link = cluster.Connect(HostName(site, 0), HostName(site, 1),
                                        sim::LinkConfig::Lan());
      injectors.push_back(
          std::make_unique<fault::FaultInjector>(fault_config));
      link.SetFaultInjector(injectors.back().get());
    }
    const auto window = injectors.front()->LinkOutages().front();

    SchedulerConfig sconfig;
    sconfig.workers = workers;
    sconfig.max_attempts = 10;
    MigrationScheduler scheduler(cluster, pdes, plan, sconfig);

    // Park the fleet just before the first outage so the initial
    // attempts stream into the window and get cut.
    pdes.AdvanceAllTo(window.start - Milliseconds(1.0));

    migration::MigrationConfig config;
    config.strategy = migration::Strategy::kFull;
    std::vector<std::unique_ptr<VmInstance>> fleet;
    for (std::uint32_t site = 0; site < 2; ++site) {
      for (std::uint64_t v = 0; v < 2; ++v) {
        fleet.push_back(std::make_unique<VmInstance>(
            "vm-" + std::to_string(site * 2 + v), MiB(4),
            vm::ContentMode::kSeedOnly));
        Xoshiro256 rng(0xfa017u + site * 2 + v);
        vm::MemoryProfile{}.Apply(fleet.back()->Memory(), rng);
        fleet.back()->SetCurrentHost(HostName(site, 0));
        scheduler.Submit(*fleet.back(), HostName(site, 1), config);
      }
    }
    const std::size_t completed = scheduler.Drain();
    VEC_CHECK_MSG(completed == fleet.size(),
                  "fault sweep: not every VM migrated");
    std::uint64_t folded =
        SplitMix64(scheduler.CombinedFingerprint() ^ completed).Next();
    return SplitMix64(folded ^ scheduler.Retries()).Next();
  };
  const auto sweep = audit::ReplayCheck::CompareWorkers(scenario, {1, 2});
  EXPECT_TRUE(sweep.Deterministic());
}

TEST(PdesDeterminism, MultifdSessionsReplayUnderChannelFaults) {
  // The transfer stack under the worker sweep: four forward streams per
  // session on a flaky intra-shard link, so outages cut individual
  // multifd channel messages mid-round. Striping, per-channel round
  // markers, retries and the auto-converge throttle state must all
  // replay bit-for-bit at any worker count.
  const auto scenario = [](std::size_t workers) -> std::uint64_t {
    fault::FaultConfig fault_config;
    fault_config.enabled = true;
    fault_config.seed = 29;
    fault_config.link_outages_per_hour = 6.0;
    fault_config.link_outage_mean = Seconds(2.0);
    fault_config.horizon = Hours(4.0);

    sim::ShardedSimulator pdes(2);
    core::Cluster cluster(pdes.Shard(0));
    sim::ShardPlan plan;
    std::vector<std::unique_ptr<fault::FaultInjector>> injectors;
    for (std::uint32_t site = 0; site < 2; ++site) {
      cluster.AddHost({HostName(site, 0), sim::DiskConfig::Ssd(), {}, {}, {}});
      cluster.AddHost({HostName(site, 1), sim::DiskConfig::Ssd(), {}, {}, {}});
      plan.Assign(HostName(site, 0), site);
      plan.Assign(HostName(site, 1), site);
      sim::Link& link = cluster.Connect(HostName(site, 0), HostName(site, 1),
                                        sim::LinkConfig::Lan());
      injectors.push_back(
          std::make_unique<fault::FaultInjector>(fault_config));
      link.SetFaultInjector(injectors.back().get());
    }
    const auto window = injectors.front()->LinkOutages().front();

    SchedulerConfig sconfig;
    sconfig.workers = workers;
    sconfig.max_attempts = 10;
    MigrationScheduler scheduler(cluster, pdes, plan, sconfig);
    pdes.AdvanceAllTo(window.start - Milliseconds(1.0));

    migration::MigrationConfig config;
    config.strategy = migration::Strategy::kFull;
    config.multifd.enabled = true;
    config.multifd.channels = 4;
    config.auto_converge.enabled = true;
    std::vector<std::unique_ptr<VmInstance>> fleet;
    for (std::uint32_t site = 0; site < 2; ++site) {
      for (std::uint64_t v = 0; v < 2; ++v) {
        fleet.push_back(std::make_unique<VmInstance>(
            "vm-" + std::to_string(site * 2 + v), MiB(4),
            vm::ContentMode::kSeedOnly));
        Xoshiro256 rng(0xfd017u + site * 2 + v);
        vm::MemoryProfile{}.Apply(fleet.back()->Memory(), rng);
        fleet.back()->SetCurrentHost(HostName(site, 0));
        scheduler.Submit(*fleet.back(), HostName(site, 1), config);
      }
    }
    const std::size_t completed = scheduler.Drain();
    VEC_CHECK_MSG(completed == fleet.size(),
                  "multifd fault sweep: not every VM migrated");
    std::uint64_t folded =
        SplitMix64(scheduler.CombinedFingerprint() ^ completed).Next();
    return SplitMix64(folded ^ scheduler.Retries()).Next();
  };
  audit::ReplayCheck::VerifyWorkers(scenario, {1, 2, 4});
}

// --- Warm legs under PDES ----------------------------------------------

/// What the worker sweep compares of one warm ping-pong run.
struct PingPongRun {
  std::vector<MigrationScheduler::Completion> completions;
  std::uint64_t fingerprint = 0;
  std::string metrics;
};

/// A miniature of perfbench's fleet_pingpong on RunMiniFleet's topology.
/// Every VM makes a cold kHashes leg to its partner. After a dwell in
/// which its idle workload rewrites a hot region, it makes a warm leg
/// home, and after another dwell a warm leg out again. The warm legs
/// restore the checkpoint the destination kept of the VM
/// (DestinationActor::Prepare) and probe the source's knowledge of it.
/// Gateway VMs cross shards, while host 1's VMs come into the gateway
/// host in the same barriers.
PingPongRun RunWarmPingPong(std::size_t workers) {
  constexpr std::uint32_t kSites = 3;
  constexpr std::uint32_t kHostsPerSite = 4;
  constexpr std::uint64_t kVmsPerHost = 2;
  sim::ShardedSimulator pdes(kSites);
  core::Cluster cluster(pdes.Shard(0));
  sim::ShardPlan plan;
  const sim::LinkConfig intersite{GigabitsPerSecond(1.0), Milliseconds(5.0),
                                  Bytes{0}};
  for (std::uint32_t site = 0; site < kSites; ++site) {
    for (std::uint32_t host = 0; host < kHostsPerSite; ++host) {
      cluster.AddHost({HostName(site, host), sim::DiskConfig::Ssd(), {}, {}, {}});
      plan.Assign(HostName(site, host), site);
    }
    for (std::uint32_t host = 0; host + 1 < kHostsPerSite; host += 2) {
      cluster.Connect(HostName(site, host), HostName(site, host + 1),
                      sim::LinkConfig::Lan());
    }
  }
  for (std::uint32_t site = 0; site < kSites; ++site) {
    cluster.Connect(HostName(site, 0), HostName((site + 1) % kSites, 0),
                    intersite);
  }

  obs::MetricsRegistry metrics;
  SchedulerConfig sconfig;
  sconfig.workers = workers;
  sconfig.instruments.metrics = &metrics;
  MigrationOrchestrator orchestrator(cluster, pdes, plan, sconfig);
  MigrationScheduler& scheduler = orchestrator.Scheduler();

  std::vector<std::unique_ptr<VmInstance>> vms;
  std::vector<VmInstance*> fleet;
  std::vector<std::pair<std::string, std::string>> home_partner;
  for (std::uint32_t site = 0; site < kSites; ++site) {
    for (std::uint32_t host = 0; host < kHostsPerSite; ++host) {
      for (std::uint64_t v = 0; v < kVmsPerHost; ++v) {
        const std::uint64_t index = vms.size();
        auto vm = std::make_unique<VmInstance>(
            "vm-" + std::to_string(index), MiB(1), vm::ContentMode::kSeedOnly);
        Xoshiro256 rng(0x9a11e0 + index);
        vm::MemoryProfile{}.Apply(vm->Memory(), rng);
        vm::IdleWorkload::Config idle;
        idle.write_rate_pages_per_s = 2.0;
        idle.hot_region_pages = 32;
        idle.seed = 0x1d1e + index;
        vm->SetWorkload(std::make_unique<vm::IdleWorkload>(idle));
        orchestrator.Deploy(*vm, HostName(site, host));
        home_partner.emplace_back(
            HostName(site, host),
            host == 0 ? HostName((site + 1) % kSites, 0)
                      : HostName(site, host % 2 == 0 ? host + 1 : host - 1));
        fleet.push_back(vm.get());
        vms.push_back(std::move(vm));
      }
    }
  }

  migration::MigrationConfig config;
  config.strategy = migration::Strategy::kHashes;
  for (int leg = 0; leg < 3; ++leg) {
    if (leg > 0) orchestrator.RunFor(fleet, Seconds(60.0));
    for (std::size_t i = 0; i < fleet.size(); ++i) {
      scheduler.Submit(*fleet[i],
                       leg % 2 == 0 ? home_partner[i].second
                                    : home_partner[i].first,
                       config);
    }
    VEC_CHECK_MSG(scheduler.Drain() == fleet.size(),
                  "warm ping-pong: not every VM migrated");
  }

  PingPongRun run;
  run.completions = scheduler.Completions();
  run.fingerprint = scheduler.CombinedFingerprint();
  run.metrics = metrics.ToJson("pdes_test");
  return run;
}

TEST(PdesDeterminism, WarmPingPongLegsMatchAtEveryWorkerCount) {
  std::map<std::size_t, PingPongRun> runs;
  audit::ReplayCheck::VerifyWorkers([&runs](std::size_t workers) {
    PingPongRun run = RunWarmPingPong(workers);
    std::uint64_t folded = run.fingerprint;
    for (const auto& completion : run.completions) {
      folded = SplitMix64(folded ^ completion.stats.tx_bytes.count).Next();
      folded = SplitMix64(folded ^ static_cast<std::uint64_t>(
                                       completion.completed_at.count()))
                   .Next();
    }
    runs[workers] = std::move(run);
    return folded;
  });

  // The warm legs did what they are here for: set-up restored a
  // checkpoint, and the source probed it instead of sending every page.
  const PingPongRun& reference = runs.at(1);
  const std::size_t legs = reference.completions.size();
  ASSERT_EQ(legs % 3, 0u);
  bool cross_shard_warm_leg = false;
  for (std::size_t i = 0; i < legs; ++i) {
    const auto& completion = reference.completions[i];
    if (i < legs / 3) {
      EXPECT_EQ(completion.stats.pages_sent_checksum, 0u) << i;
      continue;
    }
    EXPECT_GT(completion.stats.pages_sent_checksum, 0u) << i;
    EXPECT_GT(completion.stats.pages_matched_in_place, 0u) << i;
    EXPECT_GT(completion.stats.setup_time, SimDuration::zero()) << i;
    EXPECT_LT(completion.stats.pages_sent_full,
              completion.stats.pages_sent_checksum)
        << i;
    cross_shard_warm_leg |= completion.from.ends_with("-h0") &&
                            completion.to.ends_with("-h0");
  }
  EXPECT_TRUE(cross_shard_warm_leg);
  EXPECT_NE(reference.metrics.find("pages_sent_checksum"), std::string::npos);

  for (const auto& [workers, run] : runs) {
    SCOPED_TRACE(std::to_string(workers) + " workers");
    EXPECT_EQ(run.fingerprint, reference.fingerprint);
    EXPECT_EQ(run.metrics, reference.metrics);
    ASSERT_EQ(run.completions.size(), legs);
    for (std::size_t i = 0; i < legs; ++i) {
      const auto& got = run.completions[i];
      const auto& want = reference.completions[i];
      EXPECT_EQ(got.id, want.id) << i;
      EXPECT_EQ(got.from, want.from) << i;
      EXPECT_EQ(got.to, want.to) << i;
      EXPECT_EQ(got.stats, want.stats) << i;
      EXPECT_EQ(got.completed_at, want.completed_at) << i;
    }
  }
}

// --- Instruments in PDES mode ------------------------------------------

TEST(PdesInstruments, SubmitRejectsFlagAndEnvArmedTracing) {
  // Flag- and env-armed tracing resolve to the one process-wide recorder,
  // which the shard workers would write concurrently; PDES mode refuses
  // such a request before it is queued, whatever shards it would touch.
  const char* saved = std::getenv("VECYCLE_TRACE");
  const std::string restore = saved == nullptr ? "" : saved;
  ::unsetenv("VECYCLE_TRACE");

  sim::ShardedSimulator pdes(2);
  core::Cluster cluster(pdes.Shard(0));
  sim::ShardPlan plan;
  for (std::uint32_t site = 0; site < 2; ++site) {
    cluster.AddHost({HostName(site, 0), sim::DiskConfig::Ssd(), {}, {}, {}});
    cluster.AddHost({HostName(site, 1), sim::DiskConfig::Ssd(), {}, {}, {}});
    plan.Assign(HostName(site, 0), site);
    plan.Assign(HostName(site, 1), site);
    cluster.Connect(HostName(site, 0), HostName(site, 1),
                    sim::LinkConfig::Lan());
  }
  SchedulerConfig sconfig;
  sconfig.workers = 1;
  MigrationScheduler scheduler(cluster, pdes, plan, sconfig);
  VmInstance vm("vm-0", MiB(1), vm::ContentMode::kSeedOnly);
  Xoshiro256 rng(0x7ace);
  vm::MemoryProfile{}.Apply(vm.Memory(), rng);
  vm.SetCurrentHost(HostName(0, 0));

  migration::MigrationConfig traced;
  traced.trace = true;
  EXPECT_THROW(scheduler.Submit(vm, HostName(0, 1), traced), CheckFailure);
  ::setenv("VECYCLE_TRACE", "1", 1);
  EXPECT_THROW(scheduler.Submit(vm, HostName(0, 1), {}), CheckFailure);
  ::unsetenv("VECYCLE_TRACE");
  EXPECT_EQ(scheduler.QueuedCount(), 0u);

  // Untraced, the same leg queues and runs.
  scheduler.Submit(vm, HostName(0, 1), {});
  EXPECT_EQ(scheduler.Drain(), 1u);
  EXPECT_EQ(vm.CurrentHost(), HostName(0, 1));

  if (!restore.empty()) ::setenv("VECYCLE_TRACE", restore.c_str(), 1);
}

// --- Saturating retry backoff ------------------------------------------

TEST(SchedulerBackoff, RetryNotBeforeDoublesThenSaturates) {
  const SimTime when = kSimEpoch + Seconds(100.0);
  const SimDuration backoff = Seconds(5.0);
  EXPECT_EQ(RetryNotBefore(when, backoff, 1), when + Seconds(5.0));
  EXPECT_EQ(RetryNotBefore(when, backoff, 2), when + Seconds(10.0));
  EXPECT_EQ(RetryNotBefore(when, backoff, 4), when + Seconds(40.0));
  // Zero backoff never gates.
  EXPECT_EQ(RetryNotBefore(when, SimDuration::zero(), 9), when);

  // Monotone in the failure count: a longer streak can only push the
  // deadline later, never wrap it into the past (the overflow bug this
  // guards against produced a negative delay around 2^63).
  SimTime previous = kSimEpoch;
  for (std::uint64_t failures = 1; failures <= 100; ++failures) {
    const SimTime deadline = RetryNotBefore(when, backoff, failures);
    EXPECT_GE(deadline, previous) << "failures=" << failures;
    EXPECT_GE(deadline, when) << "failures=" << failures;
    previous = deadline;
  }
  // A long streak saturates to "never" instead of overflowing.
  EXPECT_EQ(RetryNotBefore(when, backoff, 100), SimTime::max());
  EXPECT_EQ(RetryNotBefore(when, backoff, 64), SimTime::max());
  // The final sum saturates too, even at one failure.
  EXPECT_EQ(RetryNotBefore(SimTime::max() - Seconds(1.0), backoff, 1),
            SimTime::max());
}

}  // namespace
}  // namespace vecycle::core
