#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <utility>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "core/cluster.hpp"
#include "core/orchestrator.hpp"
#include "core/vm_instance.hpp"
#include "decorators.hpp"
#include "policy/policies.hpp"
#include "policy/runner.hpp"
#include "sim/link.hpp"
#include "sim/sharded.hpp"
#include "vm/guest_memory.hpp"
#include "vm/workload.hpp"

namespace perfbench {

using namespace vecycle;

namespace {

// Per-workload salts: one benchmark seed gives each workload an
// independent input stream.
constexpr std::uint64_t kDiurnalSalt = 0xd1a7'0000'0000'0001ull;
constexpr std::uint64_t kPingpongSalt = 0xf1ee'7000'0000'0002ull;
constexpr std::uint64_t kWanSalt = 0x3a77'0000'0000'0003ull;

std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t salt) {
  return SplitMix64(seed ^ salt).Next();
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Set-up and timed-phase clocks of one iteration.
class PhaseClock {
 public:
  PhaseClock() : setup_start_(Clock::now()) {}

  void SetupDone(IterationResult& result) {
    result.setup_s = SecondsSince(setup_start_);
    run_start_ = Clock::now();
    cpu_start_ = CpuSeconds();
  }
  void RunDone(IterationResult& result) const {
    result.wall_s = SecondsSince(run_start_);
    result.cpu_s = CpuSeconds() - cpu_start_;
  }

 private:
  Clock::time_point setup_start_;
  Clock::time_point run_start_;
  double cpu_start_ = 0.0;
};

/// Runs `fn` (a call that executes migrations) and records its host time.
template <typename Fn>
void MeasureMigrations(IterationResult& result, std::uint32_t warm,
                       std::uint32_t cold, Fn&& fn) {
  const auto start = Clock::now();
  const double cpu_start = CpuSeconds();
  fn();
  result.migration_calls.push_back(MigrationCall{
      SecondsSince(start), CpuSeconds() - cpu_start, warm, cold});
}

/// Wraps `workload` in the timing decorator when tracing.
std::unique_ptr<vm::Workload> MaybeTimed(
    std::unique_ptr<vm::Workload> workload, SpanRecorder& recorder,
    const core::MigrationScheduler& scheduler) {
  if (!recorder.Enabled()) return workload;
  return std::make_unique<TimedWorkload>(std::move(workload), recorder,
                                         scheduler);
}

void AddLeg(ModelOutputs& out, const migration::MigrationStats& stats) {
  ++out.legs_completed;
  out.wire_bytes += stats.tx_bytes.count;
  out.migration_times.push_back(stats.total_time);
  out.downtimes.push_back(stats.downtime);
  out.rounds += stats.rounds;
  out.pages_full += stats.pages_sent_full;
  out.pages_checksum += stats.pages_sent_checksum;
  out.pages_resent_dirty += stats.pages_resent_dirty;
  out.round1_pages += stats.Round1Pages();
  out.pages_from_checkpoint += stats.pages_from_checkpoint;
  out.bulk_exchange_bytes += stats.bulk_exchange_bytes.count;
  out.delta_bytes_original += stats.delta_bytes_original.count;
  out.delta_bytes_on_wire += stats.delta_bytes_on_wire.count;
  out.hashed_bytes +=
      stats.source_hashed_bytes.count + stats.dest_hashed_bytes.count;
  if (out.channel_bytes.size() < stats.tx_bytes_per_channel.size()) {
    out.channel_bytes.resize(stats.tx_bytes_per_channel.size(), 0);
  }
  for (std::size_t k = 0; k < stats.tx_bytes_per_channel.size(); ++k) {
    out.channel_bytes[k] += stats.tx_bytes_per_channel[k].count;
  }
}

void AddStores(ModelOutputs& out, const core::Cluster& cluster) {
  for (const core::Host* host : cluster.Hosts()) {
    const storage::CheckpointStore& store = host->Store();
    out.checkpoints += store.Size();
    out.footprint_bytes += store.FootprintOnDisk().count;
    out.evictions += store.Evictions();
    out.chunks_written += store.ChunksWritten();
    out.chunks_deduped += store.ChunksDeduped();
  }
}

/// policy::RunResult's fingerprint fold.
void Fingerprint(ModelOutputs& out, std::uint64_t audit) {
  policy::RunResult result;
  result.downtimes = out.downtimes;
  const SimDuration p99 = result.P99Downtime();
  std::uint64_t fp = SplitMix64(audit ^ out.legs_completed).Next();
  fp = SplitMix64(fp ^ out.wire_bytes).Next();
  fp = SplitMix64(fp ^ static_cast<std::uint64_t>(p99.count())).Next();
  out.fingerprint = fp;
}

// ---------------------------------------------------------------- diurnal
//
// The world and wave loop of policy::PolicyRunner::Run, rebuilt on the
// orchestrator's public API so RunFor and RunPolicy can be timed.

std::unique_ptr<vm::Workload> DiurnalVmWorkload(
    const policy::ScenarioConfig& config, std::uint32_t vm_index,
    std::uint64_t seed) {
  const std::uint64_t pages =
      std::max<std::uint64_t>(1, config.vm_ram.count / kPageSize);
  vm::PeriodicWorkload::Config periodic;
  periodic.period = Hours(24.0);
  periodic.busy_fraction = 10.0 / 24.0;
  periodic.phase_offset =
      Hours(0.25 + 24.0 * static_cast<double>(vm_index) /
                       static_cast<double>(config.vms));
  periodic.busy.write_rate_pages_per_s = config.busy_rate_pages_per_s;
  periodic.busy.hot_fraction = 0.25;
  periodic.busy.hot_probability = 1.0;
  periodic.busy.seed = seed;
  periodic.quiet.write_rate_pages_per_s = 0.5;
  periodic.quiet.hot_region_pages =
      std::max<std::uint64_t>(1, std::min<std::uint64_t>(64, pages / 4));
  periodic.quiet.seed = seed + 1;
  return std::make_unique<vm::PeriodicWorkload>(periodic);
}

bool Satisfied(const policy::Scenario& scenario, const policy::Demand& demand,
               const core::VmInstance& vm) {
  using Rule = policy::Demand::Candidates;
  if (demand.rule == Rule::kAnyOther) return false;
  bool on_site = false;
  for (std::uint32_t h = 0; h < scenario.config.hosts_per_site; ++h) {
    on_site |= vm.CurrentHost() == policy::Scenario::HostName(demand.site, h);
  }
  return demand.rule == Rule::kSite ? on_site : !on_site;
}

std::vector<core::HostId> CandidatesFor(const policy::Scenario& scenario,
                                        const policy::Demand& demand) {
  using Rule = policy::Demand::Candidates;
  std::vector<core::HostId> candidates;
  if (demand.rule == Rule::kSite) {
    for (std::uint32_t h = 0; h < scenario.config.hosts_per_site; ++h) {
      candidates.push_back(policy::Scenario::HostName(demand.site, h));
    }
  } else if (demand.rule == Rule::kNotSite) {
    for (std::uint32_t i = 0; i < scenario.HostCount(); ++i) {
      if (scenario.SiteOf(i) != demand.site) {
        candidates.push_back(scenario.HostNameAt(i));
      }
    }
  }
  return candidates;
}

std::vector<core::PolicyLeg> ResolveLegs(
    const policy::Scenario& scenario, const policy::Wave& wave,
    const std::vector<core::VmInstance*>& fleet) {
  std::vector<core::PolicyLeg> legs;
  std::set<const core::VmInstance*> claimed;
  for (const policy::Demand& demand : wave.demands) {
    VEC_CHECK_MSG(demand.vm < fleet.size(), "demand names an unknown VM");
    core::VmInstance* vm = fleet[demand.vm];
    if (Satisfied(scenario, demand, *vm)) continue;
    if (!claimed.insert(vm).second) continue;
    legs.push_back(core::PolicyLeg{vm, CandidatesFor(scenario, demand),
                                   demand.priority});
  }
  for (const std::uint32_t host_index : wave.drain_hosts) {
    const std::string host = scenario.HostNameAt(host_index);
    for (core::VmInstance* vm : fleet) {
      if (vm->CurrentHost() != host) continue;
      if (!claimed.insert(vm).second) continue;
      legs.push_back(core::PolicyLeg{vm, {}, 0});
    }
  }
  return legs;
}

/// Legs the diurnal timeline makes from its initial placement: each
/// evening every VM off site 0 moves there, each morning every VM leaves.
std::uint64_t DiurnalExpectedLegs(const policy::Scenario& scenario) {
  const auto& config = scenario.config;
  const std::uint64_t hosts = scenario.HostCount();
  std::uint64_t initially_off_core = 0;
  for (std::uint32_t v = 0; v < config.vms; ++v) {
    if (scenario.SiteOf(static_cast<std::uint32_t>(v % hosts)) != 0) {
      ++initially_off_core;
    }
  }
  return initially_off_core +
         (2ull * config.days - 1) * static_cast<std::uint64_t>(config.vms);
}

IterationResult RunDiurnal(const RunConfig& run, bool setup_only) {
  IterationResult result;
  SpanRecorder recorder(run.traced);
  PhaseClock clock;

  const policy::Scenario scenario = DiurnalScenario(run.seed);
  const policy::ScenarioConfig& config = scenario.config;
  const migration::MigrationConfig migration_config =
      DiurnalMigrationConfig();
  auto inner_policy = DiurnalPolicy();
  TimedPolicy timed_policy(*inner_policy, recorder);
  policy::PlacementPolicy& policy =
      run.traced ? static_cast<policy::PlacementPolicy&>(timed_policy)
                 : *inner_policy;

  sim::Simulator simulator;
  core::Cluster cluster(simulator);
  const std::uint32_t hosts = scenario.HostCount();
  for (std::uint32_t h = 0; h < hosts; ++h) {
    cluster.AddHost({scenario.HostNameAt(h), sim::DiskConfig::Ssd(), {}, {},
                     {}});
  }
  const sim::LinkConfig intersite{MegabitsPerSecond(50.0), Milliseconds(5.0),
                                  Bytes{0}};
  for (std::uint32_t a = 0; a < hosts; ++a) {
    for (std::uint32_t b = a + 1; b < hosts; ++b) {
      cluster.Connect(scenario.HostNameAt(a), scenario.HostNameAt(b),
                      scenario.SiteOf(a) == scenario.SiteOf(b)
                          ? sim::LinkConfig::Lan()
                          : intersite);
    }
  }
  core::MigrationOrchestrator orchestrator(cluster);

  // Same derivation as PolicyRunner, so both see identical inputs.
  SplitMix64 seeder(config.seed ^ 0x9c0ffee123456789ull);
  std::vector<std::unique_ptr<core::VmInstance>> vms;
  std::vector<core::VmInstance*> fleet;
  for (std::uint32_t v = 0; v < config.vms; ++v) {
    auto vm = std::make_unique<core::VmInstance>(
        policy::Scenario::VmName(v), config.vm_ram,
        vm::ContentMode::kSeedOnly);
    Xoshiro256 rng(seeder.Next());
    vm::MemoryProfile{}.Apply(vm->Memory(), rng);
    vm->SetWorkload(MaybeTimed(DiurnalVmWorkload(config, v, seeder.Next()),
                               recorder, orchestrator.Scheduler()));
    orchestrator.Deploy(*vm, scenario.HostNameAt(v % hosts));
    fleet.push_back(vm.get());
    vms.push_back(std::move(vm));
  }
  result.model.legs_expected = DiurnalExpectedLegs(scenario);
  clock.SetupDone(result);
  if (setup_only) return result;

  std::uint64_t wave_id = 0;
  for (const policy::Wave& wave : scenario.waves) {
    recorder.SetGroup(++wave_id);
    SimDuration remaining = wave.advance;
    while (remaining > SimDuration::zero()) {
      const SimDuration chunk = std::min(config.step, remaining);
      {
        auto scope = recorder.Open(span::kRunFor);
        orchestrator.RunFor(fleet, chunk);
      }
      const SimTime now = simulator.Now();
      for (core::VmInstance* vm : fleet) policy.Observe(*vm, now);
      remaining -= chunk;
    }
    const auto legs = ResolveLegs(scenario, wave, fleet);
    if (legs.empty()) continue;
    MeasureMigrations(result, 0, 0, [&] {
      auto scope = recorder.Open(span::kRunPolicy);
      (void)orchestrator.RunPolicy(fleet, legs, policy, migration_config,
                                   config.step);
    });
  }
  clock.RunDone(result);

  ModelOutputs& out = result.model;
  for (const auto& completion : orchestrator.Scheduler().Completions()) {
    AddLeg(out, completion.stats);
  }
  out.aborts = orchestrator.Scheduler().Aborts().size();
  const policy::DecisionStats& decisions = inner_policy->Stats();
  out.decisions = decisions.decisions;
  out.deferred = decisions.deferred;
  out.affinity_hits = decisions.affinity_hits;
  out.shard_events = {simulator.ProcessedEvents()};
  AddStores(out, cluster);
  Fingerprint(out, 0);
  result.spans = recorder.Collect();
  return result;
}

// --------------------------------------------------------- fleet_pingpong

constexpr std::uint32_t kSites = 25;
constexpr std::uint32_t kHostsPerSite = 40;
constexpr std::uint32_t kVmsPerHost = 10;
/// Legs per VM: out (cold), home (warm), out again (warm). With two warm
/// legs to one cold, the leg-time median falls inside the warm legs, not
/// on the boundary between the two kinds where a seed could flip it.
constexpr std::uint32_t kPingpongLegs = 3;
/// Simulated idle time before each leg after the first.
constexpr double kPingpongDwellSeconds = 60.0;

std::string FleetHost(std::uint32_t site, std::uint32_t host) {
  return "s" + std::to_string(site) + "-h" + std::to_string(host);
}

/// Outbound destination: the in-site partner host, or for the site
/// gateway (host 0) the next site's gateway.
std::string PartnerOf(std::uint32_t site, std::uint32_t host) {
  if (host == 0) return FleetHost((site + 1) % kSites, 0);
  return FleetHost(site, host % 2 == 0 ? host + 1 : host - 1);
}

std::size_t DefaultWorkers() {
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  return std::min<std::size_t>(4, cores);
}

IterationResult RunFleetPingpong(const RunConfig& run, bool setup_only) {
  IterationResult result;
  SpanRecorder recorder(run.traced);
  PhaseClock clock;

  sim::ShardedSimulator pdes(kSites);
  core::Cluster cluster(pdes.Shard(0));
  sim::ShardPlan plan;
  const sim::LinkConfig intersite{GigabitsPerSecond(1.0), Milliseconds(5.0),
                                  Bytes{0}};
  for (std::uint32_t site = 0; site < kSites; ++site) {
    for (std::uint32_t host = 0; host < kHostsPerSite; ++host) {
      cluster.AddHost(
          {FleetHost(site, host), sim::DiskConfig::Ssd(), {}, {}, {}});
      plan.Assign(FleetHost(site, host), site);
    }
    for (std::uint32_t host = 0; host + 1 < kHostsPerSite; host += 2) {
      cluster.Connect(FleetHost(site, host), FleetHost(site, host + 1),
                      sim::LinkConfig::Lan());
    }
  }
  for (std::uint32_t site = 0; site < kSites; ++site) {
    cluster.Connect(FleetHost(site, 0), FleetHost((site + 1) % kSites, 0),
                    intersite);
  }
  core::SchedulerConfig scheduler_config;
  scheduler_config.workers = run.workers == 0 ? DefaultWorkers() : run.workers;
  scheduler_config.throw_on_abort = false;
  core::MigrationOrchestrator orchestrator(cluster, pdes, std::move(plan),
                                           scheduler_config);
  core::MigrationScheduler& scheduler = orchestrator.Scheduler();

  struct Placement {
    core::VmInstance* vm;
    std::string home;
    std::string partner;
  };
  SplitMix64 seeder(DeriveSeed(run.seed, kPingpongSalt));
  std::vector<std::unique_ptr<core::VmInstance>> vms;
  std::vector<core::VmInstance*> fleet;
  std::vector<Placement> placements;
  std::uint64_t index = 0;
  for (std::uint32_t site = 0; site < kSites; ++site) {
    for (std::uint32_t host = 0; host < kHostsPerSite; ++host) {
      for (std::uint32_t v = 0; v < kVmsPerHost; ++v, ++index) {
        auto vm = std::make_unique<core::VmInstance>(
            "vm-" + std::to_string(index), MiB(1),
            vm::ContentMode::kSeedOnly);
        Xoshiro256 rng(seeder.Next());
        vm::MemoryProfile{}.Apply(vm->Memory(), rng);
        vm::IdleWorkload::Config idle;
        idle.write_rate_pages_per_s = 4.0;
        idle.hot_region_pages = 64;
        idle.seed = seeder.Next();
        vm->SetWorkload(MaybeTimed(std::make_unique<vm::IdleWorkload>(idle),
                                   recorder, scheduler));
        orchestrator.Deploy(*vm, FleetHost(site, host));
        placements.push_back(
            {vm.get(), FleetHost(site, host), PartnerOf(site, host)});
        fleet.push_back(vm.get());
        vms.push_back(std::move(vm));
      }
    }
  }
  migration::MigrationConfig migration_config;
  migration_config.strategy = migration::Strategy::kHashes;
  result.model.legs_expected = kPingpongLegs * placements.size();
  clock.SetupDone(result);
  if (setup_only) return result;

  std::map<core::SessionId, SimTime> submitted_at;
  const auto wave = [&](bool outbound) {
    std::uint32_t warm = 0;
    for (const Placement& p : placements) {
      const std::string& to = outbound ? p.partner : p.home;
      warm += cluster.GetHost(to).Store().Has(p.vm->Id()) ? 1 : 0;
      auto scope = recorder.Open(span::kSubmit);
      const core::SessionId id = scheduler.Submit(*p.vm, to, migration_config);
      submitted_at[id] = pdes.MaxNow();
    }
    const auto cold = static_cast<std::uint32_t>(placements.size()) - warm;
    MeasureMigrations(result, warm, cold, [&] {
      auto scope = recorder.Open(span::kDrain);
      (void)scheduler.Drain();
    });
  };
  for (std::uint32_t leg = 0; leg < kPingpongLegs; ++leg) {
    recorder.SetGroup(leg + 1);
    if (leg > 0) {
      auto scope = recorder.Open(span::kRunFor);
      orchestrator.RunFor(fleet, Seconds(kPingpongDwellSeconds));
    }
    wave(leg % 2 == 0);
  }
  clock.RunDone(result);

  ModelOutputs& out = result.model;
  for (const auto& completion : scheduler.Completions()) {
    AddLeg(out, completion.stats);
    const SimTime submitted = submitted_at.at(completion.id);
    out.queue_waits.push_back(completion.completed_at - submitted -
                              completion.stats.total_time);
  }
  out.aborts = scheduler.Aborts().size();
  for (std::uint32_t s = 0; s < kSites; ++s) {
    out.shard_events.push_back(pdes.Shard(s).ProcessedEvents());
  }
  AddStores(out, cluster);
  Fingerprint(out, scheduler.CombinedFingerprint());
  result.spans = recorder.Collect();
  return result;
}

// ------------------------------------------------------------ wan_return

constexpr std::uint32_t kWanVms = 4;
constexpr std::uint64_t kWanVmMiB = 512;
constexpr std::uint32_t kWanRoundTrips = 5;
constexpr double kWanDwellMinutes = 10.0;

IterationResult RunWanReturn(const RunConfig& run, bool setup_only) {
  IterationResult result;
  SpanRecorder recorder(run.traced);
  PhaseClock clock;

  sim::Simulator simulator;
  core::Cluster cluster(simulator);
  storage::StoreConfig store;
  store.chunking = true;
  store.chunk_pages = 8;
  const std::string hosts[2] = {"wan-a", "wan-b"};
  for (const std::string& host : hosts) {
    cluster.AddHost({host, sim::DiskConfig::Ssd(), {}, {}, store});
  }
  cluster.Connect(hosts[0], hosts[1], sim::LinkConfig::Wan());
  core::MigrationOrchestrator orchestrator(cluster);

  SplitMix64 seeder(DeriveSeed(run.seed, kWanSalt));
  std::vector<std::unique_ptr<core::VmInstance>> vms;
  for (std::uint32_t v = 0; v < kWanVms; ++v) {
    auto vm = std::make_unique<core::VmInstance>(
        "vm-" + std::to_string(v), MiB(kWanVmMiB), vm::ContentMode::kSeedOnly);
    Xoshiro256 rng(seeder.Next());
    vm::MemoryProfile{}.Apply(vm->Memory(), rng);
    vm::HotspotWorkload::Config hotspot;
    hotspot.write_rate_pages_per_s = 2000.0;
    hotspot.seed = seeder.Next();
    vm->SetWorkload(
        MaybeTimed(std::make_unique<vm::HotspotWorkload>(hotspot), recorder,
                   orchestrator.Scheduler()));
    orchestrator.Deploy(*vm, hosts[0]);
    vms.push_back(std::move(vm));
  }
  migration::MigrationConfig migration_config;
  migration_config.strategy = migration::Strategy::kHashes;
  migration_config.multifd.enabled = true;
  migration_config.multifd.channels = 4;
  migration_config.delta.enabled = true;
  const std::uint32_t legs_per_vm = 2 * kWanRoundTrips;
  result.model.legs_expected =
      static_cast<std::uint64_t>(legs_per_vm) * kWanVms;
  clock.SetupDone(result);
  if (setup_only) return result;

  for (std::uint32_t leg = 0; leg < legs_per_vm; ++leg) {
    const std::string& to = hosts[(leg + 1) % 2];
    for (std::uint32_t v = 0; v < kWanVms; ++v) {
      core::VmInstance& vm = *vms[v];
      recorder.SetGroup(1 + leg * kWanVms + v);
      {
        auto scope = recorder.Open(span::kRunFor);
        orchestrator.RunFor(vm, Minutes(kWanDwellMinutes));
      }
      const bool warm = cluster.GetHost(to).Store().Has(vm.Id());
      migration::MigrationStats stats;
      MeasureMigrations(result, warm ? 1 : 0, warm ? 0 : 1, [&] {
        auto scope = recorder.Open(span::kMigrate);
        stats = orchestrator.Migrate(vm, to, migration_config);
      });
      AddLeg(result.model, stats);
    }
  }
  clock.RunDone(result);

  ModelOutputs& out = result.model;
  out.shard_events = {simulator.ProcessedEvents()};
  AddStores(out, cluster);
  Fingerprint(out, 0);
  result.spans = recorder.Collect();
  return result;
}

}  // namespace

std::string_view WorkloadName(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kDiurnal:
      return "diurnal";
    case WorkloadKind::kFleetPingpong:
      return "fleet_pingpong";
    case WorkloadKind::kWanReturn:
      return "wan_return";
  }
  return "";
}

std::optional<WorkloadKind> ParseWorkload(std::string_view name) {
  for (const WorkloadKind kind :
       {WorkloadKind::kDiurnal, WorkloadKind::kFleetPingpong,
        WorkloadKind::kWanReturn}) {
    if (WorkloadName(kind) == name) return kind;
  }
  return std::nullopt;
}

policy::Scenario DiurnalScenario(std::uint64_t seed) {
  // bench_policy's diurnal corpus entry; only the seed differs.
  policy::ScenarioConfig config;
  config.kind = policy::ScenarioKind::kDiurnal;
  config.sites = 3;
  config.hosts_per_site = 2;
  config.vms = 8;
  config.vm_ram = MiB(4);
  config.days = 2;
  config.busy_rate_pages_per_s = 1400.0;
  config.seed = DeriveSeed(seed, kDiurnalSalt);
  return policy::ScenarioGen(config).Generate();
}

std::unique_ptr<policy::PlacementPolicy> DiurnalPolicy() {
  policy::PolicyConfig config;
  config.max_defer = Hours(12.0);
  return std::make_unique<policy::CycleAwarePolicy>(
      std::make_unique<policy::CheckpointAffinityPolicy>(config), config);
}

migration::MigrationConfig DiurnalMigrationConfig() {
  migration::MigrationConfig config;
  config.strategy = migration::Strategy::kHashes;
  config.stop_copy_threshold_pages = 8;
  return config;
}

namespace {

IterationResult Run(const RunConfig& config, bool setup_only) {
  switch (config.workload) {
    case WorkloadKind::kDiurnal:
      return RunDiurnal(config, setup_only);
    case WorkloadKind::kFleetPingpong:
      return RunFleetPingpong(config, setup_only);
    case WorkloadKind::kWanReturn:
      return RunWanReturn(config, setup_only);
  }
  VEC_CHECK_MSG(false, "unknown workload");
  return {};
}

}  // namespace

IterationResult RunIteration(const RunConfig& config) {
  return Run(config, false);
}

double SetupSeconds(const RunConfig& config) {
  return Run(config, true).setup_s;
}

SimDuration Percentile(std::vector<SimDuration> samples, double q) {
  if (samples.empty()) return SimDuration::zero();
  std::sort(samples.begin(), samples.end());
  const double exact = q / 100.0 * static_cast<double>(samples.size());
  auto rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

double TailPercentile(std::size_t samples) {
  if (samples < 20) return 50.0;
  return 100.0 * static_cast<double>(samples - 10) /
         static_cast<double>(samples);
}

}  // namespace perfbench
