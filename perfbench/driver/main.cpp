// vecycle_perfbench: runs one benchmark workload for a time budget and
// prints its metrics. perfbench/run.py builds and invokes it; see
// perfbench/README.md.
//
//   vecycle_perfbench --workload W --seed N --seconds S --trace 0|1
//                     [--spans FILE]
//
// --trace 0 repeats untraced iterations until S seconds have passed (at
// least two) and reports the end-to-end metrics: host cost (median over
// iterations) and model outputs (identical in every iteration — checked).
// --trace 1 alternates untraced and traced iterations (plus, on
// fleet_pingpong, an untraced 1-worker iteration) and reports per-layer
// metrics; --spans writes the last traced iteration's spans.
//
// The last stdout line is one JSON object:
//   {"correct": ..., "attempted": legs, "failed": legs, "metrics": {...}}
// A leg fails when it did not complete, or when its iteration failed a
// check. The exit code is 0 only when every check passed.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <numeric>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "cpu_rotation.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
using vecycle::SimDuration;

// Set-up sampling: at least kMinSetupSamples builds and kSetupSeconds of
// building, which spans many CPU rotations.
constexpr std::size_t kMinSetupSamples = 10;
constexpr double kSetupSeconds = 1.0;
/// Untraced runs of at least this many iterations drop the first.
constexpr std::size_t kWarmupAfter = 3;
/// How long the driver thread stays on one CPU (see cpu_rotation.hpp).
constexpr std::chrono::milliseconds kRotationPeriod{25};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double MiB(std::uint64_t bytes) {
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

double Sec(SimDuration d) { return vecycle::ToSeconds(d); }

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// VEC_CHECK must be live in this build: the engine's end-state memory
/// checks (destination == source after every leg) rely on it.
bool ChecksArmed() {
  try {
    VEC_CHECK_MSG(false, "perfbench probe");
  } catch (const vecycle::CheckFailure&) {
    return true;
  }
  return false;
}

/// Outcome of the run's checks, with the legs they invalidate.
struct Checks {
  bool ok = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void Fail(const std::string& what) {
    ok = false;
    std::printf("CHECK FAILED: %s\n", what.c_str());
  }

  /// Leg accounting plus identity against the run's first iteration.
  void Iteration(const ModelOutputs& reference, const ModelOutputs& model,
                 const std::string& label) {
    attempted += model.legs_expected;
    std::uint64_t bad = model.legs_expected - model.legs_completed;
    if (model.legs_completed != model.legs_expected || model.aborts != 0) {
      Fail(label + ": " + std::to_string(model.legs_completed) + " of " +
           std::to_string(model.legs_expected) + " legs completed, " +
           std::to_string(model.aborts) + " aborted");
    }
    if (!(model == reference)) {
      Fail(label + ": model outputs differ from the first iteration");
      bad = model.legs_expected;
    }
    failed += bad;
  }
};

void PrintHostLine(const std::string& label, const IterationResult& r) {
  std::printf("  %-24s setup %8.4f s  wall %8.4f s  cpu %8.4f s\n",
              label.c_str(), r.setup_s, r.wall_s, r.cpu_s);
}

/// Units of the end-to-end metrics, in report order.
const std::vector<std::pair<std::string, std::string>>& EndToEndUnits() {
  static const std::vector<std::pair<std::string, std::string>> units = {
      {"wall_s", "s"},          {"cpu_s", "s"},
      {"setup_s", "s"},         {"peak_rss_mib", "MiB"},
      {"wire_mib", "MiB"},      {"migration_s_p50", "sim_s"},
      {"migration_s_tail", "sim_s"}, {"downtime_ms_p50", "sim_ms"},
      {"downtime_ms_tail", "sim_ms"},
  };
  return units;
}

std::map<std::string, double> EndToEnd(
    const std::vector<IterationResult>& runs) {
  std::vector<double> wall;
  std::vector<double> cpu;
  for (const auto& r : runs) {
    wall.push_back(r.wall_s);
    cpu.push_back(r.cpu_s);
  }
  const ModelOutputs& m = runs.front().model;
  const double tail = TailPercentile(m.migration_times.size());
  std::printf("  tail percentile: p%.2f of N=%zu legs\n", tail,
              m.migration_times.size());
  return {
      {"wall_s", Median(wall)},
      {"cpu_s", Median(cpu)},
      {"peak_rss_mib", PeakRssMiB()},
      {"wire_mib", MiB(m.wire_bytes)},
      {"migration_s_p50", Sec(Percentile(m.migration_times, 50.0))},
      {"migration_s_tail", Sec(Percentile(m.migration_times, tail))},
      {"downtime_ms_p50", 1e3 * Sec(Percentile(m.downtimes, 50.0))},
      {"downtime_ms_tail", 1e3 * Sec(Percentile(m.downtimes, tail))},
  };
}

/// Per-layer numbers of one traced round: `traced` carries the spans,
/// `plain` the untraced host cost of the same work, `one_worker` (may be
/// null) the 1-worker fleet_pingpong iteration.
std::map<std::string, double> LayerRound(const IterationResult& traced,
                                         const IterationResult& plain,
                                         const IterationResult* one_worker) {
  std::map<std::string, double> out;
  const auto totals = TotalsByName(traced.spans);
  const auto total_s = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : 1e-9 * it->second.total_ns;
  };
  const auto self_s = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : 1e-9 * it->second.self_ns;
  };

  double inplace_ns = 0.0;
  double writes = 0.0;
  for (const Span& s : traced.spans) {
    if (s.name != span::kAdvance) continue;
    writes += static_cast<double>(s.count);
    if (s.in_place) inplace_ns += static_cast<double>(s.DurationNs());
  }
  out["vm.advance_s"] = total_s(span::kAdvance);
  out["vm.advance_inplace_s"] = 1e-9 * inplace_ns;
  out["vm.writes"] = writes;
  out["vm.ns_per_write"] = Ratio(1e9 * total_s(span::kAdvance), writes);

  out["core.runfor_s"] = total_s(span::kRunFor);
  out["core.runfor_self_s"] = self_s(span::kRunFor);
  out["core.runpolicy_s"] = total_s(span::kRunPolicy);
  out["core.submit_s"] = total_s(span::kSubmit);
  double cold = 0.0;
  double warm = 0.0;
  for (const MigrationCall& call : traced.migration_calls) {
    const double legs = call.warm_legs + call.cold_legs;
    if (legs == 0.0) continue;
    warm += call.wall_s * call.warm_legs / legs;
    cold += call.wall_s * call.cold_legs / legs;
  }
  out["core.drain_cold_s"] = cold;
  out["core.drain_warm_s"] = warm;

  const ModelOutputs& m = traced.model;
  out["core.queue_wait_s_p50"] = Sec(Percentile(m.queue_waits, 50.0));

  out["policy.decide_s"] = total_s(span::kDecide);
  out["policy.observe_s"] = total_s(span::kObserve);
  out["policy.decisions"] = static_cast<double>(m.decisions);
  out["policy.deferred"] = static_cast<double>(m.deferred);
  out["policy.warm_ratio"] = Ratio(static_cast<double>(m.affinity_hits),
                                   static_cast<double>(m.decisions));

  out["migration.rounds"] = static_cast<double>(m.rounds);
  out["migration.pages_full"] = static_cast<double>(m.pages_full);
  out["migration.pages_checksum"] = static_cast<double>(m.pages_checksum);
  out["migration.pages_resent_dirty"] =
      static_cast<double>(m.pages_resent_dirty);
  out["migration.recycled_ratio"] =
      Ratio(static_cast<double>(m.pages_checksum),
            static_cast<double>(m.round1_pages));
  out["migration.bulk_exchange_mib"] = MiB(m.bulk_exchange_bytes);
  out["migration.delta_ratio"] =
      Ratio(static_cast<double>(m.delta_bytes_on_wire),
            static_cast<double>(m.delta_bytes_original));

  out["digest.hashed_mib"] = MiB(m.hashed_bytes);

  const double events = std::accumulate(m.shard_events.begin(),
                                        m.shard_events.end(), 0.0);
  const double max_shard =
      m.shard_events.empty()
          ? 0.0
          : static_cast<double>(
                *std::max_element(m.shard_events.begin(),
                                  m.shard_events.end()));
  out["sim.events"] = events;
  out["sim.events_per_s"] = Ratio(events, plain.wall_s);
  out["sim.shard_imbalance"] = Ratio(
      max_shard, Ratio(events, static_cast<double>(m.shard_events.size())));
  double call_wall = 0.0;
  double call_cpu = 0.0;
  for (const MigrationCall& call : plain.migration_calls) {
    call_wall += call.wall_s;
    call_cpu += call.cpu_s;
  }
  out["sim.parallelism"] = Ratio(call_cpu, call_wall);
  double speedup = 0.0;
  if (one_worker != nullptr) {
    double w1 = 0.0;
    for (const MigrationCall& call : one_worker->migration_calls) {
      w1 += call.wall_s;
    }
    speedup = Ratio(w1, call_wall);
  }
  out["sim.pdes_speedup"] = speedup;

  out["storage.checkpoints"] = static_cast<double>(m.checkpoints);
  out["storage.footprint_mib"] = MiB(m.footprint_bytes);
  out["storage.evictions"] = static_cast<double>(m.evictions);
  out["storage.pages_from_checkpoint"] =
      static_cast<double>(m.pages_from_checkpoint);
  out["storage.dedup_ratio"] =
      Ratio(static_cast<double>(m.chunks_deduped),
            static_cast<double>(m.chunks_written + m.chunks_deduped));

  double max_channel = 0.0;
  double sum_channel = 0.0;
  for (const std::uint64_t bytes : m.channel_bytes) {
    max_channel = std::max(max_channel, static_cast<double>(bytes));
    sum_channel += static_cast<double>(bytes);
  }
  out["net.multifd_skew"] = Ratio(
      max_channel,
      Ratio(sum_channel, static_cast<double>(m.channel_bytes.size())));

  out["trace_overhead"] = Ratio(traced.wall_s, plain.wall_s) - 1.0;
  out["trace.coverage"] =
      Ratio(1e-9 * static_cast<double>(TopLevelNs(traced.spans)),
            traced.wall_s);
  return out;
}

/// Units of the per-layer metrics, in report order.
const std::vector<std::pair<std::string, std::string>>& LayerUnits() {
  static const std::vector<std::pair<std::string, std::string>> units = {
      {"vm.advance_s", "s"},
      {"vm.advance_inplace_s", "s"},
      {"vm.writes", "count"},
      {"vm.ns_per_write", "ns"},
      {"core.runfor_s", "s"},
      {"core.runfor_self_s", "s"},
      {"core.runpolicy_s", "s"},
      {"core.submit_s", "s"},
      {"core.drain_cold_s", "s"},
      {"core.drain_warm_s", "s"},
      {"core.queue_wait_s_p50", "sim_s"},
      {"policy.decide_s", "s"},
      {"policy.observe_s", "s"},
      {"policy.decisions", "count"},
      {"policy.deferred", "count"},
      {"policy.warm_ratio", "ratio"},
      {"migration.rounds", "count"},
      {"migration.pages_full", "count"},
      {"migration.pages_checksum", "count"},
      {"migration.pages_resent_dirty", "count"},
      {"migration.recycled_ratio", "ratio"},
      {"migration.bulk_exchange_mib", "MiB"},
      {"migration.delta_ratio", "ratio"},
      {"digest.hashed_mib", "MiB"},
      {"sim.events", "count"},
      {"sim.events_per_s", "1/s"},
      {"sim.shard_imbalance", "ratio"},
      {"sim.parallelism", "ratio"},
      {"sim.pdes_speedup", "ratio"},
      {"storage.checkpoints", "count"},
      {"storage.footprint_mib", "MiB"},
      {"storage.evictions", "count"},
      {"storage.pages_from_checkpoint", "count"},
      {"storage.dedup_ratio", "ratio"},
      {"net.multifd_skew", "ratio"},
      {"trace_overhead", "ratio"},
      {"trace.coverage", "ratio"},
  };
  return units;
}

void PrintSelfTimes(const IterationResult& traced) {
  std::printf("  self time by span (last traced iteration, wall %.4f s):\n",
              traced.wall_s);
  for (const auto& [name, t] : TotalsByName(traced.spans)) {
    std::printf("    %-16s %9llu calls  total %9.4f s  self %9.4f s\n",
                name.c_str(), static_cast<unsigned long long>(t.calls),
                1e-9 * static_cast<double>(t.total_ns),
                1e-9 * static_cast<double>(t.self_ns));
  }
}

void PrintResult(const Checks& checks, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              checks.ok ? "true" : "false",
              static_cast<unsigned long long>(checks.attempted),
              static_cast<unsigned long long>(checks.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.15g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload diurnal|fleet_pingpong|wan_return "
               "--seed N --seconds S --trace 0|1 [--spans FILE]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::optional<WorkloadKind> workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = ParseWorkload(value);
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--spans") {
      spans_path = value;
    } else {
      return Usage(argv[0]);
    }
  }
  if (!workload || argc % 2 != 1) return Usage(argv[0]);

  const RunConfig config{*workload, seed, false, 0};
  const bool pingpong = *workload == WorkloadKind::kFleetPingpong;
  std::printf("perfbench %s seed %llu, %s run, %.0f s budget\n",
              std::string(WorkloadName(*workload)).c_str(),
              static_cast<unsigned long long>(seed),
              trace ? "traced" : "untraced", seconds);

  Checks checks;
  if (!ChecksArmed()) checks.Fail("VEC_CHECK is compiled out");
  // Metric values by name; a metric an aborted run never reached reads 0.
  std::map<std::string, double> values;
  const auto start = Clock::now();
  const auto elapsed = [&] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };

  // Single-threaded workloads rotate across the CPUs; fleet_pingpong's
  // PDES workers already spread over them.
  std::optional<CpuRotation> rotation;
  if (!pingpong) rotation.emplace(kRotationPeriod);

  try {
    if (!trace) {
      std::vector<IterationResult> runs;
      do {
        runs.push_back(RunIteration(config));
        PrintHostLine("iteration " + std::to_string(runs.size()),
                      runs.back());
        checks.Iteration(runs.front().model, runs.back().model,
                         "iteration " + std::to_string(runs.size()));
      } while (runs.size() < 2 || elapsed() < seconds);
      // The first iteration of a process faults in its heap; with enough
      // iterations left, it is a warm-up and its host cost is not counted.
      if (runs.size() >= kWarmupAfter) runs.erase(runs.begin());
      values = EndToEnd(runs);
      // Set-up is short next to the timed phase, so sample it on its own
      // until its median is steady.
      std::vector<double> setups;
      double spent = 0.0;
      for (const auto& r : runs) setups.push_back(r.setup_s);
      while (setups.size() < kMinSetupSamples || spent < kSetupSeconds) {
        setups.push_back(SetupSeconds(config));
        spent += setups.back();
      }
      std::printf("  host cost: median of %zu iterations, set-up median of "
                  "%zu builds\n",
                  runs.size(), setups.size());
      values["setup_s"] = Median(setups);
    } else {
      RunConfig traced_config = config;
      traced_config.traced = true;
      RunConfig one_worker_config = config;
      one_worker_config.workers = 1;
      // Warm-up, so that no round pays for faulting in the heap.
      const ModelOutputs reference = RunIteration(config).model;
      checks.Iteration(reference, reference, "warm-up");
      std::map<std::string, std::vector<double>> rounds;
      IterationResult last_traced;
      int round = 0;
      do {
        ++round;
        const std::string label = "round " + std::to_string(round);
        IterationResult plain = RunIteration(config);
        IterationResult traced = RunIteration(traced_config);
        PrintHostLine(label + " untraced", plain);
        PrintHostLine(label + " traced", traced);
        checks.Iteration(reference, plain.model, label + " untraced");
        checks.Iteration(reference, traced.model, label + " traced");
        std::optional<IterationResult> one_worker;
        if (pingpong) {
          one_worker = RunIteration(one_worker_config);
          PrintHostLine(label + " 1 worker", *one_worker);
          // The PDES contract: the worker count never changes results.
          checks.Iteration(reference, one_worker->model,
                           label + " 1 worker");
        }
        const auto layers =
            LayerRound(traced, plain, one_worker ? &*one_worker : nullptr);
        // The spans must account for the timed phase: their top-level
        // durations sum to its wall time within 10%.
        const double coverage = layers.at("trace.coverage");
        if (coverage < 0.9 || coverage > 1.1) {
          checks.Fail(label + ": spans cover " + std::to_string(coverage) +
                      " of the traced wall time");
        }
        for (const auto& [name, value] : layers) {
          rounds[name].push_back(value);
        }
        last_traced = std::move(traced);
      } while (elapsed() < seconds);
      PrintSelfTimes(last_traced);
      for (const auto& [name, samples] : rounds) {
        values[name] = Median(samples);
      }
      if (!spans_path.empty() &&
          !WriteSpans(last_traced.spans, spans_path)) {
        std::printf("warning: could not write spans to %s\n",
                    spans_path.c_str());
      }
    }
  } catch (const std::exception& error) {
    checks.Fail(std::string("iteration threw: ") + error.what());
    checks.attempted = std::max<std::uint64_t>(checks.attempted, 1);
    checks.failed = checks.attempted;
  }

  std::vector<Metric> metrics;
  for (const auto& [name, unit] : trace ? LayerUnits() : EndToEndUnits()) {
    metrics.push_back({name, values[name], unit});
  }
  std::printf("checks: %s\n", checks.ok ? "all passed" : "FAILED");
  PrintResult(checks, metrics);
  return checks.ok ? 0 : 1;
}
