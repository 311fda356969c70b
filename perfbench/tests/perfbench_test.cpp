// Self-tests of the benchmark driver: tracing and worker count never move
// a model output, the diurnal driver reproduces policy::PolicyRunner, and
// span self time is duration minus same-thread children.
//
// Build and run from the repository root:
//   cmake -S perfbench -B .bench_build
//   cmake --build .bench_build --target perfbench_test
//   .bench_build/perfbench_test
#include <gtest/gtest.h>

#include <thread>

#include "policy/runner.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr std::uint64_t kSeed = 7;

class EveryWorkload : public ::testing::TestWithParam<WorkloadKind> {};

TEST_P(EveryWorkload, TracedRunGivesIdenticalModelOutputs) {
  RunConfig plain{GetParam(), kSeed, false, 0};
  RunConfig traced = plain;
  traced.traced = true;
  const IterationResult a = RunIteration(plain);
  const IterationResult b = RunIteration(traced);
  EXPECT_TRUE(a.spans.empty());
  EXPECT_FALSE(b.spans.empty());
  EXPECT_EQ(a.model.legs_completed, a.model.legs_expected);
  EXPECT_EQ(a.model.wire_bytes, b.model.wire_bytes);
  EXPECT_EQ(a.model.migration_times, b.model.migration_times);
  EXPECT_EQ(a.model.downtimes, b.model.downtimes);
  EXPECT_EQ(a.model.fingerprint, b.model.fingerprint);
  EXPECT_TRUE(a.model == b.model);
}

INSTANTIATE_TEST_SUITE_P(
    Perfbench, EveryWorkload,
    ::testing::Values(WorkloadKind::kDiurnal, WorkloadKind::kFleetPingpong,
                      WorkloadKind::kWanReturn),
    [](const ::testing::TestParamInfo<WorkloadKind>& info) {
      return std::string(WorkloadName(info.param));
    });

TEST(Perfbench, DiurnalDriverReproducesPolicyRunner) {
  const auto scenario = DiurnalScenario(kSeed);
  auto policy = DiurnalPolicy();
  const vecycle::policy::RunResult expected = vecycle::policy::PolicyRunner::Run(
      scenario, *policy, DiurnalMigrationConfig());
  const IterationResult ours =
      RunIteration(RunConfig{WorkloadKind::kDiurnal, kSeed, false, 0});
  EXPECT_EQ(ours.model.legs_completed, expected.completed);
  EXPECT_EQ(ours.model.wire_bytes, expected.wire_bytes.count);
  EXPECT_EQ(ours.model.downtimes, expected.downtimes);
  EXPECT_EQ(ours.model.bulk_exchange_bytes,
            expected.bulk_exchange_bytes.count);
  EXPECT_EQ(ours.model.fingerprint, expected.fingerprint);
  EXPECT_EQ(ours.model.decisions, expected.decisions.decisions);
  EXPECT_EQ(ours.model.deferred, expected.decisions.deferred);
  EXPECT_EQ(ours.model.affinity_hits, expected.decisions.affinity_hits);
  // The bench's p99 is part of the fingerprint fold; check it directly too.
  EXPECT_EQ(Percentile(ours.model.downtimes, 99.0), expected.P99Downtime());
}

TEST(Perfbench, PingpongWorkerCountNeverChangesModelOutputs) {
  const IterationResult one =
      RunIteration(RunConfig{WorkloadKind::kFleetPingpong, kSeed, false, 1});
  const IterationResult four =
      RunIteration(RunConfig{WorkloadKind::kFleetPingpong, kSeed, false, 4});
  EXPECT_EQ(one.model.fingerprint, four.model.fingerprint);
  EXPECT_TRUE(one.model == four.model);
}

TEST(Perfbench, SeedChangesInputs) {
  const IterationResult a =
      RunIteration(RunConfig{WorkloadKind::kWanReturn, 1, false, 0});
  const IterationResult b =
      RunIteration(RunConfig{WorkloadKind::kWanReturn, 2, false, 0});
  EXPECT_NE(a.model.fingerprint, b.model.fingerprint);
}

TEST(Spans, SelfTimeSubtractsSameThreadChildrenOnly) {
  SpanRecorder recorder(true);
  {
    auto outer = recorder.Open(span::kDrain);
    { auto inner = recorder.Open(span::kAdvance); }
    std::thread worker([&] { auto remote = recorder.Open(span::kAdvance); });
    worker.join();
  }
  const auto spans = recorder.Collect();
  ASSERT_EQ(spans.size(), 3u);
  const Span& drain = spans[0];
  const Span& local = spans[1];
  const Span& remote = spans[2];
  EXPECT_EQ(local.parent, drain.id);
  EXPECT_EQ(remote.parent, drain.id);  // a worker's span joins the driver's
  EXPECT_NE(remote.thread, drain.thread);
  const auto totals = TotalsByName(spans);
  EXPECT_EQ(totals.at(span::kDrain).self_ns,
            drain.DurationNs() - local.DurationNs());
  EXPECT_EQ(totals.at(span::kAdvance).calls, 2u);
  EXPECT_EQ(TopLevelNs(spans), drain.DurationNs());
}

TEST(Spans, DisabledRecorderRecordsNothing) {
  SpanRecorder recorder(false);
  { auto scope = recorder.Open(span::kRunFor); }
  EXPECT_TRUE(recorder.Collect().empty());
  EXPECT_EQ(recorder.InnermostOnThisThread(), nullptr);
}

TEST(Percentiles, TailLeavesTenSamplesAbove) {
  EXPECT_DOUBLE_EQ(TailPercentile(40), 75.0);
  EXPECT_DOUBLE_EQ(TailPercentile(10), 50.0);
  std::vector<vecycle::SimDuration> samples;
  for (int i = 1; i <= 40; ++i) samples.emplace_back(i);
  EXPECT_EQ(Percentile(samples, TailPercentile(40)).count(), 30);
  EXPECT_EQ(Percentile(samples, 50.0).count(), 20);
}

}  // namespace
}  // namespace perfbench
