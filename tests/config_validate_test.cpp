// Every public Validate() rejects each invalid field with a CheckFailure
// whose message names the field distinctly — so a failing configuration
// points at the exact mistake, not a generic "invalid config".
#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "core/cluster.hpp"
#include "core/host.hpp"
#include "migration/config.hpp"
#include "migration/engine.hpp"
#include "migration/postcopy.hpp"
#include "core/scheduler.hpp"
#include "policy/placement.hpp"
#include "policy/policies.hpp"
#include "policy/scenario.hpp"
#include "sim/checksum_engine.hpp"
#include "sim/disk.hpp"
#include "sim/link.hpp"
#include "storage/checkpoint_store.hpp"
#include "vm/cycle_detector.hpp"
#include "vm/workload.hpp"

namespace vecycle {
namespace {

/// Runs `mutate` on a default config, validates, and returns the
/// CheckFailure message — failing the test if nothing was thrown or the
/// message lacks `expected` substring.
template <typename Config>
std::string RejectionMessage(const std::function<void(Config&)>& mutate,
                             const std::string& expected) {
  Config config;
  mutate(config);
  try {
    config.Validate();
  } catch (const CheckFailure& failure) {
    const std::string what = failure.what();
    EXPECT_NE(what.find(expected), std::string::npos)
        << "message \"" << what << "\" does not mention \"" << expected
        << '"';
    return what;
  }
  ADD_FAILURE() << "Validate() accepted a config that should fail: "
                << expected;
  return {};
}

/// Asserts all collected rejection messages are pairwise distinct.
void ExpectDistinct(const std::vector<std::string>& messages) {
  const std::set<std::string> unique(messages.begin(), messages.end());
  EXPECT_EQ(unique.size(), messages.size())
      << "two invalid fields produce the same diagnostic";
}

TEST(MigrationConfigValidate, RejectsEachInvalidFieldDistinctly) {
  using migration::MigrationConfig;
  std::vector<std::string> messages;
  messages.push_back(RejectionMessage<MigrationConfig>(
      [](auto& c) { c.batch_pages = 0; }, "batch_pages must be positive"));
  messages.push_back(RejectionMessage<MigrationConfig>(
      [](auto& c) { c.max_rounds = 1; },
      "need at least one copy + one stop round"));
  messages.push_back(RejectionMessage<MigrationConfig>(
      [](auto& c) { c.query_window = 0; }, "query_window must be positive"));
  messages.push_back(RejectionMessage<MigrationConfig>(
      [](auto& c) { c.compression.mean_ratio = 0.0; },
      "compression mean_ratio must be in (0, 1]"));
  messages.push_back(RejectionMessage<MigrationConfig>(
      [](auto& c) { c.compression.ratio_jitter = -0.1; },
      "compression ratio_jitter must be in [0, 1]"));
  messages.push_back(RejectionMessage<MigrationConfig>(
      [](auto& c) { c.compression.compress_rate = MiBPerSecond(0.0); },
      "compression compress_rate must be positive"));
  messages.push_back(RejectionMessage<MigrationConfig>(
      [](auto& c) { c.compression.decompress_rate = MiBPerSecond(0.0); },
      "compression decompress_rate must be positive"));
  ExpectDistinct(messages);

  // Boundary values the checks must accept.
  MigrationConfig ok;
  ok.max_rounds = 2;
  ok.compression.mean_ratio = 1.0;
  ok.compression.ratio_jitter = 0.0;
  EXPECT_NO_THROW(ok.Validate());
}

TEST(LinkConfigValidate, RejectsEachInvalidFieldDistinctly) {
  using sim::LinkConfig;
  std::vector<std::string> messages;
  messages.push_back(RejectionMessage<LinkConfig>(
      [](auto& c) { c.bandwidth = MiBPerSecond(0.0); },
      "link bandwidth must be positive"));
  messages.push_back(RejectionMessage<LinkConfig>(
      [](auto& c) { c.latency = Seconds(-0.001); },
      "link latency must be non-negative"));
  ExpectDistinct(messages);
  EXPECT_NO_THROW(LinkConfig::Lan().Validate());
  EXPECT_NO_THROW(LinkConfig::Wan().Validate());
}

TEST(LinkConfigValidate, ConstructorRefusesInvalidConfig) {
  sim::LinkConfig config;
  config.bandwidth = MiBPerSecond(-5.0);
  EXPECT_THROW(sim::Link{config}, CheckFailure);
}

TEST(DiskConfigValidate, RejectsEachInvalidFieldDistinctly) {
  using sim::DiskConfig;
  std::vector<std::string> messages;
  messages.push_back(RejectionMessage<DiskConfig>(
      [](auto& c) { c.sequential_read = MiBPerSecond(0.0); },
      "disk sequential_read rate must be positive"));
  messages.push_back(RejectionMessage<DiskConfig>(
      [](auto& c) { c.sequential_write = MiBPerSecond(0.0); },
      "disk sequential_write rate must be positive"));
  messages.push_back(RejectionMessage<DiskConfig>(
      [](auto& c) { c.random_access = Seconds(-0.001); },
      "disk random_access must be non-negative"));
  ExpectDistinct(messages);
  EXPECT_NO_THROW(DiskConfig::Hdd().Validate());
  EXPECT_NO_THROW(DiskConfig::Ssd().Validate());
}

TEST(DiskConfigValidate, ConstructorRefusesInvalidConfig) {
  sim::DiskConfig config;
  config.sequential_write = MiBPerSecond(0.0);
  EXPECT_THROW(sim::Disk{config}, CheckFailure);
}

TEST(ChecksumEngineConfigValidate, RejectsEachInvalidFieldDistinctly) {
  using sim::ChecksumEngineConfig;
  std::vector<std::string> messages;
  messages.push_back(RejectionMessage<ChecksumEngineConfig>(
      [](auto& c) { c.md5_rate = MiBPerSecond(0.0); },
      "checksum md5_rate must be positive"));
  messages.push_back(RejectionMessage<ChecksumEngineConfig>(
      [](auto& c) { c.sha1_rate = MiBPerSecond(0.0); },
      "checksum sha1_rate must be positive"));
  messages.push_back(RejectionMessage<ChecksumEngineConfig>(
      [](auto& c) { c.sha256_rate = MiBPerSecond(0.0); },
      "checksum sha256_rate must be positive"));
  messages.push_back(RejectionMessage<ChecksumEngineConfig>(
      [](auto& c) { c.fnv_rate = MiBPerSecond(0.0); },
      "checksum fnv_rate must be positive"));
  messages.push_back(RejectionMessage<ChecksumEngineConfig>(
      [](auto& c) { c.threads = 0; },
      "checksum engine needs at least one thread"));
  ExpectDistinct(messages);
  EXPECT_NO_THROW(ChecksumEngineConfig{}.Validate());
}

TEST(ChecksumEngineConfigValidate, ConstructorRefusesInvalidConfig) {
  sim::ChecksumEngineConfig config;
  config.threads = 0;
  EXPECT_THROW(sim::ChecksumEngine{config}, CheckFailure);
}

TEST(ChecksumEngineConfigValidate, RateForRejectsUnenumeratedAlgorithm) {
  // The old fallback silently billed unknown algorithms at md5_rate,
  // skewing every timing result; it must fail loudly instead.
  const sim::ChecksumEngineConfig config;
  EXPECT_GT(config.RateFor(DigestAlgorithm::kFnv1a).bytes_per_second, 0.0);
  EXPECT_THROW((void)config.RateFor(static_cast<DigestAlgorithm>(42)),
               CheckFailure);
}

TEST(RetentionPolicyValidate, RejectsQuotaSmallerThanOneImage) {
  std::vector<std::string> messages;
  messages.push_back(RejectionMessage<storage::RetentionPolicy>(
      [](auto& c) { c.disk_quota = Bytes{kPageSize - 1}; },
      "retention disk_quota smaller than one checkpoint image"));
  ExpectDistinct(messages);

  // Boundary and sentinel values the check must accept: exactly one page
  // image, and 0 meaning unlimited.
  storage::RetentionPolicy one_page;
  one_page.disk_quota = Pages(1);
  EXPECT_NO_THROW(one_page.Validate());
  EXPECT_NO_THROW(storage::RetentionPolicy{}.Validate());

  // Callers with bigger images can raise the floor.
  storage::RetentionPolicy small;
  small.disk_quota = MiB(1);
  EXPECT_THROW(small.Validate(MiB(2)), CheckFailure);
  EXPECT_NO_THROW(small.Validate(MiB(1)));
}

TEST(StoreConfigValidate, RejectsEachInvalidFieldDistinctly) {
  using storage::StoreConfig;
  std::vector<std::string> messages;
  messages.push_back(RejectionMessage<StoreConfig>(
      [](auto& c) { c.chunk_pages = 0; },
      "store chunk_pages must be a nonzero power of two"));
  messages.push_back(RejectionMessage<StoreConfig>(
      [](auto& c) { c.tier.ssd_capacity = Bytes{kPageSize - 1}; },
      "store tier ssd_capacity smaller than one chunk"));
  messages.push_back(RejectionMessage<StoreConfig>(
      [](auto& c) { c.gc_low_watermark = 0.0; },
      "store gc_low_watermark must be positive"));
  messages.push_back(RejectionMessage<StoreConfig>(
      [](auto& c) { c.gc_low_watermark = 0.95; },
      "store gc watermarks must be ordered (low <= high)"));
  messages.push_back(RejectionMessage<StoreConfig>(
      [](auto& c) { c.gc_high_watermark = 1.5; },
      "store gc_high_watermark must not exceed 1.0"));
  ExpectDistinct(messages);

  // Non-power-of-two trips the same diagnostic as zero (one knob).
  RejectionMessage<StoreConfig>([](auto& c) { c.chunk_pages = 3; },
                                "nonzero power of two");

  // Boundaries the checks must accept: an SSD cache of exactly one chunk,
  // degenerate equal watermarks, and a high watermark at the quota.
  StoreConfig ok;
  ok.chunking = true;
  ok.chunk_pages = 8;
  ok.tier.ssd_capacity = Pages(8);
  ok.gc_low_watermark = ok.gc_high_watermark = 1.0;
  EXPECT_NO_THROW(ok.Validate());
  EXPECT_NO_THROW(StoreConfig{}.Validate());
}

TEST(StoreConfigValidate, CheckedEvenWhenChunkingDisabled) {
  // Same contract as the transfer-stack configs: a latent bad chunk size
  // fails at Validate time, not on the day chunking is switched on.
  storage::StoreConfig config;
  config.chunking = false;
  config.chunk_pages = 5;
  EXPECT_THROW(config.Validate(), CheckFailure);
}

TEST(TieredDiskConfigValidate, ReachesSsdDeviceModel) {
  using sim::TieredDiskConfig;
  // The tier's own fields are unconstrained (0 = disabled), but the SSD
  // device model must be structurally valid even while the tier is off.
  RejectionMessage<TieredDiskConfig>(
      [](auto& c) { c.ssd.sequential_read = MiBPerSecond(0.0); },
      "disk sequential_read rate must be positive");
  EXPECT_NO_THROW(TieredDiskConfig{}.Validate());
  TieredDiskConfig enabled;
  enabled.ssd_capacity = MiB(64);
  EXPECT_NO_THROW(enabled.Validate());
}

TEST(StoreConfigValidate, ConstructorRefusesInvalidConfig) {
  sim::Disk disk{sim::DiskConfig::Hdd()};
  storage::StoreConfig bad;
  bad.chunk_pages = 6;
  EXPECT_THROW(
      (storage::CheckpointStore{disk, storage::RetentionPolicy{}, bad}),
      CheckFailure);
}

TEST(HostConfigValidate, RejectsEachInvalidFieldDistinctly) {
  using core::HostConfig;
  std::vector<std::string> messages;
  // A default HostConfig has an empty id, so the "mutation" is a no-op.
  messages.push_back(RejectionMessage<HostConfig>(
      [](auto&) {}, "host id must be non-empty"));
  messages.push_back(RejectionMessage<HostConfig>(
      [](auto& c) {
        c.id = "h";
        c.retention.disk_quota = Bytes{1};
      },
      "retention disk_quota smaller than one checkpoint image"));
  messages.push_back(RejectionMessage<HostConfig>(
      [](auto& c) {
        c.id = "h";
        c.disk.sequential_read = MiBPerSecond(0.0);
      },
      "disk sequential_read rate must be positive"));
  messages.push_back(RejectionMessage<HostConfig>(
      [](auto& c) {
        c.id = "h";
        c.cpu.md5_rate = MiBPerSecond(0.0);
      },
      "checksum md5_rate must be positive"));
  messages.push_back(RejectionMessage<HostConfig>(
      [](auto& c) {
        c.id = "h";
        c.store.chunk_pages = 7;
      },
      "store chunk_pages must be a nonzero power of two"));
  ExpectDistinct(messages);

  HostConfig ok;
  ok.id = "h";
  ok.retention.disk_quota = Pages(1);
  EXPECT_NO_THROW(ok.Validate());
}

TEST(HostConfigValidate, HostConstructorAndClusterRefuseInvalidConfig) {
  core::HostConfig config;  // empty id
  EXPECT_THROW(core::Host{config}, CheckFailure);

  sim::Simulator simulator;
  core::Cluster cluster(simulator);
  EXPECT_THROW(cluster.AddHost({}), CheckFailure);
  core::HostConfig tiny_quota;
  tiny_quota.id = "h";
  tiny_quota.retention.disk_quota = Bytes{512};
  EXPECT_THROW(cluster.AddHost(tiny_quota), CheckFailure);
  EXPECT_EQ(cluster.HostCount(), 0u);
}

TEST(PostCopyConfigValidate, RejectsEachInvalidFieldDistinctly) {
  using migration::PostCopyConfig;
  std::vector<std::string> messages;
  messages.push_back(RejectionMessage<PostCopyConfig>(
      [](auto& c) { c.guest_touch_rate_per_s = -1.0; },
      "touch rate must be non-negative"));
  messages.push_back(RejectionMessage<PostCopyConfig>(
      [](auto& c) { c.prefetch_batch = 0; },
      "prefetch batch must be positive"));
  messages.push_back(RejectionMessage<PostCopyConfig>(
      [](auto& c) { c.switchover_state = Bytes{0}; },
      "switchover_state must be positive"));
  ExpectDistinct(messages);
  EXPECT_NO_THROW(PostCopyConfig{}.Validate());
}

TEST(SchedulerConfigValidate, RejectsNegativeBackoff) {
  using core::SchedulerConfig;
  RejectionMessage<SchedulerConfig>(
      [](auto& c) { c.retry_backoff = Seconds(-1.0); },
      "retry_backoff must be non-negative");
  EXPECT_NO_THROW(SchedulerConfig{}.Validate());
  // Documented-unconstrained fields really do accept every value.
  SchedulerConfig zeros;
  zeros.max_outgoing_per_host = 0;
  zeros.max_incoming_per_host = 0;
  zeros.max_attempts = 0;
  EXPECT_NO_THROW(zeros.Validate());
}

TEST(CompressionConfigValidate, RejectsEachInvalidFieldDistinctly) {
  using migration::CompressionConfig;
  std::vector<std::string> messages;
  messages.push_back(RejectionMessage<CompressionConfig>(
      [](auto& c) { c.mean_ratio = 0.0; }, "mean_ratio"));
  messages.push_back(RejectionMessage<CompressionConfig>(
      [](auto& c) { c.ratio_jitter = -0.1; }, "ratio_jitter"));
  messages.push_back(RejectionMessage<CompressionConfig>(
      [](auto& c) { c.compress_rate = MiBPerSecond(0.0); },
      "compress_rate"));
  messages.push_back(RejectionMessage<CompressionConfig>(
      [](auto& c) { c.decompress_rate = MiBPerSecond(0.0); },
      "decompress_rate"));
  ExpectDistinct(messages);
  EXPECT_NO_THROW(CompressionConfig{}.Validate());
}

TEST(CompressionConfigValidate, CheckedEvenWhenDisabled) {
  // The header promises a latent bad config fails at Validate time, not
  // on the day compression is switched on.
  migration::CompressionConfig config;
  config.enabled = false;
  config.mean_ratio = 2.0;
  EXPECT_THROW(config.Validate(), CheckFailure);
}

TEST(MultifdConfigValidate, RejectsOutOfRangeChannelCounts) {
  using migration::MultifdConfig;
  // Both ends of the range trip the same bounds check (one knob, one
  // diagnostic), so no distinctness to assert here.
  RejectionMessage<MultifdConfig>(
      [](auto& c) { c.channels = 0; }, "multifd channels must be in [1, 16]");
  RejectionMessage<MultifdConfig>(
      [](auto& c) { c.channels = MultifdConfig::kMaxChannels + 1; },
      "multifd channels");
  EXPECT_NO_THROW(MultifdConfig{}.Validate());

  // Boundary values the audit channel-id scheme can still represent.
  MultifdConfig full;
  full.enabled = true;
  full.channels = MultifdConfig::kMaxChannels;
  EXPECT_NO_THROW(full.Validate());
  MultifdConfig one;
  one.enabled = true;
  one.channels = 1;
  EXPECT_NO_THROW(one.Validate());
  EXPECT_EQ(one.ActiveChannels(), 1u);
  EXPECT_EQ(MultifdConfig{}.ActiveChannels(), 1u);
}

TEST(MultifdConfigValidate, CheckedEvenWhenDisabled) {
  migration::MultifdConfig config;
  config.enabled = false;
  config.channels = 0;
  EXPECT_THROW(config.Validate(), CheckFailure);
}

TEST(DeltaConfigValidate, RejectsEachInvalidFieldDistinctly) {
  using migration::DeltaConfig;
  std::vector<std::string> messages;
  messages.push_back(RejectionMessage<DeltaConfig>(
      [](auto& c) { c.mean_ratio = 0.0; },
      "delta mean_ratio must be in (0, 1]"));
  messages.push_back(RejectionMessage<DeltaConfig>(
      [](auto& c) { c.ratio_jitter = -0.1; },
      "delta ratio_jitter must be in [0, 1]"));
  messages.push_back(RejectionMessage<DeltaConfig>(
      [](auto& c) { c.max_ratio = 1.5; },
      "delta max_ratio must be in (0, 1]"));
  messages.push_back(RejectionMessage<DeltaConfig>(
      [](auto& c) { c.encode_rate = MiBPerSecond(0.0); },
      "delta encode_rate must be positive"));
  messages.push_back(RejectionMessage<DeltaConfig>(
      [](auto& c) { c.decode_rate = MiBPerSecond(0.0); },
      "delta decode_rate must be positive"));
  ExpectDistinct(messages);
  EXPECT_NO_THROW(DeltaConfig{}.Validate());

  DeltaConfig boundary;
  boundary.mean_ratio = 1.0;
  boundary.ratio_jitter = 0.0;
  boundary.max_ratio = 1.0;
  EXPECT_NO_THROW(boundary.Validate());
}

TEST(DeltaConfigValidate, CheckedEvenWhenDisabled) {
  migration::DeltaConfig config;
  config.enabled = false;
  config.max_ratio = -1.0;
  EXPECT_THROW(config.Validate(), CheckFailure);
}

TEST(AutoConvergeConfigValidate, RejectsEachInvalidFieldDistinctly) {
  using migration::AutoConvergeConfig;
  std::vector<std::string> messages;
  messages.push_back(RejectionMessage<AutoConvergeConfig>(
      [](auto& c) { c.initial_throttle = 1.0; },
      "auto-converge initial_throttle must be in [0, 1)"));
  messages.push_back(RejectionMessage<AutoConvergeConfig>(
      [](auto& c) { c.throttle_increment = 0.0; },
      "auto-converge throttle_increment must be in (0, 1)"));
  messages.push_back(RejectionMessage<AutoConvergeConfig>(
      [](auto& c) { c.max_throttle = 0.0; },
      "auto-converge max_throttle must be in (0, 1)"));
  messages.push_back(RejectionMessage<AutoConvergeConfig>(
      [](auto& c) {
        c.initial_throttle = 0.5;
        c.max_throttle = 0.3;
      },
      "auto-converge max_throttle must be >= initial_throttle"));
  messages.push_back(RejectionMessage<AutoConvergeConfig>(
      [](auto& c) { c.divergence_ratio = 0.0; },
      "auto-converge divergence_ratio must be positive"));
  messages.push_back(RejectionMessage<AutoConvergeConfig>(
      [](auto& c) { c.trigger_rounds = 0; },
      "auto-converge trigger_rounds must be positive"));
  ExpectDistinct(messages);
  EXPECT_NO_THROW(AutoConvergeConfig{}.Validate());

  // Boundary: the guest may start unthrottled (0) and the first step may
  // also be the ceiling.
  AutoConvergeConfig boundary;
  boundary.initial_throttle = 0.0;
  boundary.max_throttle = 0.99;
  EXPECT_NO_THROW(boundary.Validate());
}

TEST(AutoConvergeConfigValidate, CheckedEvenWhenDisabled) {
  migration::AutoConvergeConfig config;
  config.enabled = false;
  config.trigger_rounds = 0;
  EXPECT_THROW(config.Validate(), CheckFailure);
}

TEST(MigrationConfigValidate, ChecksTransferStackSubConfigs) {
  // MigrationConfig::Validate must reach all three transfer-stack
  // sub-configs, not just its own scalar fields.
  migration::MigrationConfig bad_multifd;
  bad_multifd.multifd.channels = 0;
  EXPECT_THROW(bad_multifd.Validate(), CheckFailure);
  migration::MigrationConfig bad_delta;
  bad_delta.delta.mean_ratio = -1.0;
  EXPECT_THROW(bad_delta.Validate(), CheckFailure);
  migration::MigrationConfig bad_converge;
  bad_converge.auto_converge.max_throttle = 1.0;
  EXPECT_THROW(bad_converge.Validate(), CheckFailure);
}

TEST(WorkloadConfigValidate, IdleRejectsImpossibleRatesAndRegions) {
  using vm::IdleWorkload;
  std::vector<std::string> messages;
  messages.push_back(RejectionMessage<IdleWorkload::Config>(
      [](auto& c) { c.write_rate_pages_per_s = -1.0; },
      "idle write_rate_pages_per_s"));
  messages.push_back(RejectionMessage<IdleWorkload::Config>(
      [](auto& c) { c.hot_region_pages = 0; }, "idle hot_region_pages"));
  ExpectDistinct(messages);
  EXPECT_NO_THROW(IdleWorkload::Config{}.Validate());
  EXPECT_THROW(IdleWorkload({.hot_region_pages = 0}), CheckFailure);
}

TEST(WorkloadConfigValidate, HotspotRejectsOutOfDomainSkew) {
  using vm::HotspotWorkload;
  std::vector<std::string> messages;
  messages.push_back(RejectionMessage<HotspotWorkload::Config>(
      [](auto& c) { c.write_rate_pages_per_s = -1.0; },
      "hotspot write_rate_pages_per_s"));
  messages.push_back(RejectionMessage<HotspotWorkload::Config>(
      [](auto& c) { c.hot_fraction = 0.0; }, "hot_fraction"));
  messages.push_back(RejectionMessage<HotspotWorkload::Config>(
      [](auto& c) { c.hot_probability = 1.5; }, "hot_probability"));
  ExpectDistinct(messages);
  EXPECT_NO_THROW(HotspotWorkload::Config{}.Validate());
  EXPECT_THROW(HotspotWorkload({.hot_fraction = -0.5}), CheckFailure);
}

/// The CheckFailure message `action` throws; fails the test if it
/// throws nothing or the message lacks `expected`.
std::string ThrowMessage(const std::function<void()>& action,
                         const std::string& expected) {
  try {
    action();
  } catch (const CheckFailure& failure) {
    const std::string what = failure.what();
    EXPECT_NE(what.find(expected), std::string::npos)
        << "message \"" << what << "\" does not mention \"" << expected
        << '"';
    return what;
  }
  ADD_FAILURE() << "nothing thrown; expected a failure about: "
                << expected;
  return {};
}

TEST(WorkloadConfigValidate, UniformAndRemapRejectNonFiniteRates) {
  for (const double rate : {-1.0, std::numeric_limits<double>::infinity(),
                            std::numeric_limits<double>::quiet_NaN()}) {
    SCOPED_TRACE(rate);
    const std::vector<std::string> messages{
        ThrowMessage([rate] { vm::UniformRandomWorkload(rate, 1); },
                     "uniform write rate"),
        ThrowMessage([rate] { vm::PageRemapWorkload(rate, 1); },
                     "page-remap swap rate")};
    ExpectDistinct(messages);
  }
  EXPECT_NO_THROW(vm::UniformRandomWorkload(0.0, 1));
  EXPECT_NO_THROW(vm::PageRemapWorkload(0.0, 1));
}

TEST(WorkloadConfigValidate, OpCountBeyond64BitsIsRejected) {
  // Finite rates whose op count over one interval overflows uint64_t.
  vm::GuestMemory memory(MiB(1), vm::ContentMode::kSeedOnly);
  vm::UniformRandomWorkload uniform(1e300, 1);
  ThrowMessage([&] { uniform.Advance(memory, Seconds(1.0)); },
               "does not fit in 64 bits");
  vm::PageRemapWorkload remap(1e300, 1);
  ThrowMessage([&] { remap.Advance(memory, Seconds(1.0)); },
               "does not fit in 64 bits");
  vm::IdleWorkload idle({.write_rate_pages_per_s = 1e19});
  ThrowMessage([&] { idle.Advance(memory, Seconds(2.0)); },
               "does not fit in 64 bits");
  EXPECT_EQ(memory.TotalWrites(), 0u);
}

TEST(PeriodicWorkloadConfigValidate, RejectsDegenerateCycles) {
  using vm::PeriodicWorkload;
  std::vector<std::string> messages;
  messages.push_back(RejectionMessage<PeriodicWorkload::Config>(
      [](auto& c) { c.period = SimDuration::zero(); }, "periodic workload "
      "period"));
  messages.push_back(RejectionMessage<PeriodicWorkload::Config>(
      [](auto& c) { c.busy_fraction = 1.5; }, "busy_fraction"));
  messages.push_back(RejectionMessage<PeriodicWorkload::Config>(
      [](auto& c) { c.phase_offset = Hours(-1.0); }, "phase_offset"));
  // The busy and quiet sub-configs are reached too.
  messages.push_back(RejectionMessage<PeriodicWorkload::Config>(
      [](auto& c) { c.busy.hot_fraction = 0.0; }, "hot_fraction"));
  messages.push_back(RejectionMessage<PeriodicWorkload::Config>(
      [](auto& c) { c.quiet.hot_region_pages = 0; },
      "idle hot_region_pages"));
  ExpectDistinct(messages);
  EXPECT_NO_THROW(PeriodicWorkload::Config{}.Validate());
  EXPECT_THROW(PeriodicWorkload({.busy_fraction = -0.1}), CheckFailure);
}

TEST(CycleDetectorConfigValidate, RejectsUnusableWindows) {
  using vm::CycleDetector;
  std::vector<std::string> messages;
  messages.push_back(RejectionMessage<CycleDetector::Config>(
      [](auto& c) { c.window_samples = 1; }, "window_samples"));
  messages.push_back(RejectionMessage<CycleDetector::Config>(
      [](auto& c) { c.low_threshold = 1.0; }, "low_threshold"));
  messages.push_back(RejectionMessage<CycleDetector::Config>(
      [](auto& c) { c.min_samples = 0; }, "min_samples"));
  // min_samples must fit inside the window.
  messages.push_back(RejectionMessage<CycleDetector::Config>(
      [](auto& c) {
        c.window_samples = 4;
        c.min_samples = 5;
      },
      "min_samples"));
  EXPECT_NO_THROW(CycleDetector::Config{}.Validate());
  EXPECT_THROW(CycleDetector({.window_samples = 0}), CheckFailure);
}

TEST(PolicyConfigValidate, RejectsEachInvalidFieldDistinctly) {
  using policy::PolicyConfig;
  std::vector<std::string> messages;
  messages.push_back(RejectionMessage<PolicyConfig>(
      [](auto& c) { c.affinity_weight = -1.0; }, "affinity_weight"));
  messages.push_back(RejectionMessage<PolicyConfig>(
      [](auto& c) { c.load_weight = -1.0; }, "load_weight"));
  messages.push_back(RejectionMessage<PolicyConfig>(
      [](auto& c) { c.min_affinity = 1.5; }, "min_affinity"));
  messages.push_back(RejectionMessage<PolicyConfig>(
      [](auto& c) { c.max_defer = Hours(-1.0); }, "max_defer"));
  messages.push_back(RejectionMessage<PolicyConfig>(
      [](auto& c) { c.defer_step = SimDuration::zero(); }, "defer_step"));
  ExpectDistinct(messages);
  EXPECT_NO_THROW(PolicyConfig{}.Validate());
  EXPECT_THROW(policy::CheckpointAffinityPolicy({.affinity_weight = -1.0}),
               CheckFailure);
  EXPECT_THROW(
      policy::CycleAwarePolicy(
          std::make_unique<policy::RoundRobinPolicy>(),
          PolicyConfig{.defer_step = SimDuration::zero()}),
      CheckFailure);
}

TEST(ScenarioConfigValidate, RejectsUnbuildableWorlds) {
  using policy::ScenarioConfig;
  using policy::ScenarioKind;
  std::vector<std::string> messages;
  messages.push_back(RejectionMessage<ScenarioConfig>(
      [](auto& c) { c.kind = static_cast<ScenarioKind>(99); },
      "scenario kind"));
  messages.push_back(RejectionMessage<ScenarioConfig>(
      [](auto& c) { c.sites = 1; }, "at least two sites"));
  messages.push_back(RejectionMessage<ScenarioConfig>(
      [](auto& c) { c.hosts_per_site = 0; }, "host per site"));
  messages.push_back(RejectionMessage<ScenarioConfig>(
      [](auto& c) { c.vms = 0; }, "at least one VM"));
  messages.push_back(RejectionMessage<ScenarioConfig>(
      [](auto& c) { c.vm_ram = Bytes{0}; }, "vm_ram"));
  messages.push_back(RejectionMessage<ScenarioConfig>(
      [](auto& c) { c.days = 0; }, "day-cycle"));
  messages.push_back(RejectionMessage<ScenarioConfig>(
      [](auto& c) { c.warmup_days = 366; }, "warmup_days"));
  messages.push_back(RejectionMessage<ScenarioConfig>(
      [](auto& c) { c.step = SimDuration::zero(); }, "scenario step"));
  messages.push_back(RejectionMessage<ScenarioConfig>(
      [](auto& c) { c.busy_rate_pages_per_s = -1.0; },
      "busy_rate_pages_per_s"));
  messages.push_back(RejectionMessage<ScenarioConfig>(
      [](auto& c) { c.storm_fraction = 0.0; }, "storm_fraction"));
  ExpectDistinct(messages);
  EXPECT_NO_THROW(ScenarioConfig{}.Validate());
  EXPECT_THROW(policy::ScenarioGen({.sites = 1}), CheckFailure);
}

// The diagnostics must stay distinct ACROSS config types too: a log line
// containing only the message still identifies the failing knob.
TEST(AllValidates, MessagesAreGloballyDistinct) {
  const std::vector<std::string> messages = {
      RejectionMessage<migration::MigrationConfig>(
          [](auto& c) { c.batch_pages = 0; }, "batch_pages"),
      RejectionMessage<sim::LinkConfig>(
          [](auto& c) { c.bandwidth = MiBPerSecond(0.0); }, "bandwidth"),
      RejectionMessage<sim::DiskConfig>(
          [](auto& c) { c.sequential_read = MiBPerSecond(0.0); },
          "sequential_read"),
      RejectionMessage<sim::ChecksumEngineConfig>(
          [](auto& c) { c.md5_rate = MiBPerSecond(0.0); }, "md5_rate"),
      RejectionMessage<migration::PostCopyConfig>(
          [](auto& c) { c.prefetch_batch = 0; }, "prefetch batch"),
      RejectionMessage<core::HostConfig>([](auto&) {}, "host id"),
      RejectionMessage<storage::RetentionPolicy>(
          [](auto& c) { c.disk_quota = Bytes{1}; }, "disk_quota"),
      RejectionMessage<storage::StoreConfig>(
          [](auto& c) { c.gc_low_watermark = -1.0; }, "gc_low_watermark"),
      RejectionMessage<migration::MultifdConfig>(
          [](auto& c) { c.channels = 0; }, "multifd channels"),
      RejectionMessage<migration::DeltaConfig>(
          [](auto& c) { c.mean_ratio = 0.0; }, "delta mean_ratio"),
      RejectionMessage<migration::AutoConvergeConfig>(
          [](auto& c) { c.trigger_rounds = 0; },
          "auto-converge trigger_rounds"),
      RejectionMessage<policy::PolicyConfig>(
          [](auto& c) { c.defer_step = SimDuration::zero(); },
          "defer_step"),
      RejectionMessage<policy::ScenarioConfig>(
          [](auto& c) { c.warmup_days = 366; }, "warmup_days"),
      RejectionMessage<vm::CycleDetector::Config>(
          [](auto& c) { c.low_threshold = 0.0; }, "low_threshold"),
      RejectionMessage<vm::PeriodicWorkload::Config>(
          [](auto& c) { c.period = SimDuration::zero(); },
          "periodic workload period"),
  };
  ExpectDistinct(messages);
}

}  // namespace
}  // namespace vecycle
