// Ablation (§3.2): bulk checksum exchange vs. the per-page query scheme
// the paper names but leaves unevaluated: "we expect the high frequency
// exchange of small messages to slow down the migration performance.
// Hence, we send the checksums in-bulk before the actual migration
// begins." This bench quantifies that expectation: a synchronous query
// per page pays one round trip each, so latency — not bandwidth —
// dominates, catastrophically so on the 27 ms WAN. Pipelining the queries
// (larger windows) recovers much of the loss but never beats bulk.
#include <cstdio>
#include <vector>

#include "analysis/table.hpp"
#include "bench_util.hpp"

namespace {

using namespace vecycle;

migration::MigrationStats Run(sim::LinkConfig link,
                              migration::HashExchangeMode mode,
                              std::uint32_t window) {
  bench::TwoHostWorld world(link);
  auto vm = bench::MakeBestCaseVm(MiB(512), 0x5eed);
  world.orchestrator.Deploy(vm, "A");
  world.orchestrator.Migrate(
      vm, "B", bench::StrategyConfig(migration::Strategy::kFull));

  migration::MigrationConfig config;
  config.strategy = migration::Strategy::kHashes;
  config.hash_exchange = mode;
  config.query_window = window;
  // Drop the knowledge A's store would give the source, so the exchange
  // actually runs: the cold-source path is what §3.2 discusses.
  auto run = core::BuildMigrationRun(world.cluster, vm, "A", config);
  run.source_knowledge.reset();
  auto outcome = migration::RunMigration(std::move(run));
  core::ApplyArrival(vm, "A", outcome);
  return outcome.stats;
}

}  // namespace

int main() {
  const vecycle::obs::ScopedReporter reporter("bench_ablation_hash_exchange");
  bench::PrintHeader(
      "Ablation: hash-exchange protocol (512 MiB idle VM, cold source)");

  analysis::Table table({"Network", "Scheme", "Migration time",
                         "Exchange traffic", "Queries"});
  for (const auto& [net_label, link] :
       {std::pair<const char*, sim::LinkConfig>{"LAN",
                                                sim::LinkConfig::Lan()},
        {"WAN", sim::LinkConfig::Wan()}}) {
    const auto bulk =
        Run(link, migration::HashExchangeMode::kBulk, 1);
    table.AddRow({net_label, "bulk (paper)",
                  FormatDuration(bulk.total_time),
                  FormatBytes(bulk.bulk_exchange_bytes), "0"});
    for (const std::uint32_t window : {1u, 16u, 256u}) {
      const auto query =
          Run(link, migration::HashExchangeMode::kPerPageQuery, window);
      table.AddRow({net_label,
                    "query w=" + std::to_string(window),
                    FormatDuration(query.total_time),
                    FormatBytes(query.query_bytes),
                    std::to_string(query.query_count)});
    }
  }
  std::printf("%s\n", table.Render().c_str());

  std::printf(
      "Paper (§3.2): predicted, not measured — the per-page variant was\n"
      "rejected on the expectation that high-frequency small messages\n"
      "would slow the migration. Measured: with window 1 every page pays\n"
      "a full RTT (0.4 ms LAN / 54 ms WAN), dwarfing the bulk transfer;\n"
      "deep pipelining narrows but never closes the gap, while spending\n"
      "more exchange traffic than bulk for any VM with <100%% distinct\n"
      "pages.\n");
  return 0;
}
