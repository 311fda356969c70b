// Ablation: concurrent migrations on a shared link.
//
// §4.4 notes the available migration bandwidth "may also be limited in a
// local area network, as the migration traffic competes with other
// network users", and the motivation cites operators who limit migration
// frequency because of its traffic [22, 26]. This bench evacuates N VMs
// at once over one gigabit link — the maintenance-evacuation scenario —
// comparing full pre-copy against VeCycle returns to hosts holding
// day-old checkpoints. VeCycle's per-VM traffic cut multiplies: the whole
// evacuation finishes in a fraction of the time, or equivalently, more
// VMs can migrate per maintenance window.
#include <cstdio>
#include <memory>
#include <vector>

#include "analysis/table.hpp"
#include "bench_util.hpp"
#include "storage/checkpoint.hpp"

namespace {

using namespace vecycle;

struct EvacuationResult {
  SimDuration makespan;
  Bytes total_tx;
};

EvacuationResult Evacuate(std::size_t vm_count,
                          migration::Strategy strategy) {
  sim::Simulator simulator;
  // One shared uplink out of the host being evacuated; each VM returns to
  // a *different* destination host (own disk, CPU and checkpoint store),
  // as a load balancer would scatter them.
  sim::Link link(sim::LinkConfig::Lan());
  sim::ChecksumEngine cpu_a{sim::ChecksumEngineConfig{}};
  sim::Disk disk_a{sim::DiskConfig::Hdd()};
  storage::CheckpointStore store_a{disk_a};
  std::vector<std::unique_ptr<sim::ChecksumEngine>> dest_cpus;
  std::vector<std::unique_ptr<sim::Disk>> dest_disks;
  std::vector<std::unique_ptr<storage::CheckpointStore>> dest_stores;
  for (std::size_t i = 0; i < vm_count; ++i) {
    dest_cpus.push_back(
        std::make_unique<sim::ChecksumEngine>(sim::ChecksumEngineConfig{}));
    dest_disks.push_back(
        std::make_unique<sim::Disk>(sim::DiskConfig::Hdd()));
    dest_stores.push_back(
        std::make_unique<storage::CheckpointStore>(*dest_disks.back()));
  }

  // Each VM: 512 MiB, ~90% still matching the day-old checkpoint at the
  // destination (a typical Fig. 1 server at a few hours delta).
  std::vector<std::unique_ptr<vm::GuestMemory>> memories;
  std::vector<std::vector<Digest128>> knowledge(vm_count);
  for (std::size_t i = 0; i < vm_count; ++i) {
    auto memory = std::make_unique<vm::GuestMemory>(
        MiB(512), vm::ContentMode::kSeedOnly);
    Xoshiro256 rng(100 + i);
    for (vm::PageId p = 0; p < memory->PageCount(); ++p) {
      memory->WritePage(p, rng.Next() | (1ull << 62));
    }
    const std::string id = "vm" + std::to_string(i);
    dest_stores[i]->Save(id, storage::Checkpoint::CaptureFrom(*memory),
                         kSimEpoch);
    for (vm::PageId p = 0; p < memory->PageCount(); ++p) {
      knowledge[i].push_back(memory->PageDigest(p));
    }
    // 10% churn since the checkpoint was taken.
    vm::UniformRandomWorkload churn(100.0, 200 + i);
    churn.Advance(*memory, Seconds(131.0));
    memories.push_back(std::move(memory));
  }

  std::vector<std::unique_ptr<migration::MigrationSession>> sessions;
  for (std::size_t i = 0; i < vm_count; ++i) {
    migration::MigrationRun run;
    run.simulator = &simulator;
    run.link = &link;
    run.direction = sim::Direction::kAtoB;
    run.source_memory = memories[i].get();
    run.source = {&cpu_a, &store_a};
    run.destination = {dest_cpus[i].get(), dest_stores[i].get()};
    run.vm_id = "vm" + std::to_string(i);
    run.config.strategy = strategy;
    run.source_knowledge = std::make_shared<const DigestMap>(knowledge[i]);
    sessions.push_back(
        std::make_unique<migration::MigrationSession>(std::move(run)));
    sessions.back()->Start();
  }
  simulator.Run();

  EvacuationResult result{SimDuration::zero(), Bytes{0}};
  for (auto& session : sessions) {
    auto outcome = session->TakeOutcome();
    session->RecordOutcome(outcome);
    // Wall-clock makespan of the whole evacuation (sessions all start at
    // t=0; setup staggering and contention both count).
    result.makespan =
        std::max(result.makespan, outcome.completed_at - kSimEpoch);
    result.total_tx += outcome.stats.tx_bytes;
  }
  return result;
}

}  // namespace

int main() {
  const vecycle::obs::ScopedReporter reporter("bench_ablation_contention");
  bench::PrintHeader(
      "Ablation: evacuating N concurrent 512 MiB VMs over one GbE link");

  analysis::Table table({"VMs", "Scheme", "Makespan", "Total traffic"});
  for (const std::size_t n : {1u, 2u, 4u, 8u}) {
    const auto full = Evacuate(n, migration::Strategy::kFull);
    const auto vecycle = Evacuate(n, migration::Strategy::kHashes);
    table.AddRow({std::to_string(n), "full pre-copy",
                  FormatDuration(full.makespan),
                  FormatBytes(full.total_tx)});
    table.AddRow({std::to_string(n), "VeCycle",
                  FormatDuration(vecycle.makespan),
                  FormatBytes(vecycle.total_tx)});
  }
  std::printf("%s\n", table.Render().c_str());

  std::printf(
      "Motivation §1/§5: migration traffic is the pain point that limits\n"
      "how often operators migrate [22, 26]. Makespan here is wall clock\n"
      "and *includes* each destination's checkpoint scan (which the\n"
      "paper's per-migration timing excludes as setup): that is why\n"
      "VeCycle loses the single-VM case yet wins the evacuation — full\n"
      "pre-copy grows linearly with the shared link's backlog while\n"
      "VeCycle grows with the source's checksum rate, crossing over by\n"
      "4 VMs and shipping an order of magnitude less data throughout.\n"
      "Pre-staging the scans (destinations know an evacuation is coming)\n"
      "would remove VeCycle's fixed cost entirely.\n");
  return 0;
}
