// Guest workload models.
//
// A workload mutates guest memory as simulated time advances; it is what
// creates the divergence between a VM and its stale checkpoint that the
// whole paper is about. The library ships the workloads the evaluation
// needs: an idle guest (§4.4 best case), uniform and hotspot writers
// (generic churn), the sequential-ramdisk pattern of §4.5 (controlled
// update percentage over 90% of RAM), and a page-remap workload exercising
// the Fig. 5 caveat where content moves between frames — dirty tracking
// sees writes, content-based matching sees nothing new.
//
// Saturated intervals are folded. The model observes an interval's
// stores only through which pages they dirtied (generations, compared for
// inequality), the content they left (fresh seeds, compared for equality)
// and TotalWrites. When w fresh-seed stores land uniformly on an r-page
// region with w >= kSaturatingWritesPerPage * r, a per-store simulation
// misses some page with probability at most r * (1 - 1/r)^w <= r * e^-64
// (3e-22 even for a 1.57 M-page, 6 GiB region). So the idle, uniform and
// all-hot hotspot writers (and the periodic writer through its phases)
// instead rewrite each region page once, in page order, with a fresh seed
// (its generation rises by exactly one) and add the exact w to
// TotalWrites. Below the threshold every store is simulated. A fold draws
// one fresh seed per page instead of two or three draws per store, so the
// writer's later draws differ from those of a per-store run. Mixed
// hot/cold hotspot writers and page remaps (which move content rather
// than create it) are never folded.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "vm/guest_memory.hpp"

namespace vecycle::vm {

/// Stores per region page at or above which an interval of uniform
/// fresh-seed stores is folded (see the header comment for the bound).
inline constexpr std::uint64_t kSaturatingWritesPerPage = 64;

class Workload {
 public:
  virtual ~Workload() = default;

  /// Applies `dt` worth of guest activity to `memory`.
  virtual void Advance(GuestMemory& memory, SimDuration dt) = 0;

  /// Auto-converge hook (QEMU's cpu-throttle): scales the workload's
  /// write rate to `keep` (in [0, 1]) of nominal, modeling the guest's
  /// vCPUs being force-idled so pre-copy can catch up. 1.0 restores full
  /// speed. Composite workloads propagate to every part.
  virtual void SetThrottle(double keep) { throttle_keep_ = keep; }
  [[nodiscard]] double ThrottleKeep() const { return throttle_keep_; }

 protected:
  /// Rate after the auto-converge throttle; concrete Advance bodies route
  /// their nominal rates through this.
  [[nodiscard]] double Throttled(double rate_per_s) const {
    return rate_per_s * throttle_keep_;
  }

 private:
  double throttle_keep_ = 1.0;
};

/// An idle guest: background daemons touch a small fixed working set plus a
/// trickle of fresh pages. §4.4 measures this as the best case — the VM and
/// its most recent checkpoint stay almost identical.
class IdleWorkload : public Workload {
 public:
  struct Config {
    /// Pages freshly written per second of guest time. A handful per
    /// second matches an idle Ubuntu guest's logging/timers.
    double write_rate_pages_per_s = 4.0;
    /// Size of the hot region those writes fall into (kernel buffers,
    /// syslog, timers) — rewrites of the same region don't compound.
    std::uint64_t hot_region_pages = 2048;
    std::uint64_t seed = 1;

    /// Rejects rates and regions no idle guest can have (negative or
    /// non-finite write rate, an empty hot region). Any seed is legal.
    /// Called by the IdleWorkload constructor.
    void Validate() const;
  };

  explicit IdleWorkload(Config config);
  void Advance(GuestMemory& memory, SimDuration dt) override;

 private:
  Config config_;
  Xoshiro256 rng_;
  double carry_ = 0.0;
};

/// Writes fresh content to pages drawn uniformly from all of RAM at a
/// configurable rate. The memoryless churn baseline.
class UniformRandomWorkload : public Workload {
 public:
  UniformRandomWorkload(double write_rate_pages_per_s, std::uint64_t seed);
  void Advance(GuestMemory& memory, SimDuration dt) override;

 private:
  double rate_;
  Xoshiro256 rng_;
  double carry_ = 0.0;
};

/// 90/10-style skewed writer: most writes land in a small hot fraction of
/// RAM, the rest scatter. Models interactive desktops and servers whose
/// working set is far smaller than RAM.
class HotspotWorkload : public Workload {
 public:
  struct Config {
    double write_rate_pages_per_s = 1000.0;
    double hot_fraction = 0.1;    ///< fraction of RAM that is hot
    double hot_probability = 0.9; ///< probability a write lands in it
    std::uint64_t seed = 1;

    /// Rejects skew parameters outside their domains: the write rate
    /// must be finite and non-negative, hot_fraction in (0, 1] and
    /// hot_probability in [0, 1]. Any seed is legal. Called by the
    /// HotspotWorkload constructor.
    void Validate() const;
  };

  explicit HotspotWorkload(Config config);
  void Advance(GuestMemory& memory, SimDuration dt) override;

 private:
  Config config_;
  Xoshiro256 rng_;
  double carry_ = 0.0;
};

/// The §4.5 controlled-update workload: a ramdisk file covering a fixed
/// fraction of RAM (90% in the paper), laid out sequentially in guest
/// physical memory. Fill() writes the file once; UpdateFraction() rewrites
/// a chosen percentage of its blocks with fresh random data, which is how
/// the paper sweeps similarity from ~100% down to 0%.
///
/// Memory is passed per call (not captured) because a migrated VM adopts a
/// *new* GuestMemory object at the destination; the workload follows the
/// VM, not the allocation.
class SequentialRamdiskWorkload {
 public:
  SequentialRamdiskWorkload(std::uint64_t memory_pages,
                            double ramdisk_fraction, std::uint64_t seed);

  /// Sequentially fills the ramdisk with fresh random content.
  void Fill(GuestMemory& memory);

  /// Rewrites `fraction` (0..1) of the ramdisk's pages, chosen uniformly
  /// without replacement, with never-seen-before content.
  void UpdateFraction(GuestMemory& memory, double fraction);

  [[nodiscard]] PageId FirstPage() const { return first_page_; }
  [[nodiscard]] std::uint64_t PageSpan() const { return span_pages_; }

 private:
  Xoshiro256 rng_;
  PageId first_page_;
  std::uint64_t span_pages_;
};

/// Moves content between frames without creating new content: each step
/// swaps the contents of randomly chosen page pairs. Every touched page is
/// dirtied (two writes per swap), but the multiset of page contents — and
/// hence what content-based redundancy elimination must transfer — is
/// unchanged. This is the Fig. 5 scenario in which Miyakodori overestimates.
class PageRemapWorkload : public Workload {
 public:
  PageRemapWorkload(double swaps_per_s, std::uint64_t seed);
  void Advance(GuestMemory& memory, SimDuration dt) override;

 private:
  double rate_;
  Xoshiro256 rng_;
  double carry_ = 0.0;
};

/// Day/night duty cycle: a busy writer for the first part of each period,
/// a quiet one for the rest. This is the workload shape the cycle-aware
/// placement policy exploits — a VM migrated inside its quiet window
/// converges in one round, while the same leg during the busy phase
/// fights live churn (Baruchi et al., PAPERS.md). Advance() subdivides
/// long intervals at phase edges, so an 8-hour fleet advance applies the
/// busy and quiet rates to exactly the right sub-spans.
class PeriodicWorkload : public Workload {
 public:
  struct Config {
    SimDuration period = Hours(24.0);
    /// Fraction of each period spent in the busy phase; the phase order
    /// is busy-then-quiet from the period's start.
    double busy_fraction = 1.0 / 3.0;
    /// Shifts this VM's cycle start, so fleets stagger their busy hours.
    SimDuration phase_offset = SimDuration::zero();
    HotspotWorkload::Config busy;
    IdleWorkload::Config quiet;

    /// Rejects cycles that cannot alternate: the period must be
    /// positive, busy_fraction must be in [0, 1] (0 or 1 degenerate to a
    /// single-phase workload, which is legal), and phase_offset
    /// non-negative. The busy and quiet sub-configs self-validate.
    /// Called by the PeriodicWorkload constructor.
    void Validate() const;
  };

  explicit PeriodicWorkload(Config config);
  void Advance(GuestMemory& memory, SimDuration dt) override;
  void SetThrottle(double keep) override;

  /// True when the cycle position is inside the busy phase.
  [[nodiscard]] bool InBusyPhase() const;

 private:
  Config config_;
  HotspotWorkload busy_;
  IdleWorkload quiet_;
  SimDuration position_;  ///< current offset into the period
  SimDuration busy_span_;
};

/// Runs several workloads in sequence over the same interval, e.g. hotspot
/// churn plus a remap trickle.
class CompositeWorkload : public Workload {
 public:
  void Add(std::unique_ptr<Workload> workload);
  void Advance(GuestMemory& memory, SimDuration dt) override;
  void SetThrottle(double keep) override;

 private:
  std::vector<std::unique_ptr<Workload>> parts_;
};

}  // namespace vecycle::vm
