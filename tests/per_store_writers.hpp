// Per-store reference writers for the workload tests: the idle, uniform
// and hotspot Advance bodies with every store simulated, whatever the
// interval — the model before saturated intervals were folded. Below the
// fold threshold the library writers must match them draw for draw
// (seeds, generations, TotalWrites); above it, in the set of pages they
// dirty and in TotalWrites.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "vm/guest_memory.hpp"

namespace vecycle::vm::reference {

/// Never-seen content seed: top bit clear, never the zero page.
inline std::uint64_t FreshSeed(Xoshiro256& rng) {
  std::uint64_t s;
  do {
    s = rng.Next() & ~(1ull << 63);
  } while (s == kZeroPageSeed);
  return s;
}

/// Whole stores in `dt` at `rate_per_s`, carrying the fraction.
inline std::uint64_t Stores(double rate_per_s, SimDuration dt,
                            double& carry) {
  const double exact = rate_per_s * ToSeconds(dt) + carry;
  const double whole = std::floor(exact);
  carry = exact - whole;
  return static_cast<std::uint64_t>(whole);
}

/// IdleWorkload (`region` = its hot region) and UniformRandomWorkload
/// (`region` = all of RAM): each store draws a fresh seed, then a page.
class UniformWriter {
 public:
  UniformWriter(double rate_per_s, std::uint64_t region, std::uint64_t seed)
      : rate_(rate_per_s), region_(region), rng_(seed) {}

  void Advance(GuestMemory& memory, SimDuration dt) {
    const std::uint64_t writes = Stores(rate_, dt, carry_);
    for (std::uint64_t i = 0; i < writes; ++i) {
      const std::uint64_t seed = FreshSeed(rng_);
      memory.WritePage(rng_.NextBelow(region_), seed);
    }
  }

 private:
  double rate_;
  std::uint64_t region_;
  Xoshiro256 rng_;
  double carry_ = 0.0;
};

/// HotspotWorkload: each store draws the hot coin, a page, then a seed.
class HotspotWriter {
 public:
  HotspotWriter(double rate_per_s, double hot_fraction,
                double hot_probability, std::uint64_t seed)
      : rate_(rate_per_s),
        hot_fraction_(hot_fraction),
        hot_probability_(hot_probability),
        rng_(seed) {}

  void Advance(GuestMemory& memory, SimDuration dt) {
    const std::uint64_t writes = Stores(rate_, dt, carry_);
    const std::uint64_t n = memory.PageCount();
    const auto hot_pages = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(hot_fraction_ *
                                      static_cast<double>(n)));
    for (std::uint64_t i = 0; i < writes; ++i) {
      const PageId page = rng_.NextBool(hot_probability_)
                              ? rng_.NextBelow(hot_pages)
                              : rng_.NextBelow(n);
      memory.WritePage(page, FreshSeed(rng_));
    }
  }

 private:
  double rate_;
  double hot_fraction_;
  double hot_probability_;
  Xoshiro256 rng_;
  double carry_ = 0.0;
};

}  // namespace vecycle::vm::reference
