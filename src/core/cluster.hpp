// Cluster topology: hosts and the links between them, sharing one
// simulator. Links are full duplex and identified by unordered host pair.
// Each host also has a dense index, its position in AddHost order, which
// fleet bookkeeping (the scheduler's per-host slots) uses in place of the
// id string.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "core/host.hpp"
#include "sim/link.hpp"
#include "sim/simulator.hpp"

namespace vecycle::core {

class Cluster {
 public:
  explicit Cluster(sim::Simulator& simulator) : simulator_(simulator) {}

  Host& AddHost(HostConfig config) {
    config.Validate();
    VEC_CHECK_MSG(!index_.contains(config.id),
                  "duplicate host id: " + config.id);
    auto host = std::make_unique<Host>(std::move(config));
    index_.emplace(host->Id(), hosts_.size());
    hosts_.push_back(std::move(host));
    return *hosts_.back();
  }

  /// Connects two hosts with a dedicated link (e.g. LinkConfig::Lan()).
  sim::Link& Connect(const HostId& a, const HostId& b,
                     sim::LinkConfig config) {
    VEC_CHECK_MSG(FindHost(a) != nullptr, "unknown host: " + a);
    VEC_CHECK_MSG(FindHost(b) != nullptr, "unknown host: " + b);
    VEC_CHECK_MSG(a != b, "cannot connect a host to itself");
    const auto key = Key(a, b);
    VEC_CHECK_MSG(!links_.contains(key), "hosts already connected");
    links_[key] = std::make_unique<sim::Link>(config);
    return *links_[key];
  }

  [[nodiscard]] Host* FindHost(const HostId& id) {
    const auto it = index_.find(id);
    return it == index_.end() ? nullptr : hosts_[it->second].get();
  }
  [[nodiscard]] const Host* FindHost(const HostId& id) const {
    const auto it = index_.find(id);
    return it == index_.end() ? nullptr : hosts_[it->second].get();
  }

  /// The host's dense index: its position in AddHost order, so
  /// Hosts()[IndexOf(id)] is the host. Throws for an unknown id.
  [[nodiscard]] std::size_t IndexOf(const HostId& id) const {
    const auto it = index_.find(id);
    VEC_CHECK_MSG(it != index_.end(), "unknown host: " + id);
    return it->second;
  }

  [[nodiscard]] Host& GetHost(const HostId& id) {
    Host* host = FindHost(id);
    VEC_CHECK_MSG(host != nullptr, "unknown host: " + id);
    return *host;
  }
  [[nodiscard]] const Host& GetHost(const HostId& id) const {
    const Host* host = FindHost(id);
    VEC_CHECK_MSG(host != nullptr, "unknown host: " + id);
    return *host;
  }

  /// All hosts in AddHost order — a stable iteration order for fleet
  /// tooling (reports, schedulers, examples).
  [[nodiscard]] std::vector<const Host*> Hosts() const {
    std::vector<const Host*> out;
    out.reserve(hosts_.size());
    for (const auto& host : hosts_) out.push_back(host.get());
    return out;
  }

  /// Every link with its (lexicographically ordered) endpoints, in key
  /// order — a stable enumeration for topology analysis such as the PDES
  /// lookahead (minimum latency over links that cross shards).
  struct LinkEntry {
    HostId a;
    HostId b;
    const sim::Link* link = nullptr;
  };

  [[nodiscard]] std::vector<LinkEntry> Links() const {
    std::vector<LinkEntry> out;
    out.reserve(links_.size());
    for (const auto& [key, link] : links_) {
      out.push_back(LinkEntry{key.first, key.second, link.get()});
    }
    return out;
  }

  /// The direct link between two hosts, in either endpoint order, or
  /// nullptr when they are not connected.
  [[nodiscard]] const sim::Link* LinkBetween(const HostId& a,
                                             const HostId& b) const {
    const auto it = links_.find(Key(a, b));
    return it == links_.end() ? nullptr : it->second.get();
  }

  /// The link between two hosts plus the direction a->b on it.
  struct Path {
    sim::Link* link = nullptr;
    sim::Direction direction = sim::Direction::kAtoB;
  };

  [[nodiscard]] Path PathBetween(const HostId& from, const HostId& to) {
    const auto it = links_.find(Key(from, to));
    VEC_CHECK_MSG(it != links_.end(),
                  "no link between " + from + " and " + to);
    Path path;
    path.link = it->second.get();
    // Key() orders endpoints lexicographically; kAtoB flows from the
    // lexicographically smaller id.
    path.direction =
        from < to ? sim::Direction::kAtoB : sim::Direction::kBtoA;
    return path;
  }

  [[nodiscard]] sim::Simulator& Simulator() { return simulator_; }
  [[nodiscard]] std::size_t HostCount() const { return hosts_.size(); }
  [[nodiscard]] std::size_t LinkCount() const { return links_.size(); }

 private:
  static std::pair<HostId, HostId> Key(const HostId& a, const HostId& b) {
    return a < b ? std::make_pair(a, b) : std::make_pair(b, a);
  }

  sim::Simulator& simulator_;
  std::vector<std::unique_ptr<Host>> hosts_;
  /// Host id -> position in hosts_. Lookups only: nothing iterates it, so
  /// its hash order never reaches an output.
  std::unordered_map<HostId, std::size_t> index_;
  std::map<std::pair<HostId, HostId>, std::unique_ptr<sim::Link>> links_;
};

}  // namespace vecycle::core
