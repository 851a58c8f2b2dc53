// Seeded AS-level topology generator.
//
// Builds the population-scale substrate the paper's anchors need: an AS
// graph (a transit clique with stub ASes multi-homed onto it), per-AS
// router backbones, and leaf hosts under CIDR-aggregated addressing.
// Routing is hierarchical: edge routers keep auto-installed /32s for
// their attached hosts (cheap in the compiled LPM table), borders
// aggregate each backbone router to one prefix, and inter-AS routes are
// whole AS blocks along BFS shortest paths — so a 100k-host topology
// carries a few hundred routes per core router instead of 100k.
//
// Determinism: everything derives from AsGenConfig::seed through one Rng;
// the same config produces a byte-identical topology (addresses, links,
// routes, describe() output) on every run and platform.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/ip.hpp"
#include "common/time.hpp"
#include "netsim/topology.hpp"

namespace sm::netsim {

struct AsGenConfig {
  uint64_t seed = 0xA5;
  /// Total autonomous systems; the first `transit_count` form the
  /// fully-meshed transit core, the rest are stubs homed onto it.
  size_t as_count = 8;
  size_t transit_count = 2;
  /// Backbone routers per AS; routers[0] is the border router.
  size_t routers_per_as = 3;
  /// Leaf subnets hanging off each backbone router.
  size_t subnets_per_router = 2;
  /// Hosts materialized per leaf subnet.
  size_t hosts_per_subnet = 16;
  /// Additional random peering links beyond the stub->transit homing.
  size_t extra_peering = 1;
  common::Duration host_latency = common::Duration::micros(500);
  common::Duration backbone_latency = common::Duration::millis(1);
  common::Duration interas_latency = common::Duration::millis(10);
};

struct AsInfo {
  size_t index = 0;
  bool transit = false;
  /// Aggregate prefix covering every address in this AS.
  common::Cidr block;
  /// v6 aggregate: the map_v6 embedding of `block` (a /96+len prefix).
  common::Cidr6 block6;
  /// routers[0] is the border; the rest hang off it in a star.
  std::vector<Router*> routers;
  /// Per-router aggregate announced by the border (one per router).
  std::vector<common::Cidr> router_blocks;
  /// This AS's span inside AsTopology::hosts().
  size_t first_host = 0;
  size_t host_count = 0;
};

class AsTopology {
 public:
  /// Generates the topology into `net`. The Network owns every node and
  /// link; the returned AsTopology is an index over them.
  static AsTopology generate(Network& net, const AsGenConfig& config);

  /// Indexes existing hosts (say, a testbed's neighbors) as one AS so
  /// BgTraffic can draw background flows between them. That AS has no
  /// routers or blocks, so border() is undefined on it, and config()
  /// keeps its defaults. Only background traffic works here:
  /// BgTraffic::launch_probe needs a server outside the prober's AS and
  /// would loop forever looking for one.
  static AsTopology of_hosts(std::vector<Host*> hosts);

  const AsGenConfig& config() const { return config_; }
  const std::vector<AsInfo>& ases() const { return ases_; }
  const std::vector<Host*>& hosts() const { return hosts_; }
  size_t population() const { return hosts_.size(); }
  Router* border(size_t as_index) const {
    return ases_[as_index].routers.front();
  }
  /// AS index owning hosts()[host_index].
  size_t as_of_host(size_t host_index) const;
  /// Undirected inter-AS edges (as index pairs, lexicographic).
  const std::vector<std::pair<size_t, size_t>>& as_links() const {
    return as_links_;
  }

  /// Deterministic fingerprint of the generated topology: per-AS blocks,
  /// router aggregates, host counts, the inter-AS edge list, and a
  /// running hash over every host address. Byte-identical for equal
  /// (config, seed); used by the same-seed property tests and the bench's
  /// -j1 vs -j4 byte-comparison.
  std::string describe() const;

 private:
  AsGenConfig config_;
  std::vector<AsInfo> ases_;
  std::vector<Host*> hosts_;
  std::vector<std::pair<size_t, size_t>> as_links_;
  uint64_t host_digest_ = 0;
};

}  // namespace sm::netsim
