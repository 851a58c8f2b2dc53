#include "netsim/asgen.hpp"

#include <algorithm>
#include <deque>
#include <set>

#include "common/flathash.hpp"
#include "common/rng.hpp"

namespace sm::netsim {

namespace {

uint8_t prefix_len_for(uint64_t addresses) {
  uint8_t len = 32;
  uint64_t size = 1;
  while (size < addresses && len > 0) {
    size <<= 1;
    --len;
  }
  return len;
}

}  // namespace

AsTopology AsTopology::generate(Network& net, const AsGenConfig& config) {
  AsTopology topo;
  topo.config_ = config;
  common::Rng rng(config.seed);

  const size_t transit = std::max<size_t>(1, std::min(config.transit_count,
                                                      config.as_count));
  const size_t routers_per_as = std::max<size_t>(1, config.routers_per_as);
  const size_t subnets_per_router =
      std::max<size_t>(1, config.subnets_per_router);

  // Address plan: each subnet needs hosts + network/broadcast slots; each
  // router aggregates its subnets into one power-of-two block; each AS
  // aggregates its routers. Blocks are carved sequentially from 10.0.0.0
  // with natural alignment, so every aggregate is a real CIDR prefix.
  const uint8_t subnet_len = prefix_len_for(config.hosts_per_subnet + 2);
  const uint64_t subnet_size = uint64_t{1} << (32 - subnet_len);
  const uint8_t router_len =
      prefix_len_for(subnet_size * subnets_per_router);
  const uint64_t router_size = uint64_t{1} << (32 - router_len);
  const uint8_t as_len = prefix_len_for(router_size * routers_per_as);
  const uint64_t as_size = uint64_t{1} << (32 - as_len);

  uint64_t cursor = uint64_t{10} << 24;  // 10.0.0.0
  for (size_t a = 0; a < config.as_count; ++a) {
    cursor = (cursor + as_size - 1) & ~(as_size - 1);
    AsInfo info;
    info.index = a;
    info.transit = a < transit;
    info.block = common::Cidr(Ipv4Address(static_cast<uint32_t>(cursor)),
                              as_len);
    info.block6 = common::map_v6(info.block);
    info.first_host = topo.hosts_.size();

    for (size_t r = 0; r < routers_per_as; ++r) {
      uint64_t router_base = cursor + r * router_size;
      info.router_blocks.emplace_back(
          Ipv4Address(static_cast<uint32_t>(router_base)), router_len);
      info.routers.push_back(net.add_router(
          "as" + std::to_string(a) + "-r" + std::to_string(r)));
      info.routers.back()->set_router_address(
          Ipv4Address(static_cast<uint32_t>(router_base)));
    }

    // Backbone star: routers 1..n-1 hang off the border (routers[0]).
    Router* border = info.routers.front();
    for (size_t r = 1; r < routers_per_as; ++r) {
      LinkConfig bb;
      bb.latency = config.backbone_latency;
      Link* link = net.connect(border, info.routers[r], bb);
      border->add_route(info.router_blocks[r], link->port_of(border));
      border->add_route6(common::map_v6(info.router_blocks[r]),
                         link->port_of(border));
      info.routers[r]->set_default_route(
          link->port_of(info.routers[r]));
    }

    // Leaf hosts. Edge routers keep the auto-installed /32s (compiled
    // into the LPM table); the border reaches them via the router
    // aggregates above. The border's own hosts are covered by its /32s.
    for (size_t r = 0; r < routers_per_as; ++r) {
      for (size_t s = 0; s < subnets_per_router; ++s) {
        uint64_t subnet_base =
            cursor + r * router_size + s * subnet_size;
        for (size_t h = 0; h < config.hosts_per_subnet; ++h) {
          Ipv4Address addr(static_cast<uint32_t>(subnet_base + 1 + h));
          Host* host = net.add_host("h" + addr.to_string(), addr);
          LinkConfig leaf;
          leaf.latency = config.host_latency;
          net.connect(host, info.routers[r], leaf);
          topo.host_digest_ = common::hash_combine(topo.host_digest_,
                                                   addr.value());
          topo.hosts_.push_back(host);
        }
      }
    }
    info.host_count = topo.hosts_.size() - info.first_host;
    cursor += as_size;
    topo.ases_.push_back(std::move(info));
  }

  // Inter-AS graph: full mesh over the transit core, every stub homed
  // onto a seeded-random transit AS, plus extra random peerings.
  std::set<std::pair<size_t, size_t>> edges;
  auto add_edge = [&](size_t x, size_t y) {
    if (x == y) return false;
    if (x > y) std::swap(x, y);
    return edges.insert({x, y}).second;
  };
  for (size_t i = 0; i < transit; ++i)
    for (size_t j = i + 1; j < transit; ++j) add_edge(i, j);
  for (size_t a = transit; a < config.as_count; ++a)
    add_edge(a, rng.bounded(transit));
  for (size_t i = 0; i < config.extra_peering; ++i) {
    add_edge(rng.bounded(config.as_count), rng.bounded(config.as_count));
  }

  std::vector<std::vector<size_t>> adjacency(config.as_count);
  // port_toward[a][b]: border(a)'s port on its direct link to border(b).
  common::FlatMap<uint64_t, int> port_toward;
  for (const auto& [x, y] : edges) {
    LinkConfig inter;
    inter.latency = config.interas_latency;
    Router* bx = topo.border(x);
    Router* by = topo.border(y);
    Link* link = net.connect(bx, by, inter);
    adjacency[x].push_back(y);
    adjacency[y].push_back(x);
    port_toward[(static_cast<uint64_t>(x) << 32) | y] = link->port_of(bx);
    port_toward[(static_cast<uint64_t>(y) << 32) | x] = link->port_of(by);
    topo.as_links_.emplace_back(x, y);
  }
  for (auto& neighbors : adjacency)
    std::sort(neighbors.begin(), neighbors.end());

  // Inter-AS routing: BFS from each AS; the first hop toward every other
  // AS gets that AS's whole block. Sorted adjacency makes tie-breaks
  // (equal-length paths) deterministic.
  std::vector<size_t> first_hop(config.as_count);
  std::vector<int> dist(config.as_count);
  for (size_t src = 0; src < config.as_count; ++src) {
    std::fill(dist.begin(), dist.end(), -1);
    dist[src] = 0;
    std::deque<size_t> queue{src};
    while (!queue.empty()) {
      size_t cur = queue.front();
      queue.pop_front();
      for (size_t next : adjacency[cur]) {
        if (dist[next] != -1) continue;
        dist[next] = dist[cur] + 1;
        first_hop[next] = cur == src ? next : first_hop[cur];
        queue.push_back(next);
      }
    }
    Router* border = topo.border(src);
    for (size_t dst = 0; dst < config.as_count; ++dst) {
      if (dst == src || dist[dst] == -1) continue;
      int* port = port_toward.find(
          (static_cast<uint64_t>(src) << 32) | first_hop[dst]);
      border->add_route(topo.ases_[dst].block, *port);
      border->add_route6(common::map_v6(topo.ases_[dst].block), *port);
    }
  }

  return topo;
}

AsTopology AsTopology::of_hosts(std::vector<Host*> hosts) {
  AsTopology topo;
  AsInfo info;
  info.host_count = hosts.size();
  topo.hosts_ = std::move(hosts);
  topo.ases_.push_back(std::move(info));
  return topo;
}

size_t AsTopology::as_of_host(size_t host_index) const {
  for (const AsInfo& info : ases_) {
    if (host_index >= info.first_host &&
        host_index < info.first_host + info.host_count) {
      return info.index;
    }
  }
  return ases_.size();
}

std::string AsTopology::describe() const {
  std::string out;
  out += "asgen seed=" + std::to_string(config_.seed) +
         " as=" + std::to_string(ases_.size()) +
         " hosts=" + std::to_string(hosts_.size()) + "\n";
  for (const AsInfo& info : ases_) {
    out += "as" + std::to_string(info.index) +
           (info.transit ? " transit" : " stub") +
           " block=" + info.block.network().to_string() + "/" +
           std::to_string(info.block.prefix_len()) +
           " hosts=" + std::to_string(info.host_count) + " routers=[";
    for (size_t r = 0; r < info.router_blocks.size(); ++r) {
      if (r != 0) out += " ";
      out += info.router_blocks[r].network().to_string() + "/" +
             std::to_string(info.router_blocks[r].prefix_len());
    }
    out += "]\n";
  }
  out += "links=[";
  for (size_t i = 0; i < as_links_.size(); ++i) {
    if (i != 0) out += " ";
    out += std::to_string(as_links_[i].first) + "-" +
           std::to_string(as_links_[i].second);
  }
  out += "]\n";
  out += "host_digest=" + std::to_string(host_digest_) + "\n";
  return out;
}

}  // namespace sm::netsim
