#include "netsim/topology.hpp"

#include "common/rng.hpp"

namespace sm::netsim {

Host* Network::add_host(const std::string& name, Ipv4Address address) {
  hosts_.push_back(std::make_unique<Host>(engine_, name, address));
  return hosts_.back().get();
}

Router* Network::add_router(const std::string& name) {
  routers_.push_back(std::make_unique<Router>(engine_, name));
  return routers_.back().get();
}

Link* Network::connect(Node* a, Node* b, LinkConfig config) {
  links_.push_back(std::make_unique<Link>(
      engine_, pool_, config, common::splitmix64(link_seed_state_)));
  Link* link = links_.back().get();
  auto [port_a, port_b] = link->connect(a, b);

  // Host-facing router ports get the /32 (and the dual-stack host's
  // /128) automatically. Link::connect reports each side's port
  // directly, so wiring one link is O(1) no matter how many ports the
  // router already has.
  auto wire_route = [](Node* maybe_router, int router_port,
                       Node* maybe_host) {
    if (maybe_router->kind() != NodeKind::Router ||
        maybe_host->kind() != NodeKind::Host) {
      return;
    }
    auto* router = static_cast<Router*>(maybe_router);
    auto* host = static_cast<Host*>(maybe_host);
    router->add_route(common::Cidr(host->address(), 32), router_port);
    router->add_route6(common::Cidr6(host->address6(), 128), router_port);
  };
  wire_route(a, port_a, b);
  wire_route(b, port_b, a);
  return link;
}

void Network::export_link_metrics(obs::Registry& registry) const {
  LinkStats total;
  for (const auto& l : links_) {
    const LinkStats& s = l->stats();
    total.sent += s.sent;
    total.delivered += s.delivered;
    total.dropped_loss += s.dropped_loss;
    total.dropped_burst += s.dropped_burst;
    total.dropped_down += s.dropped_down;
    total.dropped_corrupt += s.dropped_corrupt;
    total.duplicated += s.duplicated;
    total.reordered += s.reordered;
    total.corrupted += s.corrupted;
  }
  auto set = [&](std::string_view metric, uint64_t value,
                 std::string_view help) {
    registry.counter(metric, {}, help)->set(value);
  };
  set("sm_link_packets_sent_total", total.sent,
      "packets handed to any link for transmission");
  set("sm_link_packets_delivered_total", total.delivered,
      "packets delivered by links (duplicates included)");
  set("sm_link_dropped_loss_total", total.dropped_loss,
      "packets dropped by i.i.d. random loss");
  set("sm_link_dropped_burst_total", total.dropped_burst,
      "packets dropped inside Gilbert-Elliott loss bursts");
  set("sm_link_dropped_down_total", total.dropped_down,
      "packets dropped while a link was flapped down");
  set("sm_link_dropped_corrupt_total", total.dropped_corrupt,
      "corrupted packets discarded by receiver checksums");
  set("sm_link_duplicated_total", total.duplicated,
      "extra packet copies delivered by duplication");
  set("sm_link_reordered_total", total.reordered,
      "packets delayed by reorder jitter");
  set("sm_link_corrupted_delivered_total", total.corrupted,
      "packets delivered with flipped bytes");
}

Host* Network::host(const std::string& name) const {
  for (const auto& h : hosts_)
    if (h->name() == name) return h.get();
  return nullptr;
}

Router* Network::router(const std::string& name) const {
  for (const auto& r : routers_)
    if (r->name() == name) return r.get();
  return nullptr;
}

}  // namespace sm::netsim
