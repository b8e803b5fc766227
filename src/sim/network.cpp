#include "sim/network.hpp"

#include <cassert>
#include <deque>
#include <unordered_map>

#include "core/hash.hpp"

namespace ecnd::sim {
namespace {

// Per-switch ECMP seed: SplitMix64 of (network seed, switch id), so adjacent
// tiers hash differently and flows don't polarize onto one spine.
std::uint64_t derive_ecmp_seed(std::uint64_t base, int switch_id) {
  return splitmix64_mix(
      base + kGoldenGamma * (static_cast<std::uint64_t>(switch_id) + 1));
}

}  // namespace

Host& Network::add_host(const HostConfig& config) {
  const int id = static_cast<int>(hosts_.size());
  hosts_.push_back(std::make_unique<Host>(sim_, rng_, "h" + std::to_string(id),
                                          id, config));
  return *hosts_.back();
}

Switch& Network::add_switch() {
  // Switch ids live in a separate namespace from host ids; routing keys are
  // host ids only.
  const int id = 1000 + static_cast<int>(switches_.size());
  switches_.push_back(std::make_unique<Switch>(
      sim_, rng_, "sw" + std::to_string(id - 1000), id));
  switches_.back()->set_ecmp_seed(derive_ecmp_seed(ecmp_seed_, id));
  return *switches_.back();
}

void Network::set_ecmp_seed(std::uint64_t seed) {
  ecmp_seed_ = seed;
  for (auto& sw : switches_) {
    sw->set_ecmp_seed(derive_ecmp_seed(seed, sw->id()));
  }
}

void Network::link(Host& host, Switch& sw, BitsPerSecond rate,
                   PicoTime propagation) {
  const int sw_port = sw.add_port(rate, propagation);
  host.attach_link(rate, propagation);
  host.connect(&sw, sw_port);
  sw.port(sw_port).connect(&host, /*peer_ingress=*/0);
  edges_.push_back({sw_port, &sw, &host});
}

void Network::link(Switch& a, Switch& b, BitsPerSecond rate,
                   PicoTime propagation) {
  const int pa = a.add_port(rate, propagation);
  const int pb = b.add_port(rate, propagation);
  a.port(pa).connect(&b, pb);
  b.port(pb).connect(&a, pa);
  edges_.push_back({pa, &a, &b});
  edges_.push_back({pb, &b, &a});
}

void Network::build_routes() {
  for (auto& sw : switches_) sw->clear_routes();

  // Incoming edges per node (edges whose `to` is that node), built once; the
  // per-host BFS expands a switch by walking the edges that point at it.
  std::unordered_map<const Node*, std::vector<const SwitchEdge*>> in_edges;
  for (const SwitchEdge& e : edges_) in_edges[e.to].push_back(&e);

  // For each host: (1) BFS distances over the switch graph (directly attached
  // switches are at hop 1); (2) one pass over edges_ in wiring order installs
  // every egress whose far end is one hop closer to the host. Installing from
  // the deterministic edges_ order — not the BFS visit order — fixes the
  // equal-cost candidate order independent of hash-map iteration.
  std::unordered_map<const Switch*, int> dist;
  std::deque<const Switch*> frontier;
  for (const auto& host : hosts_) {
    dist.clear();
    frontier.clear();
    for (const SwitchEdge* e : in_edges[host.get()]) {
      if (dist.emplace(e->from, 1).second) frontier.push_back(e->from);
    }
    while (!frontier.empty()) {
      const Switch* current = frontier.front();
      frontier.pop_front();
      const int next_hop = dist[current] + 1;
      for (const SwitchEdge* e : in_edges[current]) {
        if (dist.emplace(e->from, next_hop).second) frontier.push_back(e->from);
      }
    }
    for (const SwitchEdge& e : edges_) {
      if (e.to == host.get()) {
        e.from->add_route(host->id(), e.port);
        continue;
      }
      const auto* neighbor = dynamic_cast<const Switch*>(e.to);
      if (neighbor == nullptr) continue;
      const auto from_it = dist.find(e.from);
      const auto to_it = dist.find(neighbor);
      if (from_it == dist.end() || to_it == dist.end()) continue;
      if (to_it->second == from_it->second - 1) {
        e.from->add_route(host->id(), e.port);
      }
    }
  }
}

std::unordered_map<const Switch*, int> Network::switch_distances(
    const Switch& origin) const {
  std::unordered_map<const Switch*, int> dist;
  dist[&origin] = 0;
  std::deque<const Switch*> frontier{&origin};
  while (!frontier.empty()) {
    const Switch* current = frontier.front();
    frontier.pop_front();
    for (const SwitchEdge& e : edges_) {
      if (e.from != current) continue;
      const auto* neighbor = dynamic_cast<const Switch*>(e.to);
      if (neighbor != nullptr && dist.emplace(neighbor, dist[current] + 1).second) {
        frontier.push_back(neighbor);
      }
    }
  }
  return dist;
}

void Network::monitor_queue(const Port& port, PicoTime interval, PicoTime until,
                            TimeSeries& series) {
  series.push(to_seconds(sim_.now()), static_cast<double>(port.queued_bytes()));
  if (sim_.now() + interval > until) return;
  sim_.schedule_in(interval, [this, &port, interval, until, &series] {
    monitor_queue(port, interval, until, series);
  });
}

std::uint64_t Network::total_drops() const {
  std::uint64_t drops = 0;
  for (const auto& sw : switches_) {
    for (int p = 0; p < sw->num_ports(); ++p) drops += sw->port(p).drops();
  }
  for (const auto& host : hosts_) {
    drops += const_cast<Host&>(*host).nic().drops();
  }
  return drops;
}

Dumbbell make_dumbbell(Network& net, const DumbbellConfig& config) {
  Dumbbell d;
  d.net = &net;
  Switch& sw1 = net.add_switch();
  Switch& sw2 = net.add_switch();
  d.sw1 = &sw1;
  d.sw2 = &sw2;
  for (int i = 0; i < config.pairs; ++i) {
    Host& sender = net.add_host(config.host);
    net.link(sender, sw1, config.link_rate, config.link_delay);
    d.senders.push_back(&sender);
  }
  for (int i = 0; i < config.pairs; ++i) {
    Host& receiver = net.add_host(config.host);
    net.link(receiver, sw2, config.link_rate, config.link_delay);
    d.receivers.push_back(&receiver);
  }
  net.link(sw1, sw2, config.link_rate, config.link_delay);
  d.trunk_port = sw1.num_ports() - 1;
  net.build_routes();
  sw1.set_red_all(config.red);
  sw2.set_red_all(config.red);
  sw1.set_pfc(config.pfc);
  sw2.set_pfc(config.pfc);
  return d;
}

ParkingLot make_parking_lot(Network& net, const ParkingLotConfig& config) {
  ParkingLot lot;
  lot.net = &net;
  for (int i = 0; i < 3; ++i) lot.switches.push_back(&net.add_switch());

  auto attach = [&](Switch& sw) -> Host* {
    Host& host = net.add_host(config.host);
    net.link(host, sw, config.link_rate, config.link_delay);
    return &host;
  };
  lot.long_sender = attach(*lot.switches[0]);
  lot.left_sender = attach(*lot.switches[0]);
  lot.right_sender = attach(*lot.switches[1]);
  lot.left_receiver = attach(*lot.switches[1]);
  lot.long_receiver = attach(*lot.switches[2]);
  lot.right_receiver = attach(*lot.switches[2]);

  net.link(*lot.switches[0], *lot.switches[1], config.link_rate, config.link_delay);
  lot.trunk01 = lot.switches[0]->num_ports() - 1;
  net.link(*lot.switches[1], *lot.switches[2], config.link_rate, config.link_delay);
  lot.trunk12 = lot.switches[1]->num_ports() - 1;

  net.build_routes();
  for (Switch* sw : lot.switches) {
    sw->set_red_all(config.red);
    sw->set_pfc(config.pfc);
  }
  return lot;
}

Star make_star(Network& net, const StarConfig& config) {
  Star s;
  s.net = &net;
  Switch& sw = net.add_switch();
  s.sw = &sw;
  for (int i = 0; i < config.senders; ++i) {
    Host& sender = net.add_host(config.host);
    net.link(sender, sw, config.link_rate, config.sender_link_delay);
    s.senders.push_back(&sender);
  }
  Host& receiver = net.add_host(config.host);
  net.link(receiver, sw, config.link_rate, config.receiver_link_delay);
  s.receiver = &receiver;
  s.receiver_port = sw.num_ports() - 1;
  net.build_routes();
  sw.set_red_all(config.red);
  sw.set_pfc(config.pfc);
  return s;
}

}  // namespace ecnd::sim
