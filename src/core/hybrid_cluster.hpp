#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/cluster.hpp"
#include "core/params.hpp"
#include "net/flow.hpp"
#include "net/hybrid.hpp"
#include "net/network.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace openmx::core {

/// Background-traffic generator configuration for a HybridCluster: each
/// flow-fidelity endpoint pair keeps `flows_per_pair` transfers of
/// `bytes` in flight, restarting each flow as it completes, for the
/// duration of the run.  Endpoints pair up disjointly (2i ↔ 2i+1 within
/// the background id range) so the steady-state solver component per
/// event stays O(1) unless the fabric itself saturates.
struct BackgroundTraffic {
  std::size_t bytes = 1 * sim::MiB;
  int flows_per_pair = 1;
  std::uint64_t restarts_per_pair = 0;  // 0 = keep running until stop_at
  sim::Time stop_at = 0;                // 0 = never self-stop
};

/// A Cluster plus a fluid background: the foreground nodes (full Node /
/// Open-MX stack, packet fidelity) come from the embedded Cluster; the
/// background endpoints exist only in the FlowNetwork, occupying ids
/// above the foreground range.  One HybridNetwork couples the two — see
/// net/hybrid.hpp for the capacity-sharing contract.
class HybridCluster {
 public:
  explicit HybridCluster(NodeParams node_params = {},
                         net::NetParams net_params = {},
                         double fabric_oversub = 1.0)
      : cluster_(node_params, net_params),
        flow_(cluster_.engine(),
              net::FlowParams::match(net_params, fabric_oversub)),
        hybrid_(cluster_.network(), flow_) {}

  [[nodiscard]] Cluster& cluster() { return cluster_; }
  [[nodiscard]] sim::Engine& engine() { return cluster_.engine(); }
  [[nodiscard]] net::FlowNetwork& flow() { return flow_; }
  [[nodiscard]] net::HybridNetwork& hybrid() { return hybrid_; }

  /// Foreground side: regular packet-fidelity nodes, delegated verbatim.
  Node& add_node(const OmxConfig& config) {
    Node& n = cluster_.add_node(config);
    hybrid_.set_fidelity(n.id(), 1, net::Fidelity::kPacket);
    return n;
  }

  Process& spawn(Node& node, int core, std::string name,
                 std::function<void(Process&)> body) {
    return cluster_.spawn(node, core, std::move(name), std::move(body));
  }

  /// Background side: adds `count` flow-fidelity endpoints after the
  /// foreground range and starts the self-sustaining traffic pattern on
  /// them.  May be called once, after every add_node().
  void add_background(int count, BackgroundTraffic traffic) {
    if (bg_count_ > 0)
      throw std::logic_error("HybridCluster: background already added");
    if (count < 2 || count % 2 != 0)
      throw std::logic_error(
          "HybridCluster: background endpoint count must be even and >= 2");
    bg_first_ = static_cast<int>(cluster_.num_nodes());
    bg_count_ = count;
    traffic_ = traffic;
    hybrid_.set_fidelity(bg_first_, bg_count_, net::Fidelity::kFlow);
    for (int p = 0; p < bg_count_ / 2; ++p)
      for (int k = 0; k < traffic_.flows_per_pair; ++k)
        start_pair_flow(p, traffic_.restarts_per_pair);
  }

  [[nodiscard]] int background_first() const { return bg_first_; }
  [[nodiscard]] int background_count() const { return bg_count_; }
  [[nodiscard]] std::uint64_t background_completions() const {
    return bg_completions_;
  }

  /// Starts every foreground process and runs to quiescence.  With
  /// restarts_per_pair == 0 and stop_at == 0 the background would keep
  /// the engine alive forever, so that combination requires a stop_at.
  void run() {
    if (bg_count_ > 0 && traffic_.restarts_per_pair == 0 &&
        traffic_.stop_at == 0)
      throw std::logic_error(
          "HybridCluster: unbounded background needs stop_at");
    if (bg_count_ > 0 && traffic_.stop_at > 0) stopped_ = false;
    cluster_.run();
  }

 private:
  void start_pair_flow(int pair, std::uint64_t restarts_left) {
    const int src = bg_first_ + 2 * pair;
    const int dst = src + 1;
    hybrid_.transfer(src, dst, traffic_.bytes,
                   [this, pair, restarts_left](const net::FlowInfo&) {
                     ++bg_completions_;
                     if (stopped_) return;
                     if (traffic_.stop_at > 0 &&
                         engine().now() >= traffic_.stop_at) {
                       stopped_ = true;
                       return;
                     }
                     if (restarts_left == 1) return;  // 0 = unbounded
                     start_pair_flow(
                         pair, restarts_left ? restarts_left - 1 : 0);
                   });
  }

  Cluster cluster_;
  net::FlowNetwork flow_;
  net::HybridNetwork hybrid_;
  int bg_first_ = 0;
  int bg_count_ = 0;
  BackgroundTraffic traffic_;
  bool stopped_ = false;
  std::uint64_t bg_completions_ = 0;
};

}  // namespace openmx::core
