#pragma once

#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/driver.hpp"
#include "core/node.hpp"
#include "core/params.hpp"
#include "core/process.hpp"
#include "net/network.hpp"
#include "obs/monitor.hpp"
#include "sim/engine.hpp"

namespace openmx::core {

/// A whole experiment: the event engine, the Ethernet fabric, the nodes
/// and the simulated application processes.  Benchmarks and tests build
/// one Cluster per configuration, spawn processes, then run() to
/// completion.
class Cluster {
 public:
  explicit Cluster(NodeParams node_params = {}, net::NetParams net_params = {})
      : node_params_(node_params),
        network_(engine_, net_params) {}

  [[nodiscard]] sim::Engine& engine() { return engine_; }
  [[nodiscard]] net::Network& network() { return network_; }
  [[nodiscard]] Node& node(std::size_t i) { return *nodes_.at(i); }
  [[nodiscard]] std::size_t num_nodes() const { return nodes_.size(); }

  Node& add_node(const OmxConfig& config) {
    auto n = std::make_unique<Node>(engine_, network_,
                                    static_cast<int>(nodes_.size()),
                                    node_params_, config);
    nodes_.push_back(std::move(n));
    return *nodes_.back();
  }

  /// Adds `count` identically configured nodes.
  void add_nodes(int count, const OmxConfig& config) {
    for (int i = 0; i < count; ++i) add_node(config);
  }

  Process& spawn(Node& node, int core, std::string name,
                 std::function<void(Process&)> body) {
    procs_.push_back(std::make_unique<Process>(node, core, std::move(name),
                                               std::move(body)));
    return *procs_.back();
  }

  /// Starts every process and runs the simulation to quiescence.  Throws
  /// if any process failed or is still blocked (deadlock) at the end.
  /// With a monitor attached the run loop polls it after every event —
  /// one comparison per step when no sample is due — so the monitor sees
  /// live counters without scheduling any engine event of its own.
  void run(obs::Monitor* monitor = nullptr) {
    for (auto& p : procs_) p->start();
    if (monitor) {
      while (engine_.step()) monitor->poll(engine_.now());
      monitor->poll(engine_.now());
    } else {
      engine_.run();
    }
    for (auto& p : procs_) {
      p->thread().rethrow_if_failed();
      if (!p->thread().finished())
        throw std::runtime_error("Cluster: process '" + p->thread().name() +
                                 "' deadlocked (blocked with no pending "
                                 "events)");
    }
  }

 private:
  sim::Engine engine_;
  NodeParams node_params_;
  net::Network network_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<Process>> procs_;
};

}  // namespace openmx::core
