#pragma once

#include <algorithm>
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
#include "obs/registry.hpp"
#include "sim/engine.hpp"
#include "sim/lp.hpp"

namespace openmx::core {

/// A whole experiment scaled out across logical processes: the cluster is
/// partitioned into `num_lps` LPs, each owning its own Engine and its own
/// shard of the Ethernet fabric, synchronized by the conservative-window
/// LpScheduler with the wire latency as lookahead.
///
/// Drop-in surface match with Cluster (add_node / spawn / run), plus an
/// LP dimension: add_node places nodes round-robin across LPs by default
/// (or explicitly via the `lp` argument), and run(workers) picks how many
/// OS threads execute the LPs.  For any worker count — including 1 — the
/// simulation produces bit-identical timing, counters and event counts to
/// the sequential single-engine Cluster running the same workload; the
/// rx-claim arbitration in net::Network is what makes that hold (see
/// DESIGN.md "Multi-LP execution").
class ParallelCluster {
 public:
  explicit ParallelCluster(int num_lps, NodeParams node_params = {},
                           net::NetParams net_params = {})
      : node_params_(node_params),
        net_params_(net_params),
        scheduler_(net_params.latency_ns) {
    if (num_lps <= 0)
      throw std::logic_error("ParallelCluster: need at least one LP");
    lps_.reserve(static_cast<std::size_t>(num_lps));
    shards_.reserve(static_cast<std::size_t>(num_lps));
    for (int i = 0; i < num_lps; ++i) {
      lps_.push_back(std::make_unique<sim::Lp>(i));
      shards_.push_back(
          std::make_unique<net::Network>(lps_.back()->engine(), net_params));
      scheduler_.add(*lps_.back());
    }
  }

  [[nodiscard]] std::size_t num_lps() const { return lps_.size(); }
  [[nodiscard]] std::size_t num_nodes() const { return nodes_.size(); }
  [[nodiscard]] Node& node(std::size_t i) { return *nodes_.at(i); }
  [[nodiscard]] sim::Lp& lp(std::size_t i) { return *lps_.at(i); }
  [[nodiscard]] net::Network& shard(std::size_t i) { return *shards_.at(i); }
  [[nodiscard]] sim::LpScheduler& scheduler() { return scheduler_; }
  [[nodiscard]] int lp_of_node(std::size_t i) const {
    return lp_of_node_.at(i);
  }

  /// Adds a node on LP `lp` (round-robin over LPs when negative).  The
  /// node lives entirely inside its LP: engine, machine, caches, I/OAT,
  /// NIC and driver all belong to that partition.
  Node& add_node(const OmxConfig& config, int lp = -1) {
    const int node_id = static_cast<int>(nodes_.size());
    if (lp < 0) lp = node_id % static_cast<int>(lps_.size());
    if (lp >= static_cast<int>(lps_.size()))
      throw std::logic_error("ParallelCluster: no such LP");
    auto n = std::make_unique<Node>(
        lps_[static_cast<std::size_t>(lp)]->engine(),
        *shards_[static_cast<std::size_t>(lp)], node_id, node_params_, config);
    nodes_.push_back(std::move(n));
    lp_of_node_.push_back(lp);
    return *nodes_.back();
  }

  /// Adds `count` identically configured nodes, round-robin across LPs.
  void add_nodes(int count, const OmxConfig& config) {
    for (int i = 0; i < count; ++i) add_node(config);
  }

  Process& spawn(Node& node, int core, std::string name,
                 std::function<void(Process&)> body) {
    procs_.push_back(std::make_unique<Process>(node, core, std::move(name),
                                               std::move(body)));
    return *procs_.back();
  }

  /// Starts every process and runs all partitions to global quiescence on
  /// `workers` OS threads (0 = auto-size from the shared pool).  Throws
  /// if any process failed or is still blocked (deadlock) at the end.
  void run(unsigned workers = 0) {
    bind_shards();
    for (auto& p : procs_) p->start();
    scheduler_.run(workers);
    for (auto& p : procs_) {
      p->thread().rethrow_if_failed();
      if (!p->thread().finished())
        throw std::runtime_error("ParallelCluster: process '" +
                                 p->thread().name() +
                                 "' deadlocked (blocked with no pending "
                                 "events)");
    }
  }

  /// Latest virtual time over all partitions (they drift apart by less
  /// than one lookahead window, and agree again at quiescence).
  [[nodiscard]] sim::Time now() const {
    sim::Time t = 0;
    for (const auto& lp : lps_) t = std::max(t, lp->engine().now());
    return t;
  }

  /// Total events scheduled across partitions, accumulated in LP-id
  /// order.  The sum — and each per-LP term — must be identical for
  /// every worker count and equal to the sequential Cluster's count on
  /// the same workload.
  [[nodiscard]] std::uint64_t events_scheduled() const {
    std::uint64_t total = 0;
    for (const auto& lp : lps_) total += lp->engine().events_scheduled();
    return total;
  }

  /// Folds every per-component registry into `out` in a fixed global
  /// order — node index (driver, regcache, nic, ioat), then fabric
  /// shards in LP-id order — so the merged result never depends on the
  /// worker count or on which LP owned which node.  Mirrors the bench
  /// harness's collect_cluster_metrics for the sequential Cluster.
  void collect_metrics(obs::Registry& out) {
    for (auto& n : nodes_) {
      out.merge(n->driver().counters());
      out.merge(n->driver().regcache().counters());
      out.merge(n->nic().counters());
      out.merge(n->ioat().counters());
    }
    for (auto& s : shards_) out.merge(s->counters());
  }

  /// Scheduler-level telemetry (lp.<id>.*, lp.critical.*) exported in
  /// LP-id order.  Kept separate from collect_metrics so the component
  /// registry merge stays byte-identical to the sequential Cluster's —
  /// the scheduler metrics have no sequential counterpart, but they are
  /// themselves worker-count invariant (asserted by test_determinism).
  void collect_scheduler_metrics(obs::Registry& out) const {
    scheduler_.export_metrics(out);
  }

 private:
  /// Wires each fabric shard to its LP and hands every shard the global
  /// node→LP map; idempotent, called on first run().
  void bind_shards() {
    if (bound_) return;
    bound_ = true;
    std::vector<net::Network*> raw;
    raw.reserve(shards_.size());
    for (auto& s : shards_) raw.push_back(s.get());
    for (std::size_t i = 0; i < shards_.size(); ++i)
      shards_[i]->bind_partition(*lps_[i], lp_of_node_, raw);
  }

  NodeParams node_params_;
  net::NetParams net_params_;
  std::vector<std::unique_ptr<sim::Lp>> lps_;
  std::vector<std::unique_ptr<net::Network>> shards_;
  sim::LpScheduler scheduler_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<int> lp_of_node_;
  std::vector<std::unique_ptr<Process>> procs_;
  bool bound_ = false;
};

}  // namespace openmx::core
