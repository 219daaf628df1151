#pragma once

// One job: build the cluster, spawn one process per node, run to
// quiescence, then check every received byte and the virtual-time digest.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <type_traits>
#include <vector>

#include "core/cluster.hpp"
#include "core/endpoint.hpp"
#include "core/parallel_cluster.hpp"
#include "inputs.hpp"

namespace perfbench {

namespace core = openmx::core;
namespace sim = openmx::sim;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The benchmark's own spans, around each call it makes into a layer.
/// Spans of one job share its id.  Per-name totals cover every span; the
/// first kKeep spans stay in memory until write_json.
class Tracer {
 public:
  enum Name : std::uint16_t { kRun, kIsend, kIrecv, kWait, kProbe, kNumNames };
  static constexpr std::size_t kKeep = 50000;

  static const char* name_of(std::uint16_t n) {
    static const char* const names[] = {"cluster.run", "endpoint.isend",
                                        "endpoint.irecv", "endpoint.wait",
                                        "probe"};
    return n < kNumNames ? names[n] : "?";
  }

  struct Span {
    std::uint32_t job;
    std::uint16_t name;
    std::int16_t proc;  // -1: the benchmark's main thread
    std::int64_t t0, t1;
    const char* label;  // probes only
  };

  void add(std::uint32_t job, Name name, int proc, std::int64_t t0,
           std::int64_t t1, const char* label = nullptr) {
    const std::lock_guard<std::mutex> lock(mu_);
    totals_[name].first += 1;
    totals_[name].second += t1 - t0;
    if (spans_.size() < kKeep)
      spans_.push_back(Span{job, name, static_cast<std::int16_t>(proc), t0,
                            t1, label});
  }

  /// Count and summed duration of every span called `name`.
  [[nodiscard]] std::pair<std::uint64_t, std::int64_t> total(Name name) const {
    const std::lock_guard<std::mutex> lock(mu_);
    return totals_[name];
  }

  /// Chrome trace-event JSON of the kept spans; a call span's parent is
  /// its job's cluster.run span (same job id).
  bool write_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    const std::lock_guard<std::mutex> lock(mu_);
    const std::int64_t base = spans_.empty() ? 0 : spans_.front().t0;
    std::fprintf(f, "{\"traceEvents\":[\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"job\":%u%s%s%s}}%s\n",
                   name_of(s.name), s.proc + 1,
                   static_cast<double>(s.t0 - base) / 1e3,
                   static_cast<double>(s.t1 - s.t0) / 1e3, s.job,
                   s.label ? ",\"probe\":\"" : "", s.label ? s.label : "",
                   s.label ? "\"" : "", i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::pair<std::uint64_t, std::int64_t> totals_[kNumNames]{};
};

/// Receive arenas, allocated once per run and reused by every job.
struct Workspace {
  explicit Workspace(const Inputs& in) {
    for (std::size_t bytes : in.arena_bytes)
      arenas.emplace_back(std::max<std::size_t>(bytes, 1));
  }
  std::vector<openmx::mem::Buffer> arenas;
};

/// What one process observed: per completed wait, the virtual time it
/// returned and the bytes it reported; `ok` turns false when a request
/// completed with an error or a receive reported the wrong length.
struct ProcLog {
  std::vector<sim::Time> when;
  std::vector<std::size_t> recv_len;
  bool ok = true;
};

struct JobResult {
  bool ran = false;       // Cluster::run returned without throwing
  bool bytes_ok = false;  // every received byte equals the sent byte
  std::string error;
  std::uint64_t digest = 0;        // virtual-time digest: waits + end
  std::uint64_t waits_digest = 0;  // each wait's return time and length
  sim::Time vt_end = 0;
  std::uint64_t events = 0;
  std::int64_t wall_ns = 0;  // build + spawn + run + teardown
};

/// Options of one job.  A non-null `tracer` records call spans;
/// `before_run` and `collect` see the cluster before and after the run
/// (collect's own time is not part of the job's wall time).
/// `corrupt_rx` flips one received byte before the check, to prove the
/// check catches it.
template <typename ClusterT>
struct JobOptions {
  Tracer* tracer = nullptr;
  std::uint32_t job_id = 0;
  unsigned lp_workers = 0;  // ParallelCluster only
  std::function<void(ClusterT&)> before_run;
  std::function<void(ClusterT&)> collect;
  bool corrupt_rx = false;
};

namespace detail {

inline core::OmxConfig config_for(const WorkloadSpec& w) {
  core::OmxConfig cfg;
  cfg.ioat_large = w.ioat_large;
  return cfg;
}

/// Wraps one Endpoint call in a span when tracing.
template <typename F>
auto traced(Tracer* tr, Tracer::Name name, std::uint32_t job, int proc, F&& f) {
  if (!tr) return f();
  const std::int64_t t0 = now_ns();
  auto r = f();
  tr->add(job, name, proc, t0, now_ns());
  return r;
}

template <typename ClusterT>
void spawn_processes(ClusterT& cluster, const Inputs& in, Workspace& ws,
                     std::vector<ProcLog>& logs, Tracer* tr,
                     std::uint32_t job) {
  const WorkloadSpec& w = *in.spec;
  const std::uint8_t* pool = in.pool.data();
  for (int n = 0; n < w.nodes; ++n) {
    ProcLog& log = logs[static_cast<std::size_t>(n)];
    std::uint8_t* arena = ws.arenas[static_cast<std::size_t>(n)].data();
    cluster.spawn(
        cluster.node(static_cast<std::size_t>(n)), 0, "p" + std::to_string(n),
        [&in, &w, &log, pool, arena, tr, job, n](core::Process& p) {
          core::Endpoint ep(p, static_cast<std::uint16_t>(n));
          auto isend = [&](const Msg& m) {
            return traced(tr, Tracer::kIsend, job, n, [&] {
              return ep.isend((m.echo ? arena : pool) + m.src_off, m.len,
                              core::Addr{m.dst, static_cast<std::uint16_t>(m.dst)},
                              m.match);
            });
          };
          auto irecv = [&](const Msg& m) {
            return traced(tr, Tracer::kIrecv, job, n, [&] {
              return ep.irecv(arena + m.dst_off, m.len, m.match);
            });
          };
          // `expect` is a receive's message length, 0 for a send.
          auto wait = [&](core::Request* r, std::size_t expect) {
            const core::Request done =
                traced(tr, Tracer::kWait, job, n, [&] { return ep.wait(r); });
            log.when.push_back(p.now());
            log.recv_len.push_back(done.recv_len);
            log.ok &= !done.failed && (expect == 0 || done.recv_len == expect);
          };
          if (w.shape == Shape::PingPong) {
            // Closed loop: each side posts its next operation only after
            // its previous wait returned.
            for (int i = 0; i < w.rounds; ++i) {
              const Msg& ping = in.msgs[static_cast<std::size_t>(2 * i)];
              const Msg& pong = in.msgs[static_cast<std::size_t>(2 * i + 1)];
              if (n == 0) {
                core::Request* r = irecv(pong);
                core::Request* s = isend(ping);
                wait(s, 0);
                wait(r, pong.len);
              } else {
                wait(irecv(ping), ping.len);
                wait(isend(pong), 0);
              }
            }
          } else {
            p.compute(in.start_ns[static_cast<std::size_t>(n)]);
            for (int it = 0; it < w.rounds; ++it) {
              const std::size_t base =
                  2 * static_cast<std::size_t>(it * w.nodes + n);
              const std::size_t from =
                  2 * static_cast<std::size_t>(it * w.nodes +
                                               (n + w.nodes - 1) % w.nodes);
              core::Request* rl = irecv(in.msgs[from]);
              core::Request* rm = irecv(in.msgs[from + 1]);
              core::Request* sl = isend(in.msgs[base]);
              core::Request* sm = isend(in.msgs[base + 1]);
              wait(sl, 0);
              wait(sm, 0);
              wait(rl, in.msgs[from].len);
              wait(rm, in.msgs[from + 1].len);
            }
          }
        });
  }
}

inline std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= static_cast<std::uint8_t>(v >> (8 * i));
    h *= 0x100000001b3ULL;
  }
  return h;
}

template <typename ClusterT>
sim::Time final_time(ClusterT& c) {
  if constexpr (std::is_same_v<ClusterT, core::Cluster>)
    return c.engine().now();
  else
    return c.now();
}

template <typename ClusterT>
std::uint64_t events_of(ClusterT& c) {
  if constexpr (std::is_same_v<ClusterT, core::Cluster>)
    return c.engine().events_dispatched();
  else
    return c.events_scheduled();
}

template <typename ClusterT>
void run_cluster(ClusterT& c, unsigned lp_workers) {
  if constexpr (std::is_same_v<ClusterT, core::Cluster>)
    c.run();
  else
    c.run(lp_workers);
}

template <typename ClusterT>
std::unique_ptr<ClusterT> make_cluster(int nodes) {
  if constexpr (std::is_same_v<ClusterT, core::Cluster>)
    return std::make_unique<core::Cluster>();
  else
    return std::make_unique<core::ParallelCluster>(nodes);  // one LP per node
}

}  // namespace detail

/// Fills every arena with `poison`, so bytes a job fails to deliver
/// cannot pass as bytes an earlier job delivered.
inline void poison_arenas(Workspace& ws, std::uint8_t poison) {
  for (auto& a : ws.arenas) std::memset(a.data(), poison, a.size());
}

/// Runs one job on a fresh cluster and checks its received bytes.  The
/// digest covers each wait's virtual return time and length, process by
/// process, then the final engine time.
template <typename ClusterT>
JobResult run_job(const Inputs& in, Workspace& ws,
                  const JobOptions<ClusterT>& opt = {}) {
  const WorkloadSpec& w = *in.spec;
  std::vector<ProcLog> logs(static_cast<std::size_t>(w.nodes));
  JobResult res;
  std::int64_t collect_ns = 0;
  const std::int64_t t0 = now_ns();
  {
    std::unique_ptr<ClusterT> cluster = detail::make_cluster<ClusterT>(w.nodes);
    cluster->add_nodes(w.nodes, detail::config_for(w));
    detail::spawn_processes(*cluster, in, ws, logs, opt.tracer, opt.job_id);
    if (opt.before_run) opt.before_run(*cluster);
    const std::int64_t r0 = now_ns();
    try {
      detail::run_cluster(*cluster, opt.lp_workers);
      res.ran = true;
    } catch (const std::exception& e) {
      res.error = e.what();
    }
    if (opt.tracer)
      opt.tracer->add(opt.job_id, Tracer::kRun, -1, r0, now_ns());
    res.vt_end = detail::final_time(*cluster);
    res.events = detail::events_of(*cluster);
    if (res.ran && opt.collect) {
      const std::int64_t c0 = now_ns();
      opt.collect(*cluster);
      collect_ns = now_ns() - c0;
    }
  }
  res.wall_ns = now_ns() - t0 - collect_ns;
  if (opt.corrupt_rx && !in.msgs.empty()) {
    const Msg& m = in.msgs.back();
    ws.arenas[static_cast<std::size_t>(m.dst)][m.dst_off + m.len / 2] ^= 0x01;
  }

  std::uint64_t h = 0xcbf29ce484222325ULL;
  bool lens_ok = true;
  for (const ProcLog& log : logs) {
    lens_ok &= log.ok;
    for (std::size_t i = 0; i < log.when.size(); ++i) {
      h = detail::fnv(h, static_cast<std::uint64_t>(log.when[i]));
      h = detail::fnv(h, log.recv_len[i]);
    }
  }
  res.waits_digest = h;
  res.digest = detail::fnv(h, static_cast<std::uint64_t>(res.vt_end));

  // Every message must have arrived whole: its receiver saw the right
  // length and the arena holds exactly the seeded bytes.
  const std::size_t waits_per_msg = 2;  // one send wait, one receive wait
  std::size_t waits = 0;
  for (const ProcLog& log : logs) waits += log.when.size();
  bool bytes_ok = res.ran && lens_ok && waits == waits_per_msg * in.msgs.size();
  for (const Msg& m : in.msgs) {
    if (!bytes_ok) break;
    bytes_ok = std::memcmp(ws.arenas[static_cast<std::size_t>(m.dst)].data() +
                               m.dst_off,
                           in.pool.data() + m.expect_off, m.len) == 0;
  }
  res.bytes_ok = bytes_ok;
  if (res.ran && !bytes_ok && res.error.empty())
    res.error = "received bytes differ from the sent bytes";
  return res;
}

}  // namespace perfbench
