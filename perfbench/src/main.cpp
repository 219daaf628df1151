// Host-speed benchmark of the Open-MX simulator.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Runs one workload for about `seconds`, checks every job, and prints one
// "metric <name> <value> <unit>" line per metric followed by a
// "RESULT {...}" JSON line.  --trace 0 measures one segment of the
// end-to-end run and lists its job times, --trace 1 gives the per-layer
// metrics.  perfbench/run.py builds this binary and turns its output into
// the benchmark's result; see perfbench/README.md.
//
// Other modes: --setup-only (set up, print setup_s, exit), --inputs-digest
// (print a digest of the seeded inputs, exit), and --inject corrupt_rx |
// perturb_digest (damage the first timed job, to prove the check fails it).

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "core/wire.hpp"
#include "inputs.hpp"
#include "job.hpp"
#include "obs/attrib.hpp"
#include "obs/registry.hpp"
#include "obs/wallprof.hpp"
#include "sim/sim_thread.hpp"

namespace {

using namespace perfbench;
using openmx::obs::Registry;
using openmx::obs::WallProfiler;

// Set before main runs: set-up time counts from here.
const std::int64_t kProcessStart = now_ns();

// ----- placement ----------------------------------------------------------

/// Where the process runs.  The simulator runs exactly one of its threads
/// at a time and hands control between them with a mutex/condvar per
/// wait; on several CPUs each handoff may migrate and wake another core,
/// which made unpinned timings vary by 5x.  One CPU under SCHED_BATCH
/// serialises nothing that could have run in parallel.
struct Placement {
  cpu_set_t allowed{};
  int allowed_count = 0;
  int cpu = -1;
  bool affinity_ok = false;
  bool batch_ok = false;
};

bool set_thread_placement(const cpu_set_t& set, int policy) {
  sched_param sp{};
  const bool a = sched_setaffinity(0, sizeof set, &set) == 0;
  const bool p = sched_setscheduler(0, policy, &sp) == 0;
  return a && p;
}

/// Confines the calling thread, and every thread it creates later, to the
/// highest-numbered CPU it may use, under SCHED_BATCH.  Called first
/// thing in main, before any thread exists.
Placement confine_to_one_cpu() {
  Placement pl;
  CPU_ZERO(&pl.allowed);
  if (sched_getaffinity(0, sizeof pl.allowed, &pl.allowed) != 0) return pl;
  pl.allowed_count = CPU_COUNT(&pl.allowed);
  for (int c = CPU_SETSIZE - 1; c >= 0; --c)
    if (CPU_ISSET(c, &pl.allowed)) {
      pl.cpu = c;
      break;
    }
  if (pl.cpu < 0) return pl;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(pl.cpu, &one);
  pl.affinity_ok = sched_setaffinity(0, sizeof one, &one) == 0;
  sched_param sp{};
  pl.batch_ok = sched_setscheduler(0, SCHED_BATCH, &sp) == 0;
  return pl;
}

/// Returns the calling thread to `pl.cpu` under SCHED_BATCH.
bool restore_confinement(const Placement& pl) {
  if (pl.cpu < 0) return false;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(pl.cpu, &one);
  return set_thread_placement(one, SCHED_BATCH);
}

/// The first `n` CPUs of the allowed set, `pl.cpu` first.
cpu_set_t first_cpus(const Placement& pl, int n) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(pl.cpu, &set);
  for (int c = 0, have = 1; c < CPU_SETSIZE && have < n; ++c)
    if (CPU_ISSET(c, &pl.allowed) && !CPU_ISSET(c, &set)) {
      CPU_SET(c, &set);
      ++have;
    }
  return set;
}

// ----- small statistics -----------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double ratio(double a, double b) { return b != 0 ? a / b : 0.0; }

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ----- output ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Report {
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> info;  // raw JSON values

  void add(std::string name, double v, std::string unit) {
    metrics.push_back({std::move(name), std::isfinite(v) ? v : 0.0,
                       std::move(unit)});
  }
  void note(std::string key, std::string json) {
    info.emplace_back(std::move(key), std::move(json));
  }
  void note(std::string key, double v) {
    char b[64];
    std::snprintf(b, sizeof b, "%.9g", v);
    note(std::move(key), std::string(b));
  }

  void print(bool correct, std::uint64_t attempted, std::uint64_t failed) const {
    for (const Metric& m : metrics)
      std::printf("metric %-34s %.9g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    std::string js = "{\"correct\": ";
    js += correct ? "true" : "false";
    js += ", \"attempted\": " + std::to_string(attempted);
    js += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    char b[256];
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      std::snprintf(b, sizeof b, "%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                    metrics[i].unit.c_str());
      js += b;
    }
    js += "}, \"info\": {";
    for (std::size_t i = 0; i < info.size(); ++i)
      js += (i ? ", \"" : "\"") + info[i].first + "\": " + info[i].second;
    js += "}}";
    std::printf("RESULT %s\n", js.c_str());
    std::fflush(stdout);
  }
};

void note_placement(Report& r, const Placement& pl) {
  r.note("cpu", pl.cpu);
  r.note("allowed_cpus", pl.allowed_count);
  r.note("policy", pl.batch_ok ? "\"SCHED_BATCH\"" : "\"SCHED_OTHER\"");
  r.note("confined", pl.affinity_ok && pl.batch_ok ? "true" : "false");
}

// ----- the run ----------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool setup_only = false;
  bool inputs_digest = false;
  std::string inject;
  std::string spans_out;
};

// Timed jobs a segment holds at least, however long they take: the p90
// tail then has at least 10 samples beyond it per segment, and peak memory
// is read after this many jobs.
constexpr std::size_t kMinJobs = 100;

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view k = argv[i];
    auto val = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* v = nullptr;
    if (k == "--setup-only") {
      a.setup_only = true;
    } else if (k == "--inputs-digest") {
      a.inputs_digest = true;
    } else if ((v = val()) == nullptr) {
      return false;
    } else if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, nullptr);
    } else if (k == "--trace") {
      a.trace = std::atoi(v);
    } else if (k == "--inject") {
      a.inject = v;
    } else if (k == "--spans-out") {
      a.spans_out = v;
    } else {
      return false;
    }
  }
  return !a.workload.empty() && a.seconds > 0 &&
         (a.inject.empty() || a.inject == "corrupt_rx" ||
          a.inject == "perturb_digest");
}

/// State shared by the timed and the traced run.
struct Run {
  const Args& args;
  const Placement& pl;
  Inputs in;
  Workspace ws;
  std::uint64_t ref_digest = 0;  // the run's first job
  std::uint64_t ref_waits_digest = 0;
  std::uint64_t jobs = 0;        // jobs run so far, warm-up included
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Report report;

  Run(const Args& a, const Placement& p, const WorkloadSpec& w)
      : args(a), pl(p), in(make_inputs(w, a.seed)), ws(in) {}

  /// Runs and checks one job.  Returns its wall time in ms, or a negative
  /// value if it failed.
  template <typename ClusterT = core::Cluster>
  double job(JobOptions<ClusterT> opt = {}, bool count = true) {
    const bool first_timed = count && attempted == 0;
    opt.job_id = static_cast<std::uint32_t>(jobs);
    opt.corrupt_rx = first_timed && args.inject == "corrupt_rx";
    poison_arenas(ws, jobs % 2 ? 0xa5 : 0x5a);
    JobResult r = run_job<ClusterT>(in, ws, opt);
    if (first_timed && args.inject == "perturb_digest") r.digest ^= 1;
    if (jobs++ == 0) {
      ref_digest = r.digest;
      ref_waits_digest = r.waits_digest;
    }
    // Multi-LP runs may end their clock up to one lookahead past the last
    // event, so they are held to the per-wait part of the digest only.
    const bool digest_ok = std::is_same_v<ClusterT, core::Cluster>
                               ? r.digest == ref_digest
                               : r.waits_digest == ref_waits_digest;
    const bool ok = r.ran && r.bytes_ok && digest_ok;
    if (!ok)
      std::fprintf(stderr, "perfbench: job %u failed: %s\n", opt.job_id,
                   !r.error.empty() ? r.error.c_str()
                                    : "virtual-time digest differs from job 0");
    if (count) {
      ++attempted;
      failed += ok ? 0 : 1;
    }
    last = r;
    return ok ? static_cast<double>(r.wall_ns) / 1e6 : -1.0;
  }

  JobResult last;
};

double seconds_since(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0) / 1e9;
}

/// Timed run: one segment of the end-to-end measurement.  It reports
/// every OK job's wall time and what one process can tell (virtual time,
/// set-up, peak memory); run.py pools the job times of its segments into
/// job_ms_p50, job_ms_tail and sim_mib_per_s.
int timed_run(Run& run, double setup_s, bool warm_ok) {
  const Args& a = run.args;
  std::vector<double> wall_ms;
  // Peak memory is read after a fixed number of jobs, so a faster build,
  // which fits more jobs into the run, is not charged for per-job growth.
  double rss_mib = 0;
  const std::int64_t t0 = now_ns();
  const double hard_stop = a.seconds + 30;
  while (seconds_since(t0) < a.seconds ||
         (wall_ms.size() < kMinJobs && seconds_since(t0) < hard_stop)) {
    const double ms = run.job();
    if (ms >= 0) wall_ms.push_back(ms);
    if (run.attempted == kMinJobs) rss_mib = peak_rss_mib();
  }
  if (rss_mib == 0) rss_mib = peak_rss_mib();

  Report& r = run.report;
  r.add("vt_job_us", static_cast<double>(run.last.vt_end) / 1e3, "vt_us");
  r.add("setup_s", setup_s, "s");
  r.add("peak_rss_mib", rss_mib, "MiB");
  std::string list = "[";
  for (std::size_t i = 0; i < wall_ms.size(); ++i) {
    char b[32];
    std::snprintf(b, sizeof b, "%s%.6f", i ? ", " : "", wall_ms[i]);
    list += b;
  }
  r.note("job_ms", list + "]");
  r.note("payload_bytes", std::to_string(run.in.payload_bytes));
  const bool correct = warm_ok && run.failed == 0 && run.attempted > 0;
  r.print(correct, run.attempted, run.failed);
  return 0;
}

// ----- standalone probes --------------------------------------------------------

// Probe results land here so the compiler cannot drop the probed work.
volatile std::uint32_t g_sink = 0;
// Job id of probe spans: they belong to no job.
constexpr std::uint32_t kProbeJob = 0xffffffffu;

/// Host ns per no-op event through Engine::schedule + run.
double probe_engine_ns(Tracer& tr) {
  std::vector<double> reps;
  for (int rep = 0; rep < 5; ++rep) {
    constexpr int kEvents = 200000;
    sim::Engine e;
    std::uint64_t sink = 0;
    const std::int64_t t0 = now_ns();
    for (int i = 0; i < kEvents; ++i) e.schedule(i % 64, [&sink] { ++sink; });
    e.run();
    const std::int64_t t1 = now_ns();
    tr.add(kProbeJob, Tracer::kProbe, -1, t0, t1, "engine");
    if (sink != kEvents) std::fprintf(stderr, "perfbench: engine probe lost events\n");
    reps.push_back(static_cast<double>(t1 - t0) / kEvents);
  }
  return median(reps);
}

/// Host ns per SimThread::advance: one engine -> thread -> engine round trip.
double probe_handoff_ns(Tracer& tr) {
  std::vector<double> reps;
  for (int rep = 0; rep < 5; ++rep) {
    constexpr int kAdvances = 2000;
    sim::Engine e;
    sim::SimThread* self = nullptr;
    sim::SimThread t(e, "handoff", [&self] {
      for (int i = 0; i < kAdvances; ++i) self->advance(1);
    });
    self = &t;
    t.start();
    const std::int64_t t0 = now_ns();
    e.run();
    const std::int64_t t1 = now_ns();
    tr.add(kProbeJob, Tracer::kProbe, -1, t0, t1, "handoff");
    reps.push_back(static_cast<double>(t1 - t0) / kAdvances);
  }
  return median(reps);
}

/// Host ns per KiB of core::pkt_checksum over a frame of `frame_bytes`.
double probe_checksum_ns_per_kib(Tracer& tr, std::size_t frame_bytes,
                                 const Inputs& in) {
  core::EagerFragPkt pkt;
  pkt.data.assign(in.pool.begin(),
                  in.pool.begin() + static_cast<std::ptrdiff_t>(
                                        std::min(frame_bytes, in.pool.size())));
  std::vector<double> reps;
  std::uint32_t sink = 0;
  const std::size_t calls = std::max<std::size_t>(1, (8 * MiB) / frame_bytes);
  for (int rep = 0; rep < 5; ++rep) {
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < calls; ++i) {
      pkt.data[i % pkt.data.size()] ^= static_cast<std::uint8_t>(sink);
      sink += core::pkt_checksum(pkt);
    }
    const std::int64_t t1 = now_ns();
    tr.add(kProbeJob, Tracer::kProbe, -1, t0, t1, "checksum");
    reps.push_back(static_cast<double>(t1 - t0) /
                   (static_cast<double>(calls * frame_bytes) / 1024.0));
  }
  g_sink = sink;
  return median(reps);
}

// ----- traced run ----------------------------------------------------------------

struct LayerTotals {
  Registry counters;  // component registries of every traced job
  Registry wall;      // WallProfiler exports of every traced job
  double busy_vt_ns = 0;
  double runq_wait_vt_ns = 0;
  double wall_ns = 0;
  double events = 0;
  std::uint64_t jobs = 0;
};

std::uint64_t wall_get(const Registry& r, const std::string& zone,
                       const char* field) {
  return r.get("wall." + zone + "." + field);
}

double hist_p99(const Registry& r, std::string_view name) {
  const auto& hs = r.all_histograms();
  const auto it = hs.find(name);
  return it == hs.end() ? 0.0 : static_cast<double>(it->second.p99());
}

/// Traced run: per-layer metrics.  Four phases share `seconds`: untraced,
/// profiler-off and traced jobs in rotation (half); the standalone probes;
/// unconfined vs confined jobs; and the workload on a ParallelCluster at
/// one and two workers.
int traced_run(Run& run, bool warm_ok) {
  const Args& a = run.args;
  const WorkloadSpec& w = *run.in.spec;
  Tracer tr;
  WallProfiler& prof = WallProfiler::instance();
  LayerTotals lt;

  // Phase A: rotate default / profiler-off / traced jobs.
  std::vector<double> def_ms, off_ms, traced_ms;
  JobOptions<core::Cluster> traced;
  traced.tracer = &tr;
  traced.before_run = [&prof](core::Cluster& c) {
    c.engine().attrib().enable();
    prof.reset();
  };
  traced.collect = [&lt, &prof](core::Cluster& c) {
    for (std::size_t i = 0; i < c.num_nodes(); ++i) {
      core::Node& n = c.node(i);
      lt.counters.merge(n.driver().counters());
      lt.counters.merge(n.driver().regcache().counters());
      lt.counters.merge(n.nic().counters());
      lt.counters.merge(n.ioat().counters());
      for (int core = 0; core < openmx::cpu::Machine::kNumCores; ++core)
        lt.busy_vt_ns += static_cast<double>(n.machine().busy_total(core));
    }
    lt.counters.merge(c.network().counters());
    const auto& q = c.engine().attrib().stamp_hist(openmx::obs::Wait::BhQueueWait);
    lt.runq_wait_vt_ns += q.mean() * static_cast<double>(q.count());
    prof.export_metrics(lt.wall);
  };
  const std::int64_t t0 = now_ns();
  for (int round = 0; round < 5 || seconds_since(t0) < 0.5 * a.seconds; ++round) {
    for (int k = 0; k < 3; ++k) {
      switch ((round + k) % 3) {
        case 0: {
          const double ms = run.job();
          if (ms >= 0) def_ms.push_back(ms);
          break;
        }
        case 1: {
          prof.set_enabled(false);
          const double ms = run.job();
          prof.set_enabled(true);
          if (ms >= 0) off_ms.push_back(ms);
          break;
        }
        default: {
          const double ms = run.job(traced);
          if (ms >= 0) {
            traced_ms.push_back(ms);
            lt.wall_ns += ms * 1e6;
            lt.events += static_cast<double>(run.last.events);
            ++lt.jobs;
          }
        }
      }
    }
    if (seconds_since(t0) > 0.8 * a.seconds) break;
  }

  // Phase B: standalone probes, under the same confinement.
  const double engine_ns = probe_engine_ns(tr);
  const double handoff_ns = probe_handoff_ns(tr);
  const std::size_t frame_bytes = std::min<std::size_t>(
      4 * KiB, run.in.payload_bytes / run.in.msgs.size());
  const double csum_ns_per_kib = probe_checksum_ns_per_kib(tr, frame_bytes, run.in);

  // Phase C: unconfined (all allowed CPUs, SCHED_OTHER) vs confined jobs.
  // A placement change that fails leaves the metric it feeds unmeasured
  // (0); a failed return to the confinement the run started with fails
  // the run, since its later phases would not run where it says.
  const bool confined = run.pl.affinity_ok && run.pl.batch_ok;
  bool unconfined_ok = true, restore_ok = true;
  std::vector<double> free_ms, pinned_ms;
  const std::int64_t tc = now_ns();
  for (int pair = 0; pair < 3 || seconds_since(tc) < 0.2 * a.seconds; ++pair) {
    unconfined_ok &= set_thread_placement(run.pl.allowed, SCHED_OTHER);
    const double f = run.job();
    restore_ok &= restore_confinement(run.pl);
    const double p = run.job();
    if (f >= 0) free_ms.push_back(f);
    if (p >= 0) pinned_ms.push_back(p);
    if (seconds_since(tc) > 0.4 * a.seconds) break;
  }

  // Phase D: the workload on a ParallelCluster, one LP per node, at one
  // and two workers on two CPUs (the pool's helper thread is created here
  // and inherits the two-CPU set).
  std::vector<double> w1_ms, w2_ms;
  Registry lp_sched, lp_wall;
  std::uint64_t lp_jobs = 0;
  JobOptions<core::ParallelCluster> w1, w2;
  w1.lp_workers = 1;
  w2.lp_workers = 2;
  w2.before_run = [&prof](core::ParallelCluster&) { prof.reset(); };
  w2.collect = [&](core::ParallelCluster& c) {
    c.collect_scheduler_metrics(lp_sched);
    prof.export_metrics(lp_wall);
    ++lp_jobs;
  };
  const bool lp_placement_ok =
      run.pl.cpu >= 0 && set_thread_placement(first_cpus(run.pl, 2), SCHED_BATCH);
  const std::int64_t td = now_ns();
  for (int pair = 0; pair < 3 || seconds_since(td) < 0.2 * a.seconds; ++pair) {
    const double m1 = run.job(w1);
    const double m2 = run.job(w2);
    if (m1 >= 0) w1_ms.push_back(m1);
    if (m2 >= 0) w2_ms.push_back(m2);
    if (seconds_since(td) > 0.4 * a.seconds) break;
  }
  restore_ok &= restore_confinement(run.pl);

  // ----- derive the per-layer metrics -----
  const Registry& c = lt.counters;
  const Registry& wz = lt.wall;
  const double J = static_cast<double>(lt.jobs);
  const double T = lt.wall_ns;  // host ns over all traced jobs
  auto per_job = [J](double v) { return ratio(v, J); };
  auto excl = [&wz](const char* zone) {
    return static_cast<double>(wall_get(wz, zone, "excl_ns"));
  };
  auto incl_per = [&wz](const char* zone) {
    return ratio(static_cast<double>(wall_get(wz, zone, "ns")),
                 static_cast<double>(wall_get(wz, zone, "count")));
  };
  const double tx_frames = static_cast<double>(c.get("net.tx_frames"));
  const double descs = static_cast<double>(c.get("ioat.descriptors"));
  const double payload_kib = static_cast<double>(run.in.payload_bytes) / 1024.0;
  const auto [waits, wait_ns] = tr.total(Tracer::kWait);
  const auto [isends, isend_ns] = tr.total(Tracer::kIsend);
  const auto [irecvs, irecv_ns] = tr.total(Tracer::kIrecv);
  const double waits_per_job = per_job(static_cast<double>(waits));
  const double job_wall = ratio(T, J);
  const double def_p50 = median(def_ms);

  const double handoff_share = ratio(handoff_ns * waits_per_job, job_wall);
  const double checksum_share = ratio(csum_ns_per_kib * 2 * payload_kib, job_wall);
  const double schedule_share = ratio(excl("engine.schedule"), T);
  const double driver_share = ratio(excl("driver.bh") + excl("driver.copy"), T);
  const double net_share = ratio(excl("net.transmit") + excl("net.rx_claim"), T);
  const double dma_share = ratio(excl("dma.submit") + excl("dma.complete"), T);
  const double explained = handoff_share + checksum_share + schedule_share +
                           driver_share + net_share + dma_share;

  double lp_events = 0, lp_windows_active = 0;
  for (const auto& [name, counter] : lp_sched.all_counters()) {
    if (name.size() > 7 && name.compare(name.size() - 7, 7, ".events") == 0)
      lp_events += static_cast<double>(counter.value);
    if (name.size() > 15 &&
        name.compare(name.size() - 15, 15, ".windows_active") == 0)
      lp_windows_active += static_cast<double>(counter.value);
  }
  const double lp_j = static_cast<double>(lp_jobs);

  Report& r = run.report;
  r.add("sim.events_per_job", ratio(lt.events, J), "count");
  r.add("sim.host_ns_per_event", ratio(def_p50 * 1e6, ratio(lt.events, J)), "ns");
  r.add("sim.engine_ns_per_event", engine_ns, "ns");
  r.add("sim.dispatch_excl_ns_per_event",
        ratio(excl("engine.dispatch"),
              static_cast<double>(wall_get(wz, "engine.dispatch", "count"))),
        "ns");
  r.add("sim.handoff_ns", handoff_ns, "ns");
  r.add("sim.waits_per_job", waits_per_job, "count");
  r.add("sim.handoff_share", handoff_share, "fraction");
  r.add("sim.schedule_share", schedule_share, "fraction");
  r.add("sim.unpinned_slowdown",
        unconfined_ok && restore_ok ? ratio(median(free_ms), median(pinned_ms)) : 0.0,
        "x");
  r.add("core.isend_ns", ratio(static_cast<double>(isend_ns), static_cast<double>(isends)), "ns");
  r.add("core.irecv_ns", ratio(static_cast<double>(irecv_ns), static_cast<double>(irecvs)), "ns");
  r.add("core.checksum_ns_per_kib", csum_ns_per_kib, "ns/KiB");
  r.add("core.checksum_share", checksum_share, "fraction");
  r.add("driver.bh_ns_per_frame", incl_per("driver.bh"), "ns");
  r.add("driver.copy_ns_per_kib",
        ratio(static_cast<double>(wall_get(wz, "driver.copy", "ns")), J * payload_kib),
        "ns/KiB");
  r.add("driver.pull_reqs_per_job", per_job(static_cast<double>(c.get("driver.pull_reqs"))), "count");
  r.add("driver.large_ioat_bytes_per_job",
        per_job(static_cast<double>(c.get("driver.large_ioat_bytes"))), "bytes");
  r.add("driver.large_memcpy_bytes_per_job",
        per_job(static_cast<double>(c.get("driver.large_memcpy_bytes"))), "bytes");
  r.add("driver.retrans_frac",
        ratio(static_cast<double>(c.get("driver.eager_retransmits") +
                                  c.get("driver.pull_retransmits") +
                                  c.get("driver.rndv_retransmits")),
              tx_frames),
        "fraction");
  r.add("driver.share", driver_share, "fraction");
  r.add("net.frames_per_job", per_job(tx_frames), "count");
  r.add("net.transmit_ns_per_frame", incl_per("net.transmit"), "ns");
  r.add("net.rx_claim_ns_per_frame", incl_per("net.rx_claim"), "ns");
  r.add("net.delivered_ratio", ratio(static_cast<double>(c.get("nic.rx_frames")), tx_frames),
        "fraction");
  r.add("net.share", net_share, "fraction");
  r.add("cpu.busy_vt_us_per_job", per_job(lt.busy_vt_ns) / 1e3, "vt_us");
  r.add("cpu.runq_wait_vt_us_per_job", per_job(lt.runq_wait_vt_ns) / 1e3, "vt_us");
  r.add("dma.descriptors_per_job", per_job(descs), "count");
  r.add("dma.submit_ns_per_desc",
        ratio(static_cast<double>(wall_get(wz, "dma.submit", "ns")), descs), "ns");
  r.add("dma.complete_ns_per_desc",
        ratio(static_cast<double>(wall_get(wz, "dma.complete", "ns")), descs), "ns");
  r.add("dma.queue_wait_vt_ns_p99", hist_p99(c, "ioat.queue_wait_ns"), "vt_ns");
  r.add("dma.share", dma_share, "fraction");
  const double hits = static_cast<double>(c.get("regcache.hit"));
  r.add("mem.regcache_hit_ratio",
        ratio(hits, hits + static_cast<double>(c.get("regcache.miss"))), "fraction");
  r.add("obs.profiler_overhead", ratio(def_p50, median(off_ms)), "x");
  r.add("obs.trace_overhead", ratio(median(traced_ms), def_p50), "x");
  r.add("obs.explained_share", explained, "fraction");
  r.add("obs.other_share", 1.0 - explained, "fraction");
  r.add("lp.windows_per_job", ratio(static_cast<double>(lp_sched.get("lp.windows")), lp_j),
        "count");
  r.add("lp.events_per_window", ratio(lp_events, lp_windows_active), "count");
  r.add("lp.barrier_share",
        lp_placement_ok
            ? ratio(static_cast<double>(wall_get(lp_wall, "lp.barrier_wait", "ns")),
                    2.0 * median(w2_ms) * 1e6 * lp_j)
            : 0.0,
        "fraction");
  r.add("lp.w2_speedup", lp_placement_ok ? ratio(median(w1_ms), median(w2_ms)) : 0.0,
        "x");

  r.note("traced_jobs", J);
  r.note("lp_workers_cpus", std::min(2, run.pl.allowed_count));
  r.note("unconfined_ok", unconfined_ok ? "true" : "false");
  r.note("lp_placement_ok", lp_placement_ok ? "true" : "false");
  r.note("restore_ok", restore_ok ? "true" : "false");
  if (!unconfined_ok || !lp_placement_ok || !restore_ok)
    std::fprintf(stderr, "perfbench: a placement change failed (unconfined %d, "
                 "lp %d, restore %d)\n", unconfined_ok, lp_placement_ok, restore_ok);
  std::printf("info wait spans %" PRIu64 " (%.0f ns mean); %s layer shares: "
              "handoff %.3f checksum %.3f schedule %.3f driver %.3f net %.3f "
              "dma %.3f\n",
              waits, ratio(static_cast<double>(wait_ns), static_cast<double>(waits)),
              std::string(w.name).c_str(), handoff_share, checksum_share,
              schedule_share, driver_share, net_share, dma_share);
  if (!a.spans_out.empty() && !tr.write_json(a.spans_out))
    std::fprintf(stderr, "perfbench: cannot write %s\n", a.spans_out.c_str());
  r.print(warm_ok && run.failed == 0 && (restore_ok || !confined), run.attempted,
          run.failed);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Placement pl = confine_to_one_cpu();  // before any thread exists
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--setup-only] [--inputs-digest] "
                 "[--inject corrupt_rx|perturb_digest] [--spans-out <file>]\n");
    return 2;
  }
  const WorkloadSpec* w = find_workload(args.workload);
  if (!w) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  Run run(args, pl, *w);
  if (args.inputs_digest) {
    std::printf("inputs %s seed %" PRIu64 " digest %016" PRIx64 "\n",
                std::string(w->name).c_str(), args.seed, inputs_digest(run.in));
    return 0;
  }

  // Untimed warm-up job: its digest is the reference every later job must
  // reproduce, and lazy set-up (first touch, interning) lands here.
  const bool warm_ok = run.job({}, /*count=*/false) >= 0;
  const double setup_s = seconds_since(kProcessStart);
  if (args.setup_only) {
    Report r;
    r.add("setup_s", setup_s, "s");
    note_placement(r, pl);
    r.print(warm_ok, 1, warm_ok ? 0 : 1);
    return 0;
  }
  note_placement(run.report, pl);
  char digest[32];
  std::snprintf(digest, sizeof digest, "\"%016" PRIx64 "\"", run.ref_digest);
  run.report.note("vt_digest", digest);
  return args.trace ? traced_run(run, warm_ok) : timed_run(run, setup_s, warm_ok);
}
