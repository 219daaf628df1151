#pragma once

// Seeded inputs of the benchmark's workloads.  The seed fixes message
// sizes and payload bytes once per run; every job replays them.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string_view>
#include <utility>
#include <vector>

#include "mem/aligned_buffer.hpp"
#include "sim/time.hpp"

namespace perfbench {

using openmx::sim::KiB;
using openmx::sim::MiB;

enum class Shape { PingPong, Ring };

/// One workload: the traffic shape, the stack configuration and how much
/// traffic one job carries.
struct WorkloadSpec {
  std::string_view name;
  Shape shape;
  int nodes;
  bool ioat_large;         // OmxConfig::ioat_large; everything else default
  int rounds;              // round trips (ping-pong) or iterations (ring)
  std::size_t lo, hi;      // ping-pong message sizes, bytes, inclusive
  std::size_t pool_bytes;  // seeded payload bytes messages are cut from
};

/// Ring-mesh message sizes: a 4-fragment medium eager message and a
/// rendezvous message, as in the repository's ring-mesh KPI.
inline constexpr std::size_t kRingMedium = 16 * KiB;
inline constexpr std::size_t kRingLarge = 256 * KiB;
/// Each ring process starts after a seeded compute delay below this.
inline constexpr std::uint64_t kRingSkewNs = 1000;

inline constexpr WorkloadSpec kWorkloads[] = {
    {"pingpong_large_ioat", Shape::PingPong, 2, true, 4, 1 * MiB, 4 * MiB,
     8 * MiB},
    {"ring_mesh", Shape::Ring, 8, false, 6, 0, 0, 1 * MiB},
};

inline const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& w : kWorkloads)
    if (w.name == name) return &w;
  return nullptr;
}

/// splitmix64: small, seedable, identical on every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n); n > 0.
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t s_;
};

/// One message of a job: `len` bytes sent from `src_off` of the payload
/// pool (or, for an echo, of the sender's own receive arena), landing at
/// `dst_off` of the receiver's arena, where they must equal the pool's
/// bytes at `expect_off`.
struct Msg {
  int src = 0;
  int dst = 0;
  std::uint64_t match = 0;
  std::size_t len = 0;
  bool echo = false;
  std::size_t src_off = 0;
  std::size_t dst_off = 0;
  std::size_t expect_off = 0;
};

struct Inputs {
  const WorkloadSpec* spec = nullptr;
  openmx::mem::Buffer pool;              // page-aligned seeded bytes
  std::vector<Msg> msgs;                 // see make_inputs for the order
  std::vector<std::size_t> arena_bytes;  // receive arena size per node
  std::vector<openmx::sim::Time> start_ns;  // per node, before its first post
  std::size_t payload_bytes = 0;            // delivered by one job
};

/// `n` sizes in [lo, hi], different for every seed but with a sum that
/// does not depend on the seed: n evenly spaced strata centres in seeded
/// order, each pair of messages moved by opposite seeded offsets inside
/// their strata.  A run's host time then follows the code, not how many
/// bytes its seed happened to draw.
inline std::vector<std::size_t> stratified_sizes(std::size_t n,
                                                 std::size_t lo,
                                                 std::size_t hi, Rng& rng) {
  const double width = static_cast<double>(hi - lo + 1) / static_cast<double>(n);
  std::vector<std::size_t> sizes(n);
  for (std::size_t k = 0; k < n; ++k)
    sizes[k] = lo + static_cast<std::size_t>(width * (static_cast<double>(k) + 0.5));
  for (std::size_t k = n; k > 1; --k)
    std::swap(sizes[k - 1], sizes[rng.below(k)]);
  const auto half = static_cast<std::uint64_t>(std::max(0.0, (width - 1) / 2));
  for (std::size_t k = 0; k + 1 < n; k += 2) {
    const std::size_t d = half ? rng.below(half + 1) : 0;
    sizes[k] += d;
    sizes[k + 1] -= d;
  }
  return sizes;
}

inline std::size_t page_round(std::size_t n) {
  const std::size_t page = 4 * KiB;
  return (n + page - 1) / page * page;
}

/// Builds a workload's inputs from `seed`.
///
/// Ping-pong: msgs[2i] goes node 0 -> 1 and msgs[2i+1] echoes it back
/// from the buffer it landed in (as IMB PingPong reuses one buffer), match
/// = message index.  Ring: for iteration `it` and node `n`, msgs
/// [2(it*nodes+n)] is the rendezvous message and the next one the medium
/// message, both to node n+1 with the tags of the ring-mesh KPI; each node
/// sends every iteration from the same two buffers.
inline Inputs make_inputs(const WorkloadSpec& w, std::uint64_t seed) {
  Rng rng(seed ^ 0x6f6d782d62656e63ULL);
  Inputs in;
  in.spec = &w;
  in.pool.resize(w.pool_bytes);
  for (std::size_t i = 0; i < in.pool.size(); i += 8) {
    const std::uint64_t v = rng.next();
    std::memcpy(in.pool.data() + i, &v, std::min<std::size_t>(8, in.pool.size() - i));
  }
  in.arena_bytes.assign(static_cast<std::size_t>(w.nodes), 0);

  auto add = [&](int src, int dst, std::uint64_t match, std::size_t len,
                 std::size_t src_off) -> Msg& {
    Msg m;
    m.src = src;
    m.dst = dst;
    m.match = match;
    m.len = len;
    m.src_off = m.expect_off = src_off;
    std::size_t& arena = in.arena_bytes[static_cast<std::size_t>(dst)];
    m.dst_off = arena;
    arena += page_round(len);
    in.payload_bytes += len;
    in.msgs.push_back(m);
    return in.msgs.back();
  };
  auto pool_off = [&](std::size_t len) { return rng.below(w.pool_bytes - len + 1); };

  if (w.shape == Shape::PingPong) {
    const auto n = static_cast<std::size_t>(w.rounds);
    const std::vector<std::size_t> sizes = stratified_sizes(n, w.lo, w.hi, rng);
    for (std::size_t i = 0; i < n; ++i) {
      const Msg out = add(0, 1, 2 * i, sizes[i], pool_off(sizes[i]));
      Msg& back = add(1, 0, 2 * i + 1, sizes[i], out.dst_off);
      back.echo = true;
      back.expect_off = out.src_off;
    }
  } else {
    const auto nodes = static_cast<std::size_t>(w.nodes);
    std::vector<std::size_t> large_off(nodes), medium_off(nodes);
    for (std::size_t n = 0; n < nodes; ++n) {
      large_off[n] = pool_off(kRingLarge);
      medium_off[n] = pool_off(kRingMedium);
      in.start_ns.push_back(static_cast<openmx::sim::Time>(rng.below(kRingSkewNs)));
    }
    for (int it = 0; it < w.rounds; ++it)
      for (std::size_t n = 0; n < nodes; ++n) {
        const std::uint64_t tag = static_cast<std::uint64_t>(it) * 4;
        const int to = static_cast<int>((n + 1) % nodes);
        add(static_cast<int>(n), to, tag + 1, kRingLarge, large_off[n]);
        add(static_cast<int>(n), to, tag + 2, kRingMedium, medium_off[n]);
      }
  }
  return in;
}

/// FNV-1a over every generated input: equal seeds give equal digests.
inline std::uint64_t inputs_digest(const Inputs& in) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 0x100000001b3ULL;
    }
  };
  mix(in.pool.data(), in.pool.size());
  for (const Msg& m : in.msgs) {
    const std::uint64_t f[] = {static_cast<std::uint64_t>(m.src),
                               static_cast<std::uint64_t>(m.dst), m.match,
                               m.len, m.echo, m.src_off, m.dst_off,
                               m.expect_off};
    mix(f, sizeof f);
  }
  return h;
}

}  // namespace perfbench
