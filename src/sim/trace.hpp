#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.hpp"
#include "sim/time.hpp"

namespace openmx::sim {

/// The event trace: one bounded ring of 32-byte obs::TraceEvent PODs per
/// engine.
///
/// Call sites intern their event name once (intern_event(), at component
/// construction) and then record with event(): a POD store with interned
/// name ids and two u64 arguments, no strings, no allocation.  Disabled
/// is the default; a disabled trace allocates nothing and event() costs
/// one branch.  enable(capacity) allocates a power-of-two ring, so each
/// store is one masked write; when full, the oldest events are
/// overwritten (and counted as dropped), so the ring always holds the
/// tail of the run.  That tail is what dump_postmortem_json() writes
/// when a harness's on_panic hook or invariant check fails — harnesses
/// enable a small ring for exactly that — and what snapshot()/dump()
/// show for inspection.
class Trace {
 public:
  static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 16;

  Trace() = default;
  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

  /// Starts recording into an empty ring of `capacity` events, rounded
  /// up to a power of two.
  void enable(std::size_t capacity = kDefaultCapacity) {
    ring_.assign(std::bit_ceil(std::max<std::size_t>(capacity, 1)), {});
    mask_ = ring_.size() - 1;
    total_ = 0;
  }
  /// Ring size; 0 until enable() is called.
  [[nodiscard]] std::size_t capacity() const { return ring_.size(); }

  /// Pre-interns an event name; the returned id makes event() a pure POD
  /// store.  Call once per site (component constructors).
  [[nodiscard]] obs::EventId intern_event(std::string_view name) {
    const std::uint32_t id = names_.intern(name);
    return obs::EventId{static_cast<std::uint16_t>(id), obs::classify(name)};
  }

  /// Records one event; a0/a1 are free-form event arguments (byte
  /// counts, handles, packed addresses).
  void event(Time when, int node, obs::EventId id, std::uint64_t a0 = 0,
             std::uint64_t a1 = 0) {
    if (ring_.empty()) return;
    obs::TraceEvent& e = ring_[total_++ & mask_];
    e.when = when;
    e.node = node;
    e.cat = id.cat;
    e.id = id.id;
    e.a0 = a0;
    e.a1 = a1;
  }

  /// Retained events (at most capacity()).
  [[nodiscard]] std::size_t size() const {
    return static_cast<std::size_t>(std::min<std::uint64_t>(total_,
                                                            ring_.size()));
  }
  /// Events overwritten by newer ones since enable() or clear().
  [[nodiscard]] std::uint64_t dropped() const { return total_ - size(); }

  void clear() { total_ = 0; }

  /// Name of an interned event id ("wire.tx", "pull.start", ...).
  [[nodiscard]] const std::string& name(std::uint16_t id) const {
    return names_.name(id);
  }

  /// Retained events in chronological order.
  [[nodiscard]] std::vector<obs::TraceEvent> snapshot() const {
    std::vector<obs::TraceEvent> out;
    out.reserve(size());
    for (std::uint64_t i = total_ - size(); i < total_; ++i)
      out.push_back(ring_[i & mask_]);
    return out;
  }

  /// Number of retained events whose name starts with `prefix`.
  [[nodiscard]] std::size_t count(std::string_view prefix) const {
    std::size_t n = 0;
    for (const obs::TraceEvent& e : snapshot())
      if (std::string_view(name(e.id)).starts_with(prefix)) ++n;
    return n;
  }

  /// Human-readable dump of the last `max_lines` events (for examples
  /// and debugging).
  void dump(std::FILE* out = stdout, std::size_t max_lines = 200) const {
    const auto evs = snapshot();
    const std::size_t start =
        evs.size() > max_lines ? evs.size() - max_lines : 0;
    for (std::size_t i = start; i < evs.size(); ++i) {
      const obs::TraceEvent& e = evs[i];
      std::fprintf(out, "%12.3f us  n%d  %-10s ", to_micros(e.when), e.node,
                   name(e.id).c_str());
      if (e.a1)
        std::fprintf(out, "a0=%llu a1=%llu\n",
                     static_cast<unsigned long long>(e.a0),
                     static_cast<unsigned long long>(e.a1));
      else if (e.a0)
        std::fprintf(out, "a0=%llu\n", static_cast<unsigned long long>(e.a0));
      else
        std::fputs("\n", out);
    }
  }

  /// Chrome-trace/Perfetto postmortem dump: a "postmortem" header first
  /// (failure reason, seed, ring capacity, events ever recorded), then
  /// one instant event per line in chronological order and a fixed field
  /// order, so `omx_postmortem` can parse it with sscanf.  The output
  /// depends only on the recorded events, never on wall time or
  /// addresses.
  void dump_postmortem_json(std::FILE* out, const char* reason,
                            std::uint64_t seed) const {
    std::fprintf(out,
                 "{\"postmortem\":{\"reason\":\"%s\",\"seed\":%llu,"
                 "\"shards\":1,\"capacity\":%zu,\"recorded\":[%llu]},\n"
                 "\"traceEvents\":[\n"
                 "{\"ph\":\"M\",\"pid\":0,\"name\":\"process_name\","
                 "\"args\":{\"name\":\"shard0\"}}",
                 escape(reason).c_str(), static_cast<unsigned long long>(seed),
                 ring_.size(), static_cast<unsigned long long>(total_));
    for (const obs::TraceEvent& e : snapshot())
      std::fprintf(
          out,
          ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"i\",\"s\":\"t\","
          "\"pid\":0,\"tid\":%d,\"ts\":%.3f,"
          "\"args\":{\"node\":%d,\"a0\":%llu,\"a1\":%llu}}",
          escape(name(e.id).c_str()).c_str(), obs::cat_name(e.cat),
          e.node >= 0 ? e.node : 0, to_micros(e.when), e.node,
          static_cast<unsigned long long>(e.a0),
          static_cast<unsigned long long>(e.a1));
    std::fputs("\n],\"displayTimeUnit\":\"ns\"}\n", out);
  }

  /// Writes the postmortem dump to `path`; returns false if the file
  /// cannot be opened (the caller is already on a failure path — never
  /// throw).
  bool dump_postmortem_json(const std::string& path, const char* reason,
                            std::uint64_t seed) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    dump_postmortem_json(f, reason, seed);
    std::fclose(f);
    return true;
  }

 private:
  /// Minimal JSON string sanitizer for reasons and event names (both
  /// come from our own code, so mapping the rare quote/backslash/control
  /// byte to a safe character beats dragging in real escaping).
  [[nodiscard]] static std::string escape(const char* s) {
    std::string out(s ? s : "");
    for (char& c : out)
      if (c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20)
        c = '\'';
    return out;
  }

  std::vector<obs::TraceEvent> ring_;  // empty while disabled
  std::uint64_t mask_ = 0;
  std::uint64_t total_ = 0;  // events recorded since enable()/clear()
  obs::Interner names_;      // event names (bounded, u16 ids)
};

}  // namespace openmx::sim
