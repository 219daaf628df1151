// Tests for the event-trace subsystem and its driver integration.
#include <gtest/gtest.h>

#include <vector>

#include "core/cluster.hpp"
#include "core/endpoint.hpp"
#include "sim/trace.hpp"

namespace sim = openmx::sim;
namespace core = openmx::core;
namespace obs = openmx::obs;

TEST(Trace, DisabledRecordsNothing) {
  sim::Trace t;
  const obs::EventId id = t.intern_event("x");
  t.event(1, 0, id, 7);
  EXPECT_EQ(t.capacity(), 0u);  // a never-enabled trace allocates nothing
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.dropped(), 0u);
}

TEST(Trace, RecordsInOrder) {
  sim::Trace t;
  t.enable();
  const obs::EventId a = t.intern_event("a");
  const obs::EventId b = t.intern_event("b");
  t.event(10, 0, a, 1);
  t.event(20, 1, b, 2);
  const auto snap = t.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(t.name(snap[0].id), "a");
  EXPECT_EQ(snap[0].a0, 1u);
  EXPECT_EQ(snap[1].when, 20);
  EXPECT_EQ(snap[1].node, 1);
}

TEST(Trace, RingDropsOldest) {
  sim::Trace t;
  t.enable(4);
  const obs::EventId id = t.intern_event("c");
  for (int i = 0; i < 10; ++i) t.event(i, 0, id, static_cast<std::uint64_t>(i));
  EXPECT_EQ(t.size(), 4u);
  EXPECT_EQ(t.dropped(), 6u);
  const auto snap = t.snapshot();
  EXPECT_EQ(snap.front().a0, 6u);
  EXPECT_EQ(snap.back().a0, 9u);
}

TEST(Trace, EnableRoundsCapacityUpToPowerOfTwo) {
  sim::Trace t;
  t.enable(100);
  EXPECT_EQ(t.capacity(), 128u);
  const obs::EventId id = t.intern_event("c");
  for (std::uint64_t i = 0; i < 300; ++i)
    t.event(static_cast<sim::Time>(i), 0, id, i);
  EXPECT_EQ(t.size(), 128u);
  EXPECT_EQ(t.dropped(), 172u);
  const auto snap = t.snapshot();
  ASSERT_EQ(snap.size(), 128u);
  for (std::size_t i = 0; i < snap.size(); ++i)
    EXPECT_EQ(snap[i].a0, 172u + i);  // the last 128, oldest first
}

TEST(Trace, TypedEventsReconstructCategoryAndArgs) {
  sim::Trace t;
  t.enable();
  const obs::EventId id = t.intern_event("pull.done");
  const obs::EventId wire = t.intern_event("wire.tx");
  t.event(5, 2, id, 123, 456);
  t.event(6, 2, id, 789);
  t.event(7, 0, wire);
  const auto snap = t.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(t.name(snap[0].id), "pull.done");
  EXPECT_EQ(snap[0].cat, obs::Cat::Pull);
  EXPECT_EQ(snap[0].a0, 123u);
  EXPECT_EQ(snap[0].a1, 456u);
  EXPECT_EQ(snap[1].a0, 789u);
  EXPECT_EQ(snap[1].a1, 0u);
  EXPECT_EQ(snap[1].node, 2);
  EXPECT_EQ(snap[2].cat, obs::Cat::Wire);
  EXPECT_EQ(t.count("pull"), 2u);
  EXPECT_EQ(t.count("wire.tx"), 1u);
}

TEST(Trace, ClearResets) {
  sim::Trace t;
  t.enable(2);
  const obs::EventId id = t.intern_event("a");
  for (int i = 0; i < 3; ++i) t.event(i, 0, id);
  t.clear();
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.dropped(), 0u);
  EXPECT_EQ(t.capacity(), 2u);  // still enabled
  t.event(9, 0, id);
  EXPECT_EQ(t.size(), 1u);
}

TEST(TraceIntegration, DriverEmitsWireAndPullRecords) {
  core::OmxConfig cfg;
  cfg.ioat_large = true;
  core::Cluster cluster;
  cluster.add_nodes(2, cfg);
  cluster.engine().trace().enable();

  const std::size_t len = 256 * sim::KiB;  // 64 frags, 8 blocks
  std::vector<std::uint8_t> src(len, 3), dst(len);
  cluster.spawn(cluster.node(0), 0, "s", [&](core::Process& p) {
    core::Endpoint ep(p, 0);
    ep.wait(ep.isend(src.data(), len, {1, 1}, 1));
  });
  cluster.spawn(cluster.node(1), 0, "r", [&](core::Process& p) {
    core::Endpoint ep(p, 1);
    ep.wait(ep.irecv(dst.data(), len, 1));
  });
  cluster.run();
  EXPECT_EQ(dst, src);

  auto& tr = cluster.engine().trace();
  // rndv + 8 pull reqs + 64 replies + acks all traced.
  EXPECT_EQ(tr.count("pull.start"), 1u);
  EXPECT_EQ(tr.count("pull.done"), 1u);
  EXPECT_GE(tr.count("wire.tx"), 74u);

  // The pull lifecycle is ordered: start strictly before done.
  sim::Time started = -1, done = -1;
  for (const auto& r : tr.snapshot()) {
    if (tr.name(r.id) == "pull.start") started = r.when;
    if (tr.name(r.id) == "pull.done") done = r.when;
  }
  EXPECT_GE(started, 0);
  EXPECT_GT(done, started);
}

TEST(TraceIntegration, DisabledTraceCostsNothingInCounters) {
  core::Cluster cluster;
  cluster.add_nodes(2, {});
  std::vector<std::uint8_t> src(4096, 1), dst(4096);
  cluster.spawn(cluster.node(0), 0, "s", [&](core::Process& p) {
    core::Endpoint ep(p, 0);
    ep.wait(ep.isend(src.data(), src.size(), {1, 1}, 1));
  });
  cluster.spawn(cluster.node(1), 0, "r", [&](core::Process& p) {
    core::Endpoint ep(p, 1);
    ep.wait(ep.irecv(dst.data(), dst.size(), 1));
  });
  cluster.run();
  EXPECT_EQ(cluster.engine().trace().size(), 0u);
}
