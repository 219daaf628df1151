// Protocol-level tests of the Open-MX driver: acknowledgment and
// deduplication behaviour, retransmission counters, stale-handle
// handling, event ordering, pull-block pipelining and wire accounting.
#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <vector>

#include "core/cluster.hpp"
#include "core/endpoint.hpp"
#include "tests/test_common.hpp"

namespace sim = openmx::sim;
namespace core = openmx::core;
namespace net = openmx::net;

namespace {

std::vector<std::uint8_t> pattern(std::size_t n, std::uint8_t seed = 1) {
  std::vector<std::uint8_t> v(n);
  std::uint8_t x = seed;
  for (auto& b : v) {
    x = static_cast<std::uint8_t>(x * 31 + 7);
    b = x;
  }
  return v;
}

struct Net2 {
  core::Cluster cluster;
  explicit Net2(core::OmxConfig cfg = {}, net::NetParams np = {})
      : cluster({}, np) {
    cluster.add_nodes(2, cfg);
  }
  core::Node& n0() { return cluster.node(0); }
  core::Node& n1() { return cluster.node(1); }
};

void simple_transfer(core::Cluster& cluster, std::size_t len,
                     std::vector<std::uint8_t>& src,
                     std::vector<std::uint8_t>& dst, int count = 1) {
  src = pattern(len);
  dst.assign(len ? len : 1, 0);
  cluster.spawn(cluster.node(0), 0, "s", [&, count](core::Process& p) {
    core::Endpoint ep(p, 0);
    for (int i = 0; i < count; ++i)
      ep.wait(ep.isend(src.data(), len, {1, 1}, 1));
  });
  cluster.spawn(cluster.node(1), 0, "r", [&, count](core::Process& p) {
    core::Endpoint ep(p, 1);
    for (int i = 0; i < count; ++i)
      ep.wait(ep.irecv(dst.data(), len, 1));
  });
  cluster.run();
  dst.resize(len);
}

}  // namespace

TEST(Protocol, EagerMessageIsAckedOnce) {
  Net2 f;
  std::vector<std::uint8_t> src, dst;
  simple_transfer(f.cluster, 8 * 1024, src, dst);
  EXPECT_EQ(dst, src);
  // 2 data fragments + 1 ack on the wire.
  EXPECT_EQ(f.cluster.network().counters().get("net.tx_frames"), 3u);
  EXPECT_EQ(f.n0().driver().counters().get("driver.eager_retransmits"), 0u);
}

TEST(Protocol, LargeMessageFrameAccounting) {
  Net2 f;
  std::vector<std::uint8_t> src, dst;
  const std::size_t len = 256 * sim::KiB;  // 64 fragments, 8 blocks
  simple_transfer(f.cluster, len, src, dst);
  EXPECT_EQ(dst, src);
  const auto& net = f.cluster.network().counters();
  // rndv + 8 pull requests + 64 replies + 1 large-ack = 74 frames.
  EXPECT_EQ(net.get("net.tx_frames"), 74u);
  EXPECT_EQ(f.n0().driver().counters().get("driver.pull_replies"), 64u);
  EXPECT_EQ(f.n1().driver().counters().get("driver.pull_reqs"), 8u);
  EXPECT_EQ(f.n1().driver().counters().get("driver.pulls_finished"), 1u);
}

TEST(Protocol, PipelineKeepsTwoBlocksOutstanding) {
  core::OmxConfig cfg;
  cfg.pull_blocks_outstanding = 2;
  Net2 f(cfg);
  // Track the maximum number of requested-but-incomplete blocks by
  // watching pull requests vs finished blocks through wire counters over
  // time: the first two requests go out together.
  std::vector<std::uint8_t> src, dst;
  simple_transfer(f.cluster, 128 * sim::KiB, src, dst);
  EXPECT_EQ(dst, src);
  EXPECT_EQ(f.n1().driver().counters().get("driver.pull_reqs"), 4u);
}

TEST(Protocol, DuplicateEagerIsReackedNotRedelivered) {
  // Force a duplicate by dropping the first MsgAck: sender retransmits,
  // receiver must re-ack without delivering the payload twice.
  net::NetParams np;
  np.loss_prob = 0.35;
  np.loss_seed = 11;
  core::OmxConfig cfg;
  cfg.retrans_timeout = 50 * sim::kMicrosecond;
  Net2 f(cfg, np);
  std::vector<std::uint8_t> src, dst;
  int recv_count = 0;
  src = pattern(4096);
  dst.assign(4096, 0);
  f.cluster.spawn(f.n0(), 0, "s", [&](core::Process& p) {
    core::Endpoint ep(p, 0);
    for (int i = 0; i < 10; ++i)
      ep.wait(ep.isend(src.data(), src.size(), {1, 1}, 1));
  });
  f.cluster.spawn(f.n1(), 0, "r", [&](core::Process& p) {
    core::Endpoint ep(p, 1);
    for (int i = 0; i < 10; ++i) {
      ep.wait(ep.irecv(dst.data(), dst.size(), 1));
      ++recv_count;
    }
  });
  f.cluster.run();
  EXPECT_EQ(recv_count, 10);
  EXPECT_EQ(dst, src);
  // With 35 % loss something must have been retransmitted.
  EXPECT_GT(f.n0().driver().counters().get("driver.eager_retransmits"), 0u);
}

TEST(Protocol, SendToUnknownEndpointFailsAfterRetries) {
  core::OmxConfig cfg;
  cfg.retrans_timeout = 20 * sim::kMicrosecond;
  cfg.max_retries = 5;
  Net2 f(cfg);
  std::vector<std::uint8_t> src = pattern(512);
  bool failed = false;
  f.cluster.spawn(f.n0(), 0, "s", [&](core::Process& p) {
    core::Endpoint ep(p, 0);
    // Endpoint 9 was never opened on node 1; the send can never be acked,
    // so the driver gives up after max_retries and reports failure.
    const core::Request done = ep.wait(ep.isend(src.data(), src.size(),
                                                {1, 9}, 1));
    failed = done.failed;
  });
  f.cluster.run();
  EXPECT_TRUE(failed);
  EXPECT_EQ(f.n0().driver().counters().get("driver.aborted_sends"), 1u);
  // The receiver's driver nacks the unknown endpoint, so the sender fails
  // fast instead of burning its full retry budget.
  EXPECT_EQ(f.n1().driver().counters().get("driver.nacks_sent"), 1u);
  EXPECT_EQ(f.n0().driver().counters().get("driver.eager_retransmits"), 0u);
}

TEST(Protocol, RndvToUnknownEndpointFailsAfterRetries) {
  core::OmxConfig cfg;
  cfg.retrans_timeout = 20 * sim::kMicrosecond;
  cfg.max_retries = 5;
  Net2 f(cfg);
  std::vector<std::uint8_t> src = pattern(256 * 1024);
  bool failed = false;
  f.cluster.spawn(f.n0(), 0, "s", [&](core::Process& p) {
    core::Endpoint ep(p, 0);
    const core::Request done = ep.wait(ep.isend(src.data(), src.size(),
                                                {1, 9}, 1));
    failed = done.failed;
  });
  f.cluster.run();
  EXPECT_TRUE(failed);
}

TEST(Protocol, TruncatedPullTransfersOnlyCapacity) {
  Net2 f;
  const std::size_t sent = sim::MiB;
  const std::size_t cap = 256 * sim::KiB;
  auto src = pattern(sent);
  std::vector<std::uint8_t> dst(cap, 0);
  std::size_t got = 0;
  f.cluster.spawn(f.n0(), 0, "s", [&](core::Process& p) {
    core::Endpoint ep(p, 0);
    ep.wait(ep.isend(src.data(), sent, {1, 1}, 1));
  });
  f.cluster.spawn(f.n1(), 0, "r", [&](core::Process& p) {
    core::Endpoint ep(p, 1);
    got = ep.wait(ep.irecv(dst.data(), cap, 1)).recv_len;
  });
  f.cluster.run();
  EXPECT_EQ(got, cap);
  EXPECT_TRUE(std::equal(dst.begin(), dst.end(), src.begin()));
  // Only the truncated length crossed the wire: 64 fragments, not 256.
  EXPECT_EQ(f.n0().driver().counters().get("driver.pull_replies"), 64u);
}

TEST(Protocol, EventsArriveInFragmentStreamOrder) {
  // Single-fragment messages from one sender are delivered in send order
  // (the wire, rings and event queue are all FIFO).
  Net2 f;
  constexpr int kMsgs = 32;
  std::vector<int> order;
  f.cluster.spawn(f.n0(), 0, "s", [&](core::Process& p) {
    core::Endpoint ep(p, 0);
    std::vector<core::Request*> reqs;
    std::vector<std::vector<std::uint8_t>> bufs;
    for (int i = 0; i < kMsgs; ++i) {
      bufs.push_back(pattern(64, static_cast<std::uint8_t>(i)));
      reqs.push_back(ep.isend(bufs.back().data(), 64, {1, 1},
                              static_cast<std::uint64_t>(i)));
    }
    for (auto* r : reqs) ep.wait(r);
  });
  f.cluster.spawn(f.n1(), 0, "r", [&](core::Process& p) {
    core::Endpoint ep(p, 1);
    std::vector<std::uint8_t> buf(64);
    for (int i = 0; i < kMsgs; ++i) {
      // Wildcard receives: completion order == arrival order.
      const core::Request done = ep.wait(ep.irecv(buf.data(), 64, 0, 0));
      (void)done;
      order.push_back(static_cast<int>(buf[1]));
    }
  });
  f.cluster.run();
  // Message i's pattern(seed=i) second byte identifies it; they must come
  // out 0..kMsgs-1 in order.
  for (int i = 1; i < kMsgs; ++i)
    EXPECT_NE(order[static_cast<std::size_t>(i)],
              order[static_cast<std::size_t>(i - 1)]);
}

TEST(Protocol, ConcurrentLargePullsUseDistinctHandles) {
  core::OmxConfig cfg;
  cfg.ioat_large = true;
  Net2 f(cfg);
  constexpr int kMsgs = 4;
  const std::size_t len = 512 * sim::KiB;
  std::vector<std::vector<std::uint8_t>> src, dst(kMsgs);
  for (int i = 0; i < kMsgs; ++i) {
    src.push_back(pattern(len, static_cast<std::uint8_t>(i + 1)));
    dst[static_cast<std::size_t>(i)].resize(len);
  }
  f.cluster.spawn(f.n0(), 0, "s", [&](core::Process& p) {
    core::Endpoint ep(p, 0);
    std::vector<core::Request*> reqs;
    for (int i = 0; i < kMsgs; ++i)
      reqs.push_back(ep.isend(src[static_cast<std::size_t>(i)].data(), len,
                              {1, 1}, static_cast<std::uint64_t>(i)));
    for (auto* r : reqs) ep.wait(r);
  });
  f.cluster.spawn(f.n1(), 0, "r", [&](core::Process& p) {
    core::Endpoint ep(p, 1);
    std::vector<core::Request*> reqs;
    for (int i = 0; i < kMsgs; ++i)
      reqs.push_back(ep.irecv(dst[static_cast<std::size_t>(i)].data(), len,
                              static_cast<std::uint64_t>(i)));
    for (auto* r : reqs) ep.wait(r);
  });
  f.cluster.run();
  for (int i = 0; i < kMsgs; ++i)
    EXPECT_EQ(dst[static_cast<std::size_t>(i)],
              src[static_cast<std::size_t>(i)])
        << i;
  EXPECT_EQ(f.n1().driver().counters().get("driver.pulls_started"),
            static_cast<std::uint64_t>(kMsgs));
}

TEST(Protocol, HeavyLossEventuallyDeliversEverything) {
  net::NetParams np;
  np.loss_prob = 0.30;
  np.loss_seed = 321;
  core::OmxConfig cfg;
  cfg.ioat_large = true;
  cfg.retrans_timeout = 40 * sim::kMicrosecond;
  Net2 f(cfg, np);
  std::vector<std::uint8_t> src, dst;
  simple_transfer(f.cluster, 512 * sim::KiB, src, dst);
  EXPECT_EQ(dst, src);
  EXPECT_GT(f.cluster.network().counters().get("net.dropped_frames"), 0u);
  openmx::testutil::expect_no_leaks(f.cluster);
  openmx::testutil::expect_frame_conservation(f.cluster);
}

TEST(Protocol, ZeroByteMessageCompletesBothSides) {
  Net2 f;
  bool send_done = false, recv_done = false;
  f.cluster.spawn(f.n0(), 0, "s", [&](core::Process& p) {
    core::Endpoint ep(p, 0);
    ep.wait(ep.isend(nullptr, 0, {1, 1}, 1));
    send_done = true;
  });
  f.cluster.spawn(f.n1(), 0, "r", [&](core::Process& p) {
    core::Endpoint ep(p, 1);
    const core::Request done = ep.wait(ep.irecv(nullptr, 0, 1));
    recv_done = true;
    EXPECT_EQ(done.recv_len, 0u);
  });
  f.cluster.run();
  EXPECT_TRUE(send_done);
  EXPECT_TRUE(recv_done);
}

TEST(Protocol, SelfSendThroughLocalPath) {
  // An endpoint sending to another endpoint of the same process's node
  // uses the local path even when both endpoints belong to one process.
  core::Cluster cluster;
  cluster.add_nodes(1, {});
  auto src = pattern(128 * 1024);
  std::vector<std::uint8_t> dst(src.size());
  cluster.spawn(cluster.node(0), 0, "p", [&](core::Process& p) {
    core::Endpoint ep0(p, 0);
    core::Endpoint ep1(p, 1);
    core::Request* r = ep1.irecv(dst.data(), dst.size(), 5);
    core::Request* s = ep0.isend(src.data(), src.size(), {0, 1}, 5);
    ep1.wait(r);
    ep0.wait(s);
  });
  cluster.run();
  EXPECT_EQ(dst, src);
  EXPECT_EQ(cluster.node(0).driver().counters().get("driver.local_sent"),
            1u);
  EXPECT_EQ(cluster.network().counters().get("net.tx_frames"), 0u);
}

TEST(Protocol, WildcardMaskMatchesAnything) {
  Net2 f;
  auto src = pattern(1024);
  std::vector<std::uint8_t> dst(1024);
  f.cluster.spawn(f.n0(), 0, "s", [&](core::Process& p) {
    core::Endpoint ep(p, 0);
    ep.wait(ep.isend(src.data(), src.size(), {1, 1}, 0xDEADBEEF));
  });
  f.cluster.spawn(f.n1(), 0, "r", [&](core::Process& p) {
    core::Endpoint ep(p, 1);
    const core::Request done =
        ep.wait(ep.irecv(dst.data(), dst.size(), 0, /*mask=*/0));
    EXPECT_EQ(done.recv_len, 1024u);
  });
  f.cluster.run();
  EXPECT_EQ(dst, src);
}

TEST(Protocol, TinyRxRingRecoversViaRetransmission) {
  // A receive ring far smaller than the pull window: frames are dropped
  // at the NIC while I/OAT holds skbuffs, and the pull protocol's
  // re-requests recover every fragment.
  net::NetParams np;
  np.rx_ring_slots = 6;
  core::OmxConfig cfg;
  cfg.ioat_large = true;
  cfg.retrans_timeout = 100 * sim::kMicrosecond;
  Net2 f(cfg, np);
  std::vector<std::uint8_t> src, dst;
  simple_transfer(f.cluster, 512 * sim::KiB, src, dst);
  EXPECT_EQ(dst, src);
  EXPECT_GT(f.n1().nic().counters().get("nic.rx_ring_drops"), 0u);
  openmx::testutil::expect_no_leaks(f.cluster);
  openmx::testutil::expect_frame_conservation(f.cluster);
}

TEST(Protocol, ManySmallMessagesKeepRingBounded) {
  Net2 f;
  std::vector<std::uint8_t> src, dst;
  simple_transfer(f.cluster, 2048, src, dst, /*count=*/200);
  EXPECT_EQ(dst, src);
  EXPECT_EQ(f.n1().nic().counters().get("nic.rx_ring_drops"), 0u);
  openmx::testutil::expect_no_leaks(f.cluster);
  openmx::testutil::expect_frame_conservation(f.cluster);
}

// ---------------------------------------------------------------------
// Wire checksum: header fields and payload length, never payload bytes
// ---------------------------------------------------------------------

namespace {

/// Applies each edit to a copy of `base` and expects the checksum to move
/// (and never to read 0, the "no checksum" marker).
template <typename Pkt>
void expect_each_edit_moves_checksum(
    const Pkt& base, const std::vector<std::function<void(Pkt&)>>& edits) {
  const std::uint32_t h0 = core::pkt_checksum(base);
  EXPECT_NE(h0, 0u);
  for (std::size_t i = 0; i < edits.size(); ++i) {
    Pkt p = base;
    edits[i](p);
    const std::uint32_t h = core::pkt_checksum(p);
    EXPECT_NE(h, h0) << core::pkt_name(base.type) << " edit #" << i;
    EXPECT_NE(h, 0u);
  }
}

template <typename Pkt>
void with_endpoints(Pkt& p, std::vector<std::function<void(Pkt&)>>& edits) {
  p.src_ep = 3;
  p.dst_ep = 5;
  edits.push_back([](Pkt& q) { q.src_ep = 4; });
  edits.push_back([](Pkt& q) { q.dst_ep = 6; });
}

}  // namespace

TEST(WireChecksum, EveryHeaderFieldOfEveryTypeMovesIt) {
  {
    core::EagerFragPkt p;
    std::vector<std::function<void(core::EagerFragPkt&)>> e;
    with_endpoints(p, e);
    p.match_info = 0x1122334455667788ull;
    p.msg_seq = 7;
    p.msg_len = 4096;
    p.frag_idx = 1;
    p.frag_count = 2;
    p.offset = 2048;
    p.data = pattern(2048);
    e.push_back([](auto& q) { q.match_info ^= 1ull << 63; });
    e.push_back([](auto& q) { ++q.msg_seq; });
    e.push_back([](auto& q) { ++q.msg_len; });
    e.push_back([](auto& q) { ++q.frag_idx; });
    e.push_back([](auto& q) { ++q.frag_count; });
    e.push_back([](auto& q) { ++q.offset; });
    e.push_back([](auto& q) { q.data.push_back(0); });
    e.push_back([](auto& q) { q.data.pop_back(); });
    expect_each_edit_moves_checksum(p, e);
  }
  {
    core::RndvPkt p;
    std::vector<std::function<void(core::RndvPkt&)>> e;
    with_endpoints(p, e);
    p.match_info = 42;
    p.msg_seq = 9;
    p.msg_len = 1 << 20;
    p.src_handle = 3;
    e.push_back([](auto& q) { ++q.match_info; });
    e.push_back([](auto& q) { ++q.msg_seq; });
    e.push_back([](auto& q) { ++q.msg_len; });
    e.push_back([](auto& q) { ++q.src_handle; });
    expect_each_edit_moves_checksum(p, e);
  }
  {
    core::PullReqPkt p;
    std::vector<std::function<void(core::PullReqPkt&)>> e;
    with_endpoints(p, e);
    p.src_handle = 1;
    p.dst_handle = 2;
    p.frag_start = 8;
    p.frag_count = 8;
    e.push_back([](auto& q) { ++q.src_handle; });
    e.push_back([](auto& q) { ++q.dst_handle; });
    e.push_back([](auto& q) { ++q.frag_start; });
    e.push_back([](auto& q) { ++q.frag_count; });
    expect_each_edit_moves_checksum(p, e);
  }
  {
    core::PullReplyPkt p;
    std::vector<std::function<void(core::PullReplyPkt&)>> e;
    with_endpoints(p, e);
    p.dst_handle = 2;
    p.frag_idx = 5;
    p.offset = 5 * 8192;
    p.data = pattern(8192);
    e.push_back([](auto& q) { ++q.dst_handle; });
    e.push_back([](auto& q) { ++q.frag_idx; });
    e.push_back([](auto& q) { ++q.offset; });
    e.push_back([](auto& q) { q.data.push_back(0); });
    e.push_back([](auto& q) { q.data.pop_back(); });
    expect_each_edit_moves_checksum(p, e);
  }
  {
    core::MsgAckPkt p;
    std::vector<std::function<void(core::MsgAckPkt&)>> e;
    with_endpoints(p, e);
    p.msg_seq = 11;
    e.push_back([](auto& q) { ++q.msg_seq; });
    expect_each_edit_moves_checksum(p, e);
  }
  {
    core::LargeAckPkt p;
    std::vector<std::function<void(core::LargeAckPkt&)>> e;
    with_endpoints(p, e);
    p.src_handle = 4;
    p.msg_seq = 12;
    e.push_back([](auto& q) { ++q.src_handle; });
    e.push_back([](auto& q) { ++q.msg_seq; });
    e.push_back([](auto& q) { q.failed = true; });
    expect_each_edit_moves_checksum(p, e);
  }
  {
    core::NackPkt p;
    std::vector<std::function<void(core::NackPkt&)>> e;
    with_endpoints(p, e);
    p.msg_seq = 13;
    p.src_handle = 6;
    e.push_back([](auto& q) { ++q.msg_seq; });
    e.push_back([](auto& q) { ++q.src_handle; });
    expect_each_edit_moves_checksum(p, e);
  }
}

TEST(WireChecksum, PacketTypeIsPartOfTheImage) {
  // Default-constructed packets differ only in their type field.
  const std::set<std::uint32_t> sums = {
      core::pkt_checksum(core::EagerFragPkt{}),
      core::pkt_checksum(core::RndvPkt{}),
      core::pkt_checksum(core::PullReqPkt{}),
      core::pkt_checksum(core::PullReplyPkt{}),
      core::pkt_checksum(core::MsgAckPkt{}),
      core::pkt_checksum(core::LargeAckPkt{}),
      core::pkt_checksum(core::NackPkt{})};
  EXPECT_EQ(sums.size(), 7u);
}

TEST(WireChecksum, PayloadBytesAtTheSameLengthDoNotMoveIt) {
  // The payload is shared and immutable; injected corruption flips the
  // frame's csum copy instead, so the hash never reads payload bytes.
  core::PullReplyPkt reply;
  reply.data = pattern(8192);
  core::EagerFragPkt eager;
  eager.data = pattern(512);
  const std::uint32_t r0 = core::pkt_checksum(reply);
  const std::uint32_t e0 = core::pkt_checksum(eager);
  for (std::size_t i : {std::size_t{0}, std::size_t{100}, std::size_t{511}}) {
    reply.data[i] ^= 0x80;
    eager.data[i] ^= 0x01;
    EXPECT_EQ(core::pkt_checksum(reply), r0);
    EXPECT_EQ(core::pkt_checksum(eager), e0);
  }
}

TEST(WireChecksum, NeverZero) {
  // 0 marks a frame that carries no checksum; a real hash of 0 is remapped.
  core::PullReplyPkt reply;
  core::MsgAckPkt ack;
  for (std::uint32_t i = 0; i < 200'000; ++i) {
    reply.frag_idx = i;
    reply.offset = i * 8192;
    ack.msg_seq = i;
    ASSERT_NE(core::pkt_checksum(reply), 0u) << i;
    ASSERT_NE(core::pkt_checksum(ack), 0u) << i;
  }
}
