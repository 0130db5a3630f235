// The networking stack end to end: handshake, ordered delivery, windows,
// EOF, drops/retransmits, UDP checksum policy.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/base/rng.h"
#include "src/kern/net.h"
#include "src/kern/net_hosts.h"
#include "src/kern/nfs.h"
#include "src/kern/user_env.h"
#include "src/workloads/testbed.h"
#include "src/workloads/workloads.h"

namespace hwprof {
namespace {

TEST(NetStack, HandshakeEstablishesConnection) {
  Testbed tb;
  Kernel& k = tb.kernel();
  auto sender = std::make_shared<SenderHost>(tb.machine(), k.wire(), kSenderNodeId,
                                             kSenderIpAddr);
  bool accepted = false;
  k.Spawn("srv", [&](UserEnv& env) {
    const int fd = env.Socket(true);
    ASSERT_TRUE(env.Bind(fd, 4000));
    ASSERT_TRUE(env.Listen(fd));
    const int conn = env.Accept(fd);
    accepted = conn >= 0;
  });
  tb.machine().events().ScheduleAt(Msec(20), [&] {
    sender->StartStream(kPcIpAddr, 4000, 1000);
  });
  k.Run(Sec(2));
  EXPECT_TRUE(accepted);
  EXPECT_TRUE(sender->connected() || sender->done());
}

class StreamSizeTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StreamSizeTest, DeliversExactVerifiedByteStream) {
  Testbed tb;
  NetReceiveResult res = RunNetworkReceive(tb, Sec(20), GetParam());
  EXPECT_EQ(res.bytes_received, GetParam());
  EXPECT_TRUE(res.integrity_ok);
  EXPECT_NE(res.done_at, 0u) << "receiver never saw EOF";
}

INSTANTIATE_TEST_SUITE_P(Sizes, StreamSizeTest,
                         ::testing::Values(1ull, 100ull, 1460ull, 1461ull, 8192ull,
                                           65536ull, 300000ull));

TEST(NetStack, SmallMssStillDeliversInOrder) {
  Testbed tb;
  Kernel& k = tb.kernel();
  auto sender = std::make_shared<SenderHost>(tb.machine(), k.wire(), kSenderNodeId,
                                             kSenderIpAddr);
  std::uint64_t got = 0;
  bool ok = true;
  std::uint64_t cursor = 0;
  k.Spawn("srv", [&](UserEnv& env) {
    const int fd = env.Socket(true);
    env.Bind(fd, 4000);
    env.Listen(fd);
    const int conn = env.Accept(fd);
    while (true) {
      Bytes chunk;
      if (env.Recv(conn, 4096, &chunk) <= 0) {
        break;
      }
      for (std::uint8_t b : chunk) {
        ok &= b == SenderHost::PayloadByte(cursor++);
      }
      got += chunk.size();
    }
  });
  tb.machine().events().ScheduleAt(Msec(20), [&] {
    sender->StartStream(kPcIpAddr, 4000, 20000, /*mss=*/536);
  });
  k.Run(Sec(20));
  EXPECT_EQ(got, 20000u);
  EXPECT_TRUE(ok);
}

TEST(NetStack, ReceiverWindowThrottlesInFlightData) {
  // If the receiving process never reads, the sender must stall at the
  // advertised window rather than blast the whole stream.
  Testbed tb;
  Kernel& k = tb.kernel();
  auto sender = std::make_shared<SenderHost>(tb.machine(), k.wire(), kSenderNodeId,
                                             kSenderIpAddr);
  k.Spawn("lazy", [&](UserEnv& env) {
    const int fd = env.Socket(true);
    env.Bind(fd, 4000);
    env.Listen(fd);
    env.Accept(fd);
    // Accept, then never read.
    env.Compute(Sec(5));
  });
  tb.machine().events().ScheduleAt(Msec(20), [&] {
    sender->StartStream(kPcIpAddr, 4000, 1 * kMiB);
  });
  k.Run(Sec(3));
  // The socket buffer is 16 KiB: no more than that (plus slop) can be acked.
  EXPECT_LE(sender->bytes_acked(), 32u * 1024);
  EXPECT_GT(sender->bytes_acked(), 0u);
}

TEST(NetStack, RetransmitRecoversFromRingOverflow) {
  // Stall interrupt processing long enough for the 8 KiB board ring to
  // overflow, dropping frames; the sender's go-back-N timer must recover
  // and the stream must still arrive intact.
  Testbed tb;
  Kernel& k = tb.kernel();
  auto sender = std::make_shared<SenderHost>(tb.machine(), k.wire(), kSenderNodeId,
                                             kSenderIpAddr);
  std::uint64_t got = 0;
  bool ok = true;
  std::uint64_t cursor = 0;
  k.Spawn("srv", [&](UserEnv& env) {
    const int fd = env.Socket(true);
    env.Bind(fd, 4000);
    env.Listen(fd);
    const int conn = env.Accept(fd);
    // Block out the ether card for a long stretch right after accepting.
    const int s = k.spl().splhigh();
    k.cpu().Use(Msec(50));
    k.spl().splx(s);
    while (true) {
      Bytes chunk;
      if (env.Recv(conn, 8192, &chunk) <= 0) {
        break;
      }
      for (std::uint8_t b : chunk) {
        ok &= b == SenderHost::PayloadByte(cursor++);
      }
      got += chunk.size();
    }
  });
  tb.machine().events().ScheduleAt(Msec(20), [&] {
    sender->StartStream(kPcIpAddr, 4000, 100 * 1024);
  });
  k.Run(Sec(30));
  EXPECT_EQ(got, 100u * 1024);
  EXPECT_TRUE(ok);
  EXPECT_GT(k.net().we().rx_dropped() + sender->retransmits(), 0u)
      << "the stall should have forced drops or retransmits";
}

TEST(NetStack, ChecksumFailuresAreDropped) {
  // Corrupt frames injected straight onto the wire must be discarded by
  // in_cksum verification, not delivered.
  Testbed tb;
  Kernel& k = tb.kernel();
  std::uint64_t got = 0;
  k.Spawn("srv", [&](UserEnv& env) {
    const int fd = env.Socket(false);  // udp
    env.Bind(fd, 5000);
    Bytes data;
    env.Recv(fd, 4096, &data);
    got = data.size();
  });
  tb.machine().events().ScheduleAt(Msec(20), [&] {
    // A hand-built UDP datagram with a deliberately bad checksum.
    IpHeader ih;
    ih.proto = kIpProtoUdp;
    ih.src = kSenderIpAddr;
    ih.dst = kPcIpAddr;
    UdpHeader uh;
    uh.sport = 9;
    uh.dport = 5000;
    uh.has_checksum = true;
    Bytes dgram = BuildUdpDatagram(ih, uh, Bytes{1, 2, 3});
    dgram[9] ^= 0xFF;  // corrupt payload after checksumming
    EtherHeader eh;
    eh.src = kSenderNodeId;
    eh.dst = kPcNodeId;
    k.wire().Transmit(kSenderNodeId, BuildEtherFrame(eh, BuildIpPacket(ih, dgram)));
  });
  k.Run(Msec(500));
  EXPECT_EQ(got, 0u);
  EXPECT_GE(k.net().cksum_failures(), 1u);
}

TEST(NetStack, UdpDeliversDatagram) {
  Testbed tb;
  Kernel& k = tb.kernel();
  Bytes got;
  k.Spawn("srv", [&](UserEnv& env) {
    const int fd = env.Socket(false);
    env.Bind(fd, 5000);
    env.Recv(fd, 4096, &got);
  });
  tb.machine().events().ScheduleAt(Msec(20), [&] {
    IpHeader ih;
    ih.proto = kIpProtoUdp;
    ih.src = kSenderIpAddr;
    ih.dst = kPcIpAddr;
    UdpHeader uh;
    uh.sport = 9;
    uh.dport = 5000;
    uh.has_checksum = false;  // era default
    const Bytes dgram = BuildUdpDatagram(ih, uh, Bytes{4, 5, 6, 7});
    EtherHeader eh;
    eh.src = kSenderNodeId;
    eh.dst = kPcNodeId;
    k.wire().Transmit(kSenderNodeId, BuildEtherFrame(eh, BuildIpPacket(ih, dgram)));
  });
  k.Run(Msec(500));
  EXPECT_EQ(got, (Bytes{4, 5, 6, 7}));
}

TEST(NetStack, BindRejectsPortCollision) {
  Testbed tb;
  Kernel& k = tb.kernel();
  bool first = false;
  bool second = true;
  k.Spawn("p", [&](UserEnv& env) {
    const int a = env.Socket(true);
    const int b = env.Socket(true);
    first = env.Bind(a, 4000);
    second = env.Bind(b, 4000);
  });
  k.Run(Msec(200));
  EXPECT_TRUE(first);
  EXPECT_FALSE(second);
}

TEST(NetStack, ShortChainChecksumSumsAndChargesOnlyExistingBytes) {
  // A chain holding fewer bytes than the requested length must sum exactly
  // the bytes present, be billed for those bytes (not the phantom ones),
  // and count the event.
  Testbed tb;
  Kernel& k = tb.kernel();
  const Bytes payload = PatternBytes(100);

  Mbuf* shorted = k.mbufs().FromBytes(payload, false);
  const Nanoseconds before_short = k.cpu().busy_ns();
  const std::uint16_t short_sum = k.net().InCksumChain(shorted, 400);
  const Nanoseconds short_cost = k.cpu().busy_ns() - before_short;
  EXPECT_EQ(short_sum, InetSum(payload));
  EXPECT_EQ(k.net().cksum_short_chains(), 1u);
  k.mbufs().MFreem(shorted);

  // The same chain summed at its exact length costs exactly the same and
  // is not "short".
  Mbuf* exact = k.mbufs().FromBytes(payload, false);
  const Nanoseconds before_exact = k.cpu().busy_ns();
  EXPECT_EQ(k.net().InCksumChain(exact, 100), short_sum);
  EXPECT_EQ(k.cpu().busy_ns() - before_exact, short_cost);
  EXPECT_EQ(k.net().cksum_short_chains(), 1u);
  k.mbufs().MFreem(exact);

  // A request longer than the chain must not cost more than the honest one;
  // summing a genuinely longer chain does.
  Mbuf* longer = k.mbufs().FromBytes(PatternBytes(400), false);
  const Nanoseconds before_long = k.cpu().busy_ns();
  k.net().InCksumChain(longer, 400);
  EXPECT_GT(k.cpu().busy_ns() - before_long, short_cost);
  k.mbufs().MFreem(longer);
}

// Links `rest` behind the last mbuf of `head`.
void Append(Mbuf* head, Mbuf* rest) {
  while (head->next != nullptr) {
    head = head->next;
  }
  head->next = rest;
}

TEST(NetStack, ChainChecksumEqualsTheFlatSumWhereverTheChainSplits) {
  // in_cksum sums each mbuf where it lies, carrying an odd byte into the
  // next mbuf: at every split of a 1,460-byte payload (FromBytes lays each
  // side out in small mbufs or clusters by its size), over any length and
  // from any seed, the sum must be the flat bytes' sum, under both loops.
  Rng rng(1460);
  Bytes payload(1460);
  for (std::uint8_t& b : payload) {
    b = static_cast<std::uint8_t>(rng.NextBelow(256));
  }
  const ByteView all(payload);
  for (const bool unrolled : {false, true}) {
    TestbedConfig config;
    config.kernel.knobs.cksum_unrolled = unrolled;
    Testbed tb(config);
    Kernel& k = tb.kernel();
    for (std::size_t at = 0; at <= payload.size(); ++at) {
      Mbuf* chain = k.mbufs().FromBytes(all.first(at), false);
      Append(chain, k.mbufs().FromBytes(all.subspan(at), false));
      for (const std::size_t len : {0, 1, 19, 20, 21, 731, 1459, 1460}) {
        ASSERT_EQ(k.net().InCksumChain(chain, len), InetSum(all.first(len)))
            << "unrolled=" << unrolled << " split at " << at << " len " << len;
      }
      const std::uint32_t seed = 0x2F0A1 + static_cast<std::uint32_t>(at);
      ASSERT_EQ(k.net().InCksumChain(chain, payload.size(), seed), InetSum(all, seed))
          << "unrolled=" << unrolled << " split at " << at;
      k.mbufs().MFreem(chain);
    }
    // A run of short mbufs of every parity, then clusters for the rest.
    Mbuf* chain = k.mbufs().FromBytes(all.first(1), false);
    std::size_t off = 1;
    for (std::size_t piece = 2; off + piece <= 200; ++piece) {
      Append(chain, k.mbufs().FromBytes(all.subspan(off, piece), false));
      off += piece;
    }
    Append(chain, k.mbufs().FromBytes(all.subspan(off), false));
    EXPECT_EQ(k.net().InCksumChain(chain, payload.size()), InetSum(all));
    EXPECT_EQ(k.net().cksum_short_chains(), 0u);
    k.mbufs().MFreem(chain);
  }
}

TEST(NetStack, EveryCorruptByteOfAReceivedSegmentIsOneChecksumFailure) {
  // A TCP frame to a port nobody listens on is dropped without a checksum
  // failure when intact; with any one byte of its IP header or TCP segment
  // corrupted, it must raise cksum_failures by exactly one. The 1,101-byte
  // payload arrives in two mbufs.
  for (const std::size_t payload_len : {std::size_t{101}, std::size_t{1101}}) {
    Testbed tb;
    Kernel& k = tb.kernel();
    IpHeader ih;
    ih.proto = kIpProtoTcp;
    ih.src = kSenderIpAddr;
    ih.dst = kPcIpAddr;
    ih.id = 7;
    TcpHeader th;
    th.sport = 1234;
    th.dport = 4321;
    th.seq = 99;
    th.flags = TcpHeader::kAck;
    th.win = 512;
    EtherHeader eh;
    eh.src = kSenderNodeId;
    eh.dst = kPcNodeId;
    Bytes frame(kTcpPayloadOffset + payload_len);
    for (std::size_t i = kTcpPayloadOffset; i < frame.size(); ++i) {
      frame[i] = static_cast<std::uint8_t>(i * 7 + 3);
    }
    FinishTcpFrame(frame, eh, ih, th);

    std::vector<Bytes> frames = {frame};
    for (std::size_t at = kEtherHeaderBytes; at < kTcpPayloadOffset + payload_len; ++at) {
      frames.push_back(frame);
      frames.back()[at] ^= 0x5A;
    }
    for (std::size_t i = 0; i < frames.size(); ++i) {
      tb.machine().events().ScheduleAt(Msec(20) + i * Msec(4), [&k, f = frames[i]]() mutable {
        k.wire().Transmit(kSenderNodeId, std::move(f));
      });
    }
    k.Run(Msec(20) + frames.size() * Msec(4) + Msec(50));
    EXPECT_EQ(k.net().we().rx_dropped(), 0u);
    EXPECT_EQ(k.net().ipintrq_drops(), 0u);
    EXPECT_EQ(k.net().ip_packets_in(), frames.size());
    EXPECT_EQ(k.net().tcp_segments_in(), frames.size() - IpHeader::kBytes);
    EXPECT_EQ(k.net().cksum_failures(), frames.size() - 1) << "payload " << payload_len;
  }
}

TEST(NetStack, FullIpintrqCountsDropsAndFreesTheChain) {
  // ipintrq caps at 50 packets; every packet past that must land on the
  // drop counter and go back to the mbuf pool, not leak.
  Testbed tb;
  Kernel& k = tb.kernel();
  // Flood at raised IPL, as the driver does: otherwise every cost charge
  // lets the pending soft interrupt drain the queue behind our back.
  const int s = k.spl().splimp();
  for (int i = 0; i < 50; ++i) {
    k.net().EtherInput(k.mbufs().FromBytes(PatternBytes(64), false));
  }
  EXPECT_EQ(k.net().ipintrq_drops(), 0u);
  const std::uint64_t live_at_capacity = k.mbufs().live();

  for (int i = 0; i < 7; ++i) {
    k.net().EtherInput(k.mbufs().FromBytes(PatternBytes(64), false));
  }
  EXPECT_EQ(k.net().ipintrq_drops(), 7u);
  EXPECT_EQ(k.mbufs().live(), live_at_capacity) << "dropped chains leaked";
  k.spl().splx(s);
}

TEST(NetStack, UnrolledChecksumKnobSameSumLowerCharge) {
  // KernConfig cksum_unrolled swaps in the word-at-a-time loop: identical
  // folded sum, cheaper per-byte model charge.
  TestbedConfig fast_config;
  fast_config.kernel.knobs.cksum_unrolled = true;
  Testbed fast(fast_config);
  Testbed slow;
  const Bytes payload = PatternBytes(1460);

  auto charge = [&payload](Testbed& tb, std::uint16_t* sum) {
    Kernel& k = tb.kernel();
    Mbuf* chain = k.mbufs().FromBytes(payload, false);
    const Nanoseconds before = k.cpu().busy_ns();
    *sum = k.net().InCksumChain(chain, payload.size());
    const Nanoseconds cost = k.cpu().busy_ns() - before;
    k.mbufs().MFreem(chain);
    return cost;
  };
  std::uint16_t fast_sum = 0;
  std::uint16_t slow_sum = 0;
  const Nanoseconds fast_cost = charge(fast, &fast_sum);
  const Nanoseconds slow_cost = charge(slow, &slow_sum);
  EXPECT_EQ(fast_sum, slow_sum);
  EXPECT_EQ(fast_sum, InetSum(payload));
  EXPECT_LT(fast_cost, slow_cost);
  // The per-byte gap is exactly the cost-model delta.
  const Kernel& k = slow.kernel();
  EXPECT_EQ(slow_cost - fast_cost,
            payload.size() * (k.cost().cksum_c_ns_per_byte -
                              k.cost().cksum_unrolled_ns_per_byte));
}

TEST(NetStack, DriverCopyCostDominatesReceive) {
  // Per received full-size frame, weget's bcopy from controller memory
  // should cost about 1 ms (1045 µs in the paper).
  Testbed tb;
  NetReceiveResult res = RunNetworkReceive(tb, Sec(5), 64 * 1024, false);
  ASSERT_GT(res.bytes_received, 0u);
  // ~45 full frames: total driver copy time ≈ 45 ms; CPU time per byte of
  // stream ≥ 697 ns.
  EXPECT_GT(tb.kernel().cpu().busy_ns(),
            res.bytes_received * tb.kernel().cost().isa8_ns_per_byte);
}

}  // namespace
}  // namespace hwprof
