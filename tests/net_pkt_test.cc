// Wire formats and Internet checksums: build/parse round trips and
// corruption detection, property-style.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "src/base/crc32.h"
#include "src/base/rng.h"
#include "src/kern/net.h"
#include "src/kern/net_hosts.h"
#include "src/kern/net_pkt.h"
#include "src/kern/nfs.h"
#include "src/kern/user_env.h"
#include "src/workloads/testbed.h"
#include "src/workloads/workloads.h"

namespace hwprof {
namespace {

Bytes RandomPayload(Rng& rng, std::size_t n) {
  Bytes out(n);
  for (auto& b : out) {
    b = static_cast<std::uint8_t>(rng.NextBelow(256));
  }
  return out;
}

Bytes Copy(ByteView view) { return Bytes(view.begin(), view.end()); }

// A TCP frame built in place around `payload`.
Bytes TcpFrame(const IpHeader& ih, const TcpHeader& th, const Bytes& payload) {
  Bytes frame(kTcpPayloadOffset + payload.size());
  std::copy(payload.begin(), payload.end(), frame.begin() + kTcpPayloadOffset);
  EtherHeader eh;
  eh.src = 2;
  eh.dst = 1;
  FinishTcpFrame(frame, eh, ih, th);
  return frame;
}

// The TCP segment of a frame TcpFrame built: its transport bytes, without
// minimum-frame padding.
Bytes TcpSegmentOf(const IpHeader& ih, const TcpHeader& th, const Bytes& payload) {
  const Bytes frame = TcpFrame(ih, th, payload);
  return Bytes(frame.begin() + kTransportOffset,
               frame.begin() + kTcpPayloadOffset + static_cast<std::ptrdiff_t>(payload.size()));
}

// --- Checksum arithmetic --------------------------------------------------------

TEST(InetChecksum, WordSumMatchesByteSumForEveryShape) {
  // The unrolled (word-at-a-time) kernel checksum must fold to exactly the
  // byte-pair sum for every length class (word-aligned, +1, +2, +3, odd
  // tail) and any initial partial sum.
  Rng rng(77);
  for (const std::size_t len :
       {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{3},
        std::size_t{4}, std::size_t{5}, std::size_t{19}, std::size_t{20},
        std::size_t{64}, std::size_t{1459}, std::size_t{1460}}) {
    const Bytes data = RandomPayload(rng, len);
    for (const std::uint32_t initial : {0u, 1u, 0xFFFFu, 0x1234u}) {
      EXPECT_EQ(InetSumWords(data, initial), InetSum(data, initial))
          << "len=" << len << " initial=" << initial;
    }
  }
  // All-ones payloads exercise maximal carry traffic.
  const Bytes ones(31, 0xFF);
  EXPECT_EQ(InetSumWords(ones), InetSum(ones));
}

TEST(InetChecksum, KnownVectors) {
  // RFC 1071 example: 00 01 f2 03 f4 f5 f6 f7 sums to ddf2 (folded).
  const Bytes data{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
  EXPECT_EQ(InetSum(data), 0xddf2);
  EXPECT_EQ(InetChecksum(data), static_cast<std::uint16_t>(~0xddf2 & 0xFFFF));
}

TEST(InetChecksum, EmptyAndOddLengths) {
  EXPECT_EQ(InetSum(Bytes{}), 0u);
  EXPECT_EQ(InetSum(Bytes{0x12}), 0x1200);  // odd byte padded on the right
}

TEST(InetChecksum, DataPlusChecksumVerifiesToAllOnes) {
  Rng rng(7);
  for (int round = 0; round < 50; ++round) {
    Bytes data = RandomPayload(rng, 2 + rng.NextBelow(200) * 2);  // even length
    const std::uint16_t cksum = InetChecksum(data);
    data.push_back(static_cast<std::uint8_t>(cksum >> 8));
    data.push_back(static_cast<std::uint8_t>(cksum & 0xFF));
    EXPECT_EQ(InetSum(data), 0xFFFF);
  }
}

// --- Ethernet framing -------------------------------------------------------------

TEST(EtherFrame, RoundTripAndPadding) {
  EtherHeader eh;
  eh.src = 2;
  eh.dst = 1;
  const Bytes tiny{1, 2, 3};
  const Bytes frame = BuildEtherFrame(eh, tiny);
  EXPECT_EQ(frame.size(), kEtherMinFrame);  // padded
  EtherHeader parsed;
  ByteView payload;
  ASSERT_TRUE(ParseEtherFrame(frame, &parsed, &payload));
  EXPECT_EQ(parsed.src, 2);
  EXPECT_EQ(parsed.dst, 1);
  EXPECT_EQ(parsed.type, kEtherTypeIp);
  // Padding means the payload comes back extended; prefix must match.
  ASSERT_GE(payload.size(), tiny.size());
  EXPECT_TRUE(std::equal(tiny.begin(), tiny.end(), payload.begin()));
}

TEST(EtherFrame, TooShortRejected) {
  EtherHeader eh;
  ByteView payload;
  EXPECT_FALSE(ParseEtherFrame(Bytes(5, 0), &eh, &payload));
  // Exactly a header: an empty IP packet, rejected one layer up.
  ASSERT_TRUE(ParseEtherFrame(Bytes(kEtherHeaderBytes, 0), &eh, &payload));
  EXPECT_TRUE(payload.empty());
}

// --- IP ------------------------------------------------------------------------------

TEST(IpPacket, RoundTrip) {
  Rng rng(11);
  for (int round = 0; round < 30; ++round) {
    IpHeader ih;
    ih.proto = rng.NextBool(0.5) ? kIpProtoTcp : kIpProtoUdp;
    ih.id = static_cast<std::uint16_t>(rng.NextBelow(65536));
    ih.src = static_cast<std::uint32_t>(rng.Next());
    ih.dst = static_cast<std::uint32_t>(rng.Next());
    const Bytes payload = RandomPayload(rng, rng.NextBelow(1400));
    const Bytes packet = BuildIpPacket(ih, payload);
    IpHeader parsed;
    ByteView parsed_payload;
    ASSERT_TRUE(ParseIpPacket(packet, &parsed, &parsed_payload));
    EXPECT_EQ(parsed.proto, ih.proto);
    EXPECT_EQ(parsed.id, ih.id);
    EXPECT_EQ(parsed.src, ih.src);
    EXPECT_EQ(parsed.dst, ih.dst);
    EXPECT_EQ(Copy(parsed_payload), payload);
  }
}

TEST(IpPacket, HeaderCorruptionDetected) {
  IpHeader ih;
  ih.proto = kIpProtoTcp;
  ih.src = 1;
  ih.dst = 2;
  Bytes packet = BuildIpPacket(ih, Bytes(64, 0xAB));
  // Flip each header byte in turn: the checksum must catch every one.
  for (std::size_t i = 0; i < IpHeader::kBytes; ++i) {
    Bytes corrupted = packet;
    corrupted[i] ^= 0x40;
    IpHeader parsed;
    ByteView payload;
    EXPECT_FALSE(ParseIpPacket(corrupted, &parsed, &payload)) << "byte " << i;
  }
}

TEST(IpPacket, ParsesPaddedFrames) {
  // An IP packet extracted from a padded Ethernet frame carries trailing
  // padding; total_len must bound the payload.
  IpHeader ih;
  ih.proto = kIpProtoUdp;
  ih.src = 1;
  ih.dst = 2;
  Bytes packet = BuildIpPacket(ih, Bytes{1, 2, 3});
  packet.resize(packet.size() + 17, 0);  // padding
  IpHeader parsed;
  ByteView payload;
  ASSERT_TRUE(ParseIpPacket(packet, &parsed, &payload));
  EXPECT_EQ(Copy(payload), (Bytes{1, 2, 3}));
}

TEST(IpPacket, TotalLengthBeyondThePacketRejected) {
  IpHeader ih;
  ih.proto = kIpProtoUdp;
  const Bytes packet = BuildIpPacket(ih, Bytes(30, 5));
  IpHeader parsed;
  ByteView payload;
  // One byte short of total_len: rejected, though the header sums right.
  EXPECT_FALSE(ParseIpPacket(ByteView(packet).first(packet.size() - 1), &parsed, &payload));
  EXPECT_FALSE(ParseIpPacket(ByteView(packet).first(IpHeader::kBytes - 1), &parsed, &payload));
  ASSERT_TRUE(ParseIpPacket(packet, &parsed, &payload));
  EXPECT_EQ(payload.size(), 30u);
}

// --- TCP ---------------------------------------------------------------------------------

class TcpSegmentTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TcpSegmentTest, RoundTripWithChecksum) {
  Rng rng(GetParam() + 1);
  IpHeader ih;
  ih.proto = kIpProtoTcp;
  ih.src = 0x0A000002;
  ih.dst = 0x0A000001;
  TcpHeader th;
  th.sport = 1024;
  th.dport = 4000;
  th.seq = 0x12345678;
  th.ack = 0x9ABCDEF0;
  th.flags = TcpHeader::kAck | TcpHeader::kPsh;
  th.win = 16384;
  const Bytes payload = RandomPayload(rng, GetParam());
  // Build the frame in place, then parse it back layer by layer by view.
  const Bytes frame = TcpFrame(ih, th, payload);
  EXPECT_EQ(frame.size(), std::max(kTcpPayloadOffset + payload.size(), kEtherMinFrame));
  EtherHeader eh;
  ByteView ip_packet;
  ASSERT_TRUE(ParseEtherFrame(frame, &eh, &ip_packet));
  IpHeader ip;
  ByteView segment;
  ASSERT_TRUE(ParseIpPacket(ip_packet, &ip, &segment));  // padding ignored
  EXPECT_EQ(segment.size(), TcpHeader::kBytes + payload.size());
  EXPECT_EQ(segment.data(), frame.data() + kTransportOffset);  // a view, not a copy
  TcpHeader parsed;
  ByteView parsed_payload;
  bool cksum_ok = false;
  ASSERT_TRUE(ParseTcpSegment(ip, segment, &parsed, &parsed_payload, &cksum_ok));
  EXPECT_TRUE(cksum_ok);
  EXPECT_EQ(parsed.sport, th.sport);
  EXPECT_EQ(parsed.dport, th.dport);
  EXPECT_EQ(parsed.seq, th.seq);
  EXPECT_EQ(parsed.ack, th.ack);
  EXPECT_EQ(parsed.flags, th.flags);
  EXPECT_EQ(parsed.win, th.win);
  EXPECT_EQ(Copy(parsed_payload), payload);
}

INSTANTIATE_TEST_SUITE_P(PayloadSizes, TcpSegmentTest,
                         ::testing::Values(0u, 1u, 2u, 511u, 512u, 1024u, 1460u));

TEST(TcpSegment, PayloadCorruptionFailsChecksum) {
  Rng rng(3);
  IpHeader ih;
  ih.proto = kIpProtoTcp;
  ih.src = 1;
  ih.dst = 2;
  TcpHeader th;
  th.sport = 1;
  th.dport = 2;
  const Bytes segment = TcpSegmentOf(ih, th, RandomPayload(rng, 100));
  for (int round = 0; round < 40; ++round) {
    Bytes corrupted = segment;
    const std::size_t at = rng.NextBelow(corrupted.size());
    corrupted[at] ^= static_cast<std::uint8_t>(1 + rng.NextBelow(255));
    TcpHeader parsed;
    ByteView payload;
    bool cksum_ok = true;
    ASSERT_TRUE(ParseTcpSegment(ih, corrupted, &parsed, &payload, &cksum_ok));
    EXPECT_FALSE(cksum_ok) << "corruption at byte " << at << " undetected";
  }
}

TEST(TcpSegment, PseudoHeaderCoversAddresses) {
  // The same segment bytes under different IP addresses must fail: the
  // checksum covers the pseudo-header.
  IpHeader ih;
  ih.proto = kIpProtoTcp;
  ih.src = 1;
  ih.dst = 2;
  TcpHeader th;
  const Bytes segment = TcpSegmentOf(ih, th, Bytes{9, 9});
  IpHeader other = ih;
  other.src = 99;
  TcpHeader parsed;
  ByteView payload;
  bool cksum_ok = true;
  ASSERT_TRUE(ParseTcpSegment(other, segment, &parsed, &payload, &cksum_ok));
  EXPECT_FALSE(cksum_ok);
}

TEST(TcpSegment, ShorterThanAHeaderRejected) {
  IpHeader ih;
  const Bytes segment = TcpSegmentOf(ih, TcpHeader{}, Bytes{});
  TcpHeader parsed;
  ByteView payload;
  bool cksum_ok = false;
  EXPECT_FALSE(ParseTcpSegment(ih, ByteView(segment).first(TcpHeader::kBytes - 1), &parsed,
                               &payload, &cksum_ok));
  ASSERT_TRUE(ParseTcpSegment(ih, segment, &parsed, &payload, &cksum_ok));
  EXPECT_TRUE(cksum_ok);
  EXPECT_TRUE(payload.empty());
}

// --- UDP --------------------------------------------------------------------------------

TEST(UdpDatagram, RoundTripWithChecksum) {
  IpHeader ih;
  ih.proto = kIpProtoUdp;
  ih.src = 3;
  ih.dst = 4;
  UdpHeader uh;
  uh.sport = 1023;
  uh.dport = 2049;
  uh.has_checksum = true;
  const Bytes payload{1, 2, 3, 4, 5};
  const Bytes dgram = BuildUdpDatagram(ih, uh, payload);
  UdpHeader parsed;
  ByteView parsed_payload;
  bool cksum_ok = false;
  ASSERT_TRUE(ParseUdpDatagram(ih, dgram, &parsed, &parsed_payload, &cksum_ok));
  EXPECT_TRUE(cksum_ok);
  EXPECT_TRUE(parsed.has_checksum);
  EXPECT_EQ(Copy(parsed_payload), payload);
}

TEST(UdpDatagram, NoChecksumModeSkipsVerification) {
  // NFS-era UDP: checksums off. Corruption is NOT detected — that is the
  // point the paper's NFS-vs-FTP comparison turns on.
  IpHeader ih;
  ih.proto = kIpProtoUdp;
  ih.src = 3;
  ih.dst = 4;
  UdpHeader uh;
  uh.sport = 1;
  uh.dport = 2;
  uh.has_checksum = false;
  Bytes dgram = BuildUdpDatagram(ih, uh, Bytes{1, 2, 3, 4});
  dgram.back() ^= 0xFF;  // corrupt payload
  UdpHeader parsed;
  ByteView payload;
  bool cksum_ok = false;
  ASSERT_TRUE(ParseUdpDatagram(ih, dgram, &parsed, &payload, &cksum_ok));
  EXPECT_TRUE(cksum_ok);  // vacuously: nothing was checked
  EXPECT_FALSE(parsed.has_checksum);
}

TEST(UdpDatagram, ChecksumCatchesCorruptionWhenEnabled) {
  IpHeader ih;
  ih.proto = kIpProtoUdp;
  ih.src = 3;
  ih.dst = 4;
  UdpHeader uh;
  uh.sport = 1;
  uh.dport = 2;
  uh.has_checksum = true;
  Bytes dgram = BuildUdpDatagram(ih, uh, Bytes{1, 2, 3, 4});
  dgram.back() ^= 0xFF;
  UdpHeader parsed;
  ByteView payload;
  bool cksum_ok = true;
  ASSERT_TRUE(ParseUdpDatagram(ih, dgram, &parsed, &payload, &cksum_ok));
  EXPECT_FALSE(cksum_ok);
}

TEST(UdpDatagram, LengthFieldBoundsPayload) {
  IpHeader ih;
  ih.proto = kIpProtoUdp;
  UdpHeader uh;
  uh.has_checksum = false;
  Bytes dgram = BuildUdpDatagram(ih, uh, Bytes{7, 7});
  dgram.resize(dgram.size() + 10, 0);  // ethernet padding survives parse
  UdpHeader parsed;
  ByteView payload;
  bool cksum_ok = false;
  ASSERT_TRUE(ParseUdpDatagram(ih, dgram, &parsed, &payload, &cksum_ok));
  EXPECT_EQ(Copy(payload), (Bytes{7, 7}));
}

// --- Frames on the wire --------------------------------------------------------------
//
// The CRC-32, length and delivery instant of every frame two short TCP
// streams put on the wire, recorded before the frame builders and parsers
// were rewritten to work in place. Any byte a builder writes differently,
// and any frame a parser accepts or rejects differently (which changes the
// replies), shows up here.

struct WireFrame {
  std::uint32_t crc;
  std::size_t len;
  Nanoseconds at;
  bool operator==(const WireFrame&) const = default;
};

std::ostream& operator<<(std::ostream& os, const WireFrame& f) {
  return os << "{0x" << std::hex << f.crc << std::dec << ", " << f.len << ", " << f.at << "}";
}

// A passive station that records every frame it is delivered (every frame on
// a segment whose sender is not the tap itself).
class WireTap : public EtherNode {
 public:
  WireTap(Machine& machine, EtherSegment& wire) : machine_(machine) { wire.Attach(this); }
  std::uint8_t node_id() const override { return 0x7E; }
  void OnFrame(Bytes frame) override {
    frames.push_back(WireFrame{Crc32(frame.data(), frame.size()), frame.size(), machine_.Now()});
  }
  std::vector<WireFrame> frames;

 private:
  Machine& machine_;
};

TEST(WireBytes, PassiveReceiveFramesArePinned) {
  // SenderHost streams 5,000 bytes at the kernel (MSS 1,460): SYN, SYN-ACK,
  // the handshake ACK, data with and without PSH, a 620-byte tail, FIN and
  // the kernel's ACKs.
  Testbed tb;
  Kernel& k = tb.kernel();
  WireTap tap(tb.machine(), k.wire());
  auto sender = std::make_shared<SenderHost>(tb.machine(), k.wire(), kSenderNodeId,
                                             kSenderIpAddr);
  std::uint64_t got = 0;
  k.Spawn("srv", [&](UserEnv& env) {
    const int fd = env.Socket(true);
    env.Bind(fd, 4000);
    env.Listen(fd);
    const int conn = env.Accept(fd);
    Bytes chunk;
    while (env.Recv(conn, 4096, &chunk) > 0) {
      got += chunk.size();
      chunk.clear();
    }
  });
  tb.machine().events().ScheduleAt(Msec(20), [&] {
    sender->StartStream(kPcIpAddr, 4000, 5000);
  });
  k.Run(Sec(2));
  EXPECT_EQ(got, 5000u);
  EXPECT_TRUE(sender->done());
  const std::vector<WireFrame> want = {
      {0xef862eb1, 60, 20057600},
      {0x7d131900, 60, 20852540},
      {0x4839ba59, 60, 20910140},
      {0xf064abd3, 1514, 22130940},
      {0x4eb2d37b, 1514, 23351740},
      {0x5337fa60, 1514, 24572540},
      {0xe40beb6b, 674, 25121340},
      {0x62f59079, 60, 29303212},
      {0x2a383a32, 60, 31565232},
      {0x308a1c17, 60, 31622833},
      {0x72bec5a0, 60, 32653516},
  };
  EXPECT_EQ(tap.frames, want);
}

TEST(WireBytes, ActiveSendFramesArePinned) {
  // The kernel connects to ReceiverHost, sends 3,000 bytes through
  // tcp_output and shuts down: its SYN, data and FIN, the remote SYN-ACK
  // and ACKs.
  Testbed tb;
  Kernel& k = tb.kernel();
  WireTap tap(tb.machine(), k.wire());
  auto receiver = std::make_shared<ReceiverHost>(tb.machine(), k.wire(), 7000);
  const Bytes payload = PatternBytes(3000, 5);
  k.Spawn("client", [&](UserEnv& env) {
    const int fd = env.Socket(true);
    ASSERT_TRUE(env.Connect(fd, kSenderIpAddr, 7000));
    env.Send(fd, payload);
    env.Shutdown(fd);
  });
  k.Run(Sec(2));
  EXPECT_EQ(receiver->received(), payload);
  EXPECT_TRUE(receiver->saw_fin());
  const std::vector<WireFrame> want = {
      {0xbc437e83, 60, 8405300},
      {0x4d670b91, 60, 8462900},
      {0x950f63d3, 60, 9184040},
      {0x4104c8a9, 1514, 13184798},
      {0xb6edfa36, 60, 13242398},
      {0xf702dbf1, 1514, 15538056},
      {0x5722e73b, 60, 15595656},
      {0xc46949c0, 134, 15825454},
      {0x0af1b67d, 60, 15883054},
      {0x76f51174, 60, 16839014},
      {0x41c54e79, 60, 16896614},
  };
  EXPECT_EQ(tap.frames, want);
}

TEST(WireBytes, NfsReadFramesArePinned) {
  // A 10 KiB NFS read: UDP datagrams both ways, the reply in IP fragments.
  Testbed tb;
  Kernel& k = tb.kernel();
  WireTap tap(tb.machine(), k.wire());
  auto server = std::make_shared<NfsServerHost>(tb.machine(), k.wire());
  const Bytes contents = PatternBytes(10 * 1024, 9);
  const std::uint32_t fh = server->Export("f", contents);
  Bytes got;
  k.Spawn("client", [&](UserEnv& env) {
    k.nfs().Init();
    env.NfsRead(fh, 0, 10 * 1024, &got);
  });
  k.Run(Sec(2));
  EXPECT_EQ(got, contents);
  const std::vector<WireFrame> want = {
      {0x8077390b, 60, 8247600},
      {0x2b2ef1bc, 1514, 11468400},
      {0x25d8dae5, 1514, 12689200},
      {0xcfadedcb, 1514, 13910000},
      {0x964df524, 1514, 15130800},
      {0x1c0ac29e, 1514, 16351600},
      {0xc68abbfb, 839, 17032400},
      {0x1601dbf7, 60, 21086276},
      {0xc48b418c, 1514, 24307076},
      {0xca948487, 615, 24808676},
  };
  EXPECT_EQ(tap.frames, want);
}

}  // namespace
}  // namespace hwprof
