#include "src/kern/net_pkt.h"

#include <algorithm>
#include <cstring>

#include "src/base/assert.h"

namespace hwprof {
namespace {

void Put16(std::uint8_t* at, std::uint16_t v) {
  at[0] = static_cast<std::uint8_t>(v >> 8);
  at[1] = static_cast<std::uint8_t>(v & 0xFF);
}

void Put32(std::uint8_t* at, std::uint32_t v) {
  Put16(at, static_cast<std::uint16_t>(v >> 16));
  Put16(at + 2, static_cast<std::uint16_t>(v & 0xFFFF));
}

std::uint16_t Get16(ByteView b, std::size_t off) {
  return static_cast<std::uint16_t>((b[off] << 8) | b[off + 1]);
}

std::uint32_t Get32(ByteView b, std::size_t off) {
  return (static_cast<std::uint32_t>(Get16(b, off)) << 16) | Get16(b, off + 2);
}

std::uint16_t Fold(std::uint32_t sum) {
  while ((sum >> 16) != 0) {
    sum = (sum & 0xFFFF) + (sum >> 16);
  }
  return static_cast<std::uint16_t>(sum);
}

}  // namespace

std::uint16_t InetSum(ByteView data, std::uint32_t initial) {
  std::uint32_t sum = initial;
  std::size_t i = 0;
  for (; i + 1 < data.size(); i += 2) {
    sum += static_cast<std::uint32_t>((data[i] << 8) | data[i + 1]);
  }
  if (i < data.size()) {
    sum += static_cast<std::uint32_t>(data[i] << 8);
  }
  return Fold(sum);
}

std::uint16_t InetChecksum(ByteView data) {
  return static_cast<std::uint16_t>(~InetSum(data) & 0xFFFF);
}

std::uint16_t InetSumWords(ByteView data, std::uint32_t initial) {
  // One's-complement addition is associative and commutative, so summing
  // two 16-bit words per step and deferring every carry into a 64-bit
  // accumulator folds to exactly the byte-pair loop's result.
  std::uint64_t sum = initial;
  std::size_t i = 0;
  for (; i + 4 <= data.size(); i += 4) {
    sum += static_cast<std::uint32_t>((data[i] << 8) | data[i + 1]);
    sum += static_cast<std::uint32_t>((data[i + 2] << 8) | data[i + 3]);
  }
  for (; i + 1 < data.size(); i += 2) {
    sum += static_cast<std::uint32_t>((data[i] << 8) | data[i + 1]);
  }
  if (i < data.size()) {
    sum += static_cast<std::uint32_t>(data[i] << 8);
  }
  while ((sum >> 16) != 0) {
    sum = (sum & 0xFFFF) + (sum >> 16);
  }
  return static_cast<std::uint16_t>(sum);
}

std::uint32_t PseudoSum(const IpHeader& ih, std::uint8_t proto, std::size_t len) {
  std::uint32_t sum = 0;
  sum += (ih.src >> 16) + (ih.src & 0xFFFF);
  sum += (ih.dst >> 16) + (ih.dst & 0xFFFF);
  sum += proto;
  sum += static_cast<std::uint32_t>(len);
  return sum;
}

// --- Writers ----------------------------------------------------------------------

void WriteTcpHeader(std::uint8_t* at, const IpHeader& ih, const TcpHeader& th,
                    std::size_t payload_len) {
  Put16(at, th.sport);
  Put16(at + 2, th.dport);
  Put32(at + 4, th.seq);
  Put32(at + 8, th.ack);
  at[12] = 0x50;  // data offset = 5 words
  at[13] = th.flags;
  Put16(at + 14, th.win);
  Put16(at + 16, 0);  // checksum placeholder
  Put16(at + 18, 0);  // urgent pointer
  const std::size_t len = TcpHeader::kBytes + payload_len;
  const std::uint16_t sum = InetSum(ByteView(at, len), PseudoSum(ih, kIpProtoTcp, len));
  Put16(at + 16, static_cast<std::uint16_t>(~sum & 0xFFFF));
}

void WriteUdpHeader(std::uint8_t* at, const IpHeader& ih, const UdpHeader& uh,
                    std::size_t payload_len) {
  const std::size_t len = UdpHeader::kBytes + payload_len;
  Put16(at, uh.sport);
  Put16(at + 2, uh.dport);
  Put16(at + 4, static_cast<std::uint16_t>(len));
  Put16(at + 6, 0);
  if (uh.has_checksum) {
    const std::uint16_t sum = InetSum(ByteView(at, len), PseudoSum(ih, kIpProtoUdp, len));
    std::uint16_t cksum = static_cast<std::uint16_t>(~sum & 0xFFFF);
    if (cksum == 0) {
      cksum = 0xFFFF;  // 0 means "no checksum" on the wire
    }
    Put16(at + 6, cksum);
  }
}

void WriteIpHeader(std::uint8_t* at, const IpHeader& ih, std::size_t payload_len) {
  at[0] = 0x45;  // v4, ihl=5
  at[1] = 0;     // tos
  Put16(at + 2, static_cast<std::uint16_t>(IpHeader::kBytes + payload_len));
  Put16(at + 4, ih.id);
  // Flags/fragment-offset word: MF bit 13, offset in 8-byte units.
  Put16(at + 6, static_cast<std::uint16_t>((ih.more_frags ? 0x2000 : 0) |
                                           ((ih.frag_off / 8) & 0x1FFF)));
  at[8] = ih.ttl;
  at[9] = ih.proto;
  Put16(at + 10, 0);  // checksum placeholder
  Put32(at + 12, ih.src);
  Put32(at + 16, ih.dst);
  Put16(at + 10, InetChecksum(ByteView(at, IpHeader::kBytes)));
}

void WriteEtherHeader(std::uint8_t* at, const EtherHeader& eh) {
  // 6-byte MACs with the node id in the final byte.
  std::memset(at, 0x02, 12);
  at[5] = eh.dst;
  at[11] = eh.src;
  Put16(at + 12, eh.type);
}

void FinishIpFrame(Bytes& frame, const EtherHeader& eh, const IpHeader& ih) {
  HWPROF_CHECK(frame.size() >= kTransportOffset);
  const std::size_t transport_len = frame.size() - kTransportOffset;
  HWPROF_CHECK(IpHeader::kBytes + transport_len <= kEtherMaxPayload);
  WriteIpHeader(frame.data() + kEtherHeaderBytes, ih, transport_len);
  WriteEtherHeader(frame.data(), eh);
  if (frame.size() < kEtherMinFrame) {
    frame.resize(kEtherMinFrame, 0);
  }
}

void FinishTcpFrame(Bytes& frame, const EtherHeader& eh, const IpHeader& ih,
                    const TcpHeader& th) {
  HWPROF_CHECK(frame.size() >= kTcpPayloadOffset);
  WriteTcpHeader(frame.data() + kTransportOffset, ih, th, frame.size() - kTcpPayloadOffset);
  FinishIpFrame(frame, eh, ih);
}

Bytes BuildEtherFrame(const EtherHeader& eh, ByteView ip_packet) {
  Bytes frame(std::max(kEtherHeaderBytes + ip_packet.size(), kEtherMinFrame), 0);
  WriteEtherHeader(frame.data(), eh);
  std::copy(ip_packet.begin(), ip_packet.end(), frame.begin() + kEtherHeaderBytes);
  return frame;
}

Bytes BuildIpPacket(const IpHeader& ih, ByteView payload) {
  Bytes pkt(IpHeader::kBytes + payload.size());
  std::copy(payload.begin(), payload.end(), pkt.begin() + IpHeader::kBytes);
  WriteIpHeader(pkt.data(), ih, payload.size());
  return pkt;
}

std::vector<Bytes> BuildIpFragments(const IpHeader& ih, ByteView payload, std::size_t mtu) {
  std::vector<Bytes> packets;
  const std::size_t max_frag = ((mtu - IpHeader::kBytes) / 8) * 8;
  HWPROF_CHECK(max_frag > 0);
  if (payload.size() + IpHeader::kBytes <= mtu) {
    packets.push_back(BuildIpPacket(ih, payload));
    return packets;
  }
  std::size_t off = 0;
  while (off < payload.size()) {
    const std::size_t take = std::min(max_frag, payload.size() - off);
    IpHeader fragment = ih;
    fragment.frag_off = static_cast<std::uint16_t>(off);
    fragment.more_frags = off + take < payload.size();
    packets.push_back(BuildIpPacket(fragment, payload.subspan(off, take)));
    off += take;
  }
  return packets;
}

Bytes BuildUdpDatagram(const IpHeader& ih, const UdpHeader& uh, ByteView payload) {
  Bytes dgram(UdpHeader::kBytes + payload.size());
  std::copy(payload.begin(), payload.end(), dgram.begin() + UdpHeader::kBytes);
  WriteUdpHeader(dgram.data(), ih, uh, payload.size());
  return dgram;
}

// --- Parsers ----------------------------------------------------------------------

bool ParseEtherFrame(ByteView frame, EtherHeader* eh, ByteView* ip_packet) {
  if (frame.size() < kEtherHeaderBytes) {
    return false;
  }
  eh->dst = frame[5];
  eh->src = frame[11];
  eh->type = Get16(frame, 12);
  *ip_packet = frame.subspan(kEtherHeaderBytes);
  return true;
}

bool ParseIpHeader(ByteView header, std::size_t packet_len, IpHeader* ih) {
  if (header.size() < IpHeader::kBytes || header[0] != 0x45) {
    return false;
  }
  ih->total_len = Get16(header, 2);
  ih->id = Get16(header, 4);
  const std::uint16_t frag_word = Get16(header, 6);
  ih->more_frags = (frag_word & 0x2000) != 0;
  ih->frag_off = static_cast<std::uint16_t>((frag_word & 0x1FFF) * 8);
  ih->ttl = header[8];
  ih->proto = header[9];
  ih->src = Get32(header, 12);
  ih->dst = Get32(header, 16);
  return ih->total_len >= IpHeader::kBytes && ih->total_len <= packet_len;
}

bool ParseIpPacket(ByteView packet, IpHeader* ih, ByteView* payload) {
  if (!ParseIpHeader(packet, packet.size(), ih) ||
      InetSum(packet.first(IpHeader::kBytes)) != 0xFFFF) {
    return false;  // malformed, or a header checksum failure
  }
  *payload = packet.subspan(IpHeader::kBytes, ih->total_len - IpHeader::kBytes);
  return true;
}

bool ParseTcpHeader(ByteView header, TcpHeader* th) {
  if (header.size() < TcpHeader::kBytes) {
    return false;
  }
  th->sport = Get16(header, 0);
  th->dport = Get16(header, 2);
  th->seq = Get32(header, 4);
  th->ack = Get32(header, 8);
  th->flags = header[13];
  th->win = Get16(header, 14);
  return true;
}

bool ParseTcpSegment(const IpHeader& ih, ByteView segment, TcpHeader* th, ByteView* payload,
                     bool* checksum_ok) {
  if (!ParseTcpHeader(segment, th)) {
    return false;
  }
  *payload = segment.subspan(TcpHeader::kBytes);
  *checksum_ok = InetSum(segment, PseudoSum(ih, kIpProtoTcp, segment.size())) == 0xFFFF;
  return true;
}

bool ParseUdpHeader(ByteView header, std::size_t datagram_len, UdpHeader* uh) {
  if (header.size() < UdpHeader::kBytes) {
    return false;
  }
  uh->sport = Get16(header, 0);
  uh->dport = Get16(header, 2);
  uh->len = Get16(header, 4);
  uh->has_checksum = Get16(header, 6) != 0;
  return uh->len >= UdpHeader::kBytes && uh->len <= datagram_len;
}

bool ParseUdpDatagram(const IpHeader& ih, ByteView datagram, UdpHeader* uh, ByteView* payload,
                      bool* checksum_ok) {
  if (!ParseUdpHeader(datagram, datagram.size(), uh)) {
    return false;
  }
  *payload = datagram.subspan(UdpHeader::kBytes, uh->len - UdpHeader::kBytes);
  *checksum_ok = !uh->has_checksum ||
                 InetSum(datagram.first(uh->len), PseudoSum(ih, kIpProtoUdp, uh->len)) == 0xFFFF;
  return true;
}

}  // namespace hwprof
