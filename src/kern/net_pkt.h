// On-the-wire packet formats: Ethernet/IP/TCP/UDP headers with real
// byte-level encoding and Internet checksums.
//
// Frames carry genuine bytes end to end so data integrity and checksum
// correctness are testable properties of the stack, not assumptions. The
// *cost* of checksumming is charged separately by the kernel's in_cksum;
// these helpers are the arithmetic only.

#ifndef HWPROF_SRC_KERN_NET_PKT_H_
#define HWPROF_SRC_KERN_NET_PKT_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace hwprof {

using Bytes = std::vector<std::uint8_t>;
// A read-only view of bytes held elsewhere: a frame, or one layer inside it.
using ByteView = std::span<const std::uint8_t>;

// Internet one's-complement checksum over `data`, optionally seeded with a
// running (folded) sum. Returns the folded 16-bit sum, not yet inverted.
std::uint16_t InetSum(ByteView data, std::uint32_t initial = 0);
// Final checksum (inverted fold) over data.
std::uint16_t InetChecksum(ByteView data);
// Word-at-a-time variant of InetSum (two 16-bit words per step, carries
// deferred): the arithmetic behind the KernConfig cksum_unrolled recode.
// Produces the same folded sum as InetSum for every input.
std::uint16_t InetSumWords(ByteView data, std::uint32_t initial = 0);

inline constexpr std::size_t kEtherHeaderBytes = 14;
inline constexpr std::size_t kEtherMinFrame = 60;    // without FCS
inline constexpr std::size_t kEtherMaxPayload = 1500;
inline constexpr std::uint16_t kEtherTypeIp = 0x0800;

inline constexpr std::uint8_t kIpProtoTcp = 6;
inline constexpr std::uint8_t kIpProtoUdp = 17;

struct EtherHeader {
  std::uint8_t dst = 0;  // node id (low byte of the MAC)
  std::uint8_t src = 0;
  std::uint16_t type = kEtherTypeIp;
};

struct IpHeader {
  static constexpr std::size_t kBytes = 20;
  std::uint8_t ttl = 64;
  std::uint8_t proto = 0;
  std::uint16_t total_len = 0;   // header + payload
  std::uint16_t id = 0;
  std::uint16_t frag_off = 0;    // payload offset in bytes (8-byte aligned)
  bool more_frags = false;
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
};

struct TcpHeader {
  static constexpr std::size_t kBytes = 20;
  static constexpr std::uint8_t kFin = 0x01;
  static constexpr std::uint8_t kSyn = 0x02;
  static constexpr std::uint8_t kAck = 0x10;
  static constexpr std::uint8_t kPsh = 0x08;

  std::uint16_t sport = 0;
  std::uint16_t dport = 0;
  std::uint32_t seq = 0;
  std::uint32_t ack = 0;
  std::uint8_t flags = 0;
  std::uint16_t win = 0;
};

struct UdpHeader {
  static constexpr std::size_t kBytes = 8;
  std::uint16_t sport = 0;
  std::uint16_t dport = 0;
  std::uint16_t len = 0;       // header + payload
  bool has_checksum = false;   // UDP checksums are optional (NFS turns them off)
};

// Where each layer starts in a frame (IP headers carry no options).
inline constexpr std::size_t kTransportOffset = kEtherHeaderBytes + IpHeader::kBytes;
inline constexpr std::size_t kTcpPayloadOffset = kTransportOffset + TcpHeader::kBytes;

// Unfolded sum of the TCP/UDP pseudo-header for `len` transport bytes: the
// seed of that layer's checksum.
std::uint32_t PseudoSum(const IpHeader& ih, std::uint8_t proto, std::size_t len);

// --- Frame building ---------------------------------------------------------
//
// A frame is built in one buffer. The caller sizes it with room in front for
// the headers and puts the payload behind that room; each header layout then
// has one writer that fills its bytes in place, checksum included, from the
// transport header outwards.

// Writes the TCP header at `at`, which `payload_len` payload bytes follow;
// its checksum covers both and the pseudo-header.
void WriteTcpHeader(std::uint8_t* at, const IpHeader& ih, const TcpHeader& th,
                    std::size_t payload_len);
// Writes the UDP header at `at`, which `payload_len` payload bytes follow;
// checksummed only if `uh.has_checksum`.
void WriteUdpHeader(std::uint8_t* at, const IpHeader& ih, const UdpHeader& uh,
                    std::size_t payload_len);
// Writes the IP header (with its checksum) of a packet carrying
// `payload_len` bytes.
void WriteIpHeader(std::uint8_t* at, const IpHeader& ih, std::size_t payload_len);
void WriteEtherHeader(std::uint8_t* at, const EtherHeader& eh);

// Completes a frame whose transport bytes run from kTransportOffset to its
// end: writes the IP and Ethernet headers in front of them and pads a short
// frame to the minimum size. The transport must fit one IP packet.
void FinishIpFrame(Bytes& frame, const EtherHeader& eh, const IpHeader& ih);
// Completes a TCP frame whose payload runs from kTcpPayloadOffset to its end.
void FinishTcpFrame(Bytes& frame, const EtherHeader& eh, const IpHeader& ih,
                    const TcpHeader& th);

// Copying wrappers over the writers, for the UDP hosts and the NFS path.
// Builds a full Ethernet frame around an IP packet (padding to the minimum
// frame size).
Bytes BuildEtherFrame(const EtherHeader& eh, ByteView ip_packet);
// Builds an IP packet (computing the header checksum) around `payload`.
Bytes BuildIpPacket(const IpHeader& ih, ByteView payload);
// Fragments `payload` into IP packets of at most `mtu` bytes each
// (8-byte-aligned fragment payloads, MF set on all but the last) — how the
// era's NFS moved its 8 KiB UDP reads over Ethernet.
std::vector<Bytes> BuildIpFragments(const IpHeader& ih, ByteView payload,
                                    std::size_t mtu = kEtherMaxPayload);
// Builds a UDP datagram; checksum included only if `uh.has_checksum`.
Bytes BuildUdpDatagram(const IpHeader& ih, const UdpHeader& uh, ByteView payload);

// --- Frame parsing ----------------------------------------------------------
//
// Parsers read a frame where it lies: every payload they return is a view
// into their input.

// Parses the Ethernet header; returns false if the frame is too short.
bool ParseEtherFrame(ByteView frame, EtherHeader* eh, ByteView* ip_packet);

// Reads the IP header at the front of `header` (false if shorter than
// IpHeader::kBytes or not a plain IPv4 header) and bounds its total_len by
// `packet_len`, the bytes the packet really has, so trailing minimum-frame
// padding is ignored. Does not verify the header checksum.
bool ParseIpHeader(ByteView header, std::size_t packet_len, IpHeader* ih);
// Parses and validates an IP packet, header checksum included.
bool ParseIpPacket(ByteView packet, IpHeader* ih, ByteView* payload);

// Reads a TCP header; false if `header` is shorter than TcpHeader::kBytes.
bool ParseTcpHeader(ByteView header, TcpHeader* th);
// Parses a TCP segment; `checksum_ok` reports pseudo-header verification.
bool ParseTcpSegment(const IpHeader& ih, ByteView segment, TcpHeader* th, ByteView* payload,
                     bool* checksum_ok);

// Reads a UDP header and bounds its length by `datagram_len`.
bool ParseUdpHeader(ByteView header, std::size_t datagram_len, UdpHeader* uh);
bool ParseUdpDatagram(const IpHeader& ih, ByteView datagram, UdpHeader* uh, ByteView* payload,
                      bool* checksum_ok);

}  // namespace hwprof

#endif  // HWPROF_SRC_KERN_NET_PKT_H_
