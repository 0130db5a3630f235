// Remote host models on the Ethernet segment.
//
// SenderHost plays the paper's Sparcstation 2: a traffic source fast enough
// to saturate the wire, streaming TCP data at the receiving PC. It speaks
// just enough TCP (handshake, window-limited in-flight data, go-back-N
// retransmit on a stall timer, FIN) to drive the kernel's receive path the
// way the paper's test did. Host-side processing costs nothing — the whole
// point is that the PC, not the Sparc, is the bottleneck.

#ifndef HWPROF_SRC_KERN_NET_HOSTS_H_
#define HWPROF_SRC_KERN_NET_HOSTS_H_

#include <cstdint>

#include "src/base/rng.h"
#include "src/kern/net.h"  // node/station ids
#include "src/kern/net_pkt.h"
#include "src/kern/net_wire.h"
#include "src/sim/machine.h"

namespace hwprof {

class SenderHost : public EtherNode {
 public:
  SenderHost(Machine& machine, EtherSegment& wire, std::uint8_t node_id, std::uint32_t ip);

  std::uint8_t node_id() const override { return node_id_; }
  void OnFrame(Bytes frame) override;

  // Connects to dst:dport and streams `total_bytes` of deterministic
  // payload, `mss` bytes per segment.
  void StartStream(std::uint32_t dst_ip, std::uint16_t dport, std::uint64_t total_bytes,
                   std::size_t mss = 1460);

  bool connected() const { return state_ == State::kEstablished; }
  bool done() const { return done_; }
  std::uint64_t bytes_acked() const { return bytes_acked_; }
  std::uint64_t segments_sent() const { return segments_sent_; }
  std::uint64_t retransmits() const { return retransmits_; }

  // The deterministic payload byte at stream offset `i` (for integrity
  // checks on the receiver side).
  static constexpr std::uint8_t PayloadByte(std::uint64_t i) {
    return static_cast<std::uint8_t>((i * 31 + 7) & 0xFF);
  }

 private:
  enum class State : std::uint8_t { kIdle, kSynSent, kEstablished, kFinished };

  void TrySend();
  void SendSegment(std::uint32_t seq_off, std::size_t len, std::uint8_t flags);
  void ArmRetransmit();

  Machine& machine_;
  EtherSegment& wire_;
  std::uint8_t node_id_;
  std::uint32_t ip_;

  State state_ = State::kIdle;
  std::uint32_t dst_ip_ = 0;
  std::uint16_t dport_ = 0;
  std::uint16_t sport_ = 1024;
  std::size_t mss_ = 1460;
  std::uint64_t total_bytes_ = 0;

  std::uint32_t iss_ = 0x5000;
  std::uint64_t snd_nxt_ = 0;  // stream offset next to send
  std::uint64_t snd_una_ = 0;  // lowest unacked stream offset
  std::uint32_t rcv_nxt_ = 0;  // peer sequence expected
  std::size_t peer_win_ = 0;
  bool fin_sent_ = false;
  bool done_ = false;
  bool send_pending_ = false;

  std::uint64_t bytes_acked_ = 0;
  std::uint64_t segments_sent_ = 0;
  std::uint64_t retransmits_ = 0;
  std::uint64_t last_progress_una_ = 0;
  std::uint16_t ip_id_ = 1;
};

// The passive remote end for the PC's *active* opens: accepts a connection
// on `port`, receives and stores the stream (ACKing with a configurable
// window), and can deliberately drop data segments to exercise the
// sender's go-back-N recovery.
class ReceiverHost : public EtherNode {
 public:
  ReceiverHost(Machine& machine, EtherSegment& wire, std::uint16_t port);

  std::uint8_t node_id() const override { return kSenderNodeId; }
  void OnFrame(Bytes frame) override;

  // Advertised receive window (default 16 KiB).
  void SetWindow(std::size_t window) { window_ = window; }
  // Silently drop every Nth data segment (0 = never) — loss injection.
  void SetDropEveryN(std::uint32_t n) { drop_every_n_ = n; }

  const Bytes& received() const { return received_; }
  bool connected() const { return established_; }
  bool saw_fin() const { return saw_fin_; }
  std::uint64_t segments_dropped() const { return segments_dropped_; }

 private:
  void Send(std::uint8_t flags, std::uint32_t seq, std::uint32_t ack);

  Machine& machine_;
  EtherSegment& wire_;
  std::uint16_t port_;
  std::size_t window_ = 16 * 1024;
  std::uint32_t drop_every_n_ = 0;

  bool established_ = false;
  bool saw_fin_ = false;
  std::uint32_t iss_ = 0x7000;
  std::uint32_t rcv_nxt_ = 0;
  std::uint16_t peer_port_ = 0;
  Bytes received_;
  std::uint64_t data_segments_ = 0;
  std::uint64_t segments_dropped_ = 0;
  std::uint16_t ip_id_ = 1;
};

}  // namespace hwprof

#endif  // HWPROF_SRC_KERN_NET_HOSTS_H_
