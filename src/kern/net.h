// The networking stack: WD8003E driver, IP input/output, in_cksum, minimal
// TCP and UDP, and the socket layer — the code paths behind Figures 3 and 4.
//
// Everything here is instrumented with the same function names the paper's
// reports show (weintr/werint/weread/westart, ipintr, in_cksum, tcp_input,
// in_pcblookup, soreceive, sbappend...), so the reproduced reports line up
// row for row.

#ifndef HWPROF_SRC_KERN_NET_H_
#define HWPROF_SRC_KERN_NET_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "src/instr/instrumenter.h"
#include "src/kern/mbuf.h"
#include "src/kern/net_pkt.h"
#include "src/kern/net_wire.h"

namespace hwprof {

class Kernel;
class NetStack;

// Station numbering on the simulated segment.
inline constexpr std::uint8_t kPcNodeId = 1;
inline constexpr std::uint8_t kSenderNodeId = 2;
inline constexpr std::uint8_t kNfsServerNodeId = 3;
inline constexpr std::uint32_t kPcIpAddr = 0x0A000001;      // 10.0.0.1
inline constexpr std::uint32_t kSenderIpAddr = 0x0A000002;  // 10.0.0.2
inline constexpr std::uint32_t kNfsIpAddr = 0x0A000003;     // 10.0.0.3

// --- Socket layer -------------------------------------------------------------

struct SockBuf {
  std::deque<Mbuf*> queue;  // one entry per appended record/segment
  std::size_t cc = 0;       // bytes buffered
  std::size_t hiwat = 16 * 1024;

  std::size_t Space() const { return hiwat > cc ? hiwat - cc : 0; }
};

struct Tcpcb {
  enum class State : std::uint8_t { kClosed, kListen, kSynSent, kSynRcvd, kEstablished };
  State state = State::kClosed;
  std::uint16_t lport = 0;
  std::uint16_t rport = 0;
  std::uint32_t faddr = 0;
  std::uint32_t iss = 0;      // our initial send sequence
  std::uint32_t snd_nxt = 0;  // next sequence we send
  std::uint32_t rcv_nxt = 0;  // next in-order byte expected
  int delack = 0;             // segments received since the last ACK we sent

  // Send side (active opens): stream offsets into the send buffer's
  // original byte stream. Sequence = iss + 1 + offset.
  std::uint64_t snd_off_acked = 0;  // bytes the peer has acknowledged
  std::uint64_t snd_off_sent = 0;   // bytes handed to ip_output
  std::size_t snd_wnd = 0;          // peer's advertised window
  std::uint64_t last_progress = 0;  // retransmit-timer bookkeeping
  bool fin_queued = false;
  class Socket* so = nullptr;
};

class Socket {
 public:
  enum class Proto : std::uint8_t { kTcp, kUdp };

  explicit Socket(Proto proto) : proto_(proto) {}

  Proto proto() const { return proto_; }

  std::uint16_t lport = 0;
  SockBuf rcv;
  SockBuf snd;  // unacknowledged + unsent outbound bytes (send side)
  bool listening = false;
  bool eof = false;  // peer sent FIN
  std::deque<std::shared_ptr<Socket>> accept_queue;
  Tcpcb* tp = nullptr;   // owned by the NetStack
  Socket* head = nullptr;  // listening socket this connection arrived on

  // Last datagram source (UDP, for reply addressing).
  std::uint32_t last_from_addr = 0;
  std::uint16_t last_from_port = 0;

  std::uint64_t bytes_received = 0;

 private:
  Proto proto_;
};

// --- WD8003E driver --------------------------------------------------------------

class WeDevice : public EtherNode {
 public:
  WeDevice(Kernel& kernel, NetStack& stack, EtherSegment& wire, std::uint8_t node_id);
  WeDevice(const WeDevice&) = delete;
  WeDevice& operator=(const WeDevice&) = delete;

  std::uint8_t node_id() const override { return node_id_; }

  // NIC side: a frame arrived on the wire; buffer it on the 8 KiB on-board
  // ring (dropping on overrun) and raise the interrupt.
  void OnFrame(Bytes frame) override;

  // weintr: the IRQ handler body, dispatched by the kernel.
  void Intr();

  // Queues an Ethernet frame for transmission (called from ip_output).
  void Output(Bytes frame);

  std::uint64_t rx_frames() const { return rx_frames_; }
  std::uint64_t rx_dropped() const { return rx_dropped_; }
  std::uint64_t tx_frames() const { return tx_frames_; }

  static constexpr std::size_t kBoardRamBytes = 8 * 1024;

 private:
  void Rint();                   // werint: drain one received frame
  void ReadFrame(Bytes frame);   // weread/weget: frame -> mbufs -> ether_input
  void Start();                  // westart: push the next queued frame out
  void Tint();                   // wetint: transmit-complete handling

  Kernel& kernel_;
  NetStack& stack_;
  EtherSegment& wire_;
  std::uint8_t node_id_;

  std::deque<Bytes> board_rx_;
  std::size_t board_rx_bytes_ = 0;
  std::deque<Bytes> if_snd_;
  bool tx_busy_ = false;
  int tx_done_pending_ = 0;

  std::uint64_t rx_frames_ = 0;
  std::uint64_t rx_dropped_ = 0;
  std::uint64_t tx_frames_ = 0;

  FuncInfo* f_weintr_;
  FuncInfo* f_werint_;
  FuncInfo* f_weread_;
  FuncInfo* f_weget_;
  FuncInfo* f_westart_;
  FuncInfo* f_wetint_;
};

// --- The stack ---------------------------------------------------------------------

class NetStack {
 public:
  NetStack(Kernel& kernel, EtherSegment& wire);
  ~NetStack();
  NetStack(const NetStack&) = delete;
  NetStack& operator=(const NetStack&) = delete;

  WeDevice& we() { return *we_; }
  std::uint32_t ip_addr() const { return kPcIpAddr; }

  // Driver input: enqueue an IP packet (as an mbuf chain) on ipintrq and
  // pend the network software interrupt.
  void EtherInput(Mbuf* ip_chain);

  // The softnet body: drains ipintrq through ip_input.
  void IpIntr();

  // Transmits the transport bytes of `frame` (from kTransportOffset to its
  // end; the room in front is for the IP and Ethernet headers) to `dst` as
  // IP protocol `proto`.
  void IpOutput(std::uint8_t proto, std::uint32_t dst, Bytes frame);

  // udp_output: sends `payload` to dst:dport from `so`'s bound port,
  // checksumming only when the kernel config enables UDP checksums.
  void UdpOutput(Socket& so, std::uint32_t dst, std::uint16_t dport, const Bytes& payload);

  // in_cksum: charges the (deliberately slow) C checksum cost over `len`
  // bytes of the chain — at the ISA rate if the data still lives in
  // controller memory — and returns the real folded sum of those bytes,
  // seeded with `initial` (a pseudo-header sum), summed where they lie.
  // 0xFFFF verifies a packet that carries its checksum.
  std::uint16_t InCksumChain(const Mbuf* m, std::size_t len, std::uint32_t initial = 0);

  // --- Socket layer (profiled) -------------------------------------------------
  std::shared_ptr<Socket> SoCreate(Socket::Proto proto);
  bool SoBind(const std::shared_ptr<Socket>& so, std::uint16_t port);
  void SoListen(Socket& so);
  // Blocks until a completed connection is available.
  std::shared_ptr<Socket> SoAccept(Socket& so);
  // Active open: connects `so` to dst:dport; blocks through the handshake.
  // Returns false on timeout.
  bool SoConnect(const std::shared_ptr<Socket>& so, std::uint32_t dst, std::uint16_t dport);
  // Blocking send of the whole buffer (so must be connected).
  long SoSend(Socket& so, const Bytes& data);
  // Half-close: queue a FIN after everything sent.
  void SoShutdown(Socket& so);
  // Blocks until data (or EOF); copies out up to `max` bytes.
  std::size_t SoReceive(Socket& so, std::size_t max, Bytes* out);
  // Appends a payload chain to the receive buffer.
  void SbAppend(Socket& so, Mbuf* m);
  void SorWakeup(Socket& so);

  std::uint64_t ip_packets_in() const { return ip_packets_in_; }
  std::uint64_t reassemblies() const { return reassemblies_; }
  std::uint64_t cksum_failures() const { return cksum_failures_; }
  // Packets freed because ipintrq was full (also a telemetry gauge and an
  // SNMP profTelemetry leaf: kern.net.ipintrq_drops).
  std::uint64_t ipintrq_drops() const { return ipintrq_drops_; }
  // in_cksum calls whose mbuf chain held fewer bytes than requested.
  std::uint64_t cksum_short_chains() const { return cksum_short_chains_; }
  std::uint64_t tcp_segments_in() const { return tcp_segments_in_; }
  std::uint64_t tcp_acks_out() const { return tcp_acks_out_; }
  std::uint64_t udp_datagrams_in() const { return udp_datagrams_in_; }

 private:
  void IpInput(Mbuf* m);
  // Protocol input for one transport chain (the segment or datagram bytes,
  // IP header and padding trimmed).
  void TcpInput(const IpHeader& ih, Mbuf* chain);
  // Sends a control/ACK segment on `tp` (flags always include ACK).
  void TcpRespond(Tcpcb& tp, std::uint8_t flags);
  // Drains the send buffer within the peer's window (tcp_output with data).
  void TcpOutputData(Tcpcb& tp);
  // Go-back-N retransmit timer body.
  void TcpRexmt(Tcpcb* tp);
  void TcpRexmtArm(Tcpcb* tp);
  // Send-buffer bookkeeping (sbappend/sbdrop on so.snd).
  void SbAppendSnd(Socket& so, Mbuf* m);
  void SbDropSnd(Socket& so, std::size_t len);
  void UdpInput(const IpHeader& ih, Mbuf* chain);

  // in_pcblookup: exact (connection) match first, then wildcard (listener).
  Socket* PcbLookup(std::uint8_t proto, std::uint16_t lport, std::uint32_t faddr,
                    std::uint16_t rport);
  Tcpcb* NewTcpcb(Socket* so);

  // In-progress IP reassembly (keyed by src address + IP id).
  struct FragBuffer {
    Bytes data;
    std::size_t received = 0;
    bool have_last = false;
    std::size_t total = 0;  // known once the last fragment arrives
    bool in_isa = false;
  };
  // Reassembles one fragment (`chain` holds its payload); returns the
  // completed payload chain (and fills `*out_ih`) or nullptr while fragments
  // are still outstanding.
  Mbuf* IpReass(const IpHeader& ih, Mbuf* chain, IpHeader* out_ih);

  Kernel& kernel_;
  EtherSegment& wire_;
  std::unique_ptr<WeDevice> we_;
  IfQueue ipintrq_;
  std::map<std::uint64_t, FragBuffer> frag_buffers_;
  std::uint64_t reassemblies_ = 0;

  std::vector<std::shared_ptr<Socket>> pcbs_;  // bound sockets
  std::deque<std::unique_ptr<Tcpcb>> tcpcbs_;
  std::set<Tcpcb*> rexmt_armed_;  // send-side timers currently scheduled
  std::uint16_t ip_id_ = 1;
  std::uint32_t iss_seed_ = 0x1000;

  std::uint64_t ip_packets_in_ = 0;
  std::uint64_t cksum_failures_ = 0;
  std::uint64_t ipintrq_drops_ = 0;
  std::uint64_t cksum_short_chains_ = 0;
  std::uint64_t tcp_segments_in_ = 0;
  std::uint64_t tcp_acks_out_ = 0;
  std::uint64_t udp_datagrams_in_ = 0;

  FuncInfo* f_ipintr_;
  FuncInfo* f_ip_output_;
  FuncInfo* f_in_cksum_;
  FuncInfo* f_in_pcblookup_;
  FuncInfo* f_tcp_input_;
  FuncInfo* f_tcp_output_;
  FuncInfo* f_udp_input_;
  FuncInfo* f_udp_output_;
  FuncInfo* f_socreate_;
  FuncInfo* f_sonewconn_;
  FuncInfo* f_soaccept_;
  FuncInfo* f_soreceive_;
  FuncInfo* f_sbappend_;
  FuncInfo* f_sorwakeup_;

  friend class WeDevice;
};

}  // namespace hwprof

#endif  // HWPROF_SRC_KERN_NET_H_
