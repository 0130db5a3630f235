#include "src/kern/net.h"

#include <algorithm>

#include "src/base/assert.h"
#include "src/kern/clock.h"
#include "src/kern/kernel.h"
#include "src/kern/kmem.h"
#include "src/kern/sched.h"
#include "src/obs/telemetry.h"

namespace hwprof {

// --- WeDevice -------------------------------------------------------------------

WeDevice::WeDevice(Kernel& kernel, NetStack& stack, EtherSegment& wire, std::uint8_t node_id)
    : kernel_(kernel),
      stack_(stack),
      wire_(wire),
      node_id_(node_id),
      f_weintr_(kernel.RegFn("weintr", Subsys::kNet)),
      f_werint_(kernel.RegFn("werint", Subsys::kNet)),
      f_weread_(kernel.RegFn("weread", Subsys::kNet)),
      f_weget_(kernel.RegFn("weget", Subsys::kNet)),
      f_westart_(kernel.RegFn("westart", Subsys::kNet)),
      f_wetint_(kernel.RegFn("wetint", Subsys::kNet)) {
  wire.Attach(this);
}

void WeDevice::OnFrame(Bytes frame) {
  // NIC hardware: DMA into the on-board ring (no host CPU involved). On
  // overrun the frame is simply lost — the 8-bit card cannot keep up if the
  // driver does not drain it.
  if (board_rx_bytes_ + frame.size() > kBoardRamBytes) {
    ++rx_dropped_;
    return;
  }
  board_rx_bytes_ += frame.size();
  board_rx_.push_back(std::move(frame));
  ++rx_frames_;
  kernel_.machine().irq().Raise(IrqLine::kEther);
}

void WeDevice::Intr() {
  KPROF(kernel_, f_weintr_);
  // Interrupt status parse and acknowledge dance across the ISA bus
  // (~50 µs of weintr's own time in the paper's Fig 4).
  kernel_.cpu().Use(kernel_.cost().ether_reg_access_ns * 3 + 35 * kMicrosecond);
  while (tx_done_pending_ > 0) {
    Tint();
  }
  while (!board_rx_.empty()) {
    Rint();
  }
}

void WeDevice::Rint() {
  KPROF(kernel_, f_werint_);
  // Ring boundary registers, packet header fetch, sanity checks — all
  // across the ISA bus (the paper clocks werint's own work at ~70 µs).
  kernel_.cpu().Use(kernel_.cost().ether_reg_access_ns * 4 + 45 * kMicrosecond);
  Bytes frame = std::move(board_rx_.front());
  board_rx_.pop_front();
  board_rx_bytes_ -= frame.size();
  ReadFrame(std::move(frame));
}

void WeDevice::ReadFrame(Bytes frame) {
  KPROF(kernel_, f_weread_);
  kernel_.cpu().Use(3 * kMicrosecond);

  EtherHeader eh;
  ByteView ip_packet;
  if (!ParseEtherFrame(frame, &eh, &ip_packet) || eh.type != kEtherTypeIp) {
    return;
  }

  Mbuf* chain = nullptr;
  {
    // weget: move the frame off the controller into mbufs. This is *the*
    // cost of the receive path on an 8-bit card: ~700 ns per byte.
    KPROF(kernel_, f_weget_);
    kernel_.cpu().Use(5 * kMicrosecond);
    const bool external = kernel_.cost().ether_external_mbufs;
    if (external) {
      // The paper's what-if: link the packet as external mbufs pointing at
      // controller memory. No copy now — every later touch pays instead.
      chain = kernel_.mbufs().FromBytes(ip_packet, /*in_isa=*/true);
    } else if (kernel_.cost().ether_recoded_driver) {
      // The recoded driver moves the frame with 16-bit transfers and a
      // tight unrolled loop — a bit over twice the byte-loop's speed.
      kernel_.cpu().Use(kernel_.cost().Isa16Copy(frame.size()));
      chain = kernel_.mbufs().FromBytes(ip_packet, /*in_isa=*/false);
    } else {
      kernel_.BcopyFromIsa8(frame.size());
      chain = kernel_.mbufs().FromBytes(ip_packet, /*in_isa=*/false);
    }
  }
  stack_.EtherInput(chain);
}

void WeDevice::Output(Bytes frame) {
  // Called from ip_output at protocol level; the driver queue is protected
  // from its own interrupt by splimp.
  const int s = kernel_.spl().splimp();
  if_snd_.push_back(std::move(frame));
  Start();
  kernel_.spl().splx(s);
}

void WeDevice::Start() {
  KPROF(kernel_, f_westart_);
  kernel_.cpu().Use(kernel_.cost().ether_reg_access_ns);
  if (tx_busy_ || if_snd_.empty()) {
    return;
  }
  Bytes frame = std::move(if_snd_.front());
  if_snd_.pop_front();
  // Copy the frame into the transmit buffer on the card, byte by byte.
  kernel_.BcopyToIsa8(frame.size());
  kernel_.cpu().Use(kernel_.cost().ether_reg_access_ns);  // issue transmit
  tx_busy_ = true;
  const Nanoseconds done = wire_.Transmit(node_id_, std::move(frame));
  kernel_.machine().events().ScheduleAt(done, [this] {
    ++tx_done_pending_;
    kernel_.machine().irq().Raise(IrqLine::kEther);
  });
}

void WeDevice::Tint() {
  KPROF(kernel_, f_wetint_);
  kernel_.cpu().Use(kernel_.cost().ether_reg_access_ns);
  --tx_done_pending_;
  tx_busy_ = false;
  ++tx_frames_;
  Start();
}

// --- NetStack --------------------------------------------------------------------

NetStack::NetStack(Kernel& kernel, EtherSegment& wire)
    : kernel_(kernel),
      wire_(wire),
      f_ipintr_(kernel.RegFn("ipintr", Subsys::kNet)),
      f_ip_output_(kernel.RegFn("ip_output", Subsys::kNet)),
      f_in_cksum_(kernel.RegFn("in_cksum", Subsys::kNet)),
      f_in_pcblookup_(kernel.RegFn("in_pcblookup", Subsys::kNet)),
      f_tcp_input_(kernel.RegFn("tcp_input", Subsys::kNet)),
      f_tcp_output_(kernel.RegFn("tcp_output", Subsys::kNet)),
      f_udp_input_(kernel.RegFn("udp_input", Subsys::kNet)),
      f_udp_output_(kernel.RegFn("udp_output", Subsys::kNet)),
      f_socreate_(kernel.RegFn("socreate", Subsys::kNet)),
      f_sonewconn_(kernel.RegFn("sonewconn", Subsys::kNet)),
      f_soaccept_(kernel.RegFn("soaccept", Subsys::kNet)),
      f_soreceive_(kernel.RegFn("soreceive", Subsys::kNet)),
      f_sbappend_(kernel.RegFn("sbappend", Subsys::kNet)),
      f_sorwakeup_(kernel.RegFn("sorwakeup", Subsys::kNet)) {
  we_ = std::make_unique<WeDevice>(kernel, *this, wire, kPcNodeId);
}

NetStack::~NetStack() {
  auto drain = [this](SockBuf& sb) {
    while (!sb.queue.empty()) {
      Mbuf* m = sb.queue.front();
      sb.queue.pop_front();
      while (m != nullptr) {
        Mbuf* next = m->next;
        delete m;
        m = next;
      }
    }
  };
  for (auto& so : pcbs_) {
    drain(so->rcv);
    drain(so->snd);
  }
  Mbuf* m = ipintrq_.Dequeue();
  while (m != nullptr) {
    Mbuf* pkt_next = m;
    while (pkt_next != nullptr) {
      Mbuf* next = pkt_next->next;
      delete pkt_next;
      pkt_next = next;
    }
    m = ipintrq_.Dequeue();
  }
}

void NetStack::EtherInput(Mbuf* ip_chain) {
  if (!ipintrq_.Enqueue(ip_chain)) {
    // A full protocol queue loses the packet as silently as the wire does;
    // saturation studies need the drop on a counter, not inferred from
    // missing ACKs.
    ++ipintrq_drops_;
    OBS_GAUGE_ADD("kern.net.ipintrq_drops", 1);
    kernel_.mbufs().MFreem(ip_chain);
    return;
  }
  kernel_.RaiseSoftNet();
}

std::uint16_t NetStack::InCksumChain(const Mbuf* m, std::size_t len, std::uint32_t initial) {
  KPROF(kernel_, f_in_cksum_);
  bool in_isa = false;
  std::size_t chain_bytes = 0;
  for (const Mbuf* it = m; it != nullptr; it = it->next) {
    in_isa |= it->in_isa_memory;
    chain_bytes += it->data.size();
  }
  // A chain shorter than the requested length is a malformed packet from
  // upstream: sum (and charge for) only the bytes that exist, and count the
  // event — the old code billed `len` bytes it never touched.
  const std::size_t summed = std::min(len, chain_bytes);
  if (summed < len) {
    ++cksum_short_chains_;
    OBS_COUNT("kern.net.cksum_short_chains", 1);
  }
  const bool unrolled = kernel_.knobs().cksum_unrolled;
  kernel_.cpu().Use(kernel_.cost().Checksum(summed, in_isa, unrolled));
  // Sum each mbuf where it lies. An mbuf that ends mid-word leaves its last
  // byte to pair with the next mbuf's first, so every 16-bit word summed is
  // the one the contiguous packet holds.
  const auto sum_words = unrolled ? InetSumWords : InetSum;
  std::uint32_t sum = initial;
  std::uint8_t carry[1];
  std::size_t carried = 0;
  std::size_t left = summed;
  for (const Mbuf* it = m; it != nullptr && left > 0; it = it->next) {
    ByteView data(it->data.data(), std::min(it->data.size(), left));
    left -= data.size();
    if (carried != 0 && !data.empty()) {
      sum += static_cast<std::uint32_t>((carry[0] << 8) | data[0]);
      data = data.subspan(1);
      carried = 0;
    }
    if (data.size() % 2 != 0) {
      carry[0] = data.back();
      carried = 1;
      data = data.first(data.size() - 1);
    }
    sum = sum_words(data, sum);
  }
  // A byte left over at the end is padded on the right, and the sum folded.
  return sum_words(ByteView(carry, carried), sum);
}

void NetStack::IpIntr() {
  KPROF(kernel_, f_ipintr_);
  while (true) {
    Mbuf* m = nullptr;
    {
      const int s = kernel_.spl().splimp();
      m = ipintrq_.Dequeue();
      kernel_.spl().splx(s);
    }
    if (m == nullptr) {
      return;
    }
    IpInput(m);
  }
}

void NetStack::IpInput(Mbuf* m) {
  // ip_input proper, folded into the ipintr profile as in the paper's
  // reports: header validation + checksum + protocol dispatch.
  kernel_.cpu().Use(15 * kMicrosecond);
  ++ip_packets_in_;

  // Charge the header checksum first (the real kernel checksums before
  // parsing anything else); its sum is the verdict.
  const std::uint16_t header_sum = InCksumChain(m, IpHeader::kBytes);
  std::uint8_t scratch[IpHeader::kBytes];
  IpHeader ih;
  if (header_sum != 0xFFFF ||
      !ParseIpHeader(MbufPool::Front(m, IpHeader::kBytes, scratch), MbufPool::ChainLen(m), &ih)) {
    ++cksum_failures_;
    kernel_.mbufs().MFreem(m);
    return;
  }
  if (ih.dst != ip_addr()) {
    kernel_.mbufs().MFreem(m);  // not ours; no forwarding
    return;
  }
  // Shed Ethernet minimum-frame padding (everything past total_len), then
  // trim the IP header so the transport layer sees its segment at the
  // front (m_adj both ways).
  kernel_.mbufs().TrimTail(m, ih.total_len);
  Mbuf* transport = kernel_.mbufs().AdjFront(m, IpHeader::kBytes);

  // Fragments go through ip_reass until the datagram is whole.
  if (ih.more_frags || ih.frag_off != 0) {
    IpHeader whole;
    transport = IpReass(ih, transport, &whole);
    if (transport == nullptr) {
      return;  // still waiting for the rest
    }
    ih = whole;
  }
  switch (ih.proto) {
    case kIpProtoTcp:
      TcpInput(ih, transport);
      break;
    case kIpProtoUdp:
      UdpInput(ih, transport);
      break;
    default:
      kernel_.mbufs().MFreem(transport);
      break;
  }
}

Mbuf* NetStack::IpReass(const IpHeader& ih, Mbuf* chain, IpHeader* out_ih) {
  // ip_reass: mbuf-chain surgery per fragment.
  kernel_.cpu().Use(25 * kMicrosecond);
  const std::uint64_t key = (static_cast<std::uint64_t>(ih.src) << 16) | ih.id;
  FragBuffer& buf = frag_buffers_[key];
  const std::size_t len = MbufPool::ChainLen(chain);
  if (buf.data.size() < ih.frag_off + len) {
    buf.data.resize(ih.frag_off + len, 0);
  }
  MbufPool::CopyData(chain, 0, len, buf.data.data() + ih.frag_off);
  buf.received += len;
  for (const Mbuf* it = chain; it != nullptr; it = it->next) {
    buf.in_isa |= it->in_isa_memory;
  }
  if (!ih.more_frags) {
    buf.have_last = true;
    buf.total = ih.frag_off + len;
  }
  kernel_.mbufs().MFreem(chain);
  if (!buf.have_last || buf.received < buf.total) {
    return nullptr;
  }
  // Complete: rebuild the datagram chain (link-only in the real kernel).
  Bytes whole = std::move(buf.data);
  whole.resize(buf.total);
  const bool in_isa = buf.in_isa;
  frag_buffers_.erase(key);
  ++reassemblies_;
  *out_ih = ih;
  out_ih->frag_off = 0;
  out_ih->more_frags = false;
  out_ih->total_len = static_cast<std::uint16_t>(IpHeader::kBytes + whole.size());
  return kernel_.mbufs().FromBytes(whole, in_isa);
}

Socket* NetStack::PcbLookup(std::uint8_t proto, std::uint16_t lport, std::uint32_t faddr,
                            std::uint16_t rport) {
  KPROF(kernel_, f_in_pcblookup_);
  kernel_.cpu().Use(9 * kMicrosecond);
  const Socket::Proto want =
      proto == kIpProtoTcp ? Socket::Proto::kTcp : Socket::Proto::kUdp;
  Socket* wildcard = nullptr;
  for (const auto& so : pcbs_) {
    if (so->proto() != want || so->lport != lport) {
      continue;
    }
    if (so->tp != nullptr && so->tp->faddr == faddr && so->tp->rport == rport &&
        so->tp->state != Tcpcb::State::kListen) {
      return so.get();
    }
    if (so->listening || so->proto() == Socket::Proto::kUdp) {
      wildcard = so.get();
    }
  }
  return wildcard;
}

Tcpcb* NetStack::NewTcpcb(Socket* so) {
  tcpcbs_.push_back(std::make_unique<Tcpcb>());
  Tcpcb* tp = tcpcbs_.back().get();
  tp->so = so;
  so->tp = tp;
  return tp;
}

void NetStack::TcpInput(const IpHeader& ih, Mbuf* chain) {
  KPROF(kernel_, f_tcp_input_);
  // Header validation, sequence bookkeeping, window update, reassembly
  // checks — the paper clocks tcp_input's own work at ~92 µs.
  const int s = kernel_.spl().splnet();
  kernel_.cpu().Use(75 * kMicrosecond);
  kernel_.spl().splx(s);
  ++tcp_segments_in_;

  // Checksum the whole segment where it lies, pseudo-header included; the
  // sum is the verdict.
  const std::size_t seg_len = MbufPool::ChainLen(chain);
  const std::uint16_t sum = InCksumChain(chain, seg_len, PseudoSum(ih, kIpProtoTcp, seg_len));
  std::uint8_t scratch[TcpHeader::kBytes];
  TcpHeader th;
  if (!ParseTcpHeader(MbufPool::Front(chain, TcpHeader::kBytes, scratch), &th) ||
      sum != 0xFFFF) {
    ++cksum_failures_;
    kernel_.mbufs().MFreem(chain);
    return;
  }

  Socket* so = PcbLookup(kIpProtoTcp, th.dport, ih.src, th.sport);
  if (so == nullptr) {
    kernel_.mbufs().MFreem(chain);
    return;
  }
  Tcpcb* tp = so->tp;

  // LISTEN + SYN: passive open.
  if (so->listening && (th.flags & TcpHeader::kSyn) != 0 &&
      (th.flags & TcpHeader::kAck) == 0) {
    KPROF(kernel_, f_sonewconn_);
    kernel_.cpu().Use(35 * kMicrosecond);
    const Kmem::AllocId a = kernel_.kmem().Malloc(256, "socket");
    (void)a;  // freed on close in a fuller model
    auto conn = std::make_shared<Socket>(Socket::Proto::kTcp);
    conn->lport = th.dport;
    conn->head = so;
    Tcpcb* ctp = NewTcpcb(conn.get());
    ctp->state = Tcpcb::State::kSynRcvd;
    ctp->lport = th.dport;
    ctp->rport = th.sport;
    ctp->faddr = ih.src;
    ctp->rcv_nxt = th.seq + 1;
    ctp->iss = iss_seed_;
    iss_seed_ += 0x10000;
    ctp->snd_nxt = ctp->iss;
    pcbs_.push_back(conn);
    TcpRespond(*ctp, TcpHeader::kSyn | TcpHeader::kAck);
    ctp->snd_nxt = ctp->iss + 1;
    kernel_.mbufs().MFreem(chain);
    return;
  }

  if (tp == nullptr || tp->state == Tcpcb::State::kClosed) {
    kernel_.mbufs().MFreem(chain);
    return;
  }

  // SYN_SENT + SYN|ACK: our active open completes.
  if (tp->state == Tcpcb::State::kSynSent && (th.flags & TcpHeader::kSyn) != 0 &&
      (th.flags & TcpHeader::kAck) != 0 && th.ack == tp->iss + 1) {
    tp->rcv_nxt = th.seq + 1;
    tp->snd_wnd = th.win;
    tp->state = Tcpcb::State::kEstablished;
    TcpRespond(*tp, TcpHeader::kAck);  // complete the handshake
    kernel_.sched().Wakeup(tp);        // connect(2) sleeper
    kernel_.mbufs().MFreem(chain);
    return;
  }

  // SYN_RCVD + ACK of our SYN: connection complete.
  if (tp->state == Tcpcb::State::kSynRcvd && (th.flags & TcpHeader::kAck) != 0 &&
      th.ack == tp->iss + 1) {
    tp->state = Tcpcb::State::kEstablished;
    if (so->head != nullptr) {
      for (const auto& s : pcbs_) {
        if (s.get() == so) {
          so->head->accept_queue.push_back(s);
          break;
        }
      }
      SorWakeup(*so->head);
    }
    // Fall through: the completing ACK may carry data.
  }

  if (tp->state != Tcpcb::State::kEstablished) {
    kernel_.mbufs().MFreem(chain);
    return;
  }

  // Send-side ACK processing: advance snd_una, free acknowledged bytes,
  // refill the window.
  if ((th.flags & TcpHeader::kAck) != 0 && th.ack >= tp->iss + 1) {
    const std::uint64_t ack_off = th.ack - tp->iss - 1;
    tp->snd_wnd = th.win;
    if (ack_off > tp->snd_off_acked &&
        ack_off <= tp->snd_off_acked + so->snd.cc) {
      const std::size_t acked = static_cast<std::size_t>(ack_off - tp->snd_off_acked);
      SbDropSnd(*so, acked);
      tp->snd_off_acked = ack_off;
      if (tp->snd_off_sent < tp->snd_off_acked) {
        tp->snd_off_sent = tp->snd_off_acked;
      }
      kernel_.sched().Wakeup(&so->snd);  // sbwait'ers in sosend
    }
    if (so->snd.cc > 0 || tp->fin_queued) {
      TcpOutputData(*tp);
    }
  }

  // Data processing.
  const std::size_t payload_len = seg_len - TcpHeader::kBytes;
  if (payload_len != 0) {
    if (th.seq != tp->rcv_nxt) {
      // Out of order (a drop upstream): discard and re-ACK what we have.
      kernel_.mbufs().MFreem(chain);
      TcpRespond(*tp, TcpHeader::kAck);
      return;
    }
    if (so->rcv.Space() < payload_len) {
      // Receiver window violation; drop and advertise again.
      kernel_.mbufs().MFreem(chain);
      TcpRespond(*tp, TcpHeader::kAck);
      return;
    }
    tp->rcv_nxt += static_cast<std::uint32_t>(payload_len);
    // Trim the TCP header; the remaining chain is exactly the payload.
    Mbuf* data = kernel_.mbufs().AdjFront(chain, TcpHeader::kBytes);
    SbAppend(*so, data);
    SorWakeup(*so);
    ++tp->delack;
    if (tp->delack >= 2 || (th.flags & TcpHeader::kPsh) != 0) {
      TcpRespond(*tp, TcpHeader::kAck);
    }
    if ((th.flags & TcpHeader::kFin) != 0) {
      tp->rcv_nxt += 1;
      so->eof = true;
      TcpRespond(*tp, TcpHeader::kAck);
      SorWakeup(*so);
    }
    return;
  }

  if ((th.flags & TcpHeader::kFin) != 0) {
    tp->rcv_nxt = th.seq + 1;
    so->eof = true;
    TcpRespond(*tp, TcpHeader::kAck);
    SorWakeup(*so);
  }
  kernel_.mbufs().MFreem(chain);
}

void NetStack::TcpRespond(Tcpcb& tp, std::uint8_t flags) {
  KPROF(kernel_, f_tcp_output_);
  kernel_.cpu().Use(30 * kMicrosecond);
  tp.delack = 0;
  ++tcp_acks_out_;

  IpHeader ih;
  ih.proto = kIpProtoTcp;
  ih.src = ip_addr();
  ih.dst = tp.faddr;
  TcpHeader th;
  th.sport = tp.lport;
  th.dport = tp.rport;
  th.seq = tp.snd_nxt;
  th.ack = tp.rcv_nxt;
  th.flags = static_cast<std::uint8_t>(flags | TcpHeader::kAck);
  if ((flags & TcpHeader::kSyn) != 0) {
    th.flags = flags;  // SYN|ACK passes through as built
  }
  const std::size_t space = tp.so != nullptr ? tp.so->rcv.Space() : 0;
  th.win = static_cast<std::uint16_t>(std::min<std::size_t>(space, 0xFFFF));
  Bytes frame(kTcpPayloadOffset);
  WriteTcpHeader(frame.data() + kTransportOffset, ih, th, 0);
  // Checksum of the outgoing header.
  {
    KPROF(kernel_, f_in_cksum_);
    kernel_.cpu().Use(kernel_.cost().Checksum(TcpHeader::kBytes, false, kernel_.knobs().cksum_unrolled));
  }
  IpOutput(kIpProtoTcp, tp.faddr, std::move(frame));
}

void NetStack::UdpInput(const IpHeader& ih, Mbuf* chain) {
  KPROF(kernel_, f_udp_input_);
  kernel_.cpu().Use(20 * kMicrosecond);
  ++udp_datagrams_in_;

  std::uint8_t scratch[UdpHeader::kBytes];
  UdpHeader uh;
  if (!ParseUdpHeader(MbufPool::Front(chain, UdpHeader::kBytes, scratch),
                      MbufPool::ChainLen(chain), &uh)) {
    kernel_.mbufs().MFreem(chain);
    return;
  }
  // Checksummed datagrams are summed where they lie, pseudo-header
  // included; the sum is the verdict.
  if (uh.has_checksum &&
      InCksumChain(chain, uh.len, PseudoSum(ih, kIpProtoUdp, uh.len)) != 0xFFFF) {
    ++cksum_failures_;
    kernel_.mbufs().MFreem(chain);
    return;
  }
  Socket* so = PcbLookup(kIpProtoUdp, uh.dport, ih.src, uh.sport);
  if (so == nullptr || so->rcv.Space() < uh.len - UdpHeader::kBytes) {
    kernel_.mbufs().MFreem(chain);
    return;
  }
  so->last_from_addr = ih.src;
  so->last_from_port = uh.sport;
  Mbuf* data = kernel_.mbufs().AdjFront(chain, UdpHeader::kBytes);
  if (data == nullptr) {
    data = kernel_.mbufs().MGet(true);  // zero-length datagram
  }
  SbAppend(*so, data);
  SorWakeup(*so);
}

void NetStack::UdpOutput(Socket& so, std::uint32_t dst, std::uint16_t dport,
                         const Bytes& payload) {
  KPROF(kernel_, f_udp_output_);
  kernel_.cpu().Use(25 * kMicrosecond);
  IpHeader ih;
  ih.proto = kIpProtoUdp;
  ih.src = ip_addr();
  ih.dst = dst;
  UdpHeader uh;
  uh.sport = so.lport;
  uh.dport = dport;
  uh.has_checksum = kernel_.config().udp_checksums;
  if (uh.has_checksum) {
    KPROF(kernel_, f_in_cksum_);
    kernel_.cpu().Use(kernel_.cost().Checksum(UdpHeader::kBytes + payload.size(), false,
                                          kernel_.knobs().cksum_unrolled));
  }
  Bytes frame(kTransportOffset + UdpHeader::kBytes + payload.size());
  std::copy(payload.begin(), payload.end(),
            frame.begin() + kTransportOffset + UdpHeader::kBytes);
  WriteUdpHeader(frame.data() + kTransportOffset, ih, uh, payload.size());
  IpOutput(kIpProtoUdp, dst, std::move(frame));
}

void NetStack::IpOutput(std::uint8_t proto, std::uint32_t dst, Bytes frame) {
  KPROF(kernel_, f_ip_output_);
  kernel_.cpu().Use(20 * kMicrosecond);
  IpHeader ih;
  ih.proto = proto;
  ih.src = ip_addr();
  ih.dst = dst;
  ih.id = ip_id_++;
  // The IP header checksum is an in_cksum over 20 bytes.
  {
    KPROF(kernel_, f_in_cksum_);
    kernel_.cpu().Use(kernel_.cost().Checksum(IpHeader::kBytes, false, kernel_.knobs().cksum_unrolled));
  }
  EtherHeader eh;
  eh.src = kPcNodeId;
  eh.dst = dst == kSenderIpAddr ? kSenderNodeId : kNfsServerNodeId;
  // A packet that fits the MTU leaves in the buffer it was built in;
  // larger datagrams leave as fragments (the era's NFS 8 KiB I/O).
  const ByteView transport = ByteView(frame).subspan(kTransportOffset);
  if (IpHeader::kBytes + transport.size() <= kEtherMaxPayload) {
    FinishIpFrame(frame, eh, ih);
    we_->Output(std::move(frame));
    return;
  }
  for (const Bytes& packet : BuildIpFragments(ih, transport)) {
    we_->Output(BuildEtherFrame(eh, packet));
  }
}

// --- Socket layer --------------------------------------------------------------

std::shared_ptr<Socket> NetStack::SoCreate(Socket::Proto proto) {
  KPROF(kernel_, f_socreate_);
  kernel_.cpu().Use(15 * kMicrosecond);
  const Kmem::AllocId a = kernel_.kmem().Malloc(256, "socket");
  (void)a;
  return std::make_shared<Socket>(proto);
}

bool NetStack::SoBind(const std::shared_ptr<Socket>& so, std::uint16_t port) {
  for (const auto& p : pcbs_) {
    if (p->proto() == so->proto() && p->lport == port && p->head == nullptr) {
      return false;  // address in use
    }
  }
  so->lport = port;
  for (const auto& p : pcbs_) {
    if (p == so) {
      return true;  // already registered
    }
  }
  pcbs_.push_back(so);
  return true;
}

void NetStack::SoListen(Socket& so) {
  so.listening = true;
  if (so.tp == nullptr) {
    Tcpcb* tp = NewTcpcb(&so);
    tp->state = Tcpcb::State::kListen;
    tp->lport = so.lport;
  }
}

std::shared_ptr<Socket> NetStack::SoAccept(Socket& so) {
  KPROF(kernel_, f_soaccept_);
  kernel_.cpu().Use(20 * kMicrosecond);
  const int s = kernel_.spl().splnet();
  while (so.accept_queue.empty()) {
    // hwprof-lint: suppress(spl-sleep) Tsleep parks the raised IPL in the proc; it only masks while this process runs
    kernel_.sched().Tsleep(&so.accept_queue, "accept");
  }
  std::shared_ptr<Socket> conn = so.accept_queue.front();
  so.accept_queue.pop_front();
  kernel_.spl().splx(s);
  return conn;
}

std::size_t NetStack::SoReceive(Socket& so, std::size_t max, Bytes* out) {
  KPROF(kernel_, f_soreceive_);
  kernel_.cpu().Use(kernel_.cost().soreceive_fixed_ns);
  const int s = kernel_.spl().splnet();
  while (so.rcv.cc == 0 && !so.eof) {
    // hwprof-lint: suppress(spl-sleep) Tsleep parks the raised IPL in the proc; it only masks while this process runs
    kernel_.sched().Tsleep(&so.rcv, "sbwait");
  }
  std::size_t copied = 0;
  const std::size_t before_space = so.rcv.Space();
  while (!so.rcv.queue.empty() && copied < max) {
    // Each record dequeue re-takes the protocol level, as sbfree/sbdrop do.
    const int s_rec = kernel_.spl().splnet();
    kernel_.spl().splx(s_rec);
    Mbuf* m = so.rcv.queue.front();
    // Copy this record out mbuf by mbuf.
    while (m != nullptr && copied < max) {
      const std::size_t take = std::min(m->data.size(), max - copied);
      if (take == m->data.size()) {
        if (m->in_isa_memory) {
          // copyout straight from controller memory: the slow path the
          // external-mbuf what-if creates.
          kernel_.CopyoutSlow(take);
        } else {
          kernel_.Copyout(take);
        }
        out->insert(out->end(), m->data.begin(), m->data.end());
        copied += take;
        so.rcv.cc -= take;
        Mbuf* next = m->next;
        m->next = nullptr;
        kernel_.mbufs().MFree(m);
        m = next;
      } else {
        // Partial mbuf: copy a prefix, keep the rest.
        if (m->in_isa_memory) {
          kernel_.CopyoutSlow(take);
        } else {
          kernel_.Copyout(take);
        }
        out->insert(out->end(), m->data.begin(),
                    m->data.begin() + static_cast<std::ptrdiff_t>(take));
        m->data.erase(m->data.begin(), m->data.begin() + static_cast<std::ptrdiff_t>(take));
        copied += take;
        so.rcv.cc -= take;
        break;
      }
    }
    if (m == nullptr) {
      so.rcv.queue.pop_front();
    } else {
      so.rcv.queue.front() = m;
      break;
    }
  }
  so.bytes_received += copied;
  kernel_.spl().splx(s);
  // Window update: if the buffer had been nearly full and we opened at
  // least two segments of space, tell the sender.
  if (so.tp != nullptr && so.tp->state == Tcpcb::State::kEstablished &&
      before_space < 2 * 1460 && so.rcv.Space() >= 2 * 1460) {
    TcpRespond(*so.tp, TcpHeader::kAck);
  }
  return copied;
}

bool NetStack::SoConnect(const std::shared_ptr<Socket>& so, std::uint32_t dst,
                         std::uint16_t dport) {
  HWPROF_CHECK(so->proto() == Socket::Proto::kTcp);
  if (so->lport == 0) {
    // Ephemeral port.
    static std::uint16_t next_ephemeral = 49152;
    while (!SoBind(so, next_ephemeral)) {
      ++next_ephemeral;
    }
  }
  Tcpcb* tp = so->tp != nullptr ? so->tp : NewTcpcb(so.get());
  tp->state = Tcpcb::State::kSynSent;
  tp->lport = so->lport;
  tp->rport = dport;
  tp->faddr = dst;
  tp->iss = iss_seed_;
  iss_seed_ += 0x10000;
  tp->snd_nxt = tp->iss;
  TcpRespond(*tp, TcpHeader::kSyn);
  tp->snd_nxt = tp->iss + 1;
  // Wait out the handshake (the connect(2) sleep), retrying twice.
  for (int attempt = 0; attempt < 3; ++attempt) {
    const int s = kernel_.spl().splnet();
    const bool established = tp->state == Tcpcb::State::kEstablished;
    kernel_.spl().splx(s);
    if (established) {
      return true;
    }
    if (kernel_.sched().Tsleep(tp, "connect", 2 * kSecond) == kSleepOk) {
      return tp->state == Tcpcb::State::kEstablished;
    }
    if (tp->state != Tcpcb::State::kEstablished) {
      TcpRespond(*tp, TcpHeader::kSyn);  // resend the SYN
      tp->snd_nxt = tp->iss + 1;
    }
  }
  return tp->state == Tcpcb::State::kEstablished;
}

long NetStack::SoSend(Socket& so, const Bytes& data) {
  Tcpcb* tp = so.tp;
  if (tp == nullptr || tp->state != Tcpcb::State::kEstablished) {
    return -1;
  }
  std::size_t queued = 0;
  while (queued < data.size()) {
    // Block while the send buffer is full (sbwait on &so.snd).
    const int s = kernel_.spl().splnet();
    while (so.snd.Space() == 0 && tp->state == Tcpcb::State::kEstablished) {
      // hwprof-lint: suppress(spl-sleep) Tsleep parks the raised IPL in the proc; it only masks while this process runs
      kernel_.sched().Tsleep(&so.snd, "sbwait");
    }
    if (tp->state != Tcpcb::State::kEstablished) {
      kernel_.spl().splx(s);
      return queued > 0 ? static_cast<long>(queued) : -1;
    }
    const std::size_t take = std::min(data.size() - queued, so.snd.Space());
    kernel_.Copyin(take);
    Mbuf* chunk = kernel_.mbufs().FromBytes(ByteView(data).subspan(queued, take), false);
    SbAppendSnd(so, chunk);
    queued += take;
    // tcp_output runs under the same splnet bracket: the softnet input
    // path (and the softclock retransmit timer) must not interleave with
    // an in-progress output pass.
    TcpOutputData(*tp);
    kernel_.spl().splx(s);
  }
  return static_cast<long>(queued);
}

void NetStack::SoShutdown(Socket& so) {
  if (so.tp == nullptr) {
    return;
  }
  const int s = kernel_.spl().splnet();
  so.tp->fin_queued = true;
  TcpOutputData(*so.tp);
  kernel_.spl().splx(s);
}

void NetStack::TcpOutputData(Tcpcb& tp) {
  Socket* so = tp.so;
  HWPROF_CHECK(so != nullptr);
  constexpr std::size_t kMss = 1460;
  while (true) {
    const std::uint64_t unsent_base = tp.snd_off_sent - tp.snd_off_acked;
    if (unsent_base >= so->snd.cc) {
      break;  // everything buffered is on the wire
    }
    const std::size_t in_flight = static_cast<std::size_t>(tp.snd_off_sent - tp.snd_off_acked);
    if (in_flight + kMss > std::max<std::size_t>(tp.snd_wnd, kMss)) {
      break;  // window full (always allow at least one segment)
    }
    const std::size_t len =
        std::min<std::size_t>(kMss, so->snd.cc - static_cast<std::size_t>(unsent_base));

    KPROF(kernel_, f_tcp_output_);
    kernel_.cpu().Use(35 * kMicrosecond);
    // Gather the payload from the send buffer at the unsent offset, behind
    // room for the headers.
    Bytes frame(kTcpPayloadOffset + len);
    const std::size_t gathered = MbufPool::CopyData(
        so->snd.queue.empty() ? nullptr : so->snd.queue.front(),
        static_cast<std::size_t>(unsent_base), len, frame.data() + kTcpPayloadOffset);
    HWPROF_CHECK(gathered == len);

    IpHeader ih;
    ih.proto = kIpProtoTcp;
    ih.src = ip_addr();
    ih.dst = tp.faddr;
    TcpHeader th;
    th.sport = tp.lport;
    th.dport = tp.rport;
    th.seq = tp.iss + 1 + static_cast<std::uint32_t>(tp.snd_off_sent);
    th.ack = tp.rcv_nxt;
    th.flags = TcpHeader::kAck | TcpHeader::kPsh;
    th.win = static_cast<std::uint16_t>(std::min<std::size_t>(so->rcv.Space(), 0xFFFF));
    WriteTcpHeader(frame.data() + kTransportOffset, ih, th, len);
    {
      KPROF(kernel_, f_in_cksum_);
      kernel_.cpu().Use(kernel_.cost().Checksum(TcpHeader::kBytes + len, false,
                                                kernel_.knobs().cksum_unrolled));
    }
    IpOutput(kIpProtoTcp, tp.faddr, std::move(frame));
    tp.snd_off_sent += len;
    if (rexmt_armed_.insert(&tp).second) {
      TcpRexmtArm(&tp);
    }
  }
  if (tp.fin_queued && so->snd.cc == 0 &&
      tp.snd_off_sent == tp.snd_off_acked) {
    // Everything delivered: send the FIN (once).
    tp.fin_queued = false;
    IpHeader ih;
    ih.proto = kIpProtoTcp;
    ih.src = ip_addr();
    ih.dst = tp.faddr;
    TcpHeader th;
    th.sport = tp.lport;
    th.dport = tp.rport;
    th.seq = tp.iss + 1 + static_cast<std::uint32_t>(tp.snd_off_sent);
    th.ack = tp.rcv_nxt;
    th.flags = TcpHeader::kFin | TcpHeader::kAck;
    th.win = static_cast<std::uint16_t>(std::min<std::size_t>(so->rcv.Space(), 0xFFFF));
    Bytes frame(kTcpPayloadOffset);
    WriteTcpHeader(frame.data() + kTransportOffset, ih, th, 0);
    {
      KPROF(kernel_, f_in_cksum_);
      kernel_.cpu().Use(kernel_.cost().Checksum(TcpHeader::kBytes, false,
                                                kernel_.knobs().cksum_unrolled));
    }
    IpOutput(kIpProtoTcp, tp.faddr, std::move(frame));
  }
}

void NetStack::TcpRexmtArm(Tcpcb* tp) {
  // tcp_slowtimo runs from softclock; the body takes the soft-network
  // level so it cannot interleave with tcp_input or a sosend in progress.
  kernel_.clocksys().Timeout(
      [this, tp] {
        const Ipl prev = kernel_.spl().RawRaise(Ipl::kSoftNet);
        TcpRexmt(tp);
        kernel_.spl().RawRestore(prev);
      },
      500 * kMillisecond);
}

void NetStack::TcpRexmt(Tcpcb* tp) {
  if (tp->state != Tcpcb::State::kEstablished || tp->so == nullptr) {
    rexmt_armed_.erase(tp);
    return;
  }
  if (tp->snd_off_acked == tp->snd_off_sent && tp->so->snd.cc == 0) {
    rexmt_armed_.erase(tp);  // all done; timer dies
    return;
  }
  if (tp->snd_off_acked == tp->last_progress) {
    // Stalled: go back to the first unacknowledged byte.
    tp->snd_off_sent = tp->snd_off_acked;
    TcpOutputData(*tp);
  }
  tp->last_progress = tp->snd_off_acked;
  TcpRexmtArm(tp);
}

void NetStack::SbAppendSnd(Socket& so, Mbuf* m) {
  KPROF(kernel_, f_sbappend_);
  kernel_.cpu().Use(kernel_.cost().sbappend_ns_fixed);
  // The send buffer keeps one contiguous record chain.
  const std::size_t len = MbufPool::ChainLen(m);
  if (so.snd.queue.empty()) {
    so.snd.queue.push_back(m);
  } else {
    Mbuf* tail = so.snd.queue.front();
    while (tail->next != nullptr) {
      tail = tail->next;
    }
    tail->next = m;
  }
  so.snd.cc += len;
}

void NetStack::SbDropSnd(Socket& so, std::size_t len) {
  if (so.snd.queue.empty()) {
    return;
  }
  Mbuf* head = kernel_.mbufs().AdjFront(so.snd.queue.front(), len);
  so.snd.queue.front() = head;
  if (head == nullptr) {
    so.snd.queue.pop_front();
  }
  so.snd.cc -= std::min(so.snd.cc, len);
}

void NetStack::SbAppend(Socket& so, Mbuf* m) {
  KPROF(kernel_, f_sbappend_);
  const int s = kernel_.spl().splnet();
  kernel_.cpu().Use(kernel_.cost().sbappend_ns_fixed);
  kernel_.spl().splx(s);
  so.rcv.queue.push_back(m);
  so.rcv.cc += MbufPool::ChainLen(m);
}

void NetStack::SorWakeup(Socket& so) {
  KPROF(kernel_, f_sorwakeup_);
  const int s = kernel_.spl().splnet();
  kernel_.cpu().Use(8 * kMicrosecond);
  kernel_.spl().splx(s);
  kernel_.sched().Wakeup(&so.rcv);
  if (so.listening) {
    kernel_.sched().Wakeup(&so.accept_queue);
  }
}

}  // namespace hwprof
