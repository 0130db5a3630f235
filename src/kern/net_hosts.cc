#include "src/kern/net_hosts.h"

#include <algorithm>
#include <array>
#include <cstring>

#include "src/base/assert.h"

namespace hwprof {
namespace {

constexpr Nanoseconds kRetransmitTimeout = 200 * kMillisecond;

// PayloadByte(i) depends only on i mod 256: one period of the stream, which
// FillPayload copies out in runs.
constexpr std::array<std::uint8_t, 256> kPayloadPeriod = [] {
  std::array<std::uint8_t, 256> period{};
  for (std::size_t i = 0; i < period.size(); ++i) {
    period[i] = SenderHost::PayloadByte(i);
  }
  return period;
}();

// Writes the stream's bytes [offset, offset + len) to `out`.
void FillPayload(std::uint8_t* out, std::uint64_t offset, std::size_t len) {
  while (len > 0) {
    const std::size_t phase = offset % kPayloadPeriod.size();
    const std::size_t take = std::min(len, kPayloadPeriod.size() - phase);
    std::memcpy(out, kPayloadPeriod.data() + phase, take);
    out += take;
    offset += take;
    len -= take;
  }
}

}  // namespace

SenderHost::SenderHost(Machine& machine, EtherSegment& wire, std::uint8_t node_id,
                       std::uint32_t ip)
    : machine_(machine), wire_(wire), node_id_(node_id), ip_(ip) {
  wire.Attach(this);
}

void SenderHost::StartStream(std::uint32_t dst_ip, std::uint16_t dport,
                             std::uint64_t total_bytes, std::size_t mss) {
  HWPROF_CHECK(state_ == State::kIdle);
  HWPROF_CHECK(mss > 0 && mss <= kEtherMaxPayload - IpHeader::kBytes - TcpHeader::kBytes);
  dst_ip_ = dst_ip;
  dport_ = dport;
  total_bytes_ = total_bytes;
  mss_ = mss;
  state_ = State::kSynSent;
  SendSegment(0, 0, TcpHeader::kSyn);
  ArmRetransmit();
}

void SenderHost::SendSegment(std::uint32_t seq_off, std::size_t len, std::uint8_t flags) {
  IpHeader ih;
  ih.proto = kIpProtoTcp;
  ih.src = ip_;
  ih.dst = dst_ip_;
  ih.id = ip_id_++;
  TcpHeader th;
  th.sport = sport_;
  th.dport = dport_;
  // Sequence numbers: iss for the SYN itself; iss+1+offset for stream data.
  th.seq = (flags & TcpHeader::kSyn) != 0 ? iss_ : iss_ + 1 + seq_off;
  th.ack = rcv_nxt_;
  th.flags = flags;
  th.win = 0xFFFF;

  Bytes frame(kTcpPayloadOffset + len);
  FillPayload(frame.data() + kTcpPayloadOffset, seq_off, len);
  EtherHeader eh;
  eh.src = node_id_;
  eh.dst = kPcNodeId;
  FinishTcpFrame(frame, eh, ih, th);
  wire_.Transmit(node_id_, std::move(frame));
  ++segments_sent_;
}

void SenderHost::TrySend() {
  send_pending_ = false;
  if (state_ != State::kEstablished) {
    return;
  }
  // Window-limited: keep at most peer_win_ bytes in flight, paced by the
  // wire (one segment queued per wire-free instant; the Sparc's own CPU is
  // never the limit).
  while (snd_nxt_ < total_bytes_ && snd_nxt_ - snd_una_ + mss_ <= peer_win_) {
    const std::size_t len =
        static_cast<std::size_t>(std::min<std::uint64_t>(mss_, total_bytes_ - snd_nxt_));
    // Push every other segment so the receiver ACKs promptly.
    const bool push = ((snd_nxt_ / mss_) % 2 == 1) || snd_nxt_ + len >= total_bytes_;
    SendSegment(static_cast<std::uint32_t>(snd_nxt_), len,
                push ? TcpHeader::kAck | TcpHeader::kPsh : TcpHeader::kAck);
    snd_nxt_ += len;
  }
  if (snd_nxt_ >= total_bytes_ && snd_una_ >= total_bytes_ && !fin_sent_) {
    fin_sent_ = true;
    SendSegment(static_cast<std::uint32_t>(total_bytes_), 0,
                TcpHeader::kFin | TcpHeader::kAck);
  }
}

void SenderHost::ArmRetransmit() {
  machine_.events().ScheduleAt(machine_.Now() + kRetransmitTimeout, [this] {
    if (done_ || state_ == State::kIdle) {
      return;
    }
    if (state_ == State::kSynSent) {
      ++retransmits_;
      SendSegment(0, 0, TcpHeader::kSyn);
    } else if (snd_una_ == last_progress_una_ && snd_una_ < total_bytes_) {
      // No progress since the last check: go back to the first unacked byte.
      ++retransmits_;
      snd_nxt_ = snd_una_;
      TrySend();
    } else if (snd_una_ >= total_bytes_ && !done_) {
      // Re-offer the FIN.
      fin_sent_ = false;
      TrySend();
    }
    last_progress_una_ = snd_una_;
    ArmRetransmit();
  });
}

void SenderHost::OnFrame(Bytes frame) {
  EtherHeader eh;
  ByteView ip_packet;
  if (!ParseEtherFrame(frame, &eh, &ip_packet) || eh.type != kEtherTypeIp) {
    return;
  }
  IpHeader ih;
  ByteView ip_payload;
  if (!ParseIpPacket(ip_packet, &ih, &ip_payload) || ih.dst != ip_ ||
      ih.proto != kIpProtoTcp) {
    return;
  }
  TcpHeader th;
  ByteView payload;
  bool cksum_ok = false;
  if (!ParseTcpSegment(ih, ip_payload, &th, &payload, &cksum_ok) || !cksum_ok ||
      th.sport != dport_ || th.dport != sport_) {
    return;
  }

  if (state_ == State::kSynSent && (th.flags & TcpHeader::kSyn) != 0 &&
      (th.flags & TcpHeader::kAck) != 0 && th.ack == iss_ + 1) {
    rcv_nxt_ = th.seq + 1;
    peer_win_ = th.win;
    state_ = State::kEstablished;
    SendSegment(0, 0, TcpHeader::kAck);  // complete the handshake
    TrySend();
    return;
  }

  if (state_ != State::kEstablished || (th.flags & TcpHeader::kAck) == 0) {
    return;
  }
  // ACK for stream offset (ack - iss - 1).
  if (th.ack >= iss_ + 1) {
    const std::uint64_t acked_off = th.ack - iss_ - 1;
    if (acked_off > snd_una_ && acked_off <= total_bytes_ + 1) {
      snd_una_ = std::min<std::uint64_t>(acked_off, total_bytes_);
      bytes_acked_ = snd_una_;
    }
    if (acked_off >= total_bytes_ + 1 || (fin_sent_ && acked_off >= total_bytes_)) {
      // Our FIN is covered once ack passes the last byte; treat window-only
      // updates after completion as done too.
    }
    if (snd_una_ >= total_bytes_ && fin_sent_) {
      done_ = true;
      state_ = State::kFinished;
      return;
    }
  }
  peer_win_ = th.win;
  if (!send_pending_) {
    send_pending_ = true;
    // Transmit attempts resume when the wire is free.
    const Nanoseconds when = std::max(machine_.Now() + 1, wire_.FreeAt());
    machine_.events().ScheduleAt(when, [this] { TrySend(); });
  }
}


// --- ReceiverHost -----------------------------------------------------------------

ReceiverHost::ReceiverHost(Machine& machine, EtherSegment& wire, std::uint16_t port)
    : machine_(machine), wire_(wire), port_(port) {
  wire.Attach(this);
}

void ReceiverHost::Send(std::uint8_t flags, std::uint32_t seq, std::uint32_t ack) {
  IpHeader ih;
  ih.proto = kIpProtoTcp;
  ih.src = kSenderIpAddr;
  ih.dst = kPcIpAddr;
  ih.id = ip_id_++;
  TcpHeader th;
  th.sport = port_;
  th.dport = peer_port_;
  th.seq = seq;
  th.ack = ack;
  th.flags = flags;
  th.win = static_cast<std::uint16_t>(
      window_ > 0xFFFF ? 0xFFFF : window_);
  EtherHeader eh;
  eh.src = kSenderNodeId;
  eh.dst = kPcNodeId;
  Bytes frame(kTcpPayloadOffset);
  FinishTcpFrame(frame, eh, ih, th);
  wire_.Transmit(kSenderNodeId, std::move(frame));
}

void ReceiverHost::OnFrame(Bytes frame) {
  EtherHeader eh;
  ByteView ip_packet;
  if (!ParseEtherFrame(frame, &eh, &ip_packet) || eh.type != kEtherTypeIp) {
    return;
  }
  IpHeader ih;
  ByteView ip_payload;
  if (!ParseIpPacket(ip_packet, &ih, &ip_payload) || ih.dst != kSenderIpAddr ||
      ih.proto != kIpProtoTcp) {
    return;
  }
  TcpHeader th;
  ByteView payload;
  bool cksum_ok = false;
  if (!ParseTcpSegment(ih, ip_payload, &th, &payload, &cksum_ok) || !cksum_ok ||
      th.dport != port_) {
    return;
  }

  if ((th.flags & TcpHeader::kSyn) != 0 && (th.flags & TcpHeader::kAck) == 0) {
    peer_port_ = th.sport;
    rcv_nxt_ = th.seq + 1;
    Send(TcpHeader::kSyn | TcpHeader::kAck, iss_, rcv_nxt_);
    return;
  }
  if (!established_ && (th.flags & TcpHeader::kAck) != 0 && th.ack == iss_ + 1) {
    established_ = true;
    // The handshake ACK may carry data; fall through.
  }
  if (!established_) {
    return;
  }
  if (!payload.empty()) {
    ++data_segments_;
    if (drop_every_n_ != 0 && data_segments_ % drop_every_n_ == 0) {
      ++segments_dropped_;
      return;  // pretend it never arrived; the sender must recover
    }
    if (th.seq == rcv_nxt_ && payload.size() <= window_) {
      received_.insert(received_.end(), payload.begin(), payload.end());
      rcv_nxt_ += static_cast<std::uint32_t>(payload.size());
    }
    Send(TcpHeader::kAck, iss_ + 1, rcv_nxt_);
  }
  if ((th.flags & TcpHeader::kFin) != 0 && th.seq == rcv_nxt_) {
    saw_fin_ = true;
    rcv_nxt_ += 1;
    Send(TcpHeader::kAck, iss_ + 1, rcv_nxt_);
  }
}

}  // namespace hwprof
