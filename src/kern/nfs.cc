#include "src/kern/nfs.h"

#include <algorithm>

#include "src/base/assert.h"
#include "src/kern/kernel.h"
#include "src/kern/sched.h"

namespace hwprof {
namespace {

void Put32Le(Bytes* b, std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    b->push_back(static_cast<std::uint8_t>((v >> shift) & 0xFF));
  }
}

std::uint32_t Get32Le(ByteView b, std::size_t off) {
  std::uint32_t v = 0;
  for (int shift = 0, i = 0; shift < 32; shift += 8, ++i) {
    v |= static_cast<std::uint32_t>(b[off + static_cast<std::size_t>(i)]) << shift;
  }
  return v;
}

}  // namespace

// --- Server host --------------------------------------------------------------

NfsServerHost::NfsServerHost(Machine& machine, EtherSegment& wire)
    : machine_(machine), wire_(wire) {
  wire.Attach(this);
}

std::uint32_t NfsServerHost::Export(const std::string& name, Bytes contents) {
  (void)name;  // the flat export keeps handles only
  const std::uint32_t fh = next_fh_++;
  files_.emplace(fh, std::move(contents));
  return fh;
}

const Bytes& NfsServerHost::Contents(std::uint32_t fh) const {
  auto it = files_.find(fh);
  HWPROF_CHECK_MSG(it != files_.end(), "unknown NFS file handle");
  return it->second;
}

void NfsServerHost::OnFrame(Bytes frame) {
  EtherHeader eh;
  ByteView ip_packet;
  if (!ParseEtherFrame(frame, &eh, &ip_packet) || eh.type != kEtherTypeIp) {
    return;
  }
  IpHeader ih;
  ByteView ip_payload;
  if (!ParseIpPacket(ip_packet, &ih, &ip_payload) || ih.dst != kNfsIpAddr ||
      ih.proto != kIpProtoUdp) {
    return;
  }
  // Reassemble fragmented requests (large WRITEs).
  Bytes whole;
  if (ih.more_frags || ih.frag_off != 0) {
    Frag& frag = frags_[ih.id];
    if (frag.data.size() < ih.frag_off + ip_payload.size()) {
      frag.data.resize(ih.frag_off + ip_payload.size(), 0);
    }
    std::copy(ip_payload.begin(), ip_payload.end(),
              frag.data.begin() + static_cast<std::ptrdiff_t>(ih.frag_off));
    frag.received += ip_payload.size();
    if (!ih.more_frags) {
      frag.have_last = true;
      frag.total = ih.frag_off + ip_payload.size();
    }
    if (!frag.have_last || frag.received < frag.total) {
      return;
    }
    whole = std::move(frag.data);
    whole.resize(frag.total);
    frags_.erase(ih.id);
    ip_payload = whole;
  }
  UdpHeader uh;
  ByteView rpc;
  bool cksum_ok = false;
  if (!ParseUdpDatagram(ih, ip_payload, &uh, &rpc, &cksum_ok) || !cksum_ok ||
      uh.dport != kNfsPort || rpc.size() < 13) {
    return;
  }
  const std::uint32_t xid = Get32Le(rpc, 0);
  const auto op = static_cast<NfsOp>(rpc[4]);
  const std::uint32_t fh = Get32Le(rpc, 5);
  const std::uint32_t off = Get32Le(rpc, 9);
  ++rpcs_served_;

  auto it = files_.find(fh);
  if (it == files_.end()) {
    Reply(xid, 1, Bytes{}, uh.sport);
    return;
  }
  switch (op) {
    case NfsOp::kRead: {
      HWPROF_CHECK(rpc.size() >= 17);
      const std::uint32_t len = Get32Le(rpc, 13);
      const Bytes& file = it->second;
      Bytes data;
      if (off < file.size()) {
        const std::size_t take = std::min<std::size_t>(len, file.size() - off);
        data.assign(file.begin() + off, file.begin() + off + static_cast<std::ptrdiff_t>(take));
      }
      Reply(xid, 0, data, uh.sport);
      break;
    }
    case NfsOp::kWrite: {
      HWPROF_CHECK(rpc.size() >= 17);
      const std::uint32_t len = Get32Le(rpc, 13);
      HWPROF_CHECK(rpc.size() >= 17 + len);
      Bytes& file = it->second;
      if (file.size() < off + len) {
        file.resize(off + len, 0);
      }
      std::copy(rpc.begin() + 17, rpc.begin() + 17 + static_cast<std::ptrdiff_t>(len),
                file.begin() + off);
      Reply(xid, 0, Bytes{}, uh.sport);
      break;
    }
    case NfsOp::kGetSize: {
      Bytes data;
      Put32Le(&data, static_cast<std::uint32_t>(it->second.size()));
      Reply(xid, 0, data, uh.sport);
      break;
    }
  }
}

void NfsServerHost::Reply(std::uint32_t xid, std::uint8_t status, const Bytes& data,
                          std::uint16_t client_port) {
  Bytes rpc;
  Put32Le(&rpc, xid);
  rpc.push_back(status);
  rpc.insert(rpc.end(), data.begin(), data.end());

  IpHeader ih;
  ih.proto = kIpProtoUdp;
  ih.src = kNfsIpAddr;
  ih.dst = kPcIpAddr;
  ih.id = ip_id_++;
  UdpHeader uh;
  uh.sport = kNfsPort;
  uh.dport = client_port;
  uh.has_checksum = use_checksums_;
  const Bytes datagram = BuildUdpDatagram(ih, uh, rpc);
  EtherHeader eh;
  eh.src = kNfsServerNodeId;
  eh.dst = kPcNodeId;
  // Service time, then transmit — 8 KiB replies leave as IP fragments.
  std::vector<Bytes> frames;
  for (const Bytes& packet : BuildIpFragments(ih, datagram)) {
    frames.push_back(BuildEtherFrame(eh, packet));
  }
  machine_.events().ScheduleAt(machine_.Now() + service_delay_,
                               [this, frames = std::move(frames)]() mutable {
                                 for (Bytes& frame : frames) {
                                   wire_.Transmit(kNfsServerNodeId, std::move(frame));
                                 }
                               });
}

// --- Client -------------------------------------------------------------------

Nfs::Nfs(Kernel& kernel, NetStack& net)
    : kernel_(kernel),
      net_(net),
      f_nfs_read_(kernel.RegFn("nfs_read", Subsys::kNfs)),
      f_nfs_write_(kernel.RegFn("nfs_write", Subsys::kNfs)),
      f_nfs_request_(kernel.RegFn("nfs_request", Subsys::kNfs)),
      f_nfsm_rpchead_(kernel.RegFn("nfsm_rpchead", Subsys::kNfs)),
      f_nfs_reply_(kernel.RegFn("nfs_reply", Subsys::kNfs)) {}

void Nfs::Init() {
  if (so_ != nullptr) {
    return;
  }
  so_ = net_.SoCreate(Socket::Proto::kUdp);
  HWPROF_CHECK(net_.SoBind(so_, kNfsClientPort));
}

bool Nfs::Request(NfsOp op, std::uint32_t fh, std::uint32_t off, std::uint32_t len,
                  const Bytes& payload, Bytes* reply_data) {
  KPROF(kernel_, f_nfs_request_);
  kernel_.cpu().Use(35 * kMicrosecond);
  HWPROF_CHECK_MSG(so_ != nullptr, "Nfs::Init not called");
  const std::uint32_t xid = next_xid_++;
  Bytes rpc;
  {
    KPROF(kernel_, f_nfsm_rpchead_);
    kernel_.cpu().Use(20 * kMicrosecond);
    Put32Le(&rpc, xid);
    rpc.push_back(static_cast<std::uint8_t>(op));
    Put32Le(&rpc, fh);
    Put32Le(&rpc, off);
    Put32Le(&rpc, len);
    rpc.insert(rpc.end(), payload.begin(), payload.end());
  }
  ++rpcs_sent_;
  // Up to three tries with a 1-second timer, as a stop-and-wait NFS client.
  for (int attempt = 0; attempt < 3; ++attempt) {
    net_.UdpOutput(*so_, kNfsIpAddr, kNfsPort, rpc);
    // Await a datagram; parse and match the xid.
    while (true) {
      const int s = kernel_.spl().splnet();
      const bool have = so_->rcv.cc != 0;
      kernel_.spl().splx(s);
      if (!have) {
        const int r = kernel_.sched().Tsleep(&so_->rcv, "nfsreq", 1 * kSecond);
        if (r == kSleepTimedOut) {
          break;  // resend
        }
        continue;
      }
      Bytes reply;
      net_.SoReceive(*so_, 64 * 1024, &reply);
      KPROF(kernel_, f_nfs_reply_);
      kernel_.cpu().Use(25 * kMicrosecond);
      if (reply.size() < 5 || Get32Le(reply, 0) != xid) {
        continue;  // stale reply to an earlier try
      }
      if (reply[4] != 0) {
        return false;
      }
      reply_data->assign(reply.begin() + 5, reply.end());
      return true;
    }
    ++timeouts_;
  }
  return false;
}

long Nfs::Read(std::uint32_t fh, std::uint32_t off, std::uint32_t len, Bytes* out) {
  KPROF(kernel_, f_nfs_read_);
  kernel_.cpu().Use(20 * kMicrosecond);
  long total = 0;
  std::uint32_t cursor = off;
  std::uint32_t remaining = len;
  while (remaining > 0) {
    const std::uint32_t chunk = std::min<std::uint32_t>(remaining, kNfsMaxIo);
    Bytes data;
    if (!Request(NfsOp::kRead, fh, cursor, chunk, Bytes{}, &data)) {
      return total > 0 ? total : -1;
    }
    if (data.empty()) {
      break;  // EOF
    }
    out->insert(out->end(), data.begin(), data.end());
    total += static_cast<long>(data.size());
    cursor += static_cast<std::uint32_t>(data.size());
    remaining -= static_cast<std::uint32_t>(
        std::min<std::size_t>(remaining, data.size()));
    if (data.size() < chunk) {
      break;  // short read: EOF
    }
  }
  return total;
}

long Nfs::Write(std::uint32_t fh, std::uint32_t off, const Bytes& data) {
  KPROF(kernel_, f_nfs_write_);
  kernel_.cpu().Use(20 * kMicrosecond);
  std::size_t written = 0;
  while (written < data.size()) {
    const std::uint32_t chunk =
        static_cast<std::uint32_t>(std::min<std::size_t>(data.size() - written, kNfsMaxIo));
    Bytes payload(data.begin() + static_cast<std::ptrdiff_t>(written),
                  data.begin() + static_cast<std::ptrdiff_t>(written + chunk));
    Bytes reply;
    if (!Request(NfsOp::kWrite, fh, off + static_cast<std::uint32_t>(written), chunk, payload,
                 &reply)) {
      return written > 0 ? static_cast<long>(written) : -1;
    }
    written += chunk;
  }
  return static_cast<long>(written);
}

}  // namespace hwprof
