#include "src/snmp/agent.h"

#include "src/base/assert.h"
#include "src/base/strings.h"
#include "src/kern/kernel.h"

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

Bytes EncodeRequest(std::uint32_t xid, bool getnext, const Oid& oid) {
  Bytes out;
  Put32Le(&out, xid);
  out.push_back(getnext ? 1 : 0);
  out.push_back(static_cast<std::uint8_t>(oid.size()));
  for (std::uint32_t arc : oid) {
    Put32Le(&out, arc);
  }
  return out;
}

bool DecodeRequest(const Bytes& in, std::uint32_t* xid, bool* getnext, Oid* oid) {
  if (in.size() < 6) {
    return false;
  }
  *xid = Get32Le(in, 0);
  *getnext = in[4] == 1;
  const std::size_t n = in[5];
  if (in.size() < 6 + 4 * n) {
    return false;
  }
  oid->clear();
  for (std::size_t i = 0; i < n; ++i) {
    oid->push_back(Get32Le(in, 6 + 4 * i));
  }
  return true;
}

Bytes EncodeReply(std::uint32_t xid, std::uint8_t status, const Oid& oid,
                  const std::string& value) {
  Bytes out;
  Put32Le(&out, xid);
  out.push_back(status);
  out.push_back(static_cast<std::uint8_t>(oid.size()));
  for (std::uint32_t arc : oid) {
    Put32Le(&out, arc);
  }
  out.insert(out.end(), value.begin(), value.end());
  return out;
}

bool DecodeReply(ByteView in, std::uint32_t* xid, std::uint8_t* status, Oid* oid,
                 std::string* value) {
  if (in.size() < 6) {
    return false;
  }
  *xid = Get32Le(in, 0);
  *status = in[4];
  const std::size_t n = in[5];
  if (in.size() < 6 + 4 * n) {
    return false;
  }
  oid->clear();
  for (std::size_t i = 0; i < n; ++i) {
    oid->push_back(Get32Le(in, 6 + 4 * i));
  }
  value->assign(in.begin() + static_cast<std::ptrdiff_t>(6 + 4 * n), in.end());
  return true;
}

}  // namespace

// --- SnmpAgent -------------------------------------------------------------------

SnmpAgent::SnmpAgent(Kernel& kernel, MibStore* mib)
    : kernel_(kernel),
      mib_(mib),
      f_snmp_input_(kernel.instr().Find("snmp_input") != nullptr
                        ? kernel.instr().Find("snmp_input")
                        : kernel.instr().RegisterFunction("snmp_input", Subsys::kUser)),
      f_mib_lookup_(kernel.instr().Find("mib_lookup") != nullptr
                        ? kernel.instr().Find("mib_lookup")
                        : kernel.instr().RegisterFunction("mib_lookup", Subsys::kUser)),
      f_snmp_encode_(kernel.instr().Find("snmp_encode") != nullptr
                         ? kernel.instr().Find("snmp_encode")
                         : kernel.instr().RegisterFunction("snmp_encode", Subsys::kUser)) {
  HWPROF_CHECK(mib != nullptr);
}

std::vector<Oid> SnmpAgent::PopulateStandardMib(MibStore* mib, std::size_t n) {
  // ifTable-style rows: 1.3.6.1.2.1.2.2.1.<col>.<ifIndex>.
  std::vector<Oid> oids;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t column = 1 + static_cast<std::uint32_t>(i % 22);
    const std::uint32_t if_index = 1 + static_cast<std::uint32_t>(i / 22);
    const Oid oid{1, 3, 6, 1, 2, 1, 2, 2, 1, column, if_index};
    mib->Insert(oid, StrFormat("val-%zu", i));
    oids.push_back(oid);
  }
  return oids;
}

void SnmpAgent::Serve(UserEnv& env) {
  const int fd = env.Socket(/*tcp=*/false);
  HWPROF_CHECK(fd >= 0);
  HWPROF_CHECK(env.Bind(fd, kSnmpPort));
  while (!kernel_.stopping()) {
    Bytes request;
    const long n = env.Recv(fd, 512, &request);
    if (n <= 0) {
      break;
    }
    HandleRequest(env, fd, request);
  }
}

void SnmpAgent::HandleRequest(UserEnv& env, int fd, const Bytes& request) {
  (void)env;
  KPROF(kernel_, f_snmp_input_);
  kernel_.cpu().Use(30 * kMicrosecond);  // PDU parse
  ++stats_.requests;

  std::uint32_t xid = 0;
  bool getnext = false;
  Oid oid;
  if (!DecodeRequest(request, &xid, &getnext, &oid)) {
    return;
  }

  const MibEntry* entry = nullptr;
  {
    KPROF(kernel_, f_mib_lookup_);
    const std::uint64_t before = mib_->comparisons();
    entry = getnext ? mib_->GetNext(oid) : mib_->Get(oid);
    const std::uint64_t comparisons = mib_->comparisons() - before;
    stats_.comparisons += comparisons;
    // The cost of the lookup is exactly what the data structure did.
    kernel_.cpu().Use(10 * kMicrosecond + comparisons * kOidCompareCost);
  }

  Bytes reply;
  {
    KPROF(kernel_, f_snmp_encode_);
    kernel_.cpu().Use(25 * kMicrosecond);
    if (entry == nullptr) {
      ++stats_.not_found;
      reply = EncodeReply(xid, 1, oid, "");
    } else {
      reply = EncodeReply(xid, 0, entry->oid, entry->value);
    }
  }

  // Reply to the requesting station.
  OpenFile* file = kernel_.curproc()->fds[static_cast<std::size_t>(fd)].get();
  Socket* so = file->socket.get();
  kernel_.net().UdpOutput(*so, so->last_from_addr, so->last_from_port, reply);
  ++stats_.replies;
}

// --- SnmpClientHost ------------------------------------------------------------------

SnmpClientHost::SnmpClientHost(Machine& machine, EtherSegment& wire, std::vector<Oid> oids,
                               std::uint64_t seed)
    : machine_(machine), wire_(wire), oids_(std::move(oids)), rng_(seed) {
  HWPROF_CHECK(!oids_.empty());
  wire.Attach(this);
}

void SnmpClientHost::Start(std::uint32_t total) {
  total_ = total;
  SendNext();
}

void SnmpClientHost::SendNext() {
  if (sent_ >= total_) {
    done_ = true;
    return;
  }
  ++sent_;
  ++xid_;
  outstanding_oid_ = oids_[rng_.NextBelow(oids_.size())];
  sent_at_ = machine_.Now();

  IpHeader ih;
  ih.proto = kIpProtoUdp;
  ih.src = kSenderIpAddr;
  ih.dst = kPcIpAddr;
  ih.id = ip_id_++;
  UdpHeader uh;
  uh.sport = 1024;
  uh.dport = kSnmpPort;
  uh.has_checksum = false;
  const Bytes dgram = BuildUdpDatagram(ih, uh, EncodeRequest(xid_, false, outstanding_oid_));
  EtherHeader eh;
  eh.src = kSenderNodeId;
  eh.dst = kPcNodeId;
  wire_.Transmit(kSenderNodeId, BuildEtherFrame(eh, BuildIpPacket(ih, dgram)));

  // Retry if the agent stalls (it should not, but the wire drops on ring
  // overrun).
  const std::uint32_t expected = xid_;
  machine_.events().ScheduleAt(machine_.Now() + 500 * kMillisecond, [this, expected] {
    if (!done_ && xid_ == expected && received_ < sent_) {
      // No reply for the current xid yet: ask again (fresh xid).
      --sent_;
      SendNext();
    }
  });
}

void SnmpClientHost::OnFrame(Bytes frame) {
  EtherHeader eh;
  ByteView ip_packet;
  if (!ParseEtherFrame(frame, &eh, &ip_packet) || eh.type != kEtherTypeIp) {
    return;
  }
  IpHeader ih;
  ByteView ip_payload;
  if (!ParseIpPacket(ip_packet, &ih, &ip_payload) || ih.dst != kSenderIpAddr ||
      ih.proto != kIpProtoUdp) {
    return;
  }
  UdpHeader uh;
  ByteView reply;
  bool cksum_ok = false;
  if (!ParseUdpDatagram(ih, ip_payload, &uh, &reply, &cksum_ok) || uh.sport != kSnmpPort) {
    return;
  }
  std::uint32_t xid = 0;
  std::uint8_t status = 0;
  Oid oid;
  std::string value;
  if (!DecodeReply(reply, &xid, &status, &oid, &value) || xid != xid_) {
    return;
  }
  ++received_;
  rtt_sum_ += machine_.Now() - sent_at_;
  // Verify: the reply must name the asked OID with the agent's value.
  if (status != 0 || CompareOid(oid, outstanding_oid_) != 0 || value.rfind("val-", 0) != 0) {
    ++mismatches_;
  }
  SendNext();
}

}  // namespace hwprof
