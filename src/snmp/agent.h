// SNMP-lite agent and client host for the Megadata case study.
//
// The agent runs as a process on the simulated kernel, serving GET/GETNEXT
// requests from a remote management station over UDP port 161. Its lookup
// path is instrumented (snmp_input / mib_lookup / snmp_encode), and the
// lookup *cost* is driven by the comparison count the chosen MibStore
// actually performed — so swapping LinearMib for BTreeMib changes the
// profile for the same reason it did in 1993.
//
// Request wire format (little-endian):
//   [xid u32][op u8: 0=GET 1=GETNEXT][n u8][n x u32 oid arcs]
// Reply:
//   [xid u32][status u8][n u8][oid arcs...][value bytes]

#ifndef HWPROF_SRC_SNMP_AGENT_H_
#define HWPROF_SRC_SNMP_AGENT_H_

#include <cstdint>
#include <memory>

#include "src/base/rng.h"
#include "src/instr/instrumenter.h"
#include "src/kern/net.h"
#include "src/kern/net_wire.h"
#include "src/kern/user_env.h"
#include "src/snmp/mib.h"

namespace hwprof {

class Kernel;

inline constexpr std::uint16_t kSnmpPort = 161;
// One OID comparison costs a few instructions per arc; the dominant term
// the paper measured. Charged per comparison reported by the MibStore.
inline constexpr Nanoseconds kOidCompareCost = 2 * kMicrosecond;

struct SnmpAgentStats {
  std::uint64_t requests = 0;
  std::uint64_t replies = 0;
  std::uint64_t not_found = 0;
  std::uint64_t comparisons = 0;
};

class SnmpAgent {
 public:
  // The agent serves from `mib` (caller owns) on `kernel`'s UDP stack.
  SnmpAgent(Kernel& kernel, MibStore* mib);
  SnmpAgent(const SnmpAgent&) = delete;
  SnmpAgent& operator=(const SnmpAgent&) = delete;

  // Populates `mib` with `n` interface-table-style entries; returns the set
  // of OIDs installed (for clients and verification).
  static std::vector<Oid> PopulateStandardMib(MibStore* mib, std::size_t n);

  // The agent main loop; runs until the kernel stops. Call from a spawned
  // process.
  void Serve(UserEnv& env);

  const SnmpAgentStats& stats() const { return stats_; }

 private:
  void HandleRequest(UserEnv& env, int fd, const Bytes& request);

  Kernel& kernel_;
  MibStore* mib_;
  SnmpAgentStats stats_;
  FuncInfo* f_snmp_input_;
  FuncInfo* f_mib_lookup_;
  FuncInfo* f_snmp_encode_;
};

// The remote management station: fires GET/GETNEXT requests at the PC and
// verifies every reply against its own copy of the MIB.
class SnmpClientHost : public EtherNode {
 public:
  SnmpClientHost(Machine& machine, EtherSegment& wire, std::vector<Oid> oids,
                 std::uint64_t seed);

  std::uint8_t node_id() const override { return kSenderNodeId; }
  void OnFrame(Bytes frame) override;

  // Starts firing `total` requests, a new one per reply (plus a retry timer).
  void Start(std::uint32_t total);

  std::uint64_t sent() const { return sent_; }
  std::uint64_t received() const { return received_; }
  std::uint64_t mismatches() const { return mismatches_; }
  bool done() const { return done_; }
  // Mean round-trip time of answered requests.
  Nanoseconds MeanRtt() const { return received_ > 0 ? rtt_sum_ / received_ : 0; }

 private:
  void SendNext();

  Machine& machine_;
  EtherSegment& wire_;
  std::vector<Oid> oids_;
  Rng rng_;
  std::uint32_t total_ = 0;
  std::uint64_t sent_ = 0;
  std::uint64_t received_ = 0;
  std::uint64_t mismatches_ = 0;
  bool done_ = false;
  std::uint32_t xid_ = 1;
  Oid outstanding_oid_;
  Nanoseconds sent_at_ = 0;
  Nanoseconds rtt_sum_ = 0;
  std::uint16_t ip_id_ = 1;
};

}  // namespace hwprof

#endif  // HWPROF_SRC_SNMP_AGENT_H_
