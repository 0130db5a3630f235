// NFS-lite: an RPC-over-UDP file client and a remote server host model.
//
// The paper's filesystem study observes that, with UDP checksums off (the
// era's default for NFS) and in_cksum being the second-biggest CPU burner,
// NFS transfers actually *beat* FTP-style TCP transfers on this hardware.
// This module reproduces that comparison: nfs_read issues READ RPCs over
// the same wire and driver the TCP path uses, minus the checksum work.
//
// RPC wire format (all little-endian):
//   request:  [xid u32][op u8][fh u32][off u32][len u32][payload...]
//   reply:    [xid u32][status u8][data...]

#ifndef HWPROF_SRC_KERN_NFS_H_
#define HWPROF_SRC_KERN_NFS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "src/instr/instrumenter.h"
#include "src/kern/net.h"
#include "src/kern/net_wire.h"

namespace hwprof {

class Kernel;

inline constexpr std::uint16_t kNfsPort = 2049;
inline constexpr std::uint16_t kNfsClientPort = 1023;
inline constexpr std::size_t kNfsMaxIo = 8192;  // bytes per READ/WRITE RPC (rsize)

enum class NfsOp : std::uint8_t { kRead = 1, kWrite = 2, kGetSize = 3 };

// The remote NFS server: owns an in-memory export and answers RPCs after a
// modelled service delay (its own disk/cache). Attached to the wire like
// any other station; costs the PC nothing.
class NfsServerHost : public EtherNode {
 public:
  NfsServerHost(Machine& machine, EtherSegment& wire);

  std::uint8_t node_id() const override { return kNfsServerNodeId; }
  void OnFrame(Bytes frame) override;

  // Export management (fh is returned to clients via fixed assignment).
  std::uint32_t Export(const std::string& name, Bytes contents);
  const Bytes& Contents(std::uint32_t fh) const;

  // Server-side service time per RPC (cache-warm by default).
  void SetServiceDelay(Nanoseconds delay) { service_delay_ = delay; }

  // Whether replies carry UDP checksums (off in the era's deployments; the
  // client pays in_cksum on every data reply when on).
  void SetUseChecksums(bool on) { use_checksums_ = on; }

  std::uint64_t rpcs_served() const { return rpcs_served_; }

 private:
  void Reply(std::uint32_t xid, std::uint8_t status, const Bytes& data,
             std::uint16_t client_port);

  Machine& machine_;
  EtherSegment& wire_;
  std::map<std::uint32_t, Bytes> files_;
  // Fragment reassembly for large WRITE requests (keyed by IP id).
  struct Frag {
    Bytes data;
    std::size_t received = 0;
    bool have_last = false;
    std::size_t total = 0;
  };
  std::map<std::uint32_t, Frag> frags_;
  std::uint32_t next_fh_ = 1;
  Nanoseconds service_delay_ = 2 * kMillisecond;
  bool use_checksums_ = false;
  std::uint64_t rpcs_served_ = 0;
  std::uint16_t ip_id_ = 1;
};

// Kernel-side NFS client.
class Nfs {
 public:
  Nfs(Kernel& kernel, NetStack& net);
  Nfs(const Nfs&) = delete;
  Nfs& operator=(const Nfs&) = delete;

  // Binds the client socket (call once, from a process context, after boot).
  void Init();

  // nfs_read: fetches [off, off+len) of remote file `fh`; blocks the caller
  // through the RPC round trip. Returns bytes read or -1 on error/timeout.
  long Read(std::uint32_t fh, std::uint32_t off, std::uint32_t len, Bytes* out);

  // nfs_write: writes `data` at `off`. Returns bytes written or -1.
  long Write(std::uint32_t fh, std::uint32_t off, const Bytes& data);

  std::uint64_t rpcs_sent() const { return rpcs_sent_; }
  std::uint64_t timeouts() const { return timeouts_; }

 private:
  // nfs_request: send one RPC and await the matching reply.
  bool Request(NfsOp op, std::uint32_t fh, std::uint32_t off, std::uint32_t len,
               const Bytes& payload, Bytes* reply_data);

  Kernel& kernel_;
  NetStack& net_;
  std::shared_ptr<Socket> so_;
  std::uint32_t next_xid_ = 1;
  std::uint64_t rpcs_sent_ = 0;
  std::uint64_t timeouts_ = 0;

  FuncInfo* f_nfs_read_;
  FuncInfo* f_nfs_write_;
  FuncInfo* f_nfs_request_;
  FuncInfo* f_nfsm_rpchead_;
  FuncInfo* f_nfs_reply_;
};

}  // namespace hwprof

#endif  // HWPROF_SRC_KERN_NFS_H_
