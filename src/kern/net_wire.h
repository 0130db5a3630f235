// The shared 10 Mb/s Ethernet segment connecting the simulated PC to remote
// host models (the Sparcstation traffic source, the NFS server).
//
// The medium serializes transmissions: a frame occupies the wire for
// inter-frame gap + bytes × 800 ns, then is delivered to every other
// attached node. Collisions are not modelled (two-node segments in all the
// paper's experiments).

#ifndef HWPROF_SRC_KERN_NET_WIRE_H_
#define HWPROF_SRC_KERN_NET_WIRE_H_

#include <cstdint>
#include <vector>

#include "src/kern/net_pkt.h"
#include "src/sim/machine.h"

namespace hwprof {

class EtherSegment;

class EtherNode {
 public:
  EtherNode() = default;
  EtherNode(const EtherNode&) = delete;
  EtherNode& operator=(const EtherNode&) = delete;
  // Detaches from the segment, so a destroyed host is never delivered a
  // frame — not even one already on the wire.
  virtual ~EtherNode();
  // Node id = the low byte of the station's MAC address.
  virtual std::uint8_t node_id() const = 0;
  // Called at frame delivery time (end of the frame on the wire), with the
  // node's own copy of the frame to keep or drop. Must not attach or detach
  // nodes.
  virtual void OnFrame(Bytes frame) = 0;

 private:
  friend class EtherSegment;
  EtherSegment* segment_ = nullptr;  // the segment attached to, if any
};

class EtherSegment {
 public:
  explicit EtherSegment(Machine& machine);
  EtherSegment(const EtherSegment&) = delete;
  EtherSegment& operator=(const EtherSegment&) = delete;
  // Releases the nodes still attached (they may outlive the segment).
  ~EtherSegment();

  // A node is attached to at most one segment at a time.
  void Attach(EtherNode* node);
  // Stops delivering frames to `node`, including frames already in flight.
  // A node not attached here is ignored.
  void Detach(EtherNode* node);

  // Queues `frame` for transmission from `sender`. The frame goes on the
  // wire as soon as the medium is free and is delivered to all other nodes
  // when fully transmitted; the last of them receives the frame itself, so a
  // frame with one receiver is never copied. Returns the delivery
  // (end-of-frame) time.
  Nanoseconds Transmit(std::uint8_t sender, Bytes frame);

  // Earliest time the medium is free.
  Nanoseconds FreeAt() const { return busy_until_; }

  std::uint64_t frames_carried() const { return frames_carried_; }
  std::uint64_t bytes_carried() const { return bytes_carried_; }

 private:
  Machine& machine_;
  std::vector<EtherNode*> nodes_;
  Nanoseconds busy_until_ = 0;
  std::uint64_t frames_carried_ = 0;
  std::uint64_t bytes_carried_ = 0;
};

}  // namespace hwprof

#endif  // HWPROF_SRC_KERN_NET_WIRE_H_
