// Event RAM bank of the Profiler: 40-bit-wide words behind an
// auto-incrementing address counter.
//
// The prototype is 16384 events deep ("no inherent limit to the total number
// of events stored except the maximum amount of memory designed into the
// Profiler"), so depth is a constructor parameter. When the address counter
// overflows, the board latches the overflow condition and refuses further
// stores — the second LED.

#ifndef HWPROF_SRC_PROFHW_EVENT_RAM_H_
#define HWPROF_SRC_PROFHW_EVENT_RAM_H_

#include <cstdint>
#include <vector>

#include "src/profhw/raw_trace.h"

namespace hwprof {

inline constexpr std::size_t kDefaultEventRamDepth = 16384;

class EventRam {
 public:
  explicit EventRam(std::size_t depth = kDefaultEventRamDepth);

  std::size_t depth() const { return depth_; }
  std::size_t used() const { return words_.size(); }
  bool full() const { return words_.size() >= depth_; }
  bool overflowed() const { return overflowed_; }

  // Stores one event word. Returns false (and latches overflow) once full,
  // or (without latching) while sealed.
  bool Store(std::uint16_t tag, std::uint32_t timestamp) {
    if (sealed_) {
      return false;
    }
    if (words_.size() >= depth_) {
      overflowed_ = true;
      return false;
    }
    words_.push_back(RawEvent{tag, timestamp});
    return true;
  }

  // Clears contents, the address counter, and the overflow and seal latches.
  void Reset();

  // Seal latch (the streaming upgrade): a sealed bank is disconnected from
  // the capture path — it holds a finished capture awaiting drain. Sealing
  // does not latch overflow; the board-level logic decides what a refused
  // store means (bank swap or drop).
  void Seal() { sealed_ = true; }
  bool sealed() const { return sealed_; }

  // Battery-backed readout: the stored words in address order.
  const std::vector<RawEvent>& Contents() const { return words_; }

 private:
  std::size_t depth_;
  bool overflowed_ = false;
  bool sealed_ = false;
  std::vector<RawEvent> words_;
};

}  // namespace hwprof

#endif  // HWPROF_SRC_PROFHW_EVENT_RAM_H_
