#include "src/profhw/profiler.h"

#include <algorithm>

#include "src/base/assert.h"
#include "src/obs/telemetry.h"

namespace hwprof {

Profiler::Profiler(ProfilerConfig config)
    : timer_(config.timer_bits, config.timer_clock_hz),
      ram_(config.ram_depth),
      ram_b_(config.ram_depth),
      double_buffer_(config.double_buffer) {}

void Profiler::PlugInto(IsaBus& bus) { bus.AddTapListener(this); }

void Profiler::Unplug(IsaBus& bus) { bus.RemoveTapListener(this); }

void Profiler::Arm() {
  ram_.Reset();
  ram_b_.Reset();
  active_ = 0;
  sealed_ = -1;
  drops_before_[0] = 0;
  drops_before_[1] = 0;
  pending_drops_ = 0;
  total_captured_ = 0;
  dropped_ = 0;
  bank_switches_ = 0;
  drain_cursor_ = 0;
  armed_ = true;
}

void Profiler::Disarm() { armed_ = false; }

bool Profiler::led_active() const {
  if (double_buffer_) {
    return armed_;
  }
  return armed_ && !ram_.overflowed();
}

bool Profiler::led_overflow() const {
  return double_buffer_ ? dropped_ > 0 : ram_.overflowed();
}

std::size_t Profiler::events_captured() const {
  return double_buffer_ ? ram_.used() + ram_b_.used() : ram_.used();
}

void Profiler::SealActiveAndSwap() {
  HWPROF_CHECK(sealed_ < 0);
  bank(active_).Seal();
  OBS_COUNT("profhw.bank_swaps", 1);
  OBS_COUNT("profhw.sealed_events", bank(active_).used());
  sealed_ = active_;
  active_ = 1 - active_;
  bank(active_).Reset();
  drops_before_[active_] =
      static_cast<std::uint32_t>(pending_drops_ > 0xFFFFFFFFull ? 0xFFFFFFFFull
                                                                : pending_drops_);
  pending_drops_ = 0;
  drain_cursor_ = 0;
  ++bank_switches_;
}

void Profiler::DropEvent() {
  // Both banks hold data: the drain lost the race. Count the loss.
  ++dropped_;
  ++pending_drops_;
  OBS_COUNT("profhw.drops", 1);
}

void Profiler::EnterReadoutMode(ReadoutBank bank) {
  HWPROF_CHECK_MSG(!double_buffer_,
                   "double-buffered boards stream through the drain ports");
  armed_ = false;
  readout_ = true;
  readout_bank_ = bank;
}

void Profiler::ExitReadoutMode() { readout_ = false; }

bool Profiler::ProvideDrainData(std::uint16_t addr_lines, std::uint8_t* data) {
  const EventRam* sealed_bank = sealed_ >= 0 ? &bank(sealed_) : nullptr;
  if (addr_lines == kDrainStatusPort) {
    std::uint8_t status = 0;
    if (sealed_bank != nullptr) {
      status |= kDrainStatusReady;
    }
    if (armed_) {
      status |= kDrainStatusArmed;
    }
    if (dropped_ > 0) {
      status |= kDrainStatusDropped;
    }
    *data = status;
    return true;
  }
  if (addr_lines >= kDrainCountPort && addr_lines < kDrainCountPort + 4) {
    const auto count =
        static_cast<std::uint32_t>(sealed_bank != nullptr ? sealed_bank->used() : 0);
    *data = static_cast<std::uint8_t>((count >> (8 * (addr_lines - kDrainCountPort))) & 0xFF);
    return true;
  }
  if (addr_lines >= kDrainDropPort && addr_lines < kDrainDropPort + 4) {
    const std::uint32_t drops = sealed_bank != nullptr ? drops_before_[sealed_] : 0;
    *data = static_cast<std::uint8_t>((drops >> (8 * (addr_lines - kDrainDropPort))) & 0xFF);
    return true;
  }
  if (addr_lines == kDrainDataPort) {
    // Past the end, or with nothing sealed: floating bus.
    return sealed_bank != nullptr && CopyDrainBytes(data, 1) == 1;
  }
  if (addr_lines == kDrainReleasePort) {
    if (sealed_bank != nullptr) {
      bank(sealed_).Reset();
      sealed_ = -1;
      drain_cursor_ = 0;
    }
    *data = kDrainAck;
    return true;
  }
  if (addr_lines == kDrainSealPort) {
    if (sealed_ < 0 && bank(active_).used() > 0) {
      SealActiveAndSwap();
    }
    *data = kDrainAck;
    return true;
  }
  return false;
}

std::size_t Profiler::CopyDrainBytes(std::uint8_t* data, std::size_t n) {
  const std::vector<RawEvent>& events = bank(sealed_).Contents();
  const std::size_t tag_bytes = events.size() * 2;
  const std::size_t end = std::min(tag_bytes + events.size() * 3, drain_cursor_ + n);
  const std::size_t tag_end = std::min(end, tag_bytes);
  auto byte_at = [&](std::size_t pos) {
    if (pos < tag_bytes) {
      return static_cast<std::uint8_t>(events[pos / 2].tag >> (8 * (pos % 2)));
    }
    const std::size_t off = pos - tag_bytes;
    return static_cast<std::uint8_t>(events[off / 3].timestamp >> (8 * (off % 3)));
  };
  // Whole fields go a field at a time; a span's ragged ends a byte at a time.
  std::size_t pos = drain_cursor_;
  if (pos < tag_end && pos % 2 != 0) {
    *data++ = byte_at(pos++);
  }
  for (; pos + 2 <= tag_end; pos += 2) {
    const std::uint16_t tag = events[pos / 2].tag;
    *data++ = static_cast<std::uint8_t>(tag);
    *data++ = static_cast<std::uint8_t>(tag >> 8);
  }
  while (pos < end && (pos < tag_bytes || (pos - tag_bytes) % 3 != 0)) {
    *data++ = byte_at(pos++);
  }
  for (; pos + 3 <= end; pos += 3) {
    const std::uint32_t timestamp = events[(pos - tag_bytes) / 3].timestamp;
    *data++ = static_cast<std::uint8_t>(timestamp);
    *data++ = static_cast<std::uint8_t>(timestamp >> 8);
    *data++ = static_cast<std::uint8_t>(timestamp >> 16);
  }
  while (pos < end) {
    *data++ = byte_at(pos++);
  }
  const std::size_t copied = pos - drain_cursor_;
  drain_cursor_ = pos;
  return copied;
}

void Profiler::OnEpromReadSpan(std::uint16_t addr_lines, Nanoseconds now, std::uint8_t* data,
                               std::size_t n) {
  if (!double_buffer_ || addr_lines != kDrainDataPort) {
    EpromTapListener::OnEpromReadSpan(addr_lines, now, data, n);
    return;
  }
  // A15 is high, so no byte of the span latches an event; bytes past the end
  // keep the floating-bus value the bus filled in.
  if (sealed_ >= 0) {
    CopyDrainBytes(data, n);
  }
}

bool Profiler::ProvideEpromData(std::uint16_t addr_lines, std::uint8_t* data) {
  if (double_buffer_) {
    if (addr_lines < kDrainWindowBase) {
      return false;  // trigger window: nothing drives the data lines
    }
    return ProvideDrainData(addr_lines, data);
  }
  if (!readout_) {
    return false;
  }
  const std::vector<RawEvent>& events = ram_.Contents();
  const std::size_t off = addr_lines;
  if (readout_bank_ == ReadoutBank::kTags) {
    if (off < 4) {
      const auto count = static_cast<std::uint32_t>(events.size());
      *data = static_cast<std::uint8_t>((count >> (8 * off)) & 0xFF);
      return true;
    }
    const std::size_t index = (off - 4) / 2;
    if (index >= events.size()) {
      return false;
    }
    const std::uint16_t tag = events[index].tag;
    *data = static_cast<std::uint8_t>((tag >> (8 * ((off - 4) % 2))) & 0xFF);
    return true;
  }
  const std::size_t index = off / 3;
  if (index >= events.size()) {
    return false;
  }
  const std::uint32_t timestamp = events[index].timestamp;
  *data = static_cast<std::uint8_t>((timestamp >> (8 * (off % 3))) & 0xFF);
  return true;
}

RawTrace Profiler::Upload() const {
  RawTrace trace;
  trace.timer_bits = timer_.bits();
  trace.timer_clock_hz = timer_.clock_hz();
  if (double_buffer_) {
    if (sealed_ >= 0) {
      const auto& old_events = bank(sealed_).Contents();
      trace.events.insert(trace.events.end(), old_events.begin(), old_events.end());
    }
    const auto& live = bank(active_).Contents();
    trace.events.insert(trace.events.end(), live.begin(), live.end());
    // Dropping events (LED 2 in double-buffer mode) is not the same
    // condition as storing having stopped: capture continued past every
    // drop, so the trace is gappy, not truncated. Report the two
    // separately instead of folding both into one bit.
    trace.overflowed = false;
    trace.dropped_events = dropped_;
    return trace;
  }
  trace.events = ram_.Contents();
  trace.overflowed = ram_.overflowed();
  return trace;
}

}  // namespace hwprof
