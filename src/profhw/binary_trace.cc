#include "src/profhw/binary_trace.h"

#include <cstring>
#include <limits>

#include "src/base/crc32.h"
#include "src/base/strings.h"
#include "src/obs/telemetry.h"

namespace hwprof {

namespace {

void AppendLe32(std::string* out, std::uint32_t v) {
  out->push_back(static_cast<char>(v & 0xFF));
  out->push_back(static_cast<char>((v >> 8) & 0xFF));
  out->push_back(static_cast<char>((v >> 16) & 0xFF));
  out->push_back(static_cast<char>((v >> 24) & 0xFF));
}

void AppendLe64(std::string* out, std::uint64_t v) {
  AppendLe32(out, static_cast<std::uint32_t>(v & 0xFFFFFFFFu));
  AppendLe32(out, static_cast<std::uint32_t>(v >> 32));
}

std::uint32_t ReadLe32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint64_t ReadLe64(const unsigned char* p) {
  return static_cast<std::uint64_t>(ReadLe32(p)) |
         (static_cast<std::uint64_t>(ReadLe32(p + 4)) << 32);
}

void AppendVarint(std::string* out, std::uint32_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>(0x80 | (v & 0x7F)));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

// The SoA decode inner loop: record_count (tag, delta) varint pairs from
// `p[0, n)` into flat tag/timestamp columns, prefix-summing the mod-2^32
// deltas as it goes. Returns the number of COMPLETE records decoded (a
// malformed or out-of-bytes varint stops early); *consumed is the byte
// position after the last complete record.
std::size_t DecodeRecordsSoA(const unsigned char* p, std::size_t n,
                             std::size_t want, std::vector<std::uint16_t>* tags,
                             std::vector<std::uint32_t>* timestamps,
                             std::size_t* consumed) {
  tags->resize(want);
  timestamps->resize(want);
  std::uint16_t* tag_out = tags->data();
  std::uint32_t* ts_out = timestamps->data();
  std::size_t i = 0;
  std::uint32_t prev = 0;
  std::size_t k = 0;
  // Fast path: a record is at most 8 bytes (3-byte tag + 5-byte delta), so
  // while 8+ bytes remain no per-byte bounds checks are needed. Anything
  // malformed falls through unconsumed to the careful loop below, which
  // rejects it with `i` parked at the record start, exactly as before.
  while (k < want && n - i >= 8) {
    std::size_t j = i;
    std::uint32_t tag = p[j++];
    if (tag >= 0x80) {
      const std::uint32_t b1 = p[j++];
      tag = (tag & 0x7F) | ((b1 & 0x7F) << 7);
      if (b1 >= 0x80) {
        const std::uint32_t b2 = p[j++];
        tag |= (b2 & 0x7F) << 14;
        if (b2 >= 0x80 || tag > 0xFFFF) {
          break;
        }
      }
    }
    std::uint32_t delta = p[j++];
    if (delta >= 0x80) {
      delta &= 0x7F;
      unsigned shift = 7;
      bool ok = false;
      while (shift <= 28) {
        const std::uint32_t b = p[j++];
        if (shift == 28 && (b & 0x80) != 0) {
          break;  // a 6th continuation byte cannot encode a u32
        }
        delta |= (b & 0x7F) << shift;
        if ((b & 0x80) == 0) {
          ok = true;
          break;
        }
        shift += 7;
      }
      if (!ok) {
        break;
      }
    }
    prev += delta;  // u32 arithmetic: mod 2^32 by construction
    tag_out[k] = static_cast<std::uint16_t>(tag);
    ts_out[k] = prev;
    ++k;
    i = j;
  }
  for (; k < want; ++k) {
    const std::size_t record_start = i;
    // Tag: <= 16 bits, so at most 3 varint bytes.
    if (i >= n) {
      break;
    }
    std::uint32_t tag = p[i++];
    if (tag >= 0x80) {
      tag &= 0x7F;
      unsigned shift = 7;
      bool ok = false;
      while (i < n && shift <= 14) {
        const std::uint32_t b = p[i++];
        tag |= (b & 0x7F) << shift;
        if ((b & 0x80) == 0) {
          ok = true;
          break;
        }
        shift += 7;
      }
      if (!ok || tag > 0xFFFF) {
        i = record_start;
        break;
      }
    }
    // Timestamp delta: 32 bits, at most 5 varint bytes.
    if (i >= n) {
      i = record_start;
      break;
    }
    std::uint32_t delta = p[i++];
    if (delta >= 0x80) {
      delta &= 0x7F;
      unsigned shift = 7;
      bool ok = false;
      while (i < n && shift <= 28) {
        const std::uint32_t b = p[i++];
        if (shift == 28 && (b & 0x80) != 0) {
          break;  // a 6th continuation byte cannot encode a u32
        }
        delta |= (b & 0x7F) << shift;
        if ((b & 0x80) == 0) {
          ok = true;
          break;
        }
        shift += 7;
      }
      if (!ok) {
        i = record_start;
        break;
      }
    }
    prev += delta;  // u32 arithmetic: mod 2^32 by construction
    tag_out[k] = static_cast<std::uint16_t>(tag);
    ts_out[k] = prev;
  }
  tags->resize(k);
  timestamps->resize(k);
  *consumed = i;
  return k;
}

std::string EncodeFileHeader(BinaryKind kind, unsigned timer_bits,
                             std::uint64_t timer_clock_hz, bool overflowed,
                             std::uint64_t dropped_events,
                             std::uint64_t capture_elapsed_ns) {
  std::string out(reinterpret_cast<const char*>(kBinaryMagic), 8);
  out.push_back(static_cast<char>(kBinaryVersion));
  out.push_back(static_cast<char>(kind));
  out.push_back(static_cast<char>(timer_bits));
  out.push_back(static_cast<char>(overflowed ? 1 : 0));
  AppendLe64(&out, timer_clock_hz);
  AppendLe64(&out, dropped_events);
  AppendLe64(&out, capture_elapsed_ns);
  AppendLe32(&out, Crc32(out.data() + 8, out.size() - 8));
  return out;
}

std::string EncodeChunk(const RawEvent* events, std::size_t count,
                        std::uint64_t dropped_before) {
  std::string payload;
  payload.reserve(count * 3);
  std::uint32_t prev = 0;
  for (std::size_t i = 0; i < count; ++i) {
    AppendVarint(&payload, events[i].tag);
    AppendVarint(&payload, events[i].timestamp - prev);  // mod 2^32
    prev = events[i].timestamp;
  }
  std::string out;
  out.reserve(kBinaryChunkHeaderSize + payload.size());
  AppendLe32(&out, kBinaryChunkMagic);
  AppendLe32(&out, static_cast<std::uint32_t>(count));
  AppendLe32(&out, static_cast<std::uint32_t>(payload.size()));
  AppendLe64(&out, dropped_before);
  std::uint32_t crc = Crc32Update(kCrc32Init, out.data() + 4, 16);
  crc = Crc32Update(crc, payload.data(), payload.size());
  AppendLe32(&out, Crc32Final(crc));
  out += payload;
  return out;
}

}  // namespace

bool LooksBinaryContainer(std::string_view bytes) {
  return bytes.size() >= 8 && std::memcmp(bytes.data(), kBinaryMagic, 8) == 0;
}

bool BinaryKindOf(std::string_view bytes, BinaryKind* kind) {
  if (!LooksBinaryContainer(bytes) || bytes.size() < 10) {
    return false;
  }
  const auto k = static_cast<unsigned char>(bytes[9]);
  if (k > 1) {
    return false;
  }
  *kind = static_cast<BinaryKind>(k);
  return true;
}

std::string EncodeCaptureBinary(const RawTrace& trace) {
  std::string out =
      EncodeFileHeader(BinaryKind::kCapture, trace.timer_bits, trace.timer_clock_hz,
                       trace.overflowed, trace.dropped_events,
                       trace.capture_elapsed_ns);
  for (std::size_t at = 0; at < trace.events.size();
       at += kBinaryCaptureChunkRecords) {
    const std::size_t n =
        std::min(kBinaryCaptureChunkRecords, trace.events.size() - at);
    out += EncodeChunk(trace.events.data() + at, n, 0);
  }
  return out;
}

std::string EncodeStreamHeaderBinary(unsigned timer_bits,
                                     std::uint64_t timer_clock_hz) {
  return EncodeFileHeader(BinaryKind::kStream, timer_bits, timer_clock_hz,
                          /*overflowed=*/false, 0, 0);
}

std::string EncodeStreamChunkBinary(const TraceChunk& chunk) {
  return EncodeChunk(chunk.events.data(), chunk.events.size(),
                     chunk.dropped_before);
}

std::string EncodeStreamBinary(const StreamCapture& stream) {
  std::string out =
      EncodeStreamHeaderBinary(stream.timer_bits, stream.timer_clock_hz);
  for (const TraceChunk& chunk : stream.chunks) {
    out += EncodeStreamChunkBinary(chunk);
  }
  return out;
}

// --- BinaryChunkReader -------------------------------------------------------

void BinaryChunkReader::Diag(std::size_t offset, std::string message) {
  const auto clamped = static_cast<int>(
      std::min<std::size_t>(offset, std::numeric_limits<int>::max()));
  diags_.push_back(TraceDiag{clamped, std::move(message)});
}

BinaryChunkReader::BinaryChunkReader(std::string_view bytes, bool salvage)
    : bytes_(bytes), salvage_(salvage) {
  if (bytes_.size() < kBinaryFileHeaderSize) {
    Diag(0, "file too short for an hwpb container header");
    return;
  }
  if (!LooksBinaryContainer(bytes_)) {
    Diag(0, "bad magic: not an hwpb binary container");
    return;
  }
  const auto* p = reinterpret_cast<const unsigned char*>(bytes_.data());
  if (p[8] != kBinaryVersion) {
    Diag(8, StrFormat("unsupported container version %u", p[8]));
    return;
  }
  if (p[9] > 1) {
    Diag(9, StrFormat("unknown container kind %u", p[9]));
    return;
  }
  if (p[10] < 8 || p[10] > 32) {
    Diag(10, StrFormat("timer width %u outside 8..32", p[10]));
    return;
  }
  const std::uint32_t stored_crc = ReadLe32(p + 36);
  if (Crc32(p + 8, 28) != stored_crc) {
    Diag(36, "file header CRC mismatch");
    return;
  }
  kind_ = static_cast<BinaryKind>(p[9]);
  timer_bits_ = p[10];
  overflowed_ = (p[11] & 1) != 0;
  timer_clock_hz_ = ReadLe64(p + 12);
  if (timer_clock_hz_ == 0) {
    Diag(12, "timer clock rate must be a positive number");
    return;
  }
  dropped_events_ = ReadLe64(p + 20);
  capture_elapsed_ns_ = ReadLe64(p + 28);
  timer_mask_ = TimerMaskFor(timer_bits_);
  pos_ = kBinaryFileHeaderSize;
  header_ok_ = true;
}

// Scans forward for the next chunk header that actually checks out (sane
// counts and either a passing CRC or a torn tail at EOF). Returns false when
// the rest of the file holds none.
bool BinaryChunkReader::ResyncScan() {
  const auto* base = reinterpret_cast<const unsigned char*>(bytes_.data());
  std::size_t q = pos_;
  while (q + kBinaryChunkHeaderSize <= bytes_.size()) {
    if (ReadLe32(base + q) != kBinaryChunkMagic) {
      ++q;
      continue;
    }
    const std::uint64_t record_count = ReadLe32(base + q + 4);
    const std::uint64_t payload_bytes = ReadLe32(base + q + 8);
    if (record_count * 2 > payload_bytes) {
      ++q;
      continue;
    }
    const std::size_t payload_start = q + kBinaryChunkHeaderSize;
    if (payload_start + payload_bytes > bytes_.size()) {
      // Torn-tail candidate: accept (the writer may be mid-append).
      break;
    }
    const std::uint32_t stored = ReadLe32(base + q + 20);
    std::uint32_t crc = Crc32Update(kCrc32Init, base + q + 4, 16);
    crc = Crc32Update(crc, base + payload_start, payload_bytes);
    if (Crc32Final(crc) == stored) {
      break;
    }
    ++q;
  }
  if (q + kBinaryChunkHeaderSize > bytes_.size()) {
    pos_ = bytes_.size();
    return false;
  }
  OBS_COUNT("socket.salvage_resyncs", 1);
  Diag(q, StrFormat("resynchronised at chunk header (skipped %zu bytes)",
                    q - pos_));
  pos_ = q;
  return true;
}

bool BinaryChunkReader::Next(SoaChunk* chunk) {
  const auto* base = reinterpret_cast<const unsigned char*>(bytes_.data());
  while (header_ok_ && !failed_ && !done_) {
    const std::size_t remaining = bytes_.size() - pos_;
    if (remaining == 0) {
      done_ = true;
      return false;
    }
    if (remaining < kBinaryChunkHeaderSize) {
      // A chunk header can only be partial at EOF: a torn write or a writer
      // caught mid-append.
      done_ = true;
      if (kind_ == BinaryKind::kStream) {
        truncated_tail_ = true;
        return false;
      }
      Diag(pos_, StrFormat("torn chunk header: %zu of %zu bytes", remaining,
                           kBinaryChunkHeaderSize));
      if (!salvage_) {
        failed_ = true;
        return false;
      }
      ++corrupt_words_;
      OBS_COUNT("socket.corrupt_lines", 1);
      return false;
    }
    if (ReadLe32(base + pos_) != kBinaryChunkMagic) {
      Diag(pos_, "expected a chunk header");
      if (!salvage_) {
        failed_ = true;
        return false;
      }
      ++corrupt_words_;
      OBS_COUNT("socket.corrupt_lines", 1);
      pos_ += 1;
      if (!ResyncScan()) {
        done_ = true;
        return false;
      }
      continue;
    }
    const std::uint32_t record_count = ReadLe32(base + pos_ + 4);
    const std::uint32_t payload_bytes = ReadLe32(base + pos_ + 8);
    const std::uint64_t dropped_before = ReadLe64(base + pos_ + 12);
    const std::uint32_t stored_crc = ReadLe32(base + pos_ + 20);
    const std::size_t payload_start = pos_ + kBinaryChunkHeaderSize;
    // Sanity: a record is at least two bytes (one varint byte each for tag
    // and delta), so an impossible record count means a damaged header.
    if (static_cast<std::uint64_t>(record_count) * 2 > payload_bytes) {
      Diag(pos_ + 4, StrFormat("impossible record count %lu for a %lu-byte payload",
                               static_cast<unsigned long>(record_count),
                               static_cast<unsigned long>(payload_bytes)));
      if (!salvage_) {
        failed_ = true;
        return false;
      }
      ++corrupt_words_;
      OBS_COUNT("socket.corrupt_lines", 1);
      pos_ += 4;  // keep the damaged header's own magic out of the scan
      if (!ResyncScan()) {
        done_ = true;
        return false;
      }
      continue;
    }
    if (payload_start + static_cast<std::size_t>(payload_bytes) > bytes_.size()) {
      // Payload runs past EOF. In salvage mode a later valid chunk proves the
      // length field itself was damaged; otherwise this is a torn tail.
      if (salvage_) {
        const std::size_t save = pos_;
        pos_ += 4;
        if (ResyncScan()) {
          // Remove the resync diag ordering confusion: note the cause first.
          Diag(save + 8, "chunk payload length runs past a later valid chunk");
          ++corrupt_words_;
          OBS_COUNT("socket.corrupt_lines", 1);
          continue;
        }
        pos_ = save;
      }
      const std::size_t avail = bytes_.size() - payload_start;
      std::size_t consumed = 0;
      const std::size_t decoded =
          DecodeRecordsSoA(base + payload_start, avail, record_count,
                           &chunk->tags, &chunk->timestamps, &consumed);
      chunk->dropped_before = dropped_before;
      done_ = true;
      if (kind_ == BinaryKind::kStream) {
        truncated_tail_ = true;  // complete records stand; the tail isn't
                                 // there yet (mid-record --follow case)
        OBS_COUNT("socket.dropped_events", dropped_before);
        return true;
      }
      Diag(payload_start,
           StrFormat("torn chunk payload: %zu of %lu bytes (%zu of %lu records)",
                     avail, static_cast<unsigned long>(payload_bytes), decoded,
                     static_cast<unsigned long>(record_count)));
      if (!salvage_) {
        failed_ = true;
        return false;
      }
      corrupt_words_ += record_count - decoded;
      OBS_COUNT("socket.corrupt_lines", record_count - decoded);
      return true;
    }
    std::uint32_t crc = Crc32Update(kCrc32Init, base + pos_ + 4, 16);
    crc = Crc32Update(crc, base + payload_start, payload_bytes);
    if (Crc32Final(crc) != stored_crc) {
      Diag(pos_ + 20,
           StrFormat("chunk CRC mismatch (%lu records lost)",
                     static_cast<unsigned long>(record_count)));
      if (!salvage_) {
        failed_ = true;
        return false;
      }
      corrupt_words_ += record_count;
      OBS_COUNT("socket.corrupt_lines", record_count);
      pos_ += 4;
      if (!ResyncScan()) {
        done_ = true;
        return false;
      }
      continue;
    }
    std::size_t consumed = 0;
    const std::size_t decoded =
        DecodeRecordsSoA(base + payload_start, payload_bytes, record_count,
                         &chunk->tags, &chunk->timestamps, &consumed);
    chunk->dropped_before = dropped_before;
    std::uint64_t short_records = 0;
    if (decoded < record_count) {
      Diag(payload_start + consumed,
           StrFormat("damaged record encoding: %zu of %lu records decode",
                     decoded, static_cast<unsigned long>(record_count)));
      short_records = record_count - decoded;
    } else if (consumed != payload_bytes) {
      Diag(payload_start + consumed,
           StrFormat("%lu trailing payload bytes after the last record",
                     static_cast<unsigned long>(payload_bytes - consumed)));
      short_records = 1;
    }
    if (short_records > 0) {
      if (!salvage_) {
        failed_ = true;
        return false;
      }
      corrupt_words_ += short_records;
      OBS_COUNT("socket.corrupt_lines", short_records);
    }
    // Timestamps above the timer mask cannot have come from the counter —
    // the same defense the text parsers apply per line.
    std::size_t masked_out = 0;
    for (std::size_t i = 0; i < chunk->timestamps.size(); ++i) {
      if (chunk->timestamps[i] > timer_mask_) {
        if (masked_out == 0) {
          Diag(payload_start,
               StrFormat("timestamp %lu exceeds the %u-bit timer mask (%lu)",
                         static_cast<unsigned long>(chunk->timestamps[i]),
                         timer_bits_, static_cast<unsigned long>(timer_mask_)));
        }
        if (!salvage_) {
          failed_ = true;
          return false;
        }
        ++masked_out;
        continue;
      }
      if (masked_out > 0) {
        chunk->tags[i - masked_out] = chunk->tags[i];
        chunk->timestamps[i - masked_out] = chunk->timestamps[i];
      }
    }
    if (masked_out > 0) {
      chunk->tags.resize(chunk->tags.size() - masked_out);
      chunk->timestamps.resize(chunk->timestamps.size() - masked_out);
      corrupt_words_ += masked_out;
      OBS_COUNT("socket.corrupt_lines", masked_out);
    }
    pos_ = payload_start + payload_bytes;
    if (kind_ == BinaryKind::kStream) {
      OBS_COUNT("socket.dropped_events", dropped_before);
    }
    return true;
  }
  return false;
}

// --- Whole-container wrappers ------------------------------------------------

namespace {

void CopyDiags(const BinaryChunkReader& reader, std::vector<TraceDiag>* diags) {
  if (diags != nullptr) {
    diags->insert(diags->end(), reader.diags().begin(), reader.diags().end());
  }
}

void ZipChunk(const SoaChunk& soa, std::vector<RawEvent>* out) {
  const std::size_t base = out->size();
  out->resize(base + soa.tags.size());
  for (std::size_t i = 0; i < soa.tags.size(); ++i) {
    (*out)[base + i] = RawEvent{soa.tags[i], soa.timestamps[i]};
  }
}

bool DecodeCapture(std::string_view bytes, RawTrace* out,
                   std::vector<TraceDiag>* diags, bool salvage,
                   std::uint64_t* corrupt_words) {
  BinaryChunkReader reader(bytes, salvage);
  if (!reader.header_ok()) {
    CopyDiags(reader, diags);
    return false;
  }
  if (reader.kind() != BinaryKind::kCapture) {
    if (diags != nullptr) {
      diags->push_back(TraceDiag{9, "stream container where a capture was expected"});
    }
    return false;
  }
  RawTrace trace;
  trace.timer_bits = reader.timer_bits();
  trace.timer_clock_hz = reader.timer_clock_hz();
  trace.overflowed = reader.overflowed();
  trace.dropped_events = reader.dropped_events();
  trace.capture_elapsed_ns = reader.capture_elapsed_ns();
  SoaChunk chunk;
  while (reader.Next(&chunk)) {
    ZipChunk(chunk, &trace.events);
    trace.dropped_events += chunk.dropped_before;
  }
  CopyDiags(reader, diags);
  if (reader.failed()) {
    return false;
  }
  if (corrupt_words != nullptr) {
    *corrupt_words += reader.corrupt_words();
  }
  *out = std::move(trace);
  return true;
}

bool DecodeStream(std::string_view bytes, StreamCapture* out,
                  std::vector<TraceDiag>* diags, bool salvage,
                  std::uint64_t* corrupt_words) {
  BinaryChunkReader reader(bytes, salvage);
  if (!reader.header_ok()) {
    CopyDiags(reader, diags);
    return false;
  }
  if (reader.kind() != BinaryKind::kStream) {
    if (diags != nullptr) {
      diags->push_back(TraceDiag{9, "capture container where a stream was expected"});
    }
    return false;
  }
  StreamCapture stream;
  stream.timer_bits = reader.timer_bits();
  stream.timer_clock_hz = reader.timer_clock_hz();
  SoaChunk soa;
  while (reader.Next(&soa)) {
    TraceChunk chunk;
    chunk.dropped_before = soa.dropped_before;
    ZipChunk(soa, &chunk.events);
    stream.chunks.push_back(std::move(chunk));
  }
  stream.truncated_tail = reader.truncated_tail();
  CopyDiags(reader, diags);
  if (reader.failed()) {
    return false;
  }
  if (corrupt_words != nullptr) {
    *corrupt_words += reader.corrupt_words();
  }
  *out = std::move(stream);
  return true;
}

}  // namespace

bool DecodeCaptureBinary(std::string_view bytes, RawTrace* out,
                         std::vector<TraceDiag>* diags) {
  return DecodeCapture(bytes, out, diags, /*salvage=*/false, nullptr);
}

bool DecodeCaptureBinarySalvage(std::string_view bytes, RawTrace* out,
                                std::vector<TraceDiag>* diags,
                                std::uint64_t* corrupt_words) {
  return DecodeCapture(bytes, out, diags, /*salvage=*/true, corrupt_words);
}

bool DecodeStreamBinary(std::string_view bytes, StreamCapture* out,
                        std::vector<TraceDiag>* diags) {
  return DecodeStream(bytes, out, diags, /*salvage=*/false, nullptr);
}

bool DecodeStreamBinarySalvage(std::string_view bytes, StreamCapture* out,
                               std::vector<TraceDiag>* diags,
                               std::uint64_t* corrupt_words) {
  return DecodeStream(bytes, out, diags, /*salvage=*/true, corrupt_words);
}

}  // namespace hwprof
