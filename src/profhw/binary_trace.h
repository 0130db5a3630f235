// The compact binary capture container ("hwpb"): the production interchange
// for captures and chunked streams, with the line-oriented text formats kept
// as the debug interchange (hwprof_convert translates losslessly).
//
// Layout (all integers little-endian; full spec in DESIGN.md §11):
//
//   file header, 40 bytes:
//     magic[8]  = 89 'H' 'W' 'P' 'B' 0D 0A 1A   (PNG-style: catches text-mode
//                                                 mangling and truncation)
//     u8  version   (1)
//     u8  kind      (0 = capture, 1 = stream)
//     u8  timer_bits
//     u8  flags     (bit 0 = overflowed; capture kind only)
//     u64 timer_clock_hz
//     u64 dropped_events      (capture kind; 0 for streams)
//     u64 capture_elapsed_ns
//     u32 crc32 over bytes [8, 36)
//
//   then zero or more chunks, each:
//     u32 chunk_magic = 0xB5C7A29E
//     u32 record_count
//     u32 payload_bytes
//     u64 dropped_before      (drain-race drops; 0 for capture kind)
//     u32 crc32 over the 16 header bytes above (magic excluded) ++ payload
//
//   chunk payload: record_count records, each
//     varint(tag) ++ varint((timestamp - prev_timestamp) mod 2^32)
//   with prev_timestamp starting at 0 for every chunk, so chunks decode
//   independently — the salvage loader and the shard planner seek to chunk
//   boundaries without scanning, and a damaged chunk never poisons its
//   neighbours.
//
// Varints are LEB128 (7 data bits per byte, high bit = continuation), at
// most 3 bytes for the 16-bit tag and 5 for the 32-bit delta. The mod-2^32
// delta reproduces ANY u32 timestamp sequence exactly, including
// upload-damaged values above the timer mask (those are rejected or
// salvage-counted on decode, exactly like the text parser).
//
// Salvage semantics (deterministic; the corruption-matrix tests pin exact
// counts):
//   * chunk CRC mismatch          -> corrupt_words += record_count, then
//                                    resync by scanning for the next valid
//                                    chunk header
//   * insane header (record_count
//     impossible for payload)     -> corrupt_words += 1, scan-resync
//   * bad magic where a chunk
//     header was expected         -> corrupt_words += 1, scan-resync
//   * bogus varint inside a CRC-
//     valid payload               -> corrupt_words += records lost, continue
//                                    at the (trusted) payload end
//   * timestamp above the timer
//     mask                        -> corrupt_words += 1 per record, skipped
//   * torn tail (partial header
//     or payload at EOF)          -> stream kind: tolerated in BOTH modes
//                                    (writer mid-append; --follow polls the
//                                    live file), complete records kept;
//                                    capture kind: strict fails, salvage
//                                    counts the missing records
//
// TraceDiag for binary containers carries the BYTE OFFSET of the problem in
// its `line` field (text formats use 1-based lines).

#ifndef HWPROF_SRC_PROFHW_BINARY_TRACE_H_
#define HWPROF_SRC_PROFHW_BINARY_TRACE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/profhw/raw_trace.h"
#include "src/profhw/smart_socket.h"

namespace hwprof {

inline constexpr unsigned char kBinaryMagic[8] = {0x89, 'H', 'W',  'P',
                                                  'B',  0x0D, 0x0A, 0x1A};
inline constexpr std::uint32_t kBinaryChunkMagic = 0xB5C7A29Eu;
inline constexpr unsigned char kBinaryVersion = 1;
inline constexpr std::size_t kBinaryFileHeaderSize = 40;
inline constexpr std::size_t kBinaryChunkHeaderSize = 24;
// Records per chunk when encoding a one-shot capture (streams keep their
// drained-bank chunking exactly, for lossless text<->binary round trips).
inline constexpr std::size_t kBinaryCaptureChunkRecords = 65536;

enum class BinaryKind : unsigned char { kCapture = 0, kStream = 1 };

// True when `bytes` begins with the container magic (any kind/version).
bool LooksBinaryContainer(std::string_view bytes);
// Reads the kind byte; false when the magic is absent or the file is too
// short to carry one.
bool BinaryKindOf(std::string_view bytes, BinaryKind* kind);

// --- Encoding ---------------------------------------------------------------

std::string EncodeCaptureBinary(const RawTrace& trace);
std::string EncodeStreamHeaderBinary(unsigned timer_bits,
                                     std::uint64_t timer_clock_hz);
std::string EncodeStreamChunkBinary(const TraceChunk& chunk);
std::string EncodeStreamBinary(const StreamCapture& stream);

// --- Structure-of-arrays chunk decoding -------------------------------------

// One decoded chunk as parallel arrays: the decode inner loop fills flat
// tag/timestamp columns (vectorizable varint + prefix-sum) instead of an
// array of structs; consumers that want RawEvents zip at the edge.
struct SoaChunk {
  std::vector<std::uint16_t> tags;
  std::vector<std::uint32_t> timestamps;
  std::uint64_t dropped_before = 0;
};

// Incremental zero-copy reader over a binary container: walks the chunk
// list in `bytes` (typically an mmap), decoding one chunk at a time into
// caller-owned SoA scratch that is reused across Next() calls — memory is
// bounded by the largest chunk, not the capture. Strict mode stops at the
// first damage; salvage mode counts and resynchronises per the rules above.
class BinaryChunkReader {
 public:
  // `bytes` must outlive the reader. header_ok() is false if the 40-byte
  // file header is absent, version-unknown, or fails its CRC (both modes:
  // without a sound header nothing else can be trusted, exactly like the
  // text loaders).
  BinaryChunkReader(std::string_view bytes, bool salvage);

  bool header_ok() const { return header_ok_; }
  BinaryKind kind() const { return kind_; }
  unsigned timer_bits() const { return timer_bits_; }
  std::uint64_t timer_clock_hz() const { return timer_clock_hz_; }
  bool overflowed() const { return overflowed_; }
  std::uint64_t dropped_events() const { return dropped_events_; }
  std::uint64_t capture_elapsed_ns() const { return capture_elapsed_ns_; }

  // Decodes the next chunk into *chunk (reusing its vectors). Returns false
  // at end of input or, in strict mode, at the first damage (check failed()).
  // Stream chunks count their drain-race drops into socket.dropped_events,
  // as the text stream parser does per chunk header.
  bool Next(SoaChunk* chunk);

  // A partial chunk header or payload at EOF was tolerated (stream kind).
  bool truncated_tail() const { return truncated_tail_; }
  // Strict mode only: damage was found and decoding stopped.
  bool failed() const { return failed_; }
  std::uint64_t corrupt_words() const { return corrupt_words_; }
  const std::vector<TraceDiag>& diags() const { return diags_; }

 private:
  void Diag(std::size_t offset, std::string message);
  bool ResyncScan();

  std::string_view bytes_;
  bool salvage_ = false;
  std::size_t pos_ = 0;
  bool header_ok_ = false;
  bool failed_ = false;
  bool truncated_tail_ = false;
  bool done_ = false;
  BinaryKind kind_ = BinaryKind::kCapture;
  unsigned timer_bits_ = 24;
  std::uint64_t timer_clock_hz_ = 1'000'000;
  bool overflowed_ = false;
  std::uint64_t dropped_events_ = 0;
  std::uint64_t capture_elapsed_ns_ = 0;
  std::uint32_t timer_mask_ = 0;
  std::uint64_t corrupt_words_ = 0;
  std::vector<TraceDiag> diags_;
};

// --- Whole-container decoding ----------------------------------------------

// Capture kind -> RawTrace. Strict: false on any damage (diags explain,
// offsets in the line field). Salvage: false only when the file header is
// unusable; otherwise damaged regions are counted into *corrupt_words.
bool DecodeCaptureBinary(std::string_view bytes, RawTrace* out,
                         std::vector<TraceDiag>* diags);
bool DecodeCaptureBinarySalvage(std::string_view bytes, RawTrace* out,
                                std::vector<TraceDiag>* diags,
                                std::uint64_t* corrupt_words);

// Stream kind -> StreamCapture. A torn tail is tolerated in both modes
// (truncated_tail is set), matching the text stream loaders.
bool DecodeStreamBinary(std::string_view bytes, StreamCapture* out,
                        std::vector<TraceDiag>* diags);
bool DecodeStreamBinarySalvage(std::string_view bytes, StreamCapture* out,
                               std::vector<TraceDiag>* diags,
                               std::uint64_t* corrupt_words);

}  // namespace hwprof

#endif  // HWPROF_SRC_PROFHW_BINARY_TRACE_H_
