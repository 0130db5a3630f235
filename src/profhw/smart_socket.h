// Battery-backed Smart-Socket transfer: file persistence for captures.
//
// In the paper the data RAMs sit in battery-backed Smart-Sockets and are
// physically carried to a networked host, then copied to a UNIX machine for
// processing. Here that journey is a round-trip through a file in either of
// two interchanges:
//
//   * kText — the original line-oriented upload format (the debug
//     interchange; human-readable, greppable);
//   * kBinary — the compact chunked "hwpb" container (src/profhw/
//     binary_trace.h): varint delta records behind CRC-carrying chunk
//     headers, decoded zero-copy from an mmap.
//
// Every loader auto-detects the format from the first bytes of the file, so
// tools never need to be told which one they were handed; hwprof_convert
// translates losslessly in both directions.
//
// Streaming captures use an append-friendly layout — a header followed by
// one block per drained bank — so a long-running target can keep appending
// chunks while `hwprof_analyze --follow` digests the same file
// incrementally. In text:
//
//   hwprof-stream v1 <timer_bits> <clock_hz>
//   chunk <event_count> <dropped_before>
//   <tag> <timestamp>
//   ...

#ifndef HWPROF_SRC_PROFHW_SMART_SOCKET_H_
#define HWPROF_SRC_PROFHW_SMART_SOCKET_H_

#include <string>
#include <string_view>
#include <vector>

#include "src/profhw/raw_trace.h"

namespace hwprof {

class MappedFile;

enum class CaptureFormat { kText, kBinary };

// What a capture file on disk actually is, sniffed from its first bytes.
struct CaptureFileInfo {
  CaptureFormat format = CaptureFormat::kText;
  bool is_stream = false;
};

// Identifies capture bytes (a whole file, or at least its first 16 bytes)
// by magic: the binary container magic, the "hwprof-raw"/"hwprof-stream"
// text headers. Returns false when they match none of them; `*info` is then
// a text capture, or binary when only the container magic is present.
bool SniffCapture(std::string_view bytes, CaptureFileInfo* info);

// SniffCapture on the first bytes of `path`; also false when the file
// cannot be opened.
bool DetectCaptureFile(const std::string& path, CaptureFileInfo* info);

// Maps `path` for reading, under the `socket.load` span, counting
// `socket.download_bytes`. A missing or unreadable file is a line-0
// "cannot open file" diagnostic (appended when `diags` is non-null).
bool MapCaptureFile(const std::string& path, MappedFile* file,
                    std::vector<TraceDiag>* diags);

// Writes `trace` to `path` in the given format. Returns false on I/O failure.
bool SaveCapture(const RawTrace& trace, const std::string& path,
                 CaptureFormat format);
bool SaveCapture(const RawTrace& trace, const std::string& path);

// Reads a capture previously written by SaveCapture, auto-detecting the
// format. Returns false on I/O failure or malformed contents; when `diags`
// is non-null every problem is appended with its 1-based line number (text)
// or byte offset (binary) and reason (0 = file-level).
bool LoadCapture(const std::string& path, RawTrace* out,
                 std::vector<TraceDiag>* diags);
bool LoadCapture(const std::string& path, RawTrace* out);

// --- Chunked stream files ----------------------------------------------------

// A parsed stream file: chunks in drain order.
struct StreamCapture {
  unsigned timer_bits = 24;
  std::uint64_t timer_clock_hz = 1'000'000;
  std::vector<TraceChunk> chunks;
  // The file ended mid-chunk (writer still appending, or a torn write). The
  // events parsed so far are kept; the missing tail is simply not there yet.
  bool truncated_tail = false;

  std::uint64_t TotalEvents() const;
  std::uint64_t TotalDropped() const;
  // Flattens the chunks into one RawTrace (drop counts are lost; callers
  // that care about gaps should feed chunks to the StreamingDecoder).
  RawTrace Flatten() const;
};

// Renders a parsed stream back to the canonical text layout (what
// SaveStreamHeader + AppendStreamChunk would have written).
std::string SerializeStreamText(const StreamCapture& stream);

// Starts (truncates) a stream file with the header only.
bool SaveStreamHeader(const std::string& path, unsigned timer_bits,
                      std::uint64_t timer_clock_hz, CaptureFormat format);
bool SaveStreamHeader(const std::string& path, unsigned timer_bits,
                      std::uint64_t timer_clock_hz);

// Appends one drained chunk to an existing stream file, matching the format
// the file was started in (sniffed from its header — stream files are
// self-describing).
bool AppendStreamChunk(const std::string& path, const TraceChunk& chunk);

// Parses a stream file (either format, auto-detected). Tolerates a
// truncated final chunk AND a torn final record (a writer caught
// mid-append, or a sheared file) — both just set
// StreamCapture::truncated_tail and keep everything parsed so far. Returns
// false only on I/O failure or a malformed header/body; `diags` (when
// non-null) receives line/offset + reason for every problem found.
bool LoadStream(const std::string& path, StreamCapture* out,
                std::vector<TraceDiag>* diags);
bool LoadStream(const std::string& path, StreamCapture* out);

// Salvage load for stream files: unreadable mid-file regions are counted
// into `*corrupt_words` and skipped, resynchronising at the next chunk
// boundary (text: the next 'chunk' line or a run of intact event lines;
// binary: the next CRC-valid chunk header); a torn tail is tolerated as in
// LoadStream. Fails only on I/O failure or an unusable header.
bool LoadStreamSalvage(const std::string& path, StreamCapture* out,
                       std::vector<TraceDiag>* diags,
                       std::uint64_t* corrupt_words);

// The text stream parser behind both loaders, over bytes already in
// memory: strict (`salvage` false) or salvage, with the torn-tail rules
// above. `corrupt_words` may be null.
bool ParseStreamText(std::string_view text, StreamCapture* out,
                     std::vector<TraceDiag>* diags, bool salvage,
                     std::uint64_t* corrupt_words);

}  // namespace hwprof

#endif  // HWPROF_SRC_PROFHW_SMART_SOCKET_H_
