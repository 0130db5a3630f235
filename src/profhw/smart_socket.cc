#include "src/profhw/smart_socket.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string_view>

#include "src/base/line_cursor.h"
#include "src/base/mmap_file.h"
#include "src/base/strings.h"
#include "src/obs/telemetry.h"
#include "src/profhw/binary_trace.h"

namespace hwprof {

namespace {

void NoteDiag(std::vector<TraceDiag>* diags, int line, std::string message) {
  if (diags != nullptr) {
    diags->push_back(TraceDiag{line, std::move(message)});
  }
}

bool WriteFile(const std::string& path, std::string_view bytes) {
  OBS_SCOPED_SPAN("socket.save");
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  if (!out) {
    OBS_COUNT("socket.save_failures", 1);
    return false;
  }
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) {
    OBS_COUNT("socket.save_failures", 1);
    return false;
  }
  OBS_COUNT("socket.uploads", 1);
  OBS_COUNT("socket.upload_bytes", bytes.size());
  return true;
}

}  // namespace

bool SniffCapture(std::string_view bytes, CaptureFileInfo* info) {
  *info = CaptureFileInfo{};
  if (LooksBinaryContainer(bytes)) {
    info->format = CaptureFormat::kBinary;
    BinaryKind kind;
    if (!BinaryKindOf(bytes, &kind)) {
      return false;
    }
    info->is_stream = kind == BinaryKind::kStream;
    return true;
  }
  if (bytes.starts_with("hwprof-stream")) {
    info->is_stream = true;
    return true;
  }
  return bytes.starts_with("hwprof-raw ");
}

bool DetectCaptureFile(const std::string& path, CaptureFileInfo* info) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return false;
  }
  char head[16] = {};
  in.read(head, sizeof(head));
  return SniffCapture(std::string_view(head, static_cast<std::size_t>(in.gcount())),
                      info);
}

bool MapCaptureFile(const std::string& path, MappedFile* file,
                    std::vector<TraceDiag>* diags) {
  OBS_SCOPED_SPAN("socket.load");
  if (!file->Open(path)) {
    NoteDiag(diags, 0, "cannot open file");
    OBS_COUNT("socket.load_failures", 1);
    return false;
  }
  OBS_COUNT("socket.download_bytes", file->size());
  return true;
}

bool SaveCapture(const RawTrace& trace, const std::string& path,
                 CaptureFormat format) {
  return WriteFile(path, format == CaptureFormat::kBinary
                             ? EncodeCaptureBinary(trace)
                             : trace.Serialize());
}

bool SaveCapture(const RawTrace& trace, const std::string& path) {
  return SaveCapture(trace, path, CaptureFormat::kText);
}

bool LoadCapture(const std::string& path, RawTrace* out,
                 std::vector<TraceDiag>* diags) {
  MappedFile file;
  if (!MapCaptureFile(path, &file, diags)) {
    return false;
  }
  if (LooksBinaryContainer(file.view())) {
    return DecodeCaptureBinary(file.view(), out, diags);
  }
  return RawTrace::Deserialize(file.view(), out, diags);
}

bool LoadCapture(const std::string& path, RawTrace* out) {
  return LoadCapture(path, out, nullptr);
}

std::uint64_t StreamCapture::TotalEvents() const {
  std::uint64_t n = 0;
  for (const TraceChunk& c : chunks) {
    n += c.events.size();
  }
  return n;
}

std::uint64_t StreamCapture::TotalDropped() const {
  std::uint64_t n = 0;
  for (const TraceChunk& c : chunks) {
    n += c.dropped_before;
  }
  return n;
}

RawTrace StreamCapture::Flatten() const {
  RawTrace raw;
  raw.timer_bits = timer_bits;
  raw.timer_clock_hz = timer_clock_hz;
  raw.events.reserve(static_cast<std::size_t>(TotalEvents()));
  for (const TraceChunk& c : chunks) {
    raw.events.insert(raw.events.end(), c.events.begin(), c.events.end());
  }
  return raw;
}

namespace {

std::string StreamHeaderText(unsigned timer_bits, std::uint64_t timer_clock_hz) {
  return StrFormat("hwprof-stream v1 %u %llu\n", timer_bits,
                   static_cast<unsigned long long>(timer_clock_hz));
}

std::string StreamChunkText(const TraceChunk& chunk) {
  std::string text =
      StrFormat("chunk %zu %llu\n", chunk.events.size(),
                static_cast<unsigned long long>(chunk.dropped_before));
  for (const RawEvent& e : chunk.events) {
    text += StrFormat("%u %u\n", e.tag, e.timestamp);
  }
  return text;
}

}  // namespace

std::string SerializeStreamText(const StreamCapture& stream) {
  std::string text = StreamHeaderText(stream.timer_bits, stream.timer_clock_hz);
  for (const TraceChunk& chunk : stream.chunks) {
    text += StreamChunkText(chunk);
  }
  return text;
}

bool SaveStreamHeader(const std::string& path, unsigned timer_bits,
                      std::uint64_t timer_clock_hz, CaptureFormat format) {
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  if (!out) {
    return false;
  }
  const std::string header =
      format == CaptureFormat::kBinary
          ? EncodeStreamHeaderBinary(timer_bits, timer_clock_hz)
          : StreamHeaderText(timer_bits, timer_clock_hz);
  out.write(header.data(), static_cast<std::streamsize>(header.size()));
  return static_cast<bool>(out);
}

bool SaveStreamHeader(const std::string& path, unsigned timer_bits,
                      std::uint64_t timer_clock_hz) {
  return SaveStreamHeader(path, timer_bits, timer_clock_hz,
                          CaptureFormat::kText);
}

bool AppendStreamChunk(const std::string& path, const TraceChunk& chunk) {
  // Stream files are self-describing: match whatever format the header was
  // started in, so writers never carry format state between drains.
  bool binary = false;
  {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      return false;
    }
    char head[8] = {};
    in.read(head, sizeof(head));
    binary = LooksBinaryContainer(
        std::string_view(head, static_cast<std::size_t>(in.gcount())));
  }
  std::ofstream out(path, std::ios::app | std::ios::binary);
  if (!out) {
    return false;
  }
  OBS_SCOPED_SPAN("socket.append_chunk");
  const std::string block =
      binary ? EncodeStreamChunkBinary(chunk) : StreamChunkText(chunk);
  out.write(block.data(), static_cast<std::streamsize>(block.size()));
  if (!out) {
    OBS_COUNT("socket.save_failures", 1);
    return false;
  }
  OBS_COUNT("socket.stream_chunks", 1);
  OBS_COUNT("socket.upload_bytes", block.size());
  return true;
}

namespace {

bool ParseChunkHeader(std::string_view line, std::uint64_t* count,
                      std::uint64_t* dropped) {
  FieldCursor fields(line, ' ');
  std::string_view word;
  return fields.Next(&word) && word == "chunk" && fields.NextUint(count) &&
         fields.NextUint(dropped) && fields.done();
}

}  // namespace

// Shared parser behind the strict and salvage text stream loaders. A torn
// final line — wherever it falls — is tolerated in both modes (the writer may
// be mid-append; --follow polls the same file the target is still writing):
// everything parsed so far stands and truncated_tail is set. Mid-file damage
// is a failure in strict mode; in salvage mode unreadable lines count one
// corrupt word each and parsing resynchronises at the next chunk boundary —
// or at the next run of intact event lines, which are kept as a recovery
// chunk (a destroyed chunk header must not bill the events behind it).
bool ParseStreamText(std::string_view text, StreamCapture* out,
                     std::vector<TraceDiag>* diags, bool salvage,
                     std::uint64_t* corrupt_words) {
  LineCursor lines(text);
  std::string_view line;
  if (!lines.Next(&line)) {
    NoteDiag(diags, 1, "empty file: expected 'hwprof-stream v1 <bits> <hz>' header");
    return false;
  }
  FieldCursor header(line, ' ');
  std::string_view magic;
  std::string_view version;
  if (CountFields(line, ' ') != 4 || !header.Next(&magic) || magic != "hwprof-stream" ||
      !header.Next(&version) || version != "v1") {
    NoteDiag(diags, 1, "bad header: expected 'hwprof-stream v1 <bits> <hz>'");
    return false;
  }
  std::uint64_t bits = 0;
  std::uint64_t hz = 0;
  if (!header.NextUint(&bits) || bits < 8 || bits > 32) {
    NoteDiag(diags, 1, "timer width must be a number in 8..32");
    return false;
  }
  if (!header.NextUint(&hz) || hz == 0) {
    NoteDiag(diags, 1, "timer clock rate must be a positive number");
    return false;
  }
  StreamCapture capture;
  capture.timer_bits = static_cast<unsigned>(bits);
  capture.timer_clock_hz = hz;
  const std::uint32_t mask = TimerMaskFor(capture.timer_bits);

  // `line` is the next line to examine while `more` holds.
  bool more = lines.Next(&line);
  while (more) {
    std::uint64_t count = 0;
    std::uint64_t dropped = 0;
    if (!ParseChunkHeader(line, &count, &dropped)) {
      if (lines.AtEnd()) {
        capture.truncated_tail = true;  // torn chunk header mid-append
        break;
      }
      NoteDiag(diags, lines.line_no(), "expected 'chunk <count> <dropped>'");
      if (!salvage) {
        return false;
      }
      if (corrupt_words != nullptr) {
        ++*corrupt_words;
      }
      OBS_COUNT("socket.corrupt_lines", 1);
      // A destroyed chunk header orphans the intact event lines behind it.
      // Salvage them into a recovery chunk (the bank boundary is gone, so
      // its drop count is too) instead of billing each as a corrupt word.
      TraceChunk recovered;
      RawEvent event;
      int last_recovered = 0;
      while ((more = lines.Next(&line)) && ParseEventLine(line, mask, &event)) {
        recovered.events.push_back(event);
        last_recovered = lines.line_no();
      }
      if (!recovered.events.empty()) {
        NoteDiag(diags, last_recovered,
                 StrFormat("recovered %zu orphaned event lines after the "
                           "unreadable chunk header",
                           recovered.events.size()));
        OBS_COUNT("socket.salvage_resyncs", 1);
        capture.chunks.push_back(std::move(recovered));
      }
      continue;
    }
    more = lines.Next(&line);
    OBS_COUNT("socket.dropped_events", dropped);
    TraceChunk chunk;
    chunk.dropped_before = dropped;
    // Every event line takes at least four bytes ("0 0\n"), so the rest of
    // the text bounds what a count can honestly claim.
    chunk.events.reserve(static_cast<std::size_t>(
        std::min<std::uint64_t>(count, (lines.remaining_bytes() + line.size() + 2) / 4)));
    while (chunk.events.size() < count && more) {
      RawEvent event;
      if (ParseEventLine(line, mask, &event)) {
        chunk.events.push_back(event);
        more = lines.Next(&line);
        continue;
      }
      if (lines.AtEnd()) {
        more = false;  // torn final record: the short count marks the tail below
        break;
      }
      NoteDiag(diags, lines.line_no(), EventLineError(line, capture.timer_bits));
      if (!salvage) {
        return false;
      }
      std::uint64_t nc = 0;
      std::uint64_t nd = 0;
      if (ParseChunkHeader(line, &nc, &nd)) {
        OBS_COUNT("socket.salvage_resyncs", 1);
        break;  // chunk cut short; resynchronise at the bank boundary
      }
      if (corrupt_words != nullptr) {
        ++*corrupt_words;
      }
      OBS_COUNT("socket.corrupt_lines", 1);
      more = lines.Next(&line);
    }
    // Short only counts as a torn tail when the line supply actually ran
    // out; a mid-file salvage resync at the next bank boundary is damage,
    // not a writer still appending.
    if (chunk.events.size() < count && !more) {
      capture.truncated_tail = true;
    }
    capture.chunks.push_back(std::move(chunk));
  }
  *out = std::move(capture);
  return true;
}

bool LoadStream(const std::string& path, StreamCapture* out,
                std::vector<TraceDiag>* diags) {
  MappedFile file;
  if (!MapCaptureFile(path, &file, diags)) {
    return false;
  }
  if (LooksBinaryContainer(file.view())) {
    return DecodeStreamBinary(file.view(), out, diags);
  }
  return ParseStreamText(file.view(), out, diags, /*salvage=*/false, nullptr);
}

bool LoadStream(const std::string& path, StreamCapture* out) {
  return LoadStream(path, out, nullptr);
}

bool LoadStreamSalvage(const std::string& path, StreamCapture* out,
                       std::vector<TraceDiag>* diags,
                       std::uint64_t* corrupt_words) {
  MappedFile file;
  if (!MapCaptureFile(path, &file, diags)) {
    return false;
  }
  if (LooksBinaryContainer(file.view())) {
    return DecodeStreamBinarySalvage(file.view(), out, diags, corrupt_words);
  }
  return ParseStreamText(file.view(), out, diags, /*salvage=*/true, corrupt_words);
}

}  // namespace hwprof
