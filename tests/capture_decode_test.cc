// The one capture decode path (DecodeCaptureBytes / DecodeCaptureFile),
// table-driven over the four capture shapes (text or hwpb, one-shot capture
// or chunked stream), strict and salvage, retain and fold, at every shard
// target. The oracle is the second implementation the path replaced: the
// whole-container loaders (RawTrace::Deserialize*, DecodeCaptureBinary*,
// ParseStreamText, DecodeStreamBinary*) followed by the one-shot reference
// decoder (tests/reference_decoder.h) under the header policy written out
// by hand. Retain mode must be byte-identical to it, fold mode
// stats-identical, and every failure must carry the loader's diagnostics.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "src/analysis/decoder.h"
#include "src/profhw/binary_trace.h"
#include "src/profhw/smart_socket.h"
#include "src/service/ingest.h"
#include "src/service/soak.h"
#include "tests/reference_decoder.h"
#include "tests/trace_testutil.h"

namespace hwprof {
namespace {

struct Case {
  std::string what;
  std::string bytes;
  CaptureFileInfo shape;
  // Whether the loaders accept the bytes in each mode (damage is refused
  // strict and counted in salvage).
  bool strict_ok = true;
  bool salvage_ok = true;
};

std::string DiagsText(const std::vector<TraceDiag>& diags) {
  std::string out;
  for (const TraceDiag& d : diags) {
    out += std::to_string(d.line) + ": " + d.message + "\n";
  }
  return out;
}

// The loaders plus the reference decoder: what a capture decoded to before
// the single path existed.
struct LoadThenDecode {
  bool ok = false;
  std::vector<TraceDiag> diags;
  DecodedTrace oracle;
};

LoadThenDecode Oracle(std::string_view bytes, const CaptureFileInfo& shape, bool salvage,
                      const TagFile& names) {
  LoadThenDecode out;
  std::uint64_t corrupt_words = 0;
  const bool binary = shape.format == CaptureFormat::kBinary;
  if (!shape.is_stream) {
    RawTrace raw;
    if (binary) {
      out.ok = salvage ? DecodeCaptureBinarySalvage(bytes, &raw, &out.diags, &corrupt_words)
                       : DecodeCaptureBinary(bytes, &raw, &out.diags);
    } else {
      out.ok = salvage ? RawTrace::DeserializeSalvage(bytes, &raw, &out.diags, &corrupt_words)
                       : RawTrace::Deserialize(bytes, &raw, &out.diags);
    }
    if (out.ok) {
      ReferenceDecoder reference(names, raw.timer_bits, raw.timer_clock_hz);
      reference.NoteDropped(raw.dropped_events);
      reference.SetClockEnvelope(raw.capture_elapsed_ns);
      reference.Feed(raw.events);
      reference.NoteCorruptWords(corrupt_words);
      out.oracle = reference.Finish(raw.overflowed);
    }
    return out;
  }
  StreamCapture stream;
  if (binary) {
    out.ok = salvage ? DecodeStreamBinarySalvage(bytes, &stream, &out.diags, &corrupt_words)
                     : DecodeStreamBinary(bytes, &stream, &out.diags);
  } else {
    out.ok = ParseStreamText(bytes, &stream, &out.diags, salvage, &corrupt_words);
  }
  if (out.ok) {
    ReferenceDecoder reference(names, stream.timer_bits, stream.timer_clock_hz);
    for (const TraceChunk& chunk : stream.chunks) {
      reference.NoteDropped(chunk.dropped_before);
      reference.Feed(chunk.events);
    }
    reference.NoteCorruptWords(corrupt_words);
    out.oracle = reference.Finish(stream.truncated_tail);
  }
  return out;
}

// A capture whose header carries board drops and a clock envelope that
// says two and a half timer wraps went unseen, and the same events as a
// drained stream with per-chunk drops.
RawTrace HeaderedCapture() {
  RawTrace raw = FuzzTrace(41, 700);
  const Nanoseconds wrap_period = (Nanoseconds{1} << raw.timer_bits) * 1'000'000'000 /
                                  raw.timer_clock_hz;
  raw.dropped_events = 9;
  raw.capture_elapsed_ns =
      Decoder::Decode(raw, MakeNames()).ElapsedTotal() + wrap_period * 5 / 2;
  return raw;
}

StreamCapture DrainedStream(const RawTrace& raw) {
  StreamCapture stream;
  stream.timer_bits = raw.timer_bits;
  stream.timer_clock_hz = raw.timer_clock_hz;
  const std::size_t sizes[] = {90, 160, 40, 210};
  const std::uint64_t drops[] = {0, 4, 0, 17};
  std::size_t at = 0;
  for (std::size_t k = 0; at < raw.events.size(); ++k) {
    TraceChunk chunk;
    chunk.dropped_before = drops[k % 4];
    const std::size_t n = std::min(raw.events.size() - at, sizes[k % 4]);
    chunk.events.assign(raw.events.begin() + at, raw.events.begin() + at + n);
    at += n;
    stream.chunks.push_back(std::move(chunk));
  }
  return stream;
}

// Replaces 1-based line `line` of `text`.
std::string ReplaceLine(const std::string& text, int line, const std::string& with) {
  std::size_t begin = 0;
  for (int i = 1; i < line; ++i) {
    begin = text.find('\n', begin) + 1;
  }
  const std::size_t end = text.find('\n', begin);
  return text.substr(0, begin) + with + text.substr(end);
}

std::vector<Case> Cases() {
  const CaptureFileInfo text_capture{CaptureFormat::kText, false};
  const CaptureFileInfo binary_capture{CaptureFormat::kBinary, false};
  const CaptureFileInfo text_stream{CaptureFormat::kText, true};
  const CaptureFileInfo binary_stream{CaptureFormat::kBinary, true};
  const RawTrace raw = HeaderedCapture();
  const StreamCapture stream = DrainedStream(raw);
  const std::string text = raw.Serialize();
  const std::string hwpb = EncodeCaptureBinary(raw);
  const std::string stream_text = SerializeStreamText(stream);
  const std::string stream_hwpb = EncodeStreamBinary(stream);

  std::vector<Case> cases;
  cases.push_back({"text capture with drops and an envelope", text, text_capture});
  cases.push_back({"hwpb capture with drops and an envelope", hwpb, binary_capture});
  cases.push_back({"text stream with per-chunk drops", stream_text, text_stream});
  cases.push_back({"hwpb stream with per-chunk drops", stream_hwpb, binary_stream});
  // A writer caught mid-record: tolerated in both modes.
  cases.push_back({"text stream with a torn tail",
                   stream_text.substr(0, stream_text.size() - 3), text_stream});
  cases.push_back({"hwpb stream with a torn tail",
                   stream_hwpb.substr(0, stream_hwpb.size() - 3), binary_stream});
  // Damage strict mode refuses and salvage counts.
  cases.push_back({"text capture with corrupt lines",
                   ReplaceLine(ReplaceLine(text, 3, "garbage here"), 40, "100 99999999999"),
                   text_capture, false});
  cases.push_back({"text stream with a corrupt line",
                   ReplaceLine(stream_text, 12, "zap!"), text_stream, false});
  {
    // Flip a payload byte of the second chunk: its CRC no longer matches.
    std::string damaged = stream_hwpb;
    damaged[kBinaryFileHeaderSize + EncodeStreamChunkBinary(stream.chunks[0]).size() +
            kBinaryChunkHeaderSize + 5] ^= 0x5A;
    cases.push_back({"hwpb stream with a CRC-damaged chunk", damaged, binary_stream, false});
  }
  {
    std::string damaged = hwpb;
    damaged[kBinaryFileHeaderSize + kBinaryChunkHeaderSize + 5] ^= 0x5A;
    cases.push_back({"hwpb capture with a CRC-damaged chunk", damaged, binary_capture, false});
  }
  // No magic at all: parsed, and refused, as a text capture in both modes.
  cases.push_back({"bytes no magic matches", "not a capture\n", text_capture, false, false});
  return cases;
}

TEST(CaptureDecode, EveryShapeMatchesLoadThenDecode) {
  const TagFile& names = MakeNames();
  for (const Case& c : Cases()) {
    for (const bool salvage : {false, true}) {
      const LoadThenDecode expected = Oracle(c.bytes, c.shape, salvage, names);
      const std::string expected_diags = DiagsText(expected.diags);
      const std::string expected_fingerprint = expected.ok ? Fingerprint(expected.oracle) : "";
      ASSERT_EQ(expected.ok, salvage ? c.salvage_ok : c.strict_ok) << c.what;
      for (const std::size_t target : kShardTargets) {
        for (const bool retain : {true, false}) {
          const std::string what = c.what + (salvage ? " salvage" : " strict") +
                                   (retain ? " retain" : " fold") + " target " +
                                   std::to_string(target);
          const CaptureDecode got = DecodeCaptureBytes(
              c.bytes, names, salvage,
              StreamingOptions{.retain_structure = retain, .shard_target_ops = target});
          EXPECT_EQ(got.shape.format, c.shape.format) << what;
          EXPECT_EQ(got.shape.is_stream, c.shape.is_stream) << what;
          ASSERT_EQ(got.ok, expected.ok) << what << "\n" << DiagsText(got.diags);
          EXPECT_EQ(DiagsText(got.diags), expected_diags) << what;
          if (!got.ok) {
            continue;
          }
          if (retain) {
            EXPECT_EQ(Fingerprint(got.trace), expected_fingerprint) << what;
          } else {
            ExpectFoldMatchesOracle(got.trace, expected.oracle, what);
          }
        }
      }
    }
  }
}

TEST(CaptureDecode, DamageIsRefusedStrictAndCountedInSalvage) {
  const TagFile& names = MakeNames();
  for (const Case& c : Cases()) {
    if (c.strict_ok || !c.salvage_ok) {
      continue;
    }
    const CaptureDecode strict = DecodeCaptureBytes(c.bytes, names, /*salvage=*/false,
                                                    StreamingOptions{});
    EXPECT_FALSE(strict.ok) << c.what;
    ASSERT_FALSE(strict.diags.empty()) << c.what;
    EXPECT_GT(strict.diags.front().line, 0) << c.what << ": a line or offset, not file-level";
    const CaptureDecode salvaged = DecodeCaptureBytes(c.bytes, names, /*salvage=*/true,
                                                      StreamingOptions{});
    ASSERT_TRUE(salvaged.ok) << c.what;
    EXPECT_GT(salvaged.trace.corrupt_words, 0u) << c.what;
  }
  // The clean header reaches the decode: drops, gaps and the envelope.
  const Case clean = Cases().front();
  const CaptureDecode d = DecodeCaptureBytes(clean.bytes, names, false, StreamingOptions{});
  ASSERT_TRUE(d.ok);
  EXPECT_EQ(d.trace.dropped_events, 9u);
  EXPECT_EQ(d.trace.capture_gaps, 1u);
  EXPECT_EQ(d.trace.wrap_ambiguous_gaps, 2u);
}

TEST(CaptureDecode, FileWrapperMapsTheFileOrSaysWhyNot) {
  const TagFile& names = MakeNames();
  const CaptureDecode missing = DecodeCaptureFile(::testing::TempDir() + "/no_such.capture",
                                                  names, false, StreamingOptions{});
  EXPECT_FALSE(missing.ok);
  EXPECT_EQ(DiagsText(missing.diags), "0: cannot open file\n");

  for (const Case& c : Cases()) {
    const std::string path = ::testing::TempDir() + "/capture_decode_file.bin";
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << c.bytes;
    }
    const StreamingOptions retain{.retain_structure = true};
    const CaptureDecode from_file = DecodeCaptureFile(path, names, true, retain);
    const CaptureDecode from_bytes = DecodeCaptureBytes(c.bytes, names, true, retain);
    ASSERT_EQ(from_file.ok, from_bytes.ok) << c.what;
    EXPECT_EQ(DiagsText(from_file.diags), DiagsText(from_bytes.diags)) << c.what;
    if (from_file.ok) {
      EXPECT_EQ(Fingerprint(from_file.trace), Fingerprint(from_bytes.trace)) << c.what;
    }
    std::remove(path.c_str());
  }
}

// hwprofd decodes through the same path and still takes one-shot captures
// only: a well-formed stream upload, text or hwpb, is typed malformed.
TEST(CaptureDecode, HwprofdTypesStreamPayloadsAsMalformed) {
  service::ServiceOptions options;
  options.workers = 0;
  service::IngestService svc(service::SoakNames(), options);
  const RawTrace raw = service::SynthTrace(5, 300);
  const StreamCapture stream = DrainedStream(raw);
  EXPECT_TRUE(svc.Submit("t", SerializeStreamText(stream)).accepted);
  EXPECT_TRUE(svc.Submit("t", EncodeStreamBinary(stream)).accepted);
  service::ServiceStats s = svc.Stats();
  EXPECT_EQ(s.malformed, 2u);
  EXPECT_EQ(s.summaries, 0u);

  // The same events as one-shot captures are summarized, in either encoding.
  EXPECT_TRUE(svc.Submit("t", raw.Serialize()).accepted);
  EXPECT_TRUE(svc.Submit("t", EncodeCaptureBinary(raw)).accepted);
  s = svc.Stats();
  EXPECT_EQ(s.malformed, 2u);
  EXPECT_EQ(s.summaries, 2u);
  EXPECT_EQ(s.decoded_events, 2 * Decoder::Decode(raw, service::SoakNames()).event_count);
}

}  // namespace
}  // namespace hwprof
