// The binary capture container, proven by a round-trip/corruption battery:
//
//  * lossless text<->binary round trips (bit-identical both directions) for
//    one-shot captures and chunked streams, across the fault-plan seed set;
//  * decode identity: a binary container fed through the zero-copy SoA
//    reader — at several shard sizes, and as randomly-rechunked streams —
//    fingerprints byte-identical to the reference decode of the same events;
//  * a corruption matrix with EXACT typed-anomaly accounting: flipped CRC,
//    destroyed chunk magic, oversized record count, bogus varint
//    continuation, torn tails (mid-header and mid-record), timestamps above
//    the timer mask;
//  * CLI behaviour: auto-detection, --salvage byte-offset diagnostics,
//    strict nonzero exits, --follow over binary streams (including a writer
//    caught mid-record), and hwprof_convert's lossless translation;
//  * regressions for the text stream parser: mid-file salvage resync must
//    not masquerade as a torn tail, and a destroyed chunk header must not
//    bill the intact event lines behind it.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "src/analysis/decoder.h"
#include "src/base/rng.h"
#include "src/profhw/binary_trace.h"
#include "src/profhw/fault_injection.h"
#include "src/profhw/raw_trace.h"
#include "src/profhw/smart_socket.h"
#include "tests/trace_testutil.h"
#include "tools/analyze_main.h"
#include "tools/convert_main.h"

namespace hwprof {
namespace {

// --- Decode-path helpers (the binary twins of fault_injection_test's) --------

DecodedTrace DecodeBinary(const std::string& bytes, const TagFile& names,
                          std::size_t shard_target = StreamingOptions{}.shard_target_ops) {
  BinaryChunkReader reader(bytes, /*salvage=*/false);
  HWPROF_CHECK(reader.header_ok());
  StreamingDecoder decoder(names, reader.timer_bits(), reader.timer_clock_hz(),
                           StreamingOptions{.retain_structure = true,
                                            .shard_target_ops = shard_target});
  decoder.NoteDropped(reader.dropped_events());
  decoder.SetClockEnvelope(reader.capture_elapsed_ns());
  SoaChunk chunk;
  while (reader.Next(&chunk)) {
    if (chunk.dropped_before > 0) {
      decoder.NoteDropped(chunk.dropped_before);
    }
    decoder.FeedSoA(chunk.tags.data(), chunk.timestamps.data(),
                    chunk.tags.size());
  }
  decoder.NoteCorruptWords(reader.corrupt_words());
  return decoder.Finish(reader.overflowed());
}

// Splits `raw` into a stream of randomly-sized drained banks.
StreamCapture RandomChunking(const RawTrace& raw, std::uint64_t seed) {
  Rng rng(seed);
  StreamCapture stream;
  stream.timer_bits = raw.timer_bits;
  stream.timer_clock_hz = raw.timer_clock_hz;
  std::size_t at = 0;
  while (at < raw.events.size()) {
    const std::size_t n =
        std::min(raw.events.size() - at, std::size_t{1} + rng.NextBelow(97));
    TraceChunk chunk;
    chunk.events.assign(raw.events.begin() + at, raw.events.begin() + at + n);
    stream.chunks.push_back(std::move(chunk));
    at += n;
  }
  return stream;
}

// A small trace whose binary records are exactly 2 bytes each (tags and
// deltas all < 128), so torn-tail tests can pin how many records survive a
// cut at any byte count.
RawTrace TwoByteRecordTrace(std::size_t n) {
  RawTrace raw;
  std::uint32_t now = 0;
  for (std::size_t i = 0; i < n; ++i) {
    now += 3;
    raw.events.push_back(
        {static_cast<std::uint16_t>(i % 2 == 0 ? 100 : 101), now});
  }
  return raw;
}

std::size_t NthChunkOffset(const std::string& bytes, std::size_t n) {
  const char magic[4] = {
      static_cast<char>(kBinaryChunkMagic & 0xFF),
      static_cast<char>((kBinaryChunkMagic >> 8) & 0xFF),
      static_cast<char>((kBinaryChunkMagic >> 16) & 0xFF),
      static_cast<char>((kBinaryChunkMagic >> 24) & 0xFF)};
  std::size_t pos = kBinaryFileHeaderSize;
  for (std::size_t k = 0;; ++k) {
    pos = bytes.find(std::string(magic, 4), pos);
    HWPROF_CHECK(pos != std::string::npos);
    if (k == n) {
      return pos;
    }
    pos += 4;
  }
}

bool HasDiag(const std::vector<TraceDiag>& diags, const std::string& needle) {
  for (const TraceDiag& d : diags) {
    if (d.message.find(needle) != std::string::npos) {
      return true;
    }
  }
  return false;
}

std::string WriteTempFile(const std::string& name, const std::string& bytes) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  HWPROF_CHECK(static_cast<bool>(out));
  return path;
}

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  HWPROF_CHECK(static_cast<bool>(in));
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  return bytes;
}

int RunAnalyze(std::initializer_list<const char*> args, std::string* error) {
  std::vector<const char*> argv{"hwprof_analyze"};
  argv.insert(argv.end(), args.begin(), args.end());
  return AnalyzeMain(static_cast<int>(argv.size()), argv.data(), error);
}

int RunConvert(std::initializer_list<const char*> args, std::string* error) {
  std::vector<const char*> argv{"hwprof_convert"};
  argv.insert(argv.end(), args.begin(), args.end());
  return ConvertMain(static_cast<int>(argv.size()), argv.data(), error);
}

std::string WriteNamesFile(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::ofstream out(path);
  out << "a/100\nb/102\nc/104\nd/106\nswtch/200!\nidle_swtch/202!\n"
         "MARK/300=\nPOINT/302=\n";
  return path;
}

// --- Round-trip fuzz ---------------------------------------------------------

class BinaryRoundTripFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BinaryRoundTripFuzzTest, CaptureTextBinaryTextIsBitIdentical) {
  const std::uint64_t seed = GetParam();
  RawTrace raw = FuzzTrace(seed, 500);
  // Vary every header field the container carries.
  if (seed % 4 == 1) {
    raw.dropped_events = 1 + seed % 17;
  }
  if (seed % 3 == 0) {
    raw.capture_elapsed_ns = 40'000'000'000ull;
  }
  const std::string text = raw.Serialize();
  const std::string bin = EncodeCaptureBinary(raw);

  RawTrace back;
  std::vector<TraceDiag> diags;
  ASSERT_TRUE(DecodeCaptureBinary(bin, &back, &diags))
      << "seed " << seed << ": " << (diags.empty() ? "" : diags[0].message);
  EXPECT_TRUE(diags.empty());
  EXPECT_EQ(back.Serialize(), text) << "seed " << seed;
  // And binary -> text -> binary reproduces the container bit-for-bit.
  EXPECT_EQ(EncodeCaptureBinary(back), bin) << "seed " << seed;
}

TEST_P(BinaryRoundTripFuzzTest, StreamTextBinaryTextIsBitIdentical) {
  const std::uint64_t seed = GetParam();
  const RawTrace raw = FuzzTrace(seed + 500, 400);
  StreamCapture stream = RandomChunking(raw, seed);
  // Drop counts on some banks: they must survive both directions.
  for (std::size_t i = 0; i < stream.chunks.size(); ++i) {
    if ((i + seed) % 3 == 0) {
      stream.chunks[i].dropped_before = 1 + (i * seed) % 9;
    }
  }
  const std::string text = SerializeStreamText(stream);
  const std::string bin = EncodeStreamBinary(stream);

  StreamCapture back;
  std::vector<TraceDiag> diags;
  ASSERT_TRUE(DecodeStreamBinary(bin, &back, &diags)) << "seed " << seed;
  EXPECT_FALSE(back.truncated_tail);
  EXPECT_EQ(back.chunks.size(), stream.chunks.size());
  EXPECT_EQ(SerializeStreamText(back), text) << "seed " << seed;
  EXPECT_EQ(EncodeStreamBinary(back), bin) << "seed " << seed;
}

TEST_P(BinaryRoundTripFuzzTest, BinaryDecodeMatchesTextDecodeOnEveryPath) {
  const std::uint64_t seed = GetParam();
  const TagFile& names = MakeNames();
  RawTrace raw = FuzzTrace(seed, 600);
  if (seed % 4 == 1) {
    raw.dropped_events = 1 + seed % 17;
  }
  if (seed % 3 == 0) {
    raw.capture_elapsed_ns = 40'000'000'000ull;
  }
  const std::string bin = EncodeCaptureBinary(raw);
  const std::string expected = Fingerprint(ReferenceDecode(raw, names));
  for (const std::size_t target : kShardTargets) {
    ASSERT_EQ(Fingerprint(DecodeBinary(bin, names, target)), expected)
        << "binary target=" << target << " seed " << seed;
  }

  // Chunked-stream path: the same events as a binary *stream* container with
  // seeded random bank boundaries (the stream header carries no
  // overflow/drop/envelope fields, so compare against a matching capture).
  RawTrace flat = raw;
  flat.overflowed = false;
  flat.dropped_events = 0;
  flat.capture_elapsed_ns = 0;
  const std::string flat_expected = Fingerprint(ReferenceDecode(flat, names));
  for (std::uint64_t chunk_seed : {1u, 77u}) {
    const std::string sbin =
        EncodeStreamBinary(RandomChunking(flat, chunk_seed));
    StreamCapture stream;
    ASSERT_TRUE(DecodeStreamBinary(sbin, &stream, nullptr));
    StreamingDecoder decoder(names, stream.timer_bits, stream.timer_clock_hz,
                             StreamingOptions{.retain_structure = true});
    for (const TraceChunk& chunk : stream.chunks) {
      decoder.FeedChunk(chunk);
    }
    ASSERT_EQ(Fingerprint(decoder.Finish(false)), flat_expected)
        << "binary chunked, chunk_seed=" << chunk_seed << " seed " << seed;
  }
}

TEST_P(BinaryRoundTripFuzzTest, RandomBinaryDamageNeverCrashesAndSalvages) {
  const std::uint64_t seed = GetParam();
  const TagFile& names = MakeNames();
  const RawTrace clean = FuzzTrace(seed + 2000, 300);
  const std::string damaged = CorruptCaptureBinary(EncodeCaptureBinary(clean), seed);

  // Strict: either the damage missed every checked field, or it is reported
  // with byte-offset diagnostics.
  RawTrace strict;
  std::vector<TraceDiag> diags;
  if (!DecodeCaptureBinary(damaged, &strict, &diags)) {
    ASSERT_FALSE(diags.empty()) << "failure without a diagnostic, seed " << seed;
    for (const TraceDiag& d : diags) {
      EXPECT_FALSE(d.message.empty());
    }
  }

  // Salvage: the file header survives CorruptCaptureBinary by construction,
  // so salvage always produces a trace; whatever it recovered must decode
  // identically on every path.
  RawTrace salvaged;
  std::vector<TraceDiag> salvage_diags;
  std::uint64_t corrupt_words = 0;
  ASSERT_TRUE(DecodeCaptureBinarySalvage(damaged, &salvaged, &salvage_diags,
                                         &corrupt_words))
      << "seed " << seed;
  const std::string expected =
      Fingerprint(ReferenceDecode(salvaged, names, corrupt_words));
  for (const std::size_t target : kShardTargets) {
    StreamingDecoder decoder(names, salvaged.timer_bits, salvaged.timer_clock_hz,
                             StreamingOptions{.retain_structure = true,
                                              .shard_target_ops = target});
    decoder.NoteCorruptWords(corrupt_words);
    decoder.NoteDropped(salvaged.dropped_events);
    decoder.SetClockEnvelope(salvaged.capture_elapsed_ns);
    decoder.Feed(salvaged.events);
    EXPECT_EQ(Fingerprint(decoder.Finish(salvaged.overflowed)), expected)
        << "salvage target=" << target << ", seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BinaryRoundTripFuzzTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u,
                                           10u, 11u, 12u, 13u, 14u, 15u, 16u,
                                           17u, 18u, 19u, 20u, 42u, 97u, 1993u,
                                           65537u));

// --- File-level auto-detection ----------------------------------------------

TEST(BinaryFormat, DetectCaptureFileIdentifiesAllFourShapes) {
  const RawTrace raw = TwoByteRecordTrace(4);
  const std::string tc = ::testing::TempDir() + "/det_tc";
  const std::string bc = ::testing::TempDir() + "/det_bc";
  const std::string ts = ::testing::TempDir() + "/det_ts";
  const std::string bs = ::testing::TempDir() + "/det_bs";
  ASSERT_TRUE(SaveCapture(raw, tc, CaptureFormat::kText));
  ASSERT_TRUE(SaveCapture(raw, bc, CaptureFormat::kBinary));
  ASSERT_TRUE(SaveStreamHeader(ts, 24, 1'000'000, CaptureFormat::kText));
  ASSERT_TRUE(SaveStreamHeader(bs, 24, 1'000'000, CaptureFormat::kBinary));

  CaptureFileInfo info;
  ASSERT_TRUE(DetectCaptureFile(tc, &info));
  EXPECT_EQ(info.format, CaptureFormat::kText);
  EXPECT_FALSE(info.is_stream);
  ASSERT_TRUE(DetectCaptureFile(bc, &info));
  EXPECT_EQ(info.format, CaptureFormat::kBinary);
  EXPECT_FALSE(info.is_stream);
  ASSERT_TRUE(DetectCaptureFile(ts, &info));
  EXPECT_EQ(info.format, CaptureFormat::kText);
  EXPECT_TRUE(info.is_stream);
  ASSERT_TRUE(DetectCaptureFile(bs, &info));
  EXPECT_EQ(info.format, CaptureFormat::kBinary);
  EXPECT_TRUE(info.is_stream);

  EXPECT_FALSE(DetectCaptureFile(::testing::TempDir() + "/det_missing", &info));
  const std::string junk = WriteTempFile("det_junk", "not a capture\n");
  EXPECT_FALSE(DetectCaptureFile(junk, &info));
}

TEST(BinaryFormat, SaveAndLoadAutoDetectBothFormats) {
  RawTrace raw = FuzzTrace(7, 300);
  raw.dropped_events = 3;
  for (const CaptureFormat format :
       {CaptureFormat::kText, CaptureFormat::kBinary}) {
    const std::string path =
        ::testing::TempDir() +
        (format == CaptureFormat::kBinary ? "/auto.hwpb" : "/auto.hwprof");
    ASSERT_TRUE(SaveCapture(raw, path, format));
    RawTrace back;
    ASSERT_TRUE(LoadCapture(path, &back));
    EXPECT_EQ(back.events, raw.events);
    EXPECT_EQ(back.dropped_events, raw.dropped_events);
    EXPECT_EQ(back.timer_bits, raw.timer_bits);
    EXPECT_EQ(back.overflowed, raw.overflowed);
  }
}

TEST(BinaryFormat, StreamAppendMatchesTheHeadersFormat) {
  TraceChunk first;
  first.events = {{100, 10}, {101, 20}};
  TraceChunk second;
  second.events = {{102, 30}};
  second.dropped_before = 4;
  for (const CaptureFormat format :
       {CaptureFormat::kText, CaptureFormat::kBinary}) {
    const std::string path =
        ::testing::TempDir() +
        (format == CaptureFormat::kBinary ? "/app.hwpb" : "/app.hwstream");
    ASSERT_TRUE(SaveStreamHeader(path, 24, 1'000'000, format));
    ASSERT_TRUE(AppendStreamChunk(path, first));
    ASSERT_TRUE(AppendStreamChunk(path, second));
    StreamCapture stream;
    ASSERT_TRUE(LoadStream(path, &stream));
    ASSERT_EQ(stream.chunks.size(), 2u);
    EXPECT_EQ(stream.chunks[0].events, first.events);
    EXPECT_EQ(stream.chunks[1].events, second.events);
    EXPECT_EQ(stream.chunks[1].dropped_before, 4u);
    EXPECT_FALSE(stream.truncated_tail);
  }
}

// --- Corruption matrix: exact typed-anomaly accounting -----------------------

// A three-bank stream with known record counts (3, 2, 4) and 2-byte records.
StreamCapture MatrixStream() {
  StreamCapture stream;
  std::uint32_t now = 0;
  const std::size_t counts[3] = {3, 2, 4};
  for (std::size_t c = 0; c < 3; ++c) {
    TraceChunk chunk;
    for (std::size_t i = 0; i < counts[c]; ++i) {
      now += 5;
      chunk.events.push_back(
          {static_cast<std::uint16_t>(i % 2 == 0 ? 100 : 101), now});
    }
    if (c == 1) {
      chunk.dropped_before = 6;
    }
    stream.chunks.push_back(std::move(chunk));
  }
  return stream;
}

TEST(BinaryCorruptionMatrix, FlippedCrcLosesExactlyThatChunk) {
  const std::string bin = EncodeStreamBinary(MatrixStream());
  const std::string damaged = FlipChunkCrcByte(bin, 1);
  ASSERT_NE(damaged, bin);

  StreamCapture strict;
  std::vector<TraceDiag> diags;
  EXPECT_FALSE(DecodeStreamBinary(damaged, &strict, &diags));
  EXPECT_TRUE(HasDiag(diags, "CRC mismatch"));

  StreamCapture salvaged;
  diags.clear();
  std::uint64_t corrupt = 0;
  ASSERT_TRUE(DecodeStreamBinarySalvage(damaged, &salvaged, &diags, &corrupt));
  EXPECT_EQ(corrupt, 2u);  // bank 1 held exactly 2 records
  ASSERT_EQ(salvaged.chunks.size(), 2u);
  EXPECT_EQ(salvaged.chunks[0].events.size(), 3u);
  EXPECT_EQ(salvaged.chunks[1].events.size(), 4u);
  EXPECT_FALSE(salvaged.truncated_tail);
  EXPECT_TRUE(HasDiag(diags, "CRC mismatch"));
  EXPECT_TRUE(HasDiag(diags, "resynchronised"));
}

TEST(BinaryCorruptionMatrix, OversizedRecordCountIsOneCorruptWordThenResync) {
  const std::string bin = EncodeStreamBinary(MatrixStream());
  const std::string damaged = OversizeRecordCount(bin, 0);
  ASSERT_NE(damaged, bin);

  StreamCapture strict;
  std::vector<TraceDiag> diags;
  EXPECT_FALSE(DecodeStreamBinary(damaged, &strict, &diags));
  EXPECT_TRUE(HasDiag(diags, "impossible record count"));

  StreamCapture salvaged;
  diags.clear();
  std::uint64_t corrupt = 0;
  ASSERT_TRUE(DecodeStreamBinarySalvage(damaged, &salvaged, &diags, &corrupt));
  EXPECT_EQ(corrupt, 1u);  // the damaged header, not the unverifiable payload
  ASSERT_EQ(salvaged.chunks.size(), 2u);
  EXPECT_EQ(salvaged.chunks[0].events.size(), 2u);
  EXPECT_EQ(salvaged.chunks[0].dropped_before, 6u);
  EXPECT_EQ(salvaged.chunks[1].events.size(), 4u);
  EXPECT_TRUE(HasDiag(diags, "resynchronised"));
}

TEST(BinaryCorruptionMatrix, BogusVarintLosesTheRecordsButNeedsNoRescan) {
  const std::string bin = EncodeStreamBinary(MatrixStream());
  const std::string damaged = BreakVarintInChunk(bin, 2);
  ASSERT_NE(damaged, bin);

  StreamCapture strict;
  std::vector<TraceDiag> diags;
  EXPECT_FALSE(DecodeStreamBinary(damaged, &strict, &diags));
  EXPECT_TRUE(HasDiag(diags, "damaged record encoding"));

  StreamCapture salvaged;
  diags.clear();
  std::uint64_t corrupt = 0;
  ASSERT_TRUE(DecodeStreamBinarySalvage(damaged, &salvaged, &diags, &corrupt));
  EXPECT_EQ(corrupt, 4u);  // all of bank 2's records
  ASSERT_EQ(salvaged.chunks.size(), 3u);
  EXPECT_EQ(salvaged.chunks[2].events.size(), 0u);
  // The payload length was trusted (its CRC passed), so decoding continued
  // at the payload end without scanning.
  EXPECT_FALSE(HasDiag(diags, "resynchronised"));
}

TEST(BinaryCorruptionMatrix, DestroyedChunkMagicIsOneCorruptWordThenResync) {
  const std::string bin = EncodeStreamBinary(MatrixStream());
  std::string damaged = bin;
  const std::size_t off = NthChunkOffset(bin, 1);
  damaged[off] = static_cast<char>(damaged[off] ^ 0x55);

  StreamCapture salvaged;
  std::vector<TraceDiag> diags;
  std::uint64_t corrupt = 0;
  ASSERT_TRUE(DecodeStreamBinarySalvage(damaged, &salvaged, &diags, &corrupt));
  EXPECT_EQ(corrupt, 1u);
  ASSERT_EQ(salvaged.chunks.size(), 2u);
  EXPECT_EQ(salvaged.chunks[0].events.size(), 3u);
  EXPECT_EQ(salvaged.chunks[1].events.size(), 4u);
  EXPECT_TRUE(HasDiag(diags, "expected a chunk header"));
  EXPECT_TRUE(HasDiag(diags, "resynchronised"));
}

TEST(BinaryCorruptionMatrix, TornTailMidHeaderAndMidRecord) {
  const std::string bin = EncodeStreamBinary(MatrixStream());
  const std::size_t last = NthChunkOffset(bin, 2);

  // Torn mid-header: the final bank vanishes; everything before it stands.
  {
    StreamCapture stream;
    std::vector<TraceDiag> diags;
    ASSERT_TRUE(
        DecodeStreamBinary(bin.substr(0, last + 7), &stream, &diags));
    EXPECT_TRUE(stream.truncated_tail);
    ASSERT_EQ(stream.chunks.size(), 2u);
  }
  // Torn mid-record (2-byte records; an odd payload byte count cuts one in
  // half): complete records of the final bank survive, tail flagged, in
  // strict AND salvage modes — the writer may simply still be appending.
  {
    const std::string torn = TruncateChunkPayload(bin, 2, 5);
    StreamCapture stream;
    ASSERT_TRUE(DecodeStreamBinary(torn, &stream, nullptr));
    EXPECT_TRUE(stream.truncated_tail);
    ASSERT_EQ(stream.chunks.size(), 3u);
    EXPECT_EQ(stream.chunks[2].events.size(), 2u);  // 5 bytes = 2.5 records

    StreamCapture salvage_stream;
    std::uint64_t corrupt = 0;
    ASSERT_TRUE(DecodeStreamBinarySalvage(torn, &salvage_stream, nullptr,
                                          &corrupt));
    EXPECT_TRUE(salvage_stream.truncated_tail);
    EXPECT_EQ(corrupt, 0u);
  }
}

TEST(BinaryCorruptionMatrix, CaptureTornTailIsStrictFailureSalvageCountsIt) {
  const RawTrace raw = TwoByteRecordTrace(10);
  const std::string bin = EncodeCaptureBinary(raw);
  const std::string torn = TruncateChunkPayload(bin, 0, 7);  // 3.5 records

  RawTrace strict;
  std::vector<TraceDiag> diags;
  EXPECT_FALSE(DecodeCaptureBinary(torn, &strict, &diags));
  EXPECT_TRUE(HasDiag(diags, "torn chunk payload"));

  RawTrace salvaged;
  diags.clear();
  std::uint64_t corrupt = 0;
  ASSERT_TRUE(DecodeCaptureBinarySalvage(torn, &salvaged, &diags, &corrupt));
  EXPECT_EQ(salvaged.events.size(), 3u);
  EXPECT_EQ(corrupt, 7u);  // 10 promised, 3 decoded
}

TEST(BinaryCorruptionMatrix, TimestampAboveTheTimerMaskIsACorruptWord) {
  RawTrace raw = TwoByteRecordTrace(4);
  raw.events[2].timestamp = (1u << 24) + 9;  // above the 24-bit mask
  const std::string bin = EncodeCaptureBinary(raw);

  RawTrace strict;
  std::vector<TraceDiag> diags;
  EXPECT_FALSE(DecodeCaptureBinary(bin, &strict, &diags));
  EXPECT_TRUE(HasDiag(diags, "exceeds the 24-bit timer mask"));

  RawTrace salvaged;
  std::uint64_t corrupt = 0;
  ASSERT_TRUE(DecodeCaptureBinarySalvage(bin, &salvaged, nullptr, &corrupt));
  EXPECT_EQ(corrupt, 1u);
  ASSERT_EQ(salvaged.events.size(), 3u);  // the impossible record is dropped
  EXPECT_EQ(salvaged.events[2], raw.events[3]);
}

// --- CLI: diagnostics, exits, --follow, convert ------------------------------

TEST(BinaryCli, StrictLoadFailsWithByteOffsetDiagnostics) {
  const RawTrace raw = TwoByteRecordTrace(6);
  const std::string damaged = FlipChunkCrcByte(EncodeCaptureBinary(raw), 0);
  const std::string capture = WriteTempFile("bincli_bad.hwpb", damaged);
  const std::string names = WriteNamesFile("bincli_bad.names");

  std::string error;
  EXPECT_NE(RunAnalyze({capture.c_str(), names.c_str(), "--summary", "5"},
                       &error),
            0);
  EXPECT_NE(error.find("cannot load capture"), std::string::npos) << error;
  // The CRC field of the first chunk sits at byte 40 + 20.
  EXPECT_NE(error.find(":60:"), std::string::npos) << error;
  EXPECT_NE(error.find("CRC mismatch"), std::string::npos) << error;
}

TEST(BinaryCli, SalvageDecodesAndReportsTheDamage) {
  const RawTrace raw = TwoByteRecordTrace(6);
  const std::string damaged = FlipChunkCrcByte(EncodeCaptureBinary(raw), 0);
  const std::string capture = WriteTempFile("bincli_salvage.hwpb", damaged);
  const std::string names = WriteNamesFile("bincli_salvage.names");

  std::string error;
  ::testing::internal::CaptureStdout();
  const int rc = RunAnalyze(
      {capture.c_str(), names.c_str(), "--salvage", "--summary", "5"}, &error);
  const std::string out = ::testing::internal::GetCapturedStdout();
  EXPECT_EQ(rc, 0) << error;
  EXPECT_NE(out.find("(salvaged)"), std::string::npos) << out;
  EXPECT_NE(out.find("corrupt words"), std::string::npos) << out;
}

TEST(BinaryCli, JsonIsByteIdenticalAcrossFormats) {
  Rng rng(11);
  RawTrace raw = FuzzTrace(11, 800);
  const std::string text_path =
      WriteTempFile("bincli_json.hwprof", raw.Serialize());
  const std::string bin_path =
      WriteTempFile("bincli_json.hwpb", EncodeCaptureBinary(raw));
  const std::string names = WriteNamesFile("bincli_json.names");

  auto json = [&](const std::string& capture) {
    std::string error;
    ::testing::internal::CaptureStdout();
    const int rc = RunAnalyze({capture.c_str(), names.c_str(), "--json"}, &error);
    std::string out = ::testing::internal::GetCapturedStdout();
    EXPECT_EQ(rc, 0) << error;
    return out;
  };
  EXPECT_EQ(json(bin_path), json(text_path));
}

TEST(BinaryCli, FollowReadsABinaryStreamAndToleratesAMidRecordTear) {
  const std::string stream = ::testing::TempDir() + "/bincli_follow.hwpb";
  const std::string names = WriteNamesFile("bincli_follow.names");
  ASSERT_TRUE(SaveStreamHeader(stream, 24, 1'000'000, CaptureFormat::kBinary));
  TraceChunk first;
  first.events = {{100, 10}, {102, 20}, {103, 60}, {101, 90}};
  ASSERT_TRUE(AppendStreamChunk(stream, first));

  std::string error;
  ::testing::internal::CaptureStdout();
  int rc = RunAnalyze({stream.c_str(), names.c_str(), "--follow", "--summary",
                       "5"},
                      &error);
  std::string out = ::testing::internal::GetCapturedStdout();
  EXPECT_EQ(rc, 0) << error;
  EXPECT_NE(out.find("end of stream: 1 chunks"), std::string::npos) << out;

  // A writer dies mid-record: append only part of the next bank's bytes.
  TraceChunk second;
  second.events = {{100, 120}, {101, 150}, {100, 180}};
  const std::string block = EncodeStreamChunkBinary(second);
  {
    std::ofstream app(stream, std::ios::app | std::ios::binary);
    // Chunk header (24) plus 3 payload bytes: one complete 2-byte record
    // and half of the next.
    app.write(block.data(), 24 + 3);
  }
  error.clear();
  ::testing::internal::CaptureStdout();
  rc = RunAnalyze({stream.c_str(), names.c_str(), "--follow", "--summary", "5"},
                  &error);
  out = ::testing::internal::GetCapturedStdout();
  EXPECT_EQ(rc, 0) << error;
  EXPECT_NE(out.find("(truncated tail)"), std::string::npos) << out;
}

TEST(BinaryCli, FollowReportsBinaryCorruptionUnlessSalvaging) {
  const std::string stream = ::testing::TempDir() + "/bincli_fcorrupt.hwpb";
  const std::string names = WriteNamesFile("bincli_fcorrupt.names");
  ASSERT_TRUE(SaveStreamHeader(stream, 24, 1'000'000, CaptureFormat::kBinary));
  TraceChunk first;
  first.events = {{100, 10}, {101, 50}};
  TraceChunk second;
  second.events = {{100, 80}, {101, 110}};
  ASSERT_TRUE(AppendStreamChunk(stream, first));
  ASSERT_TRUE(AppendStreamChunk(stream, second));
  const std::string damaged = FlipChunkCrcByte(ReadWholeFile(stream), 0);
  std::ofstream(stream, std::ios::trunc | std::ios::binary)
      .write(damaged.data(), static_cast<std::streamsize>(damaged.size()));

  std::string error;
  EXPECT_NE(RunAnalyze({stream.c_str(), names.c_str(), "--follow"}, &error), 0);
  EXPECT_NE(error.find("cannot load stream"), std::string::npos) << error;

  error.clear();
  ::testing::internal::CaptureStdout();
  const int rc = RunAnalyze({stream.c_str(), names.c_str(), "--follow",
                             "--salvage", "--summary", "5"},
                            &error);
  const std::string out = ::testing::internal::GetCapturedStdout();
  EXPECT_EQ(rc, 0) << error;
  EXPECT_NE(out.find("corrupt words"), std::string::npos) << out;
}

TEST(ConvertCli, TranslatesLosslesslyInBothDirections) {
  RawTrace raw = FuzzTrace(13, 400);
  raw.dropped_events = 5;
  const std::string text_path =
      WriteTempFile("conv_in.hwprof", raw.Serialize());
  const std::string bin_path = ::testing::TempDir() + "/conv_out.hwpb";
  const std::string back_path = ::testing::TempDir() + "/conv_back.hwprof";

  std::string error;
  ::testing::internal::CaptureStdout();
  ASSERT_EQ(RunConvert({text_path.c_str(), bin_path.c_str()}, &error), 0)
      << error;
  const std::string summary = ::testing::internal::GetCapturedStdout();
  EXPECT_NE(summary.find("text capture -> binary"), std::string::npos);
  EXPECT_EQ(ReadWholeFile(bin_path), EncodeCaptureBinary(raw));

  ::testing::internal::CaptureStdout();
  ASSERT_EQ(RunConvert({bin_path.c_str(), back_path.c_str()}, &error), 0)
      << error;
  ::testing::internal::GetCapturedStdout();
  EXPECT_EQ(ReadWholeFile(back_path), raw.Serialize());

  // --to the same format is an idempotent (canonicalising) copy.
  const std::string same_path = ::testing::TempDir() + "/conv_same.hwprof";
  ::testing::internal::CaptureStdout();
  ASSERT_EQ(RunConvert({text_path.c_str(), same_path.c_str(), "--to", "text"},
                       &error),
            0)
      << error;
  ::testing::internal::GetCapturedStdout();
  EXPECT_EQ(ReadWholeFile(same_path), raw.Serialize());
}

TEST(ConvertCli, RefusesJunkAndTornStreams) {
  std::string error;
  const std::string junk = WriteTempFile("conv_junk", "what even is this\n");
  EXPECT_NE(RunConvert({junk.c_str(), "/tmp/never"}, &error), 0);
  EXPECT_NE(error.find("cannot identify"), std::string::npos) << error;

  // A torn stream must not be silently "converted" into a clean one.
  const std::string torn = WriteTempFile(
      "conv_torn.hwstream", "hwprof-stream v1 24 1000000\nchunk 2 0\n100 10\n10");
  error.clear();
  EXPECT_NE(RunConvert({torn.c_str(), "/tmp/never"}, &error), 0);
  EXPECT_NE(error.find("torn tail"), std::string::npos) << error;
}

// --- Text stream parser regressions (the latent LoadStreamSalvage issues) ---

TEST(TextStreamSalvage, MidFileResyncIsNotATornTail) {
  // Bank 0 promises three events but its third line is destroyed; the next
  // bank follows immediately. Salvage must resynchronise at that boundary,
  // bill exactly one corrupt word, and NOT claim the writer was still
  // appending (the old parser set truncated_tail on every short chunk).
  const std::string path = WriteTempFile(
      "resync.hwstream",
      "hwprof-stream v1 24 1000000\n"
      "chunk 3 0\n100 10\n101 20\nzap!\n"
      "chunk 2 0\n100 50\n101 60\n");
  StreamCapture stream;
  std::vector<TraceDiag> diags;
  std::uint64_t corrupt = 0;
  ASSERT_TRUE(LoadStreamSalvage(path, &stream, &diags, &corrupt));
  EXPECT_FALSE(stream.truncated_tail);
  EXPECT_EQ(corrupt, 1u);
  ASSERT_EQ(stream.chunks.size(), 2u);
  EXPECT_EQ(stream.chunks[0].events.size(), 2u);
  EXPECT_EQ(stream.chunks[1].events.size(), 2u);
}

TEST(TextStreamSalvage, DestroyedChunkHeaderDoesNotBillTheOrphanedEvents) {
  // The second bank's header line is destroyed but its three event lines are
  // intact. Salvage must recover them as a chunk and charge ONE corrupt word
  // (the header), not four — the old parser billed every orphaned line.
  const std::string path = WriteTempFile(
      "orphans.hwstream",
      "hwprof-stream v1 24 1000000\n"
      "chunk 2 0\n100 10\n101 20\n"
      "chXnk ? 0\n100 30\n101 40\n100 50\n"
      "chunk 1 0\n101 80\n");
  StreamCapture stream;
  std::vector<TraceDiag> diags;
  std::uint64_t corrupt = 0;
  ASSERT_TRUE(LoadStreamSalvage(path, &stream, &diags, &corrupt));
  EXPECT_EQ(corrupt, 1u);
  EXPECT_FALSE(stream.truncated_tail);
  ASSERT_EQ(stream.chunks.size(), 3u);
  EXPECT_EQ(stream.chunks[0].events.size(), 2u);
  EXPECT_EQ(stream.chunks[1].events.size(), 3u);  // the recovered orphans
  EXPECT_EQ(stream.chunks[1].dropped_before, 0u);  // the boundary count is gone
  EXPECT_EQ(stream.chunks[2].events.size(), 1u);
  EXPECT_TRUE(HasDiag(diags, "recovered 3 orphaned event lines"));

  // Strict mode still refuses the same file with a line diagnostic.
  StreamCapture strict;
  diags.clear();
  EXPECT_FALSE(LoadStream(path, &strict, &diags));
  ASSERT_FALSE(diags.empty());
  EXPECT_EQ(diags[0].line, 5);
}

TEST(TextStreamSalvage, CorruptionSpanningAChunkBoundaryCountsOnce) {
  // The last event line of bank 0 AND the following chunk header are both
  // mangled: exactly two unreadable lines, so exactly two corrupt words —
  // resync must not double-bill the boundary, and the trailing bank parses.
  const std::string path = WriteTempFile(
      "boundary.hwstream",
      "hwprof-stream v1 24 1000000\n"
      "chunk 2 0\n100 10\nga rb age\n"
      "not a header either\n"
      "chunk 1 0\n101 50\n");
  StreamCapture stream;
  std::vector<TraceDiag> diags;
  std::uint64_t corrupt = 0;
  ASSERT_TRUE(LoadStreamSalvage(path, &stream, &diags, &corrupt));
  EXPECT_EQ(corrupt, 2u);
  EXPECT_FALSE(stream.truncated_tail);
  ASSERT_EQ(stream.chunks.size(), 2u);
  EXPECT_EQ(stream.chunks[0].events.size(), 1u);
  EXPECT_EQ(stream.chunks[1].events.size(), 1u);
}

}  // namespace
}  // namespace hwprof
