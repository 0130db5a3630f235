// Pins every accept/reject decision and every diagnostic of the three text
// parsers — the capture upload (`RawTrace`), the chunked stream file
// (`ParseStreamText`) and the names file (`TagFile`) — on seeded mutations
// of real inputs, without committing the mutated texts: each parser's
// outcomes are folded into one CRC-32 with a few counts.
//
// Every mutation runs through strict and, where the parser offers it,
// salvage mode. The fold covers ok/fail, every parsed event or tag entry,
// every chunk's `dropped_before`, `truncated_tail`, `corrupt_words` and
// every `(line, message)` diagnostic, so a parser rewrite that changes any
// byte of behaviour shows here. The mutator reaches the number-field
// boundaries (signs, 2^63, 2^64, the 16-bit tag, the timer mask at 8, 24 and
// 32 bits), the line-shape cases (spaces, tabs, '\r', empty lines, a missing
// or doubled final newline) and a destroyed chunk header.
//
// A mismatch prints the table of actual values; an intended change to a
// parser's behaviour is re-recorded by pasting that table over kExpected.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/crc32.h"
#include "src/base/rng.h"
#include "src/base/strings.h"
#include "src/instr/tag_file.h"
#include "src/profhw/raw_trace.h"
#include "src/profhw/smart_socket.h"

namespace hwprof {
namespace {

struct Digest {
  std::string leg;
  std::uint32_t crc = 0;
  std::size_t runs = 0;   // parses folded (strict and salvage)
  std::size_t ok = 0;     // parses that returned true
  std::size_t diags = 0;  // diagnostics folded

  bool operator==(const Digest&) const = default;
  friend std::ostream& operator<<(std::ostream& os, const Digest& d) {
    char text[128];
    std::snprintf(text, sizeof(text), "{\"%s\", 0x%08x, %zu, %zu, %zu}", d.leg.c_str(),
                  d.crc, d.runs, d.ok, d.diags);
    return os << text;
  }
};

// Re-record only for an intended change to a parser's behaviour.
const std::vector<Digest> kExpected = {
    {"capture", 0x92ea6d09, 2006, 1059, 939518},
    {"stream", 0xeeef72a4, 2006, 1195, 483022},
    {"names", 0xc3f82cb2, 3001, 910, 3245},
};

std::string ReadGolden(const char* name) {
  std::ifstream in(std::string(HWPROF_TEST_DIR) + "/golden/" + name);
  std::stringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

// --- The fold -------------------------------------------------------------------

class Fold {
 public:
  explicit Fold(std::string leg) : leg_(std::move(leg)) {}

  void U64(std::uint64_t v) { crc_ = Crc32Update(crc_, &v, sizeof(v)); }
  void Str(std::string_view s) {
    U64(s.size());
    crc_ = Crc32Update(crc_, s.data(), s.size());
  }
  void Outcome(bool ok) {
    ++runs_;
    ok_ += ok ? 1 : 0;
    U64(ok ? 1 : 0);
  }
  template <typename Diag>
  void Diags(const std::vector<Diag>& diags) {
    U64(diags.size());
    for (const Diag& d : diags) {
      U64(static_cast<std::uint64_t>(static_cast<std::int64_t>(d.line)));
      Str(d.message);
    }
    diags_ += diags.size();
  }
  void Events(const std::vector<RawEvent>& events) {
    U64(events.size());
    for (const RawEvent& e : events) {
      U64(e.tag);
      U64(e.timestamp);
    }
  }

  Digest Finish() const { return Digest{leg_, Crc32Final(crc_), runs_, ok_, diags_}; }

 private:
  std::string leg_;
  std::uint32_t crc_ = kCrc32Init;
  std::size_t runs_ = 0;
  std::size_t ok_ = 0;
  std::size_t diags_ = 0;
};

void FoldCapture(std::string_view text, Fold* fold) {
  for (const bool salvage : {false, true}) {
    RawTrace trace;
    std::vector<TraceDiag> diags;
    std::uint64_t corrupt = 0;
    const bool ok = salvage ? RawTrace::DeserializeSalvage(text, &trace, &diags, &corrupt)
                            : RawTrace::Deserialize(text, &trace, &diags);
    fold->Outcome(ok);
    if (ok) {
      fold->U64(trace.timer_bits);
      fold->U64(trace.timer_clock_hz);
      fold->U64(trace.overflowed ? 1 : 0);
      fold->U64(trace.dropped_events);
      fold->U64(trace.capture_elapsed_ns);
      fold->Events(trace.events);
    }
    fold->U64(corrupt);
    fold->Diags(diags);
  }
}

void FoldStream(std::string_view text, Fold* fold) {
  for (const bool salvage : {false, true}) {
    StreamCapture stream;
    std::vector<TraceDiag> diags;
    std::uint64_t corrupt = 0;
    const bool ok = ParseStreamText(text, &stream, &diags, salvage, &corrupt);
    fold->Outcome(ok);
    if (ok) {
      fold->U64(stream.timer_bits);
      fold->U64(stream.timer_clock_hz);
      fold->U64(stream.truncated_tail ? 1 : 0);
      fold->U64(stream.chunks.size());
      for (const TraceChunk& chunk : stream.chunks) {
        fold->U64(chunk.dropped_before);
        fold->Events(chunk.events);
      }
    }
    fold->U64(corrupt);
    fold->Diags(diags);
  }
}

void FoldNames(std::string_view text, Fold* fold) {
  TagFile file;
  std::vector<TagDiag> diags;
  const bool ok = TagFile::Parse(text, &file, &diags);
  fold->Outcome(ok);
  if (ok) {
    fold->U64(file.size());
    for (const TagEntry& e : file.entries()) {
      fold->Str(e.name);
      fold->U64(e.tag);
      fold->U64(static_cast<std::uint64_t>(e.kind));
      fold->Str(e.group);
      fold->U64(e.index);
    }
  }
  fold->Diags(diags);
}

// --- The mutator ----------------------------------------------------------------

enum Op {
  kFlip,                // one byte, from the parsers' alphabet or any value
  kSplice,              // a run of the file copied elsewhere, or cut out
  kTruncate,            // almost always mid-line
  kNoFinalNewline,      // the last line loses its '\n'
  kDoubleFinalNewline,  // the file ends "\n\n"
  kEmptyLine,           // an empty line somewhere in the file
  kSpacing,             // double, leading or trailing space, tab, '\r'
  kSign,                // '+' or '-' before a number
  kBoundary,            // a field at a ParseUint / tag-width boundary
  kTimerBits,           // header width 8/24/32, a timestamp at mask or mask+1
  kHeaderToken,         // an extra capture header token
  kDestroyChunkHeader,  // a stream 'chunk' line made unreadable
  kDuplicateLine,       // a line twice
  kOpCount,
};

// Numbers that straddle every bound a text parser checks: 2^63-1 (the
// largest ParseUint accepts), 2^63, 2^64-1 (the largest from_chars accepts),
// 2^64, the 16-bit tag section, and leading zeros.
constexpr std::array<std::string_view, 10> kBoundaries = {
    "9223372036854775807", "9223372036854775808", "18446744073709551615",
    "18446744073709551616", "99999999999999999999", "65535",
    "65536", "0", "0000000000000000000065535", "4294967296",
};

constexpr std::array<unsigned, 3> kTimerWidths = {8, 24, 32};

std::uint64_t MaskFor(unsigned bits) {
  return bits >= 32 ? 0xFFFFFFFFull : ((1ull << bits) - 1);
}

class Mutator {
 public:
  Mutator(Rng& rng, std::string* text) : rng_(rng), text_(text) {}

  void Apply(Op op) {
    switch (op) {
      case kFlip: {
        static constexpr std::string_view kBytes = "0123456789 \t\r\n+-/=!#cx";
        if (!text_->empty()) {
          (*text_)[rng_.NextBelow(text_->size())] =
              rng_.NextBool(0.5) ? kBytes[rng_.NextBelow(kBytes.size())]
                                 : static_cast<char>(rng_.NextBelow(256));
        }
        return;
      }
      case kSplice: {
        const std::size_t from = rng_.NextBelow(text_->size() + 1);
        const std::size_t len = rng_.NextBelow(64);
        if (rng_.NextBool(0.5)) {
          const std::string run = text_->substr(from, len);
          text_->insert(rng_.NextBelow(text_->size() + 1), run);
        } else {
          text_->erase(from, len);
        }
        return;
      }
      case kTruncate:
        text_->resize(rng_.NextBelow(text_->size() + 1));
        return;
      case kNoFinalNewline:
        while (!text_->empty() && text_->back() == '\n') {
          text_->pop_back();
        }
        return;
      case kDoubleFinalNewline:
        text_->push_back('\n');
        return;
      default:
        break;
    }
    // The rest edit whole lines. Splitting on '\n' keeps the empty field
    // after a final newline, so joining restores the text exactly.
    std::vector<std::string> lines;
    for (std::string_view line : Split(*text_, '\n')) {
      lines.emplace_back(line);
    }
    EditLines(op, &lines);
    text_->clear();
    for (std::size_t i = 0; i < lines.size(); ++i) {
      if (i > 0) {
        text_->push_back('\n');
      }
      *text_ += lines[i];
    }
  }

 private:
  // A line other than the header, when there is one.
  std::size_t BodyLine(const std::vector<std::string>& lines) {
    return lines.size() > 2 ? 1 + rng_.NextBelow(lines.size() - 2)
                            : rng_.NextBelow(lines.size());
  }
  std::string_view Boundary() { return kBoundaries[rng_.NextBelow(kBoundaries.size())]; }

  void EditLines(Op op, std::vector<std::string>* lines_ptr) {
    std::vector<std::string>& lines = *lines_ptr;
    switch (op) {
      case kEmptyLine:
        lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(rng_.NextBelow(lines.size())),
                     std::string());
        return;
      case kSpacing: {
        std::string& line = lines[BodyLine(lines)];
        const std::size_t space = line.find(' ');
        switch (rng_.NextBelow(6)) {
          case 0:
            line.insert(space == std::string::npos ? line.size() : space, " ");
            return;
          case 1:
            line.insert(0, " ");
            return;
          case 2:
            line.push_back(' ');
            return;
          case 3:
            if (space == std::string::npos) {
              line.insert(0, "\t");
            } else {
              line[space] = '\t';
            }
            return;
          case 4:
            line.push_back('\r');
            return;
          default:
            line.insert(rng_.NextBelow(line.size() + 1), " ");
            return;
        }
      }
      case kSign: {
        std::string& line = lines[BodyLine(lines)];
        const char sign = rng_.NextBool(0.5) ? '+' : '-';
        const std::size_t slash = line.find('/');
        const std::size_t space = line.find(' ');
        if (slash != std::string::npos) {
          line.insert(slash + 1, 1, sign);
        } else if (space != std::string::npos && rng_.NextBool(0.5)) {
          line.insert(space + 1, 1, sign);
        } else {
          line.insert(0, 1, sign);
        }
        return;
      }
      case kBoundary: {
        std::string& line = lines[BodyLine(lines)];
        const std::string value(Boundary());
        const std::size_t slash = line.find('/');
        if (slash != std::string::npos) {
          // A names entry: replace the digits of the tag value.
          std::size_t end = slash + 1;
          while (end < line.size() && line[end] >= '0' && line[end] <= '9') {
            ++end;
          }
          line.replace(slash + 1, end - slash - 1, value);
          return;
        }
        const std::size_t space = line.find(' ');
        if (space == std::string::npos) {
          line = value + " 0";
        } else if (rng_.NextBool(0.5)) {
          line.replace(0, space, value);
        } else {
          line.replace(space + 1, std::string::npos, value);
        }
        return;
      }
      case kTimerBits: {
        const unsigned bits = kTimerWidths[rng_.NextBelow(kTimerWidths.size())];
        std::vector<std::string_view> header = Split(lines[0], ' ');
        if (header.size() >= 3) {
          const std::string width = std::to_string(bits);
          header[2] = width;
          std::string rebuilt;
          for (std::size_t i = 0; i < header.size(); ++i) {
            rebuilt += i == 0 ? "" : " ";
            rebuilt += header[i];
          }
          lines[0] = rebuilt;
        }
        const std::uint64_t stamp = MaskFor(bits) + (rng_.NextBool(0.5) ? 1 : 0);
        lines[BodyLine(lines)] =
            std::to_string(rng_.NextBelow(0x10000)) + " " + std::to_string(stamp);
        return;
      }
      case kHeaderToken: {
        static constexpr std::array<std::string_view, 8> kTokens = {
            " dropped=", " elapsed=", " dropped=", " bogus=",
            " dropped", "  elapsed=", " elapsed=+", " dropped=-"};
        lines[0] += kTokens[rng_.NextBelow(kTokens.size())];
        if (rng_.NextBool(0.8)) {
          lines[0] += rng_.NextBool(0.5) ? std::string(Boundary())
                                         : std::to_string(rng_.NextBelow(1000));
        }
        return;
      }
      case kDestroyChunkHeader: {
        std::vector<std::size_t> headers;
        for (std::size_t i = 1; i < lines.size(); ++i) {
          if (StartsWith(lines[i], "chunk")) {
            headers.push_back(i);
          }
        }
        if (headers.empty()) {
          return;
        }
        std::string& line = lines[headers[rng_.NextBelow(headers.size())]];
        static constexpr std::array<std::string_view, 6> kWrecks = {
            "chXnk", "", "chunk", "#", "chunk -1 0", "chunk 1 2 3"};
        const std::string_view wreck = kWrecks[rng_.NextBelow(kWrecks.size())];
        if (wreck == "chXnk") {
          line.replace(0, 5, wreck);
        } else {
          line = std::string(wreck);
        }
        return;
      }
      case kDuplicateLine: {
        const std::string copy = lines[rng_.NextBelow(lines.size())];
        lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(rng_.NextBelow(lines.size())),
                     copy);
        return;
      }
      default:
        return;
    }
  }

  Rng& rng_;
  std::string* text_;
};

// Runs `seeds` seeded mutations of `original` (1-3 ops each, drawn from
// `ops`) through `fold_one`, and checks every op was drawn.
template <typename FoldOne>
void FoldMutations(const std::string& original, std::uint64_t seeds,
                   const std::vector<Op>& ops, FoldOne fold_one, Fold* fold) {
  std::array<std::size_t, kOpCount> used{};
  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    Rng rng(seed);
    std::string text = original;
    Mutator mutator(rng, &text);
    for (std::uint64_t n = 1 + rng.NextBelow(3); n > 0; --n) {
      const Op op = ops[rng.NextBelow(ops.size())];
      ++used[op];
      mutator.Apply(op);
    }
    fold_one(text, fold);
  }
  for (Op op : ops) {
    EXPECT_GT(used[op], 0u) << "op " << op << " never drawn";
  }
}

// Hand-written event lines at every boundary, behind a header of each timer
// width: these cases are in the digest whatever the random draw.
std::vector<std::string> BoundaryEventLines(unsigned bits) {
  const std::string mask = std::to_string(MaskFor(bits));
  const std::string over = std::to_string(MaskFor(bits) + 1);
  return {
      "65535 " + mask, "65536 " + mask, "0 " + over, "1 " + mask,
      "9223372036854775807 0", "9223372036854775808 0", "18446744073709551615 0",
      "18446744073709551616 0", "0 9223372036854775807", "0 18446744073709551616",
      "+1 2", "-1 2", "1 +2", "1 -2", "1  2", " 1 2", "1 2 ", "1\t2", "1 2\r",
      "", "x 2", "1 y", "1", "1 2 3", "01 002", " ", "  ", "1 2  ",
  };
}

std::vector<Digest> FoldAll() {
  const std::string capture_text = ReadGolden("net_receive.capture");
  const std::string names_text = ReadGolden("net_receive.names");
  EXPECT_FALSE(capture_text.empty());
  EXPECT_FALSE(names_text.empty());
  RawTrace raw;
  EXPECT_TRUE(RawTrace::Deserialize(capture_text, &raw));

  // The same events as a four-chunk stream with drops before each bank.
  StreamCapture stream;
  stream.timer_bits = raw.timer_bits;
  stream.timer_clock_hz = raw.timer_clock_hz;
  const std::array<std::uint64_t, 4> drops = {2, 0, 37, 1000};
  const std::size_t per_chunk = raw.events.size() / drops.size() + 1;
  for (std::size_t c = 0; c < drops.size(); ++c) {
    TraceChunk chunk;
    chunk.dropped_before = drops[c];
    const std::size_t begin = std::min(raw.events.size(), c * per_chunk);
    const std::size_t end = std::min(raw.events.size(), begin + per_chunk);
    chunk.events.assign(raw.events.begin() + static_cast<std::ptrdiff_t>(begin),
                        raw.events.begin() + static_cast<std::ptrdiff_t>(end));
    stream.chunks.push_back(std::move(chunk));
  }
  const std::string stream_text = SerializeStreamText(stream);

  std::vector<Digest> out;
  {
    Fold fold("capture");
    for (unsigned bits : kTimerWidths) {
      std::string text = "hwprof-raw v1 " + std::to_string(bits) + " 1000000 0\n";
      for (const std::string& line : BoundaryEventLines(bits)) {
        text += line + "\n";
      }
      FoldCapture(text, &fold);
    }
    FoldMutations(capture_text, 1000,
                  {kFlip, kSplice, kTruncate, kNoFinalNewline, kDoubleFinalNewline,
                   kEmptyLine, kSpacing, kSign, kBoundary, kTimerBits, kHeaderToken,
                   kDuplicateLine},
                  FoldCapture, &fold);
    out.push_back(fold.Finish());
  }
  {
    Fold fold("stream");
    for (unsigned bits : kTimerWidths) {
      const std::vector<std::string> lines = BoundaryEventLines(bits);
      std::string text = "hwprof-stream v1 " + std::to_string(bits) + " 1000000\n";
      text += "chunk " + std::to_string(lines.size()) + " 3\n";
      for (const std::string& line : lines) {
        text += line + "\n";
      }
      FoldStream(text, &fold);
    }
    FoldMutations(stream_text, 1000,
                  {kFlip, kSplice, kTruncate, kNoFinalNewline, kDoubleFinalNewline,
                   kEmptyLine, kSpacing, kSign, kBoundary, kTimerBits,
                   kDestroyChunkHeader, kDuplicateLine},
                  FoldStream, &fold);
    out.push_back(fold.Finish());
  }
  {
    Fold fold("names");
    FoldNames(
        "a/65534\nb/65535=\nc/65536\nd/9223372036854775807\ne/9223372036854775808\n"
        "f/18446744073709551615\ng/18446744073709551616\nh/+2\ni/-4\nj/6\r\n"
        "k/8  group=x\n\tl/10\nm/12 group=x\tgroup=y\nn/14 \n\n#c\n/16\no/\np/18!=\n"
        "q/0000000000000000000020 group=\nr/22 group=a/b\ns/24 grp=x\nt/26 group\n",
        &fold);
    FoldMutations(names_text, 3000,
                  {kFlip, kSplice, kTruncate, kNoFinalNewline, kDoubleFinalNewline,
                   kEmptyLine, kSpacing, kSign, kBoundary, kDuplicateLine},
                  FoldNames, &fold);
    out.push_back(fold.Finish());
  }
  return out;
}

TEST(TextParseDigest, EveryParseOutcomeMatchesItsRecordedDigest) {
  const std::vector<Digest> actual = FoldAll();
  if (actual == kExpected) {
    return;
  }
  std::ostringstream table;
  for (const Digest& d : actual) {
    table << "    " << d << ",\n";
  }
  ADD_FAILURE() << "parse outcomes differ from kExpected; actual values:\n" << table.str();
  ASSERT_EQ(actual.size(), kExpected.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i], kExpected[i]) << actual[i].leg;
  }
}

// A two-field event line with a non-numeric field gets the reason the
// capture parser gives it, in a stream file as in a capture, in both modes.
TEST(StreamText, ANonNumericFieldIsReportedAsSuch) {
  const std::string kReason = "tag and timestamp must be non-negative decimal numbers";
  for (const char* bad : {"x 2", "1 -2", "+1 2", "1 2\r"}) {
    const std::string body = std::string("1 2\n") + bad + "\n3 4\n";
    std::vector<TraceDiag> capture_diags;
    RawTrace trace;
    EXPECT_FALSE(RawTrace::Deserialize("hwprof-raw v1 24 1000000 0\n" + body, &trace,
                                       &capture_diags));
    ASSERT_EQ(capture_diags.size(), 1u) << bad;
    EXPECT_EQ(capture_diags[0].line, 3) << bad;
    EXPECT_EQ(capture_diags[0].message, kReason) << bad;
    for (const bool salvage : {false, true}) {
      const std::string text = "hwprof-stream v1 24 1000000\nchunk 3 0\n" + body;
      StreamCapture stream;
      std::vector<TraceDiag> diags;
      EXPECT_EQ(ParseStreamText(text, &stream, &diags, salvage, nullptr), salvage) << bad;
      ASSERT_EQ(diags.size(), 1u) << bad;
      EXPECT_EQ(diags[0].line, 4) << bad;
      EXPECT_EQ(diags[0].message, kReason) << bad;
    }
  }
}

// A chunk header's count comes from the file: one far beyond what the rest
// of the file could hold is a torn tail, not an allocation of that size.
TEST(StreamText, AChunkCountBeyondTheFileIsATornTailNotAnAllocation) {
  for (const char* count : {"100000000000000", "9223372036854775807"}) {
    const std::string text =
        std::string("hwprof-stream v1 24 1000000\nchunk ") + count + " 4\n1 2\n3 4\n";
    StreamCapture stream;
    ASSERT_TRUE(ParseStreamText(text, &stream, nullptr, /*salvage=*/false, nullptr))
        << count;
    ASSERT_EQ(stream.chunks.size(), 1u) << count;
    EXPECT_EQ(stream.chunks[0].events.size(), 2u) << count;
    EXPECT_EQ(stream.chunks[0].dropped_before, 4u) << count;
    EXPECT_TRUE(stream.truncated_tail) << count;
  }
}

}  // namespace
}  // namespace hwprof
