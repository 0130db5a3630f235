#include "src/analysis/histogram.h"

#include <algorithm>

#include "src/base/text_writer.h"

namespace hwprof {

void Histogram::Add(std::uint64_t us) {
  std::size_t bucket = 0;
  while (bucket + 1 < kBuckets && BucketFloor(bucket + 1) <= us) {
    ++bucket;
  }
  ++counts_[bucket];
}

std::uint64_t Histogram::Total() const {
  std::uint64_t total = 0;
  for (std::uint64_t c : counts_) {
    total += c;
  }
  return total;
}

std::uint64_t Histogram::BucketFloor(std::size_t bucket) {
  return bucket == 0 ? 0 : (1ULL << (bucket - 1));
}

namespace {

// The longest bar: a bucket holding the most calls.
constexpr std::string_view kBar = "##################################################";

}  // namespace

std::string Histogram::Format(const std::string& title) const {
  std::uint64_t max_count = 1;
  std::size_t rows = 0;
  for (std::uint64_t c : counts_) {
    max_count = std::max(max_count, c);
    rows += c != 0 ? 1 : 0;
  }
  TextWriter w(title.size() + 32 + rows * 88);
  w.Append(title).Append(" (").Uint(Total()).Append(" calls)\n");
  for (std::size_t b = 0; b < kBuckets; ++b) {
    if (counts_[b] == 0) {
      continue;
    }
    const std::size_t bar =
        std::max<std::size_t>(1, static_cast<std::size_t>(counts_[b] * 50 / max_count));
    w.Uint(BucketFloor(b), 8).Append(" us |").Left(kBar.substr(0, bar), 50);
    w.Append("| ").Uint(counts_[b]).Append('\n');
  }
  return w.Take();
}

Histogram Histogram::ForFunction(const DecodedTrace& trace, const std::string& name) {
  Histogram h;
  const TagEntry* fn = trace.names != nullptr ? trace.names->FindByName(name) : nullptr;
  for (const auto& stack : trace.stacks) {
    WalkTree(*stack->root, [&](const CallNode& node) {
      if (node.fn == fn && !node.inline_marker) {
        h.Add(ToWholeUsec(node.Net()));
      }
    });
  }
  return h;
}

}  // namespace hwprof
