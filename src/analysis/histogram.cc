#include "src/analysis/histogram.h"

#include <algorithm>

#include "src/base/strings.h"

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

std::string Histogram::Format(const std::string& title) const {
  std::string out = StrFormat("%s (%llu calls)\n", title.c_str(),
                              static_cast<unsigned long long>(Total()));
  std::uint64_t max_count = 1;
  for (std::uint64_t c : counts_) {
    max_count = std::max(max_count, c);
  }
  for (std::size_t b = 0; b < kBuckets; ++b) {
    if (counts_[b] == 0) {
      continue;
    }
    const std::size_t bar =
        std::max<std::size_t>(1, static_cast<std::size_t>(counts_[b] * 50 / max_count));
    out += StrFormat("%8llu us |%-50s| %llu\n",
                     static_cast<unsigned long long>(BucketFloor(b)),
                     std::string(bar, '#').c_str(),
                     static_cast<unsigned long long>(counts_[b]));
  }
  return out;
}

namespace {

void Walk(const CallNode& node, const std::string& name, Histogram* h) {
  if (node.fn != nullptr && !node.inline_marker && node.fn->name == name) {
    h->Add(ToWholeUsec(node.Net()));
  }
  for (const auto& child : node.Children()) {
    Walk(*child, name, h);
  }
}

}  // namespace

Histogram Histogram::ForFunction(const DecodedTrace& trace, const std::string& name) {
  Histogram h;
  for (const auto& stack : trace.stacks) {
    Walk(*stack->root, name, &h);
  }
  return h;
}

}  // namespace hwprof
