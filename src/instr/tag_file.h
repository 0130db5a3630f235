// The name/tag file consumed and extended by the modified compiler.
//
// Format (one entry per line, as in the paper):
//
//   main/502
//   hardclock/510
//   swtch/600!
//   MGET/1002=
//   vm_fault/700 group=vm
//
// A plain entry names a function: the value is the *entry* tag (always even)
// and value+1 is the *exit* tag. The '!' modifier marks a function that
// causes a processor context switch (the analyser treats it specially); the
// '=' modifier marks an inline tag (a single event, not an entry/exit pair).
//
// A `group=LABEL` annotation after the tag value assigns the function to a
// named abstraction (VM, FFS, mbuf, spl, ...). The analyser's per-abstraction
// reports (Grouping, hwprof_analyze --diff) read these instead of ad-hoc
// name→group maps; the Instrumenter stamps each newly assigned function with
// its registering subsystem's label.
//
// The compiler auto-extends the file: a function not yet present is appended
// with the next available value above the current highest. A file can be
// started from scratch with an initial dummy entry that sets the starting
// tag number, and several files may be concatenated into one list.

#ifndef HWPROF_SRC_INSTR_TAG_FILE_H_
#define HWPROF_SRC_INSTR_TAG_FILE_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace hwprof {

enum class TagKind : std::uint8_t {
  kFunction,       // entry/exit pair at tag / tag+1
  kContextSwitch,  // function pair, '!' modifier
  kInline,         // single tag, '=' modifier
};

struct TagEntry {
  std::string name;
  std::uint16_t tag = 0;
  TagKind kind = TagKind::kFunction;
  std::string group;  // abstraction label from `group=`; empty = ungrouped
  // Position in its TagFile's entries(), set on insertion: the dense key of
  // every per-function table the analysis keeps.
  std::uint32_t index = 0;

  bool IsFunctionLike() const { return kind != TagKind::kInline; }
  std::uint16_t entry_tag() const { return tag; }
  std::uint16_t exit_tag() const { return static_cast<std::uint16_t>(tag + 1); }
};

// One parse problem, attributed to a 1-based line of the input text.
struct TagDiag {
  int line = 0;
  std::string message;
};

class TagFile {
 public:
  TagFile() = default;

  // Parses the file format above. Blank lines and '#' comment lines are
  // skipped. Returns false on malformed lines, duplicate names, duplicate or
  // overlapping tag values, or odd function tags. When `diags` is non-null
  // every problem found is appended to it with its line number and reason
  // (parsing continues past errors so one pass reports them all); `*out` is
  // only written when the parse succeeds.
  static bool Parse(std::string_view text, TagFile* out,
                    std::vector<TagDiag>* diags);
  static bool Parse(std::string_view text, TagFile* out) {
    return Parse(text, out, nullptr);
  }

  // Renders back to the file format, entries in insertion order.
  std::string Format() const;

  // Concatenates `other` onto this file ("multiple name/tag files may exist,
  // and may be concatenated"). Returns false on any name or tag collision.
  bool Merge(const TagFile& other);

  // Adds a function entry with an explicit value. Returns false on collision
  // or an odd/overflowing tag.
  bool AddFunction(std::string_view name, std::uint16_t tag, bool context_switch = false);

  // Adds an inline entry with an explicit value.
  bool AddInline(std::string_view name, std::uint16_t tag);

  // Auto-assignment used by the compiler: appends `name` with the next
  // available value above the current highest (rounded up to even for
  // function kinds), carrying the abstraction `group` when non-empty.
  // Returns the assigned entry tag.
  std::uint16_t Assign(std::string_view name, TagKind kind,
                       std::string_view group = "");

  // Sets (or replaces) the abstraction label of an existing entry. Returns
  // false when `name` is unknown. The Instrumenter uses this to backfill
  // groups on pre-seeded files whose entries predate the annotation.
  bool SetGroup(std::string_view name, std::string_view label);

  // name -> group for every annotated entry (the map Grouping consumes;
  // unannotated functions land in its "other" bucket).
  std::map<std::string, std::string> GroupsByName() const;

  const TagEntry* FindByName(std::string_view name) const;

  // Looks up the entry covering raw tag value `tag` (a function entry
  // matches both its even entry tag and odd exit tag). Returns nullptr for
  // unknown tags.
  const TagEntry* FindByTag(std::uint16_t tag) const;

  const std::vector<TagEntry>& entries() const { return entries_; }
  std::size_t size() const { return entries_.size(); }

  // Highest raw tag value in use (exit tags included); 0 if empty.
  std::uint16_t HighestTag() const;

 private:
  bool Insert(TagEntry entry);
  // Like Insert, but on failure sets `*why` to the colliding entry's reason.
  bool Insert(TagEntry entry, std::string* why);

  std::vector<TagEntry> entries_;
  std::unordered_map<std::string, std::size_t> by_name_;
  std::unordered_map<std::uint16_t, std::size_t> by_tag_;  // one key per raw tag covered
};

}  // namespace hwprof

#endif  // HWPROF_SRC_INSTR_TAG_FILE_H_
