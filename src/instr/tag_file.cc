#include "src/instr/tag_file.h"

#include "src/base/assert.h"
#include "src/base/line_cursor.h"
#include "src/base/strings.h"

namespace hwprof {

bool TagFile::Parse(std::string_view text, TagFile* out, std::vector<TagDiag>* diags) {
  TagFile file;
  bool ok = true;
  int line_no = 0;
  auto fail = [&](std::string message) {
    ok = false;
    if (diags != nullptr) {
      diags->push_back(TagDiag{line_no, std::move(message)});
    }
  };
  LineCursor lines(text);
  std::string_view raw_line;
  while (lines.Next(&raw_line)) {
    line_no = lines.line_no();
    const std::string_view full_line = StripWhitespace(raw_line);
    if (full_line.empty() || full_line[0] == '#') {
      continue;
    }
    // The first whitespace-separated token is the name/tag entry; anything
    // after it is an annotation (`group=LABEL`).
    std::string_view line = full_line;
    std::string_view annotations;
    const std::size_t ws = full_line.find_first_of(" \t");
    if (ws != std::string_view::npos) {
      line = full_line.substr(0, ws);
      annotations = StripWhitespace(full_line.substr(ws));
    }
    std::string group;
    bool annotations_ok = true;
    while (!annotations.empty()) {
      const std::size_t sep = annotations.find_first_of(" \t");
      const std::string_view token = annotations.substr(0, sep);
      annotations = sep == std::string_view::npos
                        ? std::string_view{}
                        : StripWhitespace(annotations.substr(sep));
      const std::size_t eq = token.find('=');
      const std::string_view key =
          eq == std::string_view::npos ? token : token.substr(0, eq);
      if (key != "group") {
        fail(StrFormat("unknown annotation '%.*s' (only 'group=' is recognised)",
                       static_cast<int>(token.size()), token.data()));
        annotations_ok = false;
        continue;
      }
      if (eq == std::string_view::npos) {
        fail("annotation 'group' is missing '=LABEL'");
        annotations_ok = false;
        continue;
      }
      const std::string_view label = token.substr(eq + 1);
      if (label.empty()) {
        fail("empty group label after 'group='");
        annotations_ok = false;
        continue;
      }
      if (label.find_first_of("=/#!") != std::string_view::npos) {
        fail(StrFormat("malformed group label '%.*s' ('=', '/', '#' and '!' "
                       "are not allowed)",
                       static_cast<int>(label.size()), label.data()));
        annotations_ok = false;
        continue;
      }
      if (!group.empty()) {
        fail(StrFormat("duplicate group annotation (already 'group=%s')",
                       group.c_str()));
        annotations_ok = false;
        continue;
      }
      group = std::string(label);
    }
    if (!annotations_ok) {
      continue;
    }
    const std::size_t slash = line.rfind('/');
    if (slash == std::string_view::npos) {
      fail(StrFormat("missing '/' between name and tag value in '%.*s'",
                     static_cast<int>(line.size()), line.data()));
      continue;
    }
    if (slash == 0) {
      fail("empty function name before '/'");
      continue;
    }
    const std::string_view name = line.substr(0, slash);
    std::string_view value = line.substr(slash + 1);
    TagKind kind = TagKind::kFunction;
    if (!value.empty() && value.back() == '!') {
      kind = TagKind::kContextSwitch;
      value.remove_suffix(1);
    } else if (!value.empty() && value.back() == '=') {
      kind = TagKind::kInline;
      value.remove_suffix(1);
    }
    std::uint64_t tag = 0;
    if (!ParseUint(value, &tag)) {
      fail(StrFormat("tag value '%.*s' is not a non-negative integer",
                     static_cast<int>(value.size()), value.data()));
      continue;
    }
    if (tag > 0xFFFF) {
      fail(StrFormat("tag value %llu does not fit in 16 bits",
                     static_cast<unsigned long long>(tag)));
      continue;
    }
    TagEntry entry;
    entry.name = std::string(name);
    entry.tag = static_cast<std::uint16_t>(tag);
    entry.kind = kind;
    entry.group = std::move(group);
    // Function tags must be even so that tag+1 (the exit tag) pairs with
    // them; evenness also guarantees the exit tag fits in 16 bits.
    if (entry.IsFunctionLike() && entry.tag % 2 != 0) {
      fail(StrFormat("function tag %u is odd (entry tags must be even so tag+1 "
                     "is the exit tag)",
                     entry.tag));
      continue;
    }
    std::string why;
    if (!file.Insert(std::move(entry), &why)) {
      fail(std::move(why));
      continue;
    }
  }
  if (ok) {
    *out = std::move(file);
  }
  return ok;
}

std::string TagFile::Format() const {
  std::string out;
  for (const TagEntry& e : entries_) {
    const char* modifier = "";
    if (e.kind == TagKind::kContextSwitch) {
      modifier = "!";
    } else if (e.kind == TagKind::kInline) {
      modifier = "=";
    }
    if (e.group.empty()) {
      out += StrFormat("%s/%u%s\n", e.name.c_str(), e.tag, modifier);
    } else {
      out += StrFormat("%s/%u%s group=%s\n", e.name.c_str(), e.tag, modifier,
                       e.group.c_str());
    }
  }
  return out;
}

bool TagFile::Merge(const TagFile& other) {
  // Validate the whole batch first so a failed merge leaves this file
  // untouched.
  for (const TagEntry& e : other.entries_) {
    if (by_name_.count(e.name) != 0 || by_tag_.count(e.entry_tag()) != 0 ||
        (e.IsFunctionLike() && by_tag_.count(e.exit_tag()) != 0)) {
      return false;
    }
  }
  for (const TagEntry& e : other.entries_) {
    HWPROF_CHECK(Insert(e));
  }
  return true;
}

bool TagFile::AddFunction(std::string_view name, std::uint16_t tag, bool context_switch) {
  if (tag % 2 != 0) {
    return false;
  }
  TagEntry entry;
  entry.name = std::string(name);
  entry.tag = tag;
  entry.kind = context_switch ? TagKind::kContextSwitch : TagKind::kFunction;
  return Insert(std::move(entry));
}

bool TagFile::AddInline(std::string_view name, std::uint16_t tag) {
  TagEntry entry;
  entry.name = std::string(name);
  entry.tag = tag;
  entry.kind = TagKind::kInline;
  return Insert(std::move(entry));
}

std::uint16_t TagFile::Assign(std::string_view name, TagKind kind,
                              std::string_view group) {
  HWPROF_CHECK_MSG(by_name_.count(std::string(name)) == 0,
                   "function already has an assigned tag");
  std::uint32_t candidate = HighestTag() + 1u;
  if (kind != TagKind::kInline && candidate % 2 != 0) {
    ++candidate;  // function entry tags are even
  }
  HWPROF_CHECK_MSG(candidate + (kind != TagKind::kInline ? 1u : 0u) <= 0xFFFF,
                   "event tag space (16 bits) exhausted");
  TagEntry entry;
  entry.name = std::string(name);
  entry.tag = static_cast<std::uint16_t>(candidate);
  entry.kind = kind;
  entry.group = std::string(group);
  HWPROF_CHECK(Insert(std::move(entry)));
  return static_cast<std::uint16_t>(candidate);
}

bool TagFile::SetGroup(std::string_view name, std::string_view label) {
  auto it = by_name_.find(std::string(name));
  if (it == by_name_.end()) {
    return false;
  }
  entries_[it->second].group = std::string(label);
  return true;
}

std::map<std::string, std::string> TagFile::GroupsByName() const {
  std::map<std::string, std::string> out;
  for (const TagEntry& e : entries_) {
    if (!e.group.empty()) {
      out.emplace(e.name, e.group);
    }
  }
  return out;
}

const TagEntry* TagFile::FindByName(std::string_view name) const {
  auto it = by_name_.find(std::string(name));
  return it == by_name_.end() ? nullptr : &entries_[it->second];
}

const TagEntry* TagFile::FindByTag(std::uint16_t tag) const {
  auto it = by_tag_.find(tag);
  return it == by_tag_.end() ? nullptr : &entries_[it->second];
}

std::uint16_t TagFile::HighestTag() const {
  std::uint16_t highest = 0;
  for (const TagEntry& e : entries_) {
    const std::uint16_t top = e.IsFunctionLike() ? e.exit_tag() : e.tag;
    if (top > highest) {
      highest = top;
    }
  }
  return highest;
}

bool TagFile::Insert(TagEntry entry) { return Insert(std::move(entry), nullptr); }

bool TagFile::Insert(TagEntry entry, std::string* why) {
  auto collision = [&](std::uint16_t raw) -> const TagEntry* {
    auto it = by_tag_.find(raw);
    return it == by_tag_.end() ? nullptr : &entries_[it->second];
  };
  if (by_name_.count(entry.name) != 0) {
    if (why != nullptr) {
      *why = StrFormat("duplicate name '%s' (already tagged %u)", entry.name.c_str(),
                       FindByName(entry.name)->tag);
    }
    return false;
  }
  if (const TagEntry* prior = collision(entry.entry_tag())) {
    if (why != nullptr) {
      *why = StrFormat("tag %u already covered by '%s/%u'%s", entry.entry_tag(),
                       prior->name.c_str(), prior->tag,
                       prior->IsFunctionLike() && entry.entry_tag() == prior->exit_tag()
                           ? " (its exit tag)"
                           : "");
    }
    return false;
  }
  if (entry.IsFunctionLike()) {
    if (const TagEntry* prior = collision(entry.exit_tag())) {
      if (why != nullptr) {
        *why = StrFormat("exit tag %u of '%s/%u' already covered by '%s/%u'",
                         entry.exit_tag(), entry.name.c_str(), entry.tag,
                         prior->name.c_str(), prior->tag);
      }
      return false;
    }
  }
  const std::size_t index = entries_.size();
  entry.index = static_cast<std::uint32_t>(index);
  by_name_.emplace(entry.name, index);
  by_tag_.emplace(entry.entry_tag(), index);
  if (entry.IsFunctionLike()) {
    by_tag_.emplace(entry.exit_tag(), index);
  }
  entries_.push_back(std::move(entry));
  return true;
}

}  // namespace hwprof
