#include "src/lint/trace_check.h"

#include "src/base/json.h"
#include "src/base/strings.h"

namespace hwprof::lint {

namespace {

const char* KindName(TagKind kind) {
  switch (kind) {
    case TagKind::kFunction:
      return "function";
    case TagKind::kContextSwitch:
      return "context-switch";
    case TagKind::kInline:
      return "inline";
  }
  return "?";
}

// Looks the name up in the model; falls back to a nameless entry so findings
// always have at least the trace as their file.
Finding AttributedFinding(const CallStructureModel& model, const char* rule,
                          const std::string& name, std::string message) {
  Finding f;
  f.rule = rule;
  f.message = std::move(message);
  const auto it = model.by_name.find(name);
  if (it != model.by_name.end()) {
    f.file = it->second.file;
    f.line = it->second.line;
  } else {
    f.file = "<trace>";
    f.note = StrFormat("'%s' has no registration in the static model", name.c_str());
  }
  return f;
}

}  // namespace

CallStructureModel BuildModel(const std::vector<SourceFile>& files) {
  CallStructureModel model;
  for (const SourceFile& file : files) {
    for (const Registration& reg : file.registrations) {
      // First registration wins; conflicts are reg-conflict findings.
      model.by_name.emplace(reg.name, ModelEntry{reg.kind, file.path, reg.line});
    }
  }
  return model;
}

namespace {

std::string ModelFunctionsJson(const CallStructureModel& model) {
  std::string out = "{\n  \"functions\": [";
  bool first = true;
  for (const auto& [name, entry] : model.by_name) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"name\": ";
    AppendJsonString(name, &out);
    out += ", \"kind\": ";
    AppendJsonString(KindName(entry.kind), &out);
    out += ", \"file\": ";
    AppendJsonString(entry.file, &out);
    out += StrFormat(", \"line\": %d}", entry.line);
  }
  out += "\n  ]";
  return out;
}

}  // namespace

std::string ModelToJson(const CallStructureModel& model) {
  return ModelFunctionsJson(model) + "\n}\n";
}

std::string ModelToJson(const CallStructureModel& model,
                        const std::string& call_graph_json) {
  return ModelFunctionsJson(model) + ",\n  \"call_graph\": " + call_graph_json +
         "\n}\n";
}

void CrossCheckTrace(const DecodedTrace& trace, const TagFile& names,
                     const CallStructureModel& model,
                     std::vector<Finding>* findings) {
  for (const auto& [tag, count] : trace.unknown_tag_counts) {
    // An unknown tag next to a known one usually means a missing exit entry
    // or a tag-file edit that dropped a neighbor; attribute it there.
    const TagEntry* below =
        tag > 0 ? names.FindByTag(static_cast<std::uint16_t>(tag - 1)) : nullptr;
    const TagEntry* above =
        names.FindByTag(static_cast<std::uint16_t>(tag + 1));
    const TagEntry* neighbor = below != nullptr ? below : above;
    Finding f;
    f.rule = "trace-unknown-tag";
    f.file = "<trace>";
    f.message = StrFormat(
        "trace carries tag %u (%llu event%s) with no names-file entry", tag,
        static_cast<unsigned long long>(count), count == 1 ? "" : "s");
    if (neighbor != nullptr) {
      const auto it = model.by_name.find(neighbor->name);
      if (it != model.by_name.end()) {
        f.file = it->second.file;
        f.line = it->second.line;
      }
      f.note = StrFormat("neighboring tag %u belongs to '%s'",
                         neighbor == below ? tag - 1 : tag + 1,
                         neighbor->name.c_str());
    }
    findings->push_back(std::move(f));
  }
  for (const auto& [name, count] : trace.orphan_exit_counts) {
    // Exits of calls opened before the first captured event are the
    // front-of-capture mirror of truncation: a board armed mid-run, or a
    // shard/bank cut at a context-switch boundary. Only the excess over the
    // preopen count is a genuine mid-trace imbalance.
    std::uint64_t preopen = 0;
    const auto it = trace.preopen_exit_counts.find(name);
    if (it != trace.preopen_exit_counts.end()) {
      preopen = it->second;
    }
    if (count <= preopen) {
      continue;
    }
    const std::uint64_t excess = count - preopen;
    findings->push_back(AttributedFinding(
        model, "trace-orphan-exit", name,
        StrFormat("'%s' emitted %llu exit%s with no matching entry in the "
                  "trace",
                  name.c_str(), static_cast<unsigned long long>(excess),
                  excess == 1 ? "" : "s")));
  }
  for (const auto& [name, count] : trace.unclosed_entry_counts) {
    // The call stack in flight when the capture stopped is truncated, not
    // anomalous: every real capture ends mid-run. Only the excess over the
    // truncation count is a genuine mid-trace imbalance.
    std::uint64_t truncated = 0;
    const auto it = trace.truncated_entry_counts.find(name);
    if (it != trace.truncated_entry_counts.end()) {
      truncated = it->second;
    }
    if (count <= truncated) {
      continue;
    }
    const std::uint64_t excess = count - truncated;
    findings->push_back(AttributedFinding(
        model, "trace-unclosed-entry", name,
        StrFormat("'%s' left %llu entr%s never closed by an exit in the "
                  "trace",
                  name.c_str(), static_cast<unsigned long long>(excess),
                  excess == 1 ? "y" : "ies")));
  }
}

}  // namespace hwprof::lint
