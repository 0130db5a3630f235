#include "src/lint/diagnostics.h"

#include <algorithm>

#include "src/base/json.h"
#include "src/base/strings.h"

namespace hwprof::lint {

const std::vector<std::string>& KnownRules() {
  static const std::vector<std::string> kRules = {
      "spl-balance",       "spl-raw-balance",    "spl-sleep",
      "instr-balance",     "instr-raw-tag",      "reg-conflict",
      "tag-parse",         "tag-ctx",            "tag-model",
      "trace-unknown-tag", "trace-orphan-exit",  "trace-unclosed-entry",
      "obs-span-balance",  "bad-suppression",    "spl-sleep-transitive",
      "intr-blocking",     "spl-imbalance-transitive",
      "call-cycle",        "bad-annotation",
  };
  return kRules;
}

std::string_view RuleDescription(std::string_view rule) {
  if (rule == "spl-balance") {
    return "splnet()-family raise without splx on some return path";
  }
  if (rule == "spl-raw-balance") {
    return "RawRaise without RawRestore on some return path";
  }
  if (rule == "spl-sleep") {
    return "sleep primitive reached while the interrupt level is raised";
  }
  if (rule == "spl-sleep-transitive") {
    return "raised-IPL path calls a function that can block at some depth";
  }
  if (rule == "intr-blocking") {
    return "interrupt-context function can reach a blocking call";
  }
  if (rule == "spl-imbalance-transitive") {
    return "helper's net spl effect disagrees with its spl-effect annotation";
  }
  if (rule == "call-cycle") {
    return "recursion cycle carrying a non-zero interrupt-level effect";
  }
  if (rule == "instr-balance") {
    return "raw entry trigger emit without a matching exit emit";
  }
  if (rule == "instr-raw-tag") {
    return "raw TriggerRead whose tag cannot be classified";
  }
  if (rule == "reg-conflict") {
    return "function registered with conflicting kinds";
  }
  if (rule == "tag-parse") {
    return "malformed tag file";
  }
  if (rule == "tag-ctx") {
    return "context-switch marker not backed by the scheduler";
  }
  if (rule == "tag-model") {
    return "tag-file entry kind disagrees with the source registration";
  }
  if (rule == "trace-unknown-tag") {
    return "decoded trace carried tags missing from the model";
  }
  if (rule == "trace-orphan-exit") {
    return "decoded exits with no matching entry";
  }
  if (rule == "trace-unclosed-entry") {
    return "decoded entries never closed by an exit";
  }
  if (rule == "obs-span-balance") {
    return "OBS_SPAN_BEGIN without a matching OBS_SPAN_END";
  }
  if (rule == "bad-suppression") {
    return "malformed suppression comment";
  }
  if (rule == "bad-annotation") {
    return "malformed or misattached spl-effect annotation";
  }
  return "hwprof_lint finding";
}

bool IsKnownRule(std::string_view rule) {
  const auto& rules = KnownRules();
  return std::find(rules.begin(), rules.end(), rule) != rules.end();
}

std::string FormatFinding(const Finding& f) {
  std::string out = StrFormat("%s:%d: [%s] %s", f.file.c_str(), f.line, f.rule.c_str(),
                              f.message.c_str());
  if (!f.note.empty()) {
    out += StrFormat(" (%s)", f.note.c_str());
  }
  if (f.suppressed) {
    out += StrFormat(" [suppressed: %s]", f.suppress_reason.c_str());
  }
  return out;
}

void SortFindings(std::vector<Finding>* findings) {
  std::sort(findings->begin(), findings->end(), [](const Finding& a, const Finding& b) {
    if (a.file != b.file) {
      return a.file < b.file;
    }
    if (a.line != b.line) {
      return a.line < b.line;
    }
    if (a.rule != b.rule) {
      return a.rule < b.rule;
    }
    return a.message < b.message;
  });
}

std::size_t UnsuppressedCount(const std::vector<Finding>& findings) {
  std::size_t n = 0;
  for (const Finding& f : findings) {
    if (!f.suppressed) {
      ++n;
    }
  }
  return n;
}

// --- JSON writer -------------------------------------------------------------

std::string FindingsToJson(const std::vector<Finding>& findings) {
  std::string out = "{\n  \"findings\": [";
  bool first = true;
  for (const Finding& f : findings) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"rule\": ";
    AppendJsonString(f.rule, &out);
    out += ", \"file\": ";
    AppendJsonString(f.file, &out);
    out += StrFormat(", \"line\": %d, \"message\": ", f.line);
    AppendJsonString(f.message, &out);
    out += ", \"note\": ";
    AppendJsonString(f.note, &out);
    out += StrFormat(", \"suppressed\": %s, \"suppress_reason\": ",
                     f.suppressed ? "true" : "false");
    AppendJsonString(f.suppress_reason, &out);
    out += "}";
  }
  out += StrFormat("\n  ],\n  \"total\": %zu,\n  \"unsuppressed\": %zu\n}\n",
                   findings.size(), UnsuppressedCount(findings));
  return out;
}

// --- SARIF writer ------------------------------------------------------------

std::string FindingsToSarif(const std::vector<Finding>& findings) {
  std::string out =
      "{\n"
      "  \"version\": \"2.1.0\",\n"
      "  \"$schema\": "
      "\"https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
      "Schemata/sarif-schema-2.1.0.json\",\n"
      "  \"runs\": [\n"
      "    {\n"
      "      \"tool\": {\n"
      "        \"driver\": {\n"
      "          \"name\": \"hwprof_lint\",\n"
      "          \"informationUri\": \"DESIGN.md\",\n"
      "          \"rules\": [";
  bool first = true;
  for (const std::string& rule : KnownRules()) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "            {\"id\": ";
    AppendJsonString(rule, &out);
    out += ", \"shortDescription\": {\"text\": ";
    AppendJsonString(RuleDescription(rule), &out);
    out += "}}";
  }
  out +=
      "\n          ]\n"
      "        }\n"
      "      },\n"
      "      \"results\": [";
  first = true;
  for (const Finding& f : findings) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "        {\"ruleId\": ";
    AppendJsonString(f.rule, &out);
    out += ", \"level\": \"warning\", \"message\": {\"text\": ";
    std::string text = f.message;
    if (!f.note.empty()) {
      text += " (" + f.note + ")";
    }
    AppendJsonString(text, &out);
    out += "}, \"locations\": [{\"physicalLocation\": {\"artifactLocation\": "
           "{\"uri\": ";
    AppendJsonString(f.file, &out);
    out += StrFormat("}, \"region\": {\"startLine\": %d}}}]",
                     f.line > 0 ? f.line : 1);
    if (f.suppressed) {
      out += ", \"suppressions\": [{\"kind\": \"inSource\", \"justification\": ";
      AppendJsonString(f.suppress_reason, &out);
      out += "}]";
    }
    out += "}";
  }
  out +=
      "\n      ]\n"
      "    }\n"
      "  ]\n"
      "}\n";
  return out;
}

}  // namespace hwprof::lint
