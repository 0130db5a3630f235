// Finding model for hwprof_lint: rule identifiers, file:line diagnostics,
// inline suppressions, and a dependency-free JSON round trip so CI and other
// tools can consume the output machine-readably.
//
// Rules enforced by the analyzer (see DESIGN.md "The lint subsystem"):
//   spl-balance       splnet()-family raise without splx on some return path,
//                     or a raise whose saved level is discarded
//   spl-raw-balance   RawRaise without RawRestore on some return path
//   spl-sleep         tsleep/fiber-yield while a raise holds the level above
//                     Ipl::kNone
//   instr-balance     raw entry trigger emit without a matching exit emit on
//                     a return path (or an exit emit with no entry)
//   instr-raw-tag     raw TriggerRead whose tag cannot be statically
//                     classified as entry or exit
//   reg-conflict      the same function name registered with conflicting
//                     kind or context-switch flags
//   tag-parse         malformed tag file: bad lines, duplicate names,
//                     duplicate/overlapping tags, odd function tags, inline
//                     tags colliding with entry/exit pairs
//   tag-ctx           '!' context-switch marker not backed by a function the
//                     scheduler actually switches through (or vice versa)
//   tag-model         tag-file entry kind disagrees with the source
//                     registration (inline vs function pair)
//   trace-unknown-tag    decoded trace carried tags missing from the model
//   trace-orphan-exit    decoded exits with no matching entry
//   trace-unclosed-entry decoded entries never closed by an exit
//   obs-span-balance  OBS_SPAN_BEGIN without a matching OBS_SPAN_END on some
//                     return path
//   bad-suppression   suppression comment without a reason or naming an
//                     unknown rule
//   spl-sleep-transitive     a raised-IPL path calls a function that can
//                            block at any depth (whole-program summaries)
//   intr-blocking            a function reachable from an interrupt-service
//                            root can reach a blocking call
//   spl-imbalance-transitive a helper's net spl effect disagrees with its
//                            '// hwprof-lint: spl-effect(n)' annotation, or a
//                            restoring helper lacks one
//   call-cycle               a recursion cycle carries a non-zero
//                            interrupt-level effect
//   bad-annotation           malformed or misattached spl-effect annotation

#ifndef HWPROF_SRC_LINT_DIAGNOSTICS_H_
#define HWPROF_SRC_LINT_DIAGNOSTICS_H_

#include <string>
#include <string_view>
#include <vector>

namespace hwprof::lint {

struct Finding {
  std::string rule;
  std::string file;
  int line = 0;  // 1-based; 0 = whole-file / no location
  std::string message;
  std::string note;  // secondary location or hint; may be empty
  bool suppressed = false;
  std::string suppress_reason;
};

// All rule identifiers the analyzer can emit (suppress() arguments are
// validated against this list).
const std::vector<std::string>& KnownRules();
bool IsKnownRule(std::string_view rule);

// One-line description of a rule (used by the SARIF rules catalog).
std::string_view RuleDescription(std::string_view rule);

// "file:line: [rule] message (note)" — the human-readable form.
std::string FormatFinding(const Finding& f);

// Stable order for reports: file, then line, then rule, then message.
void SortFindings(std::vector<Finding>* findings);

std::size_t UnsuppressedCount(const std::vector<Finding>& findings);

// JSON object {"findings": [...], "total": N, "unsuppressed": M}.
std::string FindingsToJson(const std::vector<Finding>& findings);

// SARIF 2.1.0 log: one run, the full rules catalog, one result per finding.
// Suppressed findings are carried with an inSource suppression object so
// SARIF viewers show (rather than lose) the justified baseline.
std::string FindingsToSarif(const std::vector<Finding>& findings);

}  // namespace hwprof::lint

#endif  // HWPROF_SRC_LINT_DIAGNOSTICS_H_
