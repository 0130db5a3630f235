// hwprof_lint: lexer, source model, rule, tag-model, suppression, JSON
// round-trip, and trace cross-check tests, driven by the fixtures under
// tests/lint_fixtures/ (known-good and known-bad functions the analyzer must
// classify correctly).

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/analysis/decoder.h"
#include "src/base/json.h"
#include "src/instr/tag_file.h"
#include "src/lint/callgraph.h"
#include "src/lint/diagnostics.h"
#include "src/lint/lexer.h"
#include "src/lint/lint.h"
#include "src/lint/rules.h"
#include "src/lint/source_model.h"
#include "src/lint/trace_check.h"

namespace hwprof::lint {
namespace {

std::string FixturePath(const std::string& name) {
  return std::string(HWPROF_TEST_DIR) + "/lint_fixtures/" + name;
}

std::string ReadFixture(const std::string& name) {
  std::ifstream in(FixturePath(name), std::ios::binary);
  EXPECT_TRUE(in) << "missing fixture " << name;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

LintResult LintFixture(const std::string& name) {
  LintConfig config;
  config.paths.push_back(FixturePath(name));
  return RunLint(config);
}

std::vector<const Finding*> ByRule(const LintResult& result, const std::string& rule) {
  std::vector<const Finding*> out;
  for (const Finding& f : result.findings) {
    if (f.rule == rule) {
      out.push_back(&f);
    }
  }
  return out;
}

// --- lexer -------------------------------------------------------------------

TEST(LintLexer, TokensCommentsAndDirectives) {
  const LexedFile lexed = Lex(
      "#include <x.h>\n"
      "#define M(a) \\\n  (a + 1)\n"
      "int f(int a) { return a <<= 2; }  // trailing\n"
      "/* block\n comment */ int g;\n");
  // Macro bodies must not leak tokens into the stream.
  for (const Token& t : lexed.tokens) {
    EXPECT_NE(t.text, "M");
    EXPECT_NE(t.text, "include");
  }
  ASSERT_EQ(lexed.comments.size(), 2u);
  EXPECT_EQ(lexed.comments[0].line, 4);
  EXPECT_EQ(lexed.comments[0].text, " trailing");
  // Maximal munch: "<<=" is one token, not three.
  const auto it = std::find_if(lexed.tokens.begin(), lexed.tokens.end(),
                               [](const Token& t) { return t.text == "<<="; });
  EXPECT_NE(it, lexed.tokens.end());
  // Line numbers survive the multi-line directive.
  const auto g = std::find_if(lexed.tokens.begin(), lexed.tokens.end(),
                              [](const Token& t) { return t.text == "g"; });
  ASSERT_NE(g, lexed.tokens.end());
  EXPECT_EQ(g->line, 6);
}

TEST(LintLexer, StringsAndChars) {
  const LexedFile lexed = Lex("auto s = \"a\\\"b\"; char c = '\\n';");
  ASSERT_GE(lexed.tokens.size(), 2u);
  const auto str = std::find_if(lexed.tokens.begin(), lexed.tokens.end(),
                                [](const Token& t) { return t.kind == TokKind::kString; });
  ASSERT_NE(str, lexed.tokens.end());
  EXPECT_EQ(str->text, "a\"b");
}

TEST(LintLexer, RawStringsAreOneToken) {
  const LexedFile lexed = Lex(
      "auto s = R\"(k.spl().splbio();)\";\n"
      "auto d = R\"xy(a)\" still inside )xy\";\n"
      "auto m = R\"(line one\nline two)\"; int after = 0;\n");
  std::vector<std::string> strings;
  for (const Token& t : lexed.tokens) {
    // Code-like text inside the raw bodies must not leak identifier tokens.
    EXPECT_NE(t.text, "splbio");
    EXPECT_NE(t.text, "still");
    if (t.kind == TokKind::kString) {
      strings.push_back(t.text);
    }
  }
  ASSERT_EQ(strings.size(), 3u);
  EXPECT_EQ(strings[0], "k.spl().splbio();");
  // The )" inside a delimited raw string does not close it.
  EXPECT_EQ(strings[1], "a)\" still inside ");
  EXPECT_EQ(strings[2], "line one\nline two");
  // Newlines inside the raw body still advance the line counter.
  const auto after = std::find_if(lexed.tokens.begin(), lexed.tokens.end(),
                                  [](const Token& t) { return t.text == "after"; });
  ASSERT_NE(after, lexed.tokens.end());
  EXPECT_EQ(after->line, 4);
}

TEST(LintLexer, SplicedLineCommentStaysAComment) {
  const LexedFile lexed = Lex(
      "// first \\\nk.spl().splbio(); still comment\nint y;\n");
  ASSERT_EQ(lexed.comments.size(), 1u);
  EXPECT_EQ(lexed.comments[0].line, 1);
  EXPECT_NE(lexed.comments[0].text.find("still comment"), std::string::npos);
  // The spliced line must not be lexed as code.
  for (const Token& t : lexed.tokens) {
    EXPECT_NE(t.text, "splbio");
  }
  const auto y = std::find_if(lexed.tokens.begin(), lexed.tokens.end(),
                              [](const Token& t) { return t.text == "y"; });
  ASSERT_NE(y, lexed.tokens.end());
  EXPECT_EQ(y->line, 3);
}

TEST(LintLexer, RawStringInFunctionFabricatesNoFindings) {
  const LintResult result = LintText({{"raw.cc",
      "const char* Banner() {\n"
      "  return R\"(const int s = k.spl().splbio();)\";\n"
      "}\n"}});
  EXPECT_TRUE(result.findings.empty());
}

// --- source model ------------------------------------------------------------

TEST(LintModel, FunctionsRegistrationsSuppressions) {
  const SourceFile file = AnalyzeSource("mem.cc", ReadFixture("good_kernel.cc"));
  std::vector<std::string> names;
  for (const FunctionModel& fn : file.functions) {
    names.push_back(fn.name);
  }
  EXPECT_NE(std::find(names.begin(), names.end(), "BalancedRaise"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "NestedRaises"), names.end());
  ASSERT_EQ(file.registrations.size(), 3u);
  EXPECT_EQ(file.registrations[0].name, "plainfn");
  EXPECT_EQ(file.registrations[0].kind, TagKind::kFunction);
  EXPECT_EQ(file.registrations[1].name, "inlfn");
  EXPECT_EQ(file.registrations[1].kind, TagKind::kInline);
  EXPECT_EQ(file.registrations[2].name, "ctxfn");
  EXPECT_EQ(file.registrations[2].kind, TagKind::kContextSwitch);
  EXPECT_TRUE(file.has_fiber_switch);
  ASSERT_EQ(file.suppressions.size(), 1u);
  EXPECT_EQ(file.suppressions[0].rules, std::vector<std::string>{"spl-balance"});
}

TEST(LintModel, CtorDtorQualifiedNames) {
  const SourceFile file = AnalyzeSource("scope.cc", ReadFixture("bad_instr.cc"));
  std::vector<std::string> names;
  for (const FunctionModel& fn : file.functions) {
    names.push_back(fn.name);
  }
  EXPECT_NE(std::find(names.begin(), names.end(), "Scope::Scope"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "Scope::~Scope"), names.end());
}

// --- spl rules ---------------------------------------------------------------

TEST(LintRules, SplBalanceFixture) {
  const LintResult result = LintFixture("bad_spl.cc");
  const auto findings = ByRule(result, "spl-balance");
  ASSERT_EQ(findings.size(), 2u);
  // The leak is attributed to the raise, not the return.
  EXPECT_EQ(findings[0]->line, 6);
  EXPECT_NE(findings[0]->message.find("splnet"), std::string::npos);
  EXPECT_EQ(findings[1]->line, 15);
  EXPECT_NE(findings[1]->message.find("discarded"), std::string::npos);
  // Balanced() — including the switch with a returning case — stays clean.
  EXPECT_EQ(result.unsuppressed(), 2u);
}

TEST(LintRules, SplSleepFixture) {
  const LintResult result = LintFixture("bad_sleep.cc");
  const auto findings = ByRule(result, "spl-sleep");
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0]->line, 7);   // Tsleep under splbio
  EXPECT_EQ(findings[1]->line, 19);  // Preempt inside a RawRaise region
  EXPECT_EQ(result.unsuppressed(), 2u);  // SleepAfterRestore is clean
}

// --- whole-program rules -----------------------------------------------------

TEST(LintGraph, TransitiveSleepDepthThree) {
  const LintResult result = LintFixture("bad_transitive.cc");
  const auto findings = ByRule(result, "spl-sleep-transitive");
  ASSERT_EQ(findings.size(), 2u);
  // The raise-holding caller, attributed to the call site two hops above
  // the sleep, with the full chain in the note.
  EXPECT_EQ(findings[0]->line, 17);
  EXPECT_NE(findings[0]->message.find("MiddleHelper"), std::string::npos);
  EXPECT_NE(findings[0]->message.find("splbio"), std::string::npos);
  EXPECT_NE(findings[0]->note.find("call chain: MiddleHelper -> SleepsDeep ("),
            std::string::npos);
  EXPECT_NE(findings[0]->note.find(":12) -> Tsleep ("), std::string::npos);
  EXPECT_NE(findings[0]->note.find(":8)"), std::string::npos);
  // The RawRaise-region variant.
  EXPECT_EQ(findings[1]->line, 23);
  EXPECT_NE(findings[1]->message.find("RawRaise"), std::string::npos);
  // BaseLevelCaller reaches the same sleep with nothing raised: clean.
  EXPECT_EQ(result.unsuppressed(), 2u);
  // The summaries behind the findings.
  const FuncSummary& middle = result.graph.summaries().at("MiddleHelper");
  EXPECT_TRUE(middle.may_sleep);
  ASSERT_EQ(middle.sleep_path.size(), 2u);
  EXPECT_EQ(middle.sleep_path[0].what, "SleepsDeep");
  EXPECT_EQ(middle.sleep_path[1].what, "Tsleep");
  const FuncSummary& raised = result.graph.summaries().at("RaisedCaller");
  EXPECT_TRUE(raised.may_sleep);
  EXPECT_EQ(raised.spl_lo, 0);  // balanced despite the raise
  EXPECT_EQ(raised.spl_hi, 0);
}

TEST(LintGraph, InterruptReachableSleeper) {
  const LintResult result = LintFixture("bad_intr.cc");
  const auto findings = ByRule(result, "intr-blocking");
  ASSERT_EQ(findings.size(), 1u);
  // Attributed to the first hop of the chain inside the handler.
  EXPECT_EQ(findings[0]->line, 11);
  EXPECT_NE(findings[0]->message.find("DiskIntr"), std::string::npos);
  EXPECT_NE(findings[0]->note.find("call chain: DiskIntr -> DrainQueue ("),
            std::string::npos);
  EXPECT_NE(findings[0]->note.find("-> Tsleep ("), std::string::npos);
  // NetIntr only wakes; it must not be flagged.
  EXPECT_EQ(findings[0]->message.find("NetIntr"), std::string::npos);
  EXPECT_EQ(result.unsuppressed(), 1u);
}

TEST(LintGraph, AnnotatedHelperContracts) {
  const LintResult result = LintFixture("annotated_helper.cc");
  // A caller that forgets the level the annotated helper parked.
  const auto balance = ByRule(result, "spl-balance");
  ASSERT_EQ(balance.size(), 1u);
  EXPECT_EQ(balance[0]->line, 28);
  EXPECT_NE(balance[0]->message.find("RaiseNet"), std::string::npos);
  EXPECT_NE(balance[0]->note.find("LeakyCaller"), std::string::npos);
  // A stale annotation and an undeclared restorer.
  const auto transitive = ByRule(result, "spl-imbalance-transitive");
  ASSERT_EQ(transitive.size(), 2u);
  EXPECT_EQ(transitive[0]->line, 32);
  EXPECT_NE(transitive[0]->message.find("spl-effect(+1)"), std::string::npos);
  EXPECT_NE(transitive[0]->message.find("[0, 0]"), std::string::npos);
  EXPECT_EQ(transitive[1]->line, 37);
  EXPECT_NE(transitive[1]->message.find("without declaring"), std::string::npos);
  EXPECT_NE(transitive[1]->message.find("spl-effect(-1)"), std::string::npos);
  // BalancedCaller and PairedCaller honor the contracts: nothing else fires.
  EXPECT_EQ(result.unsuppressed(), 3u);
  // The helpers' computed summaries match their declarations.
  const FuncSummary& raise = result.graph.summaries().at("RaiseNet");
  EXPECT_EQ(raise.spl_lo, 1);
  EXPECT_EQ(raise.spl_hi, 1);
  EXPECT_TRUE(raise.has_annotation);
  const FuncSummary& release = result.graph.summaries().at("ReleaseNet");
  EXPECT_EQ(release.spl_lo, -1);
  EXPECT_EQ(release.spl_hi, -1);
}

TEST(LintGraph, RecursionCycles) {
  const LintResult result = LintFixture("recursion.cc");
  // The annotated self-recursion carries a level effect: reported once.
  const auto cycles = ByRule(result, "call-cycle");
  ASSERT_EQ(cycles.size(), 1u);
  EXPECT_NE(cycles[0]->note.find("RecursiveRaise -> RecursiveRaise"),
            std::string::npos);
  EXPECT_EQ(cycles[0]->note.find("PingPong"), std::string::npos);
  // Its fixed +1 annotation cannot hold across iterations: the solver
  // widens the interval and the contract check reports the disagreement.
  const auto transitive = ByRule(result, "spl-imbalance-transitive");
  ASSERT_EQ(transitive.size(), 1u);
  EXPECT_EQ(transitive[0]->line, 8);
  EXPECT_NE(transitive[0]->message.find("[1, 2]"), std::string::npos);
  // The balanced mutual recursion is detected as a cycle but not reported.
  bool pingpong_cycle = false;
  for (const auto& cycle : result.graph.cycles()) {
    if (cycle == std::vector<std::string>{"PingPong", "PongPing"}) {
      pingpong_cycle = true;
    }
  }
  EXPECT_TRUE(pingpong_cycle);
  EXPECT_TRUE(result.graph.summaries().at("PingPong").in_cycle);
  EXPECT_EQ(result.unsuppressed(), 2u);
}

TEST(LintGraph, SummariesAreFileOrderIndependent) {
  // The same program split across two files, analyzed in both orders: the
  // Jacobi solver and sorted node iteration must make results identical.
  const std::pair<std::string, std::string> a{
      "a.cc", "void SleepsDeep(Kernel& k) { k.sched().Tsleep(&k, 0); }\n"};
  const std::pair<std::string, std::string> b{
      "b.cc",
      "void MiddleHelper(Kernel& k) { SleepsDeep(k); }\n"
      "void RaisedCaller(Kernel& k) {\n"
      "  const int s = k.spl().splbio();\n"
      "  MiddleHelper(k);\n"
      "  k.spl().splx(s);\n"
      "}\n"};
  const LintResult ab = LintText({a, b});
  const LintResult ba = LintText({b, a});
  EXPECT_EQ(FindingsToJson(ab.findings), FindingsToJson(ba.findings));
  EXPECT_EQ(CallGraphToJson(ab.graph), CallGraphToJson(ba.graph));
  // And the cross-file chain is found either way.
  ASSERT_EQ(ByRule(ab, "spl-sleep-transitive").size(), 1u);
  ASSERT_EQ(ByRule(ba, "spl-sleep-transitive").size(), 1u);
  EXPECT_EQ(ByRule(ab, "spl-sleep-transitive")[0]->line, 4);
}

TEST(LintGraph, ExternalCalleesAreNeutral) {
  // An unresolved callee must not fabricate sleep or level effects.
  const LintResult result = LintText({{"ext.cc",
      "void CallsLibrary(Kernel& k) {\n"
      "  const int s = k.spl().splbio();\n"
      "  SomeLibraryRoutine(&k);\n"
      "  k.spl().splx(s);\n"
      "}\n"}});
  EXPECT_EQ(result.unsuppressed(), 0u);
  EXPECT_EQ(result.graph.EffectiveSummary("SomeLibraryRoutine", "CallsLibrary"),
            nullptr);
}

// --- instrumentation rules ---------------------------------------------------

TEST(LintRules, InstrBalanceFixture) {
  const LintResult result = LintFixture("bad_instr.cc");
  const auto balance = ByRule(result, "instr-balance");
  ASSERT_EQ(balance.size(), 2u);
  EXPECT_EQ(balance[0]->line, 7);  // entry emit with a skipping early return
  EXPECT_NE(balance[0]->message.find("EarlyReturnSkipsExit"), std::string::npos);
  EXPECT_EQ(balance[1]->line, 15);  // bare exit emit
  EXPECT_NE(balance[1]->message.find("OrphanExit"), std::string::npos);
  const auto raw = ByRule(result, "instr-raw-tag");
  ASSERT_EQ(raw.size(), 1u);
  EXPECT_EQ(raw[0]->line, 19);
  // Scope's ctor/dtor pair must NOT be flagged.
  for (const Finding* f : balance) {
    EXPECT_EQ(f->message.find("Scope"), std::string::npos) << f->message;
  }
}

// --- telemetry span rule -----------------------------------------------------

TEST(LintRules, ObsSpanBalanceFixture) {
  const LintResult result = LintFixture("bad_span.cc");
  const auto findings = ByRule(result, "obs-span-balance");
  ASSERT_EQ(findings.size(), 2u);
  // Attributed to the OBS_SPAN_BEGIN, naming the leaked token.
  EXPECT_EQ(findings[0]->line, 20);
  EXPECT_NE(findings[0]->message.find("'fetch'"), std::string::npos);
  EXPECT_NE(findings[0]->note.find("EarlyReturnSkipsEnd"), std::string::npos);
  EXPECT_EQ(findings[1]->line, 31);
  EXPECT_NE(findings[1]->message.find("'work'"), std::string::npos);
  // BalancedTwoEnds (one begin, an end per path) and NestedSpans stay clean.
  EXPECT_EQ(result.unsuppressed(), 2u);
}

// --- suppressions ------------------------------------------------------------

TEST(LintRules, SuppressionFixture) {
  const LintResult result = LintFixture("suppressed.cc");
  std::size_t suppressed = 0;
  for (const Finding& f : result.findings) {
    if (f.suppressed) {
      ++suppressed;
      EXPECT_FALSE(f.suppress_reason.empty());
    }
  }
  EXPECT_EQ(suppressed, 2u);  // the discard and the trailing-comment sleep
  // A reason-less suppression is rejected: it reports bad-suppression AND
  // leaves its target finding live.
  const auto bad = ByRule(result, "bad-suppression");
  ASSERT_EQ(bad.size(), 2u);
  EXPECT_EQ(bad[0]->line, 17);
  EXPECT_EQ(bad[1]->line, 22);
  const auto live = ByRule(result, "spl-balance");
  bool found_live = false;
  for (const Finding* f : live) {
    if (!f->suppressed) {
      EXPECT_EQ(f->line, 18);
      found_live = true;
    }
  }
  EXPECT_TRUE(found_live);
}

TEST(LintRules, GoodFixtureIsClean) {
  const LintResult result = LintFixture("good_kernel.cc");
  for (const Finding& f : result.findings) {
    EXPECT_TRUE(f.suppressed) << FormatFinding(f);
  }
  EXPECT_EQ(result.unsuppressed(), 0u);
}

// --- registrations across files ----------------------------------------------

TEST(LintRules, RegConflictAcrossFiles) {
  const LintResult result = LintText({
      {"a.cc", "void A(Kernel& k) { k.RegFn(\"dup\", Subsys::kLib); }\n"},
      {"b.cc", "void B(Kernel& k) { k.RegInline(\"dup\", Subsys::kLib); }\n"},
  });
  const auto findings = ByRule(result, "reg-conflict");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0]->file, "b.cc");
  EXPECT_NE(findings[0]->note.find("a.cc"), std::string::npos);
}

TEST(LintRules, ContextSwitchRegistrationNeedsFiberSwitch) {
  const LintResult result = LintText({
      {"noswtch.cc", "void R(Kernel& k) { k.RegFn(\"sw\", Subsys::kSched, true); }\n"},
  });
  const auto findings = ByRule(result, "tag-ctx");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0]->message.find("Fiber::Switch"), std::string::npos);
}

// --- tag-file checks ---------------------------------------------------------

TEST(LintTags, ParseFindingsCarryLines) {
  const LintResult result = LintText({}, ReadFixture("bad_tags.tags"), "bad_tags.tags");
  const auto findings = ByRule(result, "tag-parse");
  std::vector<int> lines;
  for (const Finding* f : findings) {
    EXPECT_EQ(f->file, "bad_tags.tags");
    lines.push_back(f->line);
  }
  // duplicate name, odd tag, duplicate tag, inline collision, bad number,
  // missing slash — each attributed to its own line.
  EXPECT_EQ(lines, (std::vector<int>{3, 4, 5, 7, 8, 9}));
}

TEST(LintTags, ModelCrossChecks) {
  const LintResult result = LintText(
      {{"reg.cc", ReadFixture("good_kernel.cc")}},
      ReadFixture("bad_ctx.tags"), "bad_ctx.tags");
  const auto ctx = ByRule(result, "tag-ctx");
  ASSERT_EQ(ctx.size(), 3u);
  EXPECT_EQ(ctx[0]->line, 2);  // plainfn/600! — not a context-switch function
  EXPECT_EQ(ctx[1]->line, 4);  // ctxfn registered '!' but entry lacks marker
  EXPECT_EQ(ctx[2]->line, 5);  // bogus/700! — registered nowhere
  const auto model = ByRule(result, "tag-model");
  ASSERT_EQ(model.size(), 1u);
  EXPECT_EQ(model[0]->line, 3);  // inlfn registered inline, tagged as a pair
}

// --- JSON round trip ---------------------------------------------------------

// The findings array of a FindingsToJson document, read back through the
// shared JSON reader.
std::vector<JsonValue> ParsedFindings(const std::string& json) {
  JsonValue root;
  std::string error;
  EXPECT_TRUE(ParseJson(json, &root, &error)) << error;
  const JsonValue* findings = root.Get("findings");
  EXPECT_TRUE(findings != nullptr && findings->kind == JsonValue::kArray) << json;
  return findings != nullptr ? findings->arr : std::vector<JsonValue>{};
}

std::string StringField(const JsonValue& v, const char* key) {
  const JsonValue* field = v.Get(key);
  return field != nullptr && field->kind == JsonValue::kString ? field->str : "<missing>";
}

TEST(LintJson, FindingsRoundTrip) {
  const LintResult result = LintFixture("bad_spl.cc");
  ASSERT_FALSE(result.findings.empty());
  const std::vector<JsonValue> parsed = ParsedFindings(FindingsToJson(result.findings));
  ASSERT_EQ(parsed.size(), result.findings.size());
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    EXPECT_EQ(StringField(parsed[i], "rule"), result.findings[i].rule);
    EXPECT_EQ(StringField(parsed[i], "file"), result.findings[i].file);
    const JsonValue* line = parsed[i].Get("line");
    ASSERT_NE(line, nullptr);
    EXPECT_EQ(line->number, result.findings[i].line);
    EXPECT_EQ(StringField(parsed[i], "message"), result.findings[i].message);
    const JsonValue* suppressed = parsed[i].Get("suppressed");
    ASSERT_NE(suppressed, nullptr);
    EXPECT_EQ(suppressed->boolean, result.findings[i].suppressed);
  }
}

TEST(LintJson, EscapesSurviveRoundTrip) {
  std::vector<Finding> in(1);
  in[0].rule = "tag-parse";
  in[0].file = "a\\b.cc";
  in[0].line = 3;
  in[0].message = "quote \" tab \t newline \n ctl \x01 done";
  const std::vector<JsonValue> out = ParsedFindings(FindingsToJson(in));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(StringField(out[0], "file"), in[0].file);
  EXPECT_EQ(StringField(out[0], "message"), in[0].message);
}

TEST(LintJson, SarifCarriesRulesAndSuppressions) {
  const LintResult result = LintFixture("suppressed.cc");
  const std::string sarif = FindingsToSarif(result.findings);
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  // The full rule catalog rides along, including the whole-program rules.
  EXPECT_NE(sarif.find("{\"id\": \"spl-sleep-transitive\""), std::string::npos);
  EXPECT_NE(sarif.find("{\"id\": \"intr-blocking\""), std::string::npos);
  EXPECT_NE(sarif.find("{\"id\": \"call-cycle\""), std::string::npos);
  // Suppressed findings are carried as inSource suppressions, not dropped.
  EXPECT_NE(sarif.find("\"suppressions\": [{\"kind\": \"inSource\""),
            std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\": "), std::string::npos);
}

// --- call-structure model and trace cross-check ------------------------------

TEST(LintTrace, ModelExport) {
  const LintResult result = LintText({{"reg.cc", ReadFixture("good_kernel.cc")}});
  ASSERT_EQ(result.model.by_name.size(), 3u);
  EXPECT_EQ(result.model.by_name.at("ctxfn").kind, TagKind::kContextSwitch);
  const std::string json = ModelToJson(result.model);
  EXPECT_NE(json.find("\"name\": \"plainfn\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\": \"inline\""), std::string::npos);
  EXPECT_NE(json.find("\"file\": \"reg.cc\""), std::string::npos);
}

TEST(LintTrace, ModelJsonCarriesAControlCharacterPath) {
  // A tab in a source path must come out escaped, or --model-out writes a
  // file no JSON reader accepts.
  const LintResult result = LintText({{"a\tb.cc", ReadFixture("good_kernel.cc")}});
  const std::string json = ModelToJson(result.model, CallGraphToJson(result.graph));
  JsonValue root;
  std::string error;
  ASSERT_TRUE(ParseJson(json, &root, &error)) << error << "\n" << json;
  const JsonValue* functions = root.Get("functions");
  ASSERT_NE(functions, nullptr);
  ASSERT_FALSE(functions->arr.empty());
  for (const JsonValue& fn : functions->arr) {
    EXPECT_EQ(StringField(fn, "file"), "a\tb.cc");
  }
  const JsonValue* graph = root.Get("call_graph");
  ASSERT_NE(graph, nullptr);
  const JsonValue* nodes = graph->Get("nodes");
  ASSERT_NE(nodes, nullptr);
  ASSERT_FALSE(nodes->arr.empty());
  for (const JsonValue& node : nodes->arr) {
    EXPECT_EQ(StringField(node, "file"), "a\tb.cc");
  }
}

TEST(LintTrace, CrossCheckAttributesAnomalies) {
  const LintResult lint = LintText({{"reg.cc", ReadFixture("good_kernel.cc")}});
  TagFile names;
  ASSERT_TRUE(names.AddFunction("plainfn", 600));
  ASSERT_TRUE(names.AddFunction("ctxfn", 604, /*context_switch=*/true));

  ASSERT_TRUE(names.AddFunction("inlfn", 606));

  RawTrace raw;
  raw.events.push_back(RawEvent{600, 10});  // plainfn entry
  raw.events.push_back(RawEvent{602, 20});  // unknown tag (neighbor of 601/603)
  raw.events.push_back(RawEvent{606, 25});  // inlfn entry, nested in plainfn
  raw.events.push_back(RawEvent{601, 30});  // plainfn exit: force-closes inlfn
  raw.events.push_back(RawEvent{601, 40});  // orphan exit
  const DecodedTrace trace = Decoder::Decode(raw, names);
  EXPECT_EQ(trace.unknown_tags, 1u);
  EXPECT_EQ(trace.orphan_exits, 1u);
  EXPECT_GE(trace.unclosed_entries, 1u);

  std::vector<Finding> findings;
  CrossCheckTrace(trace, names, lint.model, &findings);
  bool unknown = false, orphan = false, unclosed = false;
  for (const Finding& f : findings) {
    if (f.rule == "trace-unknown-tag") {
      unknown = true;
      // Attributed to plainfn's registration site via the neighboring tag.
      EXPECT_EQ(f.file, "reg.cc");
      EXPECT_NE(f.note.find("plainfn"), std::string::npos);
    } else if (f.rule == "trace-orphan-exit") {
      orphan = true;
      EXPECT_EQ(f.file, "reg.cc");
      EXPECT_NE(f.message.find("plainfn"), std::string::npos);
    } else if (f.rule == "trace-unclosed-entry") {
      unclosed = true;
      // The mid-trace force-close of inlfn, attributed to its registration.
      EXPECT_EQ(f.file, "reg.cc");
      EXPECT_NE(f.message.find("inlfn"), std::string::npos);
    }
  }
  EXPECT_TRUE(unknown);
  EXPECT_TRUE(orphan);
  EXPECT_TRUE(unclosed);
}

TEST(LintTrace, ShardBoundaryCutIsNotAnAnomaly) {
  const LintResult lint = LintText({{"reg.cc", ReadFixture("good_kernel.cc")}});
  TagFile names;
  ASSERT_TRUE(names.AddFunction("plainfn", 600));

  // A capture (or analysis shard) that begins mid-call: the first event is
  // the exit of a call opened before the cut. Like end-of-capture
  // truncation, that is how every shard after the first starts — the
  // cross-check must not report it. A later orphan exit of the *same*
  // function after balanced activity is still a genuine anomaly.
  RawTrace raw;
  raw.events.push_back(RawEvent{601, 10});  // exit of a pre-cut call
  raw.events.push_back(RawEvent{600, 20});  // balanced pair
  raw.events.push_back(RawEvent{601, 30});
  const DecodedTrace trace = Decoder::Decode(raw, names);
  EXPECT_EQ(trace.orphan_exits, 1u);
  const std::size_t plainfn = names.FindByName("plainfn")->index;
  EXPECT_EQ(trace.per_function[plainfn].preopen_exits, 1u);

  std::vector<Finding> findings;
  CrossCheckTrace(trace, names, lint.model, &findings);
  for (const Finding& f : findings) {
    EXPECT_NE(f.rule, "trace-orphan-exit") << f.message;
  }

  // The same exit arriving after plainfn has already been seen entering is
  // not a cut artefact and must still be reported.
  RawTrace bad;
  bad.events.push_back(RawEvent{600, 10});
  bad.events.push_back(RawEvent{601, 20});
  bad.events.push_back(RawEvent{601, 30});  // orphan after balanced activity
  const DecodedTrace bad_trace = Decoder::Decode(bad, names);
  EXPECT_EQ(bad_trace.orphan_exits, 1u);
  EXPECT_EQ(bad_trace.per_function[plainfn].preopen_exits, 0u);
  findings.clear();
  CrossCheckTrace(bad_trace, names, lint.model, &findings);
  bool orphan = false;
  for (const Finding& f : findings) {
    orphan = orphan || f.rule == "trace-orphan-exit";
  }
  EXPECT_TRUE(orphan);
}

TEST(LintTrace, TruncatedFinalStackIsNotAnAnomaly) {
  const LintResult lint = LintText({{"reg.cc", ReadFixture("good_kernel.cc")}});
  TagFile names;
  ASSERT_TRUE(names.AddFunction("plainfn", 600));

  // A capture stopped mid-run: the in-flight stack is truncated, which is
  // how every real capture ends — the cross-check must not report it.
  RawTrace raw;
  raw.events.push_back(RawEvent{600, 10});  // entry, capture stops here
  const DecodedTrace trace = Decoder::Decode(raw, names);
  EXPECT_GE(trace.unclosed_entries, 1u);
  EXPECT_EQ(trace.per_function[names.FindByName("plainfn")->index].truncated_entries, 1u);

  std::vector<Finding> findings;
  CrossCheckTrace(trace, names, lint.model, &findings);
  for (const Finding& f : findings) {
    EXPECT_NE(f.rule, "trace-unclosed-entry") << f.message;
  }
}

}  // namespace
}  // namespace hwprof::lint
