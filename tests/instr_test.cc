// Unit tests for src/instr: tag file format, instrumenter, two-stage link.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "src/base/rng.h"
#include "src/base/strings.h"
#include "src/instr/instrumenter.h"
#include "src/instr/linker.h"
#include "src/instr/profile_scope.h"
#include "src/instr/tag_file.h"
#include "src/sim/machine.h"

namespace hwprof {
namespace {

// --- TagFile parsing ------------------------------------------------------------

TEST(TagFile, ParsesThePapersSample) {
  // Verbatim from the paper.
  const char* text =
      "main/502\n"
      "hardclock/510\n"
      "gatherstats/512\n"
      "softclock/514\n"
      "timeout/516\n"
      "untimeout/518\n"
      "swtch/600!\n"
      "MGET/1002=\n";
  TagFile file;
  ASSERT_TRUE(TagFile::Parse(text, &file));
  EXPECT_EQ(file.size(), 8u);

  const TagEntry* main_fn = file.FindByName("main");
  ASSERT_NE(main_fn, nullptr);
  EXPECT_EQ(main_fn->tag, 502);
  EXPECT_EQ(main_fn->kind, TagKind::kFunction);
  EXPECT_EQ(main_fn->exit_tag(), 503);

  const TagEntry* swtch = file.FindByName("swtch");
  ASSERT_NE(swtch, nullptr);
  EXPECT_EQ(swtch->kind, TagKind::kContextSwitch);

  const TagEntry* mget = file.FindByName("MGET");
  ASSERT_NE(mget, nullptr);
  EXPECT_EQ(mget->kind, TagKind::kInline);
}

TEST(TagFile, FindByTagCoversEntryAndExit) {
  TagFile file;
  ASSERT_TRUE(TagFile::Parse("foo/100\nbar/102\n", &file));
  EXPECT_EQ(file.FindByTag(100)->name, "foo");
  EXPECT_EQ(file.FindByTag(101)->name, "foo");  // exit tag
  EXPECT_EQ(file.FindByTag(102)->name, "bar");
  EXPECT_EQ(file.FindByTag(104), nullptr);
}

TEST(TagFile, InlineTagsCoverOnlyTheirValue) {
  TagFile file;
  ASSERT_TRUE(TagFile::Parse("MARK/111=\n", &file));
  EXPECT_NE(file.FindByTag(111), nullptr);
  EXPECT_EQ(file.FindByTag(112), nullptr);
}

TEST(TagFile, RejectsOddFunctionTags) {
  TagFile file;
  EXPECT_FALSE(TagFile::Parse("foo/101\n", &file));
}

TEST(TagFile, RejectsDuplicateNamesAndOverlappingTags) {
  TagFile file;
  EXPECT_FALSE(TagFile::Parse("foo/100\nfoo/200\n", &file));
  EXPECT_FALSE(TagFile::Parse("foo/100\nbar/100\n", &file));
  // bar's entry tag collides with foo's exit tag (100+1 = 101 is covered,
  // and an inline at 101 overlaps it).
  EXPECT_FALSE(TagFile::Parse("foo/100\nM/101=\n", &file));
}

TEST(TagFile, SkipsCommentsAndBlanks) {
  TagFile file;
  ASSERT_TRUE(TagFile::Parse("# comment\n\n  \nfoo/100\n", &file));
  EXPECT_EQ(file.size(), 1u);
}

TEST(TagFile, RejectsMalformedLines) {
  TagFile file;
  EXPECT_FALSE(TagFile::Parse("noslash\n", &file));
  EXPECT_FALSE(TagFile::Parse("/100\n", &file));
  EXPECT_FALSE(TagFile::Parse("foo/abc\n", &file));
  EXPECT_FALSE(TagFile::Parse("foo/70000\n", &file));
}

TEST(TagFile, ParseReportsLineAndReasonForEveryProblem) {
  const char* text =
      "main/500\n"
      "main/502\n"    // duplicate name
      "odd/503\n"     // odd function tag
      "clash/500\n"   // collides with main's entry tag
      "bad/zzz\n"     // non-numeric value
      "noslash\n";
  TagFile file;
  std::vector<TagDiag> diags;
  EXPECT_FALSE(TagFile::Parse(text, &file, &diags));
  ASSERT_EQ(diags.size(), 5u);
  EXPECT_EQ(diags[0].line, 2);
  EXPECT_NE(diags[0].message.find("duplicate name 'main'"), std::string::npos);
  EXPECT_EQ(diags[1].line, 3);
  EXPECT_NE(diags[1].message.find("odd"), std::string::npos);
  EXPECT_EQ(diags[2].line, 4);
  EXPECT_NE(diags[2].message.find("already covered"), std::string::npos);
  EXPECT_EQ(diags[3].line, 5);
  EXPECT_NE(diags[3].message.find("not a non-negative integer"), std::string::npos);
  EXPECT_EQ(diags[4].line, 6);
  EXPECT_NE(diags[4].message.find("missing '/'"), std::string::npos);
}

TEST(TagFile, ParseWithDiagsLeavesOutputUntouchedOnFailure) {
  TagFile file;
  ASSERT_TRUE(TagFile::Parse("keep/100\n", &file));
  std::vector<TagDiag> diags;
  EXPECT_FALSE(TagFile::Parse("bad/101\n", &file, &diags));
  ASSERT_EQ(diags.size(), 1u);
  // The earlier successful parse survives the failed one.
  EXPECT_NE(file.FindByName("keep"), nullptr);
}

TEST(TagFile, FormatParsesBackIdentically) {
  TagFile file;
  ASSERT_TRUE(TagFile::Parse("main/502\nswtch/600!\nMGET/1002=\n", &file));
  TagFile again;
  ASSERT_TRUE(TagFile::Parse(file.Format(), &again));
  EXPECT_EQ(again.Format(), file.Format());
  EXPECT_EQ(again.size(), file.size());
}

TEST(TagFile, GroupAnnotationParsesAndRoundTrips) {
  TagFile file;
  ASSERT_TRUE(TagFile::Parse(
      "vm_fault/700 group=vm\nswtch/800! group=sched\nplain/900\nMGET/1002= group=kmem\n",
      &file));
  ASSERT_NE(file.FindByName("vm_fault"), nullptr);
  EXPECT_EQ(file.FindByName("vm_fault")->group, "vm");
  EXPECT_EQ(file.FindByName("swtch")->group, "sched");
  EXPECT_EQ(file.FindByName("MGET")->group, "kmem");
  EXPECT_TRUE(file.FindByName("plain")->group.empty());

  const auto groups = file.GroupsByName();
  EXPECT_EQ(groups.size(), 3u);
  EXPECT_EQ(groups.at("vm_fault"), "vm");
  EXPECT_EQ(groups.count("plain"), 0u);

  // Format renders the annotation back and the result re-parses identically.
  EXPECT_NE(file.Format().find("vm_fault/700 group=vm"), std::string::npos);
  TagFile again;
  ASSERT_TRUE(TagFile::Parse(file.Format(), &again));
  EXPECT_EQ(again.Format(), file.Format());
}

TEST(TagFile, GroupAnnotationErrorsCarryLineAndReason) {
  const char* text =
      "ok/500 group=net\n"
      "a/502 group\n"               // missing '=LABEL'
      "b/504 group=\n"              // empty label
      "c/506 group=v=m\n"           // '=' inside the label
      "d/508 color=red\n"           // unknown annotation
      "e/510 group=vm group=fs\n";  // duplicate annotation
  TagFile file;
  std::vector<TagDiag> diags;
  EXPECT_FALSE(TagFile::Parse(text, &file, &diags));
  ASSERT_EQ(diags.size(), 5u);
  EXPECT_EQ(diags[0].line, 2);
  EXPECT_NE(diags[0].message.find("missing '=LABEL'"), std::string::npos);
  EXPECT_EQ(diags[1].line, 3);
  EXPECT_NE(diags[1].message.find("empty group label"), std::string::npos);
  EXPECT_EQ(diags[2].line, 4);
  EXPECT_NE(diags[2].message.find("malformed group label 'v=m'"), std::string::npos);
  EXPECT_EQ(diags[3].line, 5);
  EXPECT_NE(diags[3].message.find("unknown annotation 'color=red'"), std::string::npos);
  EXPECT_EQ(diags[4].line, 6);
  EXPECT_NE(diags[4].message.find("duplicate group annotation"), std::string::npos);
}

TEST(TagFile, SetGroupBackfillsExistingEntries) {
  TagFile file;
  ASSERT_TRUE(TagFile::Parse("f/600\n", &file));
  EXPECT_FALSE(file.SetGroup("nosuch", "vm"));
  EXPECT_TRUE(file.SetGroup("f", "vm"));
  EXPECT_EQ(file.FindByName("f")->group, "vm");
  EXPECT_EQ(file.GroupsByName().at("f"), "vm");
}

TEST(TagFile, AssignTakesNextValueAboveHighest) {
  TagFile file;
  ASSERT_TRUE(TagFile::Parse("base/500\n", &file));
  // Highest covered tag is 501 (base's exit) -> next even is 502.
  EXPECT_EQ(file.Assign("f1", TagKind::kFunction), 502);
  EXPECT_EQ(file.Assign("f2", TagKind::kFunction), 504);
  // Inline takes the next raw value (odd allowed).
  EXPECT_EQ(file.Assign("m1", TagKind::kInline), 506);
  EXPECT_EQ(file.Assign("f3", TagKind::kFunction), 508);
}

TEST(TagFile, MergeConcatenatesDisjointFiles) {
  TagFile a;
  TagFile b;
  ASSERT_TRUE(TagFile::Parse("foo/100\n", &a));
  ASSERT_TRUE(TagFile::Parse("bar/200\n", &b));
  EXPECT_TRUE(a.Merge(b));
  EXPECT_EQ(a.size(), 2u);
  EXPECT_NE(a.FindByName("bar"), nullptr);
}

TEST(TagFile, MergeRejectsCollisionsAtomically) {
  TagFile a;
  TagFile b;
  ASSERT_TRUE(TagFile::Parse("foo/100\n", &a));
  ASSERT_TRUE(TagFile::Parse("ok/200\nfoo/300\n", &b));
  EXPECT_FALSE(a.Merge(b));
  EXPECT_EQ(a.size(), 1u);  // nothing from b leaked in
}

// --- Seeded mutations of a real names file -----------------------------------

// One seeded damage to `text`: a byte flip, a splice, a truncation, a
// duplicated line (so a duplicated name and tags), a duplicated name or tag
// on its own, an odd tag, or a broken `group=` annotation.
void Mutate(Rng& rng, std::string* text) {
  static constexpr std::string_view kBytes = "0123456789/!=# \t\ngroup_x";
  std::vector<std::string> lines;
  for (std::string_view line : Split(*text, '\n')) {
    lines.emplace_back(line);
  }
  auto any_line = [&]() -> std::string& { return lines[rng.NextBelow(lines.size())]; };
  switch (rng.NextBelow(8)) {
    case 0:  // flip one byte
      if (!text->empty()) {
        (*text)[rng.NextBelow(text->size())] =
            rng.NextBool(0.5) ? kBytes[rng.NextBelow(kBytes.size())]
                              : static_cast<char>(rng.NextBelow(256));
      }
      return;
    case 1: {  // splice a run of the file in somewhere else
      const std::size_t from = rng.NextBelow(text->size() + 1);
      const std::string run = text->substr(from, rng.NextBelow(64));
      text->insert(rng.NextBelow(text->size() + 1), run);
      return;
    }
    case 2:  // truncate
      text->resize(rng.NextBelow(text->size() + 1));
      return;
    case 3:  // a whole line twice
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(rng.NextBelow(lines.size())),
                   any_line());
      break;
    case 4: {  // a second entry with a taken name or a taken tag
      const std::string& line = any_line();
      const std::size_t slash = line.find('/');
      if (slash == std::string::npos) {
        return;
      }
      lines.push_back(rng.NextBool(0.5) ? line.substr(0, slash) + "/60000"
                                        : "dup" + line.substr(slash));
      break;
    }
    case 5: {  // an odd value
      std::string& line = any_line();
      const std::size_t slash = line.find('/');
      if (slash == std::string::npos) {
        return;
      }
      line = line.substr(0, slash + 1) + std::to_string(2 * rng.NextBelow(30000) + 1);
      break;
    }
    default: {  // a broken group annotation
      static constexpr std::string_view kGroups[] = {
          " group=",  " group",      " grp=vm",       " group=a=b",
          " group=v/m", " group=#", " group=a group=b", "\tgroup=ok",
      };
      any_line() += kGroups[rng.NextBelow(std::size(kGroups))];
      break;
    }
  }
  text->clear();
  for (std::size_t i = 0; i < lines.size(); ++i) {
    *text += lines[i];
    if (i + 1 < lines.size()) {
      *text += '\n';
    }
  }
}

TEST(TagFile, SeededMutationsParseToDenseIndicesOrLineDiagnostics) {
  std::ifstream in(std::string(HWPROF_TEST_DIR) + "/golden/net_receive.names");
  std::stringstream original;
  original << in.rdbuf();
  ASSERT_FALSE(original.str().empty());
  std::size_t parsed = 0;
  for (std::uint64_t seed = 1; seed <= 3000; ++seed) {
    Rng rng(seed);
    std::string text = original.str();
    for (std::uint64_t n = 1 + rng.NextBelow(3); n > 0; --n) {
      Mutate(rng, &text);
    }
    TagFile file;
    std::vector<TagDiag> diags;
    if (!TagFile::Parse(text, &file, &diags)) {
      ASSERT_FALSE(diags.empty()) << "seed " << seed;
      const int lines = static_cast<int>(SplitLines(text).size());
      for (const TagDiag& d : diags) {
        ASSERT_GE(d.line, 1) << "seed " << seed << ": " << d.message;
        ASSERT_LE(d.line, lines) << "seed " << seed << ": " << d.message;
      }
      continue;
    }
    ++parsed;
    ASSERT_TRUE(diags.empty()) << "seed " << seed;
    for (std::size_t i = 0; i < file.size(); ++i) {
      const TagEntry& e = file.entries()[i];
      ASSERT_EQ(e.index, i) << "seed " << seed;
      ASSERT_EQ(file.FindByName(e.name), &e) << "seed " << seed;
      ASSERT_EQ(file.FindByTag(e.entry_tag()), &e) << "seed " << seed;
      if (e.IsFunctionLike()) {
        ASSERT_EQ(file.FindByTag(e.exit_tag()), &e) << "seed " << seed;
      }
    }
    TagFile again;
    ASSERT_TRUE(TagFile::Parse(file.Format(), &again)) << "seed " << seed;
    ASSERT_EQ(again.size(), file.size()) << "seed " << seed;
    for (std::size_t i = 0; i < file.size(); ++i) {
      const TagEntry& a = file.entries()[i];
      const TagEntry& b = again.entries()[i];
      ASSERT_EQ(b.name, a.name) << "seed " << seed;
      ASSERT_EQ(b.tag, a.tag) << "seed " << seed;
      ASSERT_EQ(b.kind, a.kind) << "seed " << seed;
      ASSERT_EQ(b.group, a.group) << "seed " << seed;
      ASSERT_EQ(b.index, a.index) << "seed " << seed;
    }
  }
  // Both outcomes are exercised.
  EXPECT_GT(parsed, 100u);
  EXPECT_LT(parsed, 2900u);
}

// --- Instrumenter ---------------------------------------------------------------------

TEST(Instrumenter, AssignsAndExtendsTheFile) {
  TagFile tags;
  ASSERT_TRUE(TagFile::Parse("__base/500\n", &tags));
  Instrumenter instr(&tags);
  FuncInfo* a = instr.RegisterFunction("alpha", Subsys::kNet);
  FuncInfo* b = instr.RegisterFunction("beta", Subsys::kVm);
  EXPECT_EQ(a->entry_tag, 502);
  EXPECT_EQ(b->entry_tag, 504);
  EXPECT_EQ(instr.function_count(), 2u);
  EXPECT_NE(tags.FindByName("alpha"), nullptr);  // file extended
}

TEST(Instrumenter, ReusesTagsOnRecompilation) {
  TagFile tags;
  ASSERT_TRUE(TagFile::Parse("alpha/700\n", &tags));
  Instrumenter instr(&tags);
  FuncInfo* a = instr.RegisterFunction("alpha", Subsys::kNet);
  EXPECT_EQ(a->entry_tag, 700);  // stable across recompiles
}

TEST(Instrumenter, StampsSubsystemGroupsOnTheTagFile) {
  TagFile tags;
  ASSERT_TRUE(TagFile::Parse("seeded/600\n", &tags));
  Instrumenter instr(&tags);
  instr.RegisterFunction("tcp_x", Subsys::kNet);
  instr.RegisterFunction("seeded", Subsys::kVm);  // pre-seeded entry, no group yet
  EXPECT_EQ(tags.FindByName("tcp_x")->group, "net");
  EXPECT_EQ(tags.FindByName("seeded")->group, "vm");  // backfilled
}

TEST(Instrumenter, SelectiveProfilingBySubsystem) {
  TagFile tags;
  Instrumenter instr(&tags);
  FuncInfo* net_fn = instr.RegisterFunction("tcp_x", Subsys::kNet);
  FuncInfo* vm_fn = instr.RegisterFunction("pmap_x", Subsys::kVm);
  instr.DisableAll();
  instr.SetSubsysEnabled(Subsys::kNet, true);
  EXPECT_TRUE(net_fn->enabled);
  EXPECT_FALSE(vm_fn->enabled);
  instr.EnableAll();
  EXPECT_TRUE(vm_fn->enabled);
}

TEST(InstrumenterDeath, DoubleRegistrationAborts) {
  TagFile tags;
  Instrumenter instr(&tags);
  instr.RegisterFunction("dup", Subsys::kNet);
  EXPECT_DEATH(instr.RegisterFunction("dup", Subsys::kNet), "twice");
}

// --- ProfileScope ------------------------------------------------------------------------

class CountingTap : public EpromTapListener {
 public:
  void OnEpromRead(std::uint16_t addr, Nanoseconds) override { tags.push_back(addr); }
  std::vector<std::uint16_t> tags;
};

TEST(ProfileScope, EmitsEntryAndExitTriggers) {
  Machine machine;
  TagFile tags;
  Instrumenter instr(&tags);
  FuncInfo* fn = instr.RegisterFunction("foo", Subsys::kNet);
  Linker::Link(machine, instr, 600 * 1024);
  CountingTap tap;
  machine.bus().AddTapListener(&tap);
  {
    ProfileScope scope(machine, instr, fn);
  }
  ASSERT_EQ(tap.tags.size(), 2u);
  EXPECT_EQ(tap.tags[0], fn->entry_tag);
  EXPECT_EQ(tap.tags[1], fn->exit_tag());
}

TEST(ProfileScope, DisabledFunctionIsFree) {
  Machine machine;
  TagFile tags;
  Instrumenter instr(&tags);
  FuncInfo* fn = instr.RegisterFunction("foo", Subsys::kNet);
  Linker::Link(machine, instr, 600 * 1024);
  fn->enabled = false;
  CountingTap tap;
  machine.bus().AddTapListener(&tap);
  const Nanoseconds before = machine.Now();
  {
    ProfileScope scope(machine, instr, fn);
  }
  EXPECT_TRUE(tap.tags.empty());
  EXPECT_EQ(machine.Now(), before);  // zero cost when compiled out
}

TEST(ProfileScope, UnlinkedKernelIsInert) {
  Machine machine;
  TagFile tags;
  Instrumenter instr(&tags);
  FuncInfo* fn = instr.RegisterFunction("foo", Subsys::kNet);
  CountingTap tap;
  machine.bus().AddTapListener(&tap);
  {
    ProfileScope scope(machine, instr, fn);
  }
  EXPECT_TRUE(tap.tags.empty());
}

TEST(ProfileScope, InlineTriggerEmitsOneEvent) {
  Machine machine;
  TagFile tags;
  Instrumenter instr(&tags);
  FuncInfo* mark = instr.RegisterInline("MARK", Subsys::kNet);
  Linker::Link(machine, instr, 600 * 1024);
  CountingTap tap;
  machine.bus().AddTapListener(&tap);
  InlineTrigger(machine, instr, mark);
  ASSERT_EQ(tap.tags.size(), 1u);
  EXPECT_EQ(tap.tags[0], mark->entry_tag);
}

// --- Linker (the Figure 2 fixed point) -------------------------------------------------------

TEST(Linker, ImageGrowsWithInstrumentation) {
  Machine machine;
  TagFile tags;
  Instrumenter instr(&tags);
  for (int i = 0; i < 10; ++i) {
    instr.RegisterFunction("fn" + std::to_string(i), Subsys::kNet);
  }
  instr.RegisterInline("MARK", Subsys::kNet);
  const LinkResult result = Linker::Link(machine, instr, 600 * 1024);
  // 10 functions x 2 triggers x 5 bytes + 1 inline x 5 bytes.
  EXPECT_EQ(result.kernel_size, 600 * 1024 + 10 * 2 * 5 + 5);
  EXPECT_EQ(result.profile_base,
            result.isa_va_base + (kDefaultEpromSocketPhys - kIsaHoleBase));
  EXPECT_EQ(instr.profile_base(), result.profile_base);
}

TEST(Linker, ProfileBaseDependsOnKernelSize) {
  Machine m1;
  Machine m2;
  TagFile t1;
  TagFile t2;
  Instrumenter i1(&t1);
  Instrumenter i2(&t2);
  i1.RegisterFunction("f", Subsys::kNet);
  i2.RegisterFunction("f", Subsys::kNet);
  const LinkResult r1 = Linker::Link(m1, i1, 600 * 1024);
  const LinkResult r2 = Linker::Link(m2, i2, 900 * 1024);
  EXPECT_NE(r1.profile_base, r2.profile_base);
}

TEST(Linker, UnprofiledLinkLeavesTriggersInert) {
  Machine machine;
  TagFile tags;
  Instrumenter instr(&tags);
  instr.RegisterFunction("f", Subsys::kNet);
  const LinkResult result = Linker::LinkUnprofiled(machine, instr, 600 * 1024);
  EXPECT_EQ(result.profile_base, 0u);
  EXPECT_FALSE(instr.linked());
  EXPECT_EQ(result.kernel_size, 600u * 1024);  // no growth
}

}  // namespace
}  // namespace hwprof
