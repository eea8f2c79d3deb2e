// detlint_core unit tests: lexer behavior (comment/string stripping, include
// capture) and each rule matcher on inline snippets, including the
// suppression and stale-annotation machinery the fixture corpus exercises
// end to end.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>
#include <vector>

#include "lexer.hpp"
#include "rules.hpp"

namespace {

using detlint::FileClass;
using detlint::Finding;
using detlint::ScanOptions;

std::vector<Finding> scan(std::string_view text,
                          FileClass cls = FileClass::kSrc,
                          std::string layer = {}) {
  ScanOptions opts;
  opts.file_class = cls;
  opts.layer = std::move(layer);
  return detlint::scan_source("snippet.cpp", text, /*companion=*/"", opts);
}

std::vector<std::string> rules_of(const std::vector<Finding>& fs) {
  std::vector<std::string> out;
  out.reserve(fs.size());
  for (const auto& f : fs) out.push_back(f.rule);
  return out;
}

// ---------------------------------------------------------------- lexer ----

TEST(Lexer, StripsCommentsAndStrings) {
  const auto res = detlint::lex(
      "int a = 1; // trailing comment\n"
      "/* block */ const char* s = \"rand() time(nullptr)\";\n");
  for (const auto& t : res.tokens) {
    EXPECT_NE(t.text, "rand");
    EXPECT_NE(t.text, "trailing");
    EXPECT_NE(t.text, "block");
  }
  ASSERT_EQ(res.comments.size(), 2u);
  EXPECT_FALSE(res.comments[0].standalone);  // sits after code
}

TEST(Lexer, BannedNameInsideStringIsNotAFinding) {
  const auto fs =
      scan("const char* const msg = \"call rand() at time()\";\n");
  EXPECT_TRUE(fs.empty());
}

TEST(Lexer, CapturesIncludesButNotOtherDirectives) {
  const auto res = detlint::lex(
      "#include \"dfs/namenode.hpp\"\n"
      "#include <vector>\n"
      "#define RAND rand()\n"
      "#if 0\nrand();\n#endif\n");
  ASSERT_EQ(res.includes.size(), 2u);
  EXPECT_EQ(res.includes[0].path, "dfs/namenode.hpp");
  EXPECT_FALSE(res.includes[0].angled);
  EXPECT_TRUE(res.includes[1].angled);
  // Directive bodies never become tokens, so the #define's rand() is unseen.
  for (const auto& t : res.tokens) EXPECT_NE(t.text, "RAND");
}

TEST(Lexer, RawStringLiteral) {
  const auto res = detlint::lex("auto s = R\"(rand() \" unbalanced)\";\n");
  for (const auto& t : res.tokens) EXPECT_NE(t.text, "rand");
}

TEST(Lexer, TracksLineNumbers) {
  const auto res = detlint::lex("int a;\n\nint b;\n");
  ASSERT_GE(res.tokens.size(), 6u);
  EXPECT_EQ(res.tokens[0].line, 1);          // int
  EXPECT_EQ(res.tokens[3].line, 3);          // int (second decl)
}

// ------------------------------------------------------- unordered-iter ----

TEST(UnorderedIter, FlagsRangeForOverLocal) {
  const auto fs = scan(
      "#include <unordered_map>\n"
      "int f() {\n"
      "  std::unordered_map<int, int> m;\n"
      "  int n = 0;\n"
      "  for (const auto& [k, v] : m) n += v;\n"
      "  return n;\n"
      "}\n");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, "unordered-iter");
  EXPECT_EQ(fs[0].line, 5);
}

TEST(UnorderedIter, FlagsIteratorLoop) {
  const auto fs = scan(
      "#include <unordered_set>\n"
      "const std::unordered_set<int> s;\n"
      "int f() {\n"
      "  int n = 0;\n"
      "  for (auto it = s.begin(); it != s.end(); ++it) n += *it;\n"
      "  return n;\n"
      "}\n");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, "unordered-iter");
}

TEST(UnorderedIter, TracksTypeAliases) {
  const auto fs = scan(
      "#include <unordered_map>\n"
      "using Index = std::unordered_map<int, int>;\n"
      "const Index idx;\n"
      "int f() {\n"
      "  int n = 0;\n"
      "  for (const auto& [k, v] : idx) n += v;\n"
      "  return n;\n"
      "}\n");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].line, 6);
}

TEST(UnorderedIter, CompanionHeaderDeclaresMember) {
  ScanOptions opts;
  opts.file_class = FileClass::kSrc;
  const auto fs = detlint::scan_source(
      "snippet.cpp",
      "int Job::total() const {\n"
      "  int n = 0;\n"
      "  for (const auto& [id, t] : tasks_) n += t;\n"
      "  return n;\n"
      "}\n",
      /*companion=*/
      "#include <unordered_map>\n"
      "struct Job {\n"
      "  std::unordered_map<int, int> tasks_;\n"
      "  int total() const;\n"
      "};\n",
      opts);
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, "unordered-iter");
}

TEST(UnorderedIter, OrderedContainersAreFine) {
  const auto fs = scan(
      "#include <map>\n"
      "const std::map<int, int> m;\n"
      "int f() {\n"
      "  int n = 0;\n"
      "  for (const auto& [k, v] : m) n += v;\n"
      "  return n;\n"
      "}\n");
  EXPECT_TRUE(fs.empty());
}

TEST(UnorderedIter, SkippedOutsideSrc) {
  const auto fs = scan(
      "#include <unordered_map>\n"
      "std::unordered_map<int, int> m;\n"
      "int f() {\n"
      "  int n = 0;\n"
      "  for (const auto& [k, v] : m) n += v;\n"
      "  return n;\n"
      "}\n",
      FileClass::kOther);
  EXPECT_TRUE(fs.empty());
}

// ----------------------------------------------------------- wall-clock ----

TEST(WallClock, FlagsClocksAndRandomness) {
  const auto fs = scan(
      "#include <chrono>\n"
      "#include <random>\n"
      "long f() { return std::chrono::steady_clock::now()"
      ".time_since_epoch().count(); }\n"
      "int g() { return rand(); }\n"
      "unsigned h() { std::random_device rd; return rd(); }\n");
  EXPECT_EQ(rules_of(fs),
            (std::vector<std::string>{"wall-clock", "wall-clock",
                                      "wall-clock"}));
}

TEST(WallClock, AppliesToTestsAndBenchToo) {
  const auto fs = scan("long f() { return time(nullptr); }\n",
                       FileClass::kOther);
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, "wall-clock");
}

TEST(WallClock, MemberNamedTimeIsFine) {
  const auto fs = scan(
      "struct Sim { long t = 0; long time() const { return t; } };\n"
      "long f(const Sim& s) { return s.time(); }\n");
  EXPECT_TRUE(fs.empty());
}

TEST(WallClock, RngInternalsExempt) {
  ScanOptions opts;
  opts.file_class = FileClass::kSrc;
  opts.rng_internals = true;
  const auto fs = detlint::scan_source(
      "src/common/rng.cpp",
      "#include <random>\n"
      "std::mt19937_64 make_engine(unsigned seed) "
      "{ return std::mt19937_64{seed}; }\n",
      "", opts);
  EXPECT_TRUE(fs.empty());
}

// ------------------------------------------------------------ ptr-order ----

TEST(PtrOrder, FlagsPointerKeys) {
  const auto fs = scan(
      "#include <map>\n"
      "#include <set>\n"
      "struct T {};\n"
      "const std::map<T*, int> a;\n"
      "const std::set<const T*> b;\n");
  EXPECT_EQ(rules_of(fs),
            (std::vector<std::string>{"ptr-order", "ptr-order"}));
}

TEST(PtrOrder, PointerValuesAreFine) {
  const auto fs = scan(
      "#include <map>\n"
      "struct T {};\n"
      "const std::map<int, T*> a;\n");
  EXPECT_TRUE(fs.empty());
}

// ------------------------------------------------------------- layering ----

TEST(Layering, FlagsUpwardInclude) {
  const auto fs = scan("#include \"mapred/job.hpp\"\n", FileClass::kSrc,
                       "simkit");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, "layering");
  EXPECT_EQ(fs[0].line, 1);
}

TEST(Layering, DownwardAndPeerIncludesAreFine) {
  const auto fs = scan(
      "#include \"common/ids.hpp\"\n"   // below
      "#include \"dfs/block.hpp\"\n"    // same layer
      "#include \"recovery/journal.hpp\"\n"  // same rank peer
      "#include <vector>\n",
      FileClass::kSrc, "dfs");
  EXPECT_TRUE(fs.empty());
}

TEST(Layering, RanksAreWellFormed) {
  const auto& ranks = detlint::layer_ranks();
  ASSERT_FALSE(ranks.empty());
  EXPECT_EQ(ranks.at("common"), 0);
  EXPECT_LT(ranks.at("simkit"), ranks.at("dfs"));
  EXPECT_LT(ranks.at("dfs"), ranks.at("mapred"));
  EXPECT_LT(ranks.at("mapred"), ranks.at("experiment"));
  // Documented same-rank peers.
  EXPECT_EQ(ranks.at("dfs"), ranks.at("recovery"));
  EXPECT_EQ(ranks.at("mapred"), ranks.at("faults"));
}

// --------------------------------------------------------- shared-state ----

TEST(SharedState, FlagsMutableGlobalsAndStaticLocals) {
  const auto fs = scan(
      "#include <atomic>\n"
      "namespace {\n"
      "std::atomic<int> level{0};\n"
      "}\n"
      "const char* name = \"x\";\n"
      "int next() {\n"
      "  static int n = 0;\n"
      "  return ++n;\n"
      "}\n"
      "struct S { static int count; };\n");
  ASSERT_EQ(rules_of(fs), (std::vector<std::string>(4, "shared-state")));
  EXPECT_EQ(fs[0].line, 3);
  EXPECT_EQ(fs[1].line, 5);
  EXPECT_EQ(fs[2].line, 7);
  EXPECT_EQ(fs[3].line, 10);
}

TEST(SharedState, ConstTablesFunctionsAndLocalsAreFine) {
  const auto fs = scan(
      "#include <map>\n"
      "constexpr int kSlots = 4;\n"
      "const std::map<int, int> kTable = {{1, 2}};\n"
      "const char* const kName = \"x\";\n"
      "int twice(int x);\n"
      "struct S {\n"
      "  S() : n_{0} {}\n"
      "  static constexpr int kMax = 8;\n"
      "  static S make() { return S{}; }\n"
      "  int n_;\n"
      "};\n"
      "int f() {\n"
      "  int local = 1;\n"
      "  static const std::map<int, int> kSteps = {{0, 1}};\n"
      "  auto g = [&](int x) { local += x; };\n"
      "  g(2);\n"
      "  return local + static_cast<int>(kSteps.size());\n"
      "}\n");
  EXPECT_TRUE(fs.empty());
}

TEST(SharedState, SkippedOutsideSrc) {
  const auto fs = scan("int g_counter = 0;\n", FileClass::kOther);
  EXPECT_TRUE(fs.empty());
}

// -------------------------------------------------- annotation machinery ----

TEST(Annotations, InlineAllowSuppresses) {
  const auto fs = scan(
      "int f() { return rand(); }  "
      "// detlint: allow(wall-clock) -- test of suppression\n");
  EXPECT_TRUE(fs.empty());
}

TEST(Annotations, StandaloneAllowTargetsNextCodeLine) {
  const auto fs = scan(
      "// detlint: allow(wall-clock) -- test of suppression\n"
      "// (a second comment line between annotation and code is fine)\n"
      "int f() { return rand(); }\n");
  EXPECT_TRUE(fs.empty());
}

TEST(Annotations, StaleAllowIsAFinding) {
  const auto fs = scan(
      "// detlint: allow(wall-clock) -- nothing below triggers it\n"
      "int f() { return 42; }\n");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, "stale-annotation");
  EXPECT_EQ(fs[0].line, 1);
}

TEST(Annotations, MissingJustificationDoesNotSuppress) {
  const auto fs = scan(
      "// detlint: allow(wall-clock)\n"
      "int f() { return rand(); }\n");
  const auto rules = rules_of(fs);
  EXPECT_NE(std::find(rules.begin(), rules.end(), "bad-annotation"),
            rules.end());
  EXPECT_NE(std::find(rules.begin(), rules.end(), "wall-clock"), rules.end());
}

TEST(Annotations, WrongRuleIdDoesNotSuppress) {
  const auto fs = scan(
      "int f() { return rand(); }  "
      "// detlint: allow(unordered-iter) -- wrong rule for this line\n");
  const auto rules = rules_of(fs);
  // The wall-clock finding survives and the misdirected allow is stale.
  EXPECT_NE(std::find(rules.begin(), rules.end(), "wall-clock"), rules.end());
  EXPECT_NE(std::find(rules.begin(), rules.end(), "stale-annotation"),
            rules.end());
}

TEST(Annotations, FindingsAreSortedByLine) {
  const auto fs = scan(
      "#include <chrono>\n"
      "long a() { return time(nullptr); }\n"
      "int b() { return rand(); }\n");
  ASSERT_EQ(fs.size(), 2u);
  EXPECT_LT(fs[0].line, fs[1].line);
}

}  // namespace
