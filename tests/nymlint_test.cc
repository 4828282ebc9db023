// nymlint's own suite: every rule firing, every suppression path, and the
// lexing traps (raw strings, comments, literals) that make a textual linter
// trustworthy. Fixtures are inline snippets handed to RunLint with a
// virtual path, so each case documents exactly which scope it exercises.
#include "tools/nymlint/analyzer.h"

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"

namespace nymlint {
namespace {

LintResult LintOne(const std::string& path, const std::string& content) {
  return RunLint({SourceFile{path, content}});
}

std::vector<std::string> RulesFired(const LintResult& result) {
  std::vector<std::string> rules;
  for (const Diagnostic& diag : result.diagnostics) {
    rules.push_back(diag.rule);
  }
  return rules;
}

bool Fired(const LintResult& result, const std::string& rule) {
  const std::vector<std::string> rules = RulesFired(result);
  return std::find(rules.begin(), rules.end(), rule) != rules.end();
}

// --- Lexer traps ----------------------------------------------------------

TEST(NymlintLexer, RawStringLiteralHidesBannedNames) {
  // The banned spelling lives inside a raw string: data, not code.
  LintResult result = LintOne("src/demo.cc", R"cc(
    const char* kDoc = R"(call std::rand() and srand(time(nullptr)) here)";
  )cc");
  EXPECT_TRUE(result.diagnostics.empty()) << RulesFired(result).size();
}

TEST(NymlintLexer, RawStringWithDelimiterHidesBannedNames) {
  LintResult result = LintOne("src/demo.cc",
                              "const char* kDoc = R\"xy(std::rand() )\" still inside )xy\";\n");
  EXPECT_TRUE(result.diagnostics.empty());
}

TEST(NymlintLexer, OrdinaryStringLiteralHidesBannedNames) {
  LintResult result = LintOne("src/demo.cc",
                              "const char* kMsg = \"getenv(\\\"HOME\\\") and throw\";\n");
  EXPECT_TRUE(result.diagnostics.empty());
}

TEST(NymlintLexer, CommentsAreNotCode) {
  LintResult result = LintOne("src/demo.cc", R"cc(
    // std::rand() in a line comment
    /* std::random_device in a block comment */
    int x = 0;
  )cc");
  EXPECT_TRUE(result.diagnostics.empty());
}

TEST(NymlintLexer, BlockCommentsDoNotNest) {
  // C++ block comments close at the FIRST "*/": the std::rand() call after
  // it is live code and must be flagged.
  LintResult result = LintOne("src/demo.cc", R"cc(
    /* outer /* looks nested */ int x = std::rand();
  )cc");
  EXPECT_TRUE(Fired(result, "determinism-rand"));
}

TEST(NymlintLexer, DigitSeparatorsAreNotCharLiterals) {
  // If 1'000'000 were mis-lexed, the quote would open a char literal and
  // swallow the std::rand() that follows.
  LintResult result = LintOne("src/demo.cc", R"cc(
    int rate = 1'000'000;
    int bad = std::rand();
  )cc");
  EXPECT_TRUE(Fired(result, "determinism-rand"));
}

TEST(NymlintLexer, IncludeHeaderNameIsNotAnIdentifier) {
  // <unordered_map> as an #include is reported as a banned include (with
  // the header spelled in the message), not as an identifier use.
  LintResult result = LintOne("src/demo.h", R"cc(#ifndef DEMO_H_
#define DEMO_H_
#include <unordered_map>
#endif
)cc");
  ASSERT_TRUE(Fired(result, "determinism-unordered-container"));
  EXPECT_NE(result.diagnostics[0].message.find("<unordered_map>"), std::string::npos);
}

// --- determinism-rand -----------------------------------------------------

TEST(NymlintRules, FlagsStdRand) {
  EXPECT_TRUE(Fired(LintOne("src/demo.cc", "int x = std::rand();\n"), "determinism-rand"));
  EXPECT_TRUE(Fired(LintOne("bench/demo.cc", "int x = rand();\n"), "determinism-rand"));
  EXPECT_TRUE(Fired(LintOne("tests/demo.cc", "std::random_device rd;\n"), "determinism-rand"));
}

TEST(NymlintRules, FlagsRandomHeaderInclude) {
  EXPECT_TRUE(Fired(LintOne("src/demo.cc", "#include <random>\n"), "determinism-rand"));
}

TEST(NymlintRules, IgnoresRandInForeignNamespace) {
  EXPECT_FALSE(Fired(LintOne("src/demo.cc", "int x = mylib::rand();\n"), "determinism-rand"));
  EXPECT_FALSE(Fired(LintOne("src/demo.cc", "int x = obj.rand();\n"), "determinism-rand"));
}

// --- determinism-wallclock ------------------------------------------------

TEST(NymlintRules, FlagsWallClocks) {
  EXPECT_TRUE(Fired(LintOne("src/demo.cc", "auto t = std::chrono::steady_clock::now();\n"),
                    "determinism-wallclock"));
  EXPECT_TRUE(Fired(LintOne("src/demo.cc", "auto t = time(nullptr);\n"),
                    "determinism-wallclock"));
}

TEST(NymlintRules, ClockAccessorDeclarationIsNotACall) {
  // `SimClock& clock()` declares an accessor; `loop.clock()` calls it.
  // Neither reads the host clock.
  LintResult result = LintOne("src/demo.h", R"cc(#ifndef DEMO_H_
#define DEMO_H_
class EventLoop {
 public:
  SimClock& clock() { return clock_; }
};
inline SimTime Now(EventLoop& loop) { return loop.clock().now(); }
#endif
)cc");
  EXPECT_FALSE(Fired(result, "determinism-wallclock"));
}

TEST(NymlintRules, WallclockRuleDoesNotApplyToTests) {
  EXPECT_FALSE(Fired(LintOne("tests/demo.cc", "auto t = std::chrono::steady_clock::now();\n"),
                     "determinism-wallclock"));
}

// --- determinism-env ------------------------------------------------------

TEST(NymlintRules, FlagsGetenvEverywhere) {
  EXPECT_TRUE(Fired(LintOne("src/demo.cc", "const char* home = getenv(\"HOME\");\n"),
                    "determinism-env"));
  EXPECT_TRUE(Fired(LintOne("tools/demo.cc", "const char* home = std::getenv(\"HOME\");\n"),
                    "determinism-env"));
}

// --- determinism-unordered-container --------------------------------------

TEST(NymlintRules, FlagsUnorderedContainersOnlyInSrc) {
  EXPECT_TRUE(Fired(LintOne("src/demo.cc", "std::unordered_map<int, int> m;\n"),
                    "determinism-unordered-container"));
  EXPECT_FALSE(Fired(LintOne("tests/demo.cc", "std::unordered_map<int, int> m;\n"),
                     "determinism-unordered-container"));
}

// --- determinism-pointer-key ----------------------------------------------

TEST(NymlintRules, FlagsPointerKeyedMap) {
  EXPECT_TRUE(Fired(LintOne("src/demo.cc", "std::map<Link*, bool> links;\n"),
                    "determinism-pointer-key"));
  EXPECT_TRUE(Fired(LintOne("src/demo.cc", "std::set<Node*> nodes;\n"),
                    "determinism-pointer-key"));
}

TEST(NymlintRules, FlagsPointerBuriedInTupleKey) {
  EXPECT_TRUE(
      Fired(LintOne("src/demo.cc", "std::map<std::tuple<Link*, Port>, Port> m;\n"),
            "determinism-pointer-key"));
}

TEST(NymlintRules, ExplicitComparatorClearsPointerKey) {
  EXPECT_FALSE(Fired(LintOne("src/demo.cc", "std::map<Link*, bool, LinkIdLess> links;\n"),
                     "determinism-pointer-key"));
}

TEST(NymlintRules, PointerValueIsFine) {
  EXPECT_FALSE(Fired(LintOne("src/demo.cc", "std::map<std::string, Link*> by_name;\n"),
                     "determinism-pointer-key"));
}

TEST(NymlintRules, DirtyTrackingStateShapePassesClean) {
  // The incremental FlowScheduler's dirty-tracking state (src/net/flow.h):
  // pointer-keyed containers with the stable-id comparator, plus an id-set.
  // This is the sanctioned shape for membership indexes over Link*; the
  // fixture pins that the linter keeps accepting it (and keeps rejecting
  // the comparator-free spelling someone will eventually "simplify" it to).
  const std::string sanctioned =
      "std::map<Link*, LinkState, LinkIdLess> link_states_;\n"
      "std::set<Link*, LinkIdLess> dirty_links_;\n"
      "std::map<uint64_t, TrackedMemory> tracked_;\n";
  EXPECT_TRUE(LintOne("src/net/flow.cc", sanctioned).diagnostics.empty());
  EXPECT_TRUE(Fired(LintOne("src/net/flow.cc", "std::set<Link*> dirty_links_;\n"),
                    "determinism-pointer-key"));
  EXPECT_TRUE(
      Fired(LintOne("src/net/flow.cc", "std::unordered_set<Link*> dirty_links_;\n"),
            "determinism-unordered-container"));
}

// --- sim-thread / thread-confinement --------------------------------------

TEST(NymlintRules, FlagsThreadingPrimitivesInBench) {
  EXPECT_TRUE(Fired(LintOne("bench/demo.cc", "std::thread worker([] {});\n"), "sim-thread"));
  EXPECT_TRUE(Fired(LintOne("bench/demo.cc", "std::mutex mu;\n"), "sim-thread"));
  EXPECT_TRUE(
      Fired(LintOne("bench/demo.cc", "std::this_thread::sleep_for(delay);\n"), "sim-thread"));
  EXPECT_TRUE(Fired(LintOne("bench/demo.cc", "#include <mutex>\n"), "sim-thread"));
}

TEST(NymlintRules, ThreadConfinementFlagsSrcAndTests) {
  // src/ and tests/ are covered by thread-confinement, not sim-thread.
  EXPECT_TRUE(
      Fired(LintOne("src/demo.cc", "std::thread worker([] {});\n"), "thread-confinement"));
  EXPECT_FALSE(Fired(LintOne("src/demo.cc", "std::thread worker([] {});\n"), "sim-thread"));
  EXPECT_TRUE(Fired(LintOne("src/net/demo.cc", "std::mutex mu;\n"), "thread-confinement"));
  EXPECT_TRUE(Fired(LintOne("tests/demo_test.cc", "std::atomic<int> n{0};\n"),
                    "thread-confinement"));
  EXPECT_TRUE(
      Fired(LintOne("src/demo.cc", "#include <atomic>\n"), "thread-confinement"));
  EXPECT_TRUE(Fired(LintOne("src/demo.cc", "unsigned n = hardware_concurrency();\n"),
                    "thread-confinement"));
}

TEST(NymlintRules, ThreadConfinementExemptsParallelAndUtil) {
  // The two sanctioned homes of real concurrency lint clean by path.
  EXPECT_FALSE(Fired(LintOne("src/parallel/demo.cc", "std::thread worker([] {});\n"),
                     "thread-confinement"));
  EXPECT_FALSE(Fired(LintOne("src/parallel/demo.cc", "#include <mutex>\n"),
                     "thread-confinement"));
  EXPECT_FALSE(Fired(LintOne("src/util/thread_pool.cc", "std::condition_variable cv;\n"),
                     "thread-confinement"));
  // A lookalike prefix must NOT inherit the exemption.
  EXPECT_TRUE(Fired(LintOne("src/parallel_widgets/demo.cc", "std::mutex mu;\n"),
                    "thread-confinement"));
}

TEST(NymlintRules, ThreadWordInOtherIdentifiersIsFine) {
  // Substrings must not match: AddAsyncBegin is not `async`.
  EXPECT_FALSE(Fired(LintOne("src/demo.cc", "tracer->AddAsyncBegin(\"net\", name, id, ts);\n"),
                     "thread-confinement"));
  EXPECT_FALSE(Fired(LintOne("src/demo.cc", "int thread_count = 0;\n"), "thread-confinement"));
  // ThreadPool's own API surface is fine to *use* anywhere.
  EXPECT_FALSE(Fired(LintOne("src/demo.cc", "int n = ThreadPool::HardwareThreads();\n"),
                     "thread-confinement"));
}

// --- store-raw-io ---------------------------------------------------------

TEST(NymlintRules, FlagsRawFileIoOutsideStore) {
  EXPECT_TRUE(Fired(LintOne("src/obs/demo.cc", "std::ofstream out(path);\n"), "store-raw-io"));
  EXPECT_TRUE(Fired(LintOne("src/net/demo.cc", "#include <fstream>\n"), "store-raw-io"));
  EXPECT_TRUE(
      Fired(LintOne("src/core/demo.cc", "FILE* fh = fopen(path, \"rb\");\n"), "store-raw-io"));
  EXPECT_TRUE(Fired(LintOne("tests/demo_test.cc", "std::ifstream in(path);\n"), "store-raw-io"));
}

TEST(NymlintRules, StoreAndStorageOwnRawFileIo) {
  // The sanctioned persistence layer lints clean by path...
  EXPECT_FALSE(Fired(LintOne("src/store/file_io.cc",
                             "std::ifstream in(path, std::ios::binary);\n"),
                     "store-raw-io"));
  EXPECT_FALSE(Fired(LintOne("src/storage/local_store.cc", "#include <fstream>\n"),
                     "store-raw-io"));
  // ...but a lookalike directory prefix does not inherit the exemption.
  EXPECT_TRUE(
      Fired(LintOne("src/storefront/demo.cc", "std::ofstream out(path);\n"), "store-raw-io"));
}

TEST(NymlintRules, RawIoExemptsBenchAndToolsByScope) {
  // bench/ and tools/ are leaf consumers writing reports, not simulator
  // state; the rule's scope mask leaves them alone.
  EXPECT_FALSE(Fired(LintOne("bench/demo.cc", "std::ofstream out(path);\n"), "store-raw-io"));
  EXPECT_FALSE(
      Fired(LintOne("tools/demo.cc", "FILE* fh = fopen(path, \"rb\");\n"), "store-raw-io"));
}

TEST(NymlintRules, RawIoLookalikesAreFine) {
  // Identifiers that merely contain the banned names must not match.
  EXPECT_FALSE(Fired(LintOne("src/demo.cc", "int file_count = fopen_count;\n"), "store-raw-io"));
  EXPECT_FALSE(Fired(LintOne("src/demo.cc", "Status WriteFile(const std::string& path);\n"),
                     "store-raw-io"));
  // file_io.h's own API is fine to use anywhere — that is the point.
  EXPECT_FALSE(Fired(LintOne("src/demo.cc", "auto data = ReadFileBytes(path);\n"),
                     "store-raw-io"));
}

TEST(NymlintSuppress, StoreRawIoAllowIsHonored) {
  LintResult result = LintOne("src/obs/demo.cc",
                              "// nymlint:allow(store-raw-io): golden corpus writer\n"
                              "std::ofstream out(path);\n");
  EXPECT_FALSE(Fired(result, "store-raw-io"));
  EXPECT_FALSE(Fired(result, "suppression-unused"));
}

// --- error-throw ----------------------------------------------------------

TEST(NymlintRules, FlagsThrowAndAbort) {
  EXPECT_TRUE(Fired(LintOne("src/demo.cc", "void F() { throw 1; }\n"), "error-throw"));
  EXPECT_TRUE(Fired(LintOne("src/demo.cc", "void F() { std::abort(); }\n"), "error-throw"));
}

TEST(NymlintRules, CheckHeaderMayAbort) {
  EXPECT_FALSE(Fired(LintOne("src/util/check.h", R"cc(#ifndef CHECK_H_
#define CHECK_H_
#define MY_CHECK(c) do { if (!(c)) std::abort(); } while (0)
#endif
)cc"),
                     "error-throw"));
}

// --- error-ignored-status -------------------------------------------------

constexpr const char* kStatusApiHeader = R"cc(#ifndef API_H_
#define API_H_
Status WriteThing(int x);
#endif
)cc";

TEST(NymlintRules, FlagsDiscardedStatusCall) {
  LintResult result = RunLint({
      SourceFile{"src/api.h", kStatusApiHeader},
      SourceFile{"src/use.cc", "void F() { WriteThing(1); }\n"},
  });
  ASSERT_TRUE(Fired(result, "error-ignored-status"));
  EXPECT_EQ(result.diagnostics[0].path, "src/use.cc");
}

TEST(NymlintRules, FlagsDiscardedMemberStatusCall) {
  LintResult result = RunLint({
      SourceFile{"src/api.h", kStatusApiHeader},
      SourceFile{"src/use.cc", "void F(Api& api) { api.WriteThing(1); }\n"},
  });
  EXPECT_TRUE(Fired(result, "error-ignored-status"));
}

TEST(NymlintRules, HandledStatusIsFine) {
  LintResult result = RunLint({
      SourceFile{"src/api.h", kStatusApiHeader},
      SourceFile{"src/use.cc", R"cc(
Status F() {
  Status s = WriteThing(1);
  if (!s.ok()) { return s; }
  NYMIX_RETURN_IF_ERROR(WriteThing(2));
  (void)WriteThing(3);
  return WriteThing(4);
}
)cc"},
  });
  EXPECT_FALSE(Fired(result, "error-ignored-status"));
}

TEST(NymlintRules, DeclarationIsNotACall) {
  LintResult result = RunLint({SourceFile{"src/api.h", kStatusApiHeader}});
  EXPECT_FALSE(Fired(result, "error-ignored-status"));
}

// --- include hygiene ------------------------------------------------------

TEST(NymlintRules, FlagsMissingIncludeGuard) {
  EXPECT_TRUE(Fired(LintOne("src/demo.h", "int x = 0;\n"), "include-guard"));
  EXPECT_TRUE(Fired(LintOne("src/demo.h", "#include <string>\nint x;\n"), "include-guard"));
  EXPECT_TRUE(Fired(LintOne("src/demo.h", "#ifndef A_H_\nint x;\n#endif\n"), "include-guard"));
}

TEST(NymlintRules, AcceptsBothGuardStyles) {
  EXPECT_FALSE(Fired(LintOne("src/demo.h", "#ifndef D_H_\n#define D_H_\n#endif  // D_H_\n"),
                     "include-guard"));
  EXPECT_FALSE(Fired(LintOne("src/demo.h", "#pragma once\nint x = 0;\n"), "include-guard"));
  // Leading comments before the guard are fine.
  EXPECT_FALSE(Fired(LintOne("src/demo.h", "// Doc.\n#ifndef D_H_\n#define D_H_\n#endif\n"),
                     "include-guard"));
}

TEST(NymlintRules, GuardRuleIgnoresSourceFiles) {
  EXPECT_FALSE(Fired(LintOne("src/demo.cc", "int x = 0;\n"), "include-guard"));
}

TEST(NymlintRules, FlagsUsingNamespaceInHeaderOnly) {
  EXPECT_TRUE(Fired(LintOne("src/demo.h",
                            "#pragma once\nusing namespace std;\n"),
                    "using-namespace-header"));
  EXPECT_FALSE(Fired(LintOne("src/demo.cc", "using namespace std;\n"),
                     "using-namespace-header"));
}

// --- fuzz-entropy ----------------------------------------------------------

TEST(NymlintRules, FlagsAmbientSeedOutsideFuzzEntropy) {
  // The sanctioned escape hatch used anywhere else makes a run unreplayable.
  EXPECT_TRUE(Fired(LintOne("src/core/demo.cc", "uint64_t s = AmbientSeed();\n"),
                    "fuzz-entropy"));
  EXPECT_TRUE(Fired(LintOne("tests/demo.cc", "uint64_t s = nymix::AmbientSeed();\n"),
                    "fuzz-entropy"));
  EXPECT_TRUE(Fired(LintOne("src/fuzz/generator.cc", "uint64_t s = AmbientSeed();\n"),
                    "fuzz-entropy"));
}

TEST(NymlintRules, AmbientSeedAllowedInEntropyAndTools) {
  // Its own definition and the nymfuzz --seed=random path, which prints the
  // chosen seed so the run still replays.
  EXPECT_FALSE(Fired(LintOne("src/fuzz/entropy.cc", "uint64_t s = AmbientSeed();\n"),
                     "fuzz-entropy"));
  EXPECT_FALSE(Fired(LintOne("tools/nymfuzz.cc", "uint64_t s = nymix::AmbientSeed();\n"),
                     "fuzz-entropy"));
}

TEST(NymlintRules, AmbientSeedLookalikesAreFine) {
  // Member calls and declarations are not ambient reads.
  EXPECT_FALSE(Fired(LintOne("src/core/demo.cc", "uint64_t s = source.AmbientSeed();\n"),
                     "fuzz-entropy"));
  EXPECT_FALSE(Fired(LintOne("src/core/demo.h",
                             "#pragma once\nuint64_t AmbientSeed();\n"),
                     "fuzz-entropy"));
}

// --- suppressions ---------------------------------------------------------

TEST(NymlintSuppress, TrailingAllowSuppresses) {
  LintResult result = LintOne(
      "src/demo.cc",
      "int x = std::rand();  // nymlint:allow(determinism-rand): fixture exercising the rule\n");
  EXPECT_TRUE(result.diagnostics.empty());
  EXPECT_EQ(result.suppressions_used, 1u);
}

TEST(NymlintSuppress, PrecedingLineAllowSuppresses) {
  LintResult result = LintOne("src/demo.cc", R"cc(
// nymlint:allow(determinism-rand): fixture exercising the rule
int x = std::rand();
)cc");
  EXPECT_TRUE(result.diagnostics.empty());
}

TEST(NymlintSuppress, FileLevelAllowSuppressesEverywhere) {
  LintResult result = LintOne("src/demo.cc", R"cc(
// nymlint:allow-file(determinism-rand): fixture; the whole file draws lots
int a = std::rand();
int b = std::rand();
int c = std::rand();
)cc");
  EXPECT_TRUE(result.diagnostics.empty());
  EXPECT_EQ(result.suppressions_used, 3u);
}

TEST(NymlintSuppress, AllowListCoversMultipleRules) {
  LintResult result = LintOne(
      "src/demo.cc",
      "int x = std::rand() + time(nullptr);  "
      "// nymlint:allow(determinism-rand, determinism-wallclock): fixture for the comma list\n");
  EXPECT_TRUE(result.diagnostics.empty());
}

TEST(NymlintSuppress, ReasonIsMandatory) {
  LintResult result =
      LintOne("src/demo.cc", "int x = std::rand();  // nymlint:allow(determinism-rand)\n");
  EXPECT_TRUE(Fired(result, "suppression-missing-reason"));
  // The violation itself is still suppressed; only the hygiene failure fires.
  EXPECT_FALSE(Fired(result, "determinism-rand"));
}

TEST(NymlintSuppress, UnknownRuleIsReported) {
  LintResult result = LintOne(
      "src/demo.cc", "int x = 0;  // nymlint:allow(no-such-rule): reason that is long enough\n");
  EXPECT_TRUE(Fired(result, "suppression-unknown-rule"));
}

TEST(NymlintSuppress, UnusedSuppressionIsReported) {
  LintResult result = LintOne(
      "src/demo.cc", "int x = 0;  // nymlint:allow(determinism-rand): nothing random here\n");
  EXPECT_TRUE(Fired(result, "suppression-unused"));
}

TEST(NymlintSuppress, SuppressionDoesNotLeakToDistantLines) {
  LintResult result = LintOne("src/demo.cc", R"cc(
int a = std::rand();  // nymlint:allow(determinism-rand): this draw is fixture data
int unrelated = 0;
int b = std::rand();
)cc");
  EXPECT_TRUE(Fired(result, "determinism-rand"));
  EXPECT_EQ(result.suppressions_used, 1u);
}

TEST(NymlintSuppress, ProseMentionIsNotASuppression) {
  // A comment *describing* the marker (text before it on the line) must not
  // suppress anything or count as a suppression at all.
  LintResult result = LintOne(
      "src/demo.cc",
      "// to silence, write nymlint:allow(determinism-rand): and a reason\nint x = std::rand();\n");
  EXPECT_TRUE(Fired(result, "determinism-rand"));
}

// --- scopes and reports ---------------------------------------------------

TEST(NymlintDriver, FilesOutsideKnownRootsAreSkipped) {
  LintResult result = LintOne("third_party/demo.cc", "int x = std::rand();\n");
  EXPECT_TRUE(result.diagnostics.empty());
  EXPECT_EQ(result.files_scanned, 0u);
}

TEST(NymlintDriver, DiagnosticsAreSortedAndAnchored) {
  LintResult result = LintOne("src/demo.cc", "int a = std::rand();\nint b = std::rand();\n");
  ASSERT_EQ(result.diagnostics.size(), 2u);
  EXPECT_EQ(result.diagnostics[0].line, 1);
  EXPECT_EQ(result.diagnostics[1].line, 2);
  EXPECT_GT(result.diagnostics[0].col, 0);
}

TEST(NymlintDriver, JsonReportIsWellFormed) {
  LintResult result = LintOne("src/demo.cc", "int a = std::rand();\n");
  std::ostringstream out;
  WriteJsonReport(result, out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"violation_count\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"rule\": \"determinism-rand\""), std::string::npos);
  EXPECT_NE(json.find("\"path\": \"src/demo.cc\""), std::string::npos);
}

TEST(NymlintDriver, HumanReportNamesFileLineAndRule) {
  LintResult result = LintOne("src/demo.cc", "int a = std::rand();\n");
  std::ostringstream out;
  WriteHumanReport(result, out);
  EXPECT_NE(out.str().find("src/demo.cc:1:"), std::string::npos);
  EXPECT_NE(out.str().find("[determinism-rand]"), std::string::npos);
}

TEST(NymlintDriver, EveryRuleNameIsKnown) {
  for (const RuleInfo& rule : AllRules()) {
    EXPECT_TRUE(IsKnownRule(rule.name));
  }
  EXPECT_FALSE(IsKnownRule("not-a-rule"));
}

// --- dead-api (flow stage) -------------------------------------------------

constexpr char kApi[] = R"cc(namespace nymix {
int Used() { return 1; }
int TestOnly() { return 2; }
}  // namespace nymix
)cc";
constexpr char kEntryPoint[] = "int main() { return nymix::Used(); }\n";
constexpr char kTestCaller[] = "int Probe() { return nymix::TestOnly(); }\n";

// The flow stage with an empty identity registry: dead-api is the only
// flow rule with anything to say.
LintResult FlowLint(const std::vector<SourceFile>& files) {
  FlowOptions flow;
  flow.enabled = true;
  flow.registry_path = "tools/nymlint/identity_registry.txt";
  return RunLint(files, flow);
}

TEST(NymlintDeadApi, FunctionOnlyTestsReachIsFlagged) {
  LintResult result = FlowLint({SourceFile{"src/api.cc", kApi},
                                SourceFile{"bench/main.cc", kEntryPoint},
                                SourceFile{"tests/api_test.cc", kTestCaller}});
  ASSERT_EQ(result.diagnostics.size(), 1u) << RulesFired(result).size();
  EXPECT_EQ(result.diagnostics[0].rule, "dead-api");
  EXPECT_EQ(result.diagnostics[0].path, "src/api.cc");
  EXPECT_EQ(result.diagnostics[0].line, 3);
  EXPECT_NE(result.diagnostics[0].message.find("'TestOnly'"), std::string::npos);

  // A subtree run reads no entry point, so it judges nothing dead.
  LintResult subtree = FlowLint({SourceFile{"src/api.cc", kApi}});
  EXPECT_FALSE(Fired(subtree, "dead-api"));
}

TEST(NymlintDeadApi, BenchOrNymbenchReferenceClearsIt) {
  LintResult from_bench = FlowLint({SourceFile{"src/api.cc", kApi},
                                    SourceFile{"bench/main.cc", kEntryPoint},
                                    SourceFile{"bench/probe.cc", kTestCaller}});
  EXPECT_TRUE(from_bench.diagnostics.empty()) << RulesFired(from_bench).size();

  // nymbench/ counts as a reference root but is never linted: its rand()
  // raises nothing.
  LintResult from_nymbench = FlowLint(
      {SourceFile{"src/api.cc", kApi}, SourceFile{"bench/main.cc", kEntryPoint},
       SourceFile{"nymbench/nymbench.cc",
                  std::string(kTestCaller) + "int Noise() { return std::rand(); }\n"}});
  EXPECT_TRUE(from_nymbench.diagnostics.empty()) << RulesFired(from_nymbench).size();
  EXPECT_EQ(from_nymbench.files_scanned, 2u);
}

TEST(NymlintDeadApi, SameNamedMemberInAnotherClassKeepsIt) {
  LintResult result = FlowLint({SourceFile{"src/api.h", R"cc(namespace nymix {
class Meter {
 public:
  int Reset() { return 0; }
};
class Gauge {
 public:
  int Reset();
};
}  // namespace nymix
)cc"},
                                SourceFile{"src/api.cc", "int nymix::Gauge::Reset() { return 1; }\n"},
                                SourceFile{"bench/main.cc", "int main() { return 0; }\n"}});
  EXPECT_FALSE(Fired(result, "dead-api"));
}

TEST(NymlintDeadApi, AllowWithReasonSuppresses) {
  LintResult result = FlowLint({SourceFile{"src/api.cc", R"cc(namespace nymix {
int Used() { return 1; }
// nymlint:allow(dead-api): test hook, tests read it to check the count
int TestOnly() { return 2; }
}  // namespace nymix
)cc"},
                                SourceFile{"bench/main.cc", kEntryPoint}});
  EXPECT_TRUE(result.diagnostics.empty()) << RulesFired(result).size();
  EXPECT_EQ(result.suppressions_used, 1u);
}

TEST(NymlintDeadApi, AllowWithoutReasonIsReported) {
  LintResult result = FlowLint({SourceFile{"src/api.cc", R"cc(namespace nymix {
int Used() { return 1; }
// nymlint:allow(dead-api)
int TestOnly() { return 2; }
}  // namespace nymix
)cc"},
                                SourceFile{"bench/main.cc", kEntryPoint}});
  EXPECT_TRUE(Fired(result, "suppression-missing-reason"));
}

TEST(NymlintDeadApi, AllowOnFunctionWithACallerIsUnused) {
  LintResult result = FlowLint({SourceFile{"src/api.cc", R"cc(namespace nymix {
int Used() { return 1; }
// nymlint:allow(dead-api): test hook, tests read it to check the count
int TestOnly() { return 2; }
}  // namespace nymix
)cc"},
                                SourceFile{"bench/main.cc", kEntryPoint},
                                SourceFile{"tools/probe.cc", kTestCaller}});
  EXPECT_TRUE(Fired(result, "suppression-unused"));
  EXPECT_FALSE(Fired(result, "dead-api"));
}

}  // namespace
}  // namespace nymlint
