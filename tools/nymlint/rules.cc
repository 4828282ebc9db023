#include "tools/nymlint/rules.h"

#include <array>
#include <cctype>

namespace nymlint {
namespace {

const std::vector<Token>& T(const FileContext& file) { return file.tokens; }

std::string TokText(const FileContext& file, size_t i) {
  return i < T(file).size() ? T(file)[i].text : std::string();
}

bool IsIdent(const FileContext& file, size_t i) {
  return i < T(file).size() && T(file)[i].kind == TokenKind::kIdentifier;
}

// True when token i is qualified as `std::X` or `std::chrono::X` (or is
// unqualified / globally qualified). Used to skip `other_ns::rand`.
bool QualifierAllowsMatch(const FileContext& file, size_t i) {
  if (i == 0 || TokText(file, i - 1) != "::") {
    return true;  // unqualified
  }
  if (i == 1 || !IsIdent(file, i - 2)) {
    return true;  // `::rand` — global namespace
  }
  const std::string& ns = T(file)[i - 2].text;
  if (ns == "std") {
    return true;
  }
  if (ns == "chrono" && i >= 4 && TokText(file, i - 3) == "::" && TokText(file, i - 4) == "std") {
    return true;
  }
  return false;
}

bool IsStdQualified(const FileContext& file, size_t i) {
  return i >= 2 && TokText(file, i - 1) == "::" && TokText(file, i - 2) == "std";
}

// Token i names a function being called: `name(` not behind `.`/`->`, and
// not in a foreign namespace.
bool IsCallPosition(const FileContext& file, size_t i) {
  if (TokText(file, i + 1) != "(") {
    return false;
  }
  std::string prev = i > 0 ? TokText(file, i - 1) : std::string();
  if (prev == "." || prev == "->") {
    return false;
  }
  return QualifierAllowsMatch(file, i);
}

template <size_t N>
bool InSet(const std::string& text, const std::array<const char*, N>& set) {
  for (const char* entry : set) {
    if (text == entry) {
      return true;
    }
  }
  return false;
}

// Stricter variant for bannable functions whose names are everyday words
// (`time`, `clock`): the token must sit where only a *call* can — after a
// statement boundary, an operator, or a qualifier — so declarations like
// `SimClock& clock()` never match.
bool IsStrictCallPosition(const FileContext& file, size_t i) {
  if (!IsCallPosition(file, i)) {
    return false;
  }
  if (i == 0) {
    return true;
  }
  static constexpr std::array<const char*, 18> kCallContexts = {
      ";", "{", "}", "(", ")", ",", "=", "return", "::", "<",
      ">", "+", "-", "/", "%", "!", "?", ":"};
  return InSet(TokText(file, i - 1), kCallContexts);
}

void Report(const FileContext& file, size_t i, const char* rule, std::string message,
            std::vector<Diagnostic>& out) {
  out.push_back(Diagnostic{file.path, T(file)[i].line, T(file)[i].col, rule, std::move(message)});
}

// Flags `#include <header>` tokens matching a banned set.
template <size_t N>
void CheckBannedIncludes(const FileContext& file, const char* rule,
                         const std::array<const char*, N>& headers, const char* why,
                         std::vector<Diagnostic>& out) {
  for (size_t i = 0; i + 1 < T(file).size(); ++i) {
    if (T(file)[i].kind == TokenKind::kDirective && T(file)[i].text == "#include" &&
        T(file)[i + 1].kind == TokenKind::kString && InSet(T(file)[i + 1].text, headers)) {
      Report(file, i + 1, rule, "banned include " + T(file)[i + 1].text + ": " + why, out);
    }
  }
}

// --- determinism-rand -----------------------------------------------------

constexpr std::array<const char*, 11> kRandTypes = {
    "random_device", "mt19937",      "mt19937_64",     "minstd_rand",
    "minstd_rand0",  "knuth_b",      "ranlux24",       "ranlux48",
    "ranlux24_base", "ranlux48_base", "default_random_engine"};
constexpr std::array<const char*, 9> kRandCalls = {
    "rand", "srand", "rand_r", "drand48", "srand48", "lrand48", "mrand48", "random",
    "random_shuffle"};
constexpr std::array<const char*, 1> kRandIncludes = {"<random>"};

void RuleDeterminismRand(const FileContext& file, std::vector<Diagnostic>& out) {
  static const char* kRule = "determinism-rand";
  CheckBannedIncludes(file, kRule, kRandIncludes,
                      "all randomness must flow from an explicitly seeded nymix::Prng", out);
  for (size_t i = 0; i < T(file).size(); ++i) {
    if (!IsIdent(file, i)) {
      continue;
    }
    const std::string& text = T(file)[i].text;
    if (InSet(text, kRandTypes) && QualifierAllowsMatch(file, i)) {
      Report(file, i, kRule,
             "'" + text + "' is unseeded or machine-dependent randomness; use nymix::Prng "
             "(src/util/prng.h) so runs reproduce bit-for-bit",
             out);
    } else if (InSet(text, kRandCalls) && IsCallPosition(file, i)) {
      Report(file, i, kRule,
             "'" + text + "()' draws from hidden global state; use nymix::Prng "
             "(src/util/prng.h) so runs reproduce bit-for-bit",
             out);
    }
  }
}

// --- determinism-wallclock ------------------------------------------------

constexpr std::array<const char*, 17> kWallclockNames = {
    "system_clock", "steady_clock", "high_resolution_clock", "file_clock", "utc_clock",
    "tai_clock",    "gps_clock",    "gettimeofday",          "clock_gettime",
    "timespec_get", "localtime",    "localtime_r",           "gmtime",
    "gmtime_r",     "mktime",       "ftime",                 "asctime"};
constexpr std::array<const char*, 2> kWallclockCalls = {"time", "clock"};
constexpr std::array<const char*, 4> kWallclockIncludes = {"<ctime>", "<time.h>", "<sys/time.h>",
                                                           "<sys/timeb.h>"};

void RuleDeterminismWallclock(const FileContext& file, std::vector<Diagnostic>& out) {
  static const char* kRule = "determinism-wallclock";
  CheckBannedIncludes(file, kRule, kWallclockIncludes,
                      "simulation timing must go through SimClock/EventLoop virtual time", out);
  for (size_t i = 0; i < T(file).size(); ++i) {
    if (!IsIdent(file, i)) {
      continue;
    }
    const std::string& text = T(file)[i].text;
    if (InSet(text, kWallclockNames) && QualifierAllowsMatch(file, i)) {
      Report(file, i, kRule,
             "'" + text + "' reads the host's wall clock; simulation time must come from "
             "SimClock (src/util/sim_clock.h) so results do not depend on the machine",
             out);
    } else if (InSet(text, kWallclockCalls) && IsStrictCallPosition(file, i)) {
      Report(file, i, kRule,
             "'" + text + "()' reads the host's wall clock; simulation time must come from "
             "SimClock (src/util/sim_clock.h) so results do not depend on the machine",
             out);
    }
  }
}

// --- determinism-env ------------------------------------------------------

constexpr std::array<const char*, 5> kEnvCalls = {"getenv", "secure_getenv", "setenv", "putenv",
                                                  "unsetenv"};

void RuleDeterminismEnv(const FileContext& file, std::vector<Diagnostic>& out) {
  static const char* kRule = "determinism-env";
  for (size_t i = 0; i < T(file).size(); ++i) {
    if (IsIdent(file, i) && InSet(T(file)[i].text, kEnvCalls) && IsCallPosition(file, i)) {
      Report(file, i, kRule,
             "'" + T(file)[i].text + "()' makes behavior depend on ambient environment "
             "variables; pass configuration explicitly (flags or constructor arguments)",
             out);
    }
  }
}

// --- determinism-unordered-container --------------------------------------

constexpr std::array<const char*, 4> kUnorderedNames = {"unordered_map", "unordered_set",
                                                        "unordered_multimap",
                                                        "unordered_multiset"};
constexpr std::array<const char*, 2> kUnorderedIncludes = {"<unordered_map>", "<unordered_set>"};

void RuleDeterminismUnordered(const FileContext& file, std::vector<Diagnostic>& out) {
  static const char* kRule = "determinism-unordered-container";
  CheckBannedIncludes(file, kRule, kUnorderedIncludes,
                      "hash-table iteration order can leak into outputs; use std::map/std::set",
                      out);
  for (size_t i = 0; i < T(file).size(); ++i) {
    if (IsIdent(file, i) && InSet(T(file)[i].text, kUnorderedNames) &&
        QualifierAllowsMatch(file, i)) {
      Report(file, i, kRule,
             "'" + T(file)[i].text + "' iteration order depends on hashing and allocation; "
             "use std::map/std::set (or prove order never escapes and suppress with a reason)",
             out);
    }
  }
}

// --- determinism-pointer-key ----------------------------------------------

constexpr std::array<const char*, 4> kOrderedAssoc = {"map", "set", "multimap", "multiset"};

// `std::map<T*, V>` / `std::set<T*>` with the default comparator order by
// allocation address. A custom comparator (third/second template argument)
// is the sanctioned fix, so its presence clears the flag.
void RuleDeterminismPointerKey(const FileContext& file, std::vector<Diagnostic>& out) {
  static const char* kRule = "determinism-pointer-key";
  for (size_t i = 0; i + 1 < T(file).size(); ++i) {
    if (!IsIdent(file, i) || !InSet(T(file)[i].text, kOrderedAssoc) || !IsStdQualified(file, i) ||
        TokText(file, i + 1) != "<") {
      continue;
    }
    bool is_map = T(file)[i].text == "map" || T(file)[i].text == "multimap";
    int depth = 1;
    size_t arg_count = 1;
    bool first_arg_has_pointer = false;
    bool parsed = false;
    for (size_t j = i + 2; j < T(file).size() && j < i + 120; ++j) {
      const std::string& text = T(file)[j].text;
      if (text == "<") {
        ++depth;
      } else if (text == ">") {
        if (--depth == 0) {
          parsed = true;
          break;
        }
      } else if (text == "(" || text == "[") {
        ++depth;  // parenthesized expressions inside args (rare)
      } else if (text == ")" || text == "]") {
        --depth;
      } else if (text == "," && depth == 1) {
        ++arg_count;
      } else if (text == "*" && arg_count == 1) {
        // Any depth: a pointer buried in a tuple/pair key still makes the
        // default comparator order by address.
        first_arg_has_pointer = true;
      } else if (text == ";" || text == "{") {
        break;  // malformed / operator< expression, not a template-id
      }
    }
    size_t max_default_args = is_map ? 2 : 1;
    if (parsed && first_arg_has_pointer && arg_count <= max_default_args) {
      Report(file, i, kRule,
             "pointer-keyed std::" + T(file)[i].text +
                 " orders by allocation address, which varies run to run; key by a stable id "
                 "or pass an explicit comparator (e.g. LinkIdLess in src/net/link.h)",
             out);
    }
  }
}

// --- sim-thread -----------------------------------------------------------

constexpr std::array<const char*, 24> kThreadStdNames = {
    "thread",        "jthread",         "mutex",
    "recursive_mutex", "timed_mutex",   "recursive_timed_mutex",
    "shared_mutex",  "shared_timed_mutex", "condition_variable",
    "condition_variable_any", "future", "shared_future",
    "promise",       "packaged_task",   "async",
    "atomic",        "atomic_flag",     "atomic_ref",
    "counting_semaphore", "binary_semaphore", "barrier",
    "latch",         "stop_token",      "stop_source"};
constexpr std::array<const char*, 10> kThreadBareNames = {
    "this_thread", "sleep_for",   "sleep_until", "lock_guard", "unique_lock",
    "scoped_lock", "shared_lock", "call_once",   "once_flag",  "hardware_concurrency"};
constexpr std::array<const char*, 10> kThreadIncludes = {
    "<thread>", "<mutex>", "<shared_mutex>", "<future>", "<condition_variable>",
    "<atomic>", "<semaphore>", "<barrier>",  "<latch>",  "<stop_token>"};

// Shared scanner behind sim-thread and thread-confinement: same token sets,
// different scopes and remediation text.
void ScanThreadPrimitives(const FileContext& file, const char* rule, const char* include_why,
                          const char* token_why, std::vector<Diagnostic>& out) {
  CheckBannedIncludes(file, rule, kThreadIncludes, include_why, out);
  for (size_t i = 0; i < T(file).size(); ++i) {
    if (!IsIdent(file, i)) {
      continue;
    }
    const std::string& text = T(file)[i].text;
    bool hit = (InSet(text, kThreadStdNames) && IsStdQualified(file, i)) ||
               (InSet(text, kThreadBareNames) && QualifierAllowsMatch(file, i));
    if (hit) {
      Report(file, i, rule, "'" + text + "' " + token_why, out);
    }
  }
}

void RuleSimThread(const FileContext& file, std::vector<Diagnostic>& out) {
  ScanThreadPrimitives(
      file, "sim-thread",
      "the sim core is single-threaded; concurrency is modeled as EventLoop "
      "events, never real threads",
      "introduces real concurrency or blocking into the single-threaded "
      "sim core; model time and parallelism with EventLoop (src/util/event_loop.h)",
      out);
}

// --- thread-confinement ---------------------------------------------------

bool PathStartsWith(const std::string& path, const char* prefix) {
  return path.rfind(prefix, 0) == 0;
}

// Real threading exists in exactly two places: src/util (ThreadPool) and
// src/parallel (the sharded executor built on it). Everywhere else — the
// sim core and the tests — must stay free of raw primitives so the
// byte-identity contract is auditable by construction: if a file outside
// the confinement boundary can't spawn a thread or take a lock, it can't
// introduce a scheduling-dependent result.
void RuleThreadConfinement(const FileContext& file, std::vector<Diagnostic>& out) {
  if (PathStartsWith(file.path, "src/parallel/") || PathStartsWith(file.path, "src/util/")) {
    return;  // the sanctioned homes of real concurrency
  }
  ScanThreadPrimitives(
      file, "thread-confinement",
      "raw threading is confined to src/parallel and src/util; drive parallel "
      "work through ShardedSimulation (src/parallel/sharded_sim.h) or ThreadPool",
      "is a raw threading primitive outside the confinement boundary "
      "(src/parallel, src/util); use ShardedSimulation or ThreadPool so "
      "determinism stays provable",
      out);
}

// --- store-raw-io ---------------------------------------------------------

constexpr std::array<const char*, 8> kRawIoNames = {
    "fstream",       "ifstream",       "ofstream",       "basic_fstream",
    "basic_ifstream", "basic_ofstream", "basic_filebuf",  "filebuf"};
constexpr std::array<const char*, 3> kRawIoCalls = {"fopen", "freopen", "tmpfile"};
constexpr std::array<const char*, 1> kRawIoIncludes = {"<fstream>"};

// All durable bytes flow through src/store's CRC-framed record log (or the
// legacy src/storage models built before it); scattering ad-hoc fstream /
// FILE* I/O through the sim core would let unframed, unchecksummed — and
// potentially nondeterministic — bytes reach disk where nymlint can't see
// the framing. bench/ and tools/ are exempt by scope: they are leaf
// consumers writing reports, not simulator state.
void RuleStoreRawIo(const FileContext& file, std::vector<Diagnostic>& out) {
  static const char* kRule = "store-raw-io";
  if (PathStartsWith(file.path, "src/store/") || PathStartsWith(file.path, "src/storage/")) {
    return;  // the sanctioned persistence layer
  }
  CheckBannedIncludes(file, kRule, kRawIoIncludes,
                      "file I/O outside src/store|src/storage; go through ReadFileBytes/"
                      "WriteFileBytes (src/store/file_io.h) or a store record log",
                      out);
  for (size_t i = 0; i < T(file).size(); ++i) {
    if (!IsIdent(file, i)) {
      continue;
    }
    const std::string& text = T(file)[i].text;
    if ((InSet(text, kRawIoNames) || text == "FILE") && QualifierAllowsMatch(file, i)) {
      Report(file, i, kRule,
             "'" + text + "' is raw file I/O outside the persistence layer; use "
             "ReadFileBytes/WriteFileBytes (src/store/file_io.h) so every durable byte "
             "is framed and CRC-checked by src/store",
             out);
    } else if (InSet(text, kRawIoCalls) && IsCallPosition(file, i)) {
      Report(file, i, kRule,
             "'" + text + "()' opens a raw FILE* outside the persistence layer; use "
             "ReadFileBytes/WriteFileBytes (src/store/file_io.h) so every durable byte "
             "is framed and CRC-checked by src/store",
             out);
    }
  }
}

// --- error-throw ----------------------------------------------------------

constexpr std::array<const char*, 4> kAbortCalls = {"abort", "terminate", "quick_exit", "_Exit"};

void RuleErrorThrow(const FileContext& file, std::vector<Diagnostic>& out) {
  static const char* kRule = "error-throw";
  if (file.path == "src/util/check.h") {
    return;  // the sanctioned invariant-abort site
  }
  for (size_t i = 0; i < T(file).size(); ++i) {
    if (!IsIdent(file, i)) {
      continue;
    }
    const std::string& text = T(file)[i].text;
    if (text == "throw") {
      Report(file, i, kRule,
             "'throw' bypasses the Status/Result error contract; return a Status "
             "(src/util/status.h) for expected failures, NYMIX_CHECK for invariants",
             out);
    } else if (InSet(text, kAbortCalls) && IsCallPosition(file, i)) {
      Report(file, i, kRule,
             "'" + text + "()' outside src/util/check.h; use NYMIX_CHECK/NYMIX_CHECK_MSG for "
             "invariants so the failure is reported with file:line context",
             out);
    }
  }
}

// --- error-ignored-status -------------------------------------------------

// Walks a `a.b->C` chain leftwards from the called identifier at `i`;
// returns the index of the chain's first token, or SIZE_MAX to bail out
// (conservative: unflagged).
size_t ChainStart(const FileContext& file, size_t i) {
  size_t j = i;
  while (j >= 2) {
    const std::string& prev = TokText(file, j - 1);
    if (prev != "." && prev != "->") {
      break;
    }
    size_t k = j - 2;
    if (IsIdent(file, k)) {
      j = k;
      continue;
    }
    if (TokText(file, k) == ")") {
      // Skip back over a balanced call: `Foo(...).Bar()`.
      int depth = 0;
      while (true) {
        const std::string& text = TokText(file, k);
        if (text == ")") {
          ++depth;
        } else if (text == "(") {
          if (--depth == 0) {
            break;
          }
        }
        if (k == 0) {
          return static_cast<size_t>(-1);
        }
        --k;
      }
      if (k == 0 || !IsIdent(file, k - 1)) {
        return static_cast<size_t>(-1);
      }
      j = k - 1;
      continue;
    }
    return static_cast<size_t>(-1);
  }
  return j;
}

void RuleErrorIgnoredStatus(const FileContext& file, std::vector<Diagnostic>& out) {
  static const char* kRule = "error-ignored-status";
  if (file.status_functions == nullptr || file.status_functions->empty()) {
    return;
  }
  for (size_t i = 0; i + 1 < T(file).size(); ++i) {
    if (!IsIdent(file, i) || TokText(file, i + 1) != "(" ||
        file.status_functions->count(T(file)[i].text) == 0) {
      continue;
    }
    size_t start = ChainStart(file, i);
    if (start == static_cast<size_t>(-1)) {
      continue;
    }
    // The chain must begin a statement for the value to be discarded.
    static constexpr std::array<const char*, 6> kStatementStarts = {";", "{", "}",
                                                                    ")", "else", "do"};
    if (start > 0 && !InSet(TokText(file, start - 1), kStatementStarts)) {
      continue;
    }
    // `(void)Foo()` is an explicit compiler-style discard; accepted.
    if (start >= 3 && TokText(file, start - 1) == ")" && TokText(file, start - 2) == "void" &&
        TokText(file, start - 3) == "(") {
      continue;
    }
    // Find the call's closing paren; the statement must end right after it.
    int depth = 0;
    size_t close = static_cast<size_t>(-1);
    for (size_t j = i + 1; j < T(file).size() && j < i + 600; ++j) {
      const std::string& text = T(file)[j].text;
      if (text == "(") {
        ++depth;
      } else if (text == ")") {
        if (--depth == 0) {
          close = j;
          break;
        }
      }
    }
    if (close == static_cast<size_t>(-1) || TokText(file, close + 1) != ";") {
      continue;
    }
    Report(file, i, kRule,
           "result of Status-returning call '" + T(file)[i].text +
               "' is discarded; handle it, NYMIX_RETURN_IF_ERROR it, or CHECK it",
           out);
  }
}

// --- include-guard --------------------------------------------------------

void RuleIncludeGuard(const FileContext& file, std::vector<Diagnostic>& out) {
  static const char* kRule = "include-guard";
  size_t first = static_cast<size_t>(-1);
  for (size_t i = 0; i < T(file).size(); ++i) {
    if (T(file)[i].kind == TokenKind::kDirective) {
      first = i;
      break;
    }
  }
  auto fail = [&](const std::string& why) {
    out.push_back(Diagnostic{file.path, 1, 1, kRule,
                             "header lacks a well-formed include guard (" + why +
                                 "); start with #ifndef GUARD / #define GUARD or #pragma once"});
  };
  if (first == static_cast<size_t>(-1)) {
    fail("no preprocessor directives at all");
    return;
  }
  const std::string& directive = T(file)[first].text;
  if (directive == "#pragma") {
    if (TokText(file, first + 1) != "once") {
      fail("#pragma before a guard is not #pragma once");
    }
    return;
  }
  if (directive != "#ifndef") {
    fail("first directive is " + directive);
    return;
  }
  if (!IsIdent(file, first + 1)) {
    fail("#ifndef without a guard macro");
    return;
  }
  const std::string& guard = T(file)[first + 1].text;
  // The next directive must immediately define the same macro.
  for (size_t i = first + 2; i < T(file).size(); ++i) {
    if (T(file)[i].kind != TokenKind::kDirective) {
      continue;
    }
    if (T(file)[i].text == "#define" && TokText(file, i + 1) == guard) {
      return;
    }
    fail("#ifndef " + guard + " is not followed by #define " + guard);
    return;
  }
  fail("#ifndef " + guard + " has no matching #define");
}

// --- using-namespace-header -----------------------------------------------

void RuleUsingNamespaceHeader(const FileContext& file, std::vector<Diagnostic>& out) {
  static const char* kRule = "using-namespace-header";
  for (size_t i = 0; i + 1 < T(file).size(); ++i) {
    if (IsIdent(file, i) && T(file)[i].text == "using" && TokText(file, i + 1) == "namespace") {
      Report(file, i, kRule,
             "'using namespace' in a header pollutes every includer's scope; qualify names "
             "or alias the few you need",
             out);
    }
  }
}

// --- fuzz-entropy ---------------------------------------------------------

// The fuzzer's reproducibility contract (src/fuzz/entropy.h): every random
// draw flows from a recorded seed. AmbientSeed() is the one sanctioned
// escape hatch, callable only from its own definition and from tools/ (the
// nymfuzz --seed=random path, which prints the chosen seed). Anywhere else
// an ambient seed would silently make a run unreplayable.
void RuleFuzzEntropy(const FileContext& file, std::vector<Diagnostic>& out) {
  static const char* kRule = "fuzz-entropy";
  if (file.path.rfind("src/fuzz/entropy", 0) == 0 || file.path.rfind("tools/", 0) == 0) {
    return;
  }
  for (size_t i = 0; i < T(file).size(); ++i) {
    if (!IsIdent(file, i) || T(file)[i].text != "AmbientSeed" || TokText(file, i + 1) != "(") {
      continue;
    }
    const std::string prev = i > 0 ? TokText(file, i - 1) : std::string();
    if (prev == "." || prev == "->") {
      continue;  // member lookalike on some other type
    }
    if (prev == "::") {
      if (i >= 2 && IsIdent(file, i - 2) && T(file)[i - 2].text != "nymix") {
        continue;  // foreign namespace
      }
    } else if (!IsStrictCallPosition(file, i)) {
      continue;  // declaration shape: `uint64_t AmbientSeed();`
    }
    Report(file, i, kRule,
           "'AmbientSeed()' outside src/fuzz/entropy and tools/ makes the run "
           "unreplayable; take an explicit seed and record it (src/fuzz/entropy.h)",
           out);
  }
}

}  // namespace

const std::vector<RuleInfo>& AllRules() {
  static const std::vector<RuleInfo> kRules = {
      {"determinism-rand",
       "unseeded/global randomness (std::rand, random_device, <random> engines)", kEverywhere,
       false},
      {"determinism-wallclock",
       "wall-clock reads (system_clock, steady_clock, time(), gettimeofday)",
       kSrc | kBench | kExamples, false},
      {"determinism-env", "environment-variable reads (getenv and friends)", kEverywhere, false},
      {"determinism-unordered-container",
       "unordered_map/unordered_set in the sim core (iteration order can leak)", kSrc, false},
      {"determinism-pointer-key",
       "std::map/set keyed by pointer with the default comparator", kSrc, false},
      {"sim-thread", "threads, locks, atomics, sleeps in the single-threaded sim",
       kBench | kExamples, false},
      {"thread-confinement",
       "raw threading primitives outside src/parallel and src/util", kSrc | kTests, false},
      {"store-raw-io",
       "raw file I/O (fstream, fopen, FILE*) outside src/store and src/storage",
       kSrc | kTests | kExamples, false},
      {"error-throw", "throw/abort outside src/util/check.h", kEverywhere, false},
      {"error-ignored-status", "discarded result of a Status-returning call",
       kSrc | kBench | kTests | kExamples, false},
      {"include-guard", "headers must open with #ifndef/#define or #pragma once", kEverywhere,
       true},
      {"using-namespace-header", "no 'using namespace' in headers", kEverywhere, true},
      {"fuzz-entropy",
       "AmbientSeed() outside src/fuzz/entropy and tools/ (fuzz runs must replay from a "
       "recorded seed)",
       kEverywhere, false},
      // nymflow stage rules (tools/nymlint/flow.h; dead-api in analyzer.cc).
      // They run as the analyzer's second stage, not through the per-file
      // dispatch below, but live in this table so --list-rules, IsKnownRule,
      // and the nymlint:allow / nymlint:declassify validators know them.
      {"nymflow-identity-taint",
       "identity-bearing value (cookie, evercookie, account, guard) reaches a "
       "cross-boundary sink without a declassifier",
       kSrc, false},
      {"nymflow-shard-confinement",
       "mutable state reachable from two shard contexts outside a CrossShardChannel", kSrc,
       false},
      {"nymflow-registry-error",
       "identity_registry.txt, a baseline, or a declassify marker failed to parse",
       kEverywhere, false},
      {"nymflow-stale-baseline",
       "nymflow_baseline.json entry that matches no current finding", kEverywhere, false},
      {"dead-api",
       "function defined in src/ that no src/, bench/, tools/, examples/ or nymbench/ "
       "code names",
       kSrc, false},
      // Meta rules emitted by the suppression scanner itself; they are not
      // suppressible and exist so --list-rules documents every name that can
      // appear in a report.
      {"suppression-missing-reason", "nymlint:allow(...) without a written reason", kEverywhere,
       false},
      {"suppression-unknown-rule", "nymlint:allow(...) naming a rule that does not exist",
       kEverywhere, false},
      {"suppression-unused", "nymlint:allow(...) that matched no diagnostic", kEverywhere, false},
  };
  return kRules;
}

bool IsKnownRule(const std::string& name) {
  for (const RuleInfo& rule : AllRules()) {
    if (name == rule.name) {
      return true;
    }
  }
  return false;
}

namespace {

// Shared scanner behind CollectStatusFunctions/CollectVoidFunctions:
// `<ReturnKeyword> <PascalName>(` not behind `.`/`->`.
void CollectFunctionsReturning(const std::vector<Token>& tokens, const char* return_type,
                               std::set<std::string>& out) {
  for (size_t i = 0; i + 2 < tokens.size(); ++i) {
    if (tokens[i].kind == TokenKind::kIdentifier && tokens[i].text == return_type &&
        tokens[i + 1].kind == TokenKind::kIdentifier && tokens[i + 2].text == "(" &&
        std::isupper(static_cast<unsigned char>(tokens[i + 1].text[0]))) {
      // `Status Foo(` — skip `foo->Status(...)`-style member calls on other
      // types by requiring the return type to be unqualified or std-free.
      if (i > 0 && (tokens[i - 1].text == "." || tokens[i - 1].text == "->")) {
        continue;
      }
      out.insert(tokens[i + 1].text);
    }
  }
}

}  // namespace

void CollectStatusFunctions(const std::vector<Token>& tokens, std::set<std::string>& out) {
  CollectFunctionsReturning(tokens, "Status", out);
}

void CollectVoidFunctions(const std::vector<Token>& tokens, std::set<std::string>& out) {
  CollectFunctionsReturning(tokens, "void", out);
}

void RunRules(const FileContext& file, std::vector<Diagnostic>& out) {
  struct Entry {
    const char* name;
    void (*fn)(const FileContext&, std::vector<Diagnostic>&);
  };
  static constexpr std::array<Entry, 13> kDispatch = {{
      {"determinism-rand", RuleDeterminismRand},
      {"determinism-wallclock", RuleDeterminismWallclock},
      {"determinism-env", RuleDeterminismEnv},
      {"determinism-unordered-container", RuleDeterminismUnordered},
      {"determinism-pointer-key", RuleDeterminismPointerKey},
      {"sim-thread", RuleSimThread},
      {"thread-confinement", RuleThreadConfinement},
      {"store-raw-io", RuleStoreRawIo},
      {"error-throw", RuleErrorThrow},
      {"error-ignored-status", RuleErrorIgnoredStatus},
      {"include-guard", RuleIncludeGuard},
      {"using-namespace-header", RuleUsingNamespaceHeader},
      {"fuzz-entropy", RuleFuzzEntropy},
  }};
  for (const Entry& entry : kDispatch) {
    const RuleInfo* info = nullptr;
    for (const RuleInfo& rule : AllRules()) {
      if (std::string(rule.name) == entry.name) {
        info = &rule;
        break;
      }
    }
    if (info == nullptr || (info->scopes & file.scope) == 0) {
      continue;
    }
    if (info->headers_only && !file.is_header) {
      continue;
    }
    entry.fn(file, out);
  }
}

}  // namespace nymlint
