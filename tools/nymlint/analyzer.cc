#include "tools/nymlint/analyzer.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <map>
#include <set>

#include "tools/nymlint/jsonlite.h"
#include "tools/nymlint/model.h"
#include "tools/nymlint/registry.h"

namespace nymlint {
namespace {

struct Suppression {
  std::vector<std::string> rules;
  int line = 0;       // line the comment starts on
  int end_line = 0;   // line the comment ends on (block comments span)
  bool file_level = false;
  bool has_reason = false;
  size_t uses = 0;
};

std::string Trim(const std::string& text) {
  size_t begin = text.find_first_not_of(" \t\r\n");
  if (begin == std::string::npos) {
    return "";
  }
  size_t end = text.find_last_not_of(" \t\r\n");
  return text.substr(begin, end - begin + 1);
}

// Parses the suppression marker in one comment token, if any. A marker is
// only honored when it is the comment's very first content ("// nymlint:
// allow..." with nothing before it) — prose that merely *mentions* the
// syntax, like this paragraph or the docs, never suppresses anything.
void ParseSuppressions(const Token& comment, std::vector<Suppression>& out) {
  const std::string& text = comment.text;
  int end_line = comment.line +
                 static_cast<int>(std::count(text.begin(), text.end(), '\n'));
  // Strip exactly one comment opener, then whitespace. Stripping greedily
  // would also eat the inner "//" of doc lines quoting the syntax.
  size_t pos = text.rfind("//", 0) == 0 || text.rfind("/*", 0) == 0 ? 2 : 0;
  pos = text.find_first_not_of(" \t", pos);
  {
    if (pos == std::string::npos || text.compare(pos, 13, "nymlint:allow") != 0) {
      return;
    }
    size_t cursor = pos + std::string("nymlint:allow").size();
    Suppression sup;
    sup.line = comment.line;
    sup.end_line = end_line;
    if (text.compare(cursor, 5, "-file") == 0) {
      sup.file_level = true;
      cursor += 5;
    }
    if (cursor >= text.size() || text[cursor] != '(') {
      return;  // malformed marker; not a suppression
    }
    size_t close = text.find(')', cursor);
    if (close == std::string::npos) {
      return;
    }
    // Comma-separated rule list.
    std::string list = text.substr(cursor + 1, close - cursor - 1);
    size_t item_start = 0;
    while (item_start <= list.size()) {
      size_t comma = list.find(',', item_start);
      std::string rule = Trim(list.substr(
          item_start, comma == std::string::npos ? std::string::npos : comma - item_start));
      if (!rule.empty()) {
        sup.rules.push_back(rule);
      }
      if (comma == std::string::npos) {
        break;
      }
      item_start = comma + 1;
    }
    // Everything after the ')' (minus separators and a block-comment
    // terminator) is the mandatory reason.
    std::string reason = text.substr(close + 1);
    if (reason.size() >= 2 && reason.compare(reason.size() - 2, 2, "*/") == 0) {
      reason.resize(reason.size() - 2);
    }
    size_t reason_begin = reason.find_first_not_of(" \t:-—");
    reason = reason_begin == std::string::npos ? "" : Trim(reason.substr(reason_begin));
    sup.has_reason = reason.size() >= 3;
    out.push_back(std::move(sup));
  }
}

bool IsHeaderPath(const std::string& path) {
  auto ends_with = [&](const char* suffix) {
    size_t n = std::string(suffix).size();
    return path.size() >= n && path.compare(path.size() - n, n, suffix) == 0;
  };
  return ends_with(".h") || ends_with(".hpp") || ends_with(".hh") || ends_with(".ipp");
}

// Per-file state for the single-lex pipeline: every stage (Status
// collection, lexical rules, suppressions, nymflow model) reads these
// token vectors; no stage re-lexes.
struct FileWork {
  const SourceFile* file = nullptr;
  unsigned scope = 0;
  std::vector<Token> all_tokens;
  std::vector<Token> significant;
  std::vector<Suppression> suppressions;
};

// True (and counts the use) when any suppression in `sups` covers `diag`.
bool ApplySuppressions(std::vector<Suppression>& sups, const Diagnostic& diag) {
  bool suppressed = false;
  for (Suppression& sup : sups) {
    bool rule_matches =
        std::find(sup.rules.begin(), sup.rules.end(), diag.rule) != sup.rules.end();
    bool line_matches = sup.file_level ||
                        (diag.line >= sup.line && diag.line <= sup.end_line + 1);
    if (rule_matches && line_matches) {
      ++sup.uses;
      suppressed = true;
      // Keep counting uses across all matching suppressions so none is
      // reported as unused just because a sibling matched first.
    }
  }
  return suppressed;
}

std::string JsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 8);
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// Files whose identifiers count as uses for dead-api: everything but
// tests/. nymbench/ is read for this alone; it is never linted.
bool IsReferenceRoot(const FileWork& file) {
  return (file.scope & (kSrc | kBench | kTools | kExamples)) != 0 ||
         file.file->path.rfind("nymbench/", 0) == 0;
}

// dead-api: a function defined under src/ whose bare name appears in no
// reference root except as the name of its own declarations and
// definitions. Matching bare names errs toward keeping code: an overload,
// an override or any same-named call elsewhere keeps the function alive.
// A run that reads no `int main(` in a reference root has no program to
// judge against (a subtree run, a fixture), so the rule stays silent.
std::vector<Diagnostic> FindDeadApi(const SymbolModel& model,
                                    const std::vector<FileWork>& work) {
  std::map<std::string, size_t> mentions;
  bool has_entry_point = false;
  for (const FileWork& file : work) {
    if (!IsReferenceRoot(file)) {
      continue;
    }
    const std::vector<Token>& tokens = file.significant;
    for (size_t i = 0; i < tokens.size(); ++i) {
      if (tokens[i].kind != TokenKind::kIdentifier) {
        continue;
      }
      ++mentions[tokens[i].text];
      has_entry_point = has_entry_point ||
                        (tokens[i].text == "main" && i > 0 && tokens[i - 1].text == "int" &&
                         i + 1 < tokens.size() && tokens[i + 1].text == "(");
    }
  }
  if (!has_entry_point) {
    return {};
  }

  struct Api {
    const FunctionInfo* anchor = nullptr;  // first declaration, else definition
    const std::string* path = nullptr;
    size_t own_names = 0;
    bool defined = false;
  };
  std::map<std::string, Api> apis;  // by qualified name
  for (const FileModel& file : model.files) {
    if (ScopeForPath(file.path) != kSrc) {
      continue;
    }
    for (const FunctionInfo& fn : file.functions) {
      if (fn.bare_name == fn.class_name || fn.bare_name[0] == '~' ||
          fn.bare_name == "operator" || fn.bare_name == "main") {
        continue;
      }
      Api& api = apis[fn.qualified_name];
      ++api.own_names;
      bool definition = fn.body_begin > 0;  // `{}` bodies included
      api.defined = api.defined || definition;
      if (api.anchor == nullptr || (!definition && api.anchor->body_begin > 0)) {
        api.anchor = &fn;
        api.path = &file.path;
      }
    }
  }

  std::vector<Diagnostic> out;
  for (const auto& [name, api] : apis) {
    if (api.defined && mentions[api.anchor->bare_name] <= api.own_names) {
      out.push_back(Diagnostic{
          *api.path, api.anchor->line, api.anchor->col, "dead-api",
          "'" + name +
              "' is defined in src/ but nothing in src/, bench/, tools/, examples/ or "
              "nymbench/ names it; delete it, or keep it with // nymlint:allow(dead-api): "
              "<reason>"});
    }
  }
  return out;
}

// Runs pass 2 of the analyzer: model build, registry parse, dataflow,
// baseline filtering, dead-api. Surviving findings are appended to
// result.diagnostics by the caller after suppression filtering.
void RunFlowStage(const FlowOptions& options, std::vector<FileWork>& work,
                  std::map<std::string, FileWork*>& by_path, LintResult& result) {
  IdentityRegistry registry =
      ParseRegistry(options.registry_path, options.registry_text);

  std::vector<ModelInput> inputs;
  for (FileWork& file : work) {
    if (file.scope == 0) {
      continue;
    }
    inputs.push_back(ModelInput{file.file->path, &file.significant, &file.all_tokens});
  }
  SymbolModel model = BuildModel(inputs);

  FlowAnalysis analysis = RunFlow(model, registry);
  result.flow_functions = analysis.functions;
  result.flow_call_edges = analysis.call_edges;
  for (const Diagnostic& error : analysis.errors) {
    result.diagnostics.push_back(error);
  }

  std::vector<std::string> baseline;
  if (!options.baseline_path.empty()) {
    baseline = ParseBaseline(options.baseline_path, options.baseline_text,
                             result.diagnostics);
  }
  std::set<std::string> baseline_hits;

  for (FlowFinding& finding : analysis.findings) {
    // Flow findings are reported at src/ sites only: the model spans all
    // scopes (so a tests/ caller can complete a flow), but tests, benches,
    // and fixtures routinely handle identity on purpose.
    if ((ScopeForPath(finding.diag.path) & kSrc) == 0) {
      continue;
    }
    if (std::find(baseline.begin(), baseline.end(), finding.fingerprint) !=
        baseline.end()) {
      ++result.baseline_suppressed;
      baseline_hits.insert(finding.fingerprint);
      continue;
    }
    auto file = by_path.find(finding.diag.path);
    if (file != by_path.end() &&
        ApplySuppressions(file->second->suppressions, finding.diag)) {
      ++result.suppressions_used;
      continue;
    }
    result.diagnostics.push_back(finding.diag);
    result.flow_findings.push_back(std::move(finding));
  }

  for (Diagnostic& diag : FindDeadApi(model, work)) {
    if (ApplySuppressions(by_path[diag.path]->suppressions, diag)) {
      ++result.suppressions_used;
    } else {
      result.diagnostics.push_back(std::move(diag));
    }
  }

  // A baseline entry that no longer matches anything is debt that must be
  // paid down: report it so the entry gets deleted, not forgotten.
  for (const std::string& fingerprint : baseline) {
    if (baseline_hits.count(fingerprint)) {
      continue;
    }
    result.stale_baseline.push_back(fingerprint);
    if (options.report_stale) {
      result.diagnostics.push_back(
          Diagnostic{options.baseline_path, 1, 1, "nymflow-stale-baseline",
                     "baseline entry '" + fingerprint +
                         "' matches no current finding; delete it (tools/"
                         "nymflow_baseline_check.sh regenerates the list)"});
    }
  }
}

}  // namespace

unsigned ScopeForPath(const std::string& path) {
  std::string normalized = path;
  if (normalized.rfind("./", 0) == 0) {
    normalized = normalized.substr(2);
  }
  auto starts_with = [&](const char* prefix) { return normalized.rfind(prefix, 0) == 0; };
  if (starts_with("src/")) return kSrc;
  if (starts_with("bench/")) return kBench;
  if (starts_with("tests/")) return kTests;
  if (starts_with("tools/")) return kTools;
  if (starts_with("examples/")) return kExamples;
  return 0;
}

std::vector<std::string> ParseBaseline(const std::string& path, const std::string& text,
                                       std::vector<Diagnostic>& errors) {
  std::vector<std::string> fingerprints;
  if (Trim(text).empty()) {
    return fingerprints;
  }
  JsonParseResult parsed = ParseJson(text);
  if (!parsed.ok) {
    errors.push_back(Diagnostic{path, parsed.error_line, 1, "nymflow-registry-error",
                                "baseline is not valid JSON: " + parsed.error});
    return fingerprints;
  }
  const JsonValue& entries = parsed.value.at("entries");
  if (!entries.is_array()) {
    errors.push_back(Diagnostic{path, 1, 1, "nymflow-registry-error",
                                "baseline must be {\"version\":1,\"entries\":[...]}"});
    return fingerprints;
  }
  for (const JsonValue& entry : entries.array) {
    const JsonValue& fingerprint = entry.at("fingerprint");
    if (!fingerprint.is_string() || fingerprint.str.empty()) {
      errors.push_back(Diagnostic{path, 1, 1, "nymflow-registry-error",
                                  "baseline entry without a \"fingerprint\" string"});
      continue;
    }
    fingerprints.push_back(fingerprint.str);
  }
  return fingerprints;
}

std::string WriteBaseline(const std::vector<FlowFinding>& findings,
                          const std::string& reason) {
  std::string out = "{\n  \"version\": 1,\n  \"entries\": [";
  std::set<std::string> seen;
  bool first = true;
  for (const FlowFinding& finding : findings) {
    if (!seen.insert(finding.fingerprint).second) {
      continue;
    }
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"fingerprint\": \"" + JsonEscape(finding.fingerprint) +
           "\", \"rule\": \"" + JsonEscape(finding.diag.rule) + "\", \"reason\": \"" +
           JsonEscape(reason) + "\"}";
  }
  out += "\n  ]\n}\n";
  return out;
}

LintResult RunLint(const std::vector<SourceFile>& files) {
  return RunLint(files, FlowOptions{});
}

LintResult RunLint(const std::vector<SourceFile>& files, const FlowOptions& flow) {
  LintResult result;

  // Lex every file exactly once. The token vectors feed all later stages.
  std::vector<FileWork> work(files.size());
  std::map<std::string, FileWork*> by_path;
  for (size_t i = 0; i < files.size(); ++i) {
    work[i].file = &files[i];
    work[i].scope = ScopeForPath(files[i].path);
    work[i].all_tokens = Lex(files[i].content);
    work[i].significant = SignificantTokens(work[i].all_tokens);
    by_path[files[i].path] = &work[i];
  }

  // Pass 1: Status-returning function names, from every file regardless of
  // scope, so a src/ header's API is enforced at tests/ call sites too.
  // Names the repo also declares void-returning are subtracted — a lexical
  // pass cannot tell the two overloads apart at a call site.
  std::set<std::string> status_functions;
  std::set<std::string> void_functions;
  for (const FileWork& file : work) {
    CollectStatusFunctions(file.significant, status_functions);
    CollectVoidFunctions(file.significant, void_functions);
  }
  for (const std::string& name : void_functions) {
    status_functions.erase(name);
  }

  // Lexical rules + suppression filtering per file.
  for (FileWork& file : work) {
    if (file.scope == 0) {
      continue;
    }
    ++result.files_scanned;

    FileContext context;
    context.path = file.file->path;
    context.scope = file.scope;
    context.is_header = IsHeaderPath(file.file->path);
    context.tokens = file.significant;
    context.status_functions = &status_functions;

    std::vector<Diagnostic> raw;
    RunRules(context, raw);

    for (const Token& token : file.all_tokens) {
      if (token.kind == TokenKind::kComment) {
        ParseSuppressions(token, file.suppressions);
      }
    }

    for (Diagnostic& diag : raw) {
      if (ApplySuppressions(file.suppressions, diag)) {
        ++result.suppressions_used;
      } else {
        result.diagnostics.push_back(std::move(diag));
      }
    }
  }

  // Pass 2: nymflow dataflow (interprocedural, whole-model). Runs before
  // suppression hygiene so an allow that only matches a flow finding is
  // still counted as used.
  if (flow.enabled) {
    RunFlowStage(flow, work, by_path, result);
  }

  // Suppression hygiene: reasons are mandatory, rules must exist, and a
  // suppression that stopped matching anything must be deleted, not
  // left to rot. These meta diagnostics are themselves unsuppressible.
  for (const FileWork& file : work) {
    for (const Suppression& sup : file.suppressions) {
      const std::string& path = file.file->path;
      if (sup.rules.empty()) {
        result.diagnostics.push_back(
            {path, sup.line, 1, "suppression-unknown-rule",
             "nymlint:allow(...) names no rule"});
        continue;
      }
      if (!sup.has_reason) {
        result.diagnostics.push_back(
            {path, sup.line, 1, "suppression-missing-reason",
             "suppression must carry a written reason: // nymlint:allow(rule): why this is sound"});
      }
      for (const std::string& rule : sup.rules) {
        if (!IsKnownRule(rule)) {
          result.diagnostics.push_back({path, sup.line, 1, "suppression-unknown-rule",
                                        "unknown rule '" + rule + "' (see nymlint --list-rules)"});
        }
      }
      if (sup.uses == 0 && sup.has_reason) {
        result.diagnostics.push_back(
            {path, sup.line, 1, "suppression-unused",
             "suppression matched no diagnostic; delete it so allows stay load-bearing"});
      }
    }
  }

  std::sort(result.diagnostics.begin(), result.diagnostics.end());
  std::sort(result.flow_findings.begin(), result.flow_findings.end(),
            [](const FlowFinding& a, const FlowFinding& b) { return a.diag < b.diag; });
  return result;
}

void WriteHumanReport(const LintResult& result, std::ostream& out) {
  for (const Diagnostic& diag : result.diagnostics) {
    out << diag.path << ":" << diag.line << ":" << diag.col << ": [" << diag.rule << "] "
        << diag.message << "\n";
  }
  out << "nymlint: " << result.diagnostics.size() << " violation(s), " << result.files_scanned
      << " file(s) scanned, " << result.suppressions_used << " suppression(s) honored";
  if (result.flow_functions > 0) {
    out << "; nymflow: " << result.flow_functions << " function(s), "
        << result.flow_call_edges << " call edge(s), " << result.flow_findings.size()
        << " flow finding(s), " << result.baseline_suppressed << " baselined";
  }
  if (result.analysis_ms >= 0) {
    out << " [" << result.analysis_ms << " ms]";
  }
  out << "\n";
}

void WriteJsonReport(const LintResult& result, std::ostream& out) {
  out << "{\n  \"version\": 2,\n  \"files_scanned\": " << result.files_scanned
      << ",\n  \"suppressions_used\": " << result.suppressions_used
      << ",\n  \"analysis_ms\": " << result.analysis_ms
      << ",\n  \"flow\": {\"functions\": " << result.flow_functions
      << ", \"call_edges\": " << result.flow_call_edges
      << ", \"findings\": " << result.flow_findings.size()
      << ", \"baseline_suppressed\": " << result.baseline_suppressed
      << ", \"stale_baseline\": " << result.stale_baseline.size() << "}"
      << ",\n  \"violation_count\": " << result.diagnostics.size() << ",\n  \"violations\": [";
  bool first = true;
  for (const Diagnostic& diag : result.diagnostics) {
    out << (first ? "" : ",") << "\n    {\"path\": \"" << JsonEscape(diag.path)
        << "\", \"line\": " << diag.line << ", \"col\": " << diag.col << ", \"rule\": \""
        << JsonEscape(diag.rule) << "\", \"message\": \"" << JsonEscape(diag.message) << "\"}";
    first = false;
  }
  out << "\n  ]\n}\n";
}

}  // namespace nymlint
