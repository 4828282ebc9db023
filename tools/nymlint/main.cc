// nymlint CLI. Typical invocations:
//
//   nymlint --root=.                        # lint src bench tests tools examples
//                                           # (nymbench/ is read, never linted)
//   nymlint --root=. src/net                # lint one subtree
//   nymlint --root=. --json --out=report.json
//   nymlint --root=. --sarif=nymlint.sarif  # SARIF 2.1.0 for code scanning
//   nymlint --root=. --write-baseline=nymflow_baseline.json
//   nymlint --list-rules
//
// The nymflow dataflow stage runs whenever the identity registry is found
// (tools/nymlint/identity_registry.txt by default; override with
// --registry=PATH, disable with --no-flow). When nymflow_baseline.json
// exists at the repo root (or --baseline=PATH is given), baselined
// fingerprints are filtered and stale entries are reported. The stage's
// dead-api rule counts uses in src/ bench/ tools/ examples/ and the
// read-only reference root nymbench/; tests/ uses do not count.
//
// Every valued flag needs a non-empty value: `--out=` is a usage error,
// not a silent fallback to stdout.
//
// Exit codes: 0 clean, 1 violations found, 2 usage or I/O error.
#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "tools/nymlint/analyzer.h"
#include "tools/nymlint/sarif.h"

namespace {

namespace fs = std::filesystem;

bool HasLintableExtension(const fs::path& path) {
  std::string ext = path.extension().string();
  return ext == ".h" || ext == ".cc" || ext == ".cpp" || ext == ".hpp" || ext == ".hh" ||
         ext == ".cxx" || ext == ".ipp";
}

// Collects lintable files under `target` (file or directory), paths
// repo-relative to `root`. Results are sorted by the caller; directory
// iteration order is filesystem-dependent and must never reach the report.
bool CollectFiles(const fs::path& root, const std::string& target,
                  std::vector<std::string>& out) {
  std::error_code ec;
  fs::path full = root / target;
  if (fs::is_regular_file(full, ec)) {
    out.push_back(target);
    return true;
  }
  if (!fs::is_directory(full, ec)) {
    std::cerr << "nymlint: cannot read " << full.string() << "\n";
    return false;
  }
  for (fs::recursive_directory_iterator it(full, ec), end; it != end && !ec; it.increment(ec)) {
    if (it->is_regular_file(ec) && HasLintableExtension(it->path())) {
      out.push_back(fs::relative(it->path(), root, ec).generic_string());
    }
  }
  return true;
}

bool ReadFile(const fs::path& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return false;
  }
  std::ostringstream content;
  content << in.rdbuf();
  out = content.str();
  return true;
}

// The string a `--name=value` argument sets, or nullptr for other arguments.
std::string* ValuedFlag(const std::string& arg,
                        const std::vector<std::pair<std::string, std::string*>>& flags) {
  for (const auto& [prefix, value] : flags) {
    if (arg.rfind(prefix, 0) == 0) {
      return value;
    }
  }
  return nullptr;
}

int ListRules() {
  for (const nymlint::RuleInfo& rule : nymlint::AllRules()) {
    std::cout << rule.name << "\n    " << rule.summary << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  bool list_rules = false;
  bool no_flow = false;
  std::string root = ".";
  std::string out_path;
  std::string sarif_path;
  std::string registry_path;
  std::string baseline_path;
  std::string write_baseline_path;
  std::vector<std::string> targets;
  const std::vector<std::pair<std::string, std::string*>> valued = {
      {"--root=", &root},
      {"--out=", &out_path},
      {"--sarif=", &sarif_path},
      {"--registry=", &registry_path},
      {"--baseline=", &baseline_path},
      {"--write-baseline=", &write_baseline_path},
  };

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--list-rules") {
      list_rules = true;
    } else if (arg == "--no-flow") {
      no_flow = true;
    } else if (std::string* value = ValuedFlag(arg, valued)) {
      *value = arg.substr(arg.find('=') + 1);
      if (value->empty()) {
        std::cerr << "nymlint: " << arg << " needs a value\n";
        return 2;
      }
    } else if (arg == "--help" || arg == "-h") {
      std::cout
          << "usage: nymlint [--root=DIR] [--json] [--out=FILE] [--sarif=FILE]\n"
             "               [--registry=FILE] [--baseline=FILE] [--no-flow]\n"
             "               [--write-baseline=FILE] [--list-rules] [paths...]\n"
             "Lints src/ bench/ tests/ tools/ examples/ by default, then runs the\n"
             "nymflow identity-taint, shard-confinement and dead-api stage.\n"
             "nymbench/ is read as a reference root for dead-api, never linted.\n"
             "See docs/static-analysis.md for the rule reference.\n";
      return 0;
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "nymlint: unknown flag " << arg << "\n";
      return 2;
    } else {
      targets.push_back(arg);
    }
  }
  if (list_rules) {
    return ListRules();
  }
  if (targets.empty()) {
    targets = {"src", "bench", "tests", "tools", "examples", "nymbench"};
  }

  std::vector<std::string> paths;
  for (const std::string& target : targets) {
    if (!CollectFiles(root, target, paths)) {
      return 2;
    }
  }
  std::sort(paths.begin(), paths.end());
  paths.erase(std::unique(paths.begin(), paths.end()), paths.end());

  std::vector<nymlint::SourceFile> files;
  files.reserve(paths.size());
  for (const std::string& path : paths) {
    std::string content;
    if (!ReadFile(fs::path(root) / path, content)) {
      std::cerr << "nymlint: cannot open " << path << "\n";
      return 2;
    }
    files.push_back(nymlint::SourceFile{path, std::move(content)});
  }

  // Assemble the nymflow stage inputs. A missing default registry degrades
  // to lexical-only linting (with a warning); a missing *explicit* registry
  // or baseline is a hard usage error.
  nymlint::FlowOptions flow;
  if (!no_flow) {
    bool explicit_registry = !registry_path.empty();
    if (!explicit_registry) {
      registry_path = "tools/nymlint/identity_registry.txt";
    }
    std::string registry_text;
    if (ReadFile(fs::path(root) / registry_path, registry_text)) {
      flow.enabled = true;
      flow.registry_path = registry_path;
      flow.registry_text = std::move(registry_text);
    } else if (explicit_registry) {
      std::cerr << "nymlint: cannot open registry " << registry_path << "\n";
      return 2;
    } else {
      std::cerr << "nymlint: no " << registry_path << "; nymflow stage skipped\n";
    }

    bool explicit_baseline = !baseline_path.empty();
    if (!explicit_baseline) {
      baseline_path = "nymflow_baseline.json";
    }
    std::string baseline_text;
    if (ReadFile(fs::path(root) / baseline_path, baseline_text)) {
      flow.baseline_path = baseline_path;
      flow.baseline_text = std::move(baseline_text);
    } else if (explicit_baseline) {
      std::cerr << "nymlint: cannot open baseline " << baseline_path << "\n";
      return 2;
    }
  }

  // determinism-wallclock deliberately exempts tools/: this is host-side
  // tooling measuring itself, not simulation logic.
  auto start = std::chrono::steady_clock::now();
  nymlint::LintResult result = nymlint::RunLint(files, flow);
  result.analysis_ms = static_cast<long>(std::chrono::duration_cast<std::chrono::milliseconds>(
                                             std::chrono::steady_clock::now() - start)
                                             .count());

  if (!write_baseline_path.empty()) {
    std::ofstream baseline_out(write_baseline_path, std::ios::binary | std::ios::trunc);
    if (!baseline_out) {
      std::cerr << "nymlint: cannot write " << write_baseline_path << "\n";
      return 2;
    }
    baseline_out << nymlint::WriteBaseline(result.flow_findings,
                                           "REVIEW: justify or fix, then keep or delete");
    std::cerr << "nymlint: wrote " << result.flow_findings.size() << " baseline entr"
              << (result.flow_findings.size() == 1 ? "y" : "ies") << " to "
              << write_baseline_path << "\n";
  }

  if (!sarif_path.empty()) {
    std::ofstream sarif_out(sarif_path, std::ios::binary | std::ios::trunc);
    if (!sarif_out) {
      std::cerr << "nymlint: cannot write " << sarif_path << "\n";
      return 2;
    }
    sarif_out << nymlint::WriteSarif(result.diagnostics, result.flow_findings);
  }

  std::ostream* out = &std::cout;
  std::ofstream file_out;
  if (!out_path.empty()) {
    file_out.open(out_path, std::ios::binary | std::ios::trunc);
    if (!file_out) {
      std::cerr << "nymlint: cannot write " << out_path << "\n";
      return 2;
    }
    out = &file_out;
  }
  if (json) {
    nymlint::WriteJsonReport(result, *out);
  } else {
    nymlint::WriteHumanReport(result, *out);
  }
  // When writing a report file, still summarize to stderr so CI logs show
  // the verdict without opening the artifact.
  if (!out_path.empty()) {
    std::cerr << "nymlint: " << result.diagnostics.size() << " violation(s), report in "
              << out_path << "\n";
  }
  return result.diagnostics.empty() ? 0 : 1;
}
