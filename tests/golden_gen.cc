// Regenerates the golden-trace corpus. Run via tools/regolden.sh, which
// rebuilds this binary and rewrites tests/golden/*.json in place; review
// the diff like any other source change.
//
// Usage: golden_gen [--format=json|nbt] <output-dir> [scenario...]
//   --format=json (default) writes <name>.json, the checked-in corpus
//   --format=nbt writes <name>.nbt, the binary encoding of the same run
// Naming a scenario that does not exist is a hard error (exit 2) listing
// the library — a typo must not silently regenerate nothing — and so is an
// unknown flag: it is never taken for the output directory.
#include <cstdint>
#include <cstdio>
// nymlint:allow-file(store-raw-io): writes the human-reviewable golden JSON
// corpus; see golden_trace_test.cc for why it stays outside the record log.
#include <fstream>
#include <string>
#include <vector>

#include "src/util/flags.h"
#include "tests/golden_scenarios.h"

namespace {

bool WriteFileOrComplain(const std::string& path, const char* data, size_t size) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "golden_gen: cannot write %s\n", path.c_str());
    return false;
  }
  out.write(data, static_cast<std::streamsize>(size));
  out.flush();
  if (!out) {
    std::fprintf(stderr, "golden_gen: write failed for %s\n", path.c_str());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string format = "json";
  std::vector<std::string> operands;
  nymix::FlagSet flags("golden_gen");
  flags.Choice("format", &format, {"json", "nbt"},
               "json writes the checked-in corpus, nbt its binary twin");
  flags.Positionals(&operands, 1, SIZE_MAX, "<output-dir> [scenario...]");
  flags.Parse(argc, argv);
  const std::string out_dir = operands[0];
  const std::vector<std::string> wanted(operands.begin() + 1, operands.end());
  for (const std::string& name : wanted) {
    bool known = false;
    std::string library;
    for (const nymix::GoldenScenario& scenario : nymix::GoldenScenarios()) {
      known = known || name == scenario.name;
      library += std::string(library.empty() ? "" : ", ") + scenario.name;
    }
    if (!known) {
      flags.Fail("unknown scenario \"" + name + "\"; the library has: " + library);
    }
  }
  for (const nymix::GoldenScenario& scenario : nymix::GoldenScenarios()) {
    if (!wanted.empty()) {
      bool selected = false;
      for (const std::string& name : wanted) {
        selected = selected || name == scenario.name;
      }
      if (!selected) {
        continue;
      }
    }
    std::string path = out_dir + "/" + scenario.name + "." + format;
    bool ok;
    if (format == "nbt") {
      nymix::Bytes data = scenario.generate_nbt();
      ok = WriteFileOrComplain(path, reinterpret_cast<const char*>(data.data()), data.size());
    } else {
      std::string data = scenario.generate();
      ok = WriteFileOrComplain(path, data.data(), data.size());
    }
    if (!ok) {
      return 1;
    }
    std::printf("golden_gen: wrote %s\n", path.c_str());
  }
  return 0;
}
