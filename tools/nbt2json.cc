// nbt2json: exports an NBT binary trace/metrics artifact (src/store/nbt.h)
// as the byte-identical JSON the same run would have written with
// --trace-format=json. CI uses it to prove the NBT path lossless:
//   nbt2json run.nbt run.json && cmp run.json cold_run.json
//
// Usage: nbt2json [--recover] <input.nbt> [output.json]
//   - with one argument the JSON goes to stdout
//   - --recover tolerates a torn/corrupted tail (longest valid prefix);
//     without it any damage is a hard error
//   - --help prints the usage line and exits 0; any other argument that
//     starts with '-', or a third path, prints it and exits 2
#include <cstdio>
#include <string>
#include <vector>

#include "src/store/file_io.h"
#include "src/store/nbt.h"
#include "src/util/flags.h"

int main(int argc, char** argv) {
  bool recover = false;
  std::vector<std::string> paths;
  nymix::FlagSet flags("nbt2json");
  flags.Bool("recover", &recover, "tolerate a torn or corrupted tail (longest valid prefix)");
  flags.Positionals(&paths, 1, 2, "<input.nbt> [output.json]");
  flags.Parse(argc, argv);
  const std::string& in_path = paths[0];
  const std::string out_path = paths.size() > 1 ? paths[1] : "";

  nymix::Result<nymix::Bytes> data = nymix::ReadFileBytes(in_path);
  if (!data.ok()) {
    std::fprintf(stderr, "nbt2json: %s\n", data.status().ToString().c_str());
    return 1;
  }

  nymix::NbtDocument doc;
  if (recover) {
    nymix::Result<nymix::NbtRecovered> recovered = nymix::RecoverNbt(*data);
    if (!recovered.ok()) {
      std::fprintf(stderr, "nbt2json: %s\n", recovered.status().ToString().c_str());
      return 1;
    }
    if (!recovered->clean) {
      std::fprintf(stderr, "nbt2json: recovered %zu events; %zu byte(s) of damaged tail dropped\n",
                   recovered->events_recovered, recovered->lost_bytes);
    }
    doc = std::move(recovered->doc);
  } else {
    nymix::Result<nymix::NbtDocument> strict = nymix::DecodeNbt(*data);
    if (!strict.ok()) {
      std::fprintf(stderr, "nbt2json: %s (re-run with --recover to salvage the valid prefix)\n",
                   strict.status().ToString().c_str());
      return 1;
    }
    doc = std::move(*strict);
  }

  std::string json = nymix::NbtToJson(doc);
  if (out_path.empty()) {
    std::fwrite(json.data(), 1, json.size(), stdout);
    return 0;
  }
  nymix::Status written = nymix::WriteFileBytes(out_path, nymix::BytesFromString(json));
  if (!written.ok()) {
    std::fprintf(stderr, "nbt2json: %s\n", written.ToString().c_str());
    return 1;
  }
  return 0;
}
