// One typed flag set for the bench and tool binaries. A binary registers
// each flag once — a name, a typed destination whose current value is the
// default, and a help string — and Parse() does everything else:
//   --name=value, or a bare --name for a bool;
//   --help prints the synopsis and each flag's help and default to
//   stdout, exit 0;
//   an unknown flag, a malformed, empty or out-of-range value, or a
//   missing or unexpected positional prints a diagnostic and the synopsis
//   to stderr, exit 2 — a typo never falls back to a default run.
// A flag given twice keeps its last value (Repeated flags keep them all).
// Fail() reports the same way for the few checks that run after Parse().
#ifndef SRC_UTIL_FLAGS_H_
#define SRC_UTIL_FLAGS_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace nymix {

// Strict flag values. ParseIntList reads "8,64,256": every element a
// decimal int >= min_value. Both return nullopt on empty input (or an
// empty element), trailing junk, a sign where none fits, or overflow.
std::optional<std::vector<int>> ParseIntList(std::string_view text, int min_value);
std::optional<uint64_t> ParseUint64(std::string_view text);

class FlagSet {
 public:
  // `program` names the binary in the synopsis and in every diagnostic.
  explicit FlagSet(std::string program) : program_(std::move(program)) {}

  const std::string& program() const { return program_; }

  // Each destination must outlive Parse().
  void Bool(std::string name, bool* dest, std::string help);
  void Int(std::string name, int* dest, int min_value, std::string help);
  void Uint64(std::string name, uint64_t* dest, std::string help);
  void IntList(std::string name, std::vector<int>* dest, int min_value, std::string help);
  // Any non-empty value; `meta` shows its syntax in the synopsis ("<path>").
  void String(std::string name, std::string* dest, std::string meta, std::string help);
  // Exactly one of `choices`; anything else is reported as unknown.
  void Choice(std::string name, std::string* dest, std::vector<std::string> choices,
              std::string help);
  // May be given any number of times; each non-empty value is appended.
  void Repeated(std::string name, std::vector<std::string>* dest, std::string meta,
                std::string help);
  // Arguments that do not start with '-': between `min` and `max` of them,
  // described by `meta` in the synopsis ("<input.nbt> [output.json]").
  // Without this call any positional is a usage error.
  void Positionals(std::vector<std::string>* dest, size_t min, size_t max, std::string meta);

  void Parse(int argc, char** argv);

  // Prints "<program>: <message>" and the synopsis to stderr; exits 2.
  [[noreturn]] void Fail(const std::string& message) const;

  // "usage: <program> [--flag=<meta>] ... <positionals>", one line.
  std::string Synopsis() const;

 private:
  struct Flag {
    std::string name;
    std::string meta;  // value syntax; empty for a bool
    std::string help;
    std::string default_text;
    std::string want;  // what a good value looks like
    // Stores a value; false if it is malformed.
    std::function<bool(std::string_view)> set;
    const char* problem = "malformed";  // how a bad value is reported
  };

  // "--name" or "--name=<meta>".
  static std::string Spelling(const Flag& flag);
  std::string Help() const;

  std::string program_;
  std::vector<Flag> flags_;
  std::vector<std::string>* positionals_ = nullptr;
  size_t min_positionals_ = 0;
  size_t max_positionals_ = 0;
  std::string positional_meta_;
};

}  // namespace nymix

#endif  // SRC_UTIL_FLAGS_H_
