#include "src/util/flags.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>

namespace nymix {

namespace {

// The whole of `text` as one decimal number, or nullopt.
template <typename T>
std::optional<T> ParseWhole(std::string_view text) {
  T value{};
  auto [end, error] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (text.empty() || error != std::errc() || end != text.data() + text.size()) {
    return std::nullopt;
  }
  return value;
}

// A setter that stores what `parse` returns; nullopt means malformed.
template <typename T, typename Parse>
std::function<bool(std::string_view)> Store(T* dest, Parse parse) {
  return [dest, parse](std::string_view text) {
    auto value = parse(text);
    if (value.has_value()) {
      *dest = std::move(*value);
    }
    return value.has_value();
  };
}

std::optional<std::string> NonEmpty(std::string_view text) {
  return text.empty() ? std::nullopt : std::optional<std::string>(text);
}

}  // namespace

std::optional<std::vector<int>> ParseIntList(std::string_view text, int min_value) {
  std::vector<int> values;
  while (true) {
    size_t comma = text.find(',');
    std::optional<int> value = ParseWhole<int>(text.substr(0, comma));
    if (!value.has_value() || *value < min_value) {
      return std::nullopt;
    }
    values.push_back(*value);
    if (comma == std::string_view::npos) {
      return values;
    }
    text.remove_prefix(comma + 1);
  }
}

std::optional<uint64_t> ParseUint64(std::string_view text) { return ParseWhole<uint64_t>(text); }

void FlagSet::Bool(std::string name, bool* dest, std::string help) {
  flags_.push_back({std::move(name), "", std::move(help), "", "",
                    Store(dest, [](std::string_view) { return std::optional<bool>(true); })});
}

void FlagSet::Int(std::string name, int* dest, int min_value, std::string help) {
  flags_.push_back({std::move(name), "<n>", std::move(help), std::to_string(*dest),
                    "an integer >= " + std::to_string(min_value),
                    Store(dest, [min_value](std::string_view text) {
                      std::optional<int> value = ParseWhole<int>(text);
                      return value.has_value() && *value >= min_value ? value : std::nullopt;
                    })});
}

void FlagSet::Uint64(std::string name, uint64_t* dest, std::string help) {
  flags_.push_back({std::move(name), "<n>", std::move(help), std::to_string(*dest),
                    "an unsigned integer", Store(dest, ParseUint64)});
}

void FlagSet::IntList(std::string name, std::vector<int>* dest, int min_value, std::string help) {
  std::string defaults;
  for (int value : *dest) {
    defaults += (defaults.empty() ? "" : ",") + std::to_string(value);
  }
  flags_.push_back({std::move(name), "<n,...>", std::move(help), defaults,
                    "comma-separated integers >= " + std::to_string(min_value),
                    Store(dest, [min_value](std::string_view text) {
                      return ParseIntList(text, min_value);
                    })});
}

void FlagSet::String(std::string name, std::string* dest, std::string meta, std::string help) {
  flags_.push_back({std::move(name), std::move(meta), std::move(help), *dest,
                    "a non-empty value", Store(dest, NonEmpty)});
}

void FlagSet::Choice(std::string name, std::string* dest, std::vector<std::string> choices,
                     std::string help) {
  std::string meta;
  for (const std::string& choice : choices) {
    meta += (meta.empty() ? "" : "|") + choice;
  }
  auto known = [choices = std::move(choices)](std::string_view text) {
    bool found = std::find(choices.begin(), choices.end(), text) != choices.end();
    return found ? std::optional<std::string>(text) : std::nullopt;
  };
  flags_.push_back({std::move(name), meta, std::move(help), *dest, meta, Store(dest, known),
                    "unknown"});
}

void FlagSet::Repeated(std::string name, std::vector<std::string>* dest, std::string meta,
                       std::string help) {
  flags_.push_back({std::move(name), std::move(meta), std::move(help), "", "a non-empty value",
                    [dest](std::string_view text) {
                      dest->emplace_back(text);
                      return !text.empty();
                    }});
}

void FlagSet::Positionals(std::vector<std::string>* dest, size_t min, size_t max,
                          std::string meta) {
  positionals_ = dest;
  min_positionals_ = min;
  max_positionals_ = max;
  positional_meta_ = std::move(meta);
}

void FlagSet::Parse(int argc, char** argv) {
  std::vector<std::string> positionals;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help") {
      std::fputs(Help().c_str(), stdout);
      std::exit(0);
    }
    if (arg.empty() || arg[0] != '-') {
      if (positionals.size() == max_positionals_) {
        Fail("unexpected argument \"" + arg + "\"");
      }
      positionals.push_back(arg);
      continue;
    }
    const size_t eq = arg.find('=');
    const std::string name = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    auto flag = std::find_if(flags_.begin(), flags_.end(), [&name](const Flag& candidate) {
      return name == "--" + candidate.name;
    });
    if (flag == flags_.end()) {
      Fail("unknown flag \"" + arg + "\"");
    } else if (flag->meta.empty() && eq != std::string::npos) {
      Fail(name + " takes no value");
    } else if (!flag->meta.empty() && eq == std::string::npos) {
      Fail(name + " needs a value (" + Spelling(*flag) + ")");
    } else if (!flag->set(value)) {
      Fail(std::string(flag->problem) + " " + name + " \"" + value + "\" (want " + flag->want +
           ")");
    }
  }
  if (positionals.size() < min_positionals_) {
    Fail("missing " + positional_meta_);
  }
  if (positionals_ != nullptr) {
    *positionals_ = std::move(positionals);
  }
}

void FlagSet::Fail(const std::string& message) const {
  std::fprintf(stderr, "%s: %s\n%s\n", program_.c_str(), message.c_str(), Synopsis().c_str());
  std::exit(2);
}

std::string FlagSet::Spelling(const Flag& flag) {
  return "--" + flag.name + (flag.meta.empty() ? "" : "=" + flag.meta);
}

std::string FlagSet::Synopsis() const {
  std::string out = "usage: " + program_;
  for (const Flag& flag : flags_) {
    out += " [" + Spelling(flag) + "]";
  }
  return positional_meta_.empty() ? out : out + " " + positional_meta_;
}

std::string FlagSet::Help() const {
  std::string out = Synopsis() + "\n";
  for (const Flag& flag : flags_) {
    out += "  " + Spelling(flag) + "\n      " + flag.help +
           (flag.default_text.empty() ? "" : " (default: " + flag.default_text + ")") + "\n";
  }
  return out;
}

}  // namespace nymix
