#include "tools/nymlint/flow.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <set>

namespace nymlint {
namespace {

constexpr const char* kTaintRule = "nymflow-identity-taint";
constexpr const char* kShardRule = "nymflow-shard-confinement";
constexpr size_t kMaxSteps = 12;     // SARIF code flows stay readable
constexpr int kFixpointCap = 12;     // monotone summaries converge far sooner

// Container mutators that make the receiver carry whatever was inserted.
constexpr std::array<const char*, 10> kInsertMethods = {
    "push_back", "emplace_back", "push_front", "insert", "emplace",
    "append",    "push",         "Append",     "Add",    "assign"};

bool InInsertSet(const std::string& name) {
  for (const char* entry : kInsertMethods) {
    if (name == entry) {
      return true;
    }
  }
  return false;
}

// The taint value of one expression/variable. `param_mask` tracks which of
// the enclosing function's parameters the value derives from (for
// summaries); `intrinsic` means it derives from a registry source.
struct Taint {
  bool intrinsic = false;
  uint32_t param_mask = 0;
  std::string origin;           // "field 'cookie'", "BrowserModel::CookieFor", ...
  std::vector<FlowStep> steps;  // provenance chain of the intrinsic part

  bool any() const { return intrinsic || param_mask != 0; }

  void Merge(const Taint& other) {
    if (other.intrinsic && !intrinsic) {
      intrinsic = true;
      origin = other.origin;
      steps = other.steps;
    }
    param_mask |= other.param_mask;
  }
};

void AppendStep(std::vector<FlowStep>& steps, FlowStep step) {
  if (steps.size() < kMaxSteps) {
    steps.push_back(std::move(step));
  }
}

// One function's interprocedural summary. Monotone under Merge, so the
// whole-program fixpoint terminates.
struct Summary {
  bool returns_intrinsic = false;
  std::string return_origin;
  std::vector<FlowStep> return_steps;
  uint32_t param_to_return = 0;
  uint32_t param_to_sink = 0;
  std::map<int, std::vector<FlowStep>> param_sink_steps;
  std::map<int, std::string> param_sink_name;
  // (shard-root param index, exposed param index): calling this function
  // parks the exposed argument inside the shard argument's state.
  std::set<std::pair<int, int>> shard_exposures;
  bool is_declassifier = false;

  // Merge returns true when anything fixpoint-relevant changed.
  bool MergeFrom(const Summary& other) {
    bool changed = false;
    if (other.returns_intrinsic && !returns_intrinsic) {
      returns_intrinsic = true;
      return_origin = other.return_origin;
      return_steps = other.return_steps;
      changed = true;
    }
    if ((param_to_return | other.param_to_return) != param_to_return) {
      param_to_return |= other.param_to_return;
      changed = true;
    }
    if ((param_to_sink | other.param_to_sink) != param_to_sink) {
      param_to_sink |= other.param_to_sink;
      changed = true;
    }
    for (const auto& [index, steps] : other.param_sink_steps) {
      if (param_sink_steps.find(index) == param_sink_steps.end()) {
        param_sink_steps[index] = steps;
        auto name = other.param_sink_name.find(index);
        if (name != other.param_sink_name.end()) {
          param_sink_name[index] = name->second;
        }
      }
    }
    size_t before = shard_exposures.size();
    shard_exposures.insert(other.shard_exposures.begin(), other.shard_exposures.end());
    changed = changed || shard_exposures.size() != before;
    return changed;
  }
};

struct VarInfo {
  std::vector<std::string> type_idents;
  bool is_const = false;
  bool is_ref = false;
  bool is_pointer = false;
  int param_index = -1;  // >= 0 for parameters
};

struct Engine {
  const SymbolModel& model;
  const IdentityRegistry& reg;
  std::map<std::string, Summary> summaries;
  std::vector<FlowFinding>* findings = nullptr;  // non-null on report pass
  std::set<std::string> emitted;                 // finding dedupe keys
  size_t call_edges = 0;

  bool TypeIn(const std::vector<std::string>& idents, const std::set<std::string>& set) const {
    for (const std::string& ident : idents) {
      if (set.count(ident)) {
        return true;
      }
    }
    return false;
  }

  // A registry entry matches either as "Type::name" (resolved receiver) or
  // as a bare name the registry author declared receiver-independent.
  bool MatchEntry(const std::set<std::string>& entries, const std::string& bare,
                  const std::vector<std::string>& qualified) const {
    for (const std::string& candidate : qualified) {
      if (entries.count(candidate)) {
        return true;
      }
    }
    return entries.count(bare) > 0;
  }

  const Summary* FindSummary(const std::string& bare,
                             const std::vector<std::string>& qualified,
                             bool is_member_call) const {
    for (const std::string& candidate : qualified) {
      auto it = summaries.find(candidate);
      if (it != summaries.end()) {
        return &it->second;
      }
    }
    if (!is_member_call) {
      auto it = summaries.find(bare);
      if (it != summaries.end()) {
        return &it->second;
      }
    }
    return nullptr;
  }
};

class FunctionAnalyzer {
 public:
  FunctionAnalyzer(Engine& engine, const FileModel& file, const FunctionInfo& fn)
      : e_(engine), file_(file), fn_(fn), toks_(file.tokens) {}

  Summary Run() {
    SeedVars();
    // Two statement passes so taint established late in a loop body reaches
    // uses earlier in it.
    for (int pass = 0; pass < 2; ++pass) {
      size_t l = fn_.body_begin;
      for (size_t j = fn_.body_begin; j <= fn_.body_end; ++j) {
        const std::string& t = j < fn_.body_end ? toks_[j].text : std::string(";");
        if (t == ";" || t == "{" || t == "}") {
          if (j > l) {
            AnalyzeStatement(l, j);
          }
          l = j + 1;
        }
      }
    }
    FlushShardFindings();
    return result_;
  }

 private:
  const std::string& Text(size_t i) const {
    static const std::string kEmpty;
    return i < toks_.size() ? toks_[i].text : kEmpty;
  }
  bool IsIdentTok(size_t i) const {
    return i < toks_.size() && toks_[i].kind == TokenKind::kIdentifier;
  }

  FlowStep Site(size_t i, std::string note) const {
    return FlowStep{file_.path, toks_[i].line, toks_[i].col, std::move(note)};
  }

  void SeedVars() {
    // Fields of the enclosing class participate in receiver typing and
    // source-type checks.
    if (const RecordInfo* record = e_.model.FindRecord(fn_.class_name)) {
      for (const TypedName& field : record->fields) {
        VarInfo var;
        var.type_idents = field.type_idents;
        var.is_const = field.is_const;
        var.is_ref = field.is_ref;
        var.is_pointer = field.is_pointer;
        vars_[field.name] = var;
      }
    }
    for (size_t i = 0; i < fn_.params.size() && i < 31; ++i) {
      const TypedName& param = fn_.params[i];
      if (param.name.empty()) {
        continue;
      }
      VarInfo var;
      var.type_idents = param.type_idents;
      var.is_const = param.is_const;
      var.is_ref = param.is_ref;
      var.is_pointer = param.is_pointer;
      var.param_index = static_cast<int>(i);
      vars_[param.name] = var;
      Taint taint;
      taint.param_mask = 1u << i;
      if (e_.TypeIn(param.type_idents, e_.reg.source_types)) {
        taint.intrinsic = true;
        taint.origin = "identity type parameter '" + param.name + "'";
        AppendStep(taint.steps,
                   FlowStep{file_.path, fn_.line, fn_.col,
                            "parameter '" + param.name + "' carries an identity type"});
      }
      taint_[param.name] = taint;
    }
  }

  size_t MatchParen(size_t open, size_t limit) const {
    int depth = 0;
    for (size_t j = open; j < limit; ++j) {
      const std::string& t = Text(j);
      if (t == "(") {
        ++depth;
      } else if (t == ")") {
        if (--depth == 0) {
          return j;
        }
      }
    }
    return limit;
  }

  // --- statements ---------------------------------------------------------

  void AnalyzeStatement(size_t l, size_t r) {
    if (l >= r) {
      return;
    }
    if (Text(l) == "else") {
      AnalyzeStatement(l + 1, r);
      return;
    }
    // `if (T* v = expr)` init-declarations need the paren contents analyzed
    // as a statement of their own so `v` gets registered with its type.
    if (Text(l) == "if" || Text(l) == "while" || Text(l) == "switch") {
      size_t open = l + 1;
      if (Text(open) == "constexpr") {
        ++open;
      }
      if (Text(open) == "(") {
        size_t close = MatchParen(open, r);
        AnalyzeStatement(open + 1, close);
        if (close + 1 < r) {
          AnalyzeStatement(close + 1, r);
        }
        return;
      }
    }
    // Range-for: `for (T v : expr)` registers the loop variable with its
    // declared type and taints it from the range expression.
    if (Text(l) == "for" && Text(l + 1) == "(") {
      size_t close = MatchParen(l + 1, r);
      size_t colon = close;
      int depth = 0;
      for (size_t j = l + 2; j < close; ++j) {
        const std::string& t = Text(j);
        if (t == "(" || t == "[" || t == "{" || t == "<") {
          ++depth;
        } else if (t == ")" || t == "]" || t == "}" || t == ">") {
          --depth;
        } else if (t == ":" && depth == 0) {
          colon = j;
          break;
        }
      }
      if (colon < close) {
        TypedName decl = TypedNameFrom(l + 2, colon);
        Taint range = Eval(colon + 1, close);
        if (!decl.name.empty()) {
          RegisterLocal(decl, colon);
          if (range.any()) {
            taint_[decl.name].Merge(range);
          }
        }
      } else {
        AnalyzeStatement(l + 2, close);
      }
      if (close + 1 < r) {
        AnalyzeStatement(close + 1, r);
      }
      return;
    }
    if (Text(l) == "return") {
      Taint value = Eval(l + 1, r);
      if (value.intrinsic && !result_.returns_intrinsic) {
        result_.returns_intrinsic = true;
        result_.return_origin = value.origin;
        result_.return_steps = value.steps;
      }
      result_.param_to_return |= value.param_mask;
      return;
    }
    if (TryParenInitDecl(l, r)) {
      return;
    }
    // First top-level assignment operator, if any. The lexer emits "=="
    // as two "=" tokens, so comparisons are excluded by neighbors.
    int depth = 0;
    size_t assign = r;
    bool compound = false;
    for (size_t j = l; j < r; ++j) {
      const std::string& t = Text(j);
      if (t == "(" || t == "[" || t == "{") {
        ++depth;
      } else if (t == ")" || t == "]" || t == "}") {
        --depth;
      } else if (t == "=" && depth == 0 && j > l) {
        const std::string& prev = Text(j - 1);
        const std::string& next = Text(j + 1);
        if (prev == "=" || prev == "!" || prev == "<" || prev == ">" || next == "=") {
          continue;
        }
        static constexpr std::array<const char*, 8> kCompound = {"+", "-", "*", "/",
                                                                 "%", "|", "&", "^"};
        compound = std::find(kCompound.begin(), kCompound.end(), prev) != kCompound.end();
        assign = j;
        break;
      }
    }
    if (assign == r) {
      Eval(l, r);
      return;
    }
    Taint rhs = Eval(assign + 1, r);
    size_t lhs_end = compound ? assign - 1 : assign;
    AssignTo(l, lhs_end, rhs, compound);
  }

  // `Type name(args);` declarations: constructor wiring. Registers the
  // variable, taints it from the constructor arguments, and treats a
  // shard-root construction as a shard context receiving its args.
  bool TryParenInitDecl(size_t l, size_t r) {
    size_t idents = 0;
    size_t name_idx = static_cast<size_t>(-1);
    size_t j = l;
    while (j < r) {
      const std::string& t = Text(j);
      if (toks_[j].kind == TokenKind::kIdentifier) {
        ++idents;
        name_idx = j;
        ++j;
        continue;
      }
      if (t == "::" || t == "&" || t == "*" || t == "const") {
        ++j;
        continue;
      }
      if (t == "<") {
        int depth = 0;
        while (j < r) {
          if (Text(j) == "<") ++depth;
          else if (Text(j) == ">" && --depth == 0) { ++j; break; }
          ++j;
        }
        continue;
      }
      break;
    }
    if (j >= r || Text(j) != "(" || idents < 2 || name_idx != j - 1) {
      return false;
    }
    TypedName decl = TypedNameFrom(l, j);
    if (decl.name.empty()) {
      return false;
    }
    RegisterLocal(decl, name_idx);
    size_t close = MatchParen(j, r);
    Taint args = Eval(j + 1, close);
    // Constructor args land in the object.
    if (args.any()) {
      taint_[decl.name].Merge(args);
    }
    VarInfo& var = vars_[decl.name];
    if (e_.TypeIn(var.type_idents, e_.reg.shard_roots)) {
      // `Simulation shard_a(&state)` — args are reachable from the shard.
      ExposeArgsToContext(decl.name, j + 1, close, name_idx);
    }
    return true;
  }

  void RegisterLocal(const TypedName& decl, size_t site) {
    VarInfo var;
    var.type_idents = decl.type_idents;
    var.is_const = decl.is_const;
    var.is_ref = decl.is_ref;
    var.is_pointer = decl.is_pointer;
    vars_[decl.name] = var;
    Taint taint;
    if (e_.TypeIn(decl.type_idents, e_.reg.source_types)) {
      taint.intrinsic = true;
      taint.origin = "identity type '" + decl.type_idents.front() + "'";
      AppendStep(taint.steps,
                 Site(site, "'" + decl.name + "' declared with identity type"));
    }
    taint_[decl.name] = taint;
  }

  // Lightweight re-parse of a declaration head (mirrors the model's
  // TypedName extraction, locally, for statement-level declarations).
  TypedName TypedNameFrom(size_t l, size_t r) {
    TypedName out;
    int depth = 0;
    std::vector<size_t> top_idents;
    for (size_t j = l; j < r; ++j) {
      const std::string& t = Text(j);
      if (t == "<") { ++depth; continue; }
      if (t == ">") { --depth; continue; }
      if (toks_[j].kind != TokenKind::kIdentifier) {
        if (depth == 0 && t == "&") out.is_ref = true;
        if (depth == 0 && t == "*") out.is_pointer = true;
        continue;
      }
      if (t == "const") {
        if (depth == 0) out.is_const = true;
        continue;
      }
      if (t == "std" || t == "constexpr" || t == "static" || t == "auto" ||
          t == "mutable") {
        continue;
      }
      if (depth == 0) {
        top_idents.push_back(j);
      }
      out.type_idents.push_back(t);
    }
    if (top_idents.size() >= 2) {
      out.name = Text(top_idents.back());
      out.type_idents.erase(
          std::remove(out.type_idents.begin(), out.type_idents.end(), out.name),
          out.type_idents.end());
    }
    return out;
  }

  void AssignTo(size_t l, size_t r, const Taint& rhs, bool compound) {
    // Member assignment: `obj.field = rhs` taints the whole object.
    for (size_t j = l; j < r; ++j) {
      if ((Text(j) == "." || Text(j) == "->") && j > l && IsIdentTok(j - 1)) {
        const std::string& base = Text(l);
        if (rhs.any() && toks_[l].kind == TokenKind::kIdentifier) {
          Taint merged = rhs;
          AppendStep(merged.steps,
                     Site(j - 1, "stored into field of '" + base + "'"));
          taint_[base].Merge(merged);
        }
        return;
      }
    }
    // Index assignment `x[i] = rhs` merges; find the name before '['.
    size_t name_idx = static_cast<size_t>(-1);
    bool indexed = false;
    for (size_t j = l; j < r; ++j) {
      if (Text(j) == "[") {
        indexed = true;
        break;
      }
      if (toks_[j].kind == TokenKind::kIdentifier && Text(j) != "const") {
        name_idx = j;
      }
    }
    if (name_idx == static_cast<size_t>(-1)) {
      return;
    }
    // Declaration when more than one top-level identifier precedes the name.
    TypedName decl = TypedNameFrom(l, indexed ? name_idx + 1 : r);
    if (!decl.name.empty() && vars_.find(decl.name) == vars_.end()) {
      RegisterLocal(decl, name_idx);
    }
    const std::string& target =
        decl.name.empty() ? Text(name_idx) : decl.name;
    if (compound || indexed) {
      if (rhs.any()) {
        taint_[target].Merge(rhs);
      }
      return;
    }
    Taint value = rhs;
    // Keep intrinsic source-typed variables tainted even across
    // reassignment — the type itself carries identity.
    auto var = vars_.find(target);
    if (var != vars_.end() && e_.TypeIn(var->second.type_idents, e_.reg.source_types)) {
      value.intrinsic = true;
      if (value.origin.empty()) {
        value.origin = "identity type '" + var->second.type_idents.front() + "'";
      }
    }
    if (var != vars_.end() && var->second.param_index >= 0 && var->second.is_ref) {
      value.param_mask |= 1u << var->second.param_index;
    }
    taint_[target] = value;
  }

  // --- expressions --------------------------------------------------------

  Taint Eval(size_t l, size_t r) {
    Taint out;
    size_t j = l;
    while (j < r) {
      if (!IsIdentTok(j)) {
        ++j;
        continue;
      }
      if (Text(j + 1) == "(" && j + 1 < r) {
        j = EvalCall(j, r, out);
        continue;
      }
      const std::string& name = Text(j);
      const std::string& prev = j > 0 ? Text(j - 1) : std::string();
      if (prev == "." || prev == "->") {
        // Field access `base.field`.
        if (e_.reg.source_fields.count(name)) {
          Taint field;
          field.intrinsic = true;
          field.origin = "field '" + name + "'";
          AppendStep(field.steps, Site(j, "reads identity field '" + name + "'"));
          out.Merge(field);
        }
        ++j;
        continue;
      }
      auto taint = taint_.find(name);
      if (taint != taint_.end()) {
        out.Merge(taint->second);
      }
      auto var = vars_.find(name);
      if (var != vars_.end() &&
          e_.TypeIn(var->second.type_idents, e_.reg.source_types)) {
        Taint typed;
        typed.intrinsic = true;
        typed.origin = "identity type '" + var->second.type_idents.front() + "'";
        AppendStep(typed.steps, Site(j, "'" + name + "' carries an identity type"));
        out.Merge(typed);
      }
      if (e_.reg.source_fields.count(name) && var == vars_.end()) {
        // Unqualified use of a registered identity field (own member).
        Taint field;
        field.intrinsic = true;
        field.origin = "field '" + name + "'";
        AppendStep(field.steps, Site(j, "reads identity field '" + name + "'"));
        out.Merge(field);
      }
      ++j;
    }
    return out;
  }

  // Resolves the receiver's type name for `base.name()` / `base->name()`.
  std::string ReceiverType(const std::string& base, bool arrow) const {
    auto var = vars_.find(base);
    if (var == vars_.end() || var->second.type_idents.empty()) {
      return "";
    }
    const std::vector<std::string>& idents = var->second.type_idents;
    if (arrow && idents.size() > 1 &&
        (idents[0] == "unique_ptr" || idents[0] == "shared_ptr" || idents[0] == "optional")) {
      return idents[1];
    }
    return idents[0];
  }

  // Evaluates the call whose name token is at `i`; merges the call's value
  // into `out` and returns the index to resume walking at.
  size_t EvalCall(size_t i, size_t limit, Taint& out) {
    const std::string& name = Text(i);
    size_t open = i + 1;
    size_t close = MatchParen(open, limit);

    // Receiver / qualifier.
    std::string recv_name;
    bool member_call = false;
    std::vector<std::string> qualified;
    const std::string& prev = i > 0 ? Text(i - 1) : std::string();
    if (prev == "." || prev == "->") {
      member_call = true;
      if (i >= 2 && IsIdentTok(i - 2)) {
        recv_name = Text(i - 2);
        if (recv_name == "this") {
          if (!fn_.class_name.empty()) {
            qualified.push_back(fn_.class_name + "::" + name);
          }
          recv_name.clear();
        } else {
          std::string type = ReceiverType(recv_name, prev == "->");
          if (!type.empty()) {
            qualified.push_back(type + "::" + name);
          }
        }
      }
    } else if (prev == "::" && i >= 2 && IsIdentTok(i - 2)) {
      qualified.push_back(Text(i - 2) + "::" + name);
    } else {
      if (!fn_.class_name.empty()) {
        qualified.push_back(fn_.class_name + "::" + name);
      }
      qualified.push_back(name);
    }

    // Arguments: top-level comma split.
    struct Arg {
      size_t l, r;
      std::string bare;  // non-empty when the arg is `x` or `&x`
      Taint taint;
    };
    std::vector<Arg> args;
    {
      int depth = 0;
      size_t item = open + 1;
      for (size_t j = open + 1; j <= close; ++j) {
        const std::string& t = j == close ? std::string(",") : Text(j);
        if (t == "(" || t == "[" || t == "{") {
          ++depth;
        } else if (t == ")" || t == "]" || t == "}") {
          --depth;
        } else if (t == "," && depth == 0) {
          if (j > item) {
            Arg arg{item, j, "", Taint{}};
            size_t first = item;
            if (Text(first) == "&") {
              ++first;
            }
            if (first + 1 == j && IsIdentTok(first)) {
              arg.bare = Text(first);
            }
            args.push_back(arg);
          }
          item = j + 1;
        }
      }
    }
    for (Arg& arg : args) {
      arg.taint = Eval(arg.l, arg.r);
    }

    Taint recv_taint;
    if (!recv_name.empty()) {
      auto it = taint_.find(recv_name);
      if (it != taint_.end()) {
        recv_taint = it->second;
      }
    }

    // 1) Declassifier: result is scrubbed, arguments are consumed.
    const Summary* summary = e_.FindSummary(name, qualified, member_call);
    if (e_.MatchEntry(e_.reg.declassifiers, member_call ? "" : name, qualified) ||
        e_.reg.declassifiers.count(name) > 0 ||
        (summary != nullptr && summary->is_declassifier)) {
      return close + 1;
    }

    // 2) Sink: tainted data must not arrive here.
    if (e_.MatchEntry(e_.reg.sinks, name, qualified)) {
      std::string sink_name = qualified.empty() ? name : qualified.front();
      for (size_t a = 0; a < args.size(); ++a) {
        CheckSinkValue(args[a].taint, i, sink_name);
      }
      CheckSinkValue(recv_taint, i, sink_name);
      return close + 1;
    }

    // 3) Source function: the result is identity.
    if (e_.MatchEntry(e_.reg.source_fns, member_call ? "" : name, qualified) ||
        e_.reg.source_fns.count(name) > 0) {
      std::string src = qualified.empty() ? name : qualified.front();
      Taint source;
      source.intrinsic = true;
      source.origin = "call to " + src;
      AppendStep(source.steps, Site(i, "identity source " + src + "()"));
      out.Merge(source);
      return close + 1;
    }

    // 4) Known function: apply its summary.
    if (summary != nullptr) {
      if (e_.findings != nullptr) {
        ++e_.call_edges;
      }
      std::string callee = qualified.empty() ? name : qualified.front();
      if (summary->returns_intrinsic) {
        Taint returned;
        returned.intrinsic = true;
        returned.origin = summary->return_origin;
        returned.steps = summary->return_steps;
        AppendStep(returned.steps, Site(i, "returned by " + callee + "()"));
        out.Merge(returned);
      }
      for (size_t a = 0; a < args.size() && a < 31; ++a) {
        const Taint& arg = args[a].taint;
        if (!arg.any()) {
          continue;
        }
        uint32_t bit = 1u << a;
        if (summary->param_to_sink & bit) {
          auto inner = summary->param_sink_steps.find(static_cast<int>(a));
          auto inner_name = summary->param_sink_name.find(static_cast<int>(a));
          std::string sink =
              inner_name != summary->param_sink_name.end() ? inner_name->second : callee;
          if (arg.intrinsic) {
            std::vector<FlowStep> steps = arg.steps;
            AppendStep(steps, Site(i, "passed into " + callee + "()"));
            if (inner != summary->param_sink_steps.end()) {
              for (const FlowStep& step : inner->second) {
                AppendStep(steps, step);
              }
            }
            EmitTaintFinding(i, sink, arg.origin, steps);
          }
          if (arg.param_mask != 0) {
            for (int p = 0; p < 31; ++p) {
              if ((arg.param_mask >> p) & 1u) {
                result_.param_to_sink |= 1u << p;
                if (result_.param_sink_steps.find(p) == result_.param_sink_steps.end()) {
                  std::vector<FlowStep> steps;
                  AppendStep(steps, Site(i, "passed into " + callee + "()"));
                  if (inner != summary->param_sink_steps.end()) {
                    for (const FlowStep& step : inner->second) {
                      AppendStep(steps, step);
                    }
                  }
                  result_.param_sink_steps[p] = std::move(steps);
                  result_.param_sink_name[p] = sink;
                }
              }
            }
          }
        }
        if (summary->param_to_return & bit) {
          Taint through = arg;
          if (through.intrinsic) {
            AppendStep(through.steps, Site(i, "flows through " + callee + "()"));
          }
          out.Merge(through);
        }
      }
      ApplyShardSummary(*summary, args_view(args), i);
      ShardExposeDirect(recv_name, args_view(args), i);
      return close + 1;
    }

    // 5) Unknown callee: conservative propagation.
    Taint merged = recv_taint;
    for (const Arg& arg : args) {
      merged.Merge(arg.taint);
    }
    if (merged.any()) {
      out.Merge(merged);
    }
    if (!recv_name.empty() && InInsertSet(name)) {
      Taint inserted;
      for (const Arg& arg : args) {
        inserted.Merge(arg.taint);
      }
      if (inserted.any()) {
        AppendStep(inserted.steps,
                   Site(i, "inserted into container '" + recv_name + "'"));
        taint_[recv_name].Merge(inserted);
      }
    }
    ShardExposeDirect(recv_name, args_view(args), i);
    return close + 1;
  }

  struct ArgView {
    std::string bare;
    bool is_addr = false;
  };
  template <typename Args>
  std::vector<ArgView> args_view(const Args& args) const {
    std::vector<ArgView> out;
    for (const auto& arg : args) {
      ArgView view;
      view.bare = arg.bare;
      view.is_addr = arg.l < toks_.size() && Text(arg.l) == "&";
      out.push_back(view);
    }
    return out;
  }

  void CheckSinkValue(const Taint& taint, size_t site, const std::string& sink) {
    if (taint.intrinsic) {
      std::vector<FlowStep> steps = taint.steps;
      AppendStep(steps, Site(site, "reaches sink " + sink + "()"));
      EmitTaintFinding(site, sink, taint.origin, steps);
    }
    if (taint.param_mask != 0) {
      for (int p = 0; p < 31; ++p) {
        if ((taint.param_mask >> p) & 1u) {
          result_.param_to_sink |= 1u << p;
          if (result_.param_sink_steps.find(p) == result_.param_sink_steps.end()) {
            std::vector<FlowStep> steps;
            AppendStep(steps, Site(site, "reaches sink " + sink + "()"));
            result_.param_sink_steps[p] = std::move(steps);
            result_.param_sink_name[p] = sink;
          }
        }
      }
    }
  }

  void EmitTaintFinding(size_t site, const std::string& sink, const std::string& origin,
                        std::vector<FlowStep> steps) {
    if (e_.findings == nullptr) {
      return;
    }
    std::string source = origin.empty() ? "identity value" : origin;
    FlowFinding finding;
    finding.diag = Diagnostic{
        file_.path, toks_[site].line, toks_[site].col, kTaintRule,
        "identity-tainted value (" + source + ") reaches cross-boundary sink " + sink +
            "(); route it through a src/sanitize declassifier or sever the path"};
    finding.fingerprint = std::string(kTaintRule) + "|" + file_.path + "|" +
                          fn_.qualified_name + "|" + source + "|" + sink;
    finding.steps = std::move(steps);
    std::string key = finding.fingerprint + "|" + std::to_string(finding.diag.line) + "|" +
                      std::to_string(finding.diag.col);
    if (e_.emitted.insert(key).second) {
      e_.findings->push_back(std::move(finding));
    }
  }

  // --- shard confinement ----------------------------------------------------

  bool ShardSafe(const VarInfo& var) const {
    return e_.TypeIn(var.type_idents, e_.reg.channel_types) ||
           e_.TypeIn(var.type_idents, e_.reg.shared_safe) ||
           e_.TypeIn(var.type_idents, e_.reg.shard_roots) || var.is_const;
  }

  bool SharingArg(const ArgView& view, const VarInfo& var) const {
    return view.is_addr || var.is_pointer || (var.is_ref && !var.is_const);
  }

  void Expose(const std::string& object, const std::string& context, size_t site) {
    auto var = vars_.find(object);
    if (var == vars_.end() || ShardSafe(var->second)) {
      return;
    }
    auto ctx_var = vars_.find(context);
    if (ctx_var != vars_.end() && ctx_var->second.param_index >= 0 &&
        var->second.param_index >= 0) {
      result_.shard_exposures.insert(
          {ctx_var->second.param_index, var->second.param_index});
    }
    auto& sites = exposures_[object];
    if (sites.find(context) == sites.end()) {
      sites[context] = Site(site, "'" + object + "' exposed to shard '" + context + "'");
    }
  }

  // Direct exposure: a member call on a shard-root variable shares its
  // mutable pointer/reference arguments with that shard.
  void ShardExposeDirect(const std::string& recv_name, const std::vector<ArgView>& args,
                         size_t site) {
    if (recv_name.empty()) {
      return;
    }
    auto recv = vars_.find(recv_name);
    if (recv == vars_.end() || !e_.TypeIn(recv->second.type_idents, e_.reg.shard_roots)) {
      return;
    }
    for (const ArgView& arg : args) {
      if (arg.bare.empty() || arg.bare == recv_name) {
        continue;
      }
      auto var = vars_.find(arg.bare);
      if (var != vars_.end() && SharingArg(arg, var->second)) {
        Expose(arg.bare, recv_name, site);
      }
    }
  }

  void ExposeArgsToContext(const std::string& context, size_t l, size_t r, size_t site) {
    int depth = 0;
    size_t item = l;
    for (size_t j = l; j <= r; ++j) {
      const std::string& t = j == r ? std::string(",") : Text(j);
      if (t == "(" || t == "[" || t == "{") ++depth;
      else if (t == ")" || t == "]" || t == "}") --depth;
      else if (t == "," && depth == 0) {
        size_t first = item;
        bool is_addr = Text(first) == "&";
        if (is_addr) ++first;
        if (first + 1 == j && IsIdentTok(first)) {
          auto var = vars_.find(Text(first));
          if (var != vars_.end() && SharingArg(ArgView{Text(first), is_addr}, var->second)) {
            Expose(Text(first), context, site);
          }
        }
        item = j + 1;
      }
    }
  }

  // Summary-mediated exposure: `Wire(shard_a, &state)` where Wire parks its
  // second parameter inside its first (a shard root).
  void ApplyShardSummary(const Summary& summary, const std::vector<ArgView>& args,
                         size_t site) {
    for (const auto& [shard_param, exposed_param] : summary.shard_exposures) {
      if (shard_param < 0 || exposed_param < 0 ||
          static_cast<size_t>(shard_param) >= args.size() ||
          static_cast<size_t>(exposed_param) >= args.size()) {
        continue;
      }
      const std::string& context = args[static_cast<size_t>(shard_param)].bare;
      const ArgView& exposed = args[static_cast<size_t>(exposed_param)];
      if (context.empty() || exposed.bare.empty()) {
        continue;
      }
      auto ctx_var = vars_.find(context);
      if (ctx_var == vars_.end() ||
          !e_.TypeIn(ctx_var->second.type_idents, e_.reg.shard_roots)) {
        continue;
      }
      auto var = vars_.find(exposed.bare);
      if (var != vars_.end() && SharingArg(exposed, var->second)) {
        Expose(exposed.bare, context, site);
      }
    }
  }

  void FlushShardFindings() {
    if (e_.findings == nullptr) {
      return;
    }
    for (const auto& [object, contexts] : exposures_) {
      if (contexts.size() < 2) {
        continue;
      }
      std::vector<std::string> names;
      for (const auto& [context, site] : contexts) {
        names.push_back(context);
      }
      std::sort(names.begin(), names.end());
      const FlowStep& first = contexts.at(names[0]);
      const FlowStep& second = contexts.at(names[1]);
      const FlowStep& report = second.line >= first.line ? second : first;
      FlowFinding finding;
      finding.diag = Diagnostic{
          file_.path, report.line, report.col, kShardRule,
          "mutable state '" + object + "' is reachable from shard contexts '" + names[0] +
              "' and '" + names[1] +
              "'; cross-shard state must flow through a CrossShardChannel "
              "(src/parallel/channel.h) or be registered shared-safe"};
      finding.fingerprint = std::string(kShardRule) + "|" + file_.path + "|" +
                            fn_.qualified_name + "|" + object + "|" + names[0] + "+" +
                            names[1];
      for (const std::string& context : names) {
        AppendStep(finding.steps, contexts.at(context));
      }
      std::string key = finding.fingerprint;
      if (e_.emitted.insert(key).second) {
        e_.findings->push_back(std::move(finding));
      }
    }
  }

  Engine& e_;
  const FileModel& file_;
  const FunctionInfo& fn_;
  const std::vector<Token>& toks_;
  std::map<std::string, VarInfo> vars_;
  std::map<std::string, Taint> taint_;
  std::map<std::string, std::map<std::string, FlowStep>> exposures_;
  Summary result_;
};

}  // namespace

FlowAnalysis RunFlow(const SymbolModel& model, const IdentityRegistry& registry) {
  FlowAnalysis analysis;
  analysis.errors = registry.errors;
  for (const SymbolModel::MarkerIssue& issue : model.marker_issues) {
    analysis.errors.push_back(
        Diagnostic{issue.path, issue.line, 1, "nymflow-registry-error", issue.message});
  }

  Engine engine{.model = model, .reg = registry, .summaries = {}, .emitted = {}};

  // Seed declassifier summaries from in-code annotations; registry-declared
  // declassifiers are matched directly at call sites.
  for (const FileModel& file : model.files) {
    for (const FunctionInfo& fn : file.functions) {
      ++analysis.functions;
      if (fn.declassifies.count(kTaintRule)) {
        engine.summaries[fn.qualified_name].is_declassifier = true;
      }
    }
  }

  // Fixpoint over function summaries.
  for (int pass = 0; pass < kFixpointCap; ++pass) {
    bool changed = false;
    for (const FileModel& file : model.files) {
      for (const FunctionInfo& fn : file.functions) {
        if (!fn.has_body) {
          continue;
        }
        FunctionAnalyzer analyzer(engine, file, fn);
        Summary summary = analyzer.Run();
        changed = engine.summaries[fn.qualified_name].MergeFrom(summary) || changed;
      }
    }
    if (!changed) {
      break;
    }
  }

  // Reporting pass with converged summaries.
  engine.findings = &analysis.findings;
  for (const FileModel& file : model.files) {
    for (const FunctionInfo& fn : file.functions) {
      if (!fn.has_body) {
        continue;
      }
      FunctionAnalyzer analyzer(engine, file, fn);
      analyzer.Run();
    }
  }
  analysis.call_edges = engine.call_edges;

  std::sort(analysis.findings.begin(), analysis.findings.end(),
            [](const FlowFinding& a, const FlowFinding& b) { return a.diag < b.diag; });
  return analysis;
}

}  // namespace nymlint
