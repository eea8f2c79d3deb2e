#include "rules.hpp"

#include <algorithm>
#include <cstddef>
#include <initializer_list>
#include <optional>

namespace detlint {
namespace {

constexpr std::string_view kRuleIds[] = {"unordered-iter", "wall-clock",
                                         "ptr-order", "layering",
                                         "shared-state"};

bool known_rule(std::string_view rule) {
  return std::find(std::begin(kRuleIds), std::end(kRuleIds), rule) !=
         std::end(kRuleIds);
}

// ---- annotations -----------------------------------------------------------

struct Annotation {
  int line = 0;        ///< line the directive was written on
  int target = 0;      ///< line whose findings it suppresses
  std::string rule;
  bool used = false;
};

struct Directives {
  std::vector<Annotation> allows;
  std::vector<Finding> malformed;      ///< bad-annotation findings
  std::optional<std::string> fixture_layer;
};

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

/// Parses `detlint:` directives out of the comment stream. A standalone
/// annotation comment targets the next line that is not itself a standalone
/// comment (so annotations can sit above the code line they justify, and can
/// stack); an inline annotation targets its own line.
Directives parse_directives(std::string_view path,
                            const std::vector<Comment>& comments) {
  Directives out;
  std::set<int> standalone_comment_lines;
  for (const Comment& c : comments) {
    if (c.standalone) standalone_comment_lines.insert(c.line);
  }
  for (const Comment& c : comments) {
    const std::size_t at = c.text.find("detlint:");
    if (at == std::string::npos) continue;
    std::string_view rest = trim(std::string_view(c.text).substr(at + 8));
    auto bad = [&](std::string why) {
      out.malformed.push_back({std::string(path), c.line, "bad-annotation",
                               std::move(why)});
    };
    if (rest.rfind("fixture-layer(", 0) == 0) {
      const std::size_t close = rest.find(')');
      if (close == std::string_view::npos) {
        bad("unclosed fixture-layer(...) directive");
        continue;
      }
      out.fixture_layer = std::string(trim(rest.substr(14, close - 14)));
      continue;
    }
    if (rest.rfind("allow(", 0) != 0) {
      bad("unrecognized detlint directive (expected allow(<rule>) -- <why>)");
      continue;
    }
    const std::size_t close = rest.find(')');
    if (close == std::string_view::npos) {
      bad("unclosed allow(...) directive");
      continue;
    }
    const std::string rule(trim(rest.substr(6, close - 6)));
    if (!known_rule(rule)) {
      bad("allow(" + rule + "): unknown rule id");
      continue;
    }
    std::string_view tail = trim(rest.substr(close + 1));
    if (tail.rfind("--", 0) != 0 || trim(tail.substr(2)).empty()) {
      bad("allow(" + rule +
          ") is missing its mandatory justification: write "
          "`allow(" + rule + ") -- <why this is safe>`");
      continue;
    }
    Annotation a;
    a.line = c.line;
    a.rule = rule;
    a.target = c.line;
    if (standalone_comment_lines.count(c.line) != 0) {
      int t = c.line + 1;
      while (standalone_comment_lines.count(t) != 0) ++t;
      a.target = t;
    }
    out.allows.push_back(std::move(a));
  }
  return out;
}

// ---- token helpers ---------------------------------------------------------

bool is_ident(const Token& t, std::string_view text) {
  return t.kind == TokKind::kIdent && t.text == text;
}
bool is_punct(const Token& t, std::string_view text) {
  return t.kind == TokKind::kPunct && t.text == text;
}

/// Advances past a balanced template argument list; `i` indexes the `<`
/// token. Returns the index one past the matching `>`, treating `>>` as two
/// closers. Returns npos when unbalanced (declaration spans something the
/// lexer did not expect) so callers can bail out quietly.
std::size_t skip_template_args(const std::vector<Token>& toks, std::size_t i) {
  int depth = 0;
  for (; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (is_punct(t, "<")) ++depth;
    else if (is_punct(t, "<<")) depth += 2;
    else if (is_punct(t, ">")) --depth;
    else if (is_punct(t, ">>")) depth -= 2;
    else if (is_punct(t, ";")) return std::string_view::npos;  // gave up
    if (depth <= 0 && (is_punct(t, ">") || is_punct(t, ">>"))) return i + 1;
  }
  return std::string_view::npos;
}

/// Collects identifiers declared with an unordered container type — member
/// and local variables, functions returning (references to) unordered
/// containers, and `using`/`typedef` aliases of unordered types (plus the
/// variables later declared with those aliases).
std::set<std::string, std::less<>> collect_unordered_names(
    const std::vector<Token>& toks) {
  std::set<std::string, std::less<>> names;
  std::set<std::string, std::less<>> alias_types;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const bool unordered = is_ident(toks[i], "unordered_map") ||
                           is_ident(toks[i], "unordered_set") ||
                           is_ident(toks[i], "unordered_multimap") ||
                           is_ident(toks[i], "unordered_multiset");
    if (!unordered || i + 1 >= toks.size() || !is_punct(toks[i + 1], "<")) {
      continue;
    }
    // Alias? look back across `std ::` for `using X =` / `typedef`.
    std::size_t b = i;
    if (b >= 2 && is_punct(toks[b - 1], "::") && is_ident(toks[b - 2], "std")) {
      b -= 2;
    }
    const bool is_using_alias = b >= 2 && is_punct(toks[b - 1], "=") &&
                                toks[b - 2].kind == TokKind::kIdent && b >= 3 &&
                                is_ident(toks[b - 3], "using");
    std::size_t end = skip_template_args(toks, i + 1);
    if (end == std::string_view::npos) continue;
    if (is_using_alias) {
      alias_types.insert(toks[b - 2].text);
      continue;
    }
    // typedef std::unordered_map<...> X;
    bool is_typedef = false;
    for (std::size_t k = b; k-- > 0;) {
      if (is_punct(toks[k], ";") || is_punct(toks[k], "{") ||
          is_punct(toks[k], "}")) {
        break;
      }
      if (is_ident(toks[k], "typedef")) {
        is_typedef = true;
        break;
      }
    }
    // Skip ref/pointer/cv decoration, then take the declared name.
    while (end < toks.size() &&
           (is_punct(toks[end], "&") || is_punct(toks[end], "*") ||
            is_ident(toks[end], "const"))) {
      ++end;
    }
    if (end < toks.size() && toks[end].kind == TokKind::kIdent) {
      (is_typedef ? alias_types : names).insert(toks[end].text);
    }
  }
  // Second pass: variables declared with an aliased unordered type.
  if (!alias_types.empty()) {
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
      if (toks[i].kind != TokKind::kIdent ||
          alias_types.count(toks[i].text) == 0) {
        continue;
      }
      std::size_t j = i + 1;
      while (j < toks.size() &&
             (is_punct(toks[j], "&") || is_punct(toks[j], "*") ||
              is_ident(toks[j], "const"))) {
        ++j;
      }
      if (j < toks.size() && toks[j].kind == TokKind::kIdent) {
        names.insert(toks[j].text);
      }
    }
  }
  return names;
}

std::size_t matching_paren(const std::vector<Token>& toks, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < toks.size(); ++i) {
    if (is_punct(toks[i], "(")) ++depth;
    else if (is_punct(toks[i], ")") && --depth == 0) return i;
  }
  return std::string_view::npos;
}

/// If tokens [first, last) form a plain access path — identifiers joined by
/// `.` / `->` / `::`, optionally ending in one call `(...)` — returns the
/// final identifier (the thing actually iterated); otherwise nullopt.
std::optional<std::string> access_path_root(const std::vector<Token>& toks,
                                            std::size_t first,
                                            std::size_t last) {
  std::string root;
  std::size_t i = first;
  for (; i < last; ++i) {
    const Token& t = toks[i];
    if (t.kind == TokKind::kIdent) {
      root = t.text;
      continue;
    }
    if (is_punct(t, ".") || is_punct(t, "->") || is_punct(t, "::")) continue;
    if (is_punct(t, "(")) {
      // Only a single trailing call is a "plain" path.
      const std::size_t close = matching_paren(toks, i);
      if (close == last - 1 && !root.empty()) return root;
      return std::nullopt;
    }
    return std::nullopt;
  }
  if (root.empty()) return std::nullopt;
  return root;
}

void rule_unordered_iter(std::string_view path, const std::vector<Token>& toks,
                         const std::set<std::string, std::less<>>& tracked,
                         std::vector<Finding>& out) {
  if (tracked.empty()) return;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!is_ident(toks[i], "for") || !is_punct(toks[i + 1], "(")) continue;
    const std::size_t close = matching_paren(toks, i + 1);
    if (close == std::string_view::npos) continue;
    // Range-for: a ':' at paren depth 1.
    std::size_t colon = std::string_view::npos;
    int depth = 0;
    for (std::size_t j = i + 1; j < close; ++j) {
      if (is_punct(toks[j], "(") || is_punct(toks[j], "[")) ++depth;
      else if (is_punct(toks[j], ")") || is_punct(toks[j], "]")) --depth;
      else if (depth == 1 && is_punct(toks[j], ":")) {
        colon = j;
        break;
      }
    }
    if (colon != std::string_view::npos) {
      const auto root = access_path_root(toks, colon + 1, close);
      if (root && tracked.count(*root) != 0) {
        out.push_back({std::string(path), toks[i].line, "unordered-iter",
                       "range-for over unordered container `" + *root +
                           "`: hash order is not deterministic across "
                           "insertion histories; iterate a sorted view or "
                           "switch the container to std::map/std::set"});
      }
      continue;
    }
    // Iterator loop: `tracked.begin()` / `tracked->cbegin()` in the header.
    for (std::size_t j = i + 2; j + 2 < close; ++j) {
      if (toks[j].kind == TokKind::kIdent && tracked.count(toks[j].text) != 0 &&
          (is_punct(toks[j + 1], ".") || is_punct(toks[j + 1], "->")) &&
          (is_ident(toks[j + 2], "begin") || is_ident(toks[j + 2], "cbegin"))) {
        out.push_back({std::string(path), toks[i].line, "unordered-iter",
                       "iterator loop over unordered container `" +
                           toks[j].text +
                           "`: hash order is not deterministic; iterate a "
                           "sorted view instead"});
        break;
      }
    }
  }
}

// ---- wall-clock / ambient nondeterminism -----------------------------------

void rule_wall_clock(std::string_view path, const std::vector<Token>& toks,
                     std::vector<Finding>& out) {
  static constexpr std::string_view kBannedAnywhere[] = {
      "system_clock",  "steady_clock",   "high_resolution_clock",
      "gettimeofday",  "random_device",  "mt19937",
      "mt19937_64",    "default_random_engine", "minstd_rand",
      "minstd_rand0",  "ranlux24",       "ranlux48",
      "ranlux24_base", "ranlux48_base",  "knuth_b",
      "clock_gettime", "localtime",      "gmtime",
  };
  // Tokens that can precede a plain function *call* (never a declaration).
  static constexpr std::string_view kCallContext[] = {
      "=", "(", ",", ";", "{", "}", "return", "?", ":",  "<",  ">",
      "+", "-", "*", "/", "%", "!", "&&",     "|", "||", "&",  "^",
  };
  auto in_call_context = [&](std::size_t i) {
    if (i == 0) return false;
    const Token& p = toks[i - 1];
    if (p.kind == TokKind::kIdent) return p.text == "return";
    return std::find(std::begin(kCallContext), std::end(kCallContext),
                     p.text) != std::end(kCallContext);
  };
  auto add = [&](const Token& t, const std::string& what,
                 const std::string& instead) {
    out.push_back({std::string(path), t.line, "wall-clock",
                   what + ": " + instead});
  };
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdent) continue;
    for (std::string_view banned : kBannedAnywhere) {
      if (t.text != banned) continue;
      const bool clockish = banned.find("clock") != std::string_view::npos ||
                            banned == "gettimeofday" || banned == "localtime" ||
                            banned == "gmtime";
      add(t, "ambient nondeterminism source `" + t.text + "`",
          clockish ? "use sim::Simulation time, not the wall clock"
                   : "draw from a forked moon::Rng stream instead");
      break;
    }
    const bool after_member =
        i > 0 && (is_punct(toks[i - 1], ".") || is_punct(toks[i - 1], "->"));
    const bool after_scope = i > 0 && is_punct(toks[i - 1], "::");
    const bool std_qualified =
        after_scope && i >= 2 && is_ident(toks[i - 2], "std");
    if ((t.text == "rand" || t.text == "srand") && !after_member &&
        (!after_scope || std_qualified)) {
      add(t, "libc `" + t.text + "`",
          "draw from a forked moon::Rng stream instead");
      continue;
    }
    const bool called = i + 1 < toks.size() && is_punct(toks[i + 1], "(");
    if (t.text == "time" && called && !after_member && !after_scope &&
        in_call_context(i)) {
      add(t, "libc `time()`", "use sim::Simulation time, not the wall clock");
      continue;
    }
    if (t.text == "shuffle" && called &&
        (std_qualified || (!after_member && !after_scope &&
                           in_call_context(i)))) {
      add(t, "`std::shuffle`",
          "use moon::Rng::shuffle on a forked stream instead");
      continue;
    }
  }
}

// ---- pointer-keyed ordering ------------------------------------------------

void rule_ptr_order(std::string_view path, const std::vector<Token>& toks,
                    std::vector<Finding>& out) {
  static constexpr std::string_view kOrderedByKey[] = {
      "map", "set", "multimap", "multiset", "priority_queue", "less",
      "greater",
  };
  for (std::size_t i = 2; i + 1 < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdent || !is_punct(toks[i - 1], "::") ||
        !is_ident(toks[i - 2], "std") || !is_punct(toks[i + 1], "<")) {
      continue;
    }
    if (std::find(std::begin(kOrderedByKey), std::end(kOrderedByKey),
                  t.text) == std::end(kOrderedByKey)) {
      continue;
    }
    // Scan the first template argument (up to a depth-1 comma or the close)
    // for a pointer declarator.
    int angle = 0, paren = 0;
    bool ptr = false;
    for (std::size_t j = i + 1; j < toks.size(); ++j) {
      const Token& a = toks[j];
      if (is_punct(a, "<")) ++angle;
      else if (is_punct(a, ">")) --angle;
      else if (is_punct(a, ">>")) angle -= 2;
      else if (is_punct(a, "(")) ++paren;
      else if (is_punct(a, ")")) --paren;
      else if (is_punct(a, ";")) break;
      if (angle <= 0) break;
      if (angle == 1 && paren == 0 && is_punct(a, ",")) break;
      if (angle >= 1 && is_punct(a, "*")) {
        ptr = true;
        break;
      }
    }
    if (ptr) {
      out.push_back({std::string(path), t.line, "ptr-order",
                     "pointer-keyed std::" + t.text +
                         ": iteration/comparison order follows addresses, "
                         "which vary run to run; key by a stable id instead"});
    }
  }
}

// ---- shared mutable state --------------------------------------------------

/// What a `{` opened, as far as the shared-state rule cares.
enum class Scope {
  kNamespace,  ///< namespace / extern "C" body: declarations are globals
  kClass,      ///< class / struct / union / enum body
  kFunction,   ///< function, lambda or block body: `static` makes a global
  kInit,       ///< braced initializer (or anything unrecognized): skipped
};

bool is_one_of(const Token& t, std::initializer_list<std::string_view> words) {
  return std::find(words.begin(), words.end(), t.text) != words.end();
}

/// The declaration part of the statement toks[begin, end): its tokens at
/// bracket and template depth 0, up to the first `=` or braced initializer.
struct DeclPart {
  std::vector<std::size_t> tokens;  ///< indices into the token stream
  bool declarator_parens = false;   ///< a `(` at depth 0: a function
};

DeclPart decl_part(const std::vector<Token>& toks, std::size_t begin,
                   std::size_t end) {
  DeclPart d;
  int nest = 0;   // () [] {}
  int angle = 0;  // template arguments
  for (std::size_t i = begin; i < end; ++i) {
    const Token& t = toks[i];
    if (nest == 0 && (is_punct(t, "=") || is_punct(t, "{"))) break;
    if (is_punct(t, "(") || is_punct(t, "[") || is_punct(t, "{")) {
      if (nest == 0 && angle == 0 && is_punct(t, "(")) {
        d.declarator_parens = true;
      }
      ++nest;
    } else if (is_punct(t, ")") || is_punct(t, "]") || is_punct(t, "}")) {
      --nest;
    } else if (nest != 0) {
      continue;
    } else if (is_punct(t, "<")) {
      ++angle;
    } else if (is_punct(t, ">")) {
      --angle;
    } else if (is_punct(t, ">>")) {
      angle -= 2;
    } else if (angle == 0) {
      d.tokens.push_back(i);
    }
  }
  return d;
}

/// True when the declaration names a variable whose own value can change:
/// not a function, not constexpr, and (past its last `*`) not const.
bool declares_mutable_variable(const std::vector<Token>& toks,
                               const DeclPart& d) {
  if (d.declarator_parens || d.tokens.size() < 2) return false;
  if (toks[d.tokens.back()].kind != TokKind::kIdent) return false;
  std::size_t value_from = 0;  // where the declared object's cv starts
  for (std::size_t k = 0; k < d.tokens.size(); ++k) {
    const Token& t = toks[d.tokens[k]];
    if (is_ident(t, "constexpr") || is_ident(t, "operator")) return false;
    if (is_punct(t, "*")) value_from = k + 1;
  }
  for (std::size_t k = value_from; k < d.tokens.size(); ++k) {
    if (is_ident(toks[d.tokens[k]], "const")) return false;
  }
  return true;
}

/// Classifies the `{` at `brace`, which ends the statement that starts at
/// `begin` in a scope of kind `parent`.
Scope classify_brace(const std::vector<Token>& toks, Scope parent,
                     std::size_t begin, std::size_t brace) {
  if (parent == Scope::kInit) return Scope::kInit;
  const Token* prev = brace > begin ? &toks[brace - 1] : nullptr;
  if (parent == Scope::kFunction) {
    // A nested block, control-flow body or lambda; else an initializer.
    if (prev == nullptr) return Scope::kFunction;
    if (prev->kind == TokKind::kPunct) {
      return is_one_of(*prev, {")", "]", ";", "{", "}", ":"})
                 ? Scope::kFunction
                 : Scope::kInit;
    }
    return is_one_of(*prev, {"else", "do", "try", "mutable", "noexcept"})
               ? Scope::kFunction
               : Scope::kInit;
  }
  std::size_t i = begin;
  if (i < brace && is_ident(toks[i], "template") && i + 1 < brace &&
      is_punct(toks[i + 1], "<")) {
    i = skip_template_args(toks, i + 1);
    if (i == std::string_view::npos) return Scope::kInit;
  }
  if (i >= brace) return Scope::kInit;
  if (is_ident(toks[i], "inline") && i + 1 < brace) ++i;  // inline namespace
  if (is_ident(toks[i], "namespace") ||
      (is_ident(toks[i], "extern") && i + 1 < brace &&
       toks[i + 1].kind == TokKind::kString)) {
    return Scope::kNamespace;
  }
  bool assigned = false, parens = false, colon_after_parens = false;
  int nest = 0;
  for (std::size_t j = i; j < brace; ++j) {
    const Token& t = toks[j];
    if (is_punct(t, "(") || is_punct(t, "[") || is_punct(t, "{")) {
      if (nest++ == 0 && is_punct(t, "(")) parens = true;
    } else if (is_punct(t, ")") || is_punct(t, "]") || is_punct(t, "}")) {
      --nest;
    } else if (nest == 0 && is_ident(t, "operator")) {
      return Scope::kFunction;
    } else if (nest == 0 && is_punct(t, "=")) {
      assigned = true;
    } else if (nest == 0 && parens && is_punct(t, ":")) {
      colon_after_parens = true;
    }
  }
  if (is_one_of(toks[i], {"class", "struct", "union", "enum"}) && !assigned) {
    return Scope::kClass;
  }
  if (assigned || !parens) return Scope::kInit;
  // `X::X() : member_{...}` braces initialize a member, not the body.
  if (colon_after_parens && prev != nullptr &&
      (is_punct(*prev, ">") ||
       (prev->kind == TokKind::kIdent &&
        !is_one_of(*prev, {"const", "noexcept", "override", "final"})))) {
    return Scope::kInit;
  }
  return Scope::kFunction;
}

void check_statement(std::string_view path, const std::vector<Token>& toks,
                     Scope scope, std::size_t begin, std::size_t end,
                     std::vector<Finding>& out) {
  if (begin >= end || scope == Scope::kInit) return;
  const DeclPart d = decl_part(toks, begin, end);
  if (d.tokens.empty()) return;
  const char* what = nullptr;
  if (scope == Scope::kNamespace) {
    const Token& first = toks[d.tokens.front()];
    if (is_one_of(first, {"using", "typedef", "template", "namespace",
                          "static_assert", "friend", "class", "struct",
                          "union", "enum", "concept"}) ||
        first.kind != TokKind::kIdent) {
      return;
    }
    what = "namespace-scope variable";
  } else {
    const bool is_static = std::any_of(
        d.tokens.begin(), d.tokens.end(), [&](std::size_t k) {
          return is_ident(toks[k], "static") ||
                 is_ident(toks[k], "thread_local");
        });
    if (!is_static) return;
    what = scope == Scope::kClass ? "static data member" : "static local";
  }
  if (!declares_mutable_variable(toks, d)) return;
  const Token& name = toks[d.tokens.back()];
  out.push_back({std::string(path), name.line, "shared-state",
                 std::string("mutable ") + what + " `" + name.text +
                     "`: every Simulation in the process shares it, so "
                     "runs stop being independent; make it const/constexpr "
                     "or move it into the object that owns the run"});
}

void rule_shared_state(std::string_view path, const std::vector<Token>& toks,
                       std::vector<Finding>& out) {
  struct Frame {
    Scope scope;
    std::size_t stmt;  ///< first token of the statement being read
  };
  std::vector<Frame> stack = {{Scope::kNamespace, 0}};
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (is_punct(t, ";")) {
      check_statement(path, toks, stack.back().scope, stack.back().stmt, i,
                      out);
      stack.back().stmt = i + 1;
    } else if (is_punct(t, "{")) {
      const Scope opened =
          classify_brace(toks, stack.back().scope, stack.back().stmt, i);
      stack.push_back({opened, i + 1});
    } else if (is_punct(t, "}") && stack.size() > 1) {
      const Scope closed = stack.back().scope;
      stack.pop_back();
      // A class body or initializer is part of the enclosing declaration
      // (`struct X {...} x;`, `int g{0};`); other bodies end a statement.
      if (closed == Scope::kNamespace || closed == Scope::kFunction) {
        stack.back().stmt = i + 1;
      }
    }
  }
}

// ---- include layering ------------------------------------------------------

const std::map<std::string, int, std::less<>>& ranks_table() {
  // DESIGN.md §15: lower rank = lower layer; an include edge may only point
  // at the same rank or below. Peers of one rank may include each other
  // (dfs ↔ recovery journaling, mapred ↔ faults instrumentation).
  static const std::map<std::string, int, std::less<>> kRanks = {
      {"common", 0},
      {"simkit", 1}, {"trace", 1},
      {"obs", 2},
      {"cluster", 3}, {"dfs", 3}, {"recovery", 3},
      {"checkpoint", 4}, {"mapred", 4}, {"faults", 4},
      {"audit", 5}, {"workload", 5},
      {"experiment", 6},
  };
  return kRanks;
}

void rule_layering(std::string_view path, const std::vector<Include>& includes,
                   const std::string& layer, std::vector<Finding>& out) {
  const auto& ranks = ranks_table();
  const auto self = ranks.find(layer);
  if (self == ranks.end()) return;
  for (const Include& inc : includes) {
    if (inc.angled) continue;
    const std::size_t slash = inc.path.find('/');
    if (slash == std::string::npos) continue;
    const auto target = ranks.find(std::string_view(inc.path).substr(0, slash));
    if (target == ranks.end()) continue;
    if (target->second > self->second) {
      out.push_back({std::string(path), inc.line, "layering",
                     "layer `" + layer + "` (rank " +
                         std::to_string(self->second) + ") includes \"" +
                         inc.path + "\" from higher layer `" + target->first +
                         "` (rank " + std::to_string(target->second) +
                         "): dependencies must point down the architecture "
                         "DAG"});
    }
  }
}

}  // namespace

const std::map<std::string, int, std::less<>>& layer_ranks() {
  return ranks_table();
}

std::vector<Finding> scan_source(std::string_view path, std::string_view text,
                                 std::string_view companion,
                                 const ScanOptions& opts) {
  const LexResult lexed = lex(text);
  Directives directives = parse_directives(path, lexed.comments);

  std::vector<Finding> raw;
  if (opts.file_class == FileClass::kSrc) {
    auto tracked = collect_unordered_names(lexed.tokens);
    if (!companion.empty()) {
      const LexResult companion_lexed = lex(companion);
      auto more = collect_unordered_names(companion_lexed.tokens);
      tracked.insert(more.begin(), more.end());
    }
    rule_unordered_iter(path, lexed.tokens, tracked, raw);

    std::string layer = opts.layer;
    if (directives.fixture_layer) layer = *directives.fixture_layer;
    rule_layering(path, lexed.includes, layer, raw);
    rule_shared_state(path, lexed.tokens, raw);
  }
  if (!opts.rng_internals) rule_wall_clock(path, lexed.tokens, raw);
  rule_ptr_order(path, lexed.tokens, raw);

  // Apply allow-annotations; anything unmatched is a finding of its own.
  std::vector<Finding> out;
  for (Finding& f : raw) {
    bool suppressed = false;
    for (Annotation& a : directives.allows) {
      if (a.rule == f.rule && a.target == f.line) {
        a.used = true;
        suppressed = true;
      }
    }
    if (!suppressed) out.push_back(std::move(f));
  }
  for (const Annotation& a : directives.allows) {
    if (!a.used) {
      out.push_back({std::string(path), a.line, "stale-annotation",
                     "allow(" + a.rule +
                         ") suppresses nothing (no such finding on its "
                         "target line); delete the annotation or move it "
                         "next to the code it justifies"});
    }
  }
  out.insert(out.end(),
             std::make_move_iterator(directives.malformed.begin()),
             std::make_move_iterator(directives.malformed.end()));
  std::sort(out.begin(), out.end(), [](const Finding& x, const Finding& y) {
    if (x.line != y.line) return x.line < y.line;
    return x.rule < y.rule;
  });
  return out;
}

std::string format_finding(const Finding& f) {
  return f.file + ":" + std::to_string(f.line) + ": [" + f.rule + "] " +
         f.message;
}

}  // namespace detlint
