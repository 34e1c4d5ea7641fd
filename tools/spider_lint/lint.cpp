// Implementation of the spider_lint rule catalogue (see lint.hpp).
//
// Structure: a small C++ lexer (comments, strings, raw strings, preprocessor
// lines, numbers, longest-match punctuation) feeds per-file token vectors;
// rules are passes over those tokens. A first pass over *all* scanned files
// builds the global symbol tables cross-file rules need (identifiers
// declared as unordered containers, the SimMetrics field list, every
// SPIDER_* string literal); a second pass emits findings per file.
//
// The tool is itself under the determinism contract: directory walks are
// sorted, all tables are ordered containers, and the report is sorted, so
// two runs over the same tree are byte-identical.

#include "spider_lint/lint.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>

namespace spider_lint {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------- lexer --

enum class TokKind { kIdent, kNumber, kString, kCharLit, kPunct };

struct Token {
  TokKind kind;
  std::string text;
  int line = 0;
  bool floating = false;  // numbers only: contains '.' or a binary exponent
};

struct Suppression {
  std::string rule;
  std::string justification;
  int line = 0;
  bool used = false;
  bool known_rule = false;
};

struct FileScan {
  std::string path;  // normalized with '/' separators, as passed on the CLI
  std::vector<Token> tokens;
  std::vector<Suppression> suppressions;
  std::vector<int> token_lines;  // sorted distinct lines bearing code

  /// The first code line at or after `line` — where a suppression comment
  /// (possibly with continuation lines of justification) lands.
  [[nodiscard]] int next_code_line(int line) const {
    const auto it =
        std::lower_bound(token_lines.begin(), token_lines.end(), line + 1);
    return it == token_lines.end() ? -1 : *it;
  }
};

bool is_ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

// Multi-character operators, longest first so lexing is longest-match.
const char* const kPunct3[] = {"<<=", ">>=", "...", "->*"};
const char* const kPunct2[] = {"::", "->", "++", "--", "<<", ">>", "<=",
                               ">=", "==", "!=", "&&", "||", "+=", "-=",
                               "*=", "/=", "%=", "&=", "|=", "^=", "##"};

/// Parses suppression comments: "spider-lint:" followed by an
/// allow(<rule>) clause and a justification. Placeholder rule names that
/// are not lowercase-slug-shaped (like the angle-bracketed one in this
/// sentence) are treated as prose, so documentation can show the syntax.
void scan_comment_for_suppression(const std::string& comment, int line,
                                  std::vector<Suppression>& out) {
  const std::string tag = "spider-lint:";
  auto pos = comment.find(tag);
  if (pos == std::string::npos) return;
  pos += tag.size();
  while (pos < comment.size() && std::isspace(static_cast<unsigned char>(comment[pos]))) ++pos;
  const std::string allow = "allow(";
  if (comment.compare(pos, allow.size(), allow) != 0) return;
  pos += allow.size();
  const auto close = comment.find(')', pos);
  if (close == std::string::npos) return;
  Suppression s;
  s.rule = comment.substr(pos, close - pos);
  if (s.rule.empty()) return;
  for (char c : s.rule) {
    if (!(std::islower(static_cast<unsigned char>(c)) ||
          std::isdigit(static_cast<unsigned char>(c)) || c == '-'))
      return;  // placeholder/prose, not a real waiver
  }
  s.line = line;
  std::string rest = comment.substr(close + 1);
  // Trim the justification.
  const auto b = rest.find_first_not_of(" \t");
  const auto e = rest.find_last_not_of(" \t\r");
  s.justification = b == std::string::npos ? "" : rest.substr(b, e - b + 1);
  out.push_back(std::move(s));
}

/// Lexes one file. Preprocessor lines (including backslash continuations)
/// are skipped whole, so macro *definitions* and includes never trip rules.
FileScan lex_file(const std::string& path, const std::string& text) {
  FileScan scan;
  scan.path = path;
  std::size_t i = 0;
  int line = 1;
  bool at_line_start = true;
  const std::size_t n = text.size();

  auto newline = [&]() {
    ++line;
    at_line_start = true;
  };

  while (i < n) {
    const char c = text[i];
    if (c == '\n') {
      newline();
      ++i;
      continue;
    }
    if (c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f') {
      ++i;
      continue;
    }
    if (c == '#' && at_line_start) {  // preprocessor logical line
      while (i < n) {
        if (text[i] == '\\' && i + 1 < n && text[i + 1] == '\n') {
          ++line;
          i += 2;
          continue;
        }
        if (text[i] == '\n') break;
        ++i;
      }
      continue;
    }
    at_line_start = false;
    if (c == '/' && i + 1 < n && text[i + 1] == '/') {  // line comment
      const std::size_t start = i + 2;
      while (i < n && text[i] != '\n') ++i;
      scan_comment_for_suppression(text.substr(start, i - start), line,
                                   scan.suppressions);
      continue;
    }
    if (c == '/' && i + 1 < n && text[i + 1] == '*') {  // block comment
      i += 2;
      while (i + 1 < n && !(text[i] == '*' && text[i + 1] == '/')) {
        if (text[i] == '\n') ++line;
        ++i;
      }
      i = i + 2 <= n ? i + 2 : n;
      continue;
    }
    if (is_ident_start(c)) {
      std::size_t j = i;
      while (j < n && is_ident_char(text[j])) ++j;
      std::string ident = text.substr(i, j - i);
      // Raw / prefixed string literals: R"( ... )", u8R"...", L"...".
      if (j < n && text[j] == '"' &&
          (ident == "R" || ident == "LR" || ident == "uR" || ident == "UR" ||
           ident == "u8R")) {
        std::size_t k = j + 1;
        std::string delim;
        while (k < n && text[k] != '(') delim += text[k++];
        const std::string closer = ")" + delim + "\"";
        const auto end = text.find(closer, k);
        const std::size_t stop = end == std::string::npos ? n : end;
        std::string body = text.substr(k + 1, stop - k - 1);
        line += static_cast<int>(
            std::count(text.begin() + static_cast<std::ptrdiff_t>(j),
                       text.begin() + static_cast<std::ptrdiff_t>(stop), '\n'));
        scan.tokens.push_back({TokKind::kString, std::move(body), line, false});
        i = stop == n ? n : stop + closer.size();
        continue;
      }
      if (j < n && (text[j] == '"' || text[j] == '\'') &&
          (ident == "L" || ident == "u" || ident == "U" || ident == "u8")) {
        i = j;  // fall through to the plain literal lexing below
        continue;
      }
      scan.tokens.push_back({TokKind::kIdent, std::move(ident), line, false});
      i = j;
      continue;
    }
    if (c == '"' || c == '\'') {  // string / char literal
      const char quote = c;
      std::size_t j = i + 1;
      std::string body;
      while (j < n && text[j] != quote) {
        if (text[j] == '\\' && j + 1 < n) {
          body += text[j];
          body += text[j + 1];
          j += 2;
          continue;
        }
        if (text[j] == '\n') ++line;  // unterminated; keep line count sane
        body += text[j++];
      }
      scan.tokens.push_back({quote == '"' ? TokKind::kString : TokKind::kCharLit,
                             std::move(body), line, false});
      i = j < n ? j + 1 : n;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && i + 1 < n &&
         std::isdigit(static_cast<unsigned char>(text[i + 1])))) {
      std::size_t j = i;
      bool floating = false;
      while (j < n) {
        const char d = text[j];
        if (std::isalnum(static_cast<unsigned char>(d)) || d == '\'' ||
            d == '.' || d == '_') {
          if (d == '.') floating = true;
          // Exponents: the sign after e/E/p/P belongs to the number.
          if ((d == 'e' || d == 'E' || d == 'p' || d == 'P') && j > i &&
              j + 1 < n && (text[j + 1] == '+' || text[j + 1] == '-')) {
            ++j;  // take the sign
          }
          ++j;
          continue;
        }
        break;
      }
      std::string num = text.substr(i, j - i);
      const bool hex = num.size() > 1 && (num[1] == 'x' || num[1] == 'X');
      if (!hex && (num.find('e') != std::string::npos ||
                   num.find('E') != std::string::npos))
        floating = true;
      scan.tokens.push_back({TokKind::kNumber, std::move(num), line, floating});
      i = j;
      continue;
    }
    // Punctuation, longest-match.
    bool matched = false;
    for (const char* p : kPunct3) {
      if (text.compare(i, 3, p) == 0) {
        scan.tokens.push_back({TokKind::kPunct, p, line, false});
        i += 3;
        matched = true;
        break;
      }
    }
    if (matched) continue;
    for (const char* p : kPunct2) {
      if (text.compare(i, 2, p) == 0) {
        scan.tokens.push_back({TokKind::kPunct, p, line, false});
        i += 2;
        matched = true;
        break;
      }
    }
    if (matched) continue;
    scan.tokens.push_back({TokKind::kPunct, std::string(1, c), line, false});
    ++i;
  }
  scan.token_lines.reserve(scan.tokens.size());
  for (const Token& tok : scan.tokens) scan.token_lines.push_back(tok.line);
  scan.token_lines.erase(
      std::unique(scan.token_lines.begin(), scan.token_lines.end()),
      scan.token_lines.end());
  return scan;
}

// ------------------------------------------------------------- utilities --

std::string normalize(std::string path) {
  std::replace(path.begin(), path.end(), '\\', '/');
  return path;
}

bool path_contains(const std::string& path, const char* needle) {
  return path.find(needle) != std::string::npos;
}

/// Determinism-surface scope: the engine layers whose event order and hash
/// iteration feed the same-seed / streamed==batch identity gates.
bool in_determinism_scope(const std::string& path) {
  return path_contains(path, "src/sim/") || path_contains(path, "src/core/") ||
         path_contains(path, "src/transport/") ||
         path_contains(path, "src/routing/") ||
         path_contains(path, "src/graph/");
}

/// Integer-money scope: the layers documented integer-only for balances.
bool in_money_scope(const std::string& path) {
  return path_contains(path, "src/sim/") ||
         path_contains(path, "src/transport/");
}

bool is_cpp_source(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".cc" || ext == ".cxx" || ext == ".hpp" ||
         ext == ".h" || ext == ".hh" || ext == ".ipp";
}

/// Skips a balanced template-argument list starting at tokens[i] == "<".
/// Returns the index one past the closing ">" (treating ">>" as two).
std::size_t skip_template_args(const std::vector<Token>& t, std::size_t i) {
  int depth = 0;
  for (; i < t.size(); ++i) {
    const std::string& s = t[i].text;
    if (s == "<") ++depth;
    else if (s == ">") --depth;
    else if (s == ">>") depth -= 2;
    else if (s == ";" || s == "{") return i;  // malformed; bail out
    if (depth <= 0) return i + 1;
  }
  return i;
}

/// Finds the index of the matching close for tokens[open] == "(" / "{".
std::size_t match_close(const std::vector<Token>& t, std::size_t open) {
  const std::string& o = t[open].text;
  const std::string c = o == "(" ? ")" : o == "{" ? "}" : "]";
  int depth = 0;
  for (std::size_t i = open; i < t.size(); ++i) {
    if (t[i].kind != TokKind::kPunct) continue;
    if (t[i].text == o) ++depth;
    else if (t[i].text == c && --depth == 0) return i;
  }
  return t.size();
}

bool money_ident(const std::string& ident) {
  std::string low;
  low.reserve(ident.size());
  for (char c : ident) low += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  // Identifiers carrying an explicit float-unit suffix (_xrp, _ratio, _s)
  // are the sanctioned reporting surface (to_xrp and friends) — money that
  // has already left integer space for display, never written back.
  if (low.find("xrp") != std::string::npos) return false;
  if (low.size() >= 6 && low.compare(low.size() - 6, 6, "_ratio") == 0) return false;
  return low.find("balance") != std::string::npos ||
         low.find("escrow") != std::string::npos ||
         low.find("amount") != std::string::npos ||
         low.find("capacity") != std::string::npos ||
         low.find("funds") != std::string::npos;
}

// ------------------------------------------------------------ rule state --

struct Context {
  Options options;
  std::vector<FileScan> files;
  std::set<std::string> unordered_names;  // identifiers declared unordered_*
  // metric-registry inputs
  std::string metrics_file;                       // path of sim/metrics.hpp
  std::vector<std::pair<std::string, int>> metric_fields;  // name, line
  std::set<std::string> identity_idents;  // idents inside expect_identical_metrics
  bool identity_fn_found = false;
  // env-registry: docs text
  std::string docs_text;
  bool docs_found = false;
};

void add_finding(std::vector<Finding>& out, FileScan& f, int line,
                 const char* rule, std::string message) {
  // A suppression matches a finding on its own line (trailing comment) or
  // on the first code line after it (comment above, justification allowed
  // to continue over several comment lines).
  for (Suppression& s : f.suppressions) {
    if (s.rule == rule &&
        (s.line == line || f.next_code_line(s.line) == line)) {
      s.used = true;
      return;
    }
  }
  out.push_back({f.path, line, rule, std::move(message)});
}

// ----------------------------------------------------- global collection --

/// Records every identifier declared with an unordered container type.
/// Heuristic: `unordered_map<...> [cv ref] name` where name is not
/// immediately called — good enough for members, locals, and parameters.
/// (Aliases via `using Map = std::unordered_map<...>` are not tracked;
/// declare hash containers by their real type in determinism scope.)
void collect_unordered_names(const FileScan& f, std::set<std::string>& out) {
  const auto& t = f.tokens;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdent) continue;
    const std::string& s = t[i].text;
    if (s != "unordered_map" && s != "unordered_set" &&
        s != "unordered_multimap" && s != "unordered_multiset")
      continue;
    std::size_t j = i + 1;
    if (j >= t.size() || t[j].text != "<") continue;
    j = skip_template_args(t, j);
    while (j < t.size() &&
           (t[j].text == "const" || t[j].text == "&" || t[j].text == "*" ||
            t[j].text == "volatile" || t[j].text == "&&"))
      ++j;
    while (j + 1 < t.size() && t[j].kind == TokKind::kIdent) {
      const std::string& next = t[j + 1].text;
      if (next == "(") break;  // function returning the container
      if (next == "=" || next == ";" || next == "," || next == ")" ||
          next == "{") {
        out.insert(t[j].text);
        if (next != ",") break;
        j += 2;
        continue;
      }
      break;
    }
  }
}

/// Parses the SimMetrics field list out of sim/metrics.hpp: identifiers at
/// struct depth 1 that terminate a data-member declaration (no '(' before
/// the name, skipping member-function bodies whole).
void collect_metric_fields(const FileScan& f, Context& ctx) {
  const auto& t = f.tokens;
  for (std::size_t i = 0; i + 2 < t.size(); ++i) {
    if (t[i].text != "struct" || t[i + 1].text != "SimMetrics" ||
        t[i + 2].text != "{")
      continue;
    const std::size_t body_end = match_close(t, i + 2);
    std::size_t j = i + 3;
    while (j < body_end) {
      // One declaration: tokens until ';' at depth 0, skipping brace/paren
      // groups whole (function bodies, initializers, attribute lists).
      std::vector<std::size_t> stmt;
      bool has_paren = false;
      bool has_brace_body = false;
      while (j < body_end) {
        const std::string& s = t[j].text;
        if (s == "{") {
          j = match_close(t, j) + 1;
          has_brace_body = true;
          continue;
        }
        if (s == "(" || s == "[") {
          if (s == "(") has_paren = true;
          j = match_close(t, j) + 1;
          continue;
        }
        if (s == ";") {
          ++j;
          break;
        }
        stmt.push_back(j++);
      }
      // A member function mentions '(' (or ended with an inline body); a
      // data member doesn't. The field name is the identifier before '='
      // when initialized, else the last identifier of the declaration.
      if (has_paren || has_brace_body || stmt.empty()) continue;
      std::size_t name_idx = stmt.size();
      for (std::size_t k = 0; k < stmt.size(); ++k) {
        if (t[stmt[k]].text == "=") {
          name_idx = k;
          break;
        }
      }
      std::size_t pick = std::string::npos;
      const std::size_t limit = name_idx == stmt.size() ? stmt.size() : name_idx;
      for (std::size_t k = limit; k-- > 0;) {
        if (t[stmt[k]].kind == TokKind::kIdent) {
          pick = stmt[k];
          break;
        }
      }
      if (pick != std::string::npos)
        ctx.metric_fields.emplace_back(t[pick].text, t[pick].line);
    }
    ctx.metrics_file = f.path;
    return;
  }
}

/// Collects every identifier inside the body of expect_identical_metrics.
bool collect_identity_idents(const FileScan& f, std::set<std::string>& out) {
  const auto& t = f.tokens;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].text != "expect_identical_metrics" || t[i + 1].text != "(")
      continue;
    const std::size_t args_end = match_close(t, i + 1);
    // Find the body '{' after the parameter list; a call site (followed by
    // ';') is not the definition.
    std::size_t j = args_end + 1;
    while (j < t.size() && (t[j].text == "const" || t[j].text == "noexcept"))
      ++j;
    if (j >= t.size() || t[j].text != "{") continue;
    const std::size_t body_end = match_close(t, j);
    for (std::size_t k = j + 1; k < body_end; ++k) {
      if (t[k].kind == TokKind::kIdent) out.insert(t[k].text);
    }
    return true;
  }
  return false;
}

// -------------------------------------------------------------- rule 1 --

const std::set<std::string>& banned_rng_idents() {
  static const std::set<std::string> kBanned = {
      "srand",          "random_device",       "mt19937",
      "mt19937_64",     "default_random_engine", "minstd_rand",
      "minstd_rand0",   "ranlux24",            "ranlux48",
      "knuth_b",
  };
  return kBanned;
}

void rule_determinism(FileScan& f, const Context& ctx,
                      std::vector<Finding>& out) {
  if (!in_determinism_scope(f.path)) return;
  const auto& t = f.tokens;
  constexpr const char* kRule = "determinism-surface";
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdent) continue;
    const std::string& s = t[i].text;
    const std::string prev = i > 0 ? t[i - 1].text : "";

    if (banned_rng_idents().count(s) != 0 && prev != "." && prev != "->") {
      add_finding(out, f, t[i].line, kRule,
                  "'" + s +
                      "' is nondeterministic across runs/platforms; draw from "
                      "a seeded util/random Rng stream instead");
      continue;
    }
    if (s == "rand" && i + 1 < t.size() && t[i + 1].text == "(" &&
        prev != "." && prev != "->") {
      add_finding(out, f, t[i].line, kRule,
                  "'rand()' is ambient global state; draw from a seeded "
                  "util/random Rng stream instead");
      continue;
    }
    if (s == "time" && i + 3 < t.size() && t[i + 1].text == "(" &&
        (t[i + 2].text == "nullptr" || t[i + 2].text == "NULL" ||
         t[i + 2].text == "0") &&
        t[i + 3].text == ")" && prev != "." && prev != "->") {
      add_finding(out, f, t[i].line, kRule,
                  "wall-clock read 'time(...)' breaks replay determinism; "
                  "use the simulator clock (TimePoint) instead");
      continue;
    }
    if (s.size() > 6 && s.compare(s.size() - 6, 6, "_clock") == 0 &&
        i + 2 < t.size() && t[i + 1].text == "::" && t[i + 2].text == "now") {
      add_finding(out, f, t[i].line, kRule,
                  "'" + s +
                      "::now()' reads the wall clock; simulation logic must "
                      "use event time, and measurement belongs in bench/");
      continue;
    }
    // Range-for over an identifier declared as an unordered container:
    // iteration order is hash-seed / libstdc++-version dependent, which
    // breaks the same-seed and cross-host identity gates.
    if (s == "for" && i + 1 < t.size() && t[i + 1].text == "(") {
      const std::size_t close = match_close(t, i + 1);
      std::size_t colon = 0;
      int depth = 0;
      for (std::size_t k = i + 1; k < close; ++k) {
        if (t[k].kind != TokKind::kPunct) continue;
        if (t[k].text == "(" || t[k].text == "[" || t[k].text == "{") ++depth;
        else if (t[k].text == ")" || t[k].text == "]" || t[k].text == "}") --depth;
        else if (t[k].text == ":" && depth == 1) {
          colon = k;
          break;
        }
      }
      if (colon == 0) continue;
      bool simple = true;
      std::string base;
      for (std::size_t k = colon + 1; k < close; ++k) {
        if (t[k].kind == TokKind::kIdent) {
          base = t[k].text;
          continue;
        }
        if (t[k].text == "." || t[k].text == "->" || t[k].text == "::") continue;
        simple = false;
        break;
      }
      if (simple && !base.empty() && ctx.unordered_names.count(base) != 0) {
        add_finding(
            out, f, t[i].line, kRule,
            "range-for over unordered container '" + base +
                "' iterates in hash order; collect keys and sort, or use an "
                "ordered/indexed container");
      }
    }
  }
}

// -------------------------------------------------------------- rule 2 --

bool tokens_have_float(const std::vector<Token>& t, std::size_t begin,
                       std::size_t end) {
  for (std::size_t k = begin; k < end; ++k) {
    if (t[k].kind == TokKind::kIdent &&
        (t[k].text == "double" || t[k].text == "float" || t[k].text == "to_xrp"))
      return true;
    if (t[k].kind == TokKind::kNumber && t[k].floating) return true;
  }
  return false;
}

void rule_integer_money(FileScan& f, std::vector<Finding>& out) {
  if (!in_money_scope(f.path)) return;
  const auto& t = f.tokens;
  constexpr const char* kRule = "integer-money";
  for (std::size_t i = 0; i < t.size(); ++i) {
    // a) money-named variable declared with a floating type.
    if (t[i].kind == TokKind::kIdent &&
        (t[i].text == "double" || t[i].text == "float") && i + 2 < t.size() &&
        t[i + 1].kind == TokKind::kIdent && money_ident(t[i + 1].text)) {
      const std::string& after = t[i + 2].text;
      if (after == "=" || after == ";" || after == "," || after == ")" ||
          after == "{") {
        add_finding(out, f, t[i].line, kRule,
                    "money identifier '" + t[i + 1].text +
                        "' declared " + t[i].text +
                        "; balances/amounts are integer milli-XRP (Amount)");
        continue;
      }
    }
    // b) floating-point expression cast back into Amount.
    if (t[i].text == "static_cast" && i + 4 < t.size() &&
        t[i + 1].text == "<" && t[i + 2].text == "Amount" &&
        t[i + 3].text == ">" && t[i + 4].text == "(") {
      const std::size_t close = match_close(t, i + 4);
      if (tokens_have_float(t, i + 5, close)) {
        add_finding(out, f, t[i].line, kRule,
                    "floating-point expression cast back to Amount; money "
                    "math must stay in integer arithmetic end to end");
      }
      continue;
    }
    // c) assignment into a money identifier from a floating expression.
    if (t[i].kind == TokKind::kIdent && money_ident(t[i].text) &&
        i + 1 < t.size() && t[i + 1].kind == TokKind::kPunct) {
      const std::string& op = t[i + 1].text;
      if (op == "=" || op == "+=" || op == "-=" || op == "*=" || op == "/=") {
        std::size_t end = i + 2;
        int depth = 0;
        while (end < t.size()) {
          const std::string& s = t[end].text;
          if (t[end].kind == TokKind::kPunct) {
            if (s == "(" || s == "[" || s == "{") ++depth;
            else if (s == ")" || s == "]" || s == "}") {
              if (depth == 0) break;
              --depth;
            } else if ((s == ";" || s == ",") && depth == 0) {
              break;
            }
          }
          ++end;
        }
        if (tokens_have_float(t, i + 2, end)) {
          add_finding(out, f, t[i].line, kRule,
                      "money identifier '" + t[i].text +
                          "' assigned from a floating-point expression; keep "
                          "conserved quantities in integer arithmetic");
        }
        i = end;
      }
    }
  }
}

// -------------------------------------------------------------- rule 3 --

void rule_metric_registry(Context& ctx, std::vector<Finding>& out) {
  if (ctx.metrics_file.empty()) return;  // no SimMetrics in the scanned set
  FileScan* metrics_scan = nullptr;
  for (FileScan& f : ctx.files) {
    if (f.path == ctx.metrics_file) metrics_scan = &f;
  }
  if (metrics_scan == nullptr) return;
  if (!ctx.identity_fn_found) {
    add_finding(out, *metrics_scan, 1, "metric-registry",
                "SimMetrics found but expect_identical_metrics was not (looked "
                "in the scanned roots and <repo-root>/tests/test_support.hpp)");
    return;
  }
  for (const auto& [field, line] : ctx.metric_fields) {
    if (ctx.identity_idents.count(field) == 0) {
      add_finding(out, *metrics_scan, line, "metric-registry",
                  "SimMetrics field '" + field +
                      "' has no per-field expectation in "
                      "expect_identical_metrics; identity-gate drift");
    }
  }
}

// -------------------------------------------------------------- rule 4 --

bool env_literal(const std::string& s) {
  if (s.compare(0, 7, "SPIDER_") != 0 || s.size() <= 7) return false;
  for (std::size_t i = 7; i < s.size(); ++i) {
    const char c = s[i];
    if (!(std::isupper(static_cast<unsigned char>(c)) ||
          std::isdigit(static_cast<unsigned char>(c)) || c == '_'))
      return false;
  }
  return true;
}

void rule_env_registry(FileScan& f, const Context& ctx,
                       std::vector<Finding>& out,
                       std::set<std::string>& reported) {
  constexpr const char* kRule = "env-registry";
  for (const Token& tok : f.tokens) {
    if (tok.kind != TokKind::kString || !env_literal(tok.text)) continue;
    if (ctx.docs_found && ctx.docs_text.find(tok.text) != std::string::npos)
      continue;
    if (!reported.insert(tok.text).second) continue;  // once per name
    add_finding(out, f, tok.line, kRule,
                ctx.docs_found
                    ? "environment variable '" + tok.text +
                          "' is not documented in README.md or DESIGN.md"
                    : "environment variable '" + tok.text +
                          "' cannot be checked: no README.md/DESIGN.md under "
                          "--repo-root '" + ctx.options.repo_root + "'");
  }
}

// -------------------------------------------------------------- rule 5 --

const std::set<std::string>& mutator_names() {
  static const std::set<std::string> kMutators = {
      "push_back", "pop_back", "pop",     "push",    "erase",
      "insert",    "clear",    "emplace", "emplace_back",
      "reset",     "release",  "assign",  "resize",  "swap",
  };
  return kMutators;
}

void rule_assert_hygiene(FileScan& f, std::vector<Finding>& out) {
  const auto& t = f.tokens;
  constexpr const char* kRule = "assert-hygiene";
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].kind != TokKind::kIdent ||
        t[i].text.compare(0, 13, "SPIDER_ASSERT") != 0 ||
        t[i + 1].text != "(")
      continue;
    const std::size_t close = match_close(t, i + 1);
    for (std::size_t k = i + 2; k < close; ++k) {
      if (t[k].kind == TokKind::kIdent) {
        if (mutator_names().count(t[k].text) != 0 && k > 0 &&
            (t[k - 1].text == "." || t[k - 1].text == "->") &&
            k + 1 < close && t[k + 1].text == "(") {
          add_finding(out, f, t[k].line, kRule,
                      "mutating call '" + t[k].text +
                          "()' inside a SPIDER_ASSERT; asserts must be "
                          "side-effect free");
        }
        continue;
      }
      if (t[k].kind != TokKind::kPunct) continue;
      const std::string& s = t[k].text;
      const bool assign = s == "+=" || s == "-=" || s == "*=" || s == "/=" ||
                          s == "%=" || s == "&=" || s == "|=" || s == "^=" ||
                          s == "<<=" || s == ">>=";
      const bool plain_assign =
          s == "=" && k > 0 && t[k - 1].text != "[" && t[k - 1].text != "]";
      if (s == "++" || s == "--" || assign || plain_assign) {
        add_finding(out, f, t[k].line, kRule,
                    "side effect ('" + s +
                        "') inside a SPIDER_ASSERT; the expression must be a "
                        "pure predicate");
      }
    }
    i = close;
  }
}

// --------------------------------------------------------------- driver --

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  if (!in) throw std::runtime_error("spider_lint: cannot read " + p.string());
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void json_escape(std::ostringstream& os, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
}

}  // namespace

Report run_lint(const Options& options) {
  Context ctx;
  ctx.options = options;

  // Enumerate sources, sorted for a deterministic report.
  std::vector<std::string> paths;
  for (const std::string& root : options.roots) {
    fs::path rp(root);
    if (fs::is_regular_file(rp)) {
      paths.push_back(normalize(rp.string()));
      continue;
    }
    if (!fs::is_directory(rp))
      throw std::runtime_error("spider_lint: no such file or directory: " +
                               root);
    for (const auto& entry : fs::recursive_directory_iterator(rp)) {
      if (entry.is_regular_file() && is_cpp_source(entry.path()))
        paths.push_back(normalize(entry.path().string()));
    }
  }
  std::sort(paths.begin(), paths.end());
  paths.erase(std::unique(paths.begin(), paths.end()), paths.end());

  for (const std::string& p : paths)
    ctx.files.push_back(lex_file(p, read_file(p)));

  // Global collection pass.
  const auto ends_with = [](const std::string& s, const std::string& suffix) {
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
  };
  for (const FileScan& f : ctx.files) {
    collect_unordered_names(f, ctx.unordered_names);
    if (ends_with(f.path, "sim/metrics.hpp")) collect_metric_fields(f, ctx);
    if (!ctx.identity_fn_found)
      ctx.identity_fn_found = collect_identity_idents(f, ctx.identity_idents);
  }
  // The identity predicate usually lives in tests/, outside the scanned
  // roots; pull it in from the repo root when the scan didn't see it.
  if (!ctx.metrics_file.empty() && !ctx.identity_fn_found) {
    const fs::path support =
        fs::path(options.repo_root) / "tests" / "test_support.hpp";
    if (fs::is_regular_file(support)) {
      const FileScan scan =
          lex_file(normalize(support.string()), read_file(support));
      ctx.identity_fn_found =
          collect_identity_idents(scan, ctx.identity_idents);
    }
  }
  // Docs for the env registry.
  for (const char* doc : {"README.md", "DESIGN.md"}) {
    const fs::path p = fs::path(options.repo_root) / doc;
    if (fs::is_regular_file(p)) {
      ctx.docs_text += read_file(p);
      ctx.docs_found = true;
    }
  }

  Report report;
  report.files_scanned = ctx.files.size();
  std::set<std::string> env_reported;
  for (FileScan& f : ctx.files) {
    rule_determinism(f, ctx, report.findings);
    rule_integer_money(f, report.findings);
    rule_env_registry(f, ctx, report.findings, env_reported);
    rule_assert_hygiene(f, report.findings);
  }
  rule_metric_registry(ctx, report.findings);

  // Suppression hygiene: unknown rules, missing justifications, dead waivers.
  for (FileScan& f : ctx.files) {
    for (Suppression& s : f.suppressions) {
      for (const char* name : kRuleNames)
        if (s.rule == name) s.known_rule = true;
      if (!s.known_rule) {
        report.findings.push_back(
            {f.path, s.line, "suppression",
             "unknown rule '" + s.rule + "' in spider-lint: allow(...)"});
      } else if (s.justification.empty()) {
        report.findings.push_back(
            {f.path, s.line, "suppression",
             "suppression of '" + s.rule +
                 "' carries no justification; say why the site is safe"});
      } else if (!s.used) {
        report.findings.push_back(
            {f.path, s.line, "suppression",
             "suppression of '" + s.rule +
                 "' matched no finding; delete the stale waiver"});
      }
    }
  }

  std::sort(report.findings.begin(), report.findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              if (a.rule != b.rule) return a.rule < b.rule;
              return a.message < b.message;
            });
  return report;
}

std::string to_json(const Report& report) {
  std::ostringstream os;
  os << "{\n  \"files_scanned\": " << report.files_scanned
     << ",\n  \"violation_count\": " << report.findings.size()
     << ",\n  \"violations\": [";
  for (std::size_t i = 0; i < report.findings.size(); ++i) {
    const Finding& f = report.findings[i];
    os << (i == 0 ? "\n" : ",\n") << "    {\"file\": \"";
    json_escape(os, f.file);
    os << "\", \"line\": " << f.line << ", \"rule\": \"";
    json_escape(os, f.rule);
    os << "\", \"message\": \"";
    json_escape(os, f.message);
    os << "\"}";
  }
  os << (report.findings.empty() ? "]" : "\n  ]") << "\n}\n";
  return os.str();
}

std::string to_text(const Report& report) {
  std::ostringstream os;
  for (const Finding& f : report.findings)
    os << f.file << ":" << f.line << ": [" << f.rule << "] " << f.message
       << "\n";
  return os.str();
}

}  // namespace spider_lint
