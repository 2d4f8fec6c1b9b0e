// dde_lint: project-specific determinism, contracts & shared-state lint.
//
// The reproduction's headline claim — bit-identical tables and BENCH_*.json
// at any seed and thread count — rests on conventions that an ordinary
// compiler never checks: no bare assert() guarding invariants in src/ (they
// vanish under -DNDEBUG; see PR 4's three release-only bugs), no wall-clock
// or ambient-entropy calls inside simulation code, no iteration-order-
// dependent folds over std::unordered_* containers, and no unannotated
// floating-point std::accumulate. The PDES frontier (ROADMAP: deterministic
// parallel simulation of one run) adds two more: no unowned mutable shared
// state, and no upward #include edges across the declared module layering —
// both must hold *before* threads touch simulator/net/athena state. This
// tool turns those conventions into machine-checked rules that fail CI.
//
// Rules (see docs/STATIC_ANALYSIS.md for the catalogue and suppression
// policy):
//   bare-assert      assert( in src/ — use the contract macros in
//                    src/common/contracts.h instead.
//   wall-clock       std::chrono::system_clock / steady_clock, std::rand,
//                    std::random_device, time(nullptr), time(NULL), and
//                    getenv (the latter allowed in src/harness/ and
//                    bench/bench_util.h, the two audited env entry points).
//   unordered-iter   range-for or .begin()/.cbegin() iteration over a
//                    variable declared (anywhere in the scanned set) as
//                    std::unordered_map/std::unordered_set. Over-
//                    approximate by design: the audit decides per site
//                    whether the fold is order-independent, and records the
//                    verdict as an inline annotation or an allow entry.
//   float-accumulate std::accumulate (the common way an order-dependent
//                    floating-point fold sneaks in).
//   mutable-global   non-const namespace-scope variables and mutable
//                    function-local / class statics in src/. Every hit must
//                    be migrated into an owned context object, made
//                    std::atomic / mutex-guarded (those types are exempt),
//                    or carry a '// lint: shared-state' audit note — the
//                    machine-checked inventory PDES sharding depends on.
//   layer-violation  #include edges in src/ that point upward (or sideways)
//                    against the module DAG declared in tools/dde_layers,
//                    so PDES can shard along clean layer boundaries. Files
//                    in a src/ module the manifest does not declare are
//                    flagged too, so the manifest cannot rot.
//   orphan-header    files in a src/<module>/ directory that no #include
//                    chain reaches from the roots: the scanned files outside
//                    src/ and tests/ (benches, tools, examples). A reached
//                    src/x/y.h also reaches src/x/y.cpp. Code only tests
//                    reach is code no run executes. The pass runs only when
//                    the scan holds at least one root; src/dde.h, outside
//                    every module, is exempt.
//
// Suppressions:
//   * inline: the flagged line, or the line directly above it, carries
//     "lint: ordered-fold" (unordered-iter / float-accumulate) or
//     "lint: shared-state" (mutable-global) inside a comment; the comment
//     must say WHY the site is safe.
//   * allowlist: tools/dde_lint.allow, one entry per line:
//         <rule> <path> [substring]
//     suppresses <rule> in <path> (repo-relative, forward slashes) on lines
//     containing <substring> (all lines if omitted). '#' starts a comment.
//   * layer manifest: tools/dde_layers may declare audited extra edges
//     ("allow <from> <to>") alongside the layer order.
//
// Output: "path:line: [rule] message" per violation, sorted by path then
// line; exit 1 if any violation survived suppression, 0 otherwise. The scan
// itself is deterministic: files are discovered recursively and processed
// in lexicographic path order, and nothing here consults clocks, rng, or
// the environment. Directories named "lint_fixtures" are skipped during
// recursive discovery (they hold deliberately-bad rule fixtures); pass a
// path inside one explicitly to scan it (the fixture self-test does).
//
// Usage: dde_lint [--allow FILE] [--layers FILE] [--root DIR]
//                 [--list-rules] PATH...
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace fs = std::filesystem;

namespace {

struct Violation {
  std::string path;  // repo-relative
  std::size_t line = 0;
  std::string rule;
  std::string message;
  std::string raw_line;  // original text, for allowlist substring matching
};

struct AllowEntry {
  std::string rule;
  std::string path;
  std::string needle;  // empty = whole file
  bool used = false;
};

struct FileText {
  std::string rel_path;
  std::vector<std::string> raw;       // original lines
  std::vector<std::string> stripped;  // comments/strings blanked
  std::vector<bool> ordered_fold;     // line carries "lint: ordered-fold"
  std::vector<bool> shared_state;     // line carries "lint: shared-state"
};

/// The module layering DAG from tools/dde_layers (see docs, §5).
struct LayerManifest {
  bool loaded = false;
  std::map<std::string, int> layer_of;            // module -> layer index
  std::set<std::pair<std::string, std::string>> allowed;  // audited edges
};

bool is_ident_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_';
}

/// Strip comments and string/char literals, preserving line structure.
/// Annotations inside comments are detected before stripping.
void strip_and_annotate(FileText& ft) {
  bool in_block_comment = false;
  for (const std::string& line : ft.raw) {
    ft.ordered_fold.push_back(line.find("lint: ordered-fold") !=
                              std::string::npos);
    ft.shared_state.push_back(line.find("lint: shared-state") !=
                              std::string::npos);
    std::string out;
    out.reserve(line.size());
    std::size_t i = 0;
    while (i < line.size()) {
      if (in_block_comment) {
        if (line.compare(i, 2, "*/") == 0) {
          in_block_comment = false;
          i += 2;
        } else {
          ++i;
        }
        continue;
      }
      const char c = line[i];
      if (c == '/' && i + 1 < line.size() && line[i + 1] == '/') {
        break;  // line comment: drop the rest
      }
      if (c == '/' && i + 1 < line.size() && line[i + 1] == '*') {
        in_block_comment = true;
        i += 2;
        continue;
      }
      if (c == '"' || c == '\'') {
        const char quote = c;
        out.push_back(quote);
        ++i;
        while (i < line.size()) {
          if (line[i] == '\\' && i + 1 < line.size()) {
            i += 2;
            continue;
          }
          if (line[i] == quote) {
            out.push_back(quote);
            ++i;
            break;
          }
          ++i;
        }
        continue;
      }
      out.push_back(c);
      ++i;
    }
    ft.stripped.push_back(std::move(out));
  }
}

/// True when `needle` occurs in `hay` NOT preceded/followed by an
/// identifier character (so `assert(` does not match `static_assert(` or
/// `DDE_ASSERT(`).
bool contains_token(const std::string& hay, std::string_view needle) {
  std::size_t pos = 0;
  while ((pos = hay.find(needle, pos)) != std::string::npos) {
    const bool head_ok = pos == 0 || !is_ident_char(hay[pos - 1]);
    const std::size_t end = pos + needle.size();
    const bool tail_ok = end >= hay.size() || !is_ident_char(hay[end]) ||
                         !is_ident_char(needle.back());
    if (head_ok && tail_ok) return true;
    pos += 1;
  }
  return false;
}

/// Skip template arguments starting at the '<' at `pos`; returns the index
/// just past the matching '>', or npos on imbalance (possibly continuing on
/// a later line — treated as "no declaration found").
std::size_t skip_template_args(const std::string& s, std::size_t pos) {
  int depth = 0;
  while (pos < s.size()) {
    if (s[pos] == '<') ++depth;
    if (s[pos] == '>') {
      --depth;
      if (depth == 0) return pos + 1;
    }
    ++pos;
  }
  return std::string::npos;
}

/// Extract the identifier declared right after a type ending at `pos`
/// (skips whitespace, '&', '*', "const"). Returns "" if none.
std::string ident_after(const std::string& s, std::size_t pos) {
  while (pos < s.size() &&
         (s[pos] == ' ' || s[pos] == '&' || s[pos] == '*' || s[pos] == '\t')) {
    ++pos;
  }
  if (s.compare(pos, 6, "const ") == 0) return ident_after(s, pos + 6);
  std::size_t end = pos;
  while (end < s.size() && is_ident_char(s[end])) ++end;
  if (end == pos) return "";
  return s.substr(pos, end - pos);
}

/// Last identifier in `s` (used on a range-for's range expression, so
/// `node.interest_table_` and `interest_table_` both yield the member name).
std::string last_ident(std::string_view s) {
  std::size_t end = s.size();
  while (end > 0 && !is_ident_char(s[end - 1])) --end;
  std::size_t start = end;
  while (start > 0 && is_ident_char(s[start - 1])) --start;
  return std::string(s.substr(start, end - start));
}

const std::set<std::string>& cxx_keywords() {
  static const std::set<std::string> kw = {
      "if", "for", "while", "return", "const", "auto", "else", "do",
      "switch", "case", "break", "continue", "new", "delete", "this",
      "true", "false", "nullptr", "sizeof", "static", "void"};
  return kw;
}

/// Pass 1 over one file: collect identifiers declared with an unordered
/// container type, resolving per-file `using X = std::unordered_map<...>`
/// aliases.
void collect_unordered_idents(const FileText& ft,
                              std::set<std::string>& idents) {
  std::set<std::string> aliases;
  for (const std::string& line : ft.stripped) {
    for (const char* marker : {"unordered_map<", "unordered_set<"}) {
      std::size_t pos = 0;
      while ((pos = line.find(marker, pos)) != std::string::npos) {
        // `using Alias = std::unordered_map<...>` declares a type, not a
        // variable: remember the alias so its declarations count below.
        const std::size_t using_pos = line.rfind("using ", pos);
        const std::size_t open = line.find('<', pos);
        const std::size_t after = skip_template_args(line, open);
        if (using_pos != std::string::npos &&
            line.find('=', using_pos) != std::string::npos &&
            line.find('=', using_pos) < pos) {
          const std::string alias =
              last_ident(std::string_view(line).substr(
                  0, line.find('=', using_pos)));
          if (!alias.empty()) aliases.insert(alias);
          pos = open == std::string::npos ? pos + 1 : open + 1;
          continue;
        }
        if (after == std::string::npos) {
          pos = open == std::string::npos ? pos + 1 : open + 1;
          continue;
        }
        const std::string id = ident_after(line, after);
        if (!id.empty() && !cxx_keywords().count(id)) idents.insert(id);
        pos = after;
      }
    }
  }
  // Second sweep: declarations via a local alias (e.g. `Map map_;`).
  for (const std::string& alias : aliases) {
    for (const std::string& line : ft.stripped) {
      std::size_t pos = 0;
      while ((pos = line.find(alias, pos)) != std::string::npos) {
        const bool head_ok = pos == 0 || !is_ident_char(line[pos - 1]);
        const std::size_t end = pos + alias.size();
        if (head_ok && end < line.size() && !is_ident_char(line[end])) {
          const std::string id = ident_after(line, end);
          if (!id.empty() && !cxx_keywords().count(id) && id != alias) {
            idents.insert(id);
          }
        }
        pos = end;
      }
    }
  }
}

bool starts_with(const std::string& s, std::string_view prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

// --- mutable-global pass ---------------------------------------------------
//
// A lightweight scope tracker classifies every '{' by the statement head
// that precedes it (namespace / record / initializer / block), so the pass
// knows which lines sit at namespace scope. Heuristic and over-approximate
// by design, like the unordered-identifier table: the audit resolves each
// hit with a migration, an exempt thread-safe type, or an annotation.

enum class ScopeKind { kNamespace, kRecord, kInit, kBlock };

/// Thread-safe-by-construction types: state behind these is owned by the
/// synchronization primitive itself, not by ambient convention.
bool has_exempt_type(const std::string& line) {
  for (const char* tok : {"atomic", "mutex", "Mutex", "once_flag",
                          "condition_variable"}) {
    if (contains_token(line, tok)) return true;
  }
  return false;
}

/// Leading declaration qualifiers to skip before counting type+name tokens.
bool is_decl_qualifier(const std::string& tok) {
  return tok == "static" || tok == "inline" || tok == "thread_local" ||
         tok == "extern" || tok == "mutable" || tok == "volatile";
}

/// Split the identifier tokens of `s` up to the first of '=', ';', '{'
/// (whichever comes first); returns them in order. Stops at '(' — a
/// function declarator or call — and at an unbalanced ')' — the
/// continuation line of a multi-line signature — by flagging `saw_paren`.
std::vector<std::string> decl_idents(const std::string& s, bool* saw_paren) {
  std::vector<std::string> toks;
  *saw_paren = false;
  std::size_t i = 0;
  int angle = 0;
  while (i < s.size()) {
    const char c = s[i];
    if (c == '(' || c == ')') {
      *saw_paren = true;
      return toks;
    }
    if (c == '<') ++angle;
    if (c == '>' && angle > 0) --angle;
    if (angle == 0 && (c == '=' || c == ';' || c == '{')) break;
    if (is_ident_char(c)) {
      std::size_t end = i;
      while (end < s.size() && is_ident_char(s[end])) ++end;
      toks.push_back(s.substr(i, end - i));
      i = end;
      continue;
    }
    ++i;
  }
  return toks;
}

/// One line that plausibly *defines a variable*: at least a type token and
/// a name token before '=', ';' or '{', no parentheses (those are function
/// declarators, macro invocations, or constructor-call initializers), and a
/// statement terminator on the line.
bool looks_like_var_definition(const std::string& trimmed,
                               std::string* name_out) {
  if (trimmed.find(';') == std::string::npos) return false;
  // A continuation line of a multi-line signature closes more parens than
  // it opens ("SimTime deadline = SimTime::max());").
  int balance = 0;
  for (const char c : trimmed) {
    if (c == '(') ++balance;
    if (c == ')') --balance;
  }
  if (balance < 0) return false;
  bool saw_paren = false;
  std::vector<std::string> toks = decl_idents(trimmed, &saw_paren);
  if (saw_paren) return false;
  std::size_t first = 0;
  while (first < toks.size() && is_decl_qualifier(toks[first])) ++first;
  // Everything after qualifiers must hold a type and a name. Template
  // arguments inflate the count; the *last* token is the declared name.
  if (toks.size() - first < 2) return false;
  if (cxx_keywords().count(toks.back())) return false;
  *name_out = toks.back();
  return true;
}

const char* kStatementStops[] = {
    "using",  "typedef", "template", "namespace", "class",  "struct",
    "enum",   "union",   "friend",   "return",    "public", "private",
    "protected", "case", "goto",     "operator"};

bool stopped_statement(const std::string& trimmed) {
  for (const char* stop : kStatementStops) {
    if (starts_with(trimmed, stop) &&
        (trimmed.size() == std::string(stop).size() ||
         !is_ident_char(trimmed[std::string(stop).size()]))) {
      return true;
    }
  }
  return false;
}

std::string trim(const std::string& s) {
  const std::size_t a = s.find_first_not_of(" \t\r");
  if (a == std::string::npos) return "";
  const std::size_t b = s.find_last_not_of(" \t\r");
  return s.substr(a, b - a + 1);
}

/// Scan one src/ file for mutable namespace-scope variables and mutable
/// local/class statics. `annotated(i)` suppression is resolved by the
/// caller via the shared comment-block walk.
void scan_mutable_globals(const FileText& ft,
                          const std::vector<bool>& annotated,
                          std::vector<Violation>& out) {
  std::vector<ScopeKind> scopes;
  std::string head;  // statement text since the last ';' '{' '}' boundary
  for (std::size_t i = 0; i < ft.stripped.size(); ++i) {
    const std::string& line = ft.stripped[i];
    const bool at_namespace_scope =
        std::all_of(scopes.begin(), scopes.end(), [](ScopeKind k) {
          return k == ScopeKind::kNamespace;
        });
    const std::string trimmed = trim(line);

    if (!annotated[i] && !trimmed.empty() && trimmed[0] != '#') {
      if (at_namespace_scope && !stopped_statement(trimmed) &&
          !starts_with(trimmed, "extern") && !has_exempt_type(trimmed) &&
          !contains_token(trimmed, "const") &&
          !contains_token(trimmed, "constexpr") &&
          !contains_token(trimmed, "constinit")) {
        std::string name;
        if (looks_like_var_definition(trimmed, &name)) {
          out.push_back(Violation{
              ft.rel_path, i + 1, "mutable-global",
              "mutable namespace-scope variable '" + name +
                  "': unowned shared state blocks PDES sharding; move it "
                  "into an owned context object, make it std::atomic / "
                  "mutex-guarded, or annotate '// lint: shared-state' "
                  "with a proof",
              ft.raw[i]});
        }
      } else if (!at_namespace_scope && contains_token(trimmed, "static") &&
                 !contains_token(trimmed, "static_assert") &&
                 !has_exempt_type(trimmed) &&
                 !contains_token(trimmed, "const") &&
                 !contains_token(trimmed, "constexpr") &&
                 !contains_token(trimmed, "constinit")) {
        std::string name;
        if (looks_like_var_definition(trimmed, &name)) {
          out.push_back(Violation{
              ft.rel_path, i + 1, "mutable-global",
              "mutable static '" + name +
                  "': function-local/class statics are process-wide shared "
                  "state; make it std::atomic / mutex-guarded, move it into "
                  "an owned context, or annotate '// lint: shared-state' "
                  "with a proof",
              ft.raw[i]});
        }
      }
    }

    // Advance the scope tracker across this line.
    for (const char c : line) {
      if (c == '{') {
        ScopeKind kind = ScopeKind::kBlock;
        if (contains_token(head, "namespace")) {
          kind = ScopeKind::kNamespace;
        } else if (head.find('=') != std::string::npos) {
          kind = ScopeKind::kInit;
        } else if ((contains_token(head, "class") ||
                    contains_token(head, "struct") ||
                    contains_token(head, "union") ||
                    contains_token(head, "enum")) &&
                   head.find('(') == std::string::npos) {
          kind = ScopeKind::kRecord;
        }
        scopes.push_back(kind);
        head.clear();
      } else if (c == '}') {
        if (!scopes.empty()) scopes.pop_back();
        head.clear();
      } else if (c == ';') {
        head.clear();
      } else {
        head.push_back(c);
      }
    }
    head.push_back(' ');  // line break separates tokens
  }
}

// --- layer-violation pass --------------------------------------------------

LayerManifest load_layers(const fs::path& file) {
  LayerManifest m;
  std::ifstream in(file);
  if (!in) return m;
  m.loaded = true;
  int next_layer = 0;
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream iss(line);
    std::string word;
    if (!(iss >> word)) continue;
    if (word == "layer") {
      std::string mod;
      while (iss >> mod) m.layer_of.emplace(mod, next_layer);
      ++next_layer;
    } else if (word == "allow") {
      std::string from, to;
      if (iss >> from >> to) m.allowed.emplace(from, to);
    } else {
      std::fprintf(stderr, "dde_lint: warning: dde_layers: unknown directive "
                           "'%s'\n", word.c_str());
    }
  }
  return m;
}

/// Module of a src/ file: the first path component under src/, or "" for
/// files sitting directly in src/ (the dde.h umbrella — outside the DAG,
/// allowed to include everything, included by nothing in src/).
std::string module_of(const std::string& rel_path) {
  if (!starts_with(rel_path, "src/")) return "";
  const std::size_t slash = rel_path.find('/', 4);
  if (slash == std::string::npos) return "";
  return rel_path.substr(4, slash - 4);
}

/// Target of a `#include "..."` line, or "" for any other line.
std::string quoted_include(const std::string& line) {
  const std::size_t inc = line.find("#include \"");
  if (inc == std::string::npos) return "";
  const std::size_t open = line.find('"', inc);
  const std::size_t close = line.find('"', open + 1);
  if (close == std::string::npos) return "";
  return line.substr(open + 1, close - open - 1);
}

void scan_layers(const FileText& ft, const LayerManifest& layers,
                 std::vector<Violation>& out) {
  const std::string from = module_of(ft.rel_path);
  if (from.empty()) return;
  const auto from_it = layers.layer_of.find(from);
  if (from_it == layers.layer_of.end()) {
    out.push_back(Violation{
        ft.rel_path, 1, "layer-violation",
        "module 'src/" + from +
            "' is not declared in tools/dde_layers; add it to a layer so "
            "the DAG stays complete",
        ft.raw.empty() ? std::string() : ft.raw[0]});
    return;
  }
  for (std::size_t i = 0; i < ft.raw.size(); ++i) {
    const std::string& line = ft.raw[i];
    const std::string target = quoted_include(line);
    const std::size_t slash = target.find('/');
    if (slash == std::string::npos) continue;
    const std::string to = target.substr(0, slash);
    const auto to_it = layers.layer_of.find(to);
    if (to_it == layers.layer_of.end()) continue;  // not a module include
    if (to == from) continue;
    if (to_it->second < from_it->second) continue;  // downward edge: fine
    if (layers.allowed.count({from, to})) continue;
    const bool upward = to_it->second > from_it->second;
    out.push_back(Violation{
        ft.rel_path, i + 1, "layer-violation",
        "include of '" + target + "' points " +
            (upward ? "upward" : "sideways") + " in the module DAG ('" +
            from + "' layer " + std::to_string(from_it->second) + " -> '" +
            to + "' layer " + std::to_string(to_it->second) +
            "); depend only on lower layers, or declare an audited "
            "'allow " + from + " " + to + "' edge in tools/dde_layers",
        line});
  }
}

// --- orphan-header pass ----------------------------------------------------

/// Flag every src/<module>/ file that no #include chain reaches from a
/// root (a scanned file outside src/ and tests/). An include resolves
/// against the including file's directory and against src/, the include
/// root every target shares.
void scan_orphans(const std::vector<FileText>& texts,
                  std::vector<Violation>& out) {
  std::map<std::string, std::size_t> index;  // rel_path -> texts position
  for (std::size_t i = 0; i < texts.size(); ++i) {
    index.emplace(texts[i].rel_path, i);
  }
  std::vector<bool> reached(texts.size(), false);
  std::vector<std::size_t> work;  // reached, includes not yet followed
  const auto reach = [&](const std::string& rel_path) {
    const auto it = index.find(rel_path);
    if (it == index.end() || reached[it->second]) return;
    reached[it->second] = true;
    work.push_back(it->second);
  };
  for (const FileText& ft : texts) {
    if (!starts_with(ft.rel_path, "src/") &&
        !starts_with(ft.rel_path, "tests/")) {
      reach(ft.rel_path);
    }
  }
  if (work.empty()) return;  // no roots: a src-only scan
  while (!work.empty()) {
    const FileText& ft = texts[work.back()];
    work.pop_back();
    const std::string& path = ft.rel_path;
    if (starts_with(path, "src/") &&
        path.compare(path.size() - 2, 2, ".h") == 0) {
      reach(path.substr(0, path.size() - 2) + ".cpp");
    }
    const fs::path dir = fs::path(path).parent_path();
    for (const std::string& line : ft.raw) {
      const std::string target = quoted_include(line);
      if (target.empty()) continue;
      reach((dir / target).lexically_normal().generic_string());
      reach("src/" + target);
    }
  }
  for (std::size_t i = 0; i < texts.size(); ++i) {
    const FileText& ft = texts[i];
    if (reached[i] || module_of(ft.rel_path).empty()) continue;
    out.push_back(Violation{
        ft.rel_path, 1, "orphan-header",
        "no bench, tool or example reaches this file through #include "
        "(tests do not count): delete it, or allowlist it with the reason "
        "it stays",
        ft.raw.empty() ? std::string() : ft.raw[0]});
  }
}

// --- per-line rule scan ----------------------------------------------------

void scan_file(const FileText& ft, const std::set<std::string>& unordered_ids,
               const LayerManifest& layers, std::vector<Violation>& out) {
  const bool in_src = starts_with(ft.rel_path, "src/");
  const bool env_exempt = starts_with(ft.rel_path, "src/harness/") ||
                          ft.rel_path == "bench/bench_util.h";

  // Resolve annotations once: a marker on the line itself, or anywhere in
  // the contiguous comment block directly above it (multi-line proofs).
  const auto resolve = [&](const std::vector<bool>& marks) {
    std::vector<bool> annotated(ft.stripped.size(), false);
    for (std::size_t i = 0; i < ft.stripped.size(); ++i) {
      bool on = marks[i];
      for (std::size_t j = i; !on && j-- > 0;) {
        if (marks[j]) {
          on = true;
          break;
        }
        const bool comment_only = ft.stripped[j].find_first_not_of(" \t\r") ==
                                      std::string::npos &&
                                  ft.raw[j].find_first_not_of(" \t\r") !=
                                      std::string::npos;
        if (!comment_only) break;
      }
      annotated[i] = on;
    }
    return annotated;
  };
  const std::vector<bool> fold_annotated = resolve(ft.ordered_fold);

  if (in_src) {
    scan_mutable_globals(ft, resolve(ft.shared_state), out);
    if (layers.loaded) scan_layers(ft, layers, out);
  }

  for (std::size_t i = 0; i < ft.stripped.size(); ++i) {
    const std::string& line = ft.stripped[i];
    const bool annotated = fold_annotated[i];
    auto flag = [&](const char* rule, std::string msg) {
      out.push_back(Violation{ft.rel_path, i + 1, rule, std::move(msg),
                              ft.raw[i]});
    };

    // bare-assert: src/ only; contract macros and static_assert excluded
    // by token matching.
    if (in_src && contains_token(line, "assert(")) {
      flag("bare-assert",
           "bare assert() vanishes under -DNDEBUG; use DDE_CHECK / "
           "DDE_ASSERT / DDE_CLAMP_OR from common/contracts.h");
    }

    // wall-clock / ambient nondeterminism.
    for (const char* bad :
         {"std::chrono::system_clock", "std::chrono::steady_clock",
          "system_clock::now", "steady_clock::now", "std::rand",
          "std::random_device", "time(nullptr)", "time(NULL)"}) {
      if (line.find(bad) != std::string::npos) {
        flag("wall-clock",
             std::string(bad) +
                 " breaks seeded reproducibility; derive times from "
                 "des::Simulator and randomness from dde::Rng");
        break;
      }
    }
    if (!env_exempt && contains_token(line, "getenv")) {
      flag("wall-clock",
           "getenv outside src/harness/ or bench/bench_util.h makes runs "
           "depend on ambient environment");
    }

    // float-accumulate.
    if (!annotated && line.find("std::accumulate") != std::string::npos) {
      flag("float-accumulate",
           "std::accumulate hides the fold order; write the loop "
           "explicitly or annotate '// lint: ordered-fold' with a proof");
    }

    // unordered-iter: range-for over a known unordered identifier, or
    // an iterator loop touching its .begin()/.cbegin().
    if (annotated) continue;
    const std::size_t for_pos = line.find("for ");
    const std::size_t for_pos2 = line.find("for(");
    const std::size_t fpos = std::min(for_pos, for_pos2);
    if (fpos == std::string::npos) continue;
    bool flagged = false;
    const std::size_t colon = line.find(" : ", fpos);
    if (colon != std::string::npos) {
      // Range expression runs to the closing paren (or end of line for
      // multi-line fors).
      std::size_t close = line.rfind(')');
      if (close == std::string::npos || close < colon) close = line.size();
      std::string range = line.substr(colon + 3, close - colon - 3);
      while (!range.empty() && (range.back() == ' ' || range.back() == '\t')) {
        range.pop_back();
      }
      // A call expression (`forwarded_.sorted_keys()`) materializes a copy —
      // iterating the result is fine; only bare container accesses
      // (`beliefs_`, `ingested_`) are hazards.
      const bool is_call = !range.empty() && range.back() == ')';
      const std::string id = last_ident(range);
      if (!is_call && unordered_ids.count(id)) {
        flag("unordered-iter",
             "range-for over unordered container '" + id +
                 "': iteration order is implementation-defined; use an "
                 "ordered container/sorted keys, or annotate "
                 "'// lint: ordered-fold' with a proof");
        flagged = true;
      }
    }
    if (!flagged) {
      for (const char* call : {".begin()", ".cbegin()"}) {
        const std::size_t bpos = line.find(call, fpos);
        if (bpos == std::string::npos) continue;
        const std::string id =
            last_ident(std::string_view(line).substr(0, bpos));
        if (unordered_ids.count(id)) {
          flag("unordered-iter",
               "iterator loop over unordered container '" + id +
                   "': iteration order is implementation-defined; use an "
                   "ordered container/sorted keys, or annotate "
                   "'// lint: ordered-fold' with a proof");
          break;
        }
      }
    }
  }
}

std::vector<AllowEntry> load_allowlist(const fs::path& file) {
  std::vector<AllowEntry> entries;
  std::ifstream in(file);
  if (!in) return entries;
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream iss(line);
    AllowEntry e;
    if (!(iss >> e.rule >> e.path)) continue;
    std::string rest;
    std::getline(iss, rest);
    const std::size_t first = rest.find_first_not_of(" \t");
    if (first != std::string::npos) {
      e.needle = rest.substr(first);
    }
    entries.push_back(std::move(e));
  }
  return entries;
}

/// Rule catalogue for --list-rules: CI logs print this so a passing run
/// shows which passes were active.
void list_rules() {
  std::puts(
      "bare-assert       assert( in src/ (use src/common/contracts.h)\n"
      "wall-clock        ambient time/env/entropy reads\n"
      "unordered-iter    iteration over std::unordered_* containers\n"
      "float-accumulate  std::accumulate fold-order hazard\n"
      "mutable-global    unowned mutable namespace-scope/static state in "
      "src/\n"
      "layer-violation   #include edge against the tools/dde_layers module "
      "DAG\n"
      "orphan-header     src/ module file no bench/tool/example #include "
      "chain reaches");
}

}  // namespace

int main(int argc, char** argv) {
  fs::path root = fs::current_path();
  fs::path allow_file;
  fs::path layers_file;
  std::vector<fs::path> inputs;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg == "--allow" && i + 1 < argc) {
      allow_file = argv[++i];
    } else if (arg == "--layers" && i + 1 < argc) {
      layers_file = argv[++i];
    } else if (arg == "--list-rules") {
      list_rules();
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      std::puts(
          "usage: dde_lint [--allow FILE] [--layers FILE] [--root DIR]\n"
          "                [--list-rules] PATH...");
      return 0;
    } else {
      inputs.emplace_back(arg);
    }
  }
  if (inputs.empty()) {
    std::fputs("dde_lint: no input paths (try --help)\n", stderr);
    return 2;
  }
  root = fs::weakly_canonical(root);
  if (layers_file.empty()) layers_file = root / "tools" / "dde_layers";

  // Collect .h/.cpp files, lexicographically sorted for determinism.
  // Directories named lint_fixtures are deliberately-bad rule fixtures:
  // skipped unless the caller points inside one explicitly.
  std::vector<fs::path> files;
  for (const fs::path& in : inputs) {
    std::error_code ec;
    if (fs::is_directory(in, ec)) {
      for (auto it = fs::recursive_directory_iterator(in, ec);
           !ec && it != fs::recursive_directory_iterator(); ++it) {
        if (it->is_directory() &&
            it->path().filename() == "lint_fixtures") {
          it.disable_recursion_pending();
          continue;
        }
        if (!it->is_regular_file()) continue;
        const auto ext = it->path().extension();
        if (ext == ".h" || ext == ".cpp" || ext == ".hpp" || ext == ".cc") {
          files.push_back(it->path());
        }
      }
    } else if (fs::is_regular_file(in, ec)) {
      files.push_back(in);
    } else {
      std::fprintf(stderr, "dde_lint: cannot read %s\n", in.c_str());
      return 2;
    }
  }
  std::vector<FileText> texts;
  texts.reserve(files.size());
  for (const fs::path& f : files) {
    FileText ft;
    fs::path rel = fs::weakly_canonical(f).lexically_relative(root);
    ft.rel_path = rel.generic_string();
    std::ifstream in(f);
    std::string line;
    while (std::getline(in, line)) ft.raw.push_back(line);
    strip_and_annotate(ft);
    texts.push_back(std::move(ft));
  }
  std::sort(texts.begin(), texts.end(),
            [](const FileText& a, const FileText& b) {
              return a.rel_path < b.rel_path;
            });
  texts.erase(std::unique(texts.begin(), texts.end(),
                          [](const FileText& a, const FileText& b) {
                            return a.rel_path == b.rel_path;
                          }),
              texts.end());

  // Pass 1: every unordered-container identifier in the scanned set.
  // Global on purpose: members are declared in headers and iterated in
  // .cpp files; a same-named ordered container elsewhere is a false
  // positive the audit suppresses explicitly.
  std::set<std::string> unordered_ids;
  for (const FileText& ft : texts) {
    collect_unordered_idents(ft, unordered_ids);
  }

  // The module DAG. Absent manifest = pass off (fixture trees without one
  // exercise only the line rules); the real tree checks one in at
  // tools/dde_layers, so the repo gate always runs it.
  const LayerManifest layers = load_layers(layers_file);

  // Pass 2: rules.
  std::vector<Violation> violations;
  for (const FileText& ft : texts) {
    scan_file(ft, unordered_ids, layers, violations);
  }
  scan_orphans(texts, violations);

  // Allowlist filtering.
  std::vector<AllowEntry> allow = load_allowlist(allow_file);
  std::vector<Violation> kept;
  for (Violation& v : violations) {
    bool suppressed = false;
    for (AllowEntry& e : allow) {
      if (e.rule == v.rule && e.path == v.path &&
          (e.needle.empty() ||
           v.raw_line.find(e.needle) != std::string::npos)) {
        e.used = true;
        suppressed = true;
        break;
      }
    }
    if (!suppressed) kept.push_back(std::move(v));
  }
  for (const AllowEntry& e : allow) {
    if (!e.used) {
      std::fprintf(stderr,
                   "dde_lint: warning: unused allowlist entry '%s %s %s'\n",
                   e.rule.c_str(), e.path.c_str(), e.needle.c_str());
    }
  }

  std::sort(kept.begin(), kept.end(), [](const Violation& a,
                                         const Violation& b) {
    if (a.path != b.path) return a.path < b.path;
    if (a.line != b.line) return a.line < b.line;
    return a.rule < b.rule;
  });
  for (const Violation& v : kept) {
    std::printf("%s:%zu: [%s] %s\n", v.path.c_str(), v.line, v.rule.c_str(),
                v.message.c_str());
  }
  if (!kept.empty()) {
    std::printf("dde_lint: %zu violation(s)\n", kept.size());
    return 1;
  }
  return 0;
}
