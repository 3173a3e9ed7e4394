#include "lint.hpp"

#include <algorithm>
#include <array>
#include <cctype>

namespace cdlint {

namespace {

// ---------------------------------------------------------------------------
// Small helpers
// ---------------------------------------------------------------------------

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

std::string normalize_path(std::string_view p) {
  std::string out(p);
  std::replace(out.begin(), out.end(), '\\', '/');
  return out;
}

/// Records a `cdlint: allow(a, b)` directive found in a comment.
void harvest_directive(std::string_view comment, std::size_t line,
                       Directives& dirs) {
  const auto tag = comment.find("cdlint:");
  if (tag == std::string_view::npos) return;
  const auto open = comment.find("allow(", tag);
  if (open == std::string_view::npos) return;
  const auto close = comment.find(')', open);
  if (close == std::string_view::npos) return;
  std::string_view rules = comment.substr(open + 6, close - (open + 6));
  std::size_t pos = 0;
  while (pos < rules.size()) {
    std::size_t comma = rules.find(',', pos);
    if (comma == std::string_view::npos) comma = rules.size();
    std::string_view r = rules.substr(pos, comma - pos);
    while (!r.empty() && std::isspace(static_cast<unsigned char>(r.front())))
      r.remove_prefix(1);
    while (!r.empty() && std::isspace(static_cast<unsigned char>(r.back())))
      r.remove_suffix(1);
    if (!r.empty()) dirs.allow_by_line[line].insert(std::string(r));
    pos = comma + 1;
  }
}

// Multi-character punctuators we need as single tokens. `<` and `>` are
// deliberately kept single-character so template-argument scanning can
// balance them (no `>>`/`<<` merging).
constexpr std::array<std::string_view, 13> kPuncts2 = {
    "::", "->", "+=", "-=", "*=", "/=", "==",
    "!=", "<=", ">=", "&&", "||", "%=",
};

}  // namespace

bool Directives::allows(std::size_t line, std::string_view rule) const {
  for (std::size_t l : {line, line == 0 ? line : line - 1}) {
    auto it = allow_by_line.find(l);
    if (it != allow_by_line.end() &&
        it->second.count(std::string(rule)) != 0) {
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

std::vector<Token> lex(std::string_view src, Directives& dirs) {
  std::vector<Token> out;
  std::size_t i = 0, line = 1;
  const std::size_t n = src.size();

  auto push = [&](TokKind k, std::string text) {
    out.push_back(Token{k, std::move(text), line});
  };

  while (i < n) {
    const char c = src[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    // Line comment.
    if (c == '/' && i + 1 < n && src[i + 1] == '/') {
      std::size_t end = src.find('\n', i);
      if (end == std::string_view::npos) end = n;
      harvest_directive(src.substr(i, end - i), line, dirs);
      i = end;
      continue;
    }
    // Block comment.
    if (c == '/' && i + 1 < n && src[i + 1] == '*') {
      std::size_t end = src.find("*/", i + 2);
      if (end == std::string_view::npos) end = n;
      std::string_view body = src.substr(i, end - i);
      harvest_directive(body, line, dirs);
      line += static_cast<std::size_t>(
          std::count(body.begin(), body.end(), '\n'));
      i = (end == n) ? n : end + 2;
      continue;
    }
    // Preprocessor directive: consume to end of line (honoring \-splices).
    // #include paths and macro bodies are not linted.
    if (c == '#') {
      while (i < n) {
        std::size_t end = src.find('\n', i);
        if (end == std::string_view::npos) {
          i = n;
          break;
        }
        bool spliced = end > 0 && src[end - 1] == '\\';
        ++line;
        i = end + 1;
        if (!spliced) break;
      }
      continue;
    }
    // Raw string literal: R"delim( ... )delim".
    if (c == 'R' && i + 1 < n && src[i + 1] == '"') {
      std::size_t p = i + 2;
      std::size_t paren = src.find('(', p);
      if (paren == std::string_view::npos) {
        ++i;
        continue;
      }
      // Built with append (not operator+) to sidestep GCC 12's bogus
      // -Wrestrict diagnostic on `const char* + std::string&&` at -O2.
      std::string close(")");
      close.append(src.substr(p, paren - p));
      close.push_back('"');
      std::size_t end = src.find(close, paren + 1);
      if (end == std::string_view::npos) end = n;
      std::string_view body = src.substr(i, end - i);
      line += static_cast<std::size_t>(
          std::count(body.begin(), body.end(), '\n'));
      push(TokKind::kString, "");
      i = (end == n) ? n : end + close.size();
      continue;
    }
    // String / char literal.
    if (c == '"' || c == '\'') {
      const char q = c;
      std::size_t p = i + 1;
      while (p < n && src[p] != q) {
        if (src[p] == '\\' && p + 1 < n) ++p;
        if (src[p] == '\n') ++line;
        ++p;
      }
      push(q == '"' ? TokKind::kString : TokKind::kChar,
           std::string(src.substr(i + 1, p - i - 1)));
      i = (p < n) ? p + 1 : n;
      continue;
    }
    // Identifier / keyword.
    if (ident_start(c)) {
      std::size_t p = i + 1;
      while (p < n && ident_char(src[p])) ++p;
      push(TokKind::kIdent, std::string(src.substr(i, p - i)));
      i = p;
      continue;
    }
    // Number (coarse: consumes hexfloats, suffixes, digit separators).
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && i + 1 < n &&
         std::isdigit(static_cast<unsigned char>(src[i + 1])))) {
      std::size_t p = i + 1;
      while (p < n && (ident_char(src[p]) || src[p] == '.' || src[p] == '\'' ||
                       ((src[p] == '+' || src[p] == '-') &&
                        (src[p - 1] == 'e' || src[p - 1] == 'E' ||
                         src[p - 1] == 'p' || src[p - 1] == 'P')))) {
        ++p;
      }
      push(TokKind::kNumber, std::string(src.substr(i, p - i)));
      i = p;
      continue;
    }
    // Punctuation, longest-match over the two-char set.
    if (i + 1 < n) {
      std::string_view two = src.substr(i, 2);
      bool matched = false;
      for (std::string_view p2 : kPuncts2) {
        if (two == p2) {
          push(TokKind::kPunct, std::string(p2));
          i += 2;
          matched = true;
          break;
        }
      }
      if (matched) continue;
    }
    push(TokKind::kPunct, std::string(1, c));
    ++i;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Allowlist
// ---------------------------------------------------------------------------

Allowlist parse_allowlist(std::string_view text) {
  Allowlist al;
  std::size_t pos = 0, lineno = 0;
  while (pos <= text.size()) {
    std::size_t end = text.find('\n', pos);
    if (end == std::string_view::npos) end = text.size();
    std::string_view ln = text.substr(pos, end - pos);
    ++lineno;
    pos = end + 1;
    // Strip comment and whitespace.
    if (auto h = ln.find('#'); h != std::string_view::npos)
      ln = ln.substr(0, h);
    while (!ln.empty() && std::isspace(static_cast<unsigned char>(ln.back())))
      ln.remove_suffix(1);
    while (!ln.empty() && std::isspace(static_cast<unsigned char>(ln.front())))
      ln.remove_prefix(1);
    if (ln.empty()) {
      if (pos > text.size()) break;
      continue;
    }
    std::size_t sp = ln.find_first_of(" \t");
    if (sp == std::string_view::npos) {
      al.errors.push_back("allowlist line " + std::to_string(lineno) +
                          ": expected '<rule-id> <path-suffix>'");
      continue;
    }
    AllowEntry e;
    e.rule = std::string(ln.substr(0, sp));
    std::string_view rest = ln.substr(sp);
    while (!rest.empty() &&
           std::isspace(static_cast<unsigned char>(rest.front())))
      rest.remove_prefix(1);
    e.path_suffix = normalize_path(rest);
    const auto& rules = known_rules();
    if (std::find(rules.begin(), rules.end(), e.rule) == rules.end()) {
      al.errors.push_back("allowlist line " + std::to_string(lineno) +
                          ": unknown rule '" + e.rule + "'");
      continue;
    }
    al.entries.push_back(std::move(e));
    if (pos > text.size()) break;
  }
  return al;
}

bool Allowlist::allows(std::string_view path, std::string_view rule) const {
  for (const AllowEntry& e : entries) {
    if (e.rule == rule && ends_with(path, e.path_suffix)) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Rule table
// ---------------------------------------------------------------------------

const std::vector<std::string>& known_rules() {
  static const std::vector<std::string> kRules = {
      "float-accum-unordered", "hot-alloc",    "hot-std-function",
      "ptr-key",               "raw-random",   "uninit-field",
      "unordered-iter",
  };
  return kRules;
}

std::string_view suggestion_for(std::string_view rule) {
  if (rule == "unordered-iter") {
    return "iterate a deterministically-ordered structure instead (std::map, "
           "sorted std::vector, or the index-ordered tag array); if the "
           "loop's effect is provably order-independent (pure predicate "
           "erase, like the CacheLevel attribution purge), grant it in "
           "tools/cdlint/allowlist.txt with a justification";
  }
  if (rule == "raw-random") {
    return "draw from an explicitly-seeded cdsim::Xoshiro256 (common/rng.hpp) "
           "owned by the consumer; seeds must come from the configuration, "
           "never from time or hardware entropy";
  }
  if (rule == "ptr-key") {
    return "key the container on a stable id (line index, CoreId, Addr) "
           "instead of a pointer — pointer order is allocator order and "
           "changes run to run";
  }
  if (rule == "hot-std-function") {
    return "use cdsim::SmallFn (common/small_fn.hpp): fixed-size buffer, "
           "no heap allocation, move-only — mandated on event/MSHR/bus hot "
           "paths since PR 2";
  }
  if (rule == "float-accum-unordered") {
    return "FP addition is not associative: accumulate over a sorted "
           "snapshot of the container, or keep integer accumulators and "
           "convert once at the end";
  }
  if (rule == "uninit-field") {
    return "add a default member initializer (e.g. `= 0`, `= nullptr`, "
           "`= {}`) — indeterminate fields make two identical configs "
           "diverge and are UB to read";
  }
  if (rule == "hot-alloc") {
    return "keep the per-event path heap-free: replace the node container "
           "with a reserve()d std::vector, a FifoRing (common/ring.hpp), or "
           "a slot pool with a free list (EventQueue/MeshNoc are the "
           "templates); if occupancy is provably bounded or growth stops at "
           "a high-water mark, grant it in tools/cdlint/allowlist.txt with "
           "that argument";
  }
  return "";
}

// ---------------------------------------------------------------------------
// LintConfig defaults
// ---------------------------------------------------------------------------

LintConfig::LintConfig() {
  // Hot paths where SmallFn is mandated (PR 2's contract): the event queue,
  // the MSHR/write-buffer machinery, and the fabric request hooks.
  hot_paths = {
      "common/event_queue.hpp", "common/small_fn.hpp",
      "cache/mshr.hpp",         "cache/write_buffer.hpp",
      "bus/snoop_bus.hpp",      "noc/interconnect.hpp",
  };
  random_homes = {"common/rng.hpp", "common/rng.cpp"};
  uninit_field_scopes = {"include/cdsim/"};
  // Headers whose code runs per simulated event: every cache access walks
  // cache/, every coherence transaction walks noc/ or bus/, every
  // instruction walks core/. Steady-state allocation here is a host-time
  // regression the throughput bench would pay on each of millions of
  // events.
  hot_alloc_scopes = {
      "include/cdsim/cache/",
      "include/cdsim/noc/",
      "include/cdsim/bus/",
      "include/cdsim/core/",
  };
}

// ---------------------------------------------------------------------------
// The linter
// ---------------------------------------------------------------------------

namespace {

struct Linter {
  const LintConfig& cfg;
  std::string path;
  const std::vector<Token>& t;
  const Directives& dirs;
  std::vector<Finding> findings = {};

  // File-local name tables (heuristic: names are file-unique enough).
  // AddrMap (common/addr_map.hpp) is an open-addressing hash table: its
  // slot order depends on hash and capacity history just like a bucket
  // order, so it is tracked as an unordered container.
  std::set<std::string> unordered_types = {"unordered_map", "unordered_set",
                                           "unordered_multimap",
                                           "unordered_multiset", "AddrMap"};
  std::set<std::string> unordered_names = {};
  std::set<std::string> float_names = {};

  // Range-for loops over unordered containers: [body_begin, body_end) token
  // extents, reused by the float-accum rule.
  std::vector<std::pair<std::size_t, std::size_t>> unordered_loop_bodies = {};

  bool is(std::size_t i, TokKind k, std::string_view text) const {
    return i < t.size() && t[i].kind == k && t[i].text == text;
  }
  bool ident(std::size_t i, std::string_view text) const {
    return is(i, TokKind::kIdent, text);
  }
  bool punct(std::size_t i, std::string_view text) const {
    return is(i, TokKind::kPunct, text);
  }

  void report(std::size_t line, std::string_view rule, std::string message) {
    findings.push_back(
        Finding{path, line, std::string(rule), std::move(message), false});
  }

  /// Token index just past a balanced <...> starting at `open` (which must
  /// be '<'). Stops at end of stream on imbalance.
  std::size_t skip_angles(std::size_t open) const {
    int depth = 0;
    std::size_t i = open;
    for (; i < t.size(); ++i) {
      if (punct(i, "<")) ++depth;
      if (punct(i, ">")) {
        if (--depth == 0) return i + 1;
      }
      // Statement-ish terminator without balance: bail (it was a
      // comparison, not a template argument list).
      if (punct(i, ";")) break;
    }
    return i;
  }

  /// Token index just past a balanced pair starting at `open`.
  std::size_t skip_balanced(std::size_t open, std::string_view o,
                            std::string_view c) const {
    int depth = 0;
    std::size_t i = open;
    for (; i < t.size(); ++i) {
      if (punct(i, o)) ++depth;
      if (punct(i, c)) {
        if (--depth == 0) return i + 1;
      }
    }
    return i;
  }

  bool path_matches(const std::vector<std::string>& suffixes) const {
    for (const std::string& s : suffixes) {
      if (ends_with(path, s)) return true;
    }
    return false;
  }
  bool path_contains(const std::vector<std::string>& subs) const {
    for (const std::string& s : subs) {
      if (path.find(s) != std::string::npos) return true;
    }
    return false;
  }

  // --- pass A: name tables -------------------------------------------------

  void collect_names() {
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (t[i].kind != TokKind::kIdent) continue;
      // `using Alias = ... unordered_map< ... ;` makes Alias an unordered
      // type name for the rest of the file.
      if (ident(i, "using") && i + 2 < t.size() &&
          t[i + 1].kind == TokKind::kIdent && punct(i + 2, "=")) {
        for (std::size_t j = i + 3; j < t.size() && !punct(j, ";"); ++j) {
          if (t[j].kind == TokKind::kIdent &&
              unordered_types.count(t[j].text) != 0) {
            unordered_types.insert(t[i + 1].text);
            break;
          }
        }
        continue;
      }
      // `unordered_map<K, V> name` — or an alias, `Shadow name` — optionally
      // through const/&/* clutter.
      if (unordered_types.count(t[i].text) != 0) {
        std::size_t j = punct(i + 1, "<") ? skip_angles(i + 1) : i + 1;
        while (j < t.size() &&
               (ident(j, "const") || punct(j, "&") || punct(j, "*"))) {
          ++j;
        }
        if (j < t.size() && t[j].kind == TokKind::kIdent) {
          unordered_names.insert(t[j].text);
        }
      }
      // `double name` / `float name` (+ comma declarators).
      if (ident(i, "double") || ident(i, "float")) {
        std::size_t j = i + 1;
        while (j < t.size() && t[j].kind == TokKind::kIdent &&
               (t[j].text == "const")) {
          ++j;
        }
        while (j < t.size() && t[j].kind == TokKind::kIdent) {
          float_names.insert(t[j].text);
          // Skip past an initializer to a possible `, next_name`.
          std::size_t k = j + 1;
          int pdepth = 0;
          while (k < t.size()) {
            if (punct(k, "(") || punct(k, "[") || punct(k, "{")) ++pdepth;
            if (punct(k, ")") || punct(k, "]") || punct(k, "}")) --pdepth;
            if (pdepth == 0 && (punct(k, ";") || punct(k, ","))) break;
            if (pdepth < 0) break;
            ++k;
          }
          if (k < t.size() && punct(k, ",") &&
              k + 1 < t.size() && t[k + 1].kind == TokKind::kIdent) {
            j = k + 1;
          } else {
            break;
          }
        }
      }
    }
  }

  // --- rule: unordered-iter (+ loop extents for float-accum) ---------------

  void rule_unordered_iter() {
    for (std::size_t i = 0; i < t.size(); ++i) {
      // Range-for over an unordered name.
      if (ident(i, "for") && punct(i + 1, "(")) {
        std::size_t close = skip_balanced(i + 1, "(", ")");
        // Find the range-for ':' at paren depth 1 ('::' is one token, so a
        // bare ':' here is the range separator).
        std::size_t colon = 0;
        int depth = 0;
        for (std::size_t j = i + 1; j < close; ++j) {
          if (punct(j, "(") || punct(j, "[") || punct(j, "{")) ++depth;
          if (punct(j, ")") || punct(j, "]") || punct(j, "}")) --depth;
          if (depth == 1 && punct(j, ":")) {
            colon = j;
            break;
          }
        }
        if (colon != 0) {
          bool over_unordered = false;
          for (std::size_t j = colon + 1; j + 1 < close; ++j) {
            if (t[j].kind == TokKind::kIdent &&
                unordered_names.count(t[j].text) != 0) {
              over_unordered = true;
              break;
            }
          }
          if (over_unordered) {
            report(t[i].line, "unordered-iter",
                   "range-for over an unordered container: bucket order is "
                   "nondeterministic");
            if (close < t.size() && punct(close, "{")) {
              unordered_loop_bodies.emplace_back(
                  close, skip_balanced(close, "{", "}"));
            } else {
              // Single-statement body: extend to the terminating ';'.
              std::size_t e = close;
              while (e < t.size() && !punct(e, ";")) ++e;
              unordered_loop_bodies.emplace_back(close, e);
            }
          }
        }
        continue;
      }
      // Iterator form: name.begin()/cbegin()/rbegin() etc.
      if (t[i].kind == TokKind::kIdent &&
          unordered_names.count(t[i].text) != 0 &&
          (punct(i + 1, ".") || is(i + 1, TokKind::kPunct, "->"))) {
        // `.end()` alone is NOT iteration — `find(k) != end()` is the
        // canonical deterministic lookup — so only begin-family calls
        // (the thing a traversal cannot start without) trip the rule.
        static const std::set<std::string> kIterFns = {"begin", "cbegin",
                                                       "rbegin"};
        if (i + 3 < t.size() && t[i + 2].kind == TokKind::kIdent &&
            kIterFns.count(t[i + 2].text) != 0 && punct(i + 3, "(")) {
          report(t[i].line, "unordered-iter",
                 "iterator over an unordered container ('" + t[i].text +
                     "." + t[i + 2].text +
                     "()'): bucket order is nondeterministic");
        }
      }
    }
  }

  // --- rule: raw-random ----------------------------------------------------

  void rule_raw_random() {
    if (path_matches(cfg.random_homes)) return;
    static const std::set<std::string> kBannedTypes = {
        "random_device", "mt19937",     "mt19937_64",
        "minstd_rand",   "minstd_rand0", "default_random_engine",
        "knuth_b",       "ranlux24",    "ranlux48",
    };
    static const std::set<std::string> kBannedCalls = {
        "rand", "srand", "drand48", "lrand48", "rand_r", "random",
        "random_shuffle", "gettimeofday", "timespec_get",
    };
    static const std::set<std::string> kClocks = {
        "system_clock", "steady_clock", "high_resolution_clock"};
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (t[i].kind != TokKind::kIdent) continue;
      const bool memberish =
          i > 0 && (punct(i - 1, ".") || is(i - 1, TokKind::kPunct, "->"));
      if (kBannedTypes.count(t[i].text) != 0) {
        report(t[i].line, "raw-random",
               "'" + t[i].text +
                   "' outside common/rng: all randomness must be "
                   "explicitly seeded from the configuration");
        continue;
      }
      if (!memberish && kBannedCalls.count(t[i].text) != 0 &&
          punct(i + 1, "(")) {
        report(t[i].line, "raw-random",
               "call to '" + t[i].text +
                   "()' outside common/rng: nondeterministic source");
        continue;
      }
      // time(NULL)/time(0)/time(nullptr), clock() — the canonical wall-clock
      // seeds. Restricted forms to avoid flagging unrelated `time` members.
      if (!memberish && ident(i, "time") && punct(i + 1, "(") &&
          (ident(i + 2, "nullptr") || ident(i + 2, "NULL") ||
           is(i + 2, TokKind::kNumber, "0"))) {
        report(t[i].line, "raw-random",
               "'time(...)' wall-clock seed: nondeterministic source");
        continue;
      }
      if (!memberish && ident(i, "clock") && punct(i + 1, "(") &&
          punct(i + 2, ")")) {
        report(t[i].line, "raw-random",
               "'clock()' wall-clock read: nondeterministic source");
        continue;
      }
      if (kClocks.count(t[i].text) != 0 && is(i + 1, TokKind::kPunct, "::") &&
          ident(i + 2, "now")) {
        report(t[i].line, "raw-random",
               "'" + t[i].text +
                   "::now()': wall-clock time must never reach simulation "
                   "state");
      }
    }
  }

  // --- rule: ptr-key -------------------------------------------------------

  void rule_ptr_key() {
    static const std::set<std::string> kOrdered = {"map", "set", "multimap",
                                                   "multiset"};
    for (std::size_t i = 0; i + 1 < t.size(); ++i) {
      if (t[i].kind != TokKind::kIdent || kOrdered.count(t[i].text) == 0 ||
          !punct(i + 1, "<")) {
        continue;
      }
      // Require std:: qualification (or global scope) so locally-named
      // `set`/`map` identifiers don't trip the rule.
      if (!(i >= 2 && is(i - 1, TokKind::kPunct, "::") &&
            ident(i - 2, "std"))) {
        continue;
      }
      // Scan the first template argument (depth-1 until ',' or close).
      int depth = 0;
      bool ptr = false;
      for (std::size_t j = i + 1; j < t.size(); ++j) {
        if (punct(j, "<")) ++depth;
        if (punct(j, ">")) {
          if (--depth == 0) break;
        }
        if (depth == 1 && punct(j, ",")) break;
        if (depth >= 1 && punct(j, "*")) ptr = true;
        if (punct(j, ";")) break;  // unbalanced: comparison, not template
      }
      if (ptr) {
        report(t[i].line, "ptr-key",
               "std::" + t[i].text +
                   " keyed on a pointer: iteration order is address order "
                   "(allocator-dependent)");
      }
    }
  }

  // --- rule: hot-std-function ----------------------------------------------

  void rule_hot_std_function() {
    if (!path_matches(cfg.hot_paths)) return;
    for (std::size_t i = 0; i + 2 < t.size(); ++i) {
      if (ident(i, "std") && is(i + 1, TokKind::kPunct, "::") &&
          ident(i + 2, "function")) {
        report(t[i].line, "hot-std-function",
               "std::function on a hot path: SmallFn is mandated here "
               "(heap allocation + double indirection per call)");
      }
    }
  }

  // --- rule: hot-alloc -----------------------------------------------------

  void rule_hot_alloc() {
    if (!path_contains(cfg.hot_alloc_scopes)) return;
    // Containers whose growth allocates nodes or chunks as the structure
    // is used (vs. a vector whose reserve() is a one-time cost the caller
    // controls).
    static const std::set<std::string> kNodeContainers = {
        "deque",         "list",
        "forward_list",  "map",
        "multimap",      "set",
        "multiset",      "unordered_map",
        "unordered_multimap", "unordered_set",
        "unordered_multiset",
    };
    static const std::set<std::string> kAllocCalls = {"make_unique",
                                                      "make_shared"};
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (t[i].kind != TokKind::kIdent) continue;
      const bool std_qualified =
          i >= 2 && is(i - 1, TokKind::kPunct, "::") && ident(i - 2, "std");
      if (std_qualified && kNodeContainers.count(t[i].text) != 0 &&
          punct(i + 1, "<")) {
        report(t[i].line, "hot-alloc",
               "std::" + t[i].text +
                   " in a hot-path header: node/chunk-based containers "
                   "allocate as they are used — pre-size a vector, FifoRing "
                   "or slot pool instead");
        continue;
      }
      if (kAllocCalls.count(t[i].text) != 0 &&
          (punct(i + 1, "<") || punct(i + 1, "("))) {
        report(t[i].line, "hot-alloc",
               "'" + t[i].text +
                   "' in a hot-path header: per-object heap allocation on "
                   "the event path — pool the records and pass handles");
        continue;
      }
      // `new` expressions; `operator new` declarations are the customization
      // point itself, not an allocation site.
      if (ident(i, "new") && !(i > 0 && ident(i - 1, "operator"))) {
        report(t[i].line, "hot-alloc",
               "'new' in a hot-path header: per-object heap allocation on "
               "the event path — pool the records and pass handles");
      }
    }
  }

  // --- rule: float-accum-unordered -----------------------------------------

  void rule_float_accum() {
    for (const auto& [b, e] : unordered_loop_bodies) {
      for (std::size_t i = b; i < e && i < t.size(); ++i) {
        if ((is(i, TokKind::kPunct, "+=") || is(i, TokKind::kPunct, "-=")) &&
            i > 0 && t[i - 1].kind == TokKind::kIdent &&
            float_names.count(t[i - 1].text) != 0) {
          report(t[i].line, "float-accum-unordered",
                 "floating-point accumulation into '" + t[i - 1].text +
                     "' inside an unordered-container loop: FP addition is "
                     "not associative, the sum depends on bucket order");
        }
      }
    }
  }

  // --- rule: uninit-field --------------------------------------------------

  void rule_uninit_field() {
    if (!path_contains(cfg.uninit_field_scopes)) return;
    static const std::set<std::string> kScalar = {
        "bool",          "char",          "short",        "int",
        "long",          "unsigned",      "signed",       "float",
        "double",        "size_t",        "ptrdiff_t",    "int8_t",
        "int16_t",       "int32_t",       "int64_t",      "uint8_t",
        "uint16_t",      "uint32_t",      "uint64_t",     "intptr_t",
        "uintptr_t",     "Cycle",         "Addr",         "CoreId",
    };
    static const std::set<std::string> kSkipLead = {
        "static", "constexpr", "using",    "typedef", "friend",
        "template", "virtual", "operator", "enum",    "return",
    };

    // Class-body brace depths (stack).
    std::vector<int> class_depths;
    int depth = 0;
    std::size_t i = 0;
    while (i < t.size()) {
      if (punct(i, "{")) {
        ++depth;
        ++i;
        continue;
      }
      if (punct(i, "}")) {
        if (!class_depths.empty() && class_depths.back() == depth) {
          class_depths.pop_back();
        }
        --depth;
        ++i;
        continue;
      }
      // Enter a class/struct body: `struct X ... {` with no ';' before '{'.
      if ((ident(i, "struct") || ident(i, "class")) &&
          !(i > 0 && ident(i - 1, "enum"))) {
        std::size_t j = i + 1;
        int adepth = 0;
        while (j < t.size()) {
          if (punct(j, "<")) ++adepth;
          if (punct(j, ">")) --adepth;
          if (adepth == 0 && (punct(j, "{") || punct(j, ";"))) break;
          ++j;
        }
        if (j < t.size() && punct(j, "{")) {
          class_depths.push_back(depth + 1);
          depth += 1;
          i = j + 1;
          continue;
        }
        i = j + 1;
        continue;
      }
      const bool in_class_body =
          !class_depths.empty() && class_depths.back() == depth;
      if (!in_class_body) {
        ++i;
        continue;
      }
      // Access specifier: `public:` etc.
      if ((ident(i, "public") || ident(i, "private") ||
           ident(i, "protected")) &&
          punct(i + 1, ":")) {
        i += 2;
        continue;
      }
      // Collect one member statement: to ';' at this depth, or a balanced
      // '{...}' (function body / braced init) after which the statement
      // ends at the next ';' or immediately.
      std::size_t stmt_begin = i;
      bool has_init = false, has_paren = false, has_colon = false;
      int sdepth = 0;
      std::size_t j = i;
      for (; j < t.size(); ++j) {
        if (punct(j, "(")) {
          has_paren = true;
          j = skip_balanced(j, "(", ")") - 1;
          continue;
        }
        if (punct(j, "[")) {
          j = skip_balanced(j, "[", "]") - 1;
          continue;
        }
        if (punct(j, "<")) {
          ++sdepth;
          continue;
        }
        if (punct(j, ">")) {
          --sdepth;
          continue;
        }
        if (punct(j, "{")) {
          has_init = true;
          j = skip_balanced(j, "{", "}") - 1;
          // A function/struct body also terminates the statement.
          if (j + 1 < t.size() && !punct(j + 1, ";") && !punct(j + 1, ",")) {
            ++j;
            break;
          }
          continue;
        }
        if (punct(j, "=")) has_init = true;
        if (sdepth == 0 && punct(j, ":")) has_colon = true;
        if (punct(j, ";")) {
          ++j;
          break;
        }
      }
      i = j;
      if (has_init || has_colon) continue;
      // Leading token filters.
      std::size_t k = stmt_begin;
      while (k < i && (ident(k, "mutable") || ident(k, "const") ||
                       ident(k, "volatile") || ident(k, "inline"))) {
        ++k;
      }
      if (k >= i || t[k].kind != TokKind::kIdent) continue;
      if (kSkipLead.count(t[k].text) != 0) continue;
      // Parse `[std::]Type [<...>] [*]* name ;` — flag if Type is scalar, or
      // if the declarator is a raw pointer.
      std::size_t ty = k;
      if (ident(ty, "std") && is(ty + 1, TokKind::kPunct, "::")) ty += 2;
      if (ty >= i || t[ty].kind != TokKind::kIdent) continue;
      const std::string& type_name = t[ty].text;
      std::size_t after_ty = ty + 1;
      if (after_ty < i && punct(after_ty, "<")) {
        after_ty = skip_angles(after_ty);
      }
      bool pointer = false;
      while (after_ty < i &&
             (punct(after_ty, "*") || punct(after_ty, "&") ||
              ident(after_ty, "const"))) {
        if (punct(after_ty, "*")) pointer = true;
        if (punct(after_ty, "&")) pointer = false;  // references must bind
        ++after_ty;
      }
      if (after_ty >= i || t[after_ty].kind != TokKind::kIdent) continue;
      // References can't be default-initialized meaningfully here and
      // functions were filtered by has_paren above.
      if (has_paren) continue;
      const bool scalar = kScalar.count(type_name) != 0;
      if (!scalar && !pointer) continue;
      // Member must actually end the statement as a declaration:
      // `name ;` or `name , ...` or `name [N] ;` (array handled above).
      report(t[stmt_begin].line, "uninit-field",
             std::string(pointer ? "pointer" : "scalar") + " field '" +
                 t[after_ty].text +
                 "' has no default member initializer (indeterminate until "
                 "every constructor path proves otherwise)");
    }
  }

  void run() {
    collect_names();
    rule_unordered_iter();
    rule_raw_random();
    rule_ptr_key();
    rule_hot_std_function();
    rule_hot_alloc();
    rule_float_accum();
    rule_uninit_field();
    std::stable_sort(findings.begin(), findings.end(),
                     [](const Finding& a, const Finding& b) {
                       return a.line < b.line;
                     });
  }
};

}  // namespace

std::vector<Finding> lint_source(const LintConfig& cfg, std::string_view path,
                                 std::string_view source) {
  Directives dirs;
  std::vector<Token> toks = lex(source, dirs);
  Linter lint{cfg, normalize_path(path), toks, dirs};
  lint.run();
  for (Finding& f : lint.findings) {
    f.allowlisted = cfg.allowlist.allows(f.path, f.rule) ||
                    dirs.allows(f.line, f.rule) ||
                    // A directive *below* the finding's line also covers it
                    // when it sits on the same statement's closing line.
                    dirs.allows(f.line + 1, f.rule);
  }
  return lint.findings;
}

}  // namespace cdlint
