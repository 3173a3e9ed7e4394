#pragma once
// cdlint — the determinism lint for the cdsim tree.
//
// The simulator's core contract is that every run is a pure function of its
// configuration: parallel grid sweeps are bit-identical to serial ones,
// golden metrics are pinned as exact hexfloats, and the differential oracle
// asserts zero divergence over the fuzz matrix. Those are *runtime* checks —
// they sample behavior. cdlint is the static side of the same contract: it
// mechanically rejects the code shapes that historically break determinism
// before they can reach a runtime check that might not cover them.
//
// Rules (ids are stable; the allowlist and inline directives key on them):
//
//   unordered-iter        Iterating a std::unordered_{map,set} or a
//                         cdsim::AddrMap — bucket/slot order depends on
//                         hash seeding, allocation history and library
//                         version, so any observable effect of the
//                         traversal is nondeterministic. Lookups are fine;
//                         iteration needs an allowlist grant proving the
//                         loop's effect is order-independent. (AddrMap
//                         offers only erase_if, an erase-by-predicate whose
//                         result is the surviving set, which is how the
//                         CacheLevel attribution purge ages its entries.)
//   raw-random            rand()/srand()/time()/clock()/std::random_device/
//                         std::mt19937/chrono clock now() outside
//                         common/rng. All randomness must flow through the
//                         explicitly-seeded Xoshiro256 streams.
//   ptr-key               std::{map,set,multimap,multiset} keyed on a
//                         pointer: iteration order is address order, i.e.
//                         allocator behavior. unordered_* pointer keys are
//                         caught by unordered-iter the moment they are
//                         iterated.
//   hot-std-function      std::function in a file on the hot-path list
//                         (event queue, MSHR, write buffer, bus/fabric
//                         hooks) where SmallFn is mandated — std::function
//                         heap-allocates and double-indirects on the
//                         simulator's innermost loops.
//   float-accum-unordered Floating-point accumulation (+=, -=) inside a
//                         loop over an unordered container: FP addition is
//                         not associative, so a bucket-order-dependent sum
//                         changes value run to run even if the element set
//                         is identical.
//   uninit-field          A scalar/pointer field of a struct/class in
//                         include/cdsim/** without a default member
//                         initializer. Indeterminate fields are how two
//                         "identical" configs diverge (and how MSan/valgrind
//                         findings are born).
//   hot-alloc             Steady-state heap allocation in a hot-path header
//                         (cache/, noc/, bus/, core/): `new`,
//                         make_unique/make_shared, or a node/chunk-based
//                         std container (deque, list, map/set families,
//                         unordered_*). The SoA/arena PR moved the fabric
//                         and tag arrays onto pre-sized pools and rings;
//                         this rule keeps allocation from creeping back.
//                         Grants must argue either bounded occupancy or
//                         high-water-only growth (see allowlist.txt).
//
// Escapes, both deliberate and committed to review history:
//   - tools/cdlint/allowlist.txt: `<rule-id> <path-suffix>  # why`
//   - inline, same line or the line above: `// cdlint: allow(rule-id) why`
//
// The tool is a tokenizer plus lightweight pattern matching — deliberately
// not a compiler plugin, so it builds in this tree with zero dependencies
// and runs in milliseconds over the whole repo. That costs precision
// (heuristics over token streams, file-local name resolution), which is why
// every rule has an escape hatch; the point is that the escape is explicit
// and reviewed, not that the matcher is perfect.

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace cdlint {

// ---------------------------------------------------------------------------
// Tokens
// ---------------------------------------------------------------------------

enum class TokKind {
  kIdent,    ///< identifier or keyword
  kNumber,   ///< numeric literal
  kString,   ///< string literal (incl. raw strings), text excludes quotes
  kChar,     ///< character literal
  kPunct,    ///< operator / punctuation, longest-match (e.g. "+=", "::")
};

struct Token {
  TokKind kind;
  std::string text;
  std::size_t line;  ///< 1-based
};

/// Inline lint directives harvested from comments during lexing:
/// `// cdlint: allow(rule-id[, rule-id...]) optional justification`.
/// A directive covers its own line and the line directly below it (so it
/// can sit on the flagged statement or immediately above it).
struct Directives {
  std::map<std::size_t, std::set<std::string>> allow_by_line;
  [[nodiscard]] bool allows(std::size_t line, std::string_view rule) const;
};

/// Tokenizes C++ source. Comments and preprocessor line contents are
/// consumed (not emitted as tokens); cdlint directives inside comments are
/// collected into `dirs`.
std::vector<Token> lex(std::string_view source, Directives& dirs);

// ---------------------------------------------------------------------------
// Findings
// ---------------------------------------------------------------------------

struct Finding {
  std::string path;   ///< As passed in (normalized to '/' separators).
  std::size_t line;
  std::string rule;   ///< Stable rule id, e.g. "unordered-iter".
  std::string message;
  bool allowlisted = false;  ///< Suppressed by allowlist file or directive.
};

/// One allowlist grant: rule + path suffix (both required).
struct AllowEntry {
  std::string rule;
  std::string path_suffix;
};

/// Parses the committed allowlist format; returns human-readable errors for
/// malformed lines instead of silently dropping them.
struct Allowlist {
  std::vector<AllowEntry> entries;
  std::vector<std::string> errors;
  [[nodiscard]] bool allows(std::string_view path,
                            std::string_view rule) const;
};
Allowlist parse_allowlist(std::string_view text);

// ---------------------------------------------------------------------------
// Lint configuration + entry points
// ---------------------------------------------------------------------------

struct LintConfig {
  Allowlist allowlist;
  /// Path suffixes of files where std::function is banned in favor of
  /// SmallFn (the simulator's hot paths). Defaults below.
  std::vector<std::string> hot_paths;
  /// Path suffixes where raw-random is permitted (the RNG home).
  std::vector<std::string> random_homes;
  /// Path prefixes/substrings in which uninit-field applies (the public
  /// headers; .cpp-local structs are caught by -Werror=uninitialized at
  /// use sites instead).
  std::vector<std::string> uninit_field_scopes;
  /// Path prefixes/substrings in which hot-alloc applies (the headers of
  /// the per-event machinery: caches, fabric, bus, core model).
  std::vector<std::string> hot_alloc_scopes;

  LintConfig();
};

/// Lints one in-memory file. Findings come back in line order; allowlisted
/// findings are included with `allowlisted = true` so callers can count or
/// display them.
std::vector<Finding> lint_source(const LintConfig& cfg, std::string_view path,
                                 std::string_view source);

/// Per-rule one-line remediation hint for --fix-suggestions output.
std::string_view suggestion_for(std::string_view rule);

/// All rule ids the tool knows (sorted), for directive/allowlist validation.
const std::vector<std::string>& known_rules();

}  // namespace cdlint
