// cdlint_test — proves every determinism-lint rule fires on its fixture and
// stays quiet on the benign lookalikes, golden-output style.
//
// Fixtures live in tests/lint_fixtures/ and carry their own expectations as
// `// CDLINT-EXPECT: rule[, rule]` trailing markers: the harness parses the
// markers out of the fixture source, lints the same source, and requires
// the (line, rule) multisets to match EXACTLY — a missing finding is a
// regression in the rule, an extra finding is a new false positive. The
// allowlist-file and inline-directive escapes are pinned by dedicated
// tests below.

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "lint.hpp"

#ifndef CDLINT_FIXTURE_DIR
#error "build must define CDLINT_FIXTURE_DIR"
#endif

namespace {

using cdlint::Finding;
using cdlint::LintConfig;

std::string read_fixture(const std::string& name) {
  const std::string path = std::string(CDLINT_FIXTURE_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture: " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// (line, rule) multiset, printable for golden diffs.
using Expectation = std::multiset<std::pair<std::size_t, std::string>>;

std::string to_string(const Expectation& e) {
  std::ostringstream out;
  for (const auto& [line, rule] : e) out << "  line " << line << ": " << rule
                                         << "\n";
  return out.str();
}

/// Parses `// CDLINT-EXPECT: rule[, rule]` markers out of fixture source.
Expectation parse_expectations(const std::string& source) {
  Expectation want;
  std::istringstream in(source);
  std::string line_text;
  std::size_t lineno = 0;
  while (std::getline(in, line_text)) {
    ++lineno;
    const auto tag = line_text.find("CDLINT-EXPECT:");
    if (tag == std::string::npos) continue;
    std::istringstream rules(line_text.substr(tag + 14));
    std::string rule;
    while (std::getline(rules, rule, ',')) {
      rule.erase(0, rule.find_first_not_of(" \t"));
      rule.erase(rule.find_last_not_of(" \t\r") + 1);
      if (!rule.empty()) want.emplace(lineno, rule);
    }
  }
  return want;
}

/// Fixture-oriented config: the fixture directory is a hot path, an
/// uninit-field scope, and (for rng_home negative tests) a random home.
LintConfig fixture_config() {
  LintConfig cfg;
  cfg.hot_paths.push_back("lint_fixtures/hot_event_queue.hpp");
  cfg.uninit_field_scopes = {"lint_fixtures/"};
  // Narrow (one fixture, not the directory): other fixtures deliberately
  // use node containers to exercise their own rules and must not also
  // trip hot-alloc.
  cfg.hot_alloc_scopes.push_back("lint_fixtures/bad_hot_alloc.hpp");
  return cfg;
}

Expectation lint_fixture(const std::string& name, const LintConfig& cfg,
                         bool include_allowlisted = false) {
  const std::string source = read_fixture(name);
  Expectation got;
  for (const Finding& f :
       cdlint::lint_source(cfg, "tests/lint_fixtures/" + name, source)) {
    if (f.allowlisted && !include_allowlisted) continue;
    got.emplace(f.line, f.rule);
  }
  return got;
}

/// The golden check: findings == markers, exactly.
void expect_golden(const std::string& fixture) {
  const std::string source = read_fixture(fixture);
  const Expectation want = parse_expectations(source);
  const Expectation got = lint_fixture(fixture, fixture_config());
  EXPECT_EQ(got, want) << fixture << "\n--- lint found:\n"
                       << to_string(got) << "--- fixture expects:\n"
                       << to_string(want);
}

// ---------------------------------------------------------------------------
// One golden test per rule family
// ---------------------------------------------------------------------------

TEST(CdlintGolden, UnorderedIterationAndFloatAccum) {
  expect_golden("bad_unordered_iter.cpp");
}

TEST(CdlintGolden, AddrMapIsAnUnorderedContainer) {
  // The flat line-address table: traversals fire, lookups/erase_if don't.
  expect_golden("bad_addr_map_iter.cpp");
}

TEST(CdlintGolden, DeterministicLookupsStayQuiet) {
  expect_golden("good_unordered_lookup.cpp");
}

TEST(CdlintGolden, RawRandomness) { expect_golden("bad_raw_random.cpp"); }

TEST(CdlintGolden, HostClockOutsideItsGrantedHeaderFires) {
  // A host-profiling timer pasted anywhere but the granted
  // include/cdsim/common/host_timer.hpp must trip raw-random — the grant
  // in tools/cdlint/allowlist.txt is a path suffix, not a rule waiver.
  expect_golden("bad_host_clock.cpp");
}

TEST(CdlintGolden, ChunkCodecIdiomsStayQuiet) {
  // The .cdt v2 codec's shapes — varint shift loops, integer FNV-1a
  // accumulation, zigzag folds, NSDMI'd codec-state structs — must never
  // trip the determinism rules.
  expect_golden("good_chunk_codec.cpp");
}

TEST(CdlintGolden, PointerKeyedContainers) {
  expect_golden("bad_ptr_key.cpp");
}

TEST(CdlintGolden, StdFunctionOnHotPaths) {
  expect_golden("hot_event_queue.hpp");
}

TEST(CdlintGolden, HotPathRuleNeedsHotList) {
  // Same file NOT registered as hot: the rule must stay silent.
  LintConfig cfg;  // defaults: fixture path is not a hot path
  EXPECT_TRUE(lint_fixture("hot_event_queue.hpp", cfg).empty());
}

TEST(CdlintGolden, UninitializedFields) {
  expect_golden("bad_uninit_field.hpp");
}

TEST(CdlintGolden, HotPathAllocations) { expect_golden("bad_hot_alloc.hpp"); }

TEST(CdlintGolden, HotAllocScopedToHotHeaders) {
  // Outside the configured scopes (default: include/cdsim/{cache,noc,bus,
  // core}/) the same shapes are legal — e.g. sim/ controllers own
  // unique_ptr'd subsystems at construction time.
  LintConfig cfg;  // defaults: fixture path is not a hot-alloc scope
  EXPECT_TRUE(lint_fixture("bad_hot_alloc.hpp", cfg).empty());
}

TEST(CdlintGolden, UninitFieldScopedToHeaders) {
  // Outside the configured scope (default: include/cdsim/) nothing fires.
  LintConfig cfg;
  EXPECT_TRUE(lint_fixture("bad_uninit_field.hpp", cfg).empty());
}

// ---------------------------------------------------------------------------
// Escape hatches
// ---------------------------------------------------------------------------

TEST(CdlintAllow, AllowlistFileSuppressesByRuleAndPath) {
  LintConfig cfg = fixture_config();
  cfg.allowlist = cdlint::parse_allowlist(
      "# test grant\n"
      "unordered-iter tests/lint_fixtures/allow_mechanisms.cpp\n");
  ASSERT_TRUE(cfg.allowlist.errors.empty());

  // Nothing unsuppressed...
  EXPECT_TRUE(lint_fixture("allow_mechanisms.cpp", cfg).empty());
  // ...but both findings still exist, marked allowlisted (auditable).
  const Expectation all =
      lint_fixture("allow_mechanisms.cpp", cfg, /*include_allowlisted=*/true);
  EXPECT_EQ(all.size(), 2u) << to_string(all);
}

TEST(CdlintAllow, InlineDirectiveCoversItsStatement) {
  // Without any allowlist file, the inline `cdlint: allow(...)` in the
  // fixture suppresses exactly one of the two violations.
  const Expectation visible =
      lint_fixture("allow_mechanisms.cpp", fixture_config());
  ASSERT_EQ(visible.size(), 1u) << to_string(visible);
  EXPECT_EQ(visible.begin()->second, "unordered-iter");

  // bad_raw_random.cpp's steady_clock::now() is inline-allowed too: it must
  // be present but suppressed.
  LintConfig cfg = fixture_config();
  const Expectation all =
      lint_fixture("bad_raw_random.cpp", cfg, /*include_allowlisted=*/true);
  const Expectation shown = lint_fixture("bad_raw_random.cpp", cfg);
  EXPECT_EQ(all.size(), shown.size() + 1);
}

TEST(CdlintAllow, MalformedAndUnknownAllowlistLinesError) {
  const cdlint::Allowlist al = cdlint::parse_allowlist(
      "unordered-iter include/ok.hpp\n"
      "just-one-token\n"
      "no-such-rule include/x.hpp\n");
  EXPECT_EQ(al.entries.size(), 1u);
  ASSERT_EQ(al.errors.size(), 2u);
  EXPECT_NE(al.errors[0].find("line 2"), std::string::npos);
  EXPECT_NE(al.errors[1].find("unknown rule"), std::string::npos);
}

TEST(CdlintAllow, HostTimerGrantIsConfinedToTheOneHeader) {
  // The repo's actual grant shape: raw-random allowed for the host-timer
  // header and nothing else. The same findings in any other file — the
  // bad_host_clock fixture included — stay visible, which is the mechanism
  // that keeps wall-clock reads confined to common/host_timer.hpp.
  LintConfig cfg = fixture_config();
  cfg.allowlist = cdlint::parse_allowlist(
      "raw-random include/cdsim/common/host_timer.hpp\n");
  ASSERT_TRUE(cfg.allowlist.errors.empty());
  EXPECT_TRUE(
      cfg.allowlist.allows("include/cdsim/common/host_timer.hpp",
                           "raw-random"));
  EXPECT_FALSE(cfg.allowlist.allows("src/sim/cmp_system.cpp", "raw-random"));
  EXPECT_FALSE(cfg.allowlist.allows("include/cdsim/common/host_timer.hpp",
                                    "unordered-iter"));
  // The grant does not reach the fixture: both clock reads still fire.
  EXPECT_EQ(lint_fixture("bad_host_clock.cpp", cfg).size(), 2u);
}

TEST(CdlintAllow, GrantsAreSuffixMatchedPerRule) {
  const cdlint::Allowlist al =
      cdlint::parse_allowlist("unordered-iter cache/level.hpp\n");
  EXPECT_TRUE(al.allows("include/cdsim/cache/level.hpp", "unordered-iter"));
  EXPECT_FALSE(al.allows("include/cdsim/cache/level.hpp", "raw-random"));
  EXPECT_FALSE(al.allows("include/cdsim/cache/mshr.hpp", "unordered-iter"));
}

// ---------------------------------------------------------------------------
// Tooling self-checks
// ---------------------------------------------------------------------------

TEST(CdlintMeta, EveryRuleHasASuggestion) {
  for (const std::string& r : cdlint::known_rules()) {
    EXPECT_FALSE(cdlint::suggestion_for(r).empty()) << r;
  }
}

TEST(CdlintMeta, FindingsAreLineSorted) {
  const std::string source = read_fixture("bad_raw_random.cpp");
  LintConfig cfg;
  const auto findings = cdlint::lint_source(
      cfg, "tests/lint_fixtures/bad_raw_random.cpp", source);
  EXPECT_TRUE(std::is_sorted(
      findings.begin(), findings.end(),
      [](const Finding& a, const Finding& b) { return a.line < b.line; }));
}

TEST(CdlintMeta, LexerSkipsCommentsStringsAndPreprocessor) {
  cdlint::Directives dirs;
  const auto toks = cdlint::lex(
      "// rand() in a comment\n"
      "/* std::random_device too */\n"
      "#define SEED rand()\n"
      "const char* s = \"rand()\";\n"
      "int live = 1;\n",
      dirs);
  for (const auto& t : toks) {
    if (t.kind == cdlint::TokKind::kIdent) {
      EXPECT_NE(t.text, "rand");
    }
  }
  LintConfig cfg;
  EXPECT_TRUE(
      cdlint::lint_source(cfg, "x.cpp",
                          "// rand()\n#define S rand()\nchar c = 'r';\n")
          .empty());
}

}  // namespace
