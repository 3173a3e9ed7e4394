// Chunked .cdt v2: round-trip fidelity against v1, corruption rejection at
// chunk and footer granularity, truncation, seek/resume, and bit-identical
// replay between the streaming and load-it-whole paths, the shared replay
// cursor's queue bound and detach path, mid-replay corruption — plus the
// multi-program scenario mixes built on top (sim/scenario.hpp).

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cdsim/sim/scenario.hpp"
#include "cdsim/verify/fuzz.hpp"
#include "cdsim/verify/oracle.hpp"
#include "cdsim/workload/benchmarks.hpp"
#include "cdsim/workload/fuzzer.hpp"
#include "cdsim/workload/trace_v2.hpp"

namespace {

using namespace cdsim;
using workload::ChunkedTraceReader;
using workload::ChunkedTraceWriter;
using workload::Trace;
using workload::TraceRecord;

std::string temp_path(const std::string& tag) {
  return ::testing::TempDir() + "cdt2_" + tag + "_" +
         std::to_string(static_cast<long>(::getpid())) + ".cdt";
}

/// A trace exercising the codec's corners: all access types, dependent and
/// chained ops, zero and large gaps, increasing AND decreasing addresses
/// (negative zigzag deltas), near-max addresses, and per-core interleave.
Trace corner_trace(std::uint32_t num_cores, std::size_t n) {
  Trace t;
  t.num_cores = num_cores;
  Addr walk = 0x1000;
  for (std::size_t i = 0; i < n; ++i) {
    TraceRecord r;
    r.core = static_cast<CoreId>(i % num_cores);
    switch (i % 5) {
      case 0: r.op.addr = walk += 0x40; break;
      case 1: r.op.addr = walk -= 0x20; break;            // negative delta
      case 2: r.op.addr = 0xffffffffffffff00ull + i; break;  // near max
      case 3: r.op.addr = static_cast<Addr>(i) * 0x10000000ull; break;
      default: r.op.addr = walk; break;
    }
    r.op.type = static_cast<AccessType>(i % 3);
    r.op.gap = i % 7 == 0 ? 900000u + static_cast<std::uint32_t>(i) : i % 4;
    r.op.dependent = i % 3 == 1;
    r.op.chain = static_cast<std::uint8_t>(i % 6);
    t.records.push_back(r);
  }
  return t;
}

void expect_traces_equal(const Trace& a, const Trace& b) {
  ASSERT_EQ(a.num_cores, b.num_cores);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(a.records[i].core, b.records[i].core);
    EXPECT_EQ(a.records[i].op.addr, b.records[i].op.addr);
    EXPECT_EQ(a.records[i].op.type, b.records[i].op.type);
    EXPECT_EQ(a.records[i].op.gap, b.records[i].op.gap);
    EXPECT_EQ(a.records[i].op.dependent, b.records[i].op.dependent);
    EXPECT_EQ(a.records[i].op.chain, b.records[i].op.chain);
  }
}

Trace drain(workload::TraceSource& src) {
  Trace t;
  t.num_cores = src.num_cores();
  TraceRecord rec;
  while (src.next(rec)) t.append(rec);
  return t;
}

// ---------------------------------------------------------------------------
// Round trips
// ---------------------------------------------------------------------------

TEST(TraceV2, RoundTripPreservesEveryFieldAcrossChunks) {
  const Trace t = corner_trace(3, 103);  // chunk_records=16: 7 chunks, short tail
  const std::string path = temp_path("roundtrip");
  std::string err;
  ASSERT_TRUE(workload::save_v2(t, path, &err, /*chunk_records=*/16)) << err;

  auto r = ChunkedTraceReader::open(path, &err);
  ASSERT_NE(r, nullptr) << err;
  EXPECT_EQ(r->info().chunk_count, 7u);
  EXPECT_EQ(r->info().total_records, 103u);
  expect_traces_equal(t, drain(*r));
  EXPECT_FALSE(r->failed());
  std::remove(path.c_str());
}

TEST(TraceV2, MatchesV1RoundTripBitForBit) {
  // The exact record sequence a v1 file preserves, v2 must too.
  const Trace t = corner_trace(2, 41);
  const std::string p1 = temp_path("v1");
  const std::string p2 = temp_path("v2");
  std::string err;
  ASSERT_TRUE(t.save(p1, &err)) << err;
  ASSERT_TRUE(workload::save_v2(t, p2, &err, /*chunk_records=*/8)) << err;

  const auto v1 = Trace::load(p1, &err);
  ASSERT_TRUE(v1.has_value()) << err;
  auto v2 = ChunkedTraceReader::open(p2, &err);
  ASSERT_NE(v2, nullptr) << err;
  expect_traces_equal(*v1, drain(*v2));

  // v2 should not be larger than v1 even on this delta-hostile trace.
  std::ifstream f1(p1, std::ios::binary | std::ios::ate);
  std::ifstream f2(p2, std::ios::binary | std::ios::ate);
  EXPECT_GT(f1.tellg(), 0);
  EXPECT_GT(f2.tellg(), 0);
  std::remove(p1.c_str());
  std::remove(p2.c_str());
}

TEST(TraceV2, OpenTraceSourceSniffsBothFormats) {
  const Trace t = corner_trace(2, 10);
  const std::string p1 = temp_path("sniff1");
  const std::string p2 = temp_path("sniff2");
  std::string err;
  ASSERT_TRUE(t.save(p1, &err)) << err;
  ASSERT_TRUE(workload::save_v2(t, p2, &err)) << err;

  auto s1 = workload::open_trace_source(p1, &err);
  ASSERT_NE(s1, nullptr) << err;  // v1 through the shim
  auto s2 = workload::open_trace_source(p2, &err);
  ASSERT_NE(s2, nullptr) << err;
  expect_traces_equal(drain(*s1), drain(*s2));
  std::remove(p1.c_str());
  std::remove(p2.c_str());
}

TEST(TraceV2, FooterCarriesBudgetsAndIdleCoresGetUnitBudget) {
  Trace t;
  t.num_cores = 4;  // cores 2..3 never scheduled
  t.records.push_back({0, {AccessType::kLoad, 0x40, 2, false, 0}});
  t.records.push_back({1, {AccessType::kStore, 0x80, 5, false, 0}});
  t.records.push_back({0, {AccessType::kLoad, 0xc0, 0, true, 1}});
  const std::string path = temp_path("budgets");
  std::string err;
  ASSERT_TRUE(workload::save_v2(t, path, &err)) << err;

  auto r = ChunkedTraceReader::open(path, &err);
  ASSERT_NE(r, nullptr) << err;
  EXPECT_EQ(r->info().per_core_ops, (std::vector<std::uint64_t>{2, 1, 0, 0}));
  EXPECT_EQ(r->info().per_core_instr,
            (std::vector<std::uint64_t>{4, 6, 0, 0}));
  // The TraceSource budget applies the idle-filler minimum, matching
  // Trace::per_core_instructions exactly.
  EXPECT_EQ(r->per_core_instructions(), t.per_core_instructions());
  std::remove(path.c_str());
}

TEST(TraceV2, WriterRejectsOutOfRangeCoreAndBadShape) {
  const std::string path = temp_path("badwrite");
  {
    ChunkedTraceWriter w(path, /*num_cores=*/2);
    w.append({5, {AccessType::kLoad, 0x40, 0, false, 0}});
    EXPECT_FALSE(w.finish());
    EXPECT_NE(w.error().find("core"), std::string::npos) << w.error();
  }
  {
    ChunkedTraceWriter w(path, /*num_cores=*/0);
    EXPECT_FALSE(w.ok());
  }
  {
    ChunkedTraceWriter w(path, /*num_cores=*/2, /*chunk_records=*/0);
    EXPECT_FALSE(w.ok());
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Corruption: reject loudly, never crash, never replay garbage
// ---------------------------------------------------------------------------

class TraceV2Corruption : public ::testing::Test {
 protected:
  static constexpr std::size_t kHeaderBytes = 20;
  static constexpr std::size_t kChunkHeaderBytes = 16;
  static constexpr std::size_t kTrailerBytes = 20;

  void SetUp() override {
    path_ = temp_path("corrupt");
    trace_ = corner_trace(2, 40);  // chunk_records=16: 2 full + 1 short chunk
    std::string err;
    ASSERT_TRUE(workload::save_v2(trace_, path_, &err, /*chunk_records=*/16))
        << err;
    std::ifstream in(path_, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    bytes_ = ss.str();
  }
  void TearDown() override { std::remove(path_.c_str()); }

  void write_bytes(const std::string& b) {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(b.data(), static_cast<std::streamsize>(b.size()));
  }

  /// File offset where the footer body begins, read from the trailer's
  /// own length field (so tests can aim at chunk bytes vs footer bytes).
  [[nodiscard]] std::size_t footer_start() const {
    std::uint64_t len = 0;
    for (int i = 0; i < 8; ++i) {
      len |= static_cast<std::uint64_t>(static_cast<unsigned char>(
                 bytes_[bytes_.size() - kTrailerBytes + 8 + i]))
             << (8 * i);
    }
    return bytes_.size() - kTrailerBytes - static_cast<std::size_t>(len);
  }

  /// Opens expecting open() itself to reject, returning the error.
  std::string expect_open_rejects() {
    std::string err;
    EXPECT_EQ(ChunkedTraceReader::open(path_, &err), nullptr);
    EXPECT_FALSE(err.empty());
    return err;
  }

  std::string path_;
  std::string bytes_;
  Trace trace_;
};

TEST_F(TraceV2Corruption, RejectsBadMagicAndVersion) {
  std::string b = bytes_;
  b[0] = 'X';
  write_bytes(b);
  EXPECT_NE(expect_open_rejects().find("bad magic"), std::string::npos);

  b = bytes_;
  b[4] = 99;
  write_bytes(b);
  EXPECT_NE(expect_open_rejects().find("version"), std::string::npos);
}

TEST_F(TraceV2Corruption, RejectsCorruptHeaderFields) {
  std::string b = bytes_;
  b[8] = 0;  // num_cores = 0
  write_bytes(b);
  EXPECT_NE(expect_open_rejects().find("num_cores"), std::string::npos);
}

TEST_F(TraceV2Corruption, ChunkPayloadFlipFailsAtDecodeNotAtOpen) {
  // Flip the first payload byte of chunk 0 — exactly on a chunk boundary.
  std::string b = bytes_;
  b[kHeaderBytes + kChunkHeaderBytes] ^= 0x5a;
  write_bytes(b);
  std::string err;
  auto r = ChunkedTraceReader::open(path_, &err);
  ASSERT_NE(r, nullptr) << err;  // footer is intact: open succeeds
  TraceRecord rec;
  EXPECT_FALSE(r->next(rec));  // false on corruption, not a crash
  EXPECT_TRUE(r->failed());
  EXPECT_NE(r->error().find("checksum"), std::string::npos) << r->error();
}

TEST_F(TraceV2Corruption, MidStreamChunkFlipStopsAtTheBoundary) {
  // Corrupt the LAST payload byte before the footer — inside the final
  // (short) chunk. The two intact full chunks must stream cleanly, and
  // the failure surfaces exactly when the cursor crosses the boundary.
  std::string b = bytes_;
  b[footer_start() - 1] ^= 0x5a;
  write_bytes(b);

  std::string err;
  auto r = ChunkedTraceReader::open(path_, &err);
  ASSERT_NE(r, nullptr) << err;
  TraceRecord rec;
  std::size_t streamed = 0;
  while (r->next(rec)) ++streamed;
  EXPECT_TRUE(r->failed());
  EXPECT_EQ(streamed, 32u);  // both full chunks streamed, the short one not
}

TEST_F(TraceV2Corruption, RejectsFooterIndexCorruption) {
  // Flip a byte inside the footer body (first chunk-table entry).
  std::string b = bytes_;
  b[footer_start() + 4] ^= 0xff;
  write_bytes(b);
  EXPECT_NE(expect_open_rejects().find("footer checksum"),
            std::string::npos);
}

TEST_F(TraceV2Corruption, RejectsTruncatedFinalChunk) {
  // A writer that died mid-chunk: file ends inside chunk data, no footer.
  const std::size_t cut = kHeaderBytes + kChunkHeaderBytes + 5;
  write_bytes(bytes_.substr(0, cut));
  const std::string err = expect_open_rejects();
  EXPECT_TRUE(err.find("trailer magic") != std::string::npos ||
              err.find("too short") != std::string::npos)
      << err;
}

TEST_F(TraceV2Corruption, RejectsFooterThatOverlapsMissingChunkBytes) {
  // Drop bytes from the chunk region but keep the footer+trailer intact:
  // the chunk table's offsets no longer span header..footer.
  std::string b = bytes_;
  b.erase(kHeaderBytes + kChunkHeaderBytes, 4);  // shrink chunk 0
  write_bytes(b);
  const std::string err = expect_open_rejects();
  EXPECT_TRUE(err.find("footer") != std::string::npos ||
              err.find("span") != std::string::npos ||
              err.find("inconsistent") != std::string::npos)
      << err;
}

TEST_F(TraceV2Corruption, RejectsTrailerMagicLoss) {
  std::string b = bytes_;
  b[b.size() - 1] = 'X';
  write_bytes(b);
  EXPECT_NE(expect_open_rejects().find("trailer magic"), std::string::npos);
}

TEST_F(TraceV2Corruption, RejectsTooShortAndMissingFiles) {
  write_bytes("CDT2");
  EXPECT_NE(expect_open_rejects().find("too short"), std::string::npos);
  std::string err;
  EXPECT_EQ(ChunkedTraceReader::open(path_ + ".nope", &err), nullptr);
  EXPECT_NE(err.find("cannot open"), std::string::npos) << err;
}

TEST_F(TraceV2Corruption, ChunkHeaderFooterDisagreementIsCorruption) {
  // Flip chunk 0's record-count field in its header; the footer still
  // carries the original. No way to tell which is right: reject.
  std::string b = bytes_;
  b[kHeaderBytes + 4] ^= 0x01;
  write_bytes(b);
  std::string err;
  auto r = ChunkedTraceReader::open(path_, &err);
  ASSERT_NE(r, nullptr) << err;
  TraceRecord rec;
  EXPECT_FALSE(r->next(rec));
  EXPECT_TRUE(r->failed());
  EXPECT_NE(r->error().find("disagrees"), std::string::npos) << r->error();
}

// ---------------------------------------------------------------------------
// Seek / resume
// ---------------------------------------------------------------------------

TEST(TraceV2, SeekLandsOnAnyRecordAndResumes) {
  const Trace t = corner_trace(3, 50);
  const std::string path = temp_path("seek");
  std::string err;
  ASSERT_TRUE(workload::save_v2(t, path, &err, /*chunk_records=*/8)) << err;
  auto r = ChunkedTraceReader::open(path, &err);
  ASSERT_NE(r, nullptr) << err;

  // Every position (including chunk boundaries 8, 16, ... and both ends)
  // must yield exactly the suffix of the original record sequence.
  for (const std::uint64_t pos : {0ull, 1ull, 7ull, 8ull, 9ull, 16ull,
                                  31ull, 47ull, 49ull}) {
    SCOPED_TRACE(pos);
    ASSERT_TRUE(r->seek(pos));
    EXPECT_EQ(r->position(), pos);
    TraceRecord rec;
    ASSERT_TRUE(r->next(rec));
    EXPECT_EQ(rec.op.addr, t.records[pos].op.addr);
    EXPECT_EQ(rec.core, t.records[pos].core);
  }

  // Park at end; next() is a clean end-of-trace, not an error.
  ASSERT_TRUE(r->seek(50));
  TraceRecord rec;
  EXPECT_FALSE(r->next(rec));
  EXPECT_FALSE(r->failed());

  // Out of range: clean refusal.
  EXPECT_FALSE(r->seek(51));
  EXPECT_FALSE(r->failed());

  // Resume: seek back mid-trace and drain — suffix matches.
  ASSERT_TRUE(r->seek(40));
  Trace tail = drain(*r);
  ASSERT_EQ(tail.records.size(), 10u);
  for (std::size_t i = 0; i < tail.records.size(); ++i) {
    EXPECT_EQ(tail.records[i].op.addr, t.records[40 + i].op.addr);
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Replay equivalence: streaming v2 == in-memory v1, bit for bit
// ---------------------------------------------------------------------------

TEST(TraceV2, StreamingReplayIsBitIdenticalToInMemoryReplay) {
  // Capture a hostile run, save as v2, then replay it twice: from the
  // load-it-whole in-memory trace and from the v2 file. Metrics must match
  // bit-for-bit (EXPECT_EQ on doubles).
  verify::FuzzScenario sc;
  sc.decay = decay::DecayConfig{decay::Technique::kDecay, 2048, 4};
  sc.seed = 2718;
  sc.fuzz.decay_window = 2048;
  sc.instructions_per_core = 8000;

  const verify::ScenarioOutcome original = verify::run_scenario(sc);
  ASSERT_EQ(original.total_divergences, 0u);
  const std::string path = temp_path("replayab");
  std::string err;
  ASSERT_TRUE(workload::save_v2(original.trace, path, &err,
                                /*chunk_records=*/512))
      << err;

  const verify::ScenarioOutcome in_memory =
      verify::replay_scenario(sc, original.trace);
  ASSERT_EQ(in_memory.total_divergences, 0u);

  // Streaming: one shared chunked cursor over the v2 file.
  sim::SystemConfig cfg = sc.system_config();
  cfg.per_core_instructions = original.trace.per_core_instructions();
  workload::Benchmark bench;
  bench.config.name = sc.label();
  verify::DifferentialChecker checker(cfg.num_cores);
  sim::CmpSystem sys(cfg, bench,
                     workload::streaming_replay_factory([&path] {
                       return workload::open_trace_source(path);
                     }));
  sys.set_observer(&checker);
  const sim::RunMetrics streamed = sys.run();
  EXPECT_EQ(checker.total_divergences(), 0u);

  EXPECT_EQ(streamed.cycles, in_memory.metrics.cycles);
  EXPECT_EQ(streamed.instructions, in_memory.metrics.instructions);
  EXPECT_EQ(streamed.l2_accesses, in_memory.metrics.l2_accesses);
  EXPECT_EQ(streamed.l2_misses, in_memory.metrics.l2_misses);
  EXPECT_EQ(streamed.l2_decay_turnoffs, in_memory.metrics.l2_decay_turnoffs);
  EXPECT_EQ(streamed.ipc, in_memory.metrics.ipc);
  EXPECT_EQ(streamed.amat, in_memory.metrics.amat);
  EXPECT_EQ(streamed.energy, in_memory.metrics.energy);
  EXPECT_EQ(streamed.l2_occupation, in_memory.metrics.l2_occupation);
  std::remove(path.c_str());
}

TEST(TraceV2, CaptureToChunkedSinkMatchesInMemoryCapture) {
  // The same run captured through both TraceSinks — the in-memory Trace
  // and the streaming ChunkedTraceWriter — must record identical streams.
  verify::FuzzScenario sc;
  sc.seed = 1618;
  sc.instructions_per_core = 4000;

  const verify::ScenarioOutcome mem_run = verify::run_scenario(sc);
  const std::string path = temp_path("sink");
  {
    sim::SystemConfig cfg = sc.system_config();
    ChunkedTraceWriter w(path, cfg.num_cores, /*chunk_records=*/256);
    const workload::FuzzerConfig& fc = sc.fuzz;
    workload::StreamFactory base = [&fc](CoreId core, std::uint64_t seed) {
      return std::make_unique<workload::FuzzerWorkload>(fc, core, seed);
    };
    workload::Benchmark bench;
    bench.config.name = sc.label();
    sim::CmpSystem sys(cfg, bench,
                       workload::capture_factory(std::move(base), &w));
    (void)sys.run();
    ASSERT_TRUE(w.finish()) << w.error();
  }
  std::string err;
  auto r = ChunkedTraceReader::open(path, &err);
  ASSERT_NE(r, nullptr) << err;
  expect_traces_equal(mem_run.trace, drain(*r));
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Multi-program scenario mixes
// ---------------------------------------------------------------------------

class ScenarioMix : public ::testing::Test {
 protected:
  void SetUp() override {
    // Four distinct captured programs, saved as v2.
    for (int i = 0; i < 4; ++i) {
      verify::FuzzScenario sc;
      sc.seed = 100 + static_cast<std::uint64_t>(i);
      sc.instructions_per_core = 3000;
      const verify::ScenarioOutcome out = verify::run_scenario(sc);
      ASSERT_EQ(out.total_divergences, 0u);
      const std::string path = temp_path("mix" + std::to_string(i));
      std::string err;
      ASSERT_TRUE(workload::save_v2(out.trace, path, &err,
                                    /*chunk_records=*/256))
          << err;
      paths_.push_back(path);
      budgets_.push_back(out.trace.per_core_instructions());
    }
  }
  void TearDown() override {
    for (const std::string& p : paths_) std::remove(p.c_str());
  }

  [[nodiscard]] std::vector<sim::ProgramSpec> programs() const {
    std::vector<sim::ProgramSpec> progs;
    for (const std::string& p : paths_) {
      sim::ProgramSpec spec;
      spec.name = p;
      spec.open = [p] { return workload::open_trace_source(p); };
      progs.push_back(std::move(spec));
    }
    return progs;
  }

  std::vector<std::string> paths_;
  std::vector<std::vector<std::uint64_t>> budgets_;
};

TEST_F(ScenarioMix, PlanAssignsRoundRobinWithWeightedBudgets) {
  auto progs = programs();
  progs[1].weight = 2.0;  // hot tenant
  const sim::MixPlan plan = sim::plan_mix(std::move(progs), 8);
  ASSERT_EQ(plan.assignment.size(), 8u);
  for (std::uint32_t c = 0; c < 8; ++c) {
    const sim::MixAssignment& a = plan.assignment[c];
    EXPECT_EQ(a.program, c % 4u);
    EXPECT_EQ(a.trace_core, (c / 4u) % 4u);  // 4-core traces, round r = c/4
    const std::uint64_t base = budgets_[a.program][a.trace_core];
    EXPECT_EQ(a.instructions, a.program == 1 ? 2 * base : base);
  }
}

TEST_F(ScenarioMix, SingleProgramMixDegeneratesToExactReplay) {
  std::vector<sim::ProgramSpec> one;
  one.push_back(programs()[0]);
  const sim::MixPlan plan = sim::plan_mix(std::move(one), 4);
  EXPECT_EQ(plan.per_core_instructions(), budgets_[0]);
  for (std::uint32_t c = 0; c < 4; ++c) {
    EXPECT_EQ(plan.assignment[c].trace_core, c);
  }
}

TEST_F(ScenarioMix, FourProgramRateModeMixRunsWithZeroDivergences) {
  // The acceptance gate: a >=4-trace rate-mode mix with a hot tenant on
  // the 8-core directory mesh, differential oracle attached, zero
  // divergences — twice, bit-identically (the factory must be reusable).
  auto progs = programs();
  progs[0].weight = 2.0;
  const sim::MixPlan plan = sim::plan_mix(std::move(progs), 8);

  sim::SystemConfig cfg;
  cfg.topology = noc::Topology::kDirectoryMesh;
  cfg.total_l2_bytes = 8 * 32 * KiB;
  cfg.l1.size_bytes = 8 * KiB;
  cfg.decay = decay::DecayConfig{decay::Technique::kSelectiveDecay, 2048, 4};
  plan.apply(cfg);
  ASSERT_EQ(cfg.num_cores, 8u);

  workload::Benchmark bench;
  bench.config.name = "mix_test";
  sim::RunMetrics first;
  for (int pass = 0; pass < 2; ++pass) {
    verify::DifferentialChecker checker(cfg.num_cores);
    sim::CmpSystem sys(cfg, bench, plan.streams);
    sys.set_observer(&checker);
    const sim::RunMetrics m = sys.run();
    sys.check_coherence_invariants();
    EXPECT_EQ(checker.total_divergences(), 0u);
    if (pass == 0) {
      first = m;
    } else {
      EXPECT_EQ(m.cycles, first.cycles);
      EXPECT_EQ(m.ipc, first.ipc);
      EXPECT_EQ(m.energy, first.energy);
    }
  }
}

TEST_F(ScenarioMix, RejectsEmptyAndBrokenMixes) {
  EXPECT_THROW(sim::plan_mix({}, 4), std::invalid_argument);
  auto progs = programs();
  progs[2].weight = 0.0;
  EXPECT_THROW(sim::plan_mix(std::move(progs), 4), std::invalid_argument);
  std::vector<sim::ProgramSpec> bad;
  bad.push_back({});
  EXPECT_THROW(sim::plan_mix(std::move(bad), 4), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// The fuzz matrix carries multi-program cells
// ---------------------------------------------------------------------------

TEST(TraceV2, FuzzMatrixIncludesMultiProgramCells) {
  verify::FuzzOptions opts;
  opts.scenarios = 64;
  std::size_t mix_cells = 0;
  bool skewed_budget_seen = false;
  for (const verify::FuzzScenario& sc : verify::fuzz_matrix(opts)) {
    if (sc.programs == 0) continue;
    ++mix_cells;
    EXPECT_NE(sc.label().find("progs="), std::string::npos);
    const sim::SystemConfig cfg = sc.system_config();
    ASSERT_EQ(cfg.per_core_instructions.size(), cfg.num_cores);
    // Hot tenant: program 0's cores get a doubled budget.
    EXPECT_EQ(cfg.per_core_instructions[0], 2 * sc.instructions_per_core);
    EXPECT_EQ(cfg.per_core_instructions[1], sc.instructions_per_core);
    skewed_budget_seen = true;
  }
  EXPECT_EQ(mix_cells, 16u);  // two 8-cell blocks of the 64-cell matrix
  EXPECT_TRUE(skewed_budget_seen);
}

TEST(TraceV2, MultiProgramFuzzCellCapturesAndReplaysBitIdentically) {
  // One mix cell end-to-end through the capture/replay contract.
  verify::FuzzOptions opts;
  opts.scenarios = 64;
  const auto matrix = verify::fuzz_matrix(opts);
  const auto it =
      std::find_if(matrix.begin(), matrix.end(),
                   [](const verify::FuzzScenario& s) { return s.programs > 0; });
  ASSERT_NE(it, matrix.end());
  verify::FuzzScenario sc = *it;
  sc.instructions_per_core = 4000;

  const verify::ScenarioOutcome out = verify::run_scenario(sc);
  EXPECT_EQ(out.total_divergences, 0u);
  ASSERT_GT(out.trace.records.size(), 0u);

  const verify::ScenarioOutcome replay =
      verify::replay_scenario(sc, out.trace);
  EXPECT_EQ(replay.total_divergences, 0u);
  EXPECT_EQ(replay.metrics.cycles, out.metrics.cycles);
  EXPECT_EQ(replay.metrics.ipc, out.metrics.ipc);
  EXPECT_EQ(replay.metrics.energy, out.metrics.energy);
}

// ---------------------------------------------------------------------------
// The shared replay cursor: one decode per system, bounded queues, and a
// corrupt chunk that stops the run
// ---------------------------------------------------------------------------

struct OpenCounts {
  std::uint64_t opens = 0;
  std::uint64_t nexts = 0;
};

/// Counts next() calls. It overrides only the pure members, like a
/// decorator written before skip() and error() existed, so it runs on the
/// TraceSource defaults of both.
class CountingSource final : public workload::TraceSource {
 public:
  CountingSource(workload::TraceSourcePtr inner, OpenCounts* counts)
      : inner_(std::move(inner)), counts_(counts) {}

  bool next(TraceRecord& out) override {
    ++counts_->nexts;
    return inner_->next(out);
  }
  [[nodiscard]] std::uint32_t num_cores() const override {
    return inner_->num_cores();
  }
  [[nodiscard]] std::vector<std::uint64_t> per_core_instructions()
      const override {
    return inner_->per_core_instructions();
  }

 private:
  workload::TraceSourcePtr inner_;
  OpenCounts* counts_;
};

workload::TraceOpener counting_opener(const std::string& path,
                                      OpenCounts* counts) {
  return [path, counts]() -> workload::TraceSourcePtr {
    ++counts->opens;
    return std::make_unique<CountingSource>(workload::open_trace_source(path),
                                            counts);
  };
}

TEST(SharedReplay, SkipAgreesAcrossSourceKinds) {
  // The v2 reader seeks, the in-memory source jumps, and the TraceSource
  // default (CountingSource overrides only next) pulls: all three land on
  // the same record and stop cleanly at the end.
  const Trace t = corner_trace(3, 50);
  const std::string path = temp_path("skip");
  std::string err;
  ASSERT_TRUE(workload::save_v2(t, path, &err, /*chunk_records=*/8)) << err;
  OpenCounts counts;
  std::vector<workload::TraceSourcePtr> sources;
  sources.push_back(workload::open_trace_source(path));
  sources.push_back(std::make_unique<workload::InMemoryTraceSource>(
      std::make_shared<const Trace>(t)));
  sources.push_back(counting_opener(path, &counts)());
  for (const workload::TraceSourcePtr& src : sources) {
    ASSERT_NE(src, nullptr);
    TraceRecord rec;
    ASSERT_TRUE(src->skip(7));
    ASSERT_TRUE(src->next(rec));
    EXPECT_EQ(rec.op.addr, t.records[7].op.addr);
    ASSERT_TRUE(src->skip(9));  // across the chunk boundary at 16
    ASSERT_TRUE(src->next(rec));
    EXPECT_EQ(rec.op.addr, t.records[17].op.addr);
    EXPECT_FALSE(src->skip(100));
    EXPECT_FALSE(src->next(rec));
    EXPECT_EQ(src->error(), "");
  }
  std::remove(path.c_str());
}

/// Wraps a replay factory so the test can reach each core's demux.
workload::StreamFactory keep_streams(
    workload::StreamFactory inner,
    std::vector<const workload::DemuxReplayStream*>* out) {
  return [inner = std::move(inner), out](CoreId core, std::uint64_t seed) {
    workload::StreamPtr s = inner(core, seed);
    out->push_back(dynamic_cast<const workload::DemuxReplayStream*>(s.get()));
    return s;
  };
}

void expect_same_run(const sim::RunMetrics& a, const sim::RunMetrics& b) {
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.l2_accesses, b.l2_accesses);
  EXPECT_EQ(a.l2_misses, b.l2_misses);
  EXPECT_EQ(a.l2_coherence_invals, b.l2_coherence_invals);
  EXPECT_EQ(a.ipc, b.ipc);
  EXPECT_EQ(a.energy, b.energy);
}

TEST(SharedReplay, OwnMachineReplayOpensOnceAndDrawsEachRecordOnce) {
  // A capture replayed on its own machine draws in capture order: one
  // open per system, exactly total_records next() calls, nothing queued.
  verify::FuzzScenario sc;
  sc.seed = 4242;
  sc.instructions_per_core = 40000;
  const verify::ScenarioOutcome original = verify::run_scenario(sc);
  ASSERT_EQ(original.total_divergences, 0u);
  const std::string path = temp_path("ownmachine");
  std::string err;
  ASSERT_GT(original.trace.records.size(), 4 * 64u);  // spans chunks
  ASSERT_TRUE(workload::save_v2(original.trace, path, &err,
                                /*chunk_records=*/64))
      << err;

  sim::SystemConfig cfg = sc.system_config();
  cfg.per_core_instructions = original.trace.per_core_instructions();
  workload::Benchmark bench;
  bench.config.name = sc.label();
  OpenCounts counts;
  std::vector<const workload::DemuxReplayStream*> streams;
  const workload::StreamFactory factory = keep_streams(
      workload::streaming_replay_factory(counting_opener(path, &counts)),
      &streams);
  for (std::uint64_t pass = 1; pass <= 2; ++pass) {
    streams.clear();
    sim::CmpSystem sys(cfg, bench, factory);
    const sim::RunMetrics m = sys.run();
    expect_same_run(m, original.metrics);
    EXPECT_EQ(counts.opens, pass);
    EXPECT_EQ(counts.nexts, pass * original.trace.records.size());
    ASSERT_EQ(streams.size(), cfg.num_cores);
    ASSERT_NE(streams[0], nullptr);
    EXPECT_EQ(&streams[0]->demux(), &streams.back()->demux());
    EXPECT_EQ(streams[0]->demux().queue_high_water(), 0u);
  }
  std::remove(path.c_str());
}

/// Two cores; every core-0 record (more than a queue holds) precedes every
/// core-1 record. Loads and stores over a shared 256 KiB window keep the
/// coherence machinery busy.
Trace skewed_trace(std::size_t core0_ops, std::size_t core1_ops) {
  Trace t;
  t.num_cores = 2;
  for (CoreId c = 0; c < 2; ++c) {
    const std::size_t n = c == 0 ? core0_ops : core1_ops;
    for (std::size_t i = 0; i < n; ++i) {
      TraceRecord r;
      r.core = c;
      r.op.type = i % 5 == 0 ? AccessType::kStore : AccessType::kLoad;
      r.op.addr = 0x10000000ull + (i * 7 * 64 + c * 64) % (256 * KiB);
      r.op.gap = static_cast<std::uint32_t>(i % 3);
      r.op.dependent = i % 11 == 0;
      t.records.push_back(r);
    }
  }
  return t;
}

TEST(SharedReplay, SkewedTraceDetachesWithinTheQueueCap) {
  const std::size_t core0 = workload::kReplayQueueCap + 3000;
  const Trace t = skewed_trace(core0, 2000);
  const std::string path = temp_path("skew");
  std::string err;
  ASSERT_TRUE(workload::save_v2(t, path, &err, /*chunk_records=*/4096))
      << err;
  const std::vector<std::vector<workload::MemOp>> per = t.ops_by_core();

  {
    // Demux alone, core 1 first: core 0's queue fills to the cap, core 0
    // detaches, and each core still sees exactly its own ops in order.
    OpenCounts counts;
    workload::ReplayDemux demux(counting_opener(path, &counts));
    workload::MemOp op;
    for (const workload::MemOp& want : per[1]) {
      ASSERT_TRUE(demux.pop(1, op));
      EXPECT_EQ(op.addr, want.addr);
    }
    EXPECT_TRUE(demux.detached(0));
    EXPECT_FALSE(demux.detached(1));
    EXPECT_EQ(demux.queue_high_water(), workload::kReplayQueueCap);
    for (std::size_t i = 0; i < per[0].size(); ++i) {
      ASSERT_TRUE(demux.pop(0, op)) << i;
      ASSERT_EQ(op.addr, per[0][i].addr) << i;
      ASSERT_EQ(op.gap, per[0][i].gap) << i;
      ASSERT_EQ(op.dependent, per[0][i].dependent) << i;
    }
    EXPECT_FALSE(demux.pop(0, op));
    EXPECT_FALSE(demux.pop(1, op));
    EXPECT_EQ(counts.opens, 2u);  // the shared cursor + core 0's own
  }

  sim::SystemConfig cfg;
  cfg.num_cores = 2;
  cfg.total_l2_bytes = 128 * KiB;
  cfg.l1.size_bytes = 8 * KiB;
  cfg.decay = decay::DecayConfig{decay::Technique::kDecay, 2048, 4};
  cfg.per_core_instructions = t.per_core_instructions();
  workload::Benchmark bench;
  bench.config.name = "skew";

  // Reference: a private filtering cursor per core.
  sim::CmpSystem filtered(cfg, bench, [&path](CoreId core, std::uint64_t) {
    return std::make_unique<workload::FilteredReplayStream>(
        workload::open_trace_source(path), core);
  });
  const sim::RunMetrics want = filtered.run();

  OpenCounts counts;
  std::vector<const workload::DemuxReplayStream*> streams;
  sim::CmpSystem shared(
      cfg, bench,
      keep_streams(
          workload::streaming_replay_factory(counting_opener(path, &counts)),
          &streams));
  const sim::RunMetrics got = shared.run();
  expect_same_run(got, want);
  ASSERT_EQ(streams.size(), 2u);
  const workload::ReplayDemux& demux = streams[0]->demux();
  EXPECT_TRUE(demux.detached(0));
  EXPECT_GT(demux.queue_high_water(), 0u);
  EXPECT_LE(demux.queue_high_water(), workload::kReplayQueueCap);
  EXPECT_EQ(counts.opens, 2u);
  std::remove(path.c_str());
}

TEST(SharedReplay, MixOfProgramsOnTheirOwnCoreCountsOpensOncePerProgram) {
  // Two captured 4-core programs on an 8-core mesh: each program's four
  // trace cores are replayed by exactly one machine core apiece, so each
  // program replays through one shared cursor per system — one open and
  // one decode of every record — bit-identically to a private filtering
  // cursor per machine core. A hot tenant's weight changes nothing.
  std::vector<std::string> paths;
  std::vector<std::size_t> records;
  for (int i = 0; i < 2; ++i) {
    verify::FuzzScenario sc;
    sc.seed = 700 + static_cast<std::uint64_t>(i);
    sc.instructions_per_core = 40000;
    const verify::ScenarioOutcome out = verify::run_scenario(sc);
    ASSERT_EQ(out.total_divergences, 0u);
    ASSERT_EQ(out.trace.num_cores, 4u);
    paths.push_back(temp_path("mixshared" + std::to_string(i)));
    std::string err;
    ASSERT_GT(out.trace.records.size(), 4 * 64u);  // spans chunks
    ASSERT_TRUE(workload::save_v2(out.trace, paths.back(), &err,
                                  /*chunk_records=*/64))
        << err;
    records.push_back(out.trace.records.size());
  }

  sim::SystemConfig cfg;
  cfg.topology = noc::Topology::kDirectoryMesh;
  cfg.total_l2_bytes = 8 * 32 * KiB;
  cfg.l1.size_bytes = 8 * KiB;
  cfg.decay = decay::DecayConfig{decay::Technique::kDecay, 2048, 4};
  workload::Benchmark bench;
  bench.config.name = "mix_shared";

  for (const double hot : {1.0, 2.0}) {
    OpenCounts counts[2];
    std::vector<sim::ProgramSpec> progs(2);
    for (int p = 0; p < 2; ++p) {
      progs[p].name = paths[p];
      progs[p].open = counting_opener(paths[p], &counts[p]);
    }
    progs[0].weight = hot;
    const sim::MixPlan plan = sim::plan_mix(std::move(progs), 8);
    for (const OpenCounts& c : counts) EXPECT_EQ(c.opens, 1u);  // planning
    sim::SystemConfig mix_cfg = cfg;
    plan.apply(mix_cfg);

    // Reference: the per-core path, a private cursor per machine core.
    sim::CmpSystem reference(
        mix_cfg, bench,
        [&paths, &plan](CoreId core, std::uint64_t) {
          const sim::MixAssignment& a = plan.assignment[core];
          return std::make_unique<workload::FilteredReplayStream>(
              workload::open_trace_source(paths[a.program]), a.trace_core);
        });
    const sim::RunMetrics want = reference.run();

    for (std::uint64_t pass = 1; pass <= 2; ++pass) {
      sim::CmpSystem sys(mix_cfg, bench, plan.streams);
      const sim::RunMetrics got = sys.run();
      expect_same_run(got, want);
      EXPECT_EQ(got.l2_decay_induced_misses, want.l2_decay_induced_misses);
      EXPECT_EQ(got.mem_bytes, want.mem_bytes);
      for (int p = 0; p < 2; ++p) {
        EXPECT_EQ(counts[p].opens, 1 + pass) << "program " << p;
        // Every record is drawn once; a hot tenant's cores outlive their
        // records, so its cursor is also probed once past the end.
        const std::size_t end_probe = p == 0 && hot > 1.0 ? 1 : 0;
        EXPECT_EQ(counts[p].nexts, pass * (records[p] + end_probe))
            << "program " << p;
      }
    }
  }

  // Four machine cores give each program only two: trace cores 2 and 3
  // have no machine core, so both programs stay on private cursors.
  OpenCounts counts[2];
  std::vector<sim::ProgramSpec> progs(2);
  for (int p = 0; p < 2; ++p) {
    progs[p].open = counting_opener(paths[p], &counts[p]);
  }
  const sim::MixPlan plan = sim::plan_mix(std::move(progs), 4);
  sim::SystemConfig mix_cfg = cfg;
  plan.apply(mix_cfg);
  sim::CmpSystem sys(mix_cfg, bench, plan.streams);
  (void)sys.run();
  for (const OpenCounts& c : counts) EXPECT_EQ(c.opens, 1u + 2u);
  for (const std::string& p : paths) std::remove(p.c_str());
}

TEST(SharedReplay, CorruptMiddleChunkStopsTheRunWithTheReaderError) {
  // A flipped payload byte in a middle chunk must stop the replay with the
  // checksum error — on the shared path and through a mix — instead of
  // replaying the prefix followed by the repeat-last tail.
  verify::FuzzScenario sc;
  sc.seed = 31337;
  sc.instructions_per_core = 40000;
  const verify::ScenarioOutcome original = verify::run_scenario(sc);
  const std::string path = temp_path("midflip");
  std::string err;
  ASSERT_TRUE(workload::save_v2(original.trace, path, &err,
                                /*chunk_records=*/64))
      << err;
  auto reader = ChunkedTraceReader::open(path, &err);
  ASSERT_NE(reader, nullptr) << err;
  const std::uint32_t chunks = reader->info().chunk_count;
  ASSERT_GE(chunks, 3u);
  reader.reset();

  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    bytes = ss.str();
  }
  // Walk the chunk headers (u32 payload_bytes first) to the middle chunk.
  std::size_t off = 20;
  for (std::uint32_t i = 0; i < chunks / 2; ++i) {
    std::uint32_t payload = 0;
    for (int b = 0; b < 4; ++b) {
      payload |= static_cast<std::uint32_t>(
                     static_cast<unsigned char>(bytes[off + b]))
                 << (8 * b);
    }
    off += 16 + payload;
  }
  bytes[off + 16 + 3] ^= 0x5a;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  const auto expect_checksum_stop = [](sim::CmpSystem& sys) {
    try {
      (void)sys.run();
      ADD_FAILURE() << "replay of a corrupt trace ran to completion";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos)
          << e.what();
    }
  };

  sim::SystemConfig cfg = sc.system_config();
  cfg.per_core_instructions = original.trace.per_core_instructions();
  workload::Benchmark bench;
  bench.config.name = sc.label();
  {
    sim::CmpSystem sys(cfg, bench, workload::streaming_replay_factory([&path] {
                         return workload::open_trace_source(path);
                       }));
    expect_checksum_stop(sys);
  }
  {
    std::vector<sim::ProgramSpec> progs(1);
    progs[0].open = [&path] { return workload::open_trace_source(path); };
    const sim::MixPlan plan = sim::plan_mix(std::move(progs), cfg.num_cores);
    sim::SystemConfig mix_cfg = cfg;
    plan.apply(mix_cfg);
    sim::CmpSystem sys(mix_cfg, bench, plan.streams);
    expect_checksum_stop(sys);
  }
  std::remove(path.c_str());
}

}  // namespace
