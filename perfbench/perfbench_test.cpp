// Tests of the benchmark's own code: metric names, the timing seams, the
// setup-time sum, and the per-cell verdict.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cdsim/sim/experiment.hpp"
#include "cdsim/workload/benchmarks.hpp"
#include "cdsim/workload/scripted.hpp"
#include "cdsim/workload/trace_file.hpp"
#include "perfbench.hpp"

namespace {

using namespace cdsim;
using perfbench::CallTimer;
using perfbench::Cell;

/// A small paper-machine cell (a few thousand instructions per core).
Cell tiny_cell(const char* bench_name, const decay::DecayConfig& tech) {
  const workload::Benchmark& bench = workload::benchmark_by_name(bench_name);
  sim::SystemConfig cfg = sim::make_system_config(1 * MiB, tech);
  cfg.instructions_per_core = 3000;
  Cell cell;
  cell.name = std::string(bench_name) + "/" + tech.label();
  cell.cfg = sim::normalized_run_config(cfg, bench);
  cell.bench = bench;
  return cell;
}

perfbench::Workload tiny_workload() {
  perfbench::Workload w;
  w.cells.push_back(tiny_cell("FMM", sim::baseline_config()));
  w.cells.push_back(tiny_cell(
      "mpeg2enc", decay::DecayConfig{decay::Technique::kDecay, 8192, 4}));
  return w;
}

TEST(PerfbenchNames, EveryEmittedNameIsLegalAndUnique) {
  const perfbench::Workload w = tiny_workload();
  for (const perfbench::RunReport& r :
       {perfbench::run_plain(w, 0.0), perfbench::run_traced(w, 0.0)}) {
    EXPECT_EQ(r.failed, 0u);
    std::set<std::string> seen;
    for (const perfbench::Metric& m : r.metrics) {
      EXPECT_TRUE(perfbench::valid_metric_name(m.name)) << m.name;
      EXPECT_TRUE(seen.insert(m.name).second) << "duplicate " << m.name;
      EXPECT_FALSE(m.unit.empty()) << m.name;
    }
  }
}

TEST(PerfbenchNames, ValidatorRejectsIllegalNames) {
  EXPECT_TRUE(perfbench::valid_metric_name("l2.decay_turnoffs"));
  EXPECT_TRUE(perfbench::valid_metric_name("9-x.y_z"));
  EXPECT_FALSE(perfbench::valid_metric_name(""));
  EXPECT_FALSE(perfbench::valid_metric_name("_lead"));
  EXPECT_FALSE(perfbench::valid_metric_name("has space"));
  EXPECT_FALSE(perfbench::valid_metric_name("slash/name"));
  EXPECT_FALSE(perfbench::valid_metric_name(std::string(65, 'a')));
}

TEST(PerfbenchSeams, TimedFactoryForwardsEveryOpUnchanged) {
  std::vector<workload::MemOp> ops;
  for (std::uint32_t i = 0; i < 17; ++i) {
    ops.push_back({i % 3 == 0 ? AccessType::kStore : AccessType::kLoad,
                   0x1000 + 64ull * i, i % 5, i % 4 == 1,
                   static_cast<std::uint8_t>(i % 3)});
  }
  const workload::StreamFactory plain = [&ops](CoreId, std::uint64_t) {
    return std::make_unique<workload::ScriptedWorkload>(
        ops, workload::ScriptedWorkload::AtEnd::kLoop, "script");
  };
  CallTimer timer;
  const workload::StreamFactory timed = perfbench::timed_factory(plain, &timer);
  const workload::StreamPtr a = plain(2, 7);
  const workload::StreamPtr b = timed(2, 7);
  EXPECT_EQ(a->name(), b->name());
  for (Cycle now = 0; now < 40; ++now) {
    const workload::MemOp x = a->next(now);
    const workload::MemOp y = b->next(now);
    EXPECT_EQ(x.type, y.type);
    EXPECT_EQ(x.addr, y.addr);
    EXPECT_EQ(x.gap, y.gap);
    EXPECT_EQ(x.dependent, y.dependent);
    EXPECT_EQ(x.chain, y.chain);
  }
  EXPECT_EQ(timer.calls, 40u);
}

TEST(PerfbenchSeams, TimedOpenerForwardsEveryRecordUnchanged) {
  auto trace = std::make_shared<workload::Trace>();
  trace->num_cores = 3;
  for (std::uint32_t i = 0; i < 25; ++i) {
    trace->records.push_back(
        {static_cast<CoreId>(i % 3),
         {AccessType::kLoad, 0x40ull * i, i % 4, false, 0}});
  }
  const workload::TraceOpener plain = [trace]() -> workload::TraceSourcePtr {
    return std::make_unique<workload::InMemoryTraceSource>(trace);
  };
  CallTimer timer;
  const workload::TraceSourcePtr a = plain();
  const workload::TraceSourcePtr b = perfbench::timed_opener(plain, &timer)();
  EXPECT_EQ(a->num_cores(), b->num_cores());
  EXPECT_EQ(a->per_core_instructions(), b->per_core_instructions());
  workload::TraceRecord x;
  workload::TraceRecord y;
  for (;;) {
    const bool more = a->next(x);
    ASSERT_EQ(more, b->next(y));
    if (!more) break;
    EXPECT_EQ(x.core, y.core);
    EXPECT_EQ(x.op.addr, y.op.addr);
    EXPECT_EQ(x.op.gap, y.op.gap);
  }
  EXPECT_EQ(timer.calls, 26u);  // 25 records plus the end-of-trace call
}

/// Logs every hook with its arguments.
class RecordingObserver final : public verify::AccessObserver {
 public:
  std::vector<std::string> log;

  void on_load_hit(CoreId c, Addr l, Cycle n, bool l1) override {
    add("hit", c, l, n, l1);
  }
  void on_fill(CoreId c, Addr l, Cycle n, bool fc, bool fw) override {
    add("fill", c, l, n, fc, fw);
  }
  void on_write_serialized(CoreId c, Addr l, Cycle n) override {
    add("write", c, l, n);
  }
  void on_flush_supply(CoreId c, Addr l, Cycle n, bool mu) override {
    add("flush", c, l, n, mu);
  }
  void on_writeback_initiated(CoreId c, Addr l, Cycle n) override {
    add("wb_init", c, l, n);
  }
  void on_writeback_resolved(CoreId c, Addr l, Cycle n, bool cancelled,
                             bool to_l3) override {
    add("wb_res", c, l, n, cancelled, to_l3);
  }
  void on_l3_install(Addr l, Cycle n) override { add("l3_install", 0, l, n); }
  void on_l3_writeback(Addr l, Cycle n) override { add("l3_wb", 0, l, n); }
  void on_l3_invalidate(Addr l, Cycle n) override { add("l3_inv", 0, l, n); }
  void on_invalidate(CoreId c, Addr l, Cycle n) override {
    add("inv", c, l, n);
  }

 private:
  void add(const char* what, CoreId c, Addr l, Cycle n, bool f1 = false,
           bool f2 = false) {
    log.push_back(std::string(what) + " " + std::to_string(c) + " " +
                  std::to_string(l) + " " + std::to_string(n) + " " +
                  std::to_string(f1) + std::to_string(f2));
  }
};

/// Drives every hook once with distinct arguments.
void drive(verify::AccessObserver& o) {
  o.on_load_hit(1, 0x40, 10, true);
  o.on_fill(2, 0x80, 11, true, false);
  o.on_write_serialized(3, 0xc0, 12);
  o.on_flush_supply(0, 0x100, 13, true);
  o.on_writeback_initiated(1, 0x140, 14);
  o.on_writeback_resolved(2, 0x180, 15, false, true);
  o.on_l3_install(0x1c0, 16);
  o.on_l3_writeback(0x200, 17);
  o.on_l3_invalidate(0x240, 18);
  o.on_invalidate(3, 0x280, 19);
}

TEST(PerfbenchSeams, TimedObserverForwardsEveryHookUnchanged) {
  RecordingObserver direct;
  drive(direct);
  RecordingObserver inner;
  CallTimer timer;
  perfbench::TimedObserver timed(&inner, &timer);
  drive(timed);
  EXPECT_EQ(inner.log, direct.log);
  EXPECT_EQ(timer.calls, 10u);
}

TEST(PerfbenchSeams, TracedPassReproducesPlainPassBitForBit) {
  perfbench::Workload w = tiny_workload();
  Cell oracle = tiny_cell("WATER-NS", sim::baseline_config());
  oracle.oracle = true;
  oracle.capture = true;
  w.cells.push_back(std::move(oracle));
  const perfbench::PassResult plain = perfbench::run_pass(w.cells, nullptr);
  perfbench::Probes probes;
  const perfbench::PassResult traced = perfbench::run_pass(w.cells, &probes);
  ASSERT_EQ(plain.failed, 0u);
  ASSERT_EQ(traced.failed, 0u);
  for (std::size_t i = 0; i < w.cells.size(); ++i) {
    EXPECT_EQ(perfbench::metrics_mismatch(plain.cells[i].metrics,
                                          traced.cells[i].metrics),
              "")
        << w.cells[i].name;
    EXPECT_EQ(plain.cells[i].trace_records, traced.cells[i].trace_records);
  }
  EXPECT_GT(probes.stream.calls, 0u);
  EXPECT_GT(probes.observer.calls, 0u);
  EXPECT_EQ(traced.cells[2].loads_checked, plain.cells[2].loads_checked);
}

TEST(PerfbenchSetup, SetupSumsTheConstructorTimeOfEverySystem) {
  // Each stream takes 2 ms to construct, and CmpSystem builds its streams
  // in its constructor: a pass over three 4-core cells spends >= 24 ms in
  // setup, and none of it inside run().
  constexpr auto kDelay = std::chrono::milliseconds(2);
  std::vector<Cell> cells;
  for (int i = 0; i < 3; ++i) {
    Cell cell = tiny_cell("FMM", sim::baseline_config());
    const workload::Benchmark* bench = &workload::benchmark_by_name("FMM");
    cell.streams = [bench, kDelay](CoreId core, std::uint64_t seed) {
      std::this_thread::sleep_for(kDelay);
      return workload::make_stream(*bench, core, seed);
    };
    cells.push_back(std::move(cell));
  }
  const perfbench::PassResult p = perfbench::run_pass(cells, nullptr);
  ASSERT_EQ(p.failed, 0u);
  double sum = 0.0;
  for (const perfbench::CellOutcome& o : p.cells) {
    EXPECT_GE(o.setup_s, 4 * 0.002);
    sum += o.setup_s;
  }
  EXPECT_DOUBLE_EQ(p.setup_s, sum);
  EXPECT_GE(p.setup_s, 12 * 0.002);
  EXPECT_LE(p.setup_s + p.run_s, p.wall_s);
  // The setup sweeps behind setup_s construct every system too.
  EXPECT_GE(perfbench::setup_sweep(cells), 12 * 0.002);
}

TEST(PerfbenchVerdict, ReplayThatDiffersFromItsCaptureFails) {
  Cell cell = tiny_cell("FMM", sim::baseline_config());
  const perfbench::CellOutcome good = perfbench::run_cell(cell, nullptr);
  ASSERT_EQ(good.failure, "");
  cell.expected = good.metrics;
  EXPECT_EQ(perfbench::run_cell(cell, nullptr).failure, "");
  cell.expected->l2_misses += 1;
  EXPECT_NE(perfbench::run_cell(cell, nullptr).failure.find("l2_misses"),
            std::string::npos);
}

TEST(PerfbenchVerdict, ResultLineHasTheContractKeys) {
  perfbench::RunReport r;
  r.attempted = 4;
  r.failed = 1;
  r.metrics = {{"wall_s", 1.25, "s"}, {"ok_ops_frac", 0.75, "fraction"}};
  EXPECT_EQ(perfbench::result_json(r),
            "{\"correct\": false, \"attempted\": 4, \"failed\": 1, "
            "\"metrics\": {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}, "
            "\"ok_ops_frac\": {\"value\": 0.75, \"unit\": \"fraction\"}}}");
}

}  // namespace
