#pragma once
// perfbench: the end-to-end and per-layer benchmark of cdsim.
//
// A workload is a fixed list of cells; each cell is one freshly
// constructed CmpSystem run to completion. A pass runs every cell once,
// in one thread, and the benchmark reports medians over passes. The
// traced run attaches the timing seams below, which sit at public
// interfaces (stream factory, trace opener, access observer) and forward
// every call unchanged. NOTES.md records why each workload exists and
// how the measurements were made steady.

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cdsim/sim/cmp_system.hpp"
#include "cdsim/verify/fuzz.hpp"
#include "cdsim/verify/observer.hpp"
#include "cdsim/workload/trace_source.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Call count and host nanoseconds accumulated at one timing seam.
struct CallTimer {
  std::uint64_t calls = 0;
  std::uint64_t ns = 0;

  void add(Clock::time_point t0) {
    ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             t0)
            .count());
    ++calls;
  }
  /// Mean nanoseconds per call (0 when the seam was never crossed).
  [[nodiscard]] double ns_per_call() const {
    return calls == 0 ? 0.0
                      : static_cast<double>(ns) / static_cast<double>(calls);
  }
};

/// Times WorkloadStream::next of every stream the wrapped factory makes.
cdsim::workload::StreamFactory timed_factory(
    cdsim::workload::StreamFactory inner, CallTimer* timer);

/// Times TraceSource::next of every cursor the wrapped opener opens.
cdsim::workload::TraceOpener timed_opener(cdsim::workload::TraceOpener inner,
                                          CallTimer* timer);

/// Forwards every AccessObserver hook to `inner`, timing each call.
class TimedObserver final : public cdsim::verify::AccessObserver {
 public:
  TimedObserver(cdsim::verify::AccessObserver* inner, CallTimer* timer)
      : inner_(inner), timer_(timer) {}

  void on_load_hit(cdsim::CoreId core, cdsim::Addr line, cdsim::Cycle now,
                   bool l1) override;
  void on_fill(cdsim::CoreId core, cdsim::Addr line, cdsim::Cycle now,
               bool from_cache, bool for_write) override;
  void on_write_serialized(cdsim::CoreId core, cdsim::Addr line,
                           cdsim::Cycle now) override;
  void on_flush_supply(cdsim::CoreId core, cdsim::Addr line, cdsim::Cycle now,
                       bool memory_update) override;
  void on_writeback_initiated(cdsim::CoreId core, cdsim::Addr line,
                              cdsim::Cycle now) override;
  void on_writeback_resolved(cdsim::CoreId core, cdsim::Addr line,
                             cdsim::Cycle now, bool cancelled,
                             bool to_l3) override;
  void on_l3_install(cdsim::Addr line, cdsim::Cycle now) override;
  void on_l3_writeback(cdsim::Addr line, cdsim::Cycle now) override;
  void on_l3_invalidate(cdsim::Addr line, cdsim::Cycle now) override;
  void on_invalidate(cdsim::CoreId core, cdsim::Addr line,
                     cdsim::Cycle now) override;

 private:
  cdsim::verify::AccessObserver* inner_;
  CallTimer* timer_;
};

/// The seams a traced pass attaches.
struct Probes {
  CallTimer stream;    ///< WorkloadStream::next
  CallTimer trace;     ///< TraceSource::next
  CallTimer observer;  ///< AccessObserver hooks into the oracle
};

/// One simulated system of a workload.
struct Cell {
  std::string name;
  cdsim::sim::SystemConfig cfg;  ///< Final config (already seeded).
  cdsim::workload::Benchmark bench;
  /// Stream source; empty = the benchmark's preset synthetic streams.
  cdsim::workload::StreamFactory streams;
  /// Trace replay: streams come from per-core cursors this opener opens.
  cdsim::workload::TraceOpener replay;
  bool capture = false;  ///< Record every drawn op into an in-memory trace.
  bool oracle = false;   ///< Attach the DifferentialChecker.
  /// Metrics the run must reproduce bit for bit (trace replay: the run
  /// that captured the trace).
  std::optional<cdsim::sim::RunMetrics> expected;
};

/// What one cell run produced, and its verdict.
struct CellOutcome {
  cdsim::sim::RunMetrics metrics;
  double setup_s = 0.0;  ///< CmpSystem construction only.
  double run_s = 0.0;    ///< CmpSystem::run() only.
  std::uint64_t events = 0;
  std::uint64_t loads_checked = 0;
  std::uint64_t fills_checked = 0;
  std::uint64_t divergences = 0;
  std::uint64_t trace_records = 0;  ///< Ops captured in memory.
  std::string failure;              ///< Empty when every check passed.
};

/// Runs one cell: constructs its system (timed as setup), runs it (timed
/// as run) and checks it. `probes` attaches the timing seams.
CellOutcome run_cell(const Cell& cell, Probes* probes);

/// Constructs every cell's system without running it and returns the
/// summed constructor time. A run repeats this between passes and reports
/// the median as setup_s: a pass alone gives too few samples, and a
/// single construction (0.1 to 10 ms) is too short to time steadily.
double setup_sweep(const std::vector<Cell>& cells);

/// One pass over every cell of a workload.
struct PassResult {
  double setup_s = 0.0;  ///< Sum of every system's construction time.
  double run_s = 0.0;    ///< Sum of every CmpSystem::run().
  double wall_s = 0.0;   ///< First construction to last result.
  std::uint64_t instructions = 0;
  std::uint64_t events = 0;
  std::size_t failed = 0;
  std::vector<CellOutcome> cells;
};

PassResult run_pass(const std::vector<Cell>& cells, Probes* probes);

/// Field-by-field bit identity of two runs' metrics (doubles compared by
/// bit pattern). Returns the first differing field, or empty.
std::string metrics_mismatch(const cdsim::sim::RunMetrics& a,
                             const cdsim::sim::RunMetrics& b);

/// A workload's cells plus the files it made and removes again.
struct Workload {
  std::vector<Cell> cells;
  std::vector<std::string> files;   ///< Trace captures (removed at exit).
  std::uint64_t trace_file_bytes = 0;
  std::uint64_t trace_file_records = 0;
  /// fuzz_oracle: the scenarios behind the cells, so the traced run can
  /// check each cell against verify::run_scenario.
  std::vector<cdsim::verify::FuzzScenario> fuzz_scenarios;

  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  Workload(Workload&&) = default;
  Workload& operator=(Workload&&) = default;
  ~Workload();
};

/// Builds workload `name` from `seed`. `scratch_dir` receives the trace
/// captures of trace_replay. Throws std::invalid_argument for an unknown
/// name and std::runtime_error when a capture fails.
Workload make_workload(const std::string& name, std::uint64_t seed,
                       const std::string& scratch_dir);

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// True when `name` is a legal metric name: [A-Za-z0-9_.-]+, starting
/// with a letter or digit, at most 64 characters.
bool valid_metric_name(const std::string& name);

/// Result of one benchmark run: the contract's last-line JSON fields.
struct RunReport {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> failures;  ///< First few failure messages.
};

/// The plain run: passes until `seconds` elapse, end-to-end metrics.
RunReport run_plain(const Workload& w, double seconds);

/// The traced run: (plain pass, traced pass) pairs until `seconds`
/// elapse, per-layer metrics.
RunReport run_traced(const Workload& w, double seconds);

/// Formats the contract's result line.
std::string result_json(const RunReport& r);

}  // namespace perfbench
