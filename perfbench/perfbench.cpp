#include "perfbench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <utility>

#include "cdsim/common/host_timer.hpp"
#include "cdsim/sim/experiment.hpp"
#include "cdsim/verify/fuzz.hpp"
#include "cdsim/verify/oracle.hpp"
#include "cdsim/workload/benchmarks.hpp"
#include "cdsim/workload/fuzzer.hpp"
#include "cdsim/workload/trace_file.hpp"
#include "cdsim/workload/trace_v2.hpp"

namespace perfbench {

using namespace cdsim;

// ---------------------------------------------------------------------------
// Timing seams
// ---------------------------------------------------------------------------

namespace {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

class TimedStream final : public workload::WorkloadStream {
 public:
  TimedStream(workload::StreamPtr inner, CallTimer* timer)
      : inner_(std::move(inner)), timer_(timer) {}

  workload::MemOp next(Cycle now) override {
    const auto t0 = Clock::now();
    const workload::MemOp op = inner_->next(now);
    timer_->add(t0);
    return op;
  }

  [[nodiscard]] std::string_view name() const override {
    return inner_->name();
  }

 private:
  workload::StreamPtr inner_;
  CallTimer* timer_;
};

class TimedTraceSource final : public workload::TraceSource {
 public:
  TimedTraceSource(workload::TraceSourcePtr inner, CallTimer* timer)
      : inner_(std::move(inner)), timer_(timer) {}

  bool next(workload::TraceRecord& out) override {
    const auto t0 = Clock::now();
    const bool ok = inner_->next(out);
    timer_->add(t0);
    return ok;
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
  CallTimer* timer_;
};

}  // namespace

workload::StreamFactory timed_factory(workload::StreamFactory inner,
                                      CallTimer* timer) {
  return [inner = std::move(inner), timer](CoreId core, std::uint64_t seed) {
    return std::make_unique<TimedStream>(inner(core, seed), timer);
  };
}

workload::TraceOpener timed_opener(workload::TraceOpener inner,
                                   CallTimer* timer) {
  return [inner = std::move(inner), timer]() -> workload::TraceSourcePtr {
    workload::TraceSourcePtr src = inner();
    if (src == nullptr) return nullptr;
    return std::make_unique<TimedTraceSource>(std::move(src), timer);
  };
}

void TimedObserver::on_load_hit(CoreId core, Addr line, Cycle now, bool l1) {
  const auto t0 = Clock::now();
  inner_->on_load_hit(core, line, now, l1);
  timer_->add(t0);
}

void TimedObserver::on_fill(CoreId core, Addr line, Cycle now,
                            bool from_cache, bool for_write) {
  const auto t0 = Clock::now();
  inner_->on_fill(core, line, now, from_cache, for_write);
  timer_->add(t0);
}

void TimedObserver::on_write_serialized(CoreId core, Addr line, Cycle now) {
  const auto t0 = Clock::now();
  inner_->on_write_serialized(core, line, now);
  timer_->add(t0);
}

void TimedObserver::on_flush_supply(CoreId core, Addr line, Cycle now,
                                    bool memory_update) {
  const auto t0 = Clock::now();
  inner_->on_flush_supply(core, line, now, memory_update);
  timer_->add(t0);
}

void TimedObserver::on_writeback_initiated(CoreId core, Addr line,
                                           Cycle now) {
  const auto t0 = Clock::now();
  inner_->on_writeback_initiated(core, line, now);
  timer_->add(t0);
}

void TimedObserver::on_writeback_resolved(CoreId core, Addr line, Cycle now,
                                          bool cancelled, bool to_l3) {
  const auto t0 = Clock::now();
  inner_->on_writeback_resolved(core, line, now, cancelled, to_l3);
  timer_->add(t0);
}

void TimedObserver::on_l3_install(Addr line, Cycle now) {
  const auto t0 = Clock::now();
  inner_->on_l3_install(line, now);
  timer_->add(t0);
}

void TimedObserver::on_l3_writeback(Addr line, Cycle now) {
  const auto t0 = Clock::now();
  inner_->on_l3_writeback(line, now);
  timer_->add(t0);
}

void TimedObserver::on_l3_invalidate(Addr line, Cycle now) {
  const auto t0 = Clock::now();
  inner_->on_l3_invalidate(line, now);
  timer_->add(t0);
}

void TimedObserver::on_invalidate(CoreId core, Addr line, Cycle now) {
  const auto t0 = Clock::now();
  inner_->on_invalidate(core, line, now);
  timer_->add(t0);
}

// ---------------------------------------------------------------------------
// Cells and passes
// ---------------------------------------------------------------------------

namespace {

workload::StreamFactory preset_streams(const workload::Benchmark& bench) {
  return [&bench](CoreId core, std::uint64_t seed) {
    return workload::make_stream(bench, core, seed);
  };
}

std::uint64_t core_budget(const sim::SystemConfig& cfg, CoreId c) {
  return cfg.per_core_instructions.empty() ? cfg.instructions_per_core
                                           : cfg.per_core_instructions[c];
}

/// The stream factory a cell's system is built with; `captured` receives
/// the ops of a capturing cell.
workload::StreamFactory cell_factory(const Cell& cell, Probes* probes,
                                     workload::Trace* captured) {
  workload::StreamFactory factory = cell.streams;
  if (cell.replay) {
    factory = workload::streaming_replay_factory(
        probes != nullptr ? timed_opener(cell.replay, &probes->trace)
                          : cell.replay);
  }
  if (cell.capture) {
    factory = workload::capture_factory(
        factory ? std::move(factory) : preset_streams(cell.bench), captured);
  }
  if (probes != nullptr) {
    factory = timed_factory(
        factory ? std::move(factory) : preset_streams(cell.bench),
        &probes->stream);
  }
  return factory;
}

}  // namespace

CellOutcome run_cell(const Cell& cell, Probes* probes) {
  CellOutcome out;
  workload::Trace captured;
  captured.num_cores = cell.cfg.num_cores;
  const workload::StreamFactory factory =
      cell_factory(cell, probes, &captured);

  std::optional<verify::DifferentialChecker> checker;
  std::optional<TimedObserver> timed_checker;
  if (cell.oracle) checker.emplace(cell.cfg.num_cores);

  const auto t0 = Clock::now();
  auto sys = std::make_unique<sim::CmpSystem>(cell.cfg, cell.bench, factory);
  out.setup_s = seconds_since(t0);

  if (checker) {
    verify::AccessObserver* obs = &*checker;
    if (probes != nullptr) obs = &timed_checker.emplace(obs, &probes->observer);
    sys->set_observer(obs);
  }

  const auto t1 = Clock::now();
  out.metrics = sys->run();
  out.run_s = seconds_since(t1);
  out.events = sys->events().executed();
  out.trace_records = captured.records.size();

  // The verdict: every core reached its budget, the coherence invariants
  // hold (check_coherence_invariants aborts the process otherwise), the
  // oracle saw no divergence, and a replay reproduces its capture.
  for (CoreId c = 0; c < cell.cfg.num_cores && out.failure.empty(); ++c) {
    const core::CoreModel& core = sys->core_model(c);
    if (!core.done() || core.committed() < core_budget(cell.cfg, c)) {
      out.failure = "core " + std::to_string(c) + " committed " +
                    std::to_string(core.committed()) + " of " +
                    std::to_string(core_budget(cell.cfg, c));
    }
  }
  sys->check_coherence_invariants();
  if (checker) {
    out.loads_checked = checker->loads_checked();
    out.fills_checked = checker->fills_checked();
    out.divergences = checker->total_divergences();
    if (out.divergences != 0 && out.failure.empty()) {
      out.failure = std::to_string(out.divergences) +
                    " oracle divergence(s), first: " +
                    verify::to_string(checker->divergences().front());
    }
  }
  if (cell.expected && out.failure.empty()) {
    const std::string field = metrics_mismatch(*cell.expected, out.metrics);
    if (!field.empty()) out.failure = "differs from its capture in " + field;
  }
  if (!out.failure.empty()) out.failure = cell.name + ": " + out.failure;
  return out;
}

double setup_sweep(const std::vector<Cell>& cells) {
  double setup_s = 0.0;
  for (const Cell& cell : cells) {
    workload::Trace captured;
    captured.num_cores = cell.cfg.num_cores;
    const workload::StreamFactory factory =
        cell_factory(cell, nullptr, &captured);
    const auto t0 = Clock::now();
    auto sys = std::make_unique<sim::CmpSystem>(cell.cfg, cell.bench, factory);
    setup_s += seconds_since(t0);
  }
  return setup_s;
}

PassResult run_pass(const std::vector<Cell>& cells, Probes* probes) {
  PassResult p;
  p.cells.reserve(cells.size());
  const auto t0 = Clock::now();
  for (const Cell& cell : cells) {
    CellOutcome o = run_cell(cell, probes);
    p.setup_s += o.setup_s;
    p.run_s += o.run_s;
    p.instructions += o.metrics.instructions;
    p.events += o.events;
    if (!o.failure.empty()) ++p.failed;
    p.cells.push_back(std::move(o));
  }
  p.wall_s = seconds_since(t0);
  return p;
}

namespace {

bool same(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}
bool same(std::uint64_t a, std::uint64_t b) { return a == b; }
bool same(const std::string& a, const std::string& b) { return a == b; }

}  // namespace

std::string metrics_mismatch(const sim::RunMetrics& a,
                             const sim::RunMetrics& b) {
#define PERFBENCH_SAME(f) \
  if (!same(a.f, b.f)) return #f
  PERFBENCH_SAME(benchmark);
  PERFBENCH_SAME(technique);
  PERFBENCH_SAME(total_l2_bytes);
  PERFBENCH_SAME(cycles);
  PERFBENCH_SAME(instructions);
  PERFBENCH_SAME(ipc);
  PERFBENCH_SAME(l2_occupation);
  PERFBENCH_SAME(l2_miss_rate);
  PERFBENCH_SAME(l2_accesses);
  PERFBENCH_SAME(l2_misses);
  PERFBENCH_SAME(l2_decay_turnoffs);
  PERFBENCH_SAME(l2_decay_induced_misses);
  PERFBENCH_SAME(l2_coherence_invals);
  PERFBENCH_SAME(l2_writebacks);
  PERFBENCH_SAME(amat);
  PERFBENCH_SAME(mem_bandwidth);
  PERFBENCH_SAME(mem_bytes);
  PERFBENCH_SAME(energy);
  PERFBENCH_SAME(avg_l2_temp_kelvin);
  PERFBENCH_SAME(bus_utilization);
  PERFBENCH_SAME(topology);
  PERFBENCH_SAME(noc_flit_hops);
  PERFBENCH_SAME(noc_avg_packet_latency);
  PERFBENCH_SAME(dir_directed_snoops);
  PERFBENCH_SAME(dir_recalls);
  PERFBENCH_SAME(dir_deferrals);
  PERFBENCH_SAME(hierarchy);
  PERFBENCH_SAME(total_l3_bytes);
  PERFBENCH_SAME(mem_model);
  PERFBENCH_SAME(dram_row_hits);
  PERFBENCH_SAME(dram_row_misses);
  PERFBENCH_SAME(dram_row_conflicts);
  PERFBENCH_SAME(dram_activates);
  PERFBENCH_SAME(dram_precharges);
  PERFBENCH_SAME(dram_refreshes);
  PERFBENCH_SAME(dram_write_forwards);
  PERFBENCH_SAME(tlb_hits);
  PERFBENCH_SAME(tlb_misses);
  for (const auto level : {&sim::RunMetrics::l1, &sim::RunMetrics::l2,
                           &sim::RunMetrics::l3}) {
    const sim::LevelMetrics& la = a.*level;
    const sim::LevelMetrics& lb = b.*level;
    const auto lsame = [&la, &lb](auto field) {
      return same(la.*field, lb.*field);
    };
    if (!lsame(&sim::LevelMetrics::accesses) ||
        !lsame(&sim::LevelMetrics::hits) ||
        !lsame(&sim::LevelMetrics::misses) ||
        !lsame(&sim::LevelMetrics::decay_turnoffs) ||
        !lsame(&sim::LevelMetrics::decay_induced_misses) ||
        !lsame(&sim::LevelMetrics::writebacks) ||
        !lsame(&sim::LevelMetrics::occupation)) {
      return "level metrics";
    }
  }
#undef PERFBENCH_SAME
  for (std::size_t i = 0; i < power::kNumComponents; ++i) {
    const auto c = static_cast<power::Component>(i);
    if (!same(a.ledger.get(c), b.ledger.get(c))) return "energy ledger";
  }
  return {};
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

namespace {

// Instruction budgets per core; NOTES.md ("Run length") records the
// measurements behind them. At 1M a paper-machine cell's events per
// instruction are within 1%, and its decay turn-offs within 14%, of a run
// at the program's default 4M. The mesh16 machine aborts past about 130k
// (thermal runaway of the interconnect block, which carries the L3's
// leakage), so its budget stays below that.
constexpr std::uint64_t kPaperInstr = 1'000'000;
constexpr std::uint64_t kMeshInstr = 100'000;
constexpr std::uint64_t kReplayInstr = 1'000'000;

const decay::DecayConfig kBaseline{decay::Technique::kBaseline, 0, 4};
const decay::DecayConfig kProtocol{decay::Technique::kProtocol, 0, 4};
const decay::DecayConfig kDecay64K{decay::Technique::kDecay, 64 * 1024, 4};
const decay::DecayConfig kSelDecay64K{decay::Technique::kSelectiveDecay,
                                      64 * 1024, 4};

Cell paper_cell(const workload::Benchmark& bench, std::uint64_t l2_bytes,
                const decay::DecayConfig& tech, std::uint64_t instr,
                std::uint64_t seed) {
  sim::SystemConfig cfg = sim::make_system_config(l2_bytes, tech);
  cfg.instructions_per_core = instr;
  cfg.seed = seed;
  Cell cell;
  cell.name = bench.config.name + "/" + std::to_string(l2_bytes / MiB) +
              "MB/" + tech.label();
  cell.cfg = sim::normalized_run_config(cfg, bench);
  cell.bench = bench;
  return cell;
}

/// §V machine: three of the six benchmarks (sharing-heavy FMM, streaming
/// mpeg2enc, read-mostly VOLREND) x {1, 8} MB x four techniques. All six
/// at this budget would take about 15 s a pass, too long for a median
/// over passes within one run.
Workload paper_grid(std::uint64_t seed) {
  Workload w;
  for (const char* name : {"FMM", "mpeg2enc", "VOLREND"}) {
    const workload::Benchmark& bench = workload::benchmark_by_name(name);
    for (const std::uint64_t mb : {1u, 8u}) {
      for (const decay::DecayConfig& tech :
           {kBaseline, kProtocol, kDecay64K, kSelDecay64K}) {
        w.cells.push_back(paper_cell(bench, mb * MiB, tech, kPaperInstr, seed));
      }
    }
  }
  return w;
}

/// 16-core directory mesh, three levels with decay at each, banked DRAM
/// and per-core TLBs: FMM and mpeg2enc x {baseline, decay64K}.
Workload mesh16_3l_dram(std::uint64_t seed) {
  Workload w;
  constexpr std::uint32_t kCores = 16;
  for (const char* name : {"FMM", "mpeg2enc"}) {
    const workload::Benchmark& bench = workload::benchmark_by_name(name);
    for (const decay::DecayConfig& tech : {kBaseline, kDecay64K}) {
      sim::SystemConfig cfg =
          sim::make_system_config(std::uint64_t{kCores} * MiB, tech);
      cfg.num_cores = kCores;
      cfg.topology = noc::Topology::kDirectoryMesh;
      cfg.hierarchy = sim::Hierarchy::kThreeLevel;
      cfg.total_l3_bytes = 4 * cfg.total_l2_bytes;
      cfg.l1_decay = cfg.decay;
      cfg.l3_decay = cfg.decay;
      cfg.mem.model = mem::MemoryModel::kDram;
      cfg.mem.tlb.enabled = true;
      cfg.instructions_per_core = kMeshInstr;
      cfg.seed = seed;
      Cell cell;
      cell.name = std::string(name) + "/mesh16-3L-dram/" + tech.label();
      cell.cfg = sim::normalized_run_config(cfg, bench);
      cell.bench = bench;
      w.cells.push_back(std::move(cell));
    }
  }
  return w;
}

/// The stream factory verify::run_scenario builds for a scenario: the
/// homogeneous fuzzer, or for multi-program cells one personality per
/// core. The traced run checks this copy against run_scenario itself.
workload::StreamFactory fuzz_streams(const verify::FuzzScenario& sc) {
  const workload::FuzzerConfig fc = sc.fuzz;
  if (sc.programs == 0) {
    return [fc](CoreId core, std::uint64_t seed) {
      return std::make_unique<workload::FuzzerWorkload>(fc, core, seed);
    };
  }
  const std::uint32_t programs = sc.programs;
  return [fc, programs](CoreId core, std::uint64_t seed) {
    const std::uint32_t p = core % programs;
    workload::FuzzerConfig pc = fc;
    pc.name = fc.name + "/p" + std::to_string(p);
    switch (p % 4) {
      case 0:
        break;
      case 1:
        pc.w_false_share = 0.40;
        pc.w_pingpong = 0.12;
        break;
      case 2:
        pc.w_straddle = 0.22;
        pc.w_chain = 0.06;
        pc.max_gap = 7;
        break;
      default:
        pc.w_pingpong = 0.40;
        pc.store_fraction = 0.7;
        pc.churn_lines = 96;
        break;
    }
    return std::make_unique<workload::FuzzerWorkload>(
        pc, core, seed ^ (0x9e3779b97f4a7c15ULL * (p + 1)));
  };
}

/// The fuzz matrix, each scenario run as verify::run_scenario runs it.
Workload fuzz_oracle(std::uint64_t seed) {
  verify::FuzzOptions opts;  // run_fuzz's default scenario count
  opts.base_seed = seed;
  Workload w;
  w.fuzz_scenarios = verify::fuzz_matrix(opts);
  for (const verify::FuzzScenario& sc : w.fuzz_scenarios) {
    Cell cell;
    cell.name = sc.label();
    cell.cfg = sc.system_config();
    cell.bench.config.name = sc.label();
    cell.streams = fuzz_streams(sc);
    cell.capture = true;
    cell.oracle = true;
    w.cells.push_back(std::move(cell));
  }
  return w;
}

/// mpeg2enc on the §V machine, captured once to .cdt v2 and replayed
/// from the file through per-core streaming cursors.
Workload trace_replay(std::uint64_t seed, const std::string& scratch_dir) {
  Workload w;
  const workload::Benchmark& bench = workload::benchmark_by_name("mpeg2enc");
  for (const std::uint64_t mb : {1u, 8u}) {
    for (const decay::DecayConfig& tech :
         {kBaseline, kProtocol, kDecay64K, kSelDecay64K}) {
      Cell cell = paper_cell(bench, mb * MiB, tech, kReplayInstr, seed);
      const std::string path = scratch_dir + "/trace_replay_" +
                               std::to_string(w.files.size()) + ".cdt";
      w.files.push_back(path);
      {
        workload::ChunkedTraceWriter writer(path, cell.cfg.num_cores);
        sim::CmpSystem sys(cell.cfg, cell.bench,
                           workload::capture_factory(
                               preset_streams(cell.bench), &writer));
        cell.expected = sys.run();
        if (!writer.finish()) {
          throw std::runtime_error("trace capture: " + writer.error());
        }
      }
      std::string err;
      const auto reader = workload::ChunkedTraceReader::open(path, &err);
      if (reader == nullptr) throw std::runtime_error("trace reopen: " + err);
      w.trace_file_bytes += reader->info().file_bytes;
      w.trace_file_records += reader->info().total_records;
      cell.replay = [path]() -> workload::TraceSourcePtr {
        return workload::ChunkedTraceReader::open(path);
      };
      cell.name += "/replay";
      w.cells.push_back(std::move(cell));
    }
  }
  return w;
}

}  // namespace

Workload::~Workload() {
  for (const std::string& f : files) {
    std::error_code ec;
    std::filesystem::remove(f, ec);
  }
}

Workload make_workload(const std::string& name, std::uint64_t seed,
                       const std::string& scratch_dir) {
  if (name == "paper_grid") return paper_grid(seed);
  if (name == "mesh16_3l_dram") return mesh16_3l_dram(seed);
  if (name == "fuzz_oracle") return fuzz_oracle(seed);
  if (name == "trace_replay") return trace_replay(seed, scratch_dir);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

// ---------------------------------------------------------------------------
// Runs and metrics
// ---------------------------------------------------------------------------

bool valid_metric_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  if (std::isalnum(static_cast<unsigned char>(name.front())) == 0) {
    return false;
  }
  return std::all_of(name.begin(), name.end(), [](char ch) {
    return std::isalnum(static_cast<unsigned char>(ch)) != 0 || ch == '_' ||
           ch == '.' || ch == '-';
  });
}

namespace {

constexpr std::size_t kMaxFailureMessages = 8;
constexpr std::size_t kSweepsPerPass = 7;

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void note_failures(const PassResult& p, RunReport& r) {
  r.attempted += p.cells.size();
  r.failed += p.failed;
  for (const CellOutcome& o : p.cells) {
    if (!o.failure.empty() && r.failures.size() < kMaxFailureMessages) {
      r.failures.push_back(o.failure);
    }
  }
}

/// Fails every cell of `p` whose metrics differ from `ref`'s same cell:
/// a pass must reproduce the reference pass bit for bit.
void require_identical(PassResult& p, const PassResult& ref,
                       const std::vector<Cell>& cells, const char* what) {
  for (std::size_t i = 0; i < p.cells.size(); ++i) {
    CellOutcome& o = p.cells[i];
    if (!o.failure.empty()) continue;
    const std::string field = metrics_mismatch(ref.cells[i].metrics, o.metrics);
    if (!field.empty()) {
      o.failure = cells[i].name + ": " + what + " differs in " + field;
      ++p.failed;
    }
  }
}

/// The program's own entry point for each fuzz cell must agree with the
/// benchmark's re-assembly of it, or the workload no longer measures what
/// verify::run_scenario runs.
void check_against_run_scenario(
    PassResult& p, const std::vector<verify::FuzzScenario>& scenarios) {
  for (std::size_t i = 0; i < p.cells.size(); ++i) {
    CellOutcome& o = p.cells[i];
    if (!o.failure.empty()) continue;
    const verify::ScenarioOutcome ref = verify::run_scenario(scenarios[i]);
    const std::string field = metrics_mismatch(ref.metrics, o.metrics);
    if (!field.empty() || ref.trace.records.size() != o.trace_records) {
      o.failure = scenarios[i].label() +
                  ": differs from verify::run_scenario in " +
                  (field.empty() ? std::string("captured records") : field);
      ++p.failed;
    }
  }
}

}  // namespace

RunReport run_plain(const Workload& w, double seconds) {
  // Every pass constructs fresh systems and repeats the same work; the
  // first is the reference the others must reproduce bit for bit. Only
  // the reference keeps its per-cell outcomes, so the process's peak RSS
  // does not grow with the number of passes. A pass starts only if it
  // should end within `seconds`. setup_s is the median of the setup
  // sweeps that follow each of the first kMinPasses passes.
  constexpr std::size_t kMinPasses = 3;
  std::optional<PassResult> reference;
  std::vector<double> rate;
  std::vector<double> wall;
  std::vector<double> setup;
  RunReport r;
  const auto t0 = Clock::now();
  while (wall.size() < kMinPasses ||
         seconds_since(t0) + wall.back() <= seconds) {
    PassResult p = run_pass(w.cells, nullptr);
    if (reference) require_identical(p, *reference, w.cells, "repeated pass");
    note_failures(p, r);
    rate.push_back(ratio(static_cast<double>(p.instructions) / 1e6, p.run_s));
    wall.push_back(p.wall_s);
    if (wall.size() <= kMinPasses) {
      for (std::size_t i = 0; i < kSweepsPerPass; ++i) {
        setup.push_back(setup_sweep(w.cells));
      }
    }
    std::fprintf(stderr,
                 "pass %zu: %zu cells, setup %.4f s, run %.4f s, wall %.4f s, "
                 "%.2f Minstr/s\n",
                 wall.size() - 1, p.cells.size(), p.setup_s, p.run_s,
                 p.wall_s, rate.back());
    if (!reference) reference = std::move(p);
  }

  r.metrics = {
      {"sim_minstr_per_s", median(rate), "Minstr/s"},
      {"wall_s", median(wall), "s"},
      {"setup_s", median(setup), "s"},
      {"peak_rss_mib", peak_rss_mib(), "MiB"},
      {"ok_ops_frac",
       ratio(static_cast<double>(r.attempted - r.failed),
             static_cast<double>(r.attempted)),
       "fraction"},
  };
  return r;
}

namespace {

/// Host-time figures of one (plain pass, traced pass) pair.
struct PairTimes {
  double workload_next_ns = 0.0;
  double trace_next_ns = 0.0;
  double observer_ns = 0.0;
  double setup_ns_per_system = 0.0;
  double run_ns_per_event = 0.0;
  double hostprof[static_cast<std::size_t>(prof::Phase::kCount)] = {};
  double trace_overhead = 0.0;
};

/// Deterministic per-layer counts of one pass, summed (or, for ratios,
/// averaged) over its cells.
std::vector<Metric> layer_counts(const PassResult& p, const Workload& w) {
  double instr = 0, cycles = 0, l1_acc = 0, l1_miss = 0, l1_off = 0;
  double l2_acc = 0, l2_miss = 0, l2_off = 0, l2_dim = 0, l2_inv = 0;
  double l2_wb = 0, l2_occ = 0, l3_acc = 0, l3_hits = 0, l3_off = 0;
  double l3_occ = 0, bus_util = 0, mem_bytes = 0, flit_hops = 0;
  double pkt_lat = 0, snoops = 0, recalls = 0, deferrals = 0;
  double row_hits = 0, row_conf = 0, acts = 0, fwds = 0, tlb_miss = 0;
  double loads = 0, fills = 0, divs = 0, records = 0, energy = 0, temp = 0;
  std::size_t l3_cells = 0;
  std::size_t mesh_cells = 0;
  for (const CellOutcome& o : p.cells) {
    const sim::RunMetrics& m = o.metrics;
    const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    instr += d(m.instructions);
    cycles += d(m.cycles);
    l1_acc += d(m.l1.accesses);
    l1_miss += d(m.l1.misses);
    l1_off += d(m.l1.decay_turnoffs);
    l2_acc += d(m.l2_accesses);
    l2_miss += d(m.l2_misses);
    l2_off += d(m.l2_decay_turnoffs);
    l2_dim += d(m.l2_decay_induced_misses);
    l2_inv += d(m.l2_coherence_invals);
    l2_wb += d(m.l2_writebacks);
    l2_occ += m.l2_occupation;
    if (m.total_l3_bytes > 0) {
      ++l3_cells;
      l3_acc += d(m.l3.accesses);
      l3_hits += d(m.l3.hits);
      l3_off += d(m.l3.decay_turnoffs);
      l3_occ += m.l3.occupation;
    }
    bus_util += m.bus_utilization;
    mem_bytes += d(m.mem_bytes);
    if (m.topology != "bus") {
      ++mesh_cells;
      pkt_lat += m.noc_avg_packet_latency;
    }
    flit_hops += d(m.noc_flit_hops);
    snoops += d(m.dir_directed_snoops);
    recalls += d(m.dir_recalls);
    deferrals += d(m.dir_deferrals);
    row_hits += d(m.dram_row_hits);
    row_conf += d(m.dram_row_conflicts);
    acts += d(m.dram_activates);
    fwds += d(m.dram_write_forwards);
    tlb_miss += d(m.tlb_misses);
    loads += d(o.loads_checked);
    fills += d(o.fills_checked);
    divs += d(o.divergences);
    records += d(o.trace_records);
    energy += m.energy;
    temp += m.avg_l2_temp_kelvin;
  }
  const double n = static_cast<double>(p.cells.size());
  const double events = static_cast<double>(p.events);
  records += static_cast<double>(w.trace_file_records);
  return {
      {"core.instructions", instr, "count"},
      {"core.cycles", cycles, "cycles"},
      {"core.ipc", ratio(instr, cycles), "instr/cycle"},
      {"eventq.events", events, "count"},
      {"eventq.events_per_instr", ratio(events, instr), "events/instr"},
      {"l1.accesses", l1_acc, "count"},
      {"l1.misses", l1_miss, "count"},
      {"l1.decay_turnoffs", l1_off, "count"},
      {"l2.accesses", l2_acc, "count"},
      {"l2.misses", l2_miss, "count"},
      {"l2.decay_turnoffs", l2_off, "count"},
      {"l2.decay_induced_misses", l2_dim, "count"},
      {"l2.coherence_invals", l2_inv, "count"},
      {"l2.writebacks", l2_wb, "count"},
      {"l2.occupation", ratio(l2_occ, n), "fraction"},
      {"l3.accesses", l3_acc, "count"},
      {"l3.hits", l3_hits, "count"},
      {"l3.decay_turnoffs", l3_off, "count"},
      {"l3.occupation", ratio(l3_occ, static_cast<double>(l3_cells)),
       "fraction"},
      {"bus.utilization", ratio(bus_util, n), "fraction"},
      {"mem.bytes", mem_bytes, "bytes"},
      {"noc.flit_hops", flit_hops, "count"},
      {"noc.avg_packet_latency",
       ratio(pkt_lat, static_cast<double>(mesh_cells)), "cycles"},
      {"dir.directed_snoops", snoops, "count"},
      {"dir.recalls", recalls, "count"},
      {"dir.deferrals", deferrals, "count"},
      {"dram.row_hits", row_hits, "count"},
      {"dram.row_conflicts", row_conf, "count"},
      {"dram.activates", acts, "count"},
      {"dram.write_forwards", fwds, "count"},
      {"tlb.misses", tlb_miss, "count"},
      {"verify.loads_checked", loads, "count"},
      {"verify.fills_checked", fills, "count"},
      {"verify.divergences", divs, "count"},
      {"trace.records", records, "count"},
      {"trace.file_bytes", static_cast<double>(w.trace_file_bytes), "bytes"},
      {"power.energy", energy, "eu"},
      {"thermal.avg_l2_temp_k", ratio(temp, n), "K"},
  };
}

}  // namespace

RunReport run_traced(const Workload& w, double seconds) {
  RunReport r;
  std::vector<PairTimes> pairs;
  std::optional<PassResult> first_plain;
  const auto t0 = Clock::now();
  double pair_s = 0.0;
  do {
    const auto pair_start = Clock::now();
    PassResult plain = run_pass(w.cells, nullptr);
    Probes probes;
    prof::HostProfiler::reset();
    prof::HostProfiler::set_enabled(true);
    PassResult traced = run_pass(w.cells, &probes);
    prof::HostProfiler::set_enabled(false);

    // Observer-only proof: the seams and the profiler change nothing.
    require_identical(traced, plain, w.cells, "traced run");
    if (first_plain) {
      require_identical(plain, *first_plain, w.cells, "repeated pass");
    } else if (!w.fuzz_scenarios.empty()) {
      check_against_run_scenario(plain, w.fuzz_scenarios);
    }
    note_failures(plain, r);
    note_failures(traced, r);

    PairTimes t;
    const double n = static_cast<double>(w.cells.size());
    const double events = static_cast<double>(traced.events);
    t.workload_next_ns = probes.stream.ns_per_call();
    t.trace_next_ns = probes.trace.ns_per_call();
    t.observer_ns = probes.observer.ns_per_call();
    std::vector<double> sweeps;
    for (std::size_t i = 0; i < kSweepsPerPass; ++i) {
      sweeps.push_back(setup_sweep(w.cells));
    }
    t.setup_ns_per_system = ratio(median(std::move(sweeps)) * 1e9, n);
    t.run_ns_per_event =
        ratio(plain.run_s * 1e9, static_cast<double>(plain.events));
    for (std::size_t i = 0; i < std::size(t.hostprof); ++i) {
      t.hostprof[i] = ratio(
          static_cast<double>(
              prof::HostProfiler::nanos(static_cast<prof::Phase>(i))),
          events);
    }
    t.trace_overhead = ratio(traced.run_s, plain.run_s);
    pairs.push_back(t);
    if (!first_plain) first_plain = std::move(plain);
    pair_s = seconds_since(pair_start);
  } while (seconds_since(t0) + pair_s <= seconds);

  r.metrics = layer_counts(*first_plain, w);
  const auto med = [&pairs](auto field) {
    std::vector<double> v;
    for (const PairTimes& t : pairs) v.push_back(field(t));
    return median(std::move(v));
  };
  r.metrics.push_back({"workload.next_ns",
                       med([](const PairTimes& t) { return t.workload_next_ns; }),
                       "ns"});
  r.metrics.push_back(
      {"trace.next_ns",
       med([](const PairTimes& t) { return t.trace_next_ns; }), "ns"});
  r.metrics.push_back(
      {"verify.observer_ns",
       med([](const PairTimes& t) { return t.observer_ns; }), "ns"});
  r.metrics.push_back(
      {"sim.setup_ns_per_system",
       med([](const PairTimes& t) { return t.setup_ns_per_system; }), "ns"});
  r.metrics.push_back(
      {"sim.run_ns_per_event",
       med([](const PairTimes& t) { return t.run_ns_per_event; }), "ns"});
  for (std::size_t i = 0; i < std::size(PairTimes{}.hostprof); ++i) {
    r.metrics.push_back(
        {std::string("hostprof.") +
             prof::phase_name(static_cast<prof::Phase>(i)) + "_ns_per_event",
         med([i](const PairTimes& t) { return t.hostprof[i]; }), "ns"});
  }
  r.metrics.push_back(
      {"trace_overhead",
       med([](const PairTimes& t) { return t.trace_overhead; }), "ratio"});
  return r;
}

std::string result_json(const RunReport& r) {
  std::string out = "{\"correct\": ";
  out += r.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    std::snprintf(buf, sizeof buf, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    out += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
