#pragma once
// Multi-program scenario mixes: rate-mode co-scheduling of N independent
// trace programs onto M machine cores.
//
// A mix assigns machine core c the program c % N; assignment round
// r = c / N picks which of the program's recorded cores that machine core
// replays (r % program_cores), so a 4-core trace co-scheduled onto a
// 16-core mesh cycles through its recorded cores and a single-program mix
// with machine cores == trace cores degenerates to exact per-core replay.
//
// Budgets are rate-mode: each core's instruction budget is its assigned
// trace core's recorded budget scaled by the program's weight, so a
// "hot tenant" (weight > 1) keeps issuing after its neighbours retire
// while everyone shares the same caches, directory, and NoC. Weights only
// stretch or shrink budgets — the op sequence each core draws is the
// recorded one, so runs stay bit-deterministic.
//
// A program whose recorded cores are each replayed by exactly one machine
// core (its machine-core count equals its trace-core count — always the
// case for one trace on its own core count) replays through
// workload::streaming_replay_factory: one shared cursor per system,
// demultiplexed into bounded per-core queues (trace_source.hpp), so each
// chunk is decoded once. Any other program gives each of its machine cores
// a private cursor (FilteredReplayStream over its own opener call — the
// same primitive a detached core of the shared path falls back to): one
// trace core then runs on several machine cores (or on none), which a
// shared cursor cannot serve. Weights never change which path a program
// takes: a core that drifts far ahead of its neighbours detaches from the
// shared cursor. Either way an M-core mix of multi-GB .cdt v2 traces
// replays in O(M x chunk) memory. A trace that fails
// mid-replay (a corrupt chunk) throws std::runtime_error out of
// CmpSystem::run with the reader's message; it is never replayed as the
// repeat-last tail.

#include <cstdint>
#include <string>
#include <vector>

#include "cdsim/sim/cmp_system.hpp"
#include "cdsim/workload/trace_source.hpp"

namespace cdsim::sim {

/// One program of a mix: an opener that yields a fresh streaming cursor
/// over the program's trace (called once per pass for a program on the
/// shared cursor, once per core per pass otherwise), plus a rate-mode
/// weight.
struct ProgramSpec {
  workload::TraceOpener open;
  std::string name = "prog";
  /// Relative instruction-budget multiplier. 1.0 replays the assigned
  /// trace core's recorded budget exactly; a hot tenant gets > 1.
  double weight = 1.0;
};

/// What one machine core runs.
struct MixAssignment {
  std::uint32_t program = 0;  ///< Index into the mix's program list.
  CoreId trace_core = 0;      ///< Recorded core it replays.
  std::uint64_t instructions = 1;  ///< Weighted budget (>= 1).
};

/// A planned mix: the stream factory plus the per-core schedule. The
/// factory is reusable across CmpSystem constructions (each call opens a
/// fresh cursor) and every derived quantity is deterministic.
struct MixPlan {
  workload::StreamFactory streams;
  std::vector<MixAssignment> assignment;  ///< Size = machine cores.
  std::vector<std::string> program_names;

  [[nodiscard]] std::vector<std::uint64_t> per_core_instructions() const;

  /// Stamps the machine config: num_cores = assignment size and the
  /// weighted per-core budgets.
  void apply(SystemConfig& cfg) const;
};

/// Plans a rate-mode co-schedule of `programs` onto `num_cores` machine
/// cores. Opens each program once (to read its core count and recorded
/// budgets — O(1) for .cdt v2, which carries them in the footer); throws
/// std::invalid_argument for an empty mix, a program whose opener fails,
/// or a non-positive weight.
MixPlan plan_mix(std::vector<ProgramSpec> programs, std::uint32_t num_cores);

}  // namespace cdsim::sim
