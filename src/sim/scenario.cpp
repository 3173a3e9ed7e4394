#include "cdsim/sim/scenario.hpp"

#include <memory>
#include <stdexcept>
#include <utility>

#include "cdsim/common/assert.hpp"

namespace cdsim::sim {

std::vector<std::uint64_t> MixPlan::per_core_instructions() const {
  std::vector<std::uint64_t> out;
  out.reserve(assignment.size());
  for (const MixAssignment& a : assignment) out.push_back(a.instructions);
  return out;
}

void MixPlan::apply(SystemConfig& cfg) const {
  CDSIM_ASSERT(!assignment.empty());
  cfg.num_cores = static_cast<std::uint32_t>(assignment.size());
  cfg.per_core_instructions = per_core_instructions();
}

MixPlan plan_mix(std::vector<ProgramSpec> programs,
                 std::uint32_t num_cores) {
  if (programs.empty()) {
    throw std::invalid_argument("plan_mix: a mix needs at least one program");
  }
  if (num_cores == 0) {
    throw std::invalid_argument("plan_mix: a mix needs at least one core");
  }

  // One planning pass per program: core count + recorded budgets. For
  // .cdt v2 these come from the footer, so no chunk is ever decoded here.
  struct ProgramShape {
    std::uint32_t cores = 0;
    std::vector<std::uint64_t> budget;
  };
  std::vector<ProgramShape> shapes;
  shapes.reserve(programs.size());
  for (std::size_t p = 0; p < programs.size(); ++p) {
    ProgramSpec& spec = programs[p];
    if (spec.open == nullptr) {
      throw std::invalid_argument("plan_mix: program \"" + spec.name +
                                  "\" has no opener");
    }
    if (!(spec.weight > 0.0)) {
      throw std::invalid_argument("plan_mix: program \"" + spec.name +
                                  "\" has non-positive weight");
    }
    workload::TraceSourcePtr src = spec.open();
    if (src == nullptr) {
      throw std::invalid_argument("plan_mix: program \"" + spec.name +
                                  "\" failed to open");
    }
    ProgramShape shape;
    shape.cores = src->num_cores();
    shape.budget = src->per_core_instructions();
    CDSIM_ASSERT(shape.cores > 0 && shape.budget.size() == shape.cores);
    shapes.push_back(std::move(shape));
  }

  MixPlan plan;
  plan.assignment.reserve(num_cores);
  const auto progs = static_cast<std::uint32_t>(programs.size());
  for (std::uint32_t c = 0; c < num_cores; ++c) {
    MixAssignment a;
    a.program = c % progs;
    const std::uint32_t round = c / progs;
    const ProgramShape& shape = shapes[a.program];
    a.trace_core = static_cast<CoreId>(round % shape.cores);
    // One multiply, truncating: deterministic across platforms, and a
    // weight of exactly 1.0 reproduces the recorded budget bit-for-bit.
    const double scaled = static_cast<double>(shape.budget[a.trace_core]) *
                          programs[a.program].weight;
    a.instructions = scaled < 1.0 ? 1 : static_cast<std::uint64_t>(scaled);
    plan.assignment.push_back(a);
  }
  for (const ProgramSpec& spec : programs) {
    plan.program_names.push_back(spec.name);
  }

  // A program whose trace cores are each replayed by exactly one machine
  // core (its machine-core count equals its trace-core count) replays
  // through one shared cursor per system: its machine cores are
  // p, p + N, p + 2N, ... replaying trace cores 0, 1, 2, ... in order,
  // which is the request order streaming_replay_factory expects.
  std::vector<std::uint32_t> machine_cores(programs.size(), 0);
  for (const MixAssignment& a : plan.assignment) ++machine_cores[a.program];
  std::vector<workload::StreamFactory> demuxed(programs.size());
  for (std::size_t p = 0; p < programs.size(); ++p) {
    if (machine_cores[p] == shapes[p].cores) {
      demuxed[p] = workload::streaming_replay_factory(programs[p].open);
    }
  }

  auto shared =
      std::make_shared<const std::vector<ProgramSpec>>(std::move(programs));
  auto assignment = plan.assignment;
  plan.streams = [shared, assignment = std::move(assignment),
                  demuxed = std::move(demuxed)](
                     CoreId core, std::uint64_t seed) -> workload::StreamPtr {
    CDSIM_ASSERT_MSG(core < assignment.size(),
                     "mix stream requested for an unplanned core");
    const MixAssignment& a = assignment[core];
    if (demuxed[a.program] != nullptr) {
      return demuxed[a.program](a.trace_core, seed);
    }
    workload::TraceSourcePtr src = (*shared)[a.program].open();
    CDSIM_ASSERT_MSG(src != nullptr, "mix program opener failed mid-run");
    CDSIM_ASSERT_MSG(a.trace_core < src->num_cores(),
                     "mix program shrank between planning and replay");
    return std::make_unique<workload::FilteredReplayStream>(std::move(src),
                                                            a.trace_core);
  };
  return plan;
}

}  // namespace cdsim::sim
