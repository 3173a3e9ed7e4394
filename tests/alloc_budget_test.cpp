// Heap-allocation budget of the simulation loop.
//
// The hot path (decay-miss attribution, the directory, the DRAM scheduler,
// the TLB port, the flat channel ledger, the core's load queue, the L2's
// turn-off tokens) is meant to make no heap allocation per simulated
// operation once its pools and tables have grown to their high-water
// marks. This test
// replaces the global operator new for its own binary, counts the calls
// made while CmpSystem::run() executes, and bounds them per 1000 executed
// events on the two machines that stress those structures: the paper's
// §V bus machine and a 16-core directory mesh with a three-level decay
// hierarchy, banked DRAM and TLBs.
//
// The counts include warm-up growth (event pool, rings, tables), so the
// bounds sit well above the steady-state rate but far below what one
// allocation per event-level operation would cost.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "cdsim/sim/cmp_system.hpp"
#include "cdsim/sim/experiment.hpp"
#include "cdsim/workload/benchmarks.hpp"

namespace {

bool g_counting = false;
std::uint64_t g_news = 0;

void* counted_alloc(std::size_t n) {
  if (g_counting) ++g_news;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t al) {
  if (g_counting) ++g_news;
  const auto a = static_cast<std::size_t>(al);
  const std::size_t rounded = (n + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  return counted_aligned_alloc(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return counted_aligned_alloc(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace cdsim {
namespace {

struct Budget {
  std::uint64_t news = 0;
  std::uint64_t events = 0;
  [[nodiscard]] double per_1000_events() const {
    return 1000.0 * static_cast<double>(news) / static_cast<double>(events);
  }
};

Budget count_run(const sim::SystemConfig& cfg,
                 const workload::Benchmark& bench) {
  sim::CmpSystem sys(sim::normalized_run_config(cfg, bench), bench);
  g_news = 0;
  g_counting = true;
  const sim::RunMetrics m = sys.run();
  g_counting = false;
  Budget b{g_news, sys.events().executed()};
  EXPECT_GT(m.cycles, 0u);
  EXPECT_GT(b.events, 0u);
  std::printf("[alloc] %llu operator new calls over %llu events = %.1f per "
              "1000 events\n",
              static_cast<unsigned long long>(b.news),
              static_cast<unsigned long long>(b.events), b.per_1000_events());
  return b;
}

TEST(AllocBudget, CounterSeesAllocations) {
  g_news = 0;
  g_counting = true;
  auto* p = new std::uint64_t[4];
  g_counting = false;
  delete[] p;
  EXPECT_EQ(g_news, 1u);
}

TEST(AllocBudget, PaperBusMachineRun) {
  // §V machine: 4 cores on the MESI snoop bus, 8 MB L2, decay64K, flat
  // memory.
  const workload::Benchmark& bench = workload::benchmark_by_name("mpeg2enc");
  sim::SystemConfig cfg = sim::make_system_config(
      8 * MiB, decay::DecayConfig{decay::Technique::kDecay, 64 * 1024, 4});
  cfg.instructions_per_core = 200'000;
  const Budget b = count_run(cfg, bench);
  EXPECT_LE(b.per_1000_events(), 40.0);
}

TEST(AllocBudget, Mesh16ThreeLevelDramRun) {
  const workload::Benchmark& bench = workload::benchmark_by_name("FMM");
  const decay::DecayConfig tech{decay::Technique::kDecay, 64 * 1024, 4};
  sim::SystemConfig cfg = sim::make_system_config(16 * MiB, tech);
  cfg.num_cores = 16;
  cfg.topology = noc::Topology::kDirectoryMesh;
  cfg.hierarchy = sim::Hierarchy::kThreeLevel;
  cfg.total_l3_bytes = 4 * cfg.total_l2_bytes;
  cfg.l1_decay = tech;
  cfg.l3_decay = tech;
  cfg.mem.model = mem::MemoryModel::kDram;
  cfg.mem.tlb.enabled = true;
  cfg.instructions_per_core = 50'000;
  const Budget b = count_run(cfg, bench);
  EXPECT_LE(b.per_1000_events(), 20.0);
}

}  // namespace
}  // namespace cdsim
