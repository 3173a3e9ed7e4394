#pragma once
// Reference-model oracle for differential verification.
//
// The simulator is a timing model: it moves no data bytes. What it *does*
// decide, exactly, is where each load's data would have come from — a local
// valid copy, a snooped owner's flush, or memory. DifferentialChecker
// exploits that: it tags every write with a fresh version number at its
// serialization point in bus order and threads versions through shadow
// copies of the same data movements the hierarchy performs (fills, flushes,
// write-backs, invalidations). In parallel it maintains a *flat* reference
// memory model — per-line, the version of the last write serialized on the
// bus, with none of the hierarchy's machinery.
//
// The invariant under test is the coherence value property: at any instant,
// every readable copy holds the version of the last serialized write. So at
// every load hit and every fill the checker compares the version the
// hierarchy actually hands the core against the flat model's answer. A
// turn-off that loses dirty data, a write-back that is wrongly cancelled, a
// flush routed from the wrong owner, an inclusion break — all keep the
// internal invariants of check_coherence_invariants() perfectly satisfied
// and all diverge here.
//
// Scope: line-granular, coherence-level value propagation. Program-order
// effects below the bus (a core reading its own write-buffered store early)
// are uniprocessor semantics the timing model does not represent and are
// not checked.

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "cdsim/common/addr_map.hpp"
#include "cdsim/verify/observer.hpp"

namespace cdsim::verify {

/// Monotone write-serialization tag. 0 = the initial memory content.
using Version = std::uint64_t;

/// One observed disagreement between the hierarchy and the flat model.
struct Divergence {
  CoreId core = 0;
  Addr line = 0;
  Cycle cycle = 0;
  Version observed = 0;  ///< Version the hierarchy handed the core.
  Version expected = 0;  ///< Flat-model version at the same instant.
  std::string context;   ///< Check site, e.g. "l1-hit", "fill-mem".
};

/// Human-readable one-liner for reports and test failure messages.
std::string to_string(const Divergence& d);

/// The oracle. Attach via CmpSystem::set_observer before run().
class DifferentialChecker final : public AccessObserver {
 public:
  /// @param max_recorded divergences kept with full detail (the count keeps
  ///        accumulating past this; a broken run can diverge millions of
  ///        times).
  explicit DifferentialChecker(std::uint32_t num_cores,
                               std::size_t max_recorded = 32);

  // --- AccessObserver -------------------------------------------------------
  void on_load_hit(CoreId core, Addr line, Cycle now, bool l1) override;
  void on_fill(CoreId core, Addr line, Cycle now, bool from_cache,
               bool for_write) override;
  void on_write_serialized(CoreId core, Addr line, Cycle now) override;
  void on_flush_supply(CoreId core, Addr line, Cycle now,
                       bool memory_update) override;
  void on_writeback_initiated(CoreId core, Addr line, Cycle now) override;
  // NOTE: no default for to_l3 here — defaults on virtuals bind statically
  // and a duplicated default could silently diverge from the base's.
  void on_writeback_resolved(CoreId core, Addr line, Cycle now,
                             bool cancelled, bool to_l3) override;
  void on_invalidate(CoreId core, Addr line, Cycle now) override;
  void on_l3_install(Addr line, Cycle now) override;
  void on_l3_writeback(Addr line, Cycle now) override;
  void on_l3_invalidate(Addr line, Cycle now) override;

  // --- results --------------------------------------------------------------
  [[nodiscard]] const std::vector<Divergence>& divergences() const noexcept {
    return recorded_;
  }
  [[nodiscard]] std::uint64_t total_divergences() const noexcept {
    return total_divergences_;
  }
  [[nodiscard]] std::uint64_t loads_checked() const noexcept {
    return loads_checked_;
  }
  [[nodiscard]] std::uint64_t fills_checked() const noexcept {
    return fills_checked_;
  }
  [[nodiscard]] std::uint64_t writes_serialized() const noexcept {
    return writes_serialized_;
  }

 private:
  void diverge(CoreId core, Addr line, Cycle now, Version observed,
               Version expected, const char* context);
  [[nodiscard]] Version mem_version(Addr line) const;
  [[nodiscard]] Version oracle_version(Addr line) const;

  std::uint32_t num_cores_ = 0;
  std::size_t max_recorded_ = 0;
  Version next_version_ = 0;

  /// Flat reference model: last bus-serialized write per line.
  AddrMap<Version> oracle_;
  /// Shadow of memory content (write-backs and memory-updating flushes).
  AddrMap<Version> mem_;
  /// Shadow of the shared L3 home banks (three-level hierarchy): lines the
  /// L3 currently holds, whether absorbed dirty from a write-back or
  /// installed clean from memory. A memory-side fill reads this shadow
  /// first — exactly the lookup order of the real fabric — which is how
  /// write-versions thread through all three levels.
  AddrMap<Version> l3_;
  /// Shadow of each L2 slice's valid copies.
  std::vector<AddrMap<Version>> copy_;
  /// Write-backs initiated but not yet resolved, FIFO per (core, line).
  /// Ordered map on the exact pair: write-backs are rare, and no key
  /// packing means no assumption about the address bit width (user traces
  /// may use full 64-bit addresses).
  std::map<std::pair<CoreId, Addr>, std::deque<Version>> pending_wb_;
  /// Flush within the currently-resolving bus grant (consumed by on_fill).
  bool flush_valid_ = false;
  Addr flush_line_ = 0;
  Version flush_version_ = 0;

  std::uint64_t loads_checked_ = 0;
  std::uint64_t fills_checked_ = 0;
  std::uint64_t writes_serialized_ = 0;
  std::uint64_t total_divergences_ = 0;
  std::vector<Divergence> recorded_;
};

}  // namespace cdsim::verify
