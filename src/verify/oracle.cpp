#include "cdsim/verify/oracle.hpp"

#include <sstream>

#include "cdsim/common/assert.hpp"
#include "cdsim/common/host_timer.hpp"

namespace cdsim::verify {

std::string to_string(const Divergence& d) {
  std::ostringstream os;
  os << "core " << d.core << " line 0x" << std::hex << d.line << std::dec
     << " @cycle " << d.cycle << " [" << d.context << "]: observed v"
     << d.observed << ", reference model says v" << d.expected;
  return os.str();
}

DifferentialChecker::DifferentialChecker(std::uint32_t num_cores,
                                         std::size_t max_recorded)
    : num_cores_(num_cores), max_recorded_(max_recorded), copy_(num_cores) {
  CDSIM_ASSERT(num_cores >= 1);
}

Version DifferentialChecker::mem_version(Addr line) const {
  const Version* v = mem_.find(line);
  return v == nullptr ? 0 : *v;
}

Version DifferentialChecker::oracle_version(Addr line) const {
  const Version* v = oracle_.find(line);
  return v == nullptr ? 0 : *v;
}

void DifferentialChecker::diverge(CoreId core, Addr line, Cycle now,
                                  Version observed, Version expected,
                                  const char* context) {
  ++total_divergences_;
  if (recorded_.size() < max_recorded_) {
    recorded_.push_back(Divergence{core, line, now, observed, expected,
                                   std::string(context)});
  }
}

void DifferentialChecker::on_load_hit(CoreId core, Addr line, Cycle now,
                                      bool l1) {
  const prof::ScopedPhase prof_scope(prof::Phase::kOracle);
  CDSIM_ASSERT(core < num_cores_);
  ++loads_checked_;
  const Version* have = copy_[core].find(line);
  if (have == nullptr) {
    // A hit on a copy the shadow never saw installed: the hierarchy is
    // reading data whose provenance the protocol cannot explain.
    diverge(core, line, now, /*observed=*/0, oracle_version(line),
            l1 ? "l1-hit-untracked" : "l2-hit-untracked");
    return;
  }
  const Version expected = oracle_version(line);
  if (*have != expected) {
    diverge(core, line, now, *have, expected, l1 ? "l1-hit" : "l2-hit");
  }
}

void DifferentialChecker::on_fill(CoreId core, Addr line, Cycle now,
                                  bool from_cache, bool for_write) {
  const prof::ScopedPhase prof_scope(prof::Phase::kOracle);
  CDSIM_ASSERT(core < num_cores_);
  ++fills_checked_;
  Version v;
  bool from_l3 = false;
  if (from_cache) {
    // The supplying owner's flush ran during this grant's address phase,
    // strictly before this install.
    if (!flush_valid_ || flush_line_ != line) {
      diverge(core, line, now, /*observed=*/0, oracle_version(line),
              "fill-no-flush");
      v = mem_version(line);
    } else {
      v = flush_version_;
    }
    flush_valid_ = false;
  } else {
    // Memory-side fill: the shared L3 home bank is looked up before the
    // channel — the shadow mirrors the fabric's lookup order exactly.
    const Version* l3 = l3_.find(line);
    from_l3 = l3 != nullptr;
    v = from_l3 ? *l3 : mem_version(line);
  }
  const Version expected = oracle_version(line);
  if (v != expected) {
    diverge(core, line, now, v, expected,
            from_cache ? (for_write ? "fill-c2c-write" : "fill-c2c")
            : from_l3  ? (for_write ? "fill-l3-write" : "fill-l3")
                       : (for_write ? "fill-mem-write" : "fill-mem"));
  }
  copy_[core][line] = v;
}

void DifferentialChecker::on_write_serialized(CoreId core, Addr line,
                                              Cycle /*now*/) {
  const prof::ScopedPhase prof_scope(prof::Phase::kOracle);
  CDSIM_ASSERT(core < num_cores_);
  ++writes_serialized_;
  const Version v = ++next_version_;
  oracle_[line] = v;
  copy_[core][line] = v;
}

void DifferentialChecker::on_flush_supply(CoreId core, Addr line,
                                          Cycle now, bool memory_update) {
  const prof::ScopedPhase prof_scope(prof::Phase::kOracle);
  CDSIM_ASSERT(core < num_cores_);
  const Version* have = copy_[core].find(line);
  Version v = 0;
  if (have == nullptr) {
    diverge(core, line, now, /*observed=*/0, oracle_version(line),
            "flush-untracked");
  } else {
    v = *have;
  }
  flush_valid_ = true;
  flush_line_ = line;
  flush_version_ = v;
  if (memory_update) mem_[line] = v;
}

void DifferentialChecker::on_writeback_initiated(CoreId core, Addr line,
                                                 Cycle now) {
  const prof::ScopedPhase prof_scope(prof::Phase::kOracle);
  CDSIM_ASSERT(core < num_cores_);
  const Version* have = copy_[core].find(line);
  Version v = 0;
  if (have == nullptr) {
    diverge(core, line, now, /*observed=*/0, oracle_version(line),
            "writeback-untracked");
  } else {
    v = *have;
  }
  pending_wb_[{core, line}].push_back(v);
}

void DifferentialChecker::on_writeback_resolved(CoreId core, Addr line,
                                                Cycle now, bool cancelled,
                                                bool to_l3) {
  const prof::ScopedPhase prof_scope(prof::Phase::kOracle);
  CDSIM_ASSERT(core < num_cores_);
  const auto it = pending_wb_.find({core, line});
  if (it == pending_wb_.end() || it->second.empty()) {
    diverge(core, line, now, /*observed=*/0, mem_version(line),
            "writeback-unmatched");
    return;
  }
  const Version v = it->second.front();
  it->second.pop_front();
  if (it->second.empty()) pending_wb_.erase(it);
  // A cancelled write-back means the data already reached memory through a
  // snoop flush; applying it would be wrong only if versions moved on, and
  // dropping it mirrors exactly what the bus did. An accepted one lands in
  // the shared L3 home bank (three-level) or memory (two-level).
  if (cancelled) return;
  if (to_l3) {
    l3_[line] = v;
  } else {
    mem_[line] = v;
  }
}

void DifferentialChecker::on_invalidate(CoreId core, Addr line,
                                        Cycle /*now*/) {
  CDSIM_ASSERT(core < num_cores_);
  copy_[core].erase(line);
}

void DifferentialChecker::on_l3_install(Addr line, Cycle /*now*/) {
  // Clean copy of what the channel just delivered.
  l3_[line] = mem_version(line);
}

void DifferentialChecker::on_l3_writeback(Addr line, Cycle now) {
  const Version* held = l3_.find(line);
  if (held == nullptr) {
    // The bank claims to push dirty data it never held.
    diverge(kNoCore, line, now, /*observed=*/0, mem_version(line),
            "l3-writeback-untracked");
    return;
  }
  mem_[line] = *held;
}

void DifferentialChecker::on_l3_invalidate(Addr line, Cycle /*now*/) {
  l3_.erase(line);
}

}  // namespace cdsim::verify
