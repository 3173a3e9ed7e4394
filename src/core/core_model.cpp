#include "cdsim/core/core_model.hpp"

#include <bit>

#include "cdsim/common/assert.hpp"

namespace cdsim::core {
namespace {

constexpr const char* stall_name(CoreModel::StallReason r) noexcept {
  switch (r) {
    case CoreModel::StallReason::kDep: return "stall.dep";
    case CoreModel::StallReason::kLoadQueue: return "stall.loadq";
    case CoreModel::StallReason::kRob: return "stall.rob";
    case CoreModel::StallReason::kPort: return "stall.mshr";
    case CoreModel::StallReason::kStore: return "stall.store";
    case CoreModel::StallReason::kCount: break;
  }
  return "stall";
}

}  // namespace

CoreModel::CoreModel(EventQueue& eq, const CoreConfig& cfg, CoreId id,
                     workload::WorkloadStream& stream, LoadStorePort& port,
                     std::uint64_t instr_budget)
    : eq_(eq),
      cfg_(cfg),
      id_(id),
      stream_(stream),
      port_(port),
      budget_(instr_budget) {
  CDSIM_ASSERT(cfg_.issue_width >= 1);
  CDSIM_ASSERT(cfg_.max_outstanding_loads >= 1);
  CDSIM_ASSERT(instr_budget >= 1);
  pow2_width_ = std::has_single_bit(cfg_.issue_width);
  gap_shift_ = static_cast<std::uint32_t>(std::countr_zero(cfg_.issue_width));
  port_.set_resources_freed([this] { wake(); });
}

void CoreModel::start(std::function<void()> on_finished) {
  on_finished_ = std::move(on_finished);
  advance();
}

double CoreModel::ipc(Cycle now) const {
  const Cycle end = done_ ? finish_ : now;
  return safe_div(static_cast<double>(committed_),
                  static_cast<double>(end == 0 ? 1 : end));
}

void CoreModel::advance() {
  if (done_) return;
  if (committed_ >= budget_) {
    // Budget committed; drain outstanding loads before declaring finish so
    // the last misses' latencies are fully accounted.
    if (outstanding_count_ == 0) finish();
    return;
  }
  CDSIM_ASSERT(!have_op_);
  op_ = stream_.next(eq_.now());
  have_op_ = true;

  // The gap's non-memory instructions retire at issue_width per cycle;
  // carry fractional cycles so pacing is exact in the long run. For
  // power-of-two widths the carry lives in integer 1/width units (exactly
  // the value the double path would hold — /2^k is exact in binary FP).
  committed_ += op_.gap;
  Cycle delay;
  if (pow2_width_) {
    gap_rem_ += op_.gap;
    delay = gap_rem_ >> gap_shift_;
    gap_rem_ &= (std::uint64_t{1} << gap_shift_) - 1;
  } else {
    gap_carry_ +=
        static_cast<double>(op_.gap) / static_cast<double>(cfg_.issue_width);
    delay = static_cast<Cycle>(gap_carry_);
    gap_carry_ -= static_cast<double>(delay);
  }

  // Zero-delay ops issue in the same cycle; calling directly (with a depth
  // guard) avoids an event per operation on the hot path.
  if (delay == 0 && chain_depth_ < 64) {
    ++chain_depth_;
    try_issue();
    --chain_depth_;
    return;
  }
  eq_.schedule_in(delay, [this] { try_issue(); });
}

void CoreModel::push_load(const OutstandingLoad& l) {
  if (load_tail_ - load_head_ == outstanding_.size()) {
    // Full (or never used): double, re-placing each live entry by its
    // position under the wider mask.
    std::vector<OutstandingLoad> bigger(
        outstanding_.empty() ? 8 : outstanding_.size() * 2);
    for (std::uint64_t p = load_head_; p != load_tail_; ++p) {
      bigger[p & (bigger.size() - 1)] = load_at(p);
    }
    outstanding_ = std::move(bigger);
  }
  load_at(load_tail_++) = l;
}

bool CoreModel::rob_blocked() const {
  if (load_head_ == load_tail_) return false;
  // Oldest incomplete load bounds the window (completed fronts were
  // retired in try_issue before this check).
  const OutstandingLoad& oldest =
      outstanding_[load_head_ & (outstanding_.size() - 1)];
  return committed_ > oldest.instr_no &&
         committed_ - oldest.instr_no > cfg_.rob_window;
}

void CoreModel::try_issue() {
  if (done_) return;
  CDSIM_ASSERT(have_op_);

  // Retire completed loads in program order (ROB head drains).
  while (load_head_ != load_tail_ && load_at(load_head_).completed) {
    ++load_head_;
  }

  const bool is_load = op_.type != AccessType::kStore;
  const std::uint8_t chain = op_.chain % workload::kMaxChains;
  if (is_load) {
    if (op_.dependent && chain_outstanding_[chain]) {
      park(StallReason::kDep);  // woken by that chain's load completion
      return;
    }
    if (outstanding_count_ >= cfg_.max_outstanding_loads) {
      park(StallReason::kLoadQueue);  // woken by any load completion
      return;
    }
    if (rob_blocked()) {
      park(StallReason::kRob);
      return;
    }
    const std::uint64_t pos = load_tail_;
    push_load(OutstandingLoad{committed_, eq_.now(), /*completed=*/false});
    const std::uint64_t seq = next_load_seq_++;
    const core::LoadOutcome out =
        port_.try_load(op_.addr, [this, pos, seq, chain](Cycle t) {
          on_load_done(pos, seq, chain, t);
        });
    if (!out.accepted) {
      --load_tail_;
      park(StallReason::kPort);  // woken by the resources-freed callback
      return;
    }
    loads_.inc();
    if (out.completed) {
      // Synchronous hit: a few cycles of latency, fully hidden by the
      // out-of-order window. No outstanding tracking needed.
      --load_tail_;
      load_lat_.add(out.latency);
    } else {
      ++outstanding_count_;
      chain_last_seq_[chain] = seq;
      chain_outstanding_[chain] = true;
    }
  } else {
    if (!port_.try_store(op_.addr)) {
      park(StallReason::kStore);  // woken when the write buffer drains
      return;
    }
    stores_.inc();
  }

  ++committed_;
  have_op_ = false;
  advance();
}

void CoreModel::on_load_done(std::uint64_t pos, std::uint64_t seq,
                             std::uint8_t chain, Cycle done) {
  OutstandingLoad& slot = load_at(pos);
  slot.completed = true;
  --outstanding_count_;
  load_lat_.add(done >= slot.issued_at ? done - slot.issued_at : 0);
  if (seq == chain_last_seq_[chain]) chain_outstanding_[chain] = false;
  if (done_) return;
  if (committed_ >= budget_ && !have_op_ && outstanding_count_ == 0) {
    finish();
    return;
  }
  wake();
}

void CoreModel::park(StallReason r) {
  if (parked_) return;
  parked_ = true;
  park_reason_ = r;
  parked_since_ = eq_.now();
}

void CoreModel::wake() {
  if (done_) return;
  if (parked_) {
    parked_ = false;
    const Cycle stalled = eq_.now() - parked_since_;
    stall_cycles_.inc(stalled);
    stall_by_[static_cast<std::size_t>(park_reason_)].inc(stalled);
    if (trace_ != nullptr && stalled > 0) {
      trace_->span(trace_track_, stall_name(park_reason_), parked_since_,
                   eq_.now());
    }
    try_issue();
  }
}

void CoreModel::finish() {
  CDSIM_ASSERT(!done_);
  done_ = true;
  finish_ = eq_.now();
  if (parked_) {
    parked_ = false;
    stall_cycles_.inc(eq_.now() - parked_since_);
    if (trace_ != nullptr && eq_.now() > parked_since_) {
      trace_->span(trace_track_, stall_name(park_reason_), parked_since_,
                   eq_.now());
    }
  }
  if (trace_ != nullptr) trace_->instant(trace_track_, "finish", eq_.now());
  if (on_finished_) on_finished_();
}

}  // namespace cdsim::core
