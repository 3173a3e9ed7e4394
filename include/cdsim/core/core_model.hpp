#pragma once
// Abstract out-of-order core model.
//
// The paper's platform simulates Alpha-21264-class OoO cores; for the
// leakage study the core's only relevant behaviours are (1) how fast it
// generates memory references and (2) how much of a miss's latency it can
// hide. This model captures exactly those:
//
//  * non-memory instructions retire `issue_width` per cycle;
//  * loads can overlap up to `max_outstanding_loads`, but a load marked
//    `dependent` must wait for the previous load (pointer chasing);
//  * the reorder window limits run-ahead: the core stalls when the oldest
//    outstanding load is more than `rob_window` instructions behind;
//  * stores retire through the L1 write buffer and only stall the core
//    when the buffer is full.
//
// IPC falls out of (instruction budget) / (finish cycle); every load's
// issue-to-data latency feeds the AMAT histogram.

#include <cstdint>
#include <functional>
#include <vector>

#include "cdsim/common/event_queue.hpp"
#include "cdsim/common/small_fn.hpp"
#include "cdsim/common/stats.hpp"
#include "cdsim/common/types.hpp"
#include "cdsim/obs/trace_recorder.hpp"
#include "cdsim/workload/stream.hpp"

namespace cdsim::core {

/// Load-completion callback handed down the cache hierarchy. The same
/// SmallFn instantiation as cache::FillCallback, so an L1 can merge it
/// into an MSHR waiter list without re-wrapping (and without allocating:
/// the core's capture list fits the 72-byte inline buffer).
using LoadCallback = SmallFn<void(Cycle), 72>;

/// Resources-freed waiter the core registers with its port. Fired on every
/// load completion and write-buffer drain (the simulator's hottest wakeup
/// path), so it is a SmallFn: the core's `this` capture lives inline.
using FreedCallback = SmallFn<void(), 16>;

/// Result of offering a load to the cache.
struct LoadOutcome {
  bool accepted = false;
  /// Synchronous completion (L1 hit): data available after `latency`
  /// cycles; the callback will NOT be invoked. Hits resolve synchronously
  /// so the simulator spends events only on misses.
  bool completed = false;
  Cycle latency = 0;
};

/// Interface the core uses to talk to its L1 data cache.
class LoadStorePort {
 public:
  virtual ~LoadStorePort() = default;

  /// Issues a load. Not accepted when the cache cannot take it (MSHR
  /// full); the port must invoke the resources-freed callback later.
  /// On asynchronous acceptance, `on_done` fires when the data is
  /// available; on synchronous completion it never fires.
  virtual LoadOutcome try_load(Addr addr, LoadCallback on_done) = 0;

  /// Issues a store (write-through). Returns false when the write buffer
  /// is full; the port must invoke the resources-freed callback later.
  virtual bool try_store(Addr addr) = 0;

  /// Registers the single waiter notified when a previously-full resource
  /// (MSHR or write buffer) frees up.
  virtual void set_resources_freed(FreedCallback cb) = 0;
};

struct CoreConfig {
  std::uint32_t issue_width = 4;            ///< Non-mem instructions/cycle.
  /// Load-queue entries: outstanding loads the core tracks. Distinct-line
  /// concurrency is limited by the L1 MSHR file, not this value; the ROB
  /// window limits run-ahead. Several loads of one missing line (a line
  /// burst) merge into one MSHR but each holds a load-queue slot.
  std::uint32_t max_outstanding_loads = 48;
  std::uint32_t rob_window = 512;           ///< Instructions of run-ahead.
};

/// One simulated core executing a workload stream against a memory port.
class CoreModel {
 public:
  CoreModel(EventQueue& eq, const CoreConfig& cfg, CoreId id,
            workload::WorkloadStream& stream, LoadStorePort& port,
            std::uint64_t instr_budget);

  /// Begins execution at the current queue time. `on_finished` fires once
  /// the instruction budget is committed.
  void start(std::function<void()> on_finished = {});

  [[nodiscard]] bool done() const noexcept { return done_; }
  [[nodiscard]] Cycle finish_cycle() const noexcept { return finish_; }
  [[nodiscard]] std::uint64_t committed() const noexcept { return committed_; }
  [[nodiscard]] CoreId id() const noexcept { return id_; }

  /// Committed instructions / elapsed cycles (to `now` or finish).
  [[nodiscard]] double ipc(Cycle now) const;

  /// Issue-to-data latency of every load, in cycles (AMAT numerator).
  [[nodiscard]] const Histogram& load_latency() const noexcept {
    return load_lat_;
  }
  [[nodiscard]] std::uint64_t loads_issued() const noexcept {
    return loads_.value();
  }
  [[nodiscard]] std::uint64_t stores_issued() const noexcept {
    return stores_.value();
  }
  /// Cycles spent unable to issue (all stall reasons).
  [[nodiscard]] std::uint64_t stall_cycles() const noexcept {
    return stall_cycles_.value();
  }
  /// Stall-cycle attribution (reason recorded at park time).
  enum class StallReason : std::uint8_t { kDep, kLoadQueue, kRob, kPort, kStore, kCount };
  [[nodiscard]] std::uint64_t stall_breakdown(StallReason r) const noexcept {
    return stall_by_[static_cast<std::size_t>(r)].value();
  }

  /// Attaches the timeline recorder (observer-only; nullptr detaches).
  /// Emits one span per stall interval, named by its StallReason, on
  /// `track`.
  void set_trace(obs::TraceRecorder* rec, obs::TrackId track) noexcept {
    trace_ = rec;
    trace_track_ = track;
  }

 private:
  struct OutstandingLoad {
    std::uint64_t instr_no = 0;  ///< Position in program order.
    Cycle issued_at = 0;
    bool completed = false;
  };

  void advance();          ///< Fetches/paces the next operation.
  void try_issue();        ///< Attempts to issue the pending operation.
  void park(StallReason r); ///< Records a stall; resumed by wake().
  void wake();             ///< Re-attempts issue after a resource freed.
  void on_load_done(std::uint64_t pos, std::uint64_t seq, std::uint8_t chain,
                    Cycle done);
  void finish();

  [[nodiscard]] bool rob_blocked() const;

  [[nodiscard]] OutstandingLoad& load_at(std::uint64_t pos) {
    return outstanding_[pos & (outstanding_.size() - 1)];
  }
  void push_load(const OutstandingLoad& l);

  EventQueue& eq_;
  CoreConfig cfg_;
  CoreId id_ = 0;
  workload::WorkloadStream& stream_;
  LoadStorePort& port_;
  std::uint64_t budget_ = 0;

  std::uint64_t committed_ = 0;
  bool have_op_ = false;
  workload::MemOp op_{};
  double gap_carry_ = 0.0;
  /// Integer pacing fast path, used when issue_width is a power of two
  /// (every config in the tree): the carry is kept exactly, in units of
  /// 1/issue_width cycles. Bit-identical to the double accumulation —
  /// division by a power of two is exact in binary floating point — while
  /// skipping the per-op int<->double round trips.
  bool pow2_width_ = false;
  std::uint32_t gap_shift_ = 0;
  std::uint64_t gap_rem_ = 0;

  // Outstanding loads in program order, as a power-of-two ring indexed by
  // load position: entry `pos` lives at outstanding_[pos & (size - 1)] for
  // pos in [load_head_, load_tail_). Completed entries stay until they are
  // the oldest, mirroring ROB retirement. A completion callback names its
  // entry by position, which survives the ring's growth (doubling, on
  // demand only: most cores never need more than a few dozen entries).
  std::vector<OutstandingLoad> outstanding_;
  std::uint64_t load_head_ = 0;
  std::uint64_t load_tail_ = 0;
  std::uint64_t outstanding_count_ = 0;
  std::uint64_t next_load_seq_ = 1;
  /// Per-dependence-chain tracking: sequence id and in-flight flag of the
  /// newest load on each chain (see workload::MemOp::chain).
  std::uint64_t chain_last_seq_[workload::kMaxChains] = {};
  bool chain_outstanding_[workload::kMaxChains] = {};

  bool parked_ = false;
  Cycle parked_since_ = 0;
  bool done_ = false;
  Cycle finish_ = 0;
  std::function<void()> on_finished_;
  /// Direct-call depth for the zero-delay advance fast path.
  std::uint32_t chain_depth_ = 0;

  Counter loads_, stores_, stall_cycles_;
  Counter stall_by_[static_cast<std::size_t>(StallReason::kCount)];
  StallReason park_reason_ = StallReason::kDep;
  obs::TraceRecorder* trace_ = nullptr;
  obs::TrackId trace_track_ = 0;
  Histogram load_lat_{4, 256};  ///< 4-cycle buckets up to ~1K cycles.
};

}  // namespace cdsim::core
