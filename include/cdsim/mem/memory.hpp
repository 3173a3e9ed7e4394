#pragma once
// Main-memory models behind the bus / memory-channel seam.
//
// Two models share one facade (MemoryController), selected by
// MemoryConfig.model:
//
//   * kFlat — the historical fixed-latency, bandwidth-limited channel. The
//     external bus is where the paper's Figure 4(a) metric lives: decay
//     refetches and turn-off write-backs all cross it, so the controller
//     counts every byte in each direction. Flat-mode timing is bit-exact
//     with the pre-DRAM simulator (all golden pins hold).
//   * kDram — channels -> ranks -> banks with per-bank open-row state,
//     row-buffer hit/miss/conflict timing (tCAS / tRCD+tCAS /
//     tRP+tRCD+tCAS), an FR-FCFS scheduler over a bounded per-channel
//     request queue, and a periodic (lazily applied) refresh. Requests
//     complete through callbacks at their true service time.
//
// Oracle threading (kDram): the differential checker's memory shadow is
// updated at write-back *grant* time, before the DRAM write is serviced. A
// read arriving while an older write to the same line is still queued is
// therefore served from the queue (write forwarding) instead of the bank —
// a younger read can never bypass an older queued write and observe the
// pre-write version. See DESIGN.md §9.

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "cdsim/common/assert.hpp"
#include "cdsim/common/event_queue.hpp"
#include "cdsim/common/ring.hpp"
#include "cdsim/common/small_fn.hpp"
#include "cdsim/common/stats.hpp"
#include "cdsim/common/types.hpp"
#include "cdsim/obs/trace_recorder.hpp"

namespace cdsim::mem {

/// Which memory model serves the channel (MemoryConfig.model).
enum class MemoryModel : std::uint8_t {
  kFlat,  ///< Fixed latency + bandwidth-limited channel (the paper's sink).
  kDram,  ///< Banked DRAM with row-buffer timing and FR-FCFS scheduling.
};

constexpr std::string_view to_string(MemoryModel m) noexcept {
  return m == MemoryModel::kFlat ? "flat" : "dram";
}

/// DRAM geometry and timing (kDram only). Timings are in *core* cycles; the
/// defaults approximate DDR-class parts behind a ~3.5 GHz core (one DRAM
/// clock ~ 9 core cycles, tRCD/tRP/tCAS ~ 13-14 DRAM clocks).
struct DramConfig {
  std::uint32_t channels = 2;
  std::uint32_t ranks_per_channel = 2;
  std::uint32_t banks_per_rank = 8;
  /// Row-buffer size per bank; consecutive interleave units of one channel
  /// stay in one row, so streaming traffic earns row hits.
  std::uint32_t row_bytes = 2048;
  /// Channel-interleave granularity (one cache line by default).
  std::uint32_t interleave_bytes = 64;
  /// Bounded FR-FCFS scheduling window per channel; arrivals beyond it
  /// wait in a FIFO spill and are not visible to the scheduler yet.
  std::uint32_t queue_depth = 16;
  /// A row-hit may bypass the oldest request at most this many times
  /// before oldest-first is forced (FR-FCFS starvation cap).
  std::uint32_t starvation_limit = 4;
  Cycle t_rcd = 40;  ///< Activate (row open) to column command.
  Cycle t_rp = 40;   ///< Precharge (row close) latency.
  Cycle t_cas = 35;  ///< Column access to first data beat.
  /// Refresh interval (tREFI): one refresh per channel every t_refi
  /// cycles, applied lazily (no events while idle). 0 disables refresh.
  Cycle t_refi = 27300;
  /// Refresh cycle time (tRFC): every bank of the channel is unavailable
  /// this long per refresh, and all open rows close.
  Cycle t_rfc = 1225;
};

/// Per-core TLB in front of the hierarchy (page granularity, fixed
/// miss-walk latency). Disabled by default: the flat golden pins predate
/// address translation.
struct TlbConfig {
  bool enabled = false;
  std::uint32_t entries = 64;
  std::uint32_t page_bytes = 4096;
  Cycle miss_walk_latency = 60;
};

struct MemoryConfig {
  MemoryModel model = MemoryModel::kFlat;
  /// kFlat: core cycles from channel issue to first data beat (row
  /// activation, controller queuing not included — queuing is modeled
  /// explicitly).
  Cycle read_latency = 130;
  /// Channel bandwidth in bytes per core cycle (both directions share it).
  std::uint32_t bytes_per_cycle = 16;
  /// Writes are posted: the issuer never waits for them, but they occupy
  /// channel bandwidth and are counted as traffic. When false, write-back
  /// completions wait for the memory write to finish.
  bool posted_writes = true;
  DramConfig dram;  ///< kDram only.
  TlbConfig tlb;    ///< Per-core TLBs (CmpSystem interposes them).
};

/// kDram service counters (all zero under kFlat).
struct DramStats {
  std::uint64_t row_hits = 0;       ///< Open-row column accesses (tCAS).
  std::uint64_t row_misses = 0;     ///< Closed-bank activates (tRCD+tCAS).
  std::uint64_t row_conflicts = 0;  ///< Open-row replacements (tRP+tRCD+tCAS).
  std::uint64_t activates = 0;
  std::uint64_t precharges = 0;
  std::uint64_t refreshes = 0;
  std::uint64_t write_forwards = 0;  ///< Reads served from a queued write.
};

/// Completion callback for model-agnostic requests; invoked with the cycle
/// the data is fully available. Inline budget fits the bus's DRAM-fill
/// continuation (an on_done SmallFn plus a BusResult).
using MemCallback = SmallFn<void(Cycle), 96>;

/// The banked-DRAM engine (MemoryConfig.model == kDram). Owns per-channel
/// FR-FCFS queues, per-bank open-row state, and the lazy refresh clock;
/// requests are issued with read()/write() and complete via MemCallback at
/// their true service cycle. Channels serialize one command at a time
/// (bank-level overlap is folded into the per-request access latency — a
/// documented simplification, see DESIGN.md §9).
class DramController {
 public:
  DramController(EventQueue& eq, const MemoryConfig& cfg);

  DramController(const DramController&) = delete;
  DramController& operator=(const DramController&) = delete;

  /// Enqueues a read of `bytes` at `line`, arriving at `start` (>= now).
  /// `cb` fires at the service completion cycle. A queued older write to
  /// the same line serves the read directly (write forwarding).
  void read(Cycle start, std::uint32_t bytes, Addr line, MemCallback cb);

  /// Enqueues a write. `cb` (optional) fires when the write is serviced —
  /// the non-posted completion the issuer can wait on.
  void write(Cycle start, std::uint32_t bytes, Addr line, MemCallback cb);

  [[nodiscard]] const DramStats& stats() const noexcept { return stats_; }

  /// Attaches the timeline recorder (observer-only; nullptr detaches).
  /// Registers one track per channel (refresh catch-ups, write forwarding)
  /// and one per bank (access spans named rd/wr × hit/miss/conflict).
  void set_trace(obs::TraceRecorder* rec);

  /// Where a line lives: its channel, its bank within the channel, and
  /// the row within the bank (see decode()).
  struct Decoded {
    std::uint32_t channel = 0;
    std::uint32_t bank = 0;
    std::uint64_t row = 0;
  };

  /// Decodes `line` as the controller does on arrival (test hook: the
  /// scheduler only ever sees the Decoded stored with each request).
  [[nodiscard]] Decoded decode(Addr line) const noexcept;

 private:
  struct Request {
    Addr line = 0;
    std::uint32_t bytes = 0;
    bool is_write = false;
    std::uint32_t bypassed = 0;  ///< FR-FCFS bypass count (oldest only).
    Decoded where;               ///< decode(line), filled in by arrive().
    MemCallback cb;
  };
  struct Bank {
    std::int64_t open_row = -1;  ///< -1: precharged (no open row).
    Cycle ready = 0;             ///< Bank busy until here (incl. refresh).
  };
  struct Channel {
    /// The scheduler's bounded window (<= queue_depth, in arrival order).
    std::vector<Request> queue;
    FifoRing<Request> spill;  ///< FIFO overflow beyond queue_depth.
    std::vector<Bank> banks;
    /// Completion callback of the command in service: kept here so the
    /// completion event captures only (this, channel, cycle) and stays
    /// inside the EventQueue's inline callback budget.
    MemCallback in_service;
    Cycle data_free = 0;  ///< Channel data bus busy until here.
    bool busy = false;    ///< A command is in service.
    std::uint64_t refreshes_applied = 0;
  };

  [[nodiscard]] Cycle transfer_cycles(std::uint32_t bytes) const noexcept;
  std::uint32_t park(Request req);
  Request unpark(std::uint32_t slot);
  void issue(Cycle start, Request req);
  void arrive(Request req);
  void apply_refresh(std::size_t ci, Cycle now);
  void pump(std::size_t ci);

  EventQueue& eq_;
  MemoryConfig cfg_;
  /// std::deque, not vector: Channel holds move-only request queues and a
  /// deque grows without relocating (no noexcept-move requirement).
  std::deque<Channel> channels_;
  /// Requests waiting on an event — issued ahead of their arrival cycle,
  /// or forwarded reads awaiting their completion — parked here so the
  /// event captures only a slot index and fits the EventQueue's inline
  /// callback budget. Freed slots are reused, so the pool stops growing at
  /// the high-water mark.
  std::vector<Request> parked_;
  std::vector<std::uint32_t> parked_free_;
  DramStats stats_;
  obs::TraceRecorder* trace_ = nullptr;
  std::vector<obs::TrackId> channel_tracks_;  ///< [channel]
  std::vector<obs::TrackId> bank_tracks_;     ///< [channel * banks + bank]
};

/// The memory-side facade every fabric talks to.
///
/// kFlat: the channel serializes transfers — each request occupies it for
/// ceil(bytes / bytes_per_cycle) cycles placed *time-ordered* (first fit
/// into the earliest idle gap at or after its start cycle, so a claim
/// issued out of call order is no longer queued behind later traffic).
/// Reads additionally pay `read_latency` before their data is available.
/// kDram: requests are forwarded to the DramController and complete
/// asynchronously via dram_read()/dram_write() callbacks.
class MemoryController {
 public:
  MemoryController(EventQueue& eq, const MemoryConfig& cfg)
      : eq_(eq), cfg_(cfg) {
    CDSIM_ASSERT(cfg.bytes_per_cycle >= 1);
    if (cfg_.model == MemoryModel::kDram) {
      dram_ = std::make_unique<DramController>(eq, cfg_);
    }
  }

  [[nodiscard]] MemoryModel model() const noexcept { return cfg_.model; }

  // --- kFlat synchronous API (asserts on kDram) ----------------------------

  /// Schedules a read of `bytes` starting at `start`; returns the cycle the
  /// data is fully available at the on-chip side. Zero-byte requests are
  /// no-ops (no channel claim, no counters).
  Cycle schedule_read(Cycle start, std::uint32_t bytes) {
    CDSIM_ASSERT_MSG(cfg_.model == MemoryModel::kFlat,
                     "synchronous reads are flat-model only");
    if (bytes == 0) return start;
    const Cycle begin = claim_channel(start, bytes);
    reads_.inc();
    bytes_read_.inc(bytes);
    return begin + cfg_.read_latency + transfer_cycles(bytes);
  }

  /// Posts a write of `bytes` at `start`. Returns the cycle the channel
  /// finished moving it — the completion a non-posted issuer waits on
  /// (posted issuers discard it). Zero-byte requests are no-ops.
  Cycle post_write(Cycle start, std::uint32_t bytes) {
    CDSIM_ASSERT_MSG(cfg_.model == MemoryModel::kFlat,
                     "synchronous writes are flat-model only");
    if (bytes == 0) return start;
    const Cycle begin = claim_channel(start, bytes);
    writes_.inc();
    bytes_written_.inc(bytes);
    return begin + transfer_cycles(bytes);
  }

  // --- kDram asynchronous API (asserts on kFlat) ---------------------------

  /// Enqueues a DRAM read; `cb` fires at the true service-completion cycle
  /// (possibly forwarded from a queued write to the same line).
  void dram_read(Cycle start, std::uint32_t bytes, Addr line,
                 MemCallback cb) {
    CDSIM_ASSERT_MSG(dram_ != nullptr, "dram_read needs model == kDram");
    if (bytes == 0) {  // no-op, like the flat path: no traffic, no counters
      if (cb) {
        const Cycle at = start > eq_.now() ? start : eq_.now();
        eq_.schedule_at(at, [cb = std::move(cb), at]() mutable { cb(at); });
      }
      return;
    }
    reads_.inc();
    bytes_read_.inc(bytes);
    dram_->read(start, bytes, line, std::move(cb));
  }

  /// Enqueues a DRAM write; `cb` (may be empty for posted writes) fires
  /// when the write is serviced.
  void dram_write(Cycle start, std::uint32_t bytes, Addr line,
                  MemCallback cb) {
    CDSIM_ASSERT_MSG(dram_ != nullptr, "dram_write needs model == kDram");
    if (bytes == 0) {  // no-op, like the flat path: no traffic, no counters
      if (cb) {
        const Cycle at = start > eq_.now() ? start : eq_.now();
        eq_.schedule_at(at, [cb = std::move(cb), at]() mutable { cb(at); });
      }
      return;
    }
    writes_.inc();
    bytes_written_.inc(bytes);
    dram_->write(start, bytes, line, std::move(cb));
  }

  /// Attaches the timeline recorder (kDram only — the flat channel is a
  /// latency formula with no per-event structure worth a timeline; a kFlat
  /// call is a deliberate no-op). Observer-only; nullptr detaches.
  void set_trace(obs::TraceRecorder* rec) {
    if (dram_ != nullptr) dram_->set_trace(rec);
  }

  /// kDram service counters (all zero under kFlat).
  [[nodiscard]] const DramStats& dram_stats() const noexcept {
    static constexpr DramStats kEmpty{};
    return dram_ != nullptr ? dram_->stats() : kEmpty;
  }

  // --- traffic accounting (both models) ------------------------------------

  [[nodiscard]] std::uint64_t bytes_read() const noexcept {
    return bytes_read_.value();
  }
  [[nodiscard]] std::uint64_t bytes_written() const noexcept {
    return bytes_written_.value();
  }
  [[nodiscard]] std::uint64_t total_bytes() const noexcept {
    return bytes_read() + bytes_written();
  }
  [[nodiscard]] std::uint64_t read_count() const noexcept {
    return reads_.value();
  }
  [[nodiscard]] std::uint64_t write_count() const noexcept {
    return writes_.value();
  }

  /// Average bytes per cycle moved over [0, now] — the Fig. 4(a) numerator.
  [[nodiscard]] double bandwidth(Cycle now) const {
    return safe_div(static_cast<double>(total_bytes()),
                    static_cast<double>(now));
  }

  [[nodiscard]] const MemoryConfig& config() const noexcept { return cfg_; }

 private:
  [[nodiscard]] Cycle transfer_cycles(std::uint32_t bytes) const noexcept {
    return (bytes + cfg_.bytes_per_cycle - 1) / cfg_.bytes_per_cycle;
  }

  /// Time-ordered channel arbitration: first fit into the earliest idle
  /// gap at or after `start`. For nondecreasing starts this is identical
  /// to the historical "begin at max(start, channel_free_at)" rule (a gap
  /// can only open at a cycle some claim already started at, so later
  /// claims — whose starts are >= that cycle — can never fit inside it),
  /// which is what keeps flat-mode golden pins bit-exact. Out-of-order
  /// starts now land in the gap they belong to instead of serializing
  /// behind later traffic.
  Cycle claim_channel(Cycle start, std::uint32_t bytes) {
    CDSIM_ASSERT(bytes > 0);
    const Cycle len = transfer_cycles(bytes);
    // Intervals that ended at or before the current event time can never
    // host a future claim (every in-tree issue point is >= now), so the
    // ledger stays O(outstanding transfers), not O(run length). Intervals
    // are disjoint and sorted, so the ended ones are a prefix.
    const Cycle now = eq_.now();
    std::size_t ended = 0;
    while (ended < busy_.size() && busy_[ended].end <= now) ++ended;
    busy_.erase(busy_.begin(),
                busy_.begin() + static_cast<std::ptrdiff_t>(ended));
    Cycle begin = start;
    auto it = std::upper_bound(
        busy_.begin(), busy_.end(), begin,
        [](Cycle c, const Busy& b) { return c < b.begin; });
    if (it != busy_.begin() && std::prev(it)->end > begin) {
      begin = std::prev(it)->end;
    }
    while (it != busy_.end() && it->begin < begin + len) {
      if (it->end > begin) begin = it->end;
      ++it;
    }
    // Insert [begin, begin + len), coalescing with exact neighbours. No
    // interval starts at `begin` (it would overlap the claim).
    const Cycle end = begin + len;
    const auto nxt = std::lower_bound(
        busy_.begin(), busy_.end(), begin,
        [](const Busy& b, Cycle c) { return b.begin < c; });
    const bool join_prev = nxt != busy_.begin() && std::prev(nxt)->end == begin;
    const bool join_next = nxt != busy_.end() && nxt->begin == end;
    if (join_prev && join_next) {
      std::prev(nxt)->end = nxt->end;
      busy_.erase(nxt);
    } else if (join_prev) {
      std::prev(nxt)->end = end;
    } else if (join_next) {
      nxt->begin = begin;
    } else {
      busy_.insert(nxt, Busy{begin, end});
    }
    return begin;
  }

  /// Once dead weight, now load-bearing: prunes the busy-interval ledger
  /// against simulated time and clocks the DRAM engine.
  EventQueue& eq_;
  MemoryConfig cfg_;
  std::unique_ptr<DramController> dram_;  ///< kDram only (else null).
  /// A flat-channel busy interval [begin, end).
  struct Busy {
    Cycle begin = 0;
    Cycle end = 0;
  };
  /// Busy intervals sorted by begin, disjoint, coalesced, pruned at now().
  /// A vector: the ledger holds a handful of intervals and keeps its
  /// capacity, so claims allocate nothing once it has warmed up.
  std::vector<Busy> busy_;
  Counter reads_, writes_, bytes_read_, bytes_written_;
};

}  // namespace cdsim::mem
