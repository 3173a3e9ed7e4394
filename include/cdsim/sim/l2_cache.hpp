#pragma once
// Private, inclusive, MESI-snoopy L2 cache controller with the paper's
// turn-off mechanism (§III) and the three leakage techniques (§IV).
//
// The level mechanics — tag array, MSHR file, decay sweeper + expiry wheel,
// powered-line integral, decay attribution, statistics — live in the
// generic cache::CacheLevel engine (cache/level.hpp); this controller keeps
// only the coherence choreography. In the two-level hierarchy it is the
// outermost private level on the fabric; in the three-level hierarchy the
// same controller runs as the (smaller) private mid-level cache in front of
// the shared L3 banks.
//
// Coherence state changes are atomic in bus order: a fill installs its
// tag+state at the grant cycle (data arrives later, tracked by the
// `fetching` flag), so overlapping split transactions always observe a
// consistent global state. The decay sweeper calls back into this
// controller, which owns the TC/TD transient-state choreography:
//
//   clean (S/E):  Turn-off -> TC -> invalidate L1 copy -> off.     (no bus)
//   dirty (M):    Turn-off -> TD -> invalidate L1 copy ->
//                 write-back on the bus -> off.
//
// A snoop that reaches a TC/TD line completes the turn-off early (the
// flush-and-cancel edges of Figure 2), using the bus-level write-back
// cancellation validator.
//
// Power accounting: the engine maintains an exact time integral of the
// number of powered lines. Techniques other than the baseline gate Vdd with
// the valid bit, so "powered" == "valid (incl. TC/TD)".

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "cdsim/noc/interconnect.hpp"
#include "cdsim/cache/cache_stats.hpp"
#include "cdsim/cache/level.hpp"
#include "cdsim/cache/mshr.hpp"
#include "cdsim/cache/tag_array.hpp"
#include "cdsim/coherence/mesi.hpp"
#include "cdsim/coherence/protocol.hpp"
#include "cdsim/common/addr_map.hpp"
#include "cdsim/common/event_queue.hpp"
#include "cdsim/common/stats.hpp"
#include "cdsim/decay/sweeper.hpp"
#include "cdsim/decay/technique.hpp"
#include "cdsim/obs/trace_recorder.hpp"
#include "cdsim/sim/l1_cache.hpp"
#include "cdsim/verify/observer.hpp"

namespace cdsim::sim {

struct L2Config {
  std::uint64_t size_bytes = 1 * MiB;  ///< Per-core slice (paper: total/4).
  std::uint32_t line_bytes = 64;
  std::uint32_t ways = 8;
  Cycle hit_latency = 12;
  std::uint32_t mshr_entries = 24;
  /// Backoff before re-attempting an access that found its line in a
  /// transient (TC/TD) state or the MSHR file full.
  Cycle retry_interval = 4;
  /// Cycles to invalidate the L1 copy during a turn-off (InvUpp edge).
  Cycle l1_inval_latency = 2;
  /// Snooping protocol this slice speaks. All slices on one bus must agree.
  coherence::Protocol protocol = coherence::Protocol::kMesi;
  /// TEST-ONLY fault injection: a dirty decay turn-off silently discards
  /// the line instead of writing it back (memory keeps stale data). Used by
  /// the differential-verification suite to prove the oracle catches
  /// wrong-data bugs; never set outside tests.
  bool test_lose_decay_writeback = false;
};

/// One private L2 slice.
class L2Cache final : public noc::Snooper {
 public:
  /// Completion callback for upper-level requests. `may_cache_upper` is
  /// false when the line was invalidated while its fill was in flight — the
  /// L1 must then consume the data without caching it (inclusion).
  /// Move-only; the L1's captures (a `this` and a line address) fit the
  /// 32-byte inline buffer, so the request path never allocates.
  using Response = SmallFn<void(Cycle done, bool may_cache_upper), 32>;

  L2Cache(EventQueue& eq, const L2Config& cfg,
          const decay::DecayConfig& dcfg, CoreId core, noc::Interconnect& ic,
          L1Cache* upper);

  /// Arms the decay sweeper. Call once after construction.
  void start();
  /// Stops the sweeper (simulation teardown).
  void stop();

  /// Attaches a differential-verification observer (nullptr detaches).
  void set_observer(verify::AccessObserver* obs) noexcept { obs_ = obs; }

  /// Attaches the timeline recorder (observer-only; nullptr detaches):
  /// miss-lifetime spans, decay-sweep / turn-off / write-back instants.
  void set_trace(obs::TraceRecorder* rec, obs::TrackId track) noexcept {
    trace_ = rec;
    trace_track_ = track;
  }

  // --- upper-level (L1) interface -----------------------------------------
  /// Read request from an L1 miss. Always eventually responds (internally
  /// retries on MSHR pressure / transient lines).
  void read(Addr addr, Response on_done);

  /// Write from the L1 write-buffer drain (write-through L1: the L2 sees
  /// every store). Write-allocate on miss.
  void write(Addr addr, Response on_done);

  // --- noc::Snooper (snoopy bus AND directory mesh) -----------------------
  noc::SnoopReply snoop(coherence::BusTxKind kind, Addr line_addr,
                        CoreId requester) override;
  /// Side-effect-free state probe; the directory's bitmap-refresh hook.
  [[nodiscard]] coherence::MesiState probe(Addr line_addr) const override {
    return line_state(line_addr);
  }

  // --- decay ------------------------------------------------------------------
  /// Periodic hierarchical-counter sweep: turns off expired lines.
  void decay_sweep(Cycle now);

  // --- introspection ------------------------------------------------------------
  [[nodiscard]] const cache::CacheStats& stats() const noexcept {
    return level_.stats();
  }
  [[nodiscard]] const cache::Geometry& geometry() const noexcept {
    return level_.geometry();
  }
  [[nodiscard]] const decay::DecayConfig& decay_config() const noexcept {
    return level_.decay_config();
  }
  [[nodiscard]] const cache::LevelPolicy& policy() const noexcept {
    return level_.policy();
  }
  [[nodiscard]] CoreId core() const noexcept { return core_; }

  /// Exact time integral of powered lines over [0, now]. For gated
  /// techniques this integrates valid lines; for the baseline every line is
  /// always powered.
  [[nodiscard]] double powered_line_cycles(Cycle now) const {
    return level_.powered_line_cycles(now);
  }
  /// Powered fraction of the array, time-averaged over [0, now] — the
  /// paper's occupation rate for this slice.
  [[nodiscard]] double occupation(Cycle now) const {
    return level_.occupation(now);
  }
  /// Currently powered lines.
  [[nodiscard]] std::uint64_t lines_on() const noexcept {
    return level_.lines_on();
  }
  [[nodiscard]] std::uint64_t capacity_lines() const noexcept {
    return level_.capacity_lines();
  }

  /// Lifetime counters for dynamic-energy accounting.
  [[nodiscard]] std::uint64_t fills() const noexcept {
    return level_.fills().value();
  }
  [[nodiscard]] std::uint64_t transient_retries() const noexcept {
    return level_.transient_retries().value();
  }
  [[nodiscard]] std::uint64_t upgrades() const noexcept {
    return upgrades_.value();
  }

  /// Effective hit latency: +1 cycle when decay hardware is present
  /// (Gated-Vdd access penalty, paper §V).
  [[nodiscard]] Cycle access_latency() const noexcept {
    return level_.access_latency();
  }

  /// Test hook: state of a line (Invalid when absent).
  [[nodiscard]] coherence::MesiState line_state(Addr addr) const;

  /// Test hook: live decay-attribution entries (see cache::CacheLevel).
  [[nodiscard]] std::size_t decay_attribution_entries() const noexcept {
    return level_.decay_attribution_entries();
  }

  /// Test/checker hook: visits every valid line as (line_addr, state).
  void for_each_valid_line(
      const std::function<void(Addr, coherence::MesiState)>& fn) const;

 private:
  struct Payload {
    coherence::MesiState state = coherence::MesiState::kInvalid;
    decay::LineDecayState decay;
    bool fetching = false;   ///< Tag/state installed; data still in flight.
    bool upgrading = false;  ///< BusUpgr queued for this S line.
  };
  using Level = cache::CacheLevel<Payload>;
  using LineT = cache::LineRef<Payload>;

  void do_read(Addr line_addr, Response on_done, bool counted);
  void do_write(Addr line_addr, Response on_done, bool counted);
  void issue_fetch(Addr line_addr, bool is_write);
  void install_at_grant(Addr line_addr, bool is_write,
                        const noc::BusResult& res);
  void evict(LineT victim);
  void line_off(LineT ln);
  void retry(EventQueue::Callback fn) { level_.retry(std::move(fn)); }
  void turn_off_clean(Addr line_addr);
  void turn_off_dirty(Addr line_addr);
  /// MOESI O-state turn-off: revoke the remaining S copies (BusUpgr
  /// broadcast), then write back like a dirty turn-off (§III extension).
  void turn_off_owned(Addr line_addr);
  /// Queues the TD flush write-back (shared tail of the dirty and owned
  /// turn-off paths).
  void issue_turnoff_writeback(Addr line_addr);
  /// Cancels the TD turn-off write-back of `line_addr`, if one is live:
  /// its queued BusUpgr / write-back will fail validation.
  void cancel_td_wb(Addr line_addr) { td_tokens_.erase(line_addr); }
  /// Whether `token` is still the live turn-off of `line_addr`.
  [[nodiscard]] bool td_wb_live(Addr line_addr, std::uint64_t token) const {
    const std::uint64_t* live = td_tokens_.find(line_addr);
    return live != nullptr && *live == token;
  }

  EventQueue& eq_;
  L2Config cfg_;
  CoreId core_ = 0;
  noc::Interconnect& ic_;
  L1Cache* upper_ = nullptr;
  verify::AccessObserver* obs_ = nullptr;
  obs::TraceRecorder* trace_ = nullptr;
  obs::TrackId trace_track_ = 0;

  /// The level-agnostic engine: tags, MSHRs, decay machinery, stats.
  Level level_;
  Counter upgrades_;
  /// Cancellation tokens of the TD turn-offs in flight: line -> token of
  /// its live turn-off. A turn-off's BusUpgr and write-back validate only
  /// while their token is still the line's live one; a snoop flush or an
  /// eviction that finishes the line first erases it (cancel_td_wb). A
  /// side table, not a per-line field: few turn-offs are in flight at a
  /// time, and per-line payloads stay small and trivially copyable.
  AddrMap<std::uint64_t> td_tokens_;
  std::uint64_t next_td_token_ = 0;
};

}  // namespace cdsim::sim
