#pragma once
// Level-agnostic cache engine: the mechanics every cache level shares.
//
// A cache level — the per-core L1, a private L2 slice, or a shared L3 home
// bank — is built from the same parts: a set-associative tag array, an MSHR
// file, an optional coalescing write buffer, the decay sweeper with its
// expiry wheel, the powered-line time integral behind the paper's
// occupation metric, the decay-attribution map behind decay-induced-miss
// accounting, and the hit/miss statistics. Before this engine existed those
// parts were wired by hand inside each controller (631 lines of L2 logic
// that could not be reused); now a controller composes one CacheLevel and
// keeps only its protocol choreography — MESI/MOESI snooping for a private
// coherent level, write-through draining for the L1 front end, memory-side
// absorption for the shared L3.
//
// The LevelPolicy describes what kind of level this is: whether writes
// allocate, whether stores propagate straight through, whether the level
// back-invalidates the level above on line death (inclusion), whether it
// participates in coherence as a snooper, and whether it carries a write
// buffer. The policy is descriptive — the engine never branches on the
// protocol itself — but it is what makes a level's turn-off legality rules
// (DESIGN.md §Section-III-per-level) checkable in one place.
//
// The Payload template parameter carries the controller's per-line metadata
// and must embed a `decay::LineDecayState decay;` member — the engine owns
// the decay bookkeeping (arming, wheel registration, expiry) uniformly for
// every level.
//
// Extraction contract: every method here was moved verbatim from the L2
// controller (PR 2's expiry-wheel and attribution-aging semantics
// included), so a two-level system rebuilt on this engine is bit-identical
// to the hand-wired one — the golden-metrics pins prove it.

#include <concepts>
#include <cstdint>
#include <functional>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "cdsim/cache/cache_stats.hpp"
#include "cdsim/cache/geometry.hpp"
#include "cdsim/cache/mshr.hpp"
#include "cdsim/cache/tag_array.hpp"
#include "cdsim/cache/write_buffer.hpp"
#include "cdsim/coherence/mesi.hpp"
#include "cdsim/common/addr_map.hpp"
#include "cdsim/common/assert.hpp"
#include "cdsim/common/event_queue.hpp"
#include "cdsim/common/stats.hpp"
#include "cdsim/decay/sweeper.hpp"
#include "cdsim/decay/technique.hpp"

namespace cdsim::cache {

/// What kind of level a CacheLevel instance is. Controllers configure it
/// once; tests and documentation read it back.
struct LevelPolicy {
  const char* name = "L?";
  /// Write misses allocate the line (write-allocate). The write-through L1
  /// front end does not allocate on stores; the L2 and L3 do.
  bool allocate_on_write = true;
  /// Stores propagate immediately to the level below (write-through).
  bool write_through = false;
  /// Line death at this level back-invalidates the level above (inclusion).
  bool inclusive_above = false;
  /// The level is a coherence participant (a Snooper on the fabric). The
  /// shared L3 is memory-side: the directory home serializes for it.
  bool coherent = false;
  /// Coalescing write-buffer entries between this level and the one below
  /// (0 = no write buffer).
  std::uint32_t write_buffer_entries = 0;
};

/// Shape/timing knobs shared by every level.
struct LevelTiming {
  Cycle hit_latency = 1;
  std::uint32_t mshr_entries = 8;
  /// Backoff before re-attempting an access that found its line transient
  /// or the MSHR file full.
  Cycle retry_interval = 4;
};

// LevelPolicy is read by designated-initializer configs all over the tree
// and snapshotted by value into every CacheLevel; keep it an aggregate of
// trivially-copyable flags so a policy can never grow behavior of its own
// (the engine must stay policy-descriptive, never policy-dispatched).
static_assert(std::is_aggregate_v<LevelPolicy>,
              "LevelPolicy must stay an aggregate: controllers build it "
              "with designated initializers");
static_assert(std::is_trivially_copyable_v<LevelPolicy>,
              "LevelPolicy must stay trivially copyable: CacheLevel "
              "snapshots it by value in its constructor");

/// Compile-time contract for CacheLevel's Payload parameter. The engine
/// owns decay bookkeeping (arming, wheel registration, expiry) uniformly
/// for every level, which requires an embedded `decay::LineDecayState
/// decay;` member it can reach by name; payloads are also value types the
/// tag array default-constructs per line.
template <typename P>
concept LevelPayload = std::default_initializable<P> &&
                       std::copy_constructible<P> && requires(P p) {
                         { p.decay } -> std::same_as<decay::LineDecayState&>;
                       };

/// The level-agnostic engine. One instance per physical cache structure
/// (per-core L1, per-core L2 slice, per-tile L3 bank).
template <typename Payload>
class CacheLevel {
 public:
  /// Line handle (SoA LineRef, passed by value — see tag_array.hpp).
  using LineT = LineRef<Payload>;

  CacheLevel(EventQueue& eq, const Geometry& geo, const LevelTiming& timing,
             const decay::DecayConfig& dcfg, const LevelPolicy& policy,
             std::function<void(Cycle)> sweep_fn)
      : eq_(eq),
        timing_(timing),
        dcfg_(dcfg),
        policy_(policy),
        tags_(geo),
        mshr_(timing.mshr_entries),
        sweeper_(eq, dcfg, std::move(sweep_fn)) {
    // Checked here, not at class scope: controllers nest their Payload
    // inside themselves, and a nested struct's default member initializers
    // are only usable once the enclosing class is complete — at class
    // scope the concept would spuriously fail for every controller.
    static_assert(LevelPayload<Payload>,
                  "CacheLevel<Payload>: Payload must be "
                  "default-constructible, copyable, and embed a "
                  "`decay::LineDecayState decay;` member — the decay engine "
                  "reaches line state through that field");
    CDSIM_ASSERT(timing_.hit_latency >= 1);
    if (policy_.write_buffer_entries > 0) {
      wb_.emplace(policy_.write_buffer_entries);
    }
    wheel_.configure(dcfg_);
  }

  // --- lifecycle ----------------------------------------------------------
  /// Arms the decay sweeper (no-op for non-decay techniques).
  void start() { sweeper_.start(); }
  /// Stops the sweeper (simulation teardown).
  void stop() { sweeper_.stop(); }

  // --- structure access ---------------------------------------------------
  [[nodiscard]] TagArray<Payload>& tags() noexcept { return tags_; }
  [[nodiscard]] const TagArray<Payload>& tags() const noexcept {
    return tags_;
  }
  [[nodiscard]] MshrFile& mshr() noexcept { return mshr_; }
  [[nodiscard]] WriteBuffer& write_buffer() noexcept {
    CDSIM_ASSERT_MSG(wb_.has_value(), "level has no write buffer");
    return *wb_;
  }
  [[nodiscard]] const WriteBuffer& write_buffer() const noexcept {
    CDSIM_ASSERT_MSG(wb_.has_value(), "level has no write buffer");
    return *wb_;
  }
  [[nodiscard]] CacheStats& stats() noexcept { return stats_; }
  [[nodiscard]] const CacheStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const Geometry& geometry() const noexcept {
    return tags_.geometry();
  }
  [[nodiscard]] const decay::DecayConfig& decay_config() const noexcept {
    return dcfg_;
  }
  [[nodiscard]] const LevelPolicy& policy() const noexcept { return policy_; }

  // --- shared counters ----------------------------------------------------
  [[nodiscard]] Counter& fills() noexcept { return fills_; }
  [[nodiscard]] const Counter& fills() const noexcept { return fills_; }
  [[nodiscard]] Counter& transient_retries() noexcept {
    return transient_retries_;
  }
  [[nodiscard]] const Counter& transient_retries() const noexcept {
    return transient_retries_;
  }

  // --- timing -------------------------------------------------------------
  /// Effective hit latency: +1 cycle when decay hardware is present
  /// (Gated-Vdd access penalty, paper §V) — at any level that decays.
  [[nodiscard]] Cycle access_latency() const noexcept {
    return timing_.hit_latency +
           (decay::uses_decay(dcfg_.technique) ? 1 : 0);
  }

  /// Schedules `fn` after the level's retry backoff.
  void retry(EventQueue::Callback fn) {
    eq_.schedule_in(timing_.retry_interval, std::move(fn));
  }

  // --- LRU + decay countdown ----------------------------------------------
  /// Marks a line most-recently-used and restarts its decay countdown.
  void touch(LineT ln) {
    tags_.touch(ln);
    ln.payload().decay.last_touch = eq_.now();
    wheel_register(ln);
  }

  /// Registers an armed, unregistered line with the expiry wheel under its
  /// predicted expiry tick. No-op for unarmed/already-registered lines and
  /// non-decay techniques, so it is safe (and cheap) on the hit path.
  void wheel_register(LineT ln) {
    decay::LineDecayState& d = ln.payload().decay;
    if (!d.armed || d.wheel_ticket != 0 || !wheel_.enabled()) return;
    d.wheel_ticket =
        wheel_.add(ln.index(), dcfg_.first_expiry_tick(d.last_touch));
  }

  /// Updates the decay-arming bit on a transition *into* `to` (paper §IV).
  /// Non-coherent levels map their line flavor onto the equivalent MESI
  /// state (dirty -> kModified, clean -> kShared) so the selective-decay
  /// rule — never arm a line whose turn-off would cost a write-back — means
  /// the same thing at every level.
  void arm_on_entry(decay::LineDecayState& d, coherence::MesiState to) const {
    using coherence::MesiState;
    if (dcfg_.technique == decay::Technique::kDecay) {
      d.armed = coherence::holds_data(to);
    } else if (dcfg_.technique == decay::Technique::kSelectiveDecay) {
      if (to == MesiState::kShared || to == MesiState::kExclusive) {
        d.armed = true;
      } else if (to == MesiState::kModified || to == MesiState::kOwned) {
        // Dirty states disarm: Selective Decay avoids costly dirty
        // turn-offs, and an Owned turn-off is costlier still.
        d.armed = false;
      }
    }
  }

  /// One decay-sweep tick: visits every line whose registration is due and
  /// invokes `fn(line, line_index)` for the genuinely expired ones, in
  /// line-index order. Handles the whole wheel protocol — stale-ticket
  /// discard, ticket clearing, dead/disarmed skips, and the lazy
  /// re-registration of lines touched since they were registered — so a
  /// controller's sweep is only its per-level legality gates and turn-off
  /// choreography. Also ages the attribution map. No-op for non-decay
  /// techniques.
  template <typename Fn>
  void for_each_expired(Cycle now, Fn&& fn) {
    if (!decay::uses_decay(dcfg_.technique)) return;
    age_decay_attribution(now);
    wheel_.collect_due(now, due_scratch_);
    for (const decay::ExpiryWheel::Entry& e : due_scratch_) {
      LineT ln = tags_.line_at(e.line_index);
      decay::LineDecayState& d = ln.payload().decay;
      if (d.wheel_ticket != e.ticket) continue;  // slot was reused
      d.wheel_ticket = 0;
      if (!ln.valid() || !d.armed) continue;  // died or disarmed meanwhile
      if (!dcfg_.expired(d, now)) {
        // Touched since registration: lazily reschedule at the new
        // deadline (registrations are never updated on the hit path).
        wheel_register(ln);
        continue;
      }
      fn(ln, static_cast<std::size_t>(e.line_index));
    }
  }

  /// Re-examines a gated (turn-off-ineligible) expired line at the next
  /// sweep tick — the full-array sweep re-examined gated lines every tick;
  /// this mirrors that.
  void defer_to_next_tick(LineT ln, std::size_t line_index, Cycle now) {
    ln.payload().decay.wheel_ticket =
        wheel_.add(line_index, now + dcfg_.tick_period());
  }

  // --- powered-line accounting --------------------------------------------
  /// A line started holding data (fill/install).
  void power_on() { on_lines_.add(eq_.now(), +1.0); }
  /// A line stopped holding data (eviction, invalidation, turn-off).
  void power_off() { on_lines_.add(eq_.now(), -1.0); }

  /// Currently powered lines.
  [[nodiscard]] std::uint64_t lines_on() const noexcept {
    return static_cast<std::uint64_t>(on_lines_.value());
  }
  [[nodiscard]] std::uint64_t capacity_lines() const noexcept {
    return tags_.capacity_lines();
  }

  /// Exact time integral of powered lines over [0, now]. For gated
  /// techniques this integrates valid lines; for the baseline every line
  /// is always powered.
  [[nodiscard]] double powered_line_cycles(Cycle now) const {
    if (!decay::gates_invalid_lines(dcfg_.technique)) {
      return static_cast<double>(tags_.capacity_lines()) *
             static_cast<double>(now);
    }
    return on_lines_.integral(now);
  }

  /// Powered fraction of the array, time-averaged over [0, now] — the
  /// paper's occupation rate for this structure.
  [[nodiscard]] double occupation(Cycle now) const {
    if (now == 0) return 1.0;
    return powered_line_cycles(now) /
           (static_cast<double>(tags_.capacity_lines()) *
            static_cast<double>(now));
  }

  // --- miss accounting + decay attribution --------------------------------
  /// Counts a miss and attributes it to a decay turn-off when this line was
  /// recently killed by the sweeper.
  void note_miss(Addr line_addr, bool is_write) {
    if (is_write) {
      stats_.write_misses.inc();
    } else {
      stats_.read_misses.inc();
    }
    if (decayed_lines_.erase(line_addr)) {
      stats_.decay_induced_misses.inc();
      stats_.decay_induced_by_region[(line_addr >> 40) & 7].inc();
    }
  }

  /// Records a decay turn-off of `line_addr` for later miss attribution.
  void mark_decayed(Addr line_addr) { decayed_lines_[line_addr] = eq_.now(); }

  /// Drops any pending attribution for `line_addr` (the line was refilled
  /// through a path that already consumed or invalidated it).
  void clear_attribution(Addr line_addr) { decayed_lines_.erase(line_addr); }

  /// Live decay-attribution entries (test/diagnostic hook).
  [[nodiscard]] std::size_t decay_attribution_entries() const noexcept {
    return decayed_lines_.size();
  }

  /// Deterministic aging of the attribution map: purges entries older than
  /// kAttributionWindowIntervals full decay intervals once the map reaches
  /// the doubling purge threshold. Driven by simulated time only, so
  /// parallel and serial sweeps stay bit-identical. Within the window the
  /// attribution is exact; a line slot can decay at most once per
  /// decay_time (it must be refilled and sit idle a full interval first),
  /// so live entries are bounded by ~(window + 1) x capacity_lines.
  void age_decay_attribution(Cycle now) {
    if (decayed_lines_.size() < attribution_purge_at_) return;
    const Cycle window = kAttributionWindowIntervals * dcfg_.decay_time;
    decayed_lines_.erase_if(
        [now, window](Addr, Cycle at) { return now - at > window; });
    attribution_purge_at_ =
        std::max(kAttributionMinEntries, decayed_lines_.size() * 2);
  }

 private:
  static constexpr std::size_t kAttributionMinEntries = 4096;
  static constexpr Cycle kAttributionWindowIntervals = 16;

  EventQueue& eq_;
  LevelTiming timing_;
  decay::DecayConfig dcfg_;
  LevelPolicy policy_;

  TagArray<Payload> tags_;
  MshrFile mshr_;
  std::optional<WriteBuffer> wb_;
  decay::DecaySweeper sweeper_;
  /// Expiry wheel feeding the sweep: O(due lines) per tick instead of a
  /// full tag-array walk, with a bit-identical turn-off schedule.
  decay::ExpiryWheel wheel_;
  /// Scratch bucket reused by every sweep tick (no per-tick allocation).
  std::vector<decay::ExpiryWheel::Entry> due_scratch_;

  /// Powered-line count integral (valid lines for gated techniques).
  TimeWeightedValue on_lines_{0.0};

  /// Lines killed by decay (line address -> turn-off cycle), to attribute
  /// later misses to the technique. Entries are consumed by the first
  /// subsequent miss (note_miss) or install of the same line; stale entries
  /// are purged by age_decay_attribution.
  AddrMap<Cycle> decayed_lines_;
  /// Purge when the map reaches this size (amortizes the O(size) scan).
  std::size_t attribution_purge_at_ = kAttributionMinEntries;

  CacheStats stats_;
  Counter fills_, transient_retries_;
};

}  // namespace cdsim::cache
