#pragma once
// Generic set-associative tag array with true-LRU replacement, laid out
// structure-of-arrays.
//
// The array owns validity, tag, and LRU ordering; the `Payload` template
// parameter carries whatever per-line metadata the controller needs (MESI
// state, decay bookkeeping, ...). Lookup never allocates; allocation is an
// explicit two-step: pick_victim() then install().
//
// Layout: validity is a packed bitmap (one std::uint64_t word per 64
// lines), and tags / LRU stamps / payloads live in parallel arrays indexed
// by the same set-major line index. The per-access set scan (find,
// pick_victim, pick_victim_if) therefore touches only the packed valid
// word and the tag words of one set — it never strides over Payload
// records, whose size is controller business (the L2's payload alone is
// several cache lines of decay + coherence state). Controllers hold lines
// through the LineRef handle below, which carries (array, index) instead
// of a Line<Payload>*; the index is the same stable identity the expiry
// wheel registers, so LineRef::index() == the wheel's line_index and
// line_at() round-trips it.
//
// Semantics are bit-for-bit those of the previous AoS array (golden pins
// depend on this; tests/tag_array_soa_test.cpp checks it differentially):
//   * find/pick_victim/pick_victim_if scan ways in ascending order;
//   * pick_victim returns the first invalid way, else the minimum-stamp
//     valid way with strict `<` comparison (earliest way wins ties);
//   * for_each_valid visits lines in ascending index (set-major) order;
//   * install stamps MRU with a monotonically increasing clock;
//   * invalidate clears validity only — the payload is NOT reset.
//
// Storage: all four arrays start in their value-initialized state, which
// for every payload must be all-zero bytes (checked at construction), so
// they are ZeroedVectors (common/zeroed_vector.hpp): allocated by calloc
// and never written by the constructor. Building a system with a
// multi-megabyte cache therefore neither writes nor faults in its line
// arrays; a page is first touched by the access that first uses one of
// its lines.

#include <bit>
#include <cstdint>
#include <utility>

#include "cdsim/cache/geometry.hpp"
#include "cdsim/common/assert.hpp"
#include "cdsim/common/types.hpp"
#include "cdsim/common/zeroed_vector.hpp"

namespace cdsim::cache {

template <typename Payload>
class TagArray;

/// Handle to one way of one set — the SoA replacement for `Line<Payload>&`.
///
/// A LineRef is (array, line index), copyable and passed by value; a
/// default-constructed or find()-miss ref is null and tests false. The
/// index is stable for the lifetime of the array (the expiry-wheel
/// contract), so a LineRef can be stored across events as long as the
/// holder revalidates `valid()` — exactly the discipline the controllers
/// already follow for wheel entries.
template <typename Payload>
class LineRef {
 public:
  constexpr LineRef() = default;

  /// True when the ref points at a way (valid or not); false on find miss.
  [[nodiscard]] constexpr explicit operator bool() const noexcept {
    return arr_ != nullptr;
  }
  [[nodiscard]] bool valid() const noexcept { return arr_->is_valid(idx_); }
  [[nodiscard]] Addr tag() const noexcept { return arr_->tag_at(idx_); }
  /// Controller metadata. Shallow-const on purpose (pointer semantics,
  /// like the `Line*` API it replaces): a const LineRef still hands out a
  /// mutable payload.
  [[nodiscard]] Payload& payload() const noexcept {
    return arr_->payload_at(idx_);
  }
  /// Stable set-major line index — the expiry wheel's line_index.
  [[nodiscard]] constexpr std::size_t index() const noexcept { return idx_; }

  friend constexpr bool operator==(const LineRef&, const LineRef&) = default;

 private:
  friend class TagArray<Payload>;
  constexpr LineRef(TagArray<Payload>* arr, std::size_t idx) noexcept
      : arr_(arr), idx_(idx) {}

  TagArray<Payload>* arr_ = nullptr;
  std::size_t idx_ = 0;
};

/// Set-associative array with true-LRU, structure-of-arrays layout.
///
/// LRU is kept as a per-line monotonic timestamp; victim selection scans the
/// set's ways (ways <= 16 in practice, so a scan beats a linked list).
template <typename Payload>
class TagArray {
 public:
  explicit TagArray(const Geometry& geo)
      : geo_(geo),
        valid_((geo.num_lines() + 63) / 64),
        tags_(geo.num_lines()),
        lru_stamp_(geo.num_lines()),
        payloads_(geo.num_lines()) {
    CDSIM_ASSERT_MSG(value_init_is_zero<Payload>(),
                     "TagArray payloads must value-initialize to zero bytes");
  }

  using Ref = LineRef<Payload>;

  [[nodiscard]] const Geometry& geometry() const noexcept { return geo_; }

  /// Finds the valid line holding `addr`'s tag. Does not touch LRU.
  /// Returns a null ref on miss.
  [[nodiscard]] Ref find(Addr addr) {
    const Addr t = geo_.tag(addr);
    const std::uint64_t base = geo_.set_index(addr) * geo_.ways();
    // Scan only the set's valid ways, lowest way first: at most one way
    // can hold the tag, so bit order only needs to match the AoS scan's
    // ascending-way order (which countr_zero does).
    std::uint64_t live = set_valid_bits(base);
    while (live != 0) {
      const auto w = static_cast<std::uint32_t>(std::countr_zero(live));
      live &= live - 1;
      if (tags_[base + w] == t) return Ref(this, base + w);
    }
    return Ref{};
  }
  [[nodiscard]] Ref find(Addr addr) const {
    // Shallow const, matching the Line* API: const callers get a ref whose
    // payload() is still mutable (controllers const_cast exactly this way
    // today).
    return const_cast<TagArray*>(this)->find(addr);
  }

  /// Marks `addr`'s line most-recently used. Caller must know it exists.
  void touch(Addr addr) {
    const Ref ln = find(addr);
    CDSIM_ASSERT_MSG(static_cast<bool>(ln), "touch() on absent line");
    lru_stamp_[ln.index()] = ++clock_;
  }

  /// Marks an already-looked-up line most-recently used — the hit path
  /// pairs find() with this overload to avoid a second set scan.
  void touch(Ref ln) { lru_stamp_[ln.index()] = ++clock_; }

  /// Selects the victim way for installing `addr`'s line: an invalid way if
  /// any, otherwise the LRU valid way. The returned line may be valid — the
  /// caller is responsible for eviction side effects before install().
  [[nodiscard]] Ref pick_victim(Addr addr) {
    const std::uint64_t base = geo_.set_index(addr) * geo_.ways();
    const std::uint64_t hole = ~set_valid_bits(base) & ways_mask();
    if (hole != 0) {
      // First invalid way, as the AoS scan returned.
      return Ref(this, base + std::countr_zero(hole));
    }
    std::size_t victim = base;
    std::uint64_t best = UINT64_MAX;
    for (std::uint32_t w = 0; w < geo_.ways(); ++w) {
      if (lru_stamp_[base + w] < best) {
        best = lru_stamp_[base + w];
        victim = base + w;
      }
    }
    return Ref(this, victim);
  }

  /// Like pick_victim, but only considers ways satisfying `evictable`
  /// (invalid ways always qualify). Returns a null ref when every valid
  /// way is pinned — the caller must then skip the install (e.g. a set
  /// whose every way has a fill in flight).
  template <typename Pred>
  [[nodiscard]] Ref pick_victim_if(Addr addr, Pred evictable) {
    const std::uint64_t base = geo_.set_index(addr) * geo_.ways();
    const std::uint64_t hole = ~set_valid_bits(base) & ways_mask();
    if (hole != 0) return Ref(this, base + std::countr_zero(hole));
    Ref victim{};
    std::uint64_t best = UINT64_MAX;
    for (std::uint32_t w = 0; w < geo_.ways(); ++w) {
      const Ref ln(this, base + w);
      if (evictable(ln) && lru_stamp_[base + w] < best) {
        best = lru_stamp_[base + w];
        victim = ln;
      }
    }
    return victim;
  }

  /// Installs `addr`'s line into `slot` (obtained from pick_victim) and
  /// marks it MRU. Returns the installed line.
  Ref install(Ref slot, Addr addr, Payload payload) {
    set_valid(slot.index());
    tags_[slot.index()] = geo_.tag(addr);
    payloads_[slot.index()] = std::move(payload);
    lru_stamp_[slot.index()] = ++clock_;
    return slot;
  }

  /// Invalidates a line (does not reset its payload).
  void invalidate(Ref ln) {
    valid_[ln.index() >> 6] &= ~(std::uint64_t{1} << (ln.index() & 63));
  }

  /// Number of currently valid lines: a popcount over the packed bitmap
  /// (O(lines/64)), so invariant checkers can afford to call it per event.
  [[nodiscard]] std::uint64_t count_valid() const noexcept {
    std::uint64_t n = 0;
    for (const std::uint64_t w : valid_) {
      n += static_cast<std::uint64_t>(std::popcount(w));
    }
    return n;
  }

  /// Applies `fn(LineRef)` to every valid line in array (set-major) order,
  /// skipping whole invalid words via the bitmap. Used by checkers and
  /// tests. Templated (no std::function) so per-line dispatch inlines.
  /// `fn` may invalidate the lines it visits (the bit is re-checked live);
  /// it must not install new lines mid-walk.
  template <typename Fn>
  void for_each_valid(Fn&& fn) {
    for (std::size_t wi = 0; wi < valid_.size(); ++wi) {
      std::uint64_t bits = valid_[wi];
      while (bits != 0) {
        const auto b = static_cast<std::uint32_t>(std::countr_zero(bits));
        bits &= bits - 1;
        const std::size_t idx = (wi << 6) | b;
        if (is_valid(idx)) fn(Ref(this, idx));
      }
    }
  }

  /// Total ways in the array (valid or not).
  [[nodiscard]] std::uint64_t capacity_lines() const noexcept {
    return tags_.size();
  }

  /// Line handle for a stable array index (set-major, way-minor): the
  /// identity an expiry wheel registers so a slot can be revisited in
  /// O(1). Indices are valid for the lifetime of the array and compare in
  /// the same order for_each_valid visits lines.
  [[nodiscard]] Ref line_at(std::size_t index) noexcept {
    return Ref(this, index);
  }

 private:
  friend class LineRef<Payload>;

  [[nodiscard]] bool is_valid(std::size_t idx) const noexcept {
    return (valid_[idx >> 6] >> (idx & 63)) & 1u;
  }
  void set_valid(std::size_t idx) noexcept {
    valid_[idx >> 6] |= std::uint64_t{1} << (idx & 63);
  }
  [[nodiscard]] Addr tag_at(std::size_t idx) const noexcept {
    return tags_[idx];
  }
  [[nodiscard]] Payload& payload_at(std::size_t idx) noexcept {
    return payloads_[idx];
  }

  /// The set's validity bits as one word: bit w == valid(base + w).
  /// Sets never straddle words when ways is a power of two <= 64 (base is
  /// then way-aligned), but the generic splice keeps odd geometries right.
  [[nodiscard]] std::uint64_t set_valid_bits(std::uint64_t base) const {
    const std::size_t word = base >> 6;
    const std::uint32_t off = base & 63;
    std::uint64_t bits = valid_[word] >> off;
    if (off != 0 && word + 1 < valid_.size()) {
      bits |= valid_[word + 1] << (64 - off);
    }
    return bits & ways_mask();
  }
  [[nodiscard]] std::uint64_t ways_mask() const noexcept {
    return geo_.ways() >= 64 ? ~std::uint64_t{0}
                             : (std::uint64_t{1} << geo_.ways()) - 1;
  }

  Geometry geo_;
  ZeroedVector<std::uint64_t> valid_;      ///< Packed validity bitmap.
  ZeroedVector<Addr> tags_;                ///< Full line address per way.
  ZeroedVector<std::uint64_t> lru_stamp_;  ///< True-LRU monotonic stamps.
  ZeroedVector<Payload> payloads_;         ///< Controller metadata per way.
  std::uint64_t clock_ = 0;
};

}  // namespace cdsim::cache
