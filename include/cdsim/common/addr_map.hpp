#pragma once
// AddrMap: the simulator's flat hash table keyed by line address.
//
// The hot-path side tables (decay-miss attribution at every cache level,
// the directory's sharer entries, the differential oracle's version
// shadows) are all "line address -> small value" maps that see a lookup
// or an update on most memory operations. A node-based std::unordered_map
// pays a heap allocation per insert, a free per erase and a pointer chase
// per lookup; AddrMap keeps every entry in one contiguous array:
//
//   * open addressing with linear probing over a power-of-two capacity;
//   * multiplicative (Fibonacci) hashing: the top log2(capacity) bits of
//     key * 2^64/phi, which spreads line-aligned keys (low bits all zero)
//     evenly;
//   * backward-shift erase: no tombstones, so probe chains never rot and a
//     long run of insert/erase churn costs nothing extra;
//   * no storage until the first insert, then doubling growth at 3/4 load,
//     so steady state never allocates.
//
// The key ~Addr{0} marks an empty slot and cannot be stored. Line
// addresses are multiples of the line size (>= 8 bytes, cache::Geometry),
// so no line address ever collides with it.
//
// Reference stability: an insert (operator[] of a new key) may grow and
// move every entry; an erase (erase, erase_if) shifts later entries of
// the same probe chain back by one slot. Pointers and references returned
// by find() or operator[] are therefore valid only until the next insert
// or erase on the same map. Code that runs callbacks between a lookup and
// a use re-looks the entry up (coherence/directory.hpp spells this out for
// the directory).
//
// There is no iteration in slot order except erase_if, whose predicate
// must be order-insensitive: slot order depends on the capacity history
// and is not a property of the map's contents. cdlint's unordered-iter
// rule treats AddrMap like std::unordered_map.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "cdsim/common/assert.hpp"
#include "cdsim/common/types.hpp"

namespace cdsim {

template <typename V>
class AddrMap {
 public:
  /// The reserved empty-slot key (never a line address).
  static constexpr Addr kEmptyKey = ~Addr{0};

  /// The multiplicative hash; a key's home slot is its top
  /// log2(capacity()) bits.
  [[nodiscard]] static constexpr std::uint64_t hash(Addr key) noexcept {
    return key * 0x9E3779B97F4A7C15ull;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  /// Slots allocated (0 before the first insert, then a power of two).
  [[nodiscard]] std::size_t capacity() const noexcept { return slots_.size(); }

  /// The value stored for `key`, or nullptr.
  [[nodiscard]] V* find(Addr key) noexcept {
    if (size_ == 0) return nullptr;
    for (std::size_t i = home(key);; i = (i + 1) & mask_) {
      Slot& s = slots_[i];
      if (s.key == key) return &s.value;
      if (s.key == kEmptyKey) return nullptr;
    }
  }
  [[nodiscard]] const V* find(Addr key) const noexcept {
    return const_cast<AddrMap*>(this)->find(key);
  }

  /// The value stored for `key`, value-initialized on first use.
  V& operator[](Addr key) {
    CDSIM_ASSERT_MSG(key != kEmptyKey, "AddrMap key ~0 is reserved");
    if (slots_.empty()) rehash(kMinCapacity);
    for (std::size_t i = home(key);; i = (i + 1) & mask_) {
      Slot& s = slots_[i];
      if (s.key == key) return s.value;
      if (s.key == kEmptyKey) {
        if ((size_ + 1) * 4 > slots_.size() * 3) {
          rehash(slots_.size() * 2);
          return (*this)[key];
        }
        s.key = key;
        ++size_;
        return s.value;
      }
    }
  }

  /// Removes `key`; returns whether it was present.
  bool erase(Addr key) noexcept {
    if (size_ == 0) return false;
    for (std::size_t i = home(key);; i = (i + 1) & mask_) {
      if (slots_[i].key == key) {
        erase_slot(i);
        return true;
      }
      if (slots_[i].key == kEmptyKey) return false;
    }
  }

  /// Removes every entry for which `pred(key, value)` holds. Visits
  /// entries in slot order, so `pred` must not depend on visit order.
  template <typename Pred>
  void erase_if(Pred pred) {
    // An erase at i pulls later chain members back into i (and possibly
    // wraps a member from the front of the array to the back), so slot i
    // is re-examined rather than skipped. No member can move into a slot
    // already passed: a re-visited entry is one pred already kept.
    for (std::size_t i = 0; i < slots_.size();) {
      Slot& s = slots_[i];
      if (s.key != kEmptyKey && pred(s.key, static_cast<const V&>(s.value))) {
        erase_slot(i);
      } else {
        ++i;
      }
    }
  }

 private:
  struct Slot {
    Addr key = kEmptyKey;
    V value{};
  };

  static constexpr std::size_t kMinCapacity = 16;

  [[nodiscard]] std::size_t home(Addr key) const noexcept {
    return static_cast<std::size_t>(hash(key) >> shift_);
  }

  /// Backward-shift deletion: walk the chain after `hole`, moving back
  /// every entry whose home does not lie cyclically in (hole, j].
  void erase_slot(std::size_t hole) noexcept {
    for (std::size_t j = (hole + 1) & mask_;; j = (j + 1) & mask_) {
      Slot& s = slots_[j];
      if (s.key == kEmptyKey) break;
      const std::size_t h = home(s.key);
      if (((j - h) & mask_) >= ((j - hole) & mask_)) {
        slots_[hole] = std::move(s);
        hole = j;
      }
    }
    slots_[hole] = Slot{};
    --size_;
  }

  void rehash(std::size_t capacity) {
    CDSIM_ASSERT(std::has_single_bit(capacity));
    std::vector<Slot> old = std::exchange(slots_, std::vector<Slot>(capacity));
    mask_ = capacity - 1;
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(capacity));
    for (Slot& s : old) {
      if (s.key == kEmptyKey) continue;
      std::size_t i = home(s.key);
      while (slots_[i].key != kEmptyKey) i = (i + 1) & mask_;
      slots_[i] = std::move(s);
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  std::size_t mask_ = 0;
  unsigned shift_ = 64;
};

}  // namespace cdsim
