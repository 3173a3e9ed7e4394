// Differential test: the SoA TagArray against an in-test reference that
// reimplements the previous array-of-structs tag array verbatim.
//
// The SoA rewrite (packed valid bitmap + parallel tag/LRU/payload arrays)
// claims *bit-for-bit* the old semantics — every golden hexfloat pin in the
// suite leans on that. This test earns the claim the direct way: drive both
// implementations through the same randomized operation sequences
// (find / touch / pick_victim / pick_victim_if with pinned ways / install /
// invalidate) over small adversarial geometries, and assert after every
// single operation that they agree on the chosen victim way, hit/miss
// outcomes, LRU ordering effects, count_valid, and the exact for_each_valid
// visitation order. The zeroed (calloc'd) storage behind the arrays gets
// its own checks at the end.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "cdsim/cache/geometry.hpp"
#include "cdsim/cache/tag_array.hpp"
#include "cdsim/common/rng.hpp"

namespace cdsim::cache {
namespace {

struct Meta {
  std::uint32_t stamp = 0;  ///< Install serial, to cross-check payloads.
  bool pinned = false;      ///< Drives the pick_victim_if predicate.
};

// --- reference: the pre-SoA array-of-structs tag array ----------------------
//
// A faithful copy of the old implementation's semantics: one record per
// way, ascending-way scans, first-invalid-way victim, strict `<` LRU
// minimum, monotonic clock stamped at install/touch, invalidate clears the
// valid flag only.

struct RefLine {
  bool valid = false;
  Addr tag = 0;
  std::uint64_t lru_stamp = 0;
  Meta payload;
};

class RefTagArray {
 public:
  explicit RefTagArray(const Geometry& geo)
      : geo_(geo), lines_(geo.num_lines()) {}

  static constexpr std::size_t kMiss = ~std::size_t{0};

  std::size_t find(Addr addr) const {
    const Addr t = geo_.tag(addr);
    const std::uint64_t base = geo_.set_index(addr) * geo_.ways();
    for (std::uint32_t w = 0; w < geo_.ways(); ++w) {
      const RefLine& ln = lines_[base + w];
      if (ln.valid && ln.tag == t) return base + w;
    }
    return kMiss;
  }

  void touch(std::size_t idx) { lines_[idx].lru_stamp = ++clock_; }

  std::size_t pick_victim(Addr addr) const {
    const std::uint64_t base = geo_.set_index(addr) * geo_.ways();
    std::size_t victim = base;
    std::uint64_t best = UINT64_MAX;
    for (std::uint32_t w = 0; w < geo_.ways(); ++w) {
      const RefLine& ln = lines_[base + w];
      if (!ln.valid) return base + w;  // first invalid way wins outright
      if (ln.lru_stamp < best) {
        best = ln.lru_stamp;
        victim = base + w;
      }
    }
    return victim;
  }

  std::size_t pick_victim_if(Addr addr) const {
    const std::uint64_t base = geo_.set_index(addr) * geo_.ways();
    std::size_t victim = kMiss;
    std::uint64_t best = UINT64_MAX;
    for (std::uint32_t w = 0; w < geo_.ways(); ++w) {
      const RefLine& ln = lines_[base + w];
      if (!ln.valid) return base + w;
      if (!ln.payload.pinned && ln.lru_stamp < best) {
        best = ln.lru_stamp;
        victim = base + w;
      }
    }
    return victim;
  }

  void install(std::size_t idx, Addr addr, Meta payload) {
    RefLine& ln = lines_[idx];
    ln.valid = true;
    ln.tag = geo_.tag(addr);
    ln.payload = payload;
    ln.lru_stamp = ++clock_;
  }

  void invalidate(std::size_t idx) { lines_[idx].valid = false; }

  std::uint64_t count_valid() const {
    std::uint64_t n = 0;
    for (const RefLine& ln : lines_) n += ln.valid ? 1 : 0;
    return n;
  }

  std::vector<std::size_t> valid_indices() const {
    std::vector<std::size_t> order;
    for (std::size_t i = 0; i < lines_.size(); ++i) {
      if (lines_[i].valid) order.push_back(i);
    }
    return order;
  }

  const RefLine& line(std::size_t idx) const { return lines_[idx]; }

 private:
  Geometry geo_;
  std::vector<RefLine> lines_;
  std::uint64_t clock_ = 0;
};

// --- the differential driver -------------------------------------------------

void check_agreement(TagArray<Meta>& soa, const RefTagArray& ref) {
  ASSERT_EQ(soa.count_valid(), ref.count_valid());
  std::vector<std::size_t> soa_order;
  soa.for_each_valid([&](LineRef<Meta> ln) {
    soa_order.push_back(ln.index());
    const RefLine& r = ref.line(ln.index());
    ASSERT_TRUE(r.valid);
    ASSERT_EQ(ln.tag(), r.tag);
    ASSERT_EQ(ln.payload().stamp, r.payload.stamp);
    ASSERT_EQ(ln.payload().pinned, r.payload.pinned);
  });
  // Identical visitation order, not just identical membership: the decay
  // sweep's turn-off order (and thus golden event/metric pins) rides on it.
  ASSERT_EQ(soa_order, ref.valid_indices());
}

void run_differential(const Geometry& geo, std::uint64_t seed,
                      std::uint32_t ops) {
  TagArray<Meta> soa(geo);
  RefTagArray ref(geo);
  Xoshiro256 rng(seed);
  // A touched footprint a few times the array keeps sets contended without
  // making hits vanish.
  const std::uint64_t footprint_lines = geo.num_lines() * 3 + 7;
  std::uint32_t serial = 0;

  for (std::uint32_t op = 0; op < ops; ++op) {
    const Addr addr =
        (rng.below(footprint_lines) * geo.line_bytes()) + rng.below(geo.line_bytes());
    switch (rng.below(8)) {
      case 0:
      case 1: {  // find (+ payload cross-check on hit)
        const auto ln = soa.find(addr);
        const std::size_t r = ref.find(addr);
        ASSERT_EQ(static_cast<bool>(ln), r != RefTagArray::kMiss);
        if (ln) {
          ASSERT_EQ(ln.index(), r);
          ASSERT_EQ(ln.payload().stamp, ref.line(r).payload.stamp);
        }
        break;
      }
      case 2: {  // touch on hit (LRU reorder must match)
        const auto ln = soa.find(addr);
        const std::size_t r = ref.find(addr);
        ASSERT_EQ(static_cast<bool>(ln), r != RefTagArray::kMiss);
        if (ln) {
          soa.touch(ln);
          ref.touch(r);
        }
        break;
      }
      case 3: {  // touch-by-address flavour of the hit path
        if (soa.find(addr)) {
          soa.touch(addr);
          ref.touch(ref.find(addr));
        }
        break;
      }
      case 4:
      case 5: {  // miss-fill: pick_victim + install (identical victim way)
        if (soa.find(addr)) break;  // AoS install asserted absence too
        const auto slot = soa.pick_victim(addr);
        const std::size_t r = ref.pick_victim(addr);
        ASSERT_EQ(slot.index(), r);
        ASSERT_EQ(slot.valid(), ref.line(r).valid);
        const Meta m{++serial, rng.below(4) == 0};
        soa.install(slot, addr, m);
        ref.install(r, addr, m);
        break;
      }
      case 6: {  // pinned-way victim selection
        const auto slot = soa.pick_victim_if(
            addr, [](LineRef<Meta> ln) { return !ln.payload().pinned; });
        const std::size_t r = ref.pick_victim_if(addr);
        ASSERT_EQ(static_cast<bool>(slot), r != RefTagArray::kMiss);
        if (slot) {
          ASSERT_EQ(slot.index(), r);
        }
        break;
      }
      case 7: {  // invalidate on hit
        const auto ln = soa.find(addr);
        const std::size_t r = ref.find(addr);
        ASSERT_EQ(static_cast<bool>(ln), r != RefTagArray::kMiss);
        if (ln) {
          soa.invalidate(ln);
          ref.invalidate(r);
        }
        break;
      }
    }
    check_agreement(soa, ref);
  }
}

TEST(TagArraySoaDifferential, TwoWayContendedSets) {
  run_differential(Geometry(2 * KiB, 64, 2), 0x5eed0001, 4000);
}

TEST(TagArraySoaDifferential, FourWay) {
  run_differential(Geometry(4 * KiB, 64, 4), 0x5eed0002, 4000);
}

TEST(TagArraySoaDifferential, DirectMapped) {
  run_differential(Geometry(1 * KiB, 64, 1), 0x5eed0003, 3000);
}

TEST(TagArraySoaDifferential, FullyAssociativeSingleSet) {
  // One 16-way set: every address contends, and the set's validity bits
  // exercise a full-width mask.
  run_differential(Geometry(1 * KiB, 64, 16), 0x5eed0004, 3000);
}

TEST(TagArraySoaDifferential, EightWayMultiWordBitmap) {
  // 128 lines across 16 sets: the valid bitmap spans two words and every
  // set's 8 bits land at a different in-word offset.
  run_differential(Geometry(8 * KiB, 64, 8), 0x5eed0005, 4000);
}

TEST(TagArraySoaDifferential, ManySeeds) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    run_differential(Geometry(2 * KiB, 64, 4), 0xabcd0000 + seed, 600);
  }
}

// --- zeroed storage -----------------------------------------------------------

struct NonZeroDefault {
  std::uint32_t a = 0;
  std::uint8_t state = 3;  ///< A default the calloc'd zeros would not give.
};

TEST(ZeroedStorage, ValueInitIsZeroSeparatesPayloadKinds) {
  EXPECT_TRUE(value_init_is_zero<Meta>());
  EXPECT_TRUE(value_init_is_zero<std::uint64_t>());
  EXPECT_FALSE(value_init_is_zero<NonZeroDefault>());
}

TEST(ZeroedStorage, VectorElementsStartValueInitialized) {
  // A page-spanning array (mmap-sized, so calloc hands out fresh zero
  // pages) and a small one (recycled heap, which calloc clears itself),
  // each after dirtying the heap with a freed non-zero block.
  for (const std::size_t n : {std::size_t{1} << 18, std::size_t{100}}) {
    {
      std::vector<Meta> dirty(n, Meta{0xdeadbeef, true});
      ASSERT_EQ(dirty.back().stamp, 0xdeadbeefu);
    }
    ZeroedVector<Meta> v(n);
    ASSERT_EQ(v.size(), n);
    for (const Meta& m : v) {
      ASSERT_EQ(m.stamp, 0u);
      ASSERT_FALSE(m.pinned);
    }
  }
}

}  // namespace
}  // namespace cdsim::cache
