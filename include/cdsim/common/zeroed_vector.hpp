#pragma once
// ZeroedVector: a std::vector whose storage comes from calloc and whose
// value-initialization writes nothing.
//
// For arrays whose value-initialized state is all-zero bytes (the cache
// tag arrays: validity, tags, LRU stamps, per-line payloads), this makes
// construction O(1) in the bytes it touches: memory fresh from the OS is
// already zero, so a large array is neither written nor faulted in until
// an element is first used, and pages a run never uses never become
// resident. (glibc's calloc clears recycled memory itself, so reuse is
// correct either way.)

#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace cdsim {

/// Allocator for arrays of trivially copyable values whose
/// value-initialized state is all-zero bytes: storage comes from calloc
/// and value-initialization writes nothing.
template <typename T>
struct ZeroedAllocator {
  static_assert(std::is_trivially_copyable_v<T> &&
                std::is_trivially_destructible_v<T>);
  using value_type = T;

  ZeroedAllocator() = default;
  template <typename U>
  ZeroedAllocator(const ZeroedAllocator<U>&) noexcept {}  // NOLINT

  [[nodiscard]] T* allocate(std::size_t n) {
    if (void* p = std::calloc(n, sizeof(T))) return static_cast<T*>(p);
    throw std::bad_alloc();
  }
  void deallocate(T* p, std::size_t) noexcept { std::free(p); }

  /// Value-initialization: calloc already zeroed the bytes.
  template <typename U>
  void construct(U*) noexcept {}
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }

  friend bool operator==(const ZeroedAllocator&,
                         const ZeroedAllocator&) noexcept {
    return true;
  }
};

/// A vector whose value-initialized elements are left as calloc's zeros.
/// Element types must pass value_init_is_zero().
template <typename T>
using ZeroedVector = std::vector<T, ZeroedAllocator<T>>;

/// Whether every member of `T{}` is zero, i.e. whether calloc's zero
/// bytes are a value-initialized T (padding is compared as zero: the
/// object is built over zeroed storage).
template <typename T>
[[nodiscard]] bool value_init_is_zero() {
  alignas(T) unsigned char buf[sizeof(T)] = {};
  ::new (static_cast<void*>(buf)) T();
  const unsigned char zero[sizeof(T)] = {};
  return std::memcmp(buf, zero, sizeof(T)) == 0;
}

}  // namespace cdsim
