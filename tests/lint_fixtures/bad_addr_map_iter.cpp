// cdlint fixture: cdsim::AddrMap is an unordered container to the lint.
// Its slot order depends on the hash and the capacity history, so a
// traversal is flagged exactly like one over std::unordered_map, while
// lookups, erases by key and the order-insensitive erase_if stay quiet.
// The expect-marker comments are the golden expectations, line-exact.
#include "cdsim/common/addr_map.hpp"

using Attribution = cdsim::AddrMap<unsigned long>;

double walk(cdsim::AddrMap<double>& versions) {
  double total = 0.0;
  for (const auto& slot : versions) {  // CDLINT-EXPECT: unordered-iter
    total += slot.value;               // CDLINT-EXPECT: float-accum-unordered
  }
  return total;
}

unsigned long iterator_walk(Attribution& decayed) {
  unsigned long n = 0;
  for (auto it = decayed.begin(); it != decayed.end(); ++it) {  // CDLINT-EXPECT: unordered-iter
    ++n;
  }
  return n;
}

unsigned long lookups(cdsim::AddrMap<unsigned long>& dir, unsigned long line,
                      unsigned long now) {
  unsigned long hits = 0;
  if (dir.find(line) != nullptr) ++hits;
  dir[line] = now;
  dir.erase(line);
  dir.erase_if([now](unsigned long, unsigned long at) { return at < now; });
  return hits;
}
