// Unit tests for the banked-DRAM controller and the per-core TLBs: row
// hit / closed / conflict timing, FR-FCFS reordering with its starvation
// cap, lazy refresh, write forwarding (the oracle-threading invariant),
// the decode-once address map, TLB LRU behaviour (its MRU-first lookup
// against a scan-only reference) and the miss-walk port, plus an
// oracle-checked kDram system run proving flat and DRAM modes agree on
// every data value.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "cdsim/common/event_queue.hpp"
#include "cdsim/common/rng.hpp"
#include "cdsim/mem/memory.hpp"
#include "cdsim/mem/tlb.hpp"
#include "cdsim/verify/fuzz.hpp"

namespace cdsim::mem {
namespace {

/// One channel, one rank, two banks, refresh off: with 2 KiB rows and
/// 64 B interleave, lines 0 and 64 share bank 0 row 0, line 4096 is
/// bank 0 row 1, line 2048 is bank 1 row 0.
MemoryConfig dram_cfg() {
  MemoryConfig cfg;
  cfg.model = MemoryModel::kDram;
  cfg.dram.channels = 1;
  cfg.dram.ranks_per_channel = 1;
  cfg.dram.banks_per_rank = 2;
  cfg.dram.t_refi = 0;  // refresh off unless a test turns it on
  return cfg;
}

TEST(Dram, RowHitMissConflictTiming) {
  EventQueue eq;
  const MemoryConfig cfg = dram_cfg();
  MemoryController mem(eq, cfg);
  const Cycle xfer = 64 / cfg.bytes_per_cycle;  // 4
  std::vector<Cycle> done;
  const auto record = [&done](Cycle t) { done.push_back(t); };
  mem.dram_read(0, 64, 0, record);     // closed bank: tRCD + tCAS
  mem.dram_read(0, 64, 64, record);    // same row: tCAS
  mem.dram_read(0, 64, 4096, record);  // other row, same bank: conflict
  eq.run();
  const DramConfig& d = cfg.dram;
  ASSERT_EQ(done.size(), 3u);
  EXPECT_EQ(done[0], d.t_rcd + d.t_cas + xfer);
  EXPECT_EQ(done[1], done[0] + d.t_cas + xfer);
  EXPECT_EQ(done[2], done[1] + d.t_rp + d.t_rcd + d.t_cas + xfer);
  const DramStats& st = mem.dram_stats();
  EXPECT_EQ(st.row_hits, 1u);
  EXPECT_EQ(st.row_misses, 1u);
  EXPECT_EQ(st.row_conflicts, 1u);
  EXPECT_EQ(st.activates, 2u);
  EXPECT_EQ(st.precharges, 1u);
  EXPECT_EQ(mem.read_count(), 3u);
  EXPECT_EQ(mem.bytes_read(), 192u);
}

TEST(Dram, FrFcfsServesRowHitsFirst) {
  EventQueue eq;
  MemoryController mem(eq, dram_cfg());
  std::vector<char> order;
  mem.dram_read(0, 64, 0, [&](Cycle) { order.push_back('A'); });
  mem.dram_read(0, 64, 4096, [&](Cycle) { order.push_back('B'); });
  mem.dram_read(0, 64, 64, [&](Cycle) { order.push_back('C'); });
  eq.run();
  // A opens row 0; C is a row hit and bypasses the older conflicting B.
  EXPECT_EQ(std::string(order.begin(), order.end()), "ACB");
}

TEST(Dram, StarvationCapForcesTheOldestRequest) {
  EventQueue eq;
  MemoryConfig cfg = dram_cfg();
  cfg.dram.starvation_limit = 1;
  MemoryController mem(eq, cfg);
  std::vector<char> order;
  mem.dram_read(0, 64, 0, [&](Cycle) { order.push_back('A'); });
  mem.dram_read(0, 64, 4096, [&](Cycle) { order.push_back('B'); });
  mem.dram_read(0, 64, 64, [&](Cycle) { order.push_back('C'); });
  mem.dram_read(0, 64, 128, [&](Cycle) { order.push_back('D'); });
  eq.run();
  // C bypasses B once; the cap then forces B ahead of the row-hitting D.
  EXPECT_EQ(std::string(order.begin(), order.end()), "ACBD");
}

TEST(Dram, RefreshClosesRowsAndStallsTheBank) {
  EventQueue eq;
  MemoryConfig cfg = dram_cfg();
  cfg.dram.t_refi = 100;
  cfg.dram.t_rfc = 50;
  MemoryController mem(eq, cfg);
  const DramConfig& d = cfg.dram;
  const Cycle xfer = 64 / cfg.bytes_per_cycle;
  std::vector<Cycle> done;
  const auto record = [&done](Cycle t) { done.push_back(t); };
  mem.dram_read(0, 64, 0, record);
  // Arrives after the cycle-100 refresh tick: the row it would have hit
  // is closed again and the bank is held until tick + tRFC = 150.
  mem.dram_read(140, 64, 64, record);
  eq.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0], d.t_rcd + d.t_cas + xfer);
  EXPECT_EQ(done[1], 150 + d.t_rcd + d.t_cas + xfer);
  const DramStats& st = mem.dram_stats();
  EXPECT_GE(st.refreshes, 1u);
  EXPECT_EQ(st.row_hits, 0u);
  EXPECT_EQ(st.row_misses, 2u);
}

TEST(Dram, QueuedWriteForwardsToAYoungerRead) {
  EventQueue eq;
  const MemoryConfig cfg = dram_cfg();
  MemoryController mem(eq, cfg);
  std::vector<std::pair<char, Cycle>> done;
  mem.dram_write(0, 64, 0, [&](Cycle t) { done.push_back({'w', t}); });
  mem.dram_write(0, 64, 4096, [&](Cycle t) { done.push_back({'W', t}); });
  // The read matches the still-queued second write: it is served from the
  // queue at tCAS + transfer and never visits (or waits for) the bank.
  mem.dram_read(0, 64, 4096, [&](Cycle t) { done.push_back({'r', t}); });
  eq.run();
  ASSERT_EQ(done.size(), 3u);
  EXPECT_EQ(done[0].first, 'r');
  EXPECT_EQ(done[0].second, cfg.dram.t_cas + 64 / cfg.bytes_per_cycle);
  EXPECT_EQ(mem.dram_stats().write_forwards, 1u);
}

TEST(Dram, ZeroByteRequestsCompleteWithoutTraffic) {
  EventQueue eq;
  MemoryController mem(eq, dram_cfg());
  std::vector<Cycle> done;
  mem.dram_read(5, 0, 0, [&](Cycle t) { done.push_back(t); });
  mem.dram_write(7, 0, 64, [&](Cycle t) { done.push_back(t); });
  eq.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0], 5u);
  EXPECT_EQ(done[1], 7u);
  EXPECT_EQ(mem.total_bytes(), 0u);
  EXPECT_EQ(mem.read_count(), 0u);
  EXPECT_EQ(mem.write_count(), 0u);
}

/// DRAM geometries for the decode-once checks: the default (all powers of
/// two) and two with non-power-of-two channel, bank and row counts.
std::vector<DramConfig> decode_geometries() {
  std::vector<DramConfig> out(3);
  out[1].channels = 3;
  out[1].ranks_per_channel = 1;
  out[1].banks_per_rank = 6;
  out[1].row_bytes = 3072;
  out[2].channels = 5;
  out[2].ranks_per_channel = 3;
  out[2].banks_per_rank = 3;
  out[2].row_bytes = 1536;
  out[2].interleave_bytes = 128;
  for (DramConfig& d : out) d.t_refi = 0;
  return out;
}

TEST(Dram, DecodeFollowsTheRowInterleavedAddressMap) {
  for (const DramConfig& d : decode_geometries()) {
    EventQueue eq;
    MemoryConfig cfg;
    cfg.model = MemoryModel::kDram;
    cfg.dram = d;
    const DramController dram(eq, cfg);
    const std::uint64_t units_per_row = d.row_bytes / d.interleave_bytes;
    const std::uint64_t banks =
        std::uint64_t{d.ranks_per_channel} * d.banks_per_rank;
    Xoshiro256 rng(d.channels);
    for (int i = 0; i < 5000; ++i) {
      const Addr line = rng.below(Addr{1} << 34) * 64;
      const std::uint64_t unit = line / d.interleave_bytes;
      const std::uint64_t within = unit / d.channels;
      const DramController::Decoded got = dram.decode(line);
      ASSERT_EQ(got.channel, unit % d.channels) << line;
      ASSERT_EQ(got.bank, (within / units_per_row) % banks) << line;
      ASSERT_EQ(got.row, within / (units_per_row * banks)) << line;
    }
  }
}

TEST(Dram, SchedulerServesTheRowDecodedAtArrival) {
  // The controller decodes each request once, on arrival, and both the
  // FR-FCFS row-hit scan and the service timing use the stored (bank,
  // row). Batches of random lines arriving together are checked against
  // a model of the scheduler that decodes through decode() at every scan:
  // every completion cycle (so every pick and every hit/miss/conflict)
  // must match.
  for (const DramConfig& d : decode_geometries()) {
    EventQueue eq;
    MemoryConfig cfg;
    cfg.model = MemoryModel::kDram;
    cfg.dram = d;
    DramController dram(eq, cfg);
    const std::size_t banks =
        std::size_t{d.ranks_per_channel} * d.banks_per_rank;
    struct ModelBank {
      std::int64_t open_row = -1;
      Cycle ready = 0;
    };
    std::vector<ModelBank> model(d.channels * banks);
    std::vector<Cycle> data_free(d.channels, 0);
    const Cycle xfer = 64 / cfg.bytes_per_cycle;
    Xoshiro256 rng(100 + d.channels);
    for (int batch = 0; batch < 600; ++batch) {
      const Cycle now = eq.now();
      const std::size_t n = 1 + rng.below(6);
      std::vector<Addr> lines;
      std::vector<Cycle> done(n, 0);
      for (std::size_t i = 0; i < n; ++i) {
        // A few rows per bank, so hits, misses and conflicts all occur.
        // Lines within a batch are distinct: no write forwarding.
        Addr line = 0;
        do {
          line = rng.below(4 * d.channels * banks * d.row_bytes / 64) * 64;
        } while (std::find(lines.begin(), lines.end(), line) != lines.end());
        lines.push_back(line);
        const auto cb = [&done, i](Cycle t) { done[i] = t; };
        if (rng.below(3) == 0) {
          dram.write(now, 64, lines[i], cb);
        } else {
          dram.read(now, 64, lines[i], cb);
        }
      }
      eq.run();

      // Model: per channel, the first arrival finds the channel idle and
      // is served at once; the rest queue behind it and are picked
      // FR-FCFS, in arrival order.
      for (std::uint32_t ch = 0; ch < d.channels; ++ch) {
        std::vector<std::size_t> queue;
        for (std::size_t i = 0; i < n; ++i) {
          if (dram.decode(lines[i]).channel == ch) queue.push_back(i);
        }
        std::uint32_t front_bypassed = 0;
        bool first = true;
        Cycle t = now;
        while (!queue.empty()) {
          std::size_t pick = 0;
          if (!std::exchange(first, false) &&
              front_bypassed < d.starvation_limit) {
            for (std::size_t q = 0; q < queue.size(); ++q) {
              const DramController::Decoded w = dram.decode(lines[queue[q]]);
              if (model[ch * banks + w.bank].open_row ==
                  static_cast<std::int64_t>(w.row)) {
                pick = q;
                break;
              }
            }
          }
          front_bypassed = pick != 0 ? front_bypassed + 1 : 0;
          const std::size_t i = queue[pick];
          queue.erase(queue.begin() + static_cast<std::ptrdiff_t>(pick));
          const DramController::Decoded w = dram.decode(lines[i]);
          ModelBank& b = model[ch * banks + w.bank];
          const auto row = static_cast<std::int64_t>(w.row);
          const Cycle access = b.open_row == row ? d.t_cas
                               : b.open_row < 0  ? d.t_rcd + d.t_cas
                                                 : d.t_rp + d.t_rcd + d.t_cas;
          b.open_row = row;
          const Cycle start = std::max(t, b.ready);
          const Cycle finish =
              std::max(start + access, data_free[ch]) + xfer;
          data_free[ch] = finish;
          b.ready = finish;
          t = finish;
          ASSERT_EQ(done[i], finish) << "batch " << batch << " request " << i;
        }
      }
    }
    EXPECT_GT(dram.stats().row_hits, 0u);
    EXPECT_GT(dram.stats().row_conflicts, 0u);
  }
}

// --- TLB ---------------------------------------------------------------------

TEST(Tlb, PageGranularityAndTrueLru) {
  TlbConfig cfg;
  cfg.enabled = true;
  cfg.entries = 2;
  Tlb tlb(cfg);
  EXPECT_FALSE(tlb.access(0));       // page 0: cold miss
  EXPECT_TRUE(tlb.access(64));       // same page
  EXPECT_FALSE(tlb.access(4096));    // page 1: cold miss
  EXPECT_TRUE(tlb.access(4160));     // same page
  EXPECT_FALSE(tlb.access(8192));    // page 2: evicts LRU page 0
  EXPECT_FALSE(tlb.access(0));       // page 0 is gone again
  EXPECT_EQ(tlb.hits(), 2u);
  EXPECT_EQ(tlb.misses(), 4u);
}

/// The TLB lookup before its most-recently-used shortcut: one linear scan
/// per access, true LRU refill (first invalid entry, else oldest stamp).
class ScanOnlyTlb {
 public:
  explicit ScanOnlyTlb(const TlbConfig& cfg)
      : page_bytes_(cfg.page_bytes), entries_(cfg.entries) {}

  bool access(Addr addr) {
    const Addr page = addr / page_bytes_;
    ++tick_;
    for (Entry& e : entries_) {
      if (e.valid && e.page == page) {
        e.last_use = tick_;
        return true;
      }
    }
    Entry* victim = &entries_.front();
    for (Entry& e : entries_) {
      if (!e.valid) {
        victim = &e;
        break;
      }
      if (e.last_use < victim->last_use) victim = &e;
    }
    *victim = Entry{page, tick_, true};
    return false;
  }

 private:
  struct Entry {
    Addr page = 0;
    std::uint64_t last_use = 0;
    bool valid = false;
  };
  std::uint64_t page_bytes_ = 1;
  std::vector<Entry> entries_;
  std::uint64_t tick_ = 0;
};

TEST(Tlb, MruFirstLookupMatchesAScanOnlyReference) {
  // Runs on a few hot pages (MRU hits), jumps across a pool larger than
  // the TLB (scan hits and LRU refills), on power-of-two and odd page
  // sizes and TLB sizes.
  for (const std::uint32_t entries : {1u, 4u, 64u}) {
    for (const std::uint32_t page : {4096u, 3000u}) {
      TlbConfig cfg;
      cfg.enabled = true;
      cfg.entries = entries;
      cfg.page_bytes = page;
      Tlb tlb(cfg);
      ScanOnlyTlb ref(cfg);
      Xoshiro256 rng(entries * 7919u + page);
      std::uint64_t hits = 0;
      Addr base = 0;
      for (int i = 0; i < 20000; ++i) {
        if (rng.below(8) == 0) base = rng.below(3 * entries + 5) * page;
        const Addr addr = base + rng.below(2 * page);
        const bool want = ref.access(addr);
        ASSERT_EQ(tlb.access(addr), want) << "access " << i;
        hits += want ? 1 : 0;
      }
      EXPECT_EQ(tlb.hits(), hits);
      EXPECT_EQ(tlb.misses(), 20000 - hits);
    }
  }
}

/// Scriptable inner port standing in for the L1.
class FakePort final : public core::LoadStorePort {
 public:
  bool accept = true;
  Cycle hit_latency = 3;
  std::uint64_t loads = 0;
  core::FreedCallback freed;

  core::LoadOutcome try_load(Addr, core::LoadCallback) override {
    if (!accept) return {};
    ++loads;
    return {.accepted = true, .completed = true, .latency = hit_latency};
  }
  bool try_store(Addr) override { return true; }
  void set_resources_freed(core::FreedCallback cb) override {
    freed = std::move(cb);
  }
};

TEST(TlbPort, MissPaysTheWalkAndHitForwardsSynchronously) {
  EventQueue eq;
  TlbConfig cfg;
  cfg.enabled = true;
  cfg.miss_walk_latency = 60;
  FakePort inner;
  TlbPort port(eq, cfg, inner);

  // Cold page: the load is accepted, walks, then completes through the
  // queue at walk + inner-hit latency.
  Cycle done = 0;
  const core::LoadOutcome miss =
      port.try_load(0x40, [&](Cycle t) { done = t; });
  EXPECT_TRUE(miss.accepted);
  EXPECT_FALSE(miss.completed);
  eq.run();
  EXPECT_EQ(done, cfg.miss_walk_latency + inner.hit_latency);

  // Warm page: the TLB hit forwards straight to the inner port, which
  // completes synchronously — no walk, no event.
  const core::LoadOutcome hit =
      port.try_load(0x80, core::LoadCallback{});
  EXPECT_TRUE(hit.completed);
  EXPECT_EQ(hit.latency, inner.hit_latency);
  EXPECT_EQ(inner.loads, 2u);
}

TEST(TlbPort, WalkedLoadParksOnAFullInnerAndRetries) {
  EventQueue eq;
  TlbConfig cfg;
  cfg.enabled = true;
  cfg.miss_walk_latency = 10;
  FakePort inner;
  inner.accept = false;  // MSHRs "full" while the walk completes
  TlbPort port(eq, cfg, inner);

  Cycle done = 0;
  EXPECT_TRUE(port.try_load(0x40, [&](Cycle t) { done = t; }).accepted);
  eq.run();
  EXPECT_EQ(done, 0u);  // parked, not lost
  inner.accept = true;
  ASSERT_TRUE(inner.freed);  // the port registered for the wake-up
  inner.freed();
  eq.run();
  EXPECT_EQ(done, eq.now());
  EXPECT_EQ(inner.loads, 1u);
}

// --- whole-system oracle check ----------------------------------------------

TEST(DramSystem, OracleSeesIdenticalValuesUnderDram) {
  // The acceptance gate for the memory-model swap: a contended 8-core
  // directory-mesh run under kDram (TLBs on, refresh hot) must produce
  // exactly the values the differential oracle predicts — the DRAM
  // scheduler may reorder *service*, never *data*.
  verify::FuzzScenario sc;
  sc.topology = noc::Topology::kDirectoryMesh;
  sc.num_cores = 8;
  sc.fuzz.num_cores = 8;
  sc.decay = decay::DecayConfig{decay::Technique::kDecay, 2048, 4};
  sc.fuzz.decay_window = 2048;
  sc.mem_model = MemoryModel::kDram;
  sc.seed = 90210;
  const verify::ScenarioOutcome out = verify::run_scenario(sc);
  EXPECT_EQ(out.total_divergences, 0u)
      << verify::to_string(out.divergences.front());
  EXPECT_GT(out.loads_checked, 0u);
  EXPECT_EQ(out.metrics.mem_model, "dram");
  // The run really exercised the DRAM engine and the TLBs.
  EXPECT_GT(out.metrics.dram_row_hits + out.metrics.dram_row_misses +
                out.metrics.dram_row_conflicts,
            0u);
  EXPECT_GT(out.metrics.dram_refreshes, 0u);
  EXPECT_GT(out.metrics.tlb_misses, 0u);
  // And it is deterministic.
  const verify::ScenarioOutcome again = verify::run_scenario(sc);
  EXPECT_EQ(again.metrics.cycles, out.metrics.cycles);
  EXPECT_EQ(again.metrics.dram_row_hits, out.metrics.dram_row_hits);
}

}  // namespace
}  // namespace cdsim::mem
