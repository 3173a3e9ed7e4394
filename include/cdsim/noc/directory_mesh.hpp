#pragma once
// Directory coherence over a 2D-mesh NoC: the scale-out Interconnect.
//
// Cores/L2 slices sit one per mesh tile; every line address is interleaved
// to a *home tile* whose directory bank serializes all transactions for
// that line. A transaction's life is:
//
//   request packet (requester -> home, XY mesh route)
//     -> [home bank latency + occupancy]  -> GRANT at the home:
//          validator check, directed snoops to exactly the tracked
//          holders (atomic-at-grant, like the bus's address phase),
//          directory bitmap refresh by probing the involved caches
//     -> data legs over the mesh:
//          fill from owner:   home -> owner (fwd) -> requester (data)
//          fill from memory:  home -> memory tile -> memory read
//                             -> requester (data)
//          upgrade:           home -> sharers (inval) -> acks -> home
//                             -> requester (ack)
//          write-back:        data travelled with the request; home ->
//                             memory tile (data), posted write
//
// Functional equivalence with the snoopy bus: coherence side effects apply
// atomically at the grant, exactly as the bus applies them at its grant —
// so the L2 controller and the differential oracle see the same contract,
// and every directory run is verifiable against the flat last-writer
// reference model. The directory merely *narrows* the snoop set (a snoop
// at a non-holder is a no-op on the bus too) and re-times the data.
//
// One behavior is deliberately stronger than the bus: a read that reaches
// the home while the owner's write-back is still in flight (the copy died
// at eviction; memory is stale until the write-back lands) is *deferred*
// behind that write-back instead of reading stale memory. The per-core
// FIFO queues of the bus make that window unreachable there; the mesh's
// many paths would expose it, so the home closes it — the standard
// late-write-back handling of directory protocols.

#include <concepts>
#include <cstdint>
#include <deque>
#include <functional>
#include <type_traits>
#include <vector>

#include "cdsim/coherence/directory.hpp"
#include "cdsim/common/addr_map.hpp"
#include "cdsim/common/event_queue.hpp"
#include "cdsim/common/stats.hpp"
#include "cdsim/mem/memory.hpp"
#include "cdsim/noc/interconnect.hpp"
#include "cdsim/noc/mesh.hpp"
#include "cdsim/obs/trace_recorder.hpp"

namespace cdsim::noc {

struct DirectoryMeshConfig {
  NocConfig noc;
  /// Cycles from request arrival at the home tile to its earliest grant
  /// (directory bank lookup).
  Cycle directory_latency = 3;
  /// Cycles one grant occupies its home bank (serialization under hot-home
  /// contention).
  Cycle bank_occupancy = 1;
  /// Payload bytes of a control message (request, forward, inval, ack).
  std::uint32_t ctrl_bytes = 8;
  /// Tile adjacent to the memory controller (edge of the mesh).
  std::uint32_t mem_tile = 0;
  /// Home-interleave granularity; CmpSystem sets it to the L2 line size so
  /// consecutive lines map to consecutive home tiles.
  std::uint32_t home_interleave_bytes = 64;
};

/// Memory-side cache colocated with the directory home banks — the shared
/// L3 of the three-level hierarchy. One bank per mesh tile; the home bank
/// that serializes a line's coherence transactions also caches it, so
/// every call below happens under the home's serialization and needs no
/// transient states of its own. The fabric consults it on the memory legs:
/// fills that miss every upper cache look the bank up before going
/// off-chip, accepted write-backs are absorbed by the bank instead of
/// crossing the channel, and a memory-updating owner flush invalidates the
/// bank's (now stale) copy. Dirty bank lines reach memory through the
/// MemWritePort the fabric wires at attach time.
class MemorySideCache {
 public:
  /// (bank/tile, line, payload bytes) -> posted memory write over the NoC.
  using MemWritePort =
      std::function<void(std::uint32_t bank, Addr line, std::uint32_t bytes)>;

  virtual ~MemorySideCache() = default;
  virtual void connect_memory_port(MemWritePort port) = 0;
  /// Bank hit latency (fill-serve path).
  [[nodiscard]] virtual Cycle access_latency() const = 0;
  /// Fill lookup at the home: true = hit (the bank serves the line).
  virtual bool lookup_for_fill(std::uint32_t bank, Addr line) = 0;
  /// The channel delivered `line` for a fill that missed this bank:
  /// install a clean copy (possibly evicting).
  virtual void install_from_memory(std::uint32_t bank, Addr line) = 0;
  /// An accepted write-back's data is captured by the bank (dirty).
  virtual void absorb_writeback(std::uint32_t bank, Addr line) = 0;
  /// Drop the bank's copy (memory-updating flush made it stale).
  virtual void invalidate(std::uint32_t bank, Addr line) = 0;
};

/// Compile-time shape check for MemorySideCache implementations. Derivation
/// alone is not enough: adding a pure virtual to the interface would leave
/// a bank abstract, and the error would only surface at the distant
/// make_unique call in cmp_system. A `static_assert(MemorySideCacheImpl<
/// MyBank>)` next to the implementation turns that into a one-line error at
/// the class itself (sim/l3_cache.hpp does exactly this).
template <typename T>
concept MemorySideCacheImpl =
    std::derived_from<T, MemorySideCache> && !std::is_abstract_v<T> &&
    std::destructible<T>;

/// The directory-mesh fabric. CoreId c lives on tile c.
class DirectoryMesh final : public Interconnect {
 public:
  using Interconnect::request;  // the Completion convenience overload

  DirectoryMesh(EventQueue& eq, const DirectoryMeshConfig& cfg,
                mem::MemoryController& mem, std::uint32_t num_cores);

  DirectoryMesh(const DirectoryMesh&) = delete;
  DirectoryMesh& operator=(const DirectoryMesh&) = delete;

  // --- Interconnect -------------------------------------------------------
  void attach(Snooper* s) override;
  [[nodiscard]] std::size_t num_agents() const noexcept override {
    return snoopers_.size();
  }
  void set_observer(verify::AccessObserver* obs) noexcept override {
    obs_ = obs;
  }
  void request(coherence::BusTxKind kind, Addr line_addr, CoreId requester,
               std::uint32_t bytes, RequestHooks hooks) override;
  void note_clean_drop(CoreId core, Addr line_addr) override;

  /// Attaches the timeline recorder (observer-only; nullptr detaches):
  /// one span per home-bank grant, named by the transaction kind.
  void set_trace(obs::TraceRecorder* rec, obs::TrackId track) noexcept {
    trace_ = rec;
    trace_track_ = track;
  }

  /// Wires the shared L3 home banks into the memory legs (three-level
  /// hierarchy). Must be called before any request; also hands the cache
  /// its memory write port (bank -> memory tile over the NoC). nullptr
  /// detaches (two-level behavior, bit-identical to pre-L3 builds).
  void attach_l3(MemorySideCache* l3);

  [[nodiscard]] std::uint64_t transactions(
      coherence::BusTxKind k) const override {
    return tx_count_[static_cast<std::size_t>(k)].value();
  }
  [[nodiscard]] std::uint64_t total_transactions() const override {
    std::uint64_t n = 0;
    for (const auto& c : tx_count_) n += c.value();
    return n;
  }
  [[nodiscard]] std::uint64_t bytes_transferred() const noexcept override {
    return noc_.bytes_injected();
  }
  /// Bottleneck (busiest-link) occupancy — the mesh's analogue of bus
  /// utilization.
  [[nodiscard]] double utilization(Cycle now) const override {
    return noc_.max_link_utilization(now);
  }
  [[nodiscard]] std::uint64_t cancelled_transactions() const noexcept override {
    return cancelled_.value();
  }

  // --- introspection ------------------------------------------------------
  [[nodiscard]] const coherence::Directory& directory() const noexcept {
    return dir_;
  }
  [[nodiscard]] const MeshNoc& noc() const noexcept { return noc_; }
  [[nodiscard]] std::uint32_t home_tile(Addr line_addr) const noexcept {
    // Line-interleaved homes: consecutive lines map to consecutive tiles,
    // spreading an arbitrary stream across every bank.
    return static_cast<std::uint32_t>(
        (line_addr / cfg_.home_interleave_bytes) % noc_.num_tiles());
  }
  /// Requests parked behind an in-flight write-back (see file comment).
  [[nodiscard]] std::uint64_t deferrals() const noexcept {
    return dir_.stats().deferrals.value();
  }
  /// BusUpgr grants whose requester held the line in TD — the §III Owned
  /// turn-off's invalidation round, served as a directed recall.
  [[nodiscard]] std::uint64_t recalls() const noexcept {
    return dir_.stats().recalls.value();
  }

 private:
  /// Handle into the transaction-record pool below. Handles (not pointers)
  /// cross the mesh inside packet captures: a 4-byte id keeps every fabric
  /// lambda inside its SmallFn inline buffer, and the pool slot is recycled
  /// the moment the transaction retires.
  using TxId = std::uint32_t;
  static constexpr TxId kNoTx = 0xffffffffu;

  struct Tx {
    coherence::BusTxKind kind;
    Addr line = 0;
    CoreId requester = 0;
    std::uint32_t bytes = 0;
    RequestHooks hooks;
    /// Outstanding inval/ack round trips of a BusUpgr (fan-in counter).
    std::uint32_t remaining = 0;
    /// Intrusive link: next transaction in the same per-line deferred FIFO.
    TxId next = kNoTx;
  };

  /// Intrusive FIFO of transactions parked behind an in-flight write-back
  /// (chained through Tx::next — no per-deferral container allocation).
  struct DefList {
    TxId head = kNoTx;
    TxId tail = kNoTx;
  };

  TxId alloc_tx(Tx&& tx);
  void free_tx(TxId id);
  void defer_append(DefList& q, TxId id);
  /// Request packet arrived at the home: schedule its bank grant.
  void home_arrive(TxId id);
  /// The grant: validator, directed snoops, directory refresh, data legs.
  void process(TxId id);
  void data_legs(TxId id, BusResult res, std::uint64_t targets,
                 bool flush_writes_memory, CoreId supplier);
  /// Terminal delivery: moves on_done out of the record, releases the pool
  /// slot, then fires the hook with `done_at = at`. Every data leg that
  /// delivers at a packet arrival funnels through here, so each record is
  /// freed exactly once and is already reusable when the hook reenters.
  void finish_tx(TxId id, BusResult res, Cycle at);
  /// Write-back completion: schedules finish_tx at `at` — but only when an
  /// on_done hook exists (event counts are pinned metrics; a hook-less
  /// write-back must not add a scheduled event).
  void wb_finish(TxId id, BusResult res, Cycle at);
  /// Re-dispatches transactions deferred on `line` (newest write-back for
  /// it just resolved).
  void wake_deferred(Addr line);
  /// Posted memory write at the channel (model-dispatched): flat
  /// post_write or a fire-and-forget DRAM enqueue.
  void mem_write(Cycle at, std::uint32_t bytes, Addr line);

  EventQueue& eq_;
  DirectoryMeshConfig cfg_;
  mem::MemoryController& mem_;
  MeshNoc noc_;
  coherence::Directory dir_;
  verify::AccessObserver* obs_ = nullptr;
  obs::TraceRecorder* trace_ = nullptr;
  obs::TrackId trace_track_ = 0;
  MemorySideCache* l3_ = nullptr;  ///< Shared L3 banks (three-level only).
  std::vector<Snooper*> snoopers_;

  /// Earliest next grant per home bank.
  std::vector<Cycle> bank_free_;
  /// Transaction-record pool + LIFO free list. A deque (not a vector) so
  /// Tx& references stay valid across pool growth: process() holds a
  /// reference while snoops and grant hooks may reenter request() and
  /// allocate. The deque's chunk allocations stop at the high-water mark of
  /// concurrently-live transactions; steady state recycles slots through
  /// tx_free_ and never touches the heap (same policy as the EventQueue
  /// slot pool).
  std::deque<Tx> tx_pool_;
  std::vector<TxId> tx_free_;
  /// Per-line FIFO of transactions waiting for an in-flight write-back
  /// (intrusive chains through Tx::next; an entry exists iff nonempty).
  AddrMap<DefList> deferred_;

  Counter tx_count_[4];
  Counter cancelled_;
};

}  // namespace cdsim::noc
