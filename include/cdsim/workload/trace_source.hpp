#pragma once
// Streaming trace plumbing: the TraceSource/TraceSink abstraction every
// trace producer and consumer in the repo is built on.
//
// A TraceSink receives drawn operations one at a time, in global draw
// order (capture decorators write into one; an in-memory Trace and the
// chunked .cdt v2 writer both implement it). A TraceSource is a forward
// cursor over a stored trace — pull records one at a time, O(1) state —
// implemented by the in-memory v1 Trace bridge and the chunked v2 reader.
//
// Replay has one path, streaming_replay_factory(open). It opens ONE cursor
// per replayed system and demultiplexes it into per-core queues
// (ReplayDemux), so every chunk is read, checksummed and decoded once:
//
//   * Lock-step fast path. A core whose queue is empty takes its record
//     straight from the cursor. A replay on the capture's own machine draws
//     in capture order, so nothing is ever queued.
//   * Bounded memory under skew. Each per-core queue holds at most
//     kReplayQueueCap ops (one default v2 chunk). A core whose queue would
//     overflow detaches: it drains what is queued, then continues on a
//     private cursor from `open`, skip()ped to its first unqueued record
//     and filtered to its own records. Memory stays O(chunk) per core no
//     matter how the trace interleaves (a different technique, a mix, a
//     synthetic trace), which is what lets a multi-gigabyte trace replay
//     without ever living in memory.
//
// FilteredReplayStream — a private cursor that skips other cores' records
// — is the detach path's primitive made a stream; rate-mode mixes
// (sim/scenario.hpp) replay through it.
//
// Every replay stream reproduces ScriptedWorkload's kRepeatLast contract
// exactly (see scripted.hpp): the final recorded op is returned verbatim
// once, every repeat after that is re-stamped dependent=false, and a core
// the trace never scheduled replays a single idle filler op. That keeps
// the golden replay pins bit-identical across in-memory and on-disk
// traces. A source that fails mid-replay (a corrupt chunk) never enters
// the tail: the stream throws std::runtime_error carrying the source's
// error(), which stops the run.

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cdsim/common/assert.hpp"
#include "cdsim/workload/stream.hpp"

namespace cdsim::workload {

/// One drawn operation: which core drew it plus the op itself.
struct TraceRecord {
  CoreId core = 0;
  MemOp op;
};

/// Receives records in global draw order.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void append(const TraceRecord& rec) = 0;
};

/// Forward cursor over a stored trace.
class TraceSource {
 public:
  virtual ~TraceSource() = default;

  /// Pulls the next record in global draw order. Returns false at the end
  /// of the trace or on a read error; error() tells the two apart.
  virtual bool next(TraceRecord& out) = 0;

  [[nodiscard]] virtual std::uint32_t num_cores() const = 0;

  /// Per-core instruction budgets that make a replayed core commit exactly
  /// its recorded ops: sum of (gap + 1) per core, with op-less cores
  /// bumped to 1 (they replay the idle filler). Available without scanning
  /// for footer-indexed formats; the in-memory bridge computes it.
  [[nodiscard]] virtual std::vector<std::uint64_t> per_core_instructions()
      const = 0;

  /// Advances past the next `n` records. Returns false if the trace ended
  /// or failed first. The default pulls them one by one; indexed sources
  /// override it with a seek.
  virtual bool skip(std::uint64_t n) {
    TraceRecord rec;
    for (; n > 0; --n) {
      if (!next(rec)) return false;
    }
    return true;
  }

  /// Why next()/skip() stopped early: empty for a clean end of trace (and
  /// for sources that cannot fail), the read error otherwise.
  [[nodiscard]] virtual std::string error() const { return {}; }
};

using TraceSourcePtr = std::unique_ptr<TraceSource>;

/// Opens one fresh, independent cursor over a trace, positioned at the
/// start. Replay factories take openers rather than sources so a factory
/// can be reused across systems (each pass re-opens) and so a detached
/// core or a rate-mode mix can get a cursor of its own.
using TraceOpener = std::function<TraceSourcePtr()>;

/// Per-core queue cap of the shared replay cursor, in ops: one default
/// .cdt v2 chunk (ChunkedTraceWriter::kDefaultChunkRecords).
inline constexpr std::size_t kReplayQueueCap = std::size_t{1} << 16;

/// Reserved region for the idle filler op of cores a trace never
/// scheduled (region id 7 in the synthetic address map's bits 40+, far
/// from every generator).
inline constexpr Addr kReplayIdleRegion = 0x7ull << 40;

/// The single idle load an op-less core replays (budget 1 via
/// per_core_instructions()): a reserved, never-shared line.
[[nodiscard]] inline MemOp replay_idle_op(CoreId core) {
  return MemOp{AccessType::kLoad,
               kReplayIdleRegion | (static_cast<Addr>(core) << 32), 0, false,
               0};
}

/// Stream decorator that records every drawn op into `sink` before handing
/// it to the simulator. The event kernel is single-threaded, so appends
/// from all cores interleave in deterministic global draw order.
class CaptureStream final : public WorkloadStream {
 public:
  CaptureStream(StreamPtr inner, CoreId core, TraceSink* sink)
      : inner_(std::move(inner)), core_(core), sink_(sink) {}

  MemOp next(Cycle now) override {
    const MemOp op = inner_->next(now);
    sink_->append(TraceRecord{core_, op});
    return op;
  }

  [[nodiscard]] std::string_view name() const override {
    return inner_->name();
  }

 private:
  StreamPtr inner_;
  CoreId core_ = 0;
  TraceSink* sink_ = nullptr;
};

/// Wraps `inner` so every produced stream records into `sink` (an
/// in-memory Trace, a ChunkedTraceWriter, ...). The caller keeps the sink
/// alive for the run and finalizes it afterwards if the sink needs it.
StreamFactory capture_factory(StreamFactory inner, TraceSink* sink);

/// Per-core replay with the kRepeatLast tail: ops come verbatim from
/// pull() until it runs dry, then the final op repeats re-stamped
/// dependent=false (the idle filler for a core with no ops).
class ReplayStream : public WorkloadStream {
 public:
  MemOp next(Cycle now) final;

  [[nodiscard]] std::string_view name() const final { return "replay"; }

 protected:
  /// `core` is the trace core whose ops the stream replays.
  explicit ReplayStream(CoreId core) : core_(core) {}

  [[nodiscard]] CoreId core() const { return core_; }

  /// The core's next recorded op; false once they are exhausted. Throws
  /// std::runtime_error if the underlying source failed.
  virtual bool pull(MemOp& out) = 0;

 private:
  CoreId core_ = 0;
  MemOp last_;
  bool have_last_ = false;
  bool tail_ = false;
};

/// One shared cursor for a replayed system, demultiplexed into bounded
/// per-core queues (see the file comment for the fast path and the detach
/// rule).
class ReplayDemux {
 public:
  /// Opens the shared cursor; `open` is kept for detached cores.
  explicit ReplayDemux(TraceOpener open);

  /// Next op of `core`; false once its records are exhausted. Throws
  /// std::runtime_error if a cursor fails.
  bool pop(CoreId core, MemOp& out);

  [[nodiscard]] std::uint32_t num_cores() const {
    return static_cast<std::uint32_t>(lanes_.size());
  }

  /// Deepest any per-core queue has been (at most kReplayQueueCap).
  [[nodiscard]] std::size_t queue_high_water() const { return high_water_; }

  /// Whether `core` overflowed its queue and moved to a private cursor.
  [[nodiscard]] bool detached(CoreId core) const {
    CDSIM_ASSERT(core < lanes_.size());
    return lanes_[core].detached;
  }

 private:
  struct Lane {
    std::deque<MemOp> queue;
    bool detached = false;
    /// Global index of the first record the shared cursor did not queue.
    std::uint64_t resume_at = 0;
    TraceSourcePtr own;  ///< Private cursor, opened once the queue drains.
  };

  void park(const TraceRecord& rec, std::uint64_t index);
  bool pop_private(Lane& lane, CoreId core, MemOp& out);

  TraceOpener open_;
  TraceSourcePtr shared_;
  std::uint64_t pulled_ = 0;  ///< Records drawn from shared_ so far.
  bool shared_done_ = false;
  std::vector<Lane> lanes_;
  std::size_t high_water_ = 0;
};

/// Replay stream of one core over its system's shared demux.
class DemuxReplayStream final : public ReplayStream {
 public:
  DemuxReplayStream(std::shared_ptr<ReplayDemux> demux, CoreId core)
      : ReplayStream(core), demux_(std::move(demux)) {
    CDSIM_ASSERT(demux_ != nullptr);
  }

  [[nodiscard]] const ReplayDemux& demux() const { return *demux_; }

 private:
  bool pull(MemOp& out) override { return demux_->pop(core(), out); }

  std::shared_ptr<ReplayDemux> demux_;
};

/// Per-core replay over a PRIVATE cursor: skips records of other cores as
/// it streams, so memory stays O(chunk) whatever the interleaving, at the
/// price of decoding the whole trace per core.
class FilteredReplayStream final : public ReplayStream {
 public:
  /// `target` is the trace-core whose ops this stream replays (rate-mode
  /// co-scheduling maps machine cores onto trace cores explicitly).
  FilteredReplayStream(TraceSourcePtr source, CoreId target)
      : ReplayStream(target), source_(std::move(source)) {
    CDSIM_ASSERT(source_ != nullptr);
  }

 private:
  bool pull(MemOp& out) override;

  TraceSourcePtr source_;
};

/// Replays a trace on a machine: one ReplayDemux per system. The opener
/// runs once per system (plus once per detached core): CmpSystem requests
/// streams in core order, and a request for a core at or below the
/// previous one starts a fresh pass, so the factory is safely reusable
/// across runs.
StreamFactory streaming_replay_factory(TraceOpener open);

}  // namespace cdsim::workload
