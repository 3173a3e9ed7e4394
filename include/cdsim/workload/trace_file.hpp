#pragma once
// Portable .cdt v1 trace format: capture, storage, and replay of per-core
// memory-operation streams.
//
// A Trace is the exact sequence of MemOps the simulator drew from each
// core's workload stream, in global draw order. Because every workload
// stream is a deterministic function of its inputs and the event kernel is
// deterministic, replaying a captured trace (with per-core budgets of
// exactly sum(gap+1)) reproduces the original run bit-identically — which
// is what makes traces usable as divergence repros, as shrinker input, and
// as a scenario class of their own (real program traces driven through the
// leakage techniques).
//
// On-disk layout (.cdt, all integers little-endian, version 1):
//
//   offset  size  field
//   0       4     magic "CDTF"
//   4       4     u32 format version (1)
//   8       4     u32 num_cores
//   12      8     u64 record count N
//   20      16*N  records: u64 addr | u32 gap | u8 core | u8 type
//                          | u8 flags (bit0 = dependent) | u8 chain
//   20+16N  8     u64 FNV-1a checksum over the N*16 record bytes
//
// The reader rejects wrong magic, unsupported versions, truncated or
// oversized files, checksum mismatches, and out-of-range fields — a
// corrupt trace fails loudly instead of replaying garbage.
//
// v1 is the uncompressed, load-it-whole format kept for shrinker repros
// and hand-built tests; the chunked, compressed, O(1)-memory successor is
// .cdt v2 (trace_v2.hpp). open_trace_source() in trace_v2.hpp streams
// either version through the TraceSource interface.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cdsim/workload/trace_source.hpp"

namespace cdsim::workload {

/// A captured (or hand-built) in-memory trace plus its .cdt v1
/// (de)serialization. Implements TraceSink, so capture decorators write
/// into it directly.
struct Trace : TraceSink {
  static constexpr std::uint32_t kFormatVersion = 1;

  std::uint32_t num_cores = 0;
  std::vector<TraceRecord> records;  ///< Global draw order.

  void append(const TraceRecord& rec) override { records.push_back(rec); }

  /// Writes the trace to `path`. Returns false (and sets *error) on I/O
  /// failure or unserializable content.
  bool save(const std::string& path, std::string* error = nullptr) const;

  /// Reads a .cdt v1 file. Returns nullopt (and sets *error) for
  /// unreadable, corrupt, truncated, or version-mismatched files.
  static std::optional<Trace> load(const std::string& path,
                                   std::string* error = nullptr);

  /// Per-core op sequences, in draw order (size = num_cores).
  [[nodiscard]] std::vector<std::vector<MemOp>> ops_by_core() const;

  /// Instruction budget that makes a replayed core commit exactly its
  /// recorded ops: sum of (gap + 1) per core. Cores with no records get 1
  /// (they replay a single idle filler op — see trace_source.hpp).
  [[nodiscard]] std::vector<std::uint64_t> per_core_instructions() const;
};

/// TraceSource cursor over an in-memory Trace (shared, never copied).
/// Bridges v1 traces — and any hand-built Trace — into the streaming
/// replay machinery.
class InMemoryTraceSource final : public TraceSource {
 public:
  explicit InMemoryTraceSource(std::shared_ptr<const Trace> trace)
      : trace_(std::move(trace)) {
    CDSIM_ASSERT(trace_ != nullptr);
  }

  bool next(TraceRecord& out) override {
    if (pos_ >= trace_->records.size()) return false;
    out = trace_->records[pos_++];
    return true;
  }

  bool skip(std::uint64_t n) override {
    const std::size_t left = trace_->records.size() - pos_;
    if (n > left) {
      pos_ = trace_->records.size();
      return false;
    }
    pos_ += static_cast<std::size_t>(n);
    return true;
  }

  [[nodiscard]] std::uint32_t num_cores() const override {
    return trace_->num_cores;
  }

  [[nodiscard]] std::vector<std::uint64_t> per_core_instructions()
      const override {
    return trace_->per_core_instructions();
  }

 private:
  std::shared_ptr<const Trace> trace_;
  std::size_t pos_ = 0;
};

/// Replays a shared in-memory trace without duplicating its records:
/// streaming_replay_factory over InMemoryTraceSource cursors (see
/// trace_source.hpp for the shared cursor and the tail/idle-core contract).
StreamFactory replay_factory(std::shared_ptr<const Trace> trace);

/// Convenience overload for temporaries: copies `trace` once into shared
/// ownership so the factory outlives it. Callers holding a stable Trace
/// should prefer the shared_ptr overload (no copy).
StreamFactory replay_factory(const Trace& trace);

}  // namespace cdsim::workload
