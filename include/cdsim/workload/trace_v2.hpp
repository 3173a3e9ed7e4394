#pragma once
// Chunked, compressed .cdt v2: the streaming trace format. Multi-gigabyte
// traces replay with O(chunk) memory; capture streams straight to disk.
//
// On-disk layout (all integers little-endian):
//
//   header (20 bytes)
//     0   4   magic "CDT2"
//     4   4   u32 format version (2)
//     8   4   u32 num_cores (1..255)
//     12  4   u32 chunk_records (records per full chunk)
//     16  4   u32 reserved (0)
//
//   chunks (repeated; every chunk self-contained and checksummed)
//     0   4   u32 payload_bytes
//     4   4   u32 record_count (1..chunk_records; only the final chunk
//              may be short)
//     8   8   u64 FNV-1a checksum of the payload bytes
//     16  *   compressed payload (see below)
//
//   footer body
//     u32 chunk_count
//     chunk_count x { u64 file_offset, u32 record_count, u32 payload_bytes }
//     u32 num_cores (must match the header)
//     num_cores x { u64 ops, u64 instr_sum }   // instr_sum = sum(gap + 1)
//     u64 total_records
//
//   trailer (20 bytes, parsed from the end of the file)
//     u64 FNV-1a checksum of the footer body
//     u64 footer body length in bytes
//     4   magic "2TDC"
//
// Payload compression is per-core delta + zigzag varint: each record is
//   u8 core | u8 meta (type in bits 0-1, dependent in bit 2) | u8 chain |
//   varint gap | varint zigzag(addr - prev_addr[core])
// with prev_addr reset to 0 at every chunk boundary, so any chunk decodes
// without its predecessors — that is what makes the footer index a real
// seek table (seek/resume lands on a chunk and decodes forward). Typical
// captures compress ~3-4x against v1's fixed 16-byte records.
//
// The reader validates the header, the trailer magic, the footer checksum
// and every cross-reference (chunk offsets contiguous from the header to
// the footer, record counts consistent, per-core sums matching the total)
// at open(); each chunk's checksum and field ranges are checked when the
// chunk is first decoded. Corruption anywhere fails loudly — never
// crashes, never replays garbage.

#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "cdsim/workload/trace_file.hpp"
#include "cdsim/workload/trace_source.hpp"

namespace cdsim::workload {

/// Parsed header + footer summary of a v2 file (cheap: no chunk reads).
struct TraceV2Info {
  std::uint32_t num_cores = 0;
  std::uint32_t chunk_records = 0;
  std::uint32_t chunk_count = 0;
  std::uint64_t total_records = 0;
  std::uint64_t file_bytes = 0;
  std::uint64_t payload_bytes = 0;  ///< Compressed payload across chunks.
  std::vector<std::uint64_t> per_core_ops;
  /// Raw per-core sum(gap + 1); 0 for cores the trace never scheduled
  /// (per_core_instructions() applies the idle-filler minimum of 1).
  std::vector<std::uint64_t> per_core_instr;
};

/// Streaming .cdt v2 writer: O(chunk) memory, append one record at a
/// time, finish() (or destruction) seals the footer. All I/O errors latch
/// into ok()/error() — appends after a failure are ignored.
class ChunkedTraceWriter final : public TraceSink {
 public:
  static constexpr std::uint32_t kDefaultChunkRecords = 1u << 16;
  static_assert(kDefaultChunkRecords == kReplayQueueCap,
                "the replay queue cap is one default chunk of ops");

  ChunkedTraceWriter(const std::string& path, std::uint32_t num_cores,
                     std::uint32_t chunk_records = kDefaultChunkRecords);
  ~ChunkedTraceWriter() override;

  ChunkedTraceWriter(const ChunkedTraceWriter&) = delete;
  ChunkedTraceWriter& operator=(const ChunkedTraceWriter&) = delete;

  void append(const TraceRecord& rec) override;

  /// Flushes the partial chunk and writes the footer. Idempotent. Returns
  /// ok(): false if any write failed or a record was invalid.
  bool finish();

  [[nodiscard]] bool ok() const { return error_.empty(); }
  [[nodiscard]] const std::string& error() const { return error_; }
  [[nodiscard]] std::uint64_t records_written() const { return total_; }

 private:
  void fail(const std::string& msg);
  void flush_chunk();

  struct ChunkEntry {
    std::uint64_t offset = 0;
    std::uint32_t records = 0;
    std::uint32_t payload_bytes = 0;
  };

  std::ofstream out_;
  std::string path_;
  std::uint32_t num_cores_ = 0;
  std::uint32_t chunk_records_ = 0;
  std::string buf_;                  ///< Encoded payload of the open chunk.
  std::uint32_t buf_records_ = 0;
  std::vector<Addr> prev_addr_;      ///< Per-core delta state (chunk-local).
  std::vector<ChunkEntry> index_;
  std::vector<std::uint64_t> core_ops_;
  std::vector<std::uint64_t> core_instr_;
  std::uint64_t total_ = 0;
  std::uint64_t offset_ = 0;         ///< Current file write offset.
  bool finished_ = false;
  std::string error_;
};

/// Streaming .cdt v2 reader: validates header/footer at open(), then
/// decodes one chunk at a time into buffers reused across chunks. next()
/// returns false at end-of-trace OR on corruption — failed()/error()
/// distinguish the two.
class ChunkedTraceReader final : public TraceSource {
 public:
  /// Returns nullptr (and sets *error) on any validation failure.
  static std::unique_ptr<ChunkedTraceReader> open(
      const std::string& path, std::string* error = nullptr);

  bool next(TraceRecord& out) override;

  [[nodiscard]] std::uint32_t num_cores() const override {
    return info_.num_cores;
  }

  [[nodiscard]] std::vector<std::uint64_t> per_core_instructions()
      const override;

  /// seek(position() + n); parks at the end and returns false if fewer
  /// than `n` records remain.
  bool skip(std::uint64_t n) override;

  /// Repositions the cursor to global record index `rec` (0-based; `rec`
  /// == total_records parks at end). Lands on the containing chunk via
  /// the footer index and decodes forward. Returns false (failed() set)
  /// on corruption, or cleanly if rec is out of range.
  bool seek(std::uint64_t rec);

  /// Global index of the record next() will return.
  [[nodiscard]] std::uint64_t position() const { return pos_; }

  [[nodiscard]] const TraceV2Info& info() const { return info_; }
  [[nodiscard]] bool failed() const { return !error_.empty(); }
  [[nodiscard]] std::string error() const override { return error_; }

 private:
  ChunkedTraceReader() = default;

  bool fail(const std::string& msg);
  bool load_chunk(std::uint32_t idx);

  struct ChunkEntry {
    std::uint64_t offset = 0;
    std::uint64_t first_record = 0;  ///< Global index of its first record.
    std::uint32_t records = 0;
    std::uint32_t payload_bytes = 0;
  };

  std::ifstream in_;
  std::string path_;
  TraceV2Info info_;
  std::vector<ChunkEntry> index_;
  std::vector<TraceRecord> chunk_;   ///< Decoded records of cur_chunk_.
  std::string chunk_head_;           ///< Raw chunk header (reused).
  std::string payload_;              ///< Raw chunk payload (reused).
  std::vector<Addr> prev_addr_;      ///< Per-core delta state (reused).
  std::uint32_t cur_chunk_ = 0;      ///< Index of the chunk in chunk_.
  bool chunk_loaded_ = false;
  std::size_t chunk_pos_ = 0;        ///< Next record within chunk_.
  std::uint64_t pos_ = 0;            ///< Global record index of next().
  std::string error_;
};

/// Writes an in-memory trace as .cdt v2.
bool save_v2(const Trace& trace, const std::string& path,
             std::string* error = nullptr,
             std::uint32_t chunk_records =
                 ChunkedTraceWriter::kDefaultChunkRecords);

/// Sniffs the magic and opens a streaming cursor over either format: v2
/// files stream chunk-by-chunk; v1 files load whole (they are small —
/// shrinker repros and goldens) behind an InMemoryTraceSource shim.
/// Returns nullptr and sets *error on failure.
std::unique_ptr<TraceSource> open_trace_source(const std::string& path,
                                               std::string* error = nullptr);

}  // namespace cdsim::workload
