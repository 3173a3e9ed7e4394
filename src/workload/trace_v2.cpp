#include "cdsim/workload/trace_v2.hpp"

#include <limits>
#include <memory>
#include <optional>
#include <string_view>
#include <utility>

namespace cdsim::workload {

namespace {

constexpr char kMagic[4] = {'C', 'D', 'T', '2'};
constexpr char kTrailerMagic[4] = {'2', 'T', 'D', 'C'};
constexpr std::uint32_t kVersion = 2;
constexpr std::size_t kHeaderBytes = 20;
constexpr std::size_t kChunkHeaderBytes = 16;
constexpr std::size_t kTrailerBytes = 20;
/// Sanity cap on chunk_records: bounds the decode buffer a hostile header
/// can make the reader allocate (4M records ~ 96 MB decoded).
constexpr std::uint32_t kMaxChunkRecords = 1u << 22;

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

std::uint32_t get_u32(const std::string& in, std::size_t off) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(
             static_cast<unsigned char>(in[off + static_cast<std::size_t>(i)]))
         << (8 * i);
  }
  return v;
}

std::uint64_t get_u64(const std::string& in, std::size_t off) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(
             static_cast<unsigned char>(in[off + static_cast<std::size_t>(i)]))
         << (8 * i);
  }
  return v;
}

std::uint64_t fnv1a(const std::string& data) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const char c : data) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

void put_varint(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

/// Bounds-checked varint decode; false on truncation or overlong input.
bool get_varint(const std::string& in, std::size_t& off, std::uint64_t& v) {
  v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (off >= in.size()) return false;
    const auto b = static_cast<unsigned char>(in[off++]);
    v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) return true;
  }
  return false;  // continuation bit past 10 bytes: overlong/corrupt
}

std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

void set_error(std::string* error, const std::string& msg) {
  if (error != nullptr) *error = msg;
}

}  // namespace

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

ChunkedTraceWriter::ChunkedTraceWriter(const std::string& path,
                                       std::uint32_t num_cores,
                                       std::uint32_t chunk_records)
    : path_(path), num_cores_(num_cores), chunk_records_(chunk_records) {
  if (num_cores_ == 0 || num_cores_ > 255) {
    fail("unserializable num_cores " + std::to_string(num_cores_) +
         " (must be 1..255)");
    return;
  }
  if (chunk_records_ == 0 || chunk_records_ > kMaxChunkRecords) {
    fail("chunk_records " + std::to_string(chunk_records_) +
         " out of range (1.." + std::to_string(kMaxChunkRecords) + ")");
    return;
  }
  out_.open(path_, std::ios::binary | std::ios::trunc);
  if (!out_) {
    fail("cannot open \"" + path_ + "\" for writing");
    return;
  }
  prev_addr_.assign(num_cores_, 0);
  core_ops_.assign(num_cores_, 0);
  core_instr_.assign(num_cores_, 0);

  std::string header;
  header.append(kMagic, sizeof(kMagic));
  put_u32(header, kVersion);
  put_u32(header, num_cores_);
  put_u32(header, chunk_records_);
  put_u32(header, 0);  // reserved
  out_.write(header.data(), static_cast<std::streamsize>(header.size()));
  if (!out_.good()) {
    fail("short write to \"" + path_ + "\"");
    return;
  }
  offset_ = header.size();
}

ChunkedTraceWriter::~ChunkedTraceWriter() { finish(); }

void ChunkedTraceWriter::fail(const std::string& msg) {
  if (error_.empty()) error_ = msg;
}

void ChunkedTraceWriter::append(const TraceRecord& rec) {
  if (!ok() || finished_) return;
  if (rec.core >= num_cores_) {
    fail("trace record names core " + std::to_string(rec.core) +
         " outside num_cores " + std::to_string(num_cores_));
    return;
  }
  buf_.push_back(static_cast<char>(rec.core));
  buf_.push_back(static_cast<char>(
      (static_cast<unsigned>(rec.op.type) & 0x3u) |
      (rec.op.dependent ? 0x4u : 0u)));
  buf_.push_back(static_cast<char>(rec.op.chain));
  put_varint(buf_, rec.op.gap);
  put_varint(buf_, zigzag(static_cast<std::int64_t>(
                       rec.op.addr - prev_addr_[rec.core])));
  prev_addr_[rec.core] = rec.op.addr;

  core_ops_[rec.core] += 1;
  core_instr_[rec.core] += static_cast<std::uint64_t>(rec.op.gap) + 1;
  ++total_;
  if (++buf_records_ == chunk_records_) flush_chunk();
}

void ChunkedTraceWriter::flush_chunk() {
  if (!ok() || buf_records_ == 0) return;
  if (buf_.size() > std::numeric_limits<std::uint32_t>::max()) {
    fail("chunk payload overflows u32");  // unreachable under kMaxChunkRecords
    return;
  }
  std::string head;
  put_u32(head, static_cast<std::uint32_t>(buf_.size()));
  put_u32(head, buf_records_);
  put_u64(head, fnv1a(buf_));
  out_.write(head.data(), static_cast<std::streamsize>(head.size()));
  out_.write(buf_.data(), static_cast<std::streamsize>(buf_.size()));
  if (!out_.good()) {
    fail("short write to \"" + path_ + "\"");
    return;
  }
  index_.push_back(
      {offset_, buf_records_, static_cast<std::uint32_t>(buf_.size())});
  offset_ += kChunkHeaderBytes + buf_.size();
  buf_.clear();
  buf_records_ = 0;
  // Chunks are self-contained: delta state restarts so the footer index
  // is a seek table (any chunk decodes without its predecessors).
  prev_addr_.assign(num_cores_, 0);
}

bool ChunkedTraceWriter::finish() {
  if (finished_) return ok();
  finished_ = true;
  if (!ok()) return false;
  flush_chunk();
  if (!ok()) return false;

  std::string body;
  put_u32(body, static_cast<std::uint32_t>(index_.size()));
  for (const ChunkEntry& e : index_) {
    put_u64(body, e.offset);
    put_u32(body, e.records);
    put_u32(body, e.payload_bytes);
  }
  put_u32(body, num_cores_);
  for (std::uint32_t c = 0; c < num_cores_; ++c) {
    put_u64(body, core_ops_[c]);
    put_u64(body, core_instr_[c]);
  }
  put_u64(body, total_);

  std::string tail;
  put_u64(tail, fnv1a(body));
  put_u64(tail, body.size());
  tail.append(kTrailerMagic, sizeof(kTrailerMagic));

  out_.write(body.data(), static_cast<std::streamsize>(body.size()));
  out_.write(tail.data(), static_cast<std::streamsize>(tail.size()));
  out_.flush();
  if (!out_.good()) fail("short write to \"" + path_ + "\"");
  return ok();
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

bool ChunkedTraceReader::fail(const std::string& msg) {
  if (error_.empty()) error_ = "\"" + path_ + "\": " + msg;
  return false;
}

std::unique_ptr<ChunkedTraceReader> ChunkedTraceReader::open(
    const std::string& path, std::string* error) {
  auto r = std::unique_ptr<ChunkedTraceReader>(new ChunkedTraceReader());
  r->path_ = path;
  r->in_.open(path, std::ios::binary);
  if (!r->in_) {
    set_error(error, "cannot open \"" + path + "\" for reading");
    return nullptr;
  }
  r->in_.seekg(0, std::ios::end);
  const auto end = r->in_.tellg();
  if (end < 0) {
    set_error(error, "\"" + path + "\": cannot determine file size");
    return nullptr;
  }
  const auto file_bytes = static_cast<std::uint64_t>(end);
  const auto bail = [&](const std::string& msg) {
    set_error(error, "\"" + path + "\": " + msg);
    return nullptr;
  };
  if (file_bytes < kHeaderBytes + kTrailerBytes) {
    return bail("too short to be a .cdt v2 trace");
  }

  const auto read_at = [&r](std::uint64_t off, std::size_t len,
                            std::string& out) {
    out.resize(len);
    r->in_.seekg(static_cast<std::streamoff>(off));
    r->in_.read(out.data(), static_cast<std::streamsize>(len));
    return r->in_.good();
  };

  std::string header;
  if (!read_at(0, kHeaderBytes, header)) return bail("short read (header)");
  if (header.compare(0, sizeof(kMagic), kMagic, sizeof(kMagic)) != 0) {
    return bail("not a .cdt v2 trace (bad magic)");
  }
  const std::uint32_t version = get_u32(header, 4);
  if (version != kVersion) {
    return bail("uses .cdt v2 format version " + std::to_string(version) +
                "; this reader supports " + std::to_string(kVersion));
  }
  TraceV2Info& info = r->info_;
  info.num_cores = get_u32(header, 8);
  info.chunk_records = get_u32(header, 12);
  info.file_bytes = file_bytes;
  if (info.num_cores == 0 || info.num_cores > 255) {
    return bail("header carries corrupt num_cores " +
                std::to_string(info.num_cores));
  }
  if (info.chunk_records == 0 || info.chunk_records > kMaxChunkRecords) {
    return bail("header carries corrupt chunk_records " +
                std::to_string(info.chunk_records));
  }

  std::string tail;
  if (!read_at(file_bytes - kTrailerBytes, kTrailerBytes, tail)) {
    return bail("short read (trailer)");
  }
  if (tail.compare(16, sizeof(kTrailerMagic), kTrailerMagic,
                   sizeof(kTrailerMagic)) != 0) {
    return bail("trailer magic missing: truncated or corrupt footer");
  }
  const std::uint64_t body_len = get_u64(tail, 8);
  const std::uint64_t footer_start =
      file_bytes - kTrailerBytes >= body_len
          ? file_bytes - kTrailerBytes - body_len
          : 0;
  if (body_len > file_bytes - kTrailerBytes - kHeaderBytes ||
      footer_start < kHeaderBytes) {
    return bail("footer length field is corrupt");
  }
  std::string body;
  if (!read_at(footer_start, static_cast<std::size_t>(body_len), body)) {
    return bail("short read (footer)");
  }
  if (fnv1a(body) != get_u64(tail, 0)) {
    return bail("footer checksum mismatch: file is corrupt");
  }

  // Parse + cross-validate the footer body.
  std::size_t off = 0;
  const auto need = [&](std::size_t n) { return off + n <= body.size(); };
  if (!need(4)) return bail("footer index is truncated");
  info.chunk_count = get_u32(body, off);
  off += 4;
  if (!need(static_cast<std::size_t>(info.chunk_count) * 16)) {
    return bail("footer index is truncated");
  }
  r->index_.reserve(info.chunk_count);
  std::uint64_t expect_offset = kHeaderBytes;
  std::uint64_t running_records = 0;
  for (std::uint32_t i = 0; i < info.chunk_count; ++i) {
    ChunkEntry e;
    e.offset = get_u64(body, off);
    e.records = get_u32(body, off + 8);
    e.payload_bytes = get_u32(body, off + 12);
    off += 16;
    if (e.offset != expect_offset) {
      return bail("footer index chunk " + std::to_string(i) +
                  " offset is inconsistent");
    }
    if (e.records == 0 || e.records > info.chunk_records) {
      return bail("footer index chunk " + std::to_string(i) +
                  " carries invalid record count");
    }
    if (i + 1 < info.chunk_count && e.records != info.chunk_records) {
      return bail("footer index chunk " + std::to_string(i) +
                  " is short but not final");
    }
    e.first_record = running_records;
    running_records += e.records;
    expect_offset += kChunkHeaderBytes + e.payload_bytes;
    info.payload_bytes += e.payload_bytes;
    r->index_.push_back(e);
  }
  if (expect_offset != footer_start) {
    return bail("chunk data does not span header..footer: truncated or "
                "oversized");
  }
  if (!need(4)) return bail("footer core table is truncated");
  if (get_u32(body, off) != info.num_cores) {
    return bail("footer num_cores disagrees with the header");
  }
  off += 4;
  if (!need(static_cast<std::size_t>(info.num_cores) * 16 + 8)) {
    return bail("footer core table is truncated");
  }
  std::uint64_t core_op_sum = 0;
  for (std::uint32_t c = 0; c < info.num_cores; ++c) {
    info.per_core_ops.push_back(get_u64(body, off));
    info.per_core_instr.push_back(get_u64(body, off + 8));
    core_op_sum += info.per_core_ops.back();
    off += 16;
  }
  info.total_records = get_u64(body, off);
  off += 8;
  if (off != body.size()) return bail("footer carries trailing bytes");
  if (running_records != info.total_records ||
      core_op_sum != info.total_records) {
    return bail("footer record counts are inconsistent");
  }
  return r;
}

std::vector<std::uint64_t> ChunkedTraceReader::per_core_instructions()
    const {
  std::vector<std::uint64_t> budget = info_.per_core_instr;
  for (auto& b : budget) {
    if (b == 0) b = 1;  // idle filler op (see trace_source.hpp)
  }
  return budget;
}

bool ChunkedTraceReader::load_chunk(std::uint32_t idx) {
  CDSIM_ASSERT(idx < index_.size());
  const ChunkEntry& e = index_[idx];
  in_.clear();
  in_.seekg(static_cast<std::streamoff>(e.offset));
  std::string& head = chunk_head_;
  head.resize(kChunkHeaderBytes);
  in_.read(head.data(), static_cast<std::streamsize>(head.size()));
  if (!in_.good()) return fail("short read (chunk header)");
  const std::uint32_t payload_bytes = get_u32(head, 0);
  const std::uint32_t records = get_u32(head, 4);
  // The chunk header must agree with the footer index — a mismatch means
  // one of the two is corrupt, and there is no way to tell which.
  if (payload_bytes != e.payload_bytes || records != e.records) {
    return fail("chunk " + std::to_string(idx) +
                " header disagrees with the footer index: file is corrupt");
  }
  std::string& payload = payload_;
  payload.resize(payload_bytes);
  in_.read(payload.data(), static_cast<std::streamsize>(payload.size()));
  if (!in_.good()) return fail("short read (chunk payload)");
  if (fnv1a(payload) != get_u64(head, 8)) {
    return fail("chunk " + std::to_string(idx) +
                " checksum mismatch: file is corrupt");
  }

  chunk_.clear();
  chunk_.reserve(records);
  std::vector<Addr>& prev = prev_addr_;
  prev.assign(info_.num_cores, 0);
  std::size_t off = 0;
  for (std::uint32_t i = 0; i < records; ++i) {
    if (off + 3 > payload.size()) {
      return fail("chunk " + std::to_string(idx) + " payload is truncated");
    }
    TraceRecord rec;
    rec.core = static_cast<unsigned char>(payload[off]);
    const auto meta = static_cast<unsigned char>(payload[off + 1]);
    rec.op.chain = static_cast<unsigned char>(payload[off + 2]);
    off += 3;
    if (rec.core >= info_.num_cores) {
      return fail("chunk " + std::to_string(idx) + " record " +
                  std::to_string(i) + " names an out-of-range core");
    }
    const unsigned type = meta & 0x3u;
    if ((meta & ~0x7u) != 0 ||
        type > static_cast<unsigned>(AccessType::kIFetch)) {
      return fail("chunk " + std::to_string(idx) + " record " +
                  std::to_string(i) + " carries invalid meta bits");
    }
    rec.op.type = static_cast<AccessType>(type);
    rec.op.dependent = (meta & 0x4u) != 0;
    std::uint64_t gap = 0;
    std::uint64_t delta = 0;
    if (!get_varint(payload, off, gap) ||
        gap > std::numeric_limits<std::uint32_t>::max() ||
        !get_varint(payload, off, delta)) {
      return fail("chunk " + std::to_string(idx) + " record " +
                  std::to_string(i) + " has a corrupt varint field");
    }
    rec.op.gap = static_cast<std::uint32_t>(gap);
    rec.op.addr =
        prev[rec.core] + static_cast<std::uint64_t>(unzigzag(delta));
    prev[rec.core] = rec.op.addr;
    chunk_.push_back(rec);
  }
  if (off != payload.size()) {
    return fail("chunk " + std::to_string(idx) +
                " payload carries trailing bytes");
  }
  cur_chunk_ = idx;
  chunk_loaded_ = true;
  return true;
}

bool ChunkedTraceReader::next(TraceRecord& out) {
  if (failed() || pos_ >= info_.total_records) return false;
  if (!chunk_loaded_ || chunk_pos_ >= chunk_.size()) {
    const std::uint32_t idx =
        chunk_loaded_ ? cur_chunk_ + 1 : cur_chunk_;
    if (idx >= index_.size() || !load_chunk(idx)) return false;
    chunk_pos_ = 0;
  }
  out = chunk_[chunk_pos_++];
  ++pos_;
  return true;
}

bool ChunkedTraceReader::skip(std::uint64_t n) {
  if (n > info_.total_records - pos_) {
    seek(info_.total_records);
    return false;
  }
  return seek(pos_ + n);
}

bool ChunkedTraceReader::seek(std::uint64_t rec) {
  if (failed()) return false;
  if (rec > info_.total_records) return false;
  if (rec == info_.total_records) {  // park at end
    pos_ = rec;
    chunk_loaded_ = !index_.empty();
    cur_chunk_ = index_.empty() ? 0 : static_cast<std::uint32_t>(
                                          index_.size() - 1);
    chunk_pos_ = chunk_.size();
    if (chunk_loaded_ && cur_chunk_ < index_.size()) {
      chunk_pos_ = index_[cur_chunk_].records;
      if (!load_chunk(cur_chunk_)) return false;
      chunk_pos_ = chunk_.size();
    }
    return true;
  }
  // Full chunks all hold chunk_records records, so the owner is a divide.
  const auto idx = static_cast<std::uint32_t>(rec / info_.chunk_records);
  CDSIM_ASSERT(idx < index_.size());
  if (!chunk_loaded_ || cur_chunk_ != idx) {
    if (!load_chunk(idx)) return false;
  }
  chunk_pos_ = static_cast<std::size_t>(rec - index_[idx].first_record);
  pos_ = rec;
  return true;
}

// ---------------------------------------------------------------------------
// Conversions + format sniffing
// ---------------------------------------------------------------------------

bool save_v2(const Trace& trace, const std::string& path, std::string* error,
             std::uint32_t chunk_records) {
  ChunkedTraceWriter w(path, trace.num_cores, chunk_records);
  for (const TraceRecord& r : trace.records) w.append(r);
  if (!w.finish()) {
    set_error(error, w.error());
    return false;
  }
  return true;
}

std::unique_ptr<TraceSource> open_trace_source(const std::string& path,
                                               std::string* error) {
  std::ifstream sniff(path, std::ios::binary);
  if (!sniff) {
    set_error(error, "cannot open \"" + path + "\" for reading");
    return nullptr;
  }
  char magic[4] = {};
  sniff.read(magic, sizeof(magic));
  if (!sniff.good()) {
    set_error(error, "\"" + path + "\" is too short to be a .cdt trace");
    return nullptr;
  }
  sniff.close();
  if (std::string_view(magic, 4) == std::string_view(kMagic, 4)) {
    return ChunkedTraceReader::open(path, error);
  }
  // v1 shim: load whole (v1 files are small — repros and goldens) and
  // stream through the in-memory bridge.
  std::optional<Trace> t = Trace::load(path, error);
  if (!t.has_value()) return nullptr;
  return std::make_unique<InMemoryTraceSource>(
      std::make_shared<const Trace>(std::move(*t)));
}

}  // namespace cdsim::workload
