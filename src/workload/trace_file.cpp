#include "cdsim/workload/trace_file.hpp"

#include <fstream>
#include <memory>
#include <sstream>
#include <utility>

#include "cdsim/common/assert.hpp"

namespace cdsim::workload {

namespace {

constexpr char kMagic[4] = {'C', 'D', 'T', 'F'};
constexpr std::size_t kHeaderBytes = 20;
constexpr std::size_t kRecordBytes = 16;
constexpr std::size_t kChecksumBytes = 8;

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

std::uint64_t fnv1a(const std::string& data, std::size_t off,
                    std::size_t len) {
  std::uint64_t h = 14695981039346656037ULL;
  for (std::size_t i = 0; i < len; ++i) {
    h ^= static_cast<unsigned char>(data[off + i]);
    h *= 1099511628211ULL;
  }
  return h;
}

void fail(std::string* error, const std::string& msg) {
  if (error != nullptr) *error = msg;
}

}  // namespace

bool Trace::save(const std::string& path, std::string* error) const {
  if (num_cores == 0 || num_cores > 255) {
    fail(error, "trace has unserializable num_cores " +
                    std::to_string(num_cores) + " (must be 1..255)");
    return false;
  }
  std::string body;
  body.reserve(records.size() * kRecordBytes);
  for (const TraceRecord& r : records) {
    if (r.core >= num_cores) {
      fail(error, "trace record names core " + std::to_string(r.core) +
                      " outside num_cores " + std::to_string(num_cores));
      return false;
    }
    put_u64(body, r.op.addr);
    put_u32(body, r.op.gap);
    body.push_back(static_cast<char>(r.core));
    body.push_back(static_cast<char>(r.op.type));
    body.push_back(static_cast<char>(r.op.dependent ? 1 : 0));
    body.push_back(static_cast<char>(r.op.chain));
  }

  std::string out;
  out.reserve(kHeaderBytes + body.size() + kChecksumBytes);
  out.append(kMagic, sizeof(kMagic));
  put_u32(out, kFormatVersion);
  put_u32(out, num_cores);
  put_u64(out, records.size());
  out += body;
  put_u64(out, fnv1a(body, 0, body.size()));

  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) {
    fail(error, "cannot open \"" + path + "\" for writing");
    return false;
  }
  f.write(out.data(), static_cast<std::streamsize>(out.size()));
  f.flush();
  if (!f.good()) {
    fail(error, "short write to \"" + path + "\"");
    return false;
  }
  return true;
}

std::optional<Trace> Trace::load(const std::string& path,
                                 std::string* error) {
  std::ifstream f(path, std::ios::binary);
  if (!f) {
    fail(error, "cannot open \"" + path + "\" for reading");
    return std::nullopt;
  }
  std::ostringstream ss;
  ss << f.rdbuf();
  const std::string data = ss.str();

  if (data.size() < kHeaderBytes + kChecksumBytes) {
    fail(error, "\"" + path + "\" is too short to be a .cdt trace");
    return std::nullopt;
  }
  if (data.compare(0, sizeof(kMagic), kMagic, sizeof(kMagic)) != 0) {
    fail(error, "\"" + path + "\" is not a .cdt trace (bad magic)");
    return std::nullopt;
  }
  const std::uint32_t version = get_u32(data, 4);
  if (version != kFormatVersion) {
    fail(error, "\"" + path + "\" uses .cdt format version " +
                    std::to_string(version) + "; this reader supports " +
                    std::to_string(kFormatVersion));
    return std::nullopt;
  }
  Trace t;
  t.num_cores = get_u32(data, 8);
  if (t.num_cores == 0 || t.num_cores > 255) {
    fail(error, "\"" + path + "\" header carries corrupt num_cores " +
                    std::to_string(t.num_cores));
    return std::nullopt;
  }
  const std::uint64_t n = get_u64(data, 12);
  // Divide, don't multiply: a crafted record count must not overflow the
  // size arithmetic into "valid" (size was checked >= header+checksum).
  const std::uint64_t max_records =
      (data.size() - kHeaderBytes - kChecksumBytes) / kRecordBytes;
  if (n != max_records ||
      data.size() !=
          kHeaderBytes + n * kRecordBytes + kChecksumBytes) {
    fail(error, "\"" + path + "\" is truncated or oversized: header promises " +
                    std::to_string(n) + " records, file has room for " +
                    std::to_string(max_records));
    return std::nullopt;
  }
  const std::uint64_t want_sum =
      get_u64(data, kHeaderBytes + static_cast<std::size_t>(n) * kRecordBytes);
  const std::uint64_t got_sum =
      fnv1a(data, kHeaderBytes, static_cast<std::size_t>(n) * kRecordBytes);
  if (want_sum != got_sum) {
    fail(error, "\"" + path + "\" checksum mismatch: file is corrupt");
    return std::nullopt;
  }

  t.records.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::size_t off =
        kHeaderBytes + static_cast<std::size_t>(i) * kRecordBytes;
    TraceRecord r;
    r.op.addr = get_u64(data, off);
    r.op.gap = get_u32(data, off + 8);
    r.core = static_cast<unsigned char>(data[off + 12]);
    const auto type = static_cast<unsigned char>(data[off + 13]);
    const auto flags = static_cast<unsigned char>(data[off + 14]);
    r.op.chain = static_cast<unsigned char>(data[off + 15]);
    if (r.core >= t.num_cores) {
      fail(error, "\"" + path + "\" record " + std::to_string(i) +
                      " names core " + std::to_string(r.core) +
                      " outside num_cores " + std::to_string(t.num_cores));
      return std::nullopt;
    }
    if (type > static_cast<unsigned char>(AccessType::kIFetch)) {
      fail(error, "\"" + path + "\" record " + std::to_string(i) +
                      " carries invalid access type " + std::to_string(type));
      return std::nullopt;
    }
    if (flags > 1) {
      fail(error, "\"" + path + "\" record " + std::to_string(i) +
                      " carries unknown flag bits");
      return std::nullopt;
    }
    r.op.type = static_cast<AccessType>(type);
    r.op.dependent = flags != 0;
    t.records.push_back(r);
  }
  return t;
}

std::vector<std::vector<MemOp>> Trace::ops_by_core() const {
  std::vector<std::vector<MemOp>> per(num_cores);
  for (const TraceRecord& r : records) {
    CDSIM_ASSERT(r.core < num_cores);
    per[r.core].push_back(r.op);
  }
  return per;
}

std::vector<std::uint64_t> Trace::per_core_instructions() const {
  std::vector<std::uint64_t> budget(num_cores, 0);
  for (const TraceRecord& r : records) {
    CDSIM_ASSERT(r.core < num_cores);
    budget[r.core] += static_cast<std::uint64_t>(r.op.gap) + 1;
  }
  for (auto& b : budget) {
    if (b == 0) b = 1;  // idle filler op (see trace_source.hpp)
  }
  return budget;
}

StreamFactory replay_factory(std::shared_ptr<const Trace> trace) {
  CDSIM_ASSERT(trace != nullptr);
  return streaming_replay_factory([trace]() -> TraceSourcePtr {
    return std::make_unique<InMemoryTraceSource>(trace);
  });
}

StreamFactory replay_factory(const Trace& trace) {
  return replay_factory(std::make_shared<const Trace>(trace));
}

}  // namespace cdsim::workload
