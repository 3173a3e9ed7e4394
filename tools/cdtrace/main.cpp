// cdtrace — converter and toolbox for .cdt trace files.
//
//   cdtrace gen <out> --records=N [--cores=N] [--seed=N] [--text]
//                     [--chunk-records=N]
//       Generates a synthetic multi-core address trace: per-core pointer
//       churn over a private region, a shared pool, and random far
//       touches (deliberately delta-hostile so compressed sizes stay
//       honest). --text writes the "simple" text format below instead of
//       .cdt v2 — that is what CI feeds back through `convert`.
//
//   cdtrace convert <in> <out> [--format=simple|lackey] [--cores=N]
//                   [--chunk-records=N]
//       Ingests a text address trace into chunked .cdt v2, streaming —
//       O(chunk) memory regardless of input size.
//
//       simple (ChampSim-style one-access-per-line dumps):
//           <core> <L|S|I> <hex-addr> <gap>
//         '#' starts a comment; blank lines are skipped.
//
//       lackey (Valgrind --tool=lackey --trace-mem=yes output):
//           I  0023c790,2     instruction fetch: folded into the next
//                             record's gap (one retired instruction)
//            L 04ebab53,1     data load
//            S 1c0000b0,4     data store
//            M 0421c7f0,4     modify: expanded to load + store
//         Lackey is single-threaded; records land on core 0 unless
//         --cores=N spreads them round-robin per line.
//
//   cdtrace inspect <file>
//       Header/footer summary (no chunk decodes): cores, chunks, records,
//       per-core budgets, compression ratio.
//
//   cdtrace inspect --timeline <trace.json>
//       Validates a Chrome-trace-event timeline emitted by the simulator's
//       --trace-out flag (full JSON well-formedness walk, first error with
//       byte offset) and summarizes it: tracks, spans, instants, and the
//       covered cycle range.
//
//   cdtrace head <file> [--n=N]
//       First N records (default 10) in the simple text format.
//
//   cdtrace stats <file>
//       Full streaming pass: per-core and per-type counts, address range,
//       gap total. Works on v1 and v2 files alike.

#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cdsim/common/rng.hpp"
#include "cdsim/obs/json_check.hpp"
#include "cdsim/workload/trace_v2.hpp"

namespace {

using namespace cdsim;

int usage() {
  std::fprintf(stderr,
               "usage: cdtrace gen <out> --records=N [--cores=N] [--seed=N] "
               "[--text] [--chunk-records=N]\n"
               "       cdtrace convert <in> <out> [--format=simple|lackey] "
               "[--cores=N] [--chunk-records=N]\n"
               "       cdtrace inspect <file>\n"
               "       cdtrace inspect --timeline <trace.json>\n"
               "       cdtrace head <file> [--n=N]\n"
               "       cdtrace stats <file>\n");
  return 2;
}

struct Flags {
  std::uint64_t records = 0;
  std::uint32_t cores = 4;
  bool cores_set = false;
  std::uint64_t seed = 1;
  std::uint64_t n = 10;
  std::uint32_t chunk_records =
      workload::ChunkedTraceWriter::kDefaultChunkRecords;
  std::string format = "simple";
  bool text = false;
  bool timeline = false;
  std::vector<std::string> paths;
};

bool parse_flags(int argc, char** argv, int first, Flags& f) {
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto num = [&arg](std::size_t prefix) {
      return std::strtoull(arg.c_str() + prefix, nullptr, 10);
    };
    if (arg.rfind("--records=", 0) == 0) {
      f.records = num(10);
    } else if (arg.rfind("--cores=", 0) == 0) {
      f.cores = static_cast<std::uint32_t>(num(8));
      f.cores_set = true;
    } else if (arg.rfind("--seed=", 0) == 0) {
      f.seed = num(7);
    } else if (arg.rfind("--n=", 0) == 0) {
      f.n = num(4);
    } else if (arg.rfind("--chunk-records=", 0) == 0) {
      f.chunk_records = static_cast<std::uint32_t>(num(16));
    } else if (arg.rfind("--format=", 0) == 0) {
      f.format = arg.substr(9);
    } else if (arg == "--text") {
      f.text = true;
    } else if (arg == "--timeline") {
      f.timeline = true;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "cdtrace: unknown flag \"%s\"\n", arg.c_str());
      return false;
    } else {
      f.paths.push_back(arg);
    }
  }
  return true;
}

const char* type_letter(AccessType t) {
  switch (t) {
    case AccessType::kStore: return "S";
    case AccessType::kIFetch: return "I";
    default: return "L";
  }
}

/// Deterministic synthetic workload: sequential private churn, a shared
/// hot pool, and uniform-random far touches that defeat delta coding.
void gen_record(Xoshiro256& rng, std::uint32_t cores,
                workload::TraceRecord& rec) {
  const std::uint64_t r = rng.next();
  rec.core = static_cast<CoreId>(r % cores);
  const Addr priv = 0x100000000ull * (rec.core + 1);
  const std::uint64_t kind = (r >> 8) % 100;
  if (kind < 50) {  // private sequential-ish churn
    rec.op.addr = priv + ((r >> 16) % (1u << 20)) * 64;
  } else if (kind < 65) {  // shared pool: cross-core coherence traffic
    rec.op.addr = 0x20000000000ull + ((r >> 16) % 4096) * 64;
  } else {  // far touch: uniform over 1 TiB, ~5-byte deltas when encoded
    rec.op.addr = (r >> 12) % (1ull << 40);
  }
  rec.op.type = kind % 10 == 0
                    ? AccessType::kStore
                    : (kind % 37 == 0 ? AccessType::kIFetch
                                      : AccessType::kLoad);
  rec.op.gap = static_cast<std::uint32_t>((r >> 56) % 4);
  rec.op.dependent = (r >> 61) % 8 == 0;
  rec.op.chain = static_cast<std::uint8_t>((r >> 48) % 4);
}

int cmd_gen(const Flags& f) {
  if (f.paths.size() != 1 || f.records == 0 || f.cores == 0 ||
      f.cores > 255) {
    return usage();
  }
  Xoshiro256 rng(f.seed);
  workload::TraceRecord rec;
  if (f.text) {
    std::ofstream out(f.paths[0], std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "cdtrace: cannot open %s\n", f.paths[0].c_str());
      return 1;
    }
    out << "# cdtrace gen: <core> <L|S|I> <hex-addr> <gap>\n";
    for (std::uint64_t i = 0; i < f.records; ++i) {
      gen_record(rng, f.cores, rec);
      out << static_cast<unsigned>(rec.core) << ' '
          << type_letter(rec.op.type) << ' ' << std::hex << rec.op.addr
          << std::dec << ' ' << rec.op.gap << '\n';
    }
    if (!out.good()) {
      std::fprintf(stderr, "cdtrace: short write to %s\n",
                   f.paths[0].c_str());
      return 1;
    }
    return 0;
  }
  workload::ChunkedTraceWriter w(f.paths[0], f.cores, f.chunk_records);
  for (std::uint64_t i = 0; i < f.records; ++i) {
    gen_record(rng, f.cores, rec);
    w.append(rec);
  }
  if (!w.finish()) {
    std::fprintf(stderr, "cdtrace: %s\n", w.error().c_str());
    return 1;
  }
  std::printf("wrote %" PRIu64 " records to %s\n", w.records_written(),
              f.paths[0].c_str());
  return 0;
}

int convert_simple(std::istream& in, workload::ChunkedTraceWriter& w,
                   std::uint32_t cores) {
  std::string line;
  std::uint64_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream ss(line);
    unsigned core = 0;
    std::string type;
    std::uint64_t addr = 0;
    std::uint32_t gap = 0;
    if (!(ss >> core >> type)) continue;  // blank/comment line
    ss >> std::hex >> addr >> std::dec >> gap;
    if (ss.fail() || core >= cores ||
        (type != "L" && type != "S" && type != "I")) {
      std::fprintf(stderr, "cdtrace: line %" PRIu64 ": bad record \"%s\"\n",
                   lineno, line.c_str());
      return 1;
    }
    workload::TraceRecord rec;
    rec.core = static_cast<CoreId>(core);
    rec.op.addr = addr;
    rec.op.gap = gap;
    rec.op.type = type == "S"   ? AccessType::kStore
                  : type == "I" ? AccessType::kIFetch
                                : AccessType::kLoad;
    w.append(rec);
  }
  return 0;
}

int convert_lackey(std::istream& in, workload::ChunkedTraceWriter& w,
                   std::uint32_t cores) {
  std::string line;
  std::uint64_t lineno = 0;
  std::uint32_t pending_gap = 0;
  std::uint64_t next_core = 0;
  while (std::getline(in, line)) {
    ++lineno;
    std::istringstream ss(line);
    std::string kind;
    std::string rest;
    if (!(ss >> kind)) continue;
    if (kind == "==" || kind.rfind("==", 0) == 0) continue;  // valgrind noise
    if (!(ss >> rest)) {
      // "I addr,size" sometimes parses as one token ("I" already holds
      // the kind); anything else without an operand is noise.
      continue;
    }
    const std::size_t comma = rest.find(',');
    if (comma != std::string::npos) rest.resize(comma);
    char* end = nullptr;
    const std::uint64_t addr = std::strtoull(rest.c_str(), &end, 16);
    if (end == nullptr || *end != '\0') continue;  // not an address: skip
    if (kind == "I") {
      // Instruction fetch: retire one instruction before the next data
      // access instead of emitting a record (keeps traces compact and
      // budgets faithful).
      if (pending_gap < 0xffffffffu) ++pending_gap;
      continue;
    }
    if (kind != "L" && kind != "S" && kind != "M") {
      std::fprintf(stderr, "cdtrace: line %" PRIu64 ": bad record \"%s\"\n",
                   lineno, line.c_str());
      return 1;
    }
    workload::TraceRecord rec;
    rec.core = static_cast<CoreId>(next_core);
    next_core = (next_core + 1) % cores;
    rec.op.addr = addr;
    rec.op.gap = pending_gap;
    pending_gap = 0;
    if (kind == "M") {  // modify: read-modify-write
      rec.op.type = AccessType::kLoad;
      w.append(rec);
      rec.op.gap = 0;
      rec.op.type = AccessType::kStore;
      w.append(rec);
      continue;
    }
    rec.op.type = kind == "S" ? AccessType::kStore : AccessType::kLoad;
    w.append(rec);
  }
  return 0;
}

int cmd_convert(const Flags& f) {
  if (f.paths.size() != 2 || f.cores == 0 || f.cores > 255) return usage();
  if (f.format != "simple" && f.format != "lackey") {
    std::fprintf(stderr, "cdtrace: unknown format \"%s\"\n",
                 f.format.c_str());
    return 2;
  }
  // Lackey input is single-threaded: everything lands on core 0 unless
  // --cores explicitly spreads it.
  const std::uint32_t cores =
      (f.format == "lackey" && !f.cores_set) ? 1 : f.cores;
  std::ifstream in(f.paths[0]);
  if (!in) {
    std::fprintf(stderr, "cdtrace: cannot open %s\n", f.paths[0].c_str());
    return 1;
  }
  workload::ChunkedTraceWriter w(f.paths[1], cores, f.chunk_records);
  const int rc = f.format == "simple" ? convert_simple(in, w, cores)
                                      : convert_lackey(in, w, cores);
  if (rc != 0) return rc;
  if (!w.finish()) {
    std::fprintf(stderr, "cdtrace: %s\n", w.error().c_str());
    return 1;
  }
  std::printf("wrote %" PRIu64 " records to %s\n", w.records_written(),
              f.paths[1].c_str());
  return 0;
}

/// Counts non-overlapping occurrences of `needle` in `hay`.
std::uint64_t count_token(const std::string& hay, std::string_view needle) {
  std::uint64_t n = 0;
  for (std::size_t at = hay.find(needle); at != std::string::npos;
       at = hay.find(needle, at + needle.size())) {
    ++n;
  }
  return n;
}

int cmd_inspect_timeline(const Flags& f) {
  std::ifstream in(f.paths[0], std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cdtrace: cannot open %s\n", f.paths[0].c_str());
    return 1;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();

  const obs::JsonCheckResult chk = obs::json_check(text);
  if (!chk.ok) {
    std::fprintf(stderr,
                 "cdtrace: %s: invalid trace JSON at byte %zu: %s\n",
                 f.paths[0].c_str(), chk.error_at, chk.error.c_str());
    return 1;
  }

  // The checker proved well-formedness and the recorder's emitter writes
  // exactly one "ph" marker per event, so token counts are an accurate
  // summary without a DOM in memory.
  const std::uint64_t tracks = count_token(text, "\"ph\":\"M\"");
  const std::uint64_t spans = count_token(text, "\"ph\":\"X\"");
  const std::uint64_t instants = count_token(text, "\"ph\":\"i\"");

  // Covered cycle range: scan "ts": values (and span ends via "dur").
  std::uint64_t ts_lo = ~0ull;
  std::uint64_t ts_hi = 0;
  for (std::size_t at = text.find("\"ts\":"); at != std::string::npos;
       at = text.find("\"ts\":", at + 5)) {
    char* end = nullptr;
    const std::uint64_t ts = std::strtoull(text.c_str() + at + 5, &end, 10);
    std::uint64_t hi = ts;
    const std::size_t dur = text.find("\"dur\":", at);
    const std::size_t next = text.find("\"ts\":", at + 5);
    if (dur != std::string::npos && (next == std::string::npos || dur < next)) {
      hi += std::strtoull(text.c_str() + dur + 6, &end, 10);
    }
    if (ts < ts_lo) ts_lo = ts;
    if (hi > ts_hi) ts_hi = hi;
  }

  std::printf("format        trace-event JSON (valid)\n");
  std::printf("file bytes    %zu\n", text.size());
  std::printf("tracks        %" PRIu64 "\n", tracks);
  std::printf("spans         %" PRIu64 "\n", spans);
  std::printf("instants      %" PRIu64 "\n", instants);
  if (spans + instants > 0) {
    std::printf("cycle range   [%" PRIu64 ", %" PRIu64 "]\n", ts_lo, ts_hi);
  }
  return 0;
}

int cmd_inspect(const Flags& f) {
  if (f.paths.size() != 1) return usage();
  if (f.timeline) return cmd_inspect_timeline(f);
  std::string err;
  const auto r = workload::ChunkedTraceReader::open(f.paths[0], &err);
  if (r == nullptr) {
    std::fprintf(stderr, "cdtrace: %s\n", err.c_str());
    return 1;
  }
  const workload::TraceV2Info& info = r->info();
  std::printf("format        .cdt v2 (chunked)\n");
  std::printf("cores         %u\n", info.num_cores);
  std::printf("records       %" PRIu64 "\n", info.total_records);
  std::printf("chunks        %u x %u records\n", info.chunk_count,
              info.chunk_records);
  std::printf("file bytes    %" PRIu64 "\n", info.file_bytes);
  if (info.total_records > 0) {
    std::printf("payload       %" PRIu64 " bytes (%.2f B/record, %.2fx vs "
                "v1's 16)\n",
                info.payload_bytes,
                static_cast<double>(info.payload_bytes) /
                    static_cast<double>(info.total_records),
                16.0 * static_cast<double>(info.total_records) /
                    static_cast<double>(info.payload_bytes));
  }
  for (std::uint32_t c = 0; c < info.num_cores; ++c) {
    std::printf("core %-3u      %" PRIu64 " ops, %" PRIu64 " instr\n", c,
                info.per_core_ops[c], info.per_core_instr[c]);
  }
  return 0;
}

/// Exit status after streaming `src`: 1 (with the message) if it stopped
/// on a read error instead of at the end of the trace.
int source_status(const workload::TraceSource& src) {
  const std::string err = src.error();
  if (err.empty()) return 0;
  std::fprintf(stderr, "cdtrace: %s\n", err.c_str());
  return 1;
}

int cmd_head(const Flags& f) {
  if (f.paths.size() != 1) return usage();
  std::string err;
  const auto src = workload::open_trace_source(f.paths[0], &err);
  if (src == nullptr) {
    std::fprintf(stderr, "cdtrace: %s\n", err.c_str());
    return 1;
  }
  workload::TraceRecord rec;
  for (std::uint64_t i = 0; i < f.n && src->next(rec); ++i) {
    std::printf("%u %s %" PRIx64 " %u%s\n", rec.core,
                type_letter(rec.op.type), rec.op.addr, rec.op.gap,
                rec.op.dependent ? " dep" : "");
  }
  return source_status(*src);
}

int cmd_stats(const Flags& f) {
  if (f.paths.size() != 1) return usage();
  std::string err;
  const auto src = workload::open_trace_source(f.paths[0], &err);
  if (src == nullptr) {
    std::fprintf(stderr, "cdtrace: %s\n", err.c_str());
    return 1;
  }
  std::vector<std::uint64_t> per_core(src->num_cores(), 0);
  std::uint64_t by_type[3] = {0, 0, 0};
  std::uint64_t total = 0;
  std::uint64_t gaps = 0;
  std::uint64_t dependent = 0;
  Addr lo = ~0ull;
  Addr hi = 0;
  workload::TraceRecord rec;
  while (src->next(rec)) {
    ++total;
    per_core[rec.core] += 1;
    by_type[static_cast<unsigned>(rec.op.type) % 3] += 1;
    gaps += rec.op.gap;
    dependent += rec.op.dependent ? 1 : 0;
    if (rec.op.addr < lo) lo = rec.op.addr;
    if (rec.op.addr > hi) hi = rec.op.addr;
  }
  std::printf("records       %" PRIu64 "\n", total);
  std::printf("loads/stores/ifetch  %" PRIu64 " / %" PRIu64 " / %" PRIu64
              "\n",
              by_type[static_cast<unsigned>(AccessType::kLoad) % 3],
              by_type[static_cast<unsigned>(AccessType::kStore) % 3],
              by_type[static_cast<unsigned>(AccessType::kIFetch) % 3]);
  std::printf("dependent     %" PRIu64 "\n", dependent);
  std::printf("instructions  %" PRIu64 " (records + gaps)\n", total + gaps);
  if (total > 0) {
    std::printf("addr range    [%" PRIx64 ", %" PRIx64 "]\n", lo, hi);
  }
  for (std::size_t c = 0; c < per_core.size(); ++c) {
    std::printf("core %-3zu      %" PRIu64 " ops\n", c, per_core[c]);
  }
  return source_status(*src);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  Flags f;
  if (!parse_flags(argc, argv, 2, f)) return 2;
  if (cmd == "gen") return cmd_gen(f);
  if (cmd == "convert") return cmd_convert(f);
  if (cmd == "inspect") return cmd_inspect(f);
  if (cmd == "head") return cmd_head(f);
  if (cmd == "stats") return cmd_stats(f);
  return usage();
}
