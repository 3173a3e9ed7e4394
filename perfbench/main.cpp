// cdsim_perfbench: runs one benchmark workload and prints its result.
//
//   cdsim_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   [--scratch DIR]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Failure messages go to standard error. perfbench/run.py builds this
// binary and is the entry point BENCHMARK.json names.
//
// Everything runs in this one thread: no ThreadPool, no run_grid. On a
// small shared host, parallel workers would measure the OS scheduler and
// the neighbours' load rather than the simulator, so grid parallelism is
// deliberately left unmeasured here.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "perfbench.hpp"

namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string scratch_dir = ".";
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "cdsim_perfbench: %s\nusage: cdsim_perfbench --workload NAME "
               "--seed N --seconds S --trace 0|1 [--scratch DIR]\n",
               msg);
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& s, const char* flag) {
  if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos ||
      s.size() > 19) {
    usage((std::string(flag) + " needs a non-negative integer").c_str());
  }
  return std::stoull(s);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  bool have_seed = false;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      o.seed = parse_u64(value, "--seed");
      have_seed = true;
    } else if (flag == "--seconds") {
      const std::uint64_t s = parse_u64(value, "--seconds");
      if (s < 1 || s > 120) usage("--seconds must be 1..120");
      o.seconds = static_cast<double>(s);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace must be 0 or 1");
      o.trace = value == "1";
    } else if (flag == "--scratch") {
      o.scratch_dir = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds) {
    usage("--workload, --seed and --seconds are required");
  }
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts = parse(argc, argv);
  try {
    const perfbench::Workload w =
        perfbench::make_workload(opts.workload, opts.seed, opts.scratch_dir);
    const perfbench::RunReport r =
        opts.trace ? perfbench::run_traced(w, opts.seconds)
                   : perfbench::run_plain(w, opts.seconds);
    for (const perfbench::Metric& m : r.metrics) {
      if (!perfbench::valid_metric_name(m.name) || !std::isfinite(m.value)) {
        std::fprintf(stderr, "cdsim_perfbench: bad metric %s\n",
                     m.name.c_str());
        return 1;
      }
    }
    for (const std::string& f : r.failures) {
      std::fprintf(stderr, "cdsim_perfbench: FAILED %s\n", f.c_str());
    }
    std::printf("%s\n", perfbench::result_json(r).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cdsim_perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
