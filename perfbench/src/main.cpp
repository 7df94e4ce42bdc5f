// tqt_perfbench: one workload of the repo benchmark per invocation.
//
//   tqt_perfbench --workload NAME --seed N --seconds S --trace 0|1 --tmp DIR
//                 [--git-sha SHA]
//
// Workloads: engine-zoo, serve-saturate, tqt-retrain (README.md).
// Prints "# host {...}" (fingerprint and host-speed probe), other "# ..."
// reference lines, and as its last line one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// Exits 0 when the workload ran to its end, 1 on any error.
#include <cpuid.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>

#include "common.h"
#include "fixedpoint/kernels/kernels.h"
#include "runtime/parallel.h"

namespace perfbench {
namespace {

struct CpuFlags {
  bool avx2 = false, avx512_vnni = false, avx_vnni = false, amx_int8 = false;
};

CpuFlags cpu_flags() {
  CpuFlags f;
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (__get_cpuid_count(7, 0, &a, &b, &c, &d)) {
    f.avx2 = (b >> 5) & 1;
    f.avx512_vnni = (c >> 11) & 1;
    f.amx_int8 = (d >> 25) & 1;
  }
  if (__get_cpuid_count(7, 1, &a, &b, &c, &d)) f.avx_vnni = (a >> 4) & 1;
  return f;
}

/// A fixed amount of dependent integer work, timed. A slow virtual CPU shows
/// as a larger figure; it is printed for reference, never as a metric.
double host_probe_ms() {
  double best = 1e30;
  for (int rep = 0; rep < 5; ++rep) {
    const double t0 = now_s();
    uint64_t x = 0x9E3779B97F4A7C15ull;
    for (int i = 0; i < 2'000'000; ++i) {
      x ^= x >> 12;
      x ^= x << 25;
      x ^= x >> 27;
      x *= 0x2545F4914F6CDD1Dull;
    }
    const double ms = (now_s() - t0) * 1e3;
    if (x == 42) std::printf("#\n");  // keeps the loop observable
    best = std::min(best, ms);
  }
  return best;
}

std::string host_json(const Options& o) {
  const CpuFlags f = cpu_flags();
  auto b = [](bool v) { return v ? "true" : "false"; };
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\"nproc\": %u, \"pool_threads\": %d, \"kernels\": \"%s\", \"avx2\": %s, "
                "\"avx512_vnni\": %s, \"avx_vnni\": %s, \"amx_int8\": %s, \"git_sha\": \"%s\", "
                "\"probe_ms\": %.3f}",
                std::thread::hardware_concurrency(), tqt::num_threads(),
                tqt::fpk::active_kernels().name, b(f.avx2), b(f.avx512_vnni), b(f.avx_vnni),
                b(f.amx_int8), o.git_sha.c_str(), host_probe_ms());
  return buf;
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + a);
    const std::string v = argv[++i];
    if (a == "--workload") o.workload = v;
    else if (a == "--seed") o.seed = std::stoull(v);
    else if (a == "--seconds") o.seconds = std::stod(v);
    else if (a == "--trace") o.trace = v == "1";
    else if (a == "--tmp") o.tmp_dir = v;
    else if (a == "--git-sha") o.git_sha = v;
    else throw std::invalid_argument("unknown flag " + a);
  }
  if (o.workload.empty()) throw std::invalid_argument("--workload is required");
  if (o.tmp_dir.empty()) throw std::invalid_argument("--tmp is required");
  if (!(o.seconds > 0)) throw std::invalid_argument("--seconds must be positive");
  return o;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const Options o = parse(argc, argv);
    Report r;
    r.note("host", host_json(o));
    if (o.workload == "engine-zoo") run_engine_zoo(o, r);
    else if (o.workload == "serve-saturate") run_serve_saturate(o, r);
    else if (o.workload == "tqt-retrain") run_tqt_retrain(o, r);
    else throw std::invalid_argument("unknown workload " + o.workload);
    if (o.trace) fill_zero_layers(r);
    std::printf("%s\n", r.result_json().c_str());
    std::fflush(stdout);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tqt_perfbench: error: %s\n", e.what());
    return 1;
  }
}
