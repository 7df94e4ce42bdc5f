// Shared pieces of the repo benchmark: the result report, clocks and order
// statistics, the trace collector that turns observe spans into per-layer
// figures, the set-up pipeline that turns committed FP32 weights into saved
// fixed-point programs, and the MAC count of a program.
//
// Every workload follows the same shape: set up (timed piece by piece, each
// piece repeated, see timed_setup), warm up, measure for --seconds in whole
// rounds of the same operations, then check outputs against oracles computed
// apart from the timed path.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.h"
#include "fixedpoint/engine.h"
#include "graph_opt/quantize_pass.h"
#include "models/zoo.h"
#include "observe/observe.h"

namespace perfbench {

using tqt::FixedPointProgram;
using tqt::ModelKind;
using tqt::Tensor;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string tmp_dir;  ///< scratch for saved programs; created by the caller
  std::string git_sha = "unavailable";
};

/// Load-generating threads of one process: nproc, at most 4.
int load_threads();

/// Metrics plus the operation tally printed as the run's last stdout line.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = {value, unit};
  }
  /// Set `name` unless a value is already recorded.
  void metric_default(const std::string& name, double value, const std::string& unit) {
    metrics_.emplace(name, std::make_pair(value, unit));
  }
  /// One attempted operation; `ok` false counts it as failed.
  void op(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  void ops(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  /// A checked output disagreed with its oracle.
  void wrong(const std::string& what);
  /// An informational line ("# key {json}") printed before the result.
  void note(const std::string& key, const std::string& json);

  bool correct() const { return wrong_ == 0; }
  std::string result_json() const;

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t wrong_ = 0;
};

// ---- Clocks and statistics ---------------------------------------------------

double now_s();          ///< steady clock, seconds
double process_cpu_s();  ///< CPU time of every thread of this process
double thread_cpu_s();   ///< CPU time of the calling thread
double peak_rss_mb();    ///< high-water resident set size

double median(std::vector<double> v);
double percentile(std::vector<double> v, double p);  ///< nearest-rank, p in (0,1]

/// Set-up made of `items` independent pieces, each done `reps` times.
/// The items x reps tasks run rep by rep on load_threads() threads, each
/// thread taking every load_threads()-th task, with the pool pinned to one
/// thread (restored to the default afterwards). `fn(item, rep)` does one
/// piece and returns its own wall time in seconds. Returns the sum over items
/// of each item's median time: the single-thread time of one whole set-up.
double timed_setup(int items, int reps, const std::function<double(int item, int rep)>& fn);

// ---- Host-speed gauge -------------------------------------------------------------

/// A fixed chunk of reference work, interleaved with a workload, that tells
/// how fast the host ran while the workload was measured. The speed of a vCPU
/// on a shared host changes by tens of percent for minutes at a time, and a
/// run's time figures follow it; dividing them by the gauge's own slowdown
/// over the same window gives figures at the reference speed. The gauge is
/// the benchmark's own code (an int8 and a float matrix product on cache-
/// resident data and a dependent integer chain), so a change to the program
/// leaves it alone.
class HostGauge {
 public:
  /// Wall and CPU time of one chunk relative to the reference host at its
  /// usual speed (kGaugeNominalS): 1.25 means the host ran 25% slow.
  struct Speed {
    double wall = 1.0, cpu = 1.0;
    uint64_t chunks = 0;
  };

  /// Runs one chunk on the calling thread and records its wall and thread CPU
  /// time. Returns the chunk's wall time, so callers can leave it out of theirs.
  double sample();
  void merge(const HostGauge& o);
  Speed speed() const;
  double wall_s() const { return wall_s_; }  ///< summed over the chunks
  double cpu_s() const { return cpu_s_; }

 private:
  double wall_s_ = 0, cpu_s_ = 0;
  uint64_t chunks_ = 0;
};

/// The time figures of one window.
struct WindowFigures {
  double img_per_s = 0, p50_us = 0, cpu_us_per_req = 0;
};

/// `raw` at the reference host speed: img_per_s multiplied by the wall
/// slowdown, p50_us divided by it, cpu_us_per_req divided by the CPU slowdown.
WindowFigures at_reference(const WindowFigures& raw, const HostGauge::Speed& speed);

// ---- Tracing -------------------------------------------------------------------

/// Aggregates observe::Tracer spans by name while tracing is on. A drain
/// copies every thread's ring and clears it; with `background` a helper thread
/// drains every few milliseconds so busy rings never wrap. Spans recorded
/// between one ring's copy and its clear are lost, so sums undercount by a
/// fraction of a percent under heavy multi-threaded load; drains from the
/// only recording thread (engine-zoo) are exact.
class TraceCollector {
 public:
  struct Agg {
    uint64_t count = 0;
    uint64_t total_ns = 0;
  };

  /// Clears the tracer, enables it and, when `background`, starts draining.
  void start(bool background);
  /// Disables tracing, stops the drain thread and drains what is left.
  void stop();
  /// Pause/resume recording without losing the aggregate.
  void set_recording(bool on);
  /// Copy every ring into the aggregate and clear it.
  void drain();
  /// Forget everything aggregated so far (the tracer keeps running).
  void reset();

  Agg get(const std::string& name) const;
  double total_ms(const std::string& name) const { return get(name).total_ns * 1e-6; }
  double mean_us(const std::string& name) const {
    const Agg a = get(name);
    return a.count ? a.total_ns * 1e-3 / static_cast<double>(a.count) : 0.0;
  }
  uint64_t dropped() const { return dropped_; }

 private:
  std::map<std::string, Agg> agg_;
  uint64_t dropped_ = 0;
  mutable std::mutex mu_;
  std::atomic<bool> running_{false};
  std::thread thread_;
};

// ---- Set-up pipeline -------------------------------------------------------------

/// The dataset every workload draws inputs from (the library's default).
const tqt::SyntheticImageDataset& dataset();

/// Committed FP32 weights of one zoo model (read-only).
std::string artifact_path(ModelKind kind);

enum class Precision { kW8, kW4pc };
const char* precision_name(Precision p);  ///< "w8" / "w4pc"

/// A quantized graph ready for compilation or retraining: FP32 weights
/// loaded, BN folded, quantizers inserted and calibrated.
struct QuantGraph {
  ModelKind kind{};
  tqt::BuiltModel model;
  tqt::QuantizePassResult qres;
};

/// models.load -> graph_opt.fold -> graph_opt.quantize_pass -> quant.calibrate,
/// each wrapped in a span of that name. `trainable` selects the TQT
/// (weights + thresholds) configuration; otherwise static calibration.
QuantGraph quantize_graph(ModelKind kind, Precision precision, bool trainable);

/// What compile_and_save produced.
struct Saved {
  int64_t file_bytes = 0;
  int fused_matmuls = 0;  ///< from the compiled program's fusion_stats()
};

/// fixedpoint.compile -> fixedpoint.save (spans of those names): compile the
/// graph (eval mode) and save it to `path`. A reloaded program is already
/// fused, so its own fusion_stats() count nothing; the compiled one's do.
Saved compile_and_save(QuantGraph& qg, const std::string& path);

/// fixedpoint.load (span of that name).
FixedPointProgram load_program(const std::string& path);

/// Multiply-accumulates one run of `p` performs on an input of shape `in`,
/// counted from the instructions' geometry and weight shapes.
int64_t count_macs(const FixedPointProgram& p, const tqt::Shape& in);

/// Rows [row, row + 1) of a batched tensor, as a batch of one.
Tensor row_of(const Tensor& batch, int64_t row);

/// Counter value in the process-wide registry.
uint64_t global_counter(const std::string& name);

// ---- Workloads -----------------------------------------------------------------

void run_engine_zoo(const Options& o, Report& r);
void run_serve_saturate(const Options& o, Report& r);
void run_tqt_retrain(const Options& o, Report& r);

/// The end-to-end metrics every workload prints (see README.md): the time
/// figures `at_ref` (see at_reference). The figures as timed (`raw`) and the
/// window's slowdowns are printed in a "# host_speed" note.
void report_end_to_end(Report& r, double setup_s, const WindowFigures& raw,
                       const WindowFigures& at_ref, const HostGauge::Speed& speed,
                       double arena_kb, double program_kb);

/// Per-layer metrics: every name is printed on every traced run; a layer a
/// workload does not exercise reads 0. `fill_zero_layers` writes those zeros
/// for every name not set yet.
void fill_zero_layers(Report& r);

/// Engine per-instruction-kind shares of engine.run_into time, from a trace.
void report_exec_shares(Report& r, const TraceCollector& tc);

/// Set-up per-layer metrics (ms per set-up) from the spans of `reps` set-ups.
void report_setup_layers(Report& r, const TraceCollector& tc, int reps);

}  // namespace perfbench
