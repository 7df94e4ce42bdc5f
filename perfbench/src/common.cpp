#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <stdexcept>

#include "graph_opt/transforms.h"
#include "runtime/parallel.h"
#include "tensor/serialize.h"

namespace perfbench {

// ---- Report ----------------------------------------------------------------------

namespace {

std::string number(double v) {
  if (!std::isfinite(v)) throw std::runtime_error("perfbench: metric is not finite");
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);  // shortest round-trip form
  return std::string(buf, res.ptr);
}

}  // namespace

void Report::wrong(const std::string& what) {
  if (wrong_++ < 8) std::fprintf(stderr, "perfbench: WRONG OUTPUT: %s\n", what.c_str());
}

void Report::note(const std::string& key, const std::string& json) {
  std::printf("# %s %s\n", key.c_str(), json.c_str());
  std::fflush(stdout);
}

std::string Report::result_json() const {
  std::string s = "{\"correct\": ";
  s += correct() ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted_);
  s += ", \"failed\": " + std::to_string(failed_);
  s += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : metrics_) {
    if (!first) s += ", ";
    first = false;
    s += "\"" + name + "\": {\"value\": " + number(vu.first) + ", \"unit\": \"" + vu.second +
         "\"}";
  }
  s += "}}";
  return s;
}

int load_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(n, 1u, 4u));
}

// ---- Clocks and statistics ---------------------------------------------------------

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double timed_setup(int items, int reps, const std::function<double(int item, int rep)>& fn) {
  const int tasks = items * reps;
  const int n_threads = load_threads();
  std::vector<double> secs(static_cast<size_t>(tasks));
  std::exception_ptr error;
  std::mutex error_mu;
  dataset();  // built once here, not inside one piece while the others wait for it
  tqt::set_num_threads(1);
  std::vector<std::thread> threads;
  for (int t = 0; t < n_threads; ++t) {
    // A fixed share of the tasks per thread, so each thread's (and its
    // allocator arena's) sequence of pieces is the same in every run.
    threads.emplace_back([&, t] {
      for (int k = t; k < tasks; k += n_threads) {
        try {
          secs[static_cast<size_t>(k)] = fn(k % items, k / items);  // rep by rep
        } catch (...) {
          std::lock_guard<std::mutex> lk(error_mu);
          if (!error) error = std::current_exception();
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  tqt::set_num_threads(0);
  if (error) std::rethrow_exception(error);
  double total = 0;
  for (int i = 0; i < items; ++i) {
    std::vector<double> t;
    for (int rep = 0; rep < reps; ++rep) t.push_back(secs[static_cast<size_t>(rep * items + i)]);
    total += median(t);
  }
  return total;
}

// ---- Tracing ---------------------------------------------------------------------

void TraceCollector::start(bool background) {
  auto& tracer = tqt::observe::Tracer::global();
  tracer.clear();
  tracer.set_enabled(true);
  if (background) {
    running_ = true;
    thread_ = std::thread([this] {
      while (running_.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        drain();
      }
    });
  }
}

void TraceCollector::stop() {
  tqt::observe::Tracer::global().set_enabled(false);
  running_ = false;
  if (thread_.joinable()) thread_.join();
  drain();
}

void TraceCollector::set_recording(bool on) { tqt::observe::Tracer::global().set_enabled(on); }

void TraceCollector::drain() {
  auto& tracer = tqt::observe::Tracer::global();
  const std::vector<tqt::observe::ThreadTrace> threads = tracer.threads();
  tracer.clear();
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& t : threads) {
    dropped_ += t.dropped;
    for (const auto& ev : t.events) {
      Agg& a = agg_[ev.name ? ev.name : "?"];
      ++a.count;
      a.total_ns += ev.dur_ns;
    }
  }
}

void TraceCollector::reset() {
  drain();
  std::lock_guard<std::mutex> lk(mu_);
  agg_.clear();
  dropped_ = 0;
}

TraceCollector::Agg TraceCollector::get(const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = agg_.find(name);
  return it == agg_.end() ? Agg{} : it->second;
}

// ---- Set-up pipeline ---------------------------------------------------------------

const tqt::SyntheticImageDataset& dataset() {
  static const tqt::SyntheticImageDataset data(tqt::default_dataset_config());
  return data;
}

std::string artifact_path(ModelKind kind) {
  return "tqt_artifacts/" + tqt::model_name(kind) + "_fp32.tqt";
}

const char* precision_name(Precision p) { return p == Precision::kW8 ? "w8" : "w4pc"; }

QuantGraph quantize_graph(ModelKind kind, Precision precision, bool trainable) {
  const tqt::SyntheticImageDataset& data = dataset();
  QuantGraph qg;
  qg.kind = kind;
  {
    TQT_TRACE("models.load", "perfbench");
    const auto weights = tqt::load_tensors(artifact_path(kind));
    qg.model = tqt::build_model(kind, data.config().num_classes);
    qg.model.graph.load_state_dict(weights);
  }
  {
    // Same fold as core/pipeline's build_folded.
    TQT_TRACE("graph_opt.fold", "perfbench");
    qg.model.graph.set_training(false);
    tqt::optimize_for_quantization(qg.model.graph, qg.model.input,
                                   data.calibration_batch(2, 1));
  }
  tqt::QuantizeConfig qc;
  qc.trainable_thresholds = trainable;
  if (precision == Precision::kW4pc) {
    qc.precision.wbits = 4;
    qc.precision.per_channel_weights = true;
  }
  {
    TQT_TRACE("graph_opt.quantize_pass", "perfbench");
    qg.qres = tqt::quantize_pass(qg.model.graph, qg.model.input, qg.model.logits, qc);
  }
  {
    // run_quant_trial's defaults: 50 calibration images, MAX weight init for
    // static programs and 3SD for TQT retraining (paper Table 2).
    TQT_TRACE("quant.calibrate", "perfbench");
    tqt::calibrate_thresholds(qg.model.graph, qg.qres, qg.model.input,
                              data.calibration_batch(50, 50),
                              trainable ? tqt::WeightInit::k3Sd : tqt::WeightInit::kMax);
  }
  return qg;
}

Saved compile_and_save(QuantGraph& qg, const std::string& path) {
  FixedPointProgram compiled;
  {
    TQT_TRACE("fixedpoint.compile", "perfbench");
    compiled = tqt::compile_fixed_point(qg.model.graph, qg.model.input, qg.qres.quantized_output);
  }
  {
    TQT_TRACE("fixedpoint.save", "perfbench");
    compiled.save(path);
  }
  Saved s;
  s.file_bytes = static_cast<int64_t>(std::filesystem::file_size(path));
  s.fused_matmuls = compiled.fusion_stats().fused_matmuls;
  return s;
}

FixedPointProgram load_program(const std::string& path) {
  TQT_TRACE("fixedpoint.load", "perfbench");
  return FixedPointProgram::load(path);
}

int64_t count_macs(const FixedPointProgram& p, const tqt::Shape& in) {
  using K = tqt::FpInstr::Kind;
  std::vector<tqt::Shape> regs(static_cast<size_t>(p.register_count()));
  regs.at(static_cast<size_t>(p.input_reg())) = in;
  int64_t macs = 0;
  for (const tqt::FpInstr& ins : p.instructions()) {
    const tqt::Shape& x =
        regs.at(static_cast<size_t>(ins.inputs.empty() ? p.input_reg() : ins.inputs[0]));
    int64_t wnum = 1;
    for (int64_t d : ins.const_shape) wnum *= d;
    tqt::Shape y = x;
    switch (tqt::base_kind_of(ins.kind)) {
      case K::kConv2d:
      case K::kDepthwise:
      case K::kMaxPool: {
        const int64_t c = tqt::base_kind_of(ins.kind) == K::kConv2d ? ins.const_shape.back() : x[3];
        y = {x[0], ins.geom.out_h(x[1]), ins.geom.out_w(x[2]), c};
        // conv weights are [kh, kw, cin, cout], depthwise [kh, kw, c(, 1)]:
        // every weight is used once per output pixel.
        if (ins.kind != K::kMaxPool) macs += y[0] * y[1] * y[2] * wnum;
        break;
      }
      case K::kDense:
        y = {x[0], ins.const_shape.back()};
        macs += x[0] * wnum;
        break;
      case K::kConcat: {
        int64_t c = 0;
        for (int r : ins.inputs) c += regs.at(static_cast<size_t>(r)).back();
        y.back() = c;
        break;
      }
      case K::kFlatten:
        y = {x[0], tqt::numel_of(x) / x[0]};
        break;
      default:
        break;
    }
    regs.at(static_cast<size_t>(ins.output)) = y;
  }
  return macs;
}

Tensor row_of(const Tensor& batch, int64_t row) {
  tqt::Shape s = batch.shape();
  const int64_t per = tqt::numel_of(s) / s[0];
  s[0] = 1;
  return Tensor(s, std::vector<float>(batch.data() + row * per, batch.data() + (row + 1) * per));
}

uint64_t global_counter(const std::string& name) {
  return tqt::observe::MetricsRegistry::global().counter(name).value();
}

// ---- Metric tables -------------------------------------------------------------------

// ---- Host-speed gauge -------------------------------------------------------------

namespace {

// Wall time of one gauge chunk on the 4-vCPU reference host at its usual
// speed, one chunk per CPU interleaved with engine-zoo's callers.
constexpr double kGaugeNominalS = 0.26e-3;

struct GaugeData {
  static constexpr int kM = 16, kK = 256, kN = 64;
  int8_t a[kM * kK], b[kK * kN];
  int32_t c[kM * kN];
  float fa[kM * kK], fb[kK * kN], fc[kM * kN];
  GaugeData() {
    for (int i = 0; i < kM * kK; ++i) {
      a[i] = static_cast<int8_t>(i * 7 + 3);
      fa[i] = static_cast<float>(i % 17) * 0.125f;
    }
    for (int i = 0; i < kK * kN; ++i) {
      b[i] = static_cast<int8_t>(i * 13 + 1);
      fb[i] = static_cast<float>(i % 11) * 0.25f;
    }
  }
};

__attribute__((noinline)) uint64_t gauge_work(GaugeData& d) {
  constexpr int M = GaugeData::kM, K = GaugeData::kK, N = GaugeData::kN;
  for (int i = 0; i < M; ++i) {
    int32_t* c = d.c + i * N;
    float* fc = d.fc + i * N;
    for (int j = 0; j < N; ++j) c[j] = 0, fc[j] = 0;
    for (int k = 0; k < K; ++k) {
      const int32_t av = d.a[i * K + k];
      const float fav = d.fa[i * K + k];
      const int8_t* b = d.b + k * N;
      const float* fb = d.fb + k * N;
      for (int j = 0; j < N; ++j) c[j] += av * b[j];
      for (int j = 0; j < N; ++j) fc[j] += fav * fb[j];
    }
  }
  uint64_t x = static_cast<uint64_t>(d.c[M * N - 1]) ^ static_cast<uint64_t>(d.fc[5]);
  for (int i = 0; i < 60'000; ++i) {
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    x *= 0x2545F4914F6CDD1Dull;
  }
  return x;
}

}  // namespace

double HostGauge::sample() {
  thread_local GaugeData data;
  static std::atomic<uint64_t> sink{0};
  const double t0 = now_s(), c0 = thread_cpu_s();
  sink.fetch_add(gauge_work(data), std::memory_order_relaxed);
  const double wall = now_s() - t0;
  wall_s_ += wall;
  cpu_s_ += thread_cpu_s() - c0;
  ++chunks_;
  return wall;
}

void HostGauge::merge(const HostGauge& o) {
  wall_s_ += o.wall_s_;
  cpu_s_ += o.cpu_s_;
  chunks_ += o.chunks_;
}

HostGauge::Speed HostGauge::speed() const {
  Speed s;
  s.chunks = chunks_;
  if (chunks_ == 0) throw std::runtime_error("perfbench: host gauge took no samples");
  const double n = static_cast<double>(chunks_);
  s.wall = wall_s_ / n / kGaugeNominalS;
  s.cpu = cpu_s_ / n / kGaugeNominalS;
  return s;
}

WindowFigures at_reference(const WindowFigures& raw, const HostGauge::Speed& speed) {
  return {raw.img_per_s * speed.wall, raw.p50_us / speed.wall, raw.cpu_us_per_req / speed.cpu};
}

void report_end_to_end(Report& r, double setup_s, const WindowFigures& raw,
                       const WindowFigures& at_ref, const HostGauge::Speed& speed,
                       double arena_kb, double program_kb) {
  char note[256];
  std::snprintf(note, sizeof note,
                "{\"wall_slowdown\": %.4f, \"cpu_slowdown\": %.4f, \"chunks\": %llu, "
                "\"raw_img_per_s\": %.1f, \"raw_p50_us\": %.1f, \"raw_cpu_us_per_req\": %.2f}",
                speed.wall, speed.cpu, static_cast<unsigned long long>(speed.chunks),
                raw.img_per_s, raw.p50_us, raw.cpu_us_per_req);
  r.note("host_speed", note);
  r.metric("setup_s", setup_s, "s");
  r.metric("peak_rss_mb", peak_rss_mb(), "MB");
  r.metric("img_per_s", at_ref.img_per_s, "img/s");
  r.metric("p50_us", at_ref.p50_us, "us");
  r.metric("cpu_us_per_req", at_ref.cpu_us_per_req, "us");
  r.metric("arena_kb", arena_kb, "KB");
  r.metric("program_kb", program_kb, "KB");
}

namespace {

constexpr int kNumKinds = static_cast<int>(tqt::FpInstr::Kind::kLayoutUnpack) + 1;

/// Every per-layer metric name with its unit, in report order.
std::vector<std::pair<std::string, std::string>> per_layer_table() {
  std::vector<std::pair<std::string, std::string>> t;
  for (ModelKind k : tqt::all_model_kinds()) {
    for (Precision p : {Precision::kW8, Precision::kW4pc}) {
      t.push_back({"fixedpoint.exec.ms_per_batch." + tqt::model_name(k) + "." + precision_name(p),
                   "ms"});
    }
  }
  for (int k = 0; k < kNumKinds; ++k) {
    t.push_back({std::string("fixedpoint.exec.share.") +
                     tqt::to_string(static_cast<tqt::FpInstr::Kind>(k)),
                 "ratio"});
  }
  t.push_back({"fixedpoint.exec.share.self", "ratio"});
  const char* rest[][2] = {
      {"fixedpoint.exec.gmac_per_s", "GMAC/s"},
      {"fixedpoint.exec.instrs_per_run", "count"},
      {"fixedpoint.fused_matmuls", "count"},
      {"fixedpoint.compile_ms", "ms"},
      {"fixedpoint.save_ms", "ms"},
      {"fixedpoint.load_ms", "ms"},
      {"models.load_ms", "ms"},
      {"graph_opt.fold_ms", "ms"},
      {"graph_opt.quantize_pass_ms", "ms"},
      {"quant.calibrate_ms", "ms"},
      {"serve.batch_mean", "count"},
      {"serve.execute_us", "us"},
      {"serve.batch_overhead_us", "us"},
      {"serve.server_p50_us", "us"},
      {"serve.engine_wall_per_cpu", "ratio"},
      {"net.parse_us", "us"},
      {"net.respond_us", "us"},
      {"net.bytes_per_req", "bytes"},
      {"qos.served_share.gold", "ratio"},
      {"qos.served_share.bronze", "ratio"},
      {"qos.weight_share.gold", "ratio"},
      {"qos.weight_share.bronze", "ratio"},
      {"runtime.pool.regions_per_batch", "count"},
      {"runtime.pool.worker_busy_share", "ratio"},
      {"runtime.pool.regions_per_step", "count"},
      {"core.train_step_ms.mini_mobilenet_v1", "ms"},
      {"core.train_step_ms.mini_resnet", "ms"},
      {"observe.trace_overhead", "ratio"},
      {"observe.trace_dropped", "count"},
  };
  for (const auto& nu : rest) t.push_back({nu[0], nu[1]});
  return t;
}

}  // namespace

void fill_zero_layers(Report& r) {
  for (const auto& [name, unit] : per_layer_table()) r.metric_default(name, 0.0, unit);
}

void report_exec_shares(Report& r, const TraceCollector& tc) {
  const double base = static_cast<double>(tc.get("engine.run_into").total_ns);
  if (base <= 0) return;
  double covered = 0;
  for (int k = 0; k < kNumKinds; ++k) {
    const char* kind = tqt::to_string(static_cast<tqt::FpInstr::Kind>(k));
    const double share = static_cast<double>(tc.get(kind).total_ns) / base;
    covered += share;
    r.metric(std::string("fixedpoint.exec.share.") + kind, share, "ratio");
  }
  r.metric("fixedpoint.exec.share.self", std::max(0.0, 1.0 - covered), "ratio");
}

void report_setup_layers(Report& r, const TraceCollector& tc, int reps) {
  const double n = reps;
  const char* names[][2] = {
      {"models.load", "models.load_ms"},
      {"graph_opt.fold", "graph_opt.fold_ms"},
      {"graph_opt.quantize_pass", "graph_opt.quantize_pass_ms"},
      {"quant.calibrate", "quant.calibrate_ms"},
      {"fixedpoint.compile", "fixedpoint.compile_ms"},
      {"fixedpoint.save", "fixedpoint.save_ms"},
      {"fixedpoint.load", "fixedpoint.load_ms"},
  };
  for (const auto& nm : names) r.metric(nm[1], tc.total_ms(nm[0]) / n, "ms");
}

}  // namespace perfbench
