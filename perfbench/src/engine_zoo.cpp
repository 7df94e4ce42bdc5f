// engine-zoo: offline batch inference through the fixed-point engine alone.
//
// Set-up builds all six zoo models from the committed FP32 weights in two
// precisions (W8A8 per-tensor, W4A8 per-channel), saves each program and
// reloads it. The measured window runs the 12 reloaded programs round-robin
// through run_into at batch 16 with the thread pool pinned to one thread, so
// only the engine's kernels, plan and executor do work. One such caller runs
// on each CPU (nproc, at most 4), each with its own contexts: the speed of a
// single virtual CPU on a shared host wanders by tens of percent over tens of
// seconds, independently per CPU, and the sum over all of them is what
// repeats from run to run.
#include <cstdio>
#include <stdexcept>
#include <thread>

#include "common.h"
#include "runtime/parallel.h"

namespace perfbench {
namespace {

constexpr int kSetupReps = 3;  // set-up repetitions (timed_setup)
constexpr int64_t kBatch = 16;
constexpr int kInputBatches = 4;  // seeded input batches, cycled

struct ZooProgram {
  std::string name;  // "<model>.<w8|w4pc>"
  QuantGraph qg;
  FixedPointProgram program;  // compiled, saved and reloaded
  Saved saved;
  int64_t macs_per_batch = 0;
};

/// Set-up: the 12 programs built, saved and reloaded, one timed piece each
/// (timed_setup). Repetitions save to files of their own; the last one is kept.
std::vector<ZooProgram> build_zoo(const std::string& dir, double& setup_s) {
  std::vector<std::pair<ModelKind, Precision>> items;
  for (ModelKind kind : tqt::all_model_kinds()) {
    for (Precision p : {Precision::kW8, Precision::kW4pc}) items.push_back({kind, p});
  }
  std::vector<ZooProgram> zoo(items.size());
  setup_s = timed_setup(static_cast<int>(items.size()), kSetupReps, [&](int i, int rep) {
    const auto [kind, p] = items[static_cast<size_t>(i)];
    const double t0 = now_s();
    ZooProgram z;
    z.name = tqt::model_name(kind) + "." + precision_name(p);
    z.qg = quantize_graph(kind, p, /*trainable=*/false);
    const std::string path = dir + "/" + z.name + ".r" + std::to_string(rep) + ".tqtp";
    z.saved = compile_and_save(z.qg, path);
    z.program = load_program(path);
    const double secs = now_s() - t0;
    if (rep == kSetupReps - 1) zoo[static_cast<size_t>(i)] = std::move(z);
    return secs;
  });
  return zoo;
}

/// One caller thread: a context and an output tensor per program, reused
/// across windows, plus the window's tallies.
struct Worker {
  std::vector<tqt::ExecContext> ctx;
  std::vector<Tensor> out;
  std::vector<int> last_input;
  std::vector<std::vector<double>> lat_s;  // per program
  int64_t calls = 0, failed = 0, images = 0, macs = 0;
  HostGauge gauge;  // one chunk after every round
};

struct Window {
  int64_t calls = 0, failed = 0, images = 0, macs = 0;
  double wall_s = 0, cpu_s = 0;  // gauge chunks left out
  HostGauge gauge;
  std::vector<std::vector<double>> lat_s;  // per program, all workers
};

/// Every worker runs whole rounds over all programs until `seconds` passed,
/// with one host-gauge chunk after each round.
Window measure(const std::vector<ZooProgram>& zoo, std::vector<Worker>& workers,
               const std::vector<Tensor>& inputs, double seconds, uint64_t seed) {
  for (Worker& w : workers) {
    w.lat_s.assign(zoo.size(), {});
    w.calls = w.failed = w.images = w.macs = 0;
    w.gauge = HostGauge{};
  }
  const double c0 = process_cpu_s(), t0 = now_s();
  std::vector<std::thread> threads;
  for (size_t wi = 0; wi < workers.size(); ++wi) {
    threads.emplace_back([&, wi] {
      Worker& w = workers[wi];
      int64_t round = static_cast<int64_t>(seed + wi);
      do {
        for (size_t i = 0; i < zoo.size(); ++i) {
          const int in = static_cast<int>((round + static_cast<int64_t>(i)) % kInputBatches);
          const double s = now_s();
          try {
            zoo[i].program.run_into(inputs[static_cast<size_t>(in)], w.ctx[i], w.out[i]);
            w.last_input[i] = in;
          } catch (const std::exception& e) {
            ++w.failed;
            std::fprintf(stderr, "engine-zoo: %s failed: %s\n", zoo[i].name.c_str(), e.what());
          }
          w.lat_s[i].push_back(now_s() - s);
          ++w.calls;
          w.images += kBatch;
          w.macs += zoo[i].macs_per_batch;
        }
        ++round;
        w.gauge.sample();
      } while (now_s() - t0 < seconds);
    });
  }
  for (auto& t : threads) t.join();
  Window win;
  const double wall_s = now_s() - t0, cpu_s = process_cpu_s() - c0;
  win.lat_s.resize(zoo.size());
  for (const Worker& w : workers) {
    win.gauge.merge(w.gauge);
    win.calls += w.calls;
    win.failed += w.failed;
    win.images += w.images;
    win.macs += w.macs;
    for (size_t i = 0; i < zoo.size(); ++i) {
      win.lat_s[i].insert(win.lat_s[i].end(), w.lat_s[i].begin(), w.lat_s[i].end());
    }
  }
  win.wall_s = wall_s - win.gauge.wall_s() / static_cast<double>(workers.size());
  win.cpu_s = cpu_s - win.gauge.cpu_s();
  return win;
}

}  // namespace

void run_engine_zoo(const Options& o, Report& r) {
  const tqt::SyntheticImageDataset& data = dataset();
  TraceCollector tc;
  if (o.trace) tc.start(/*background=*/true);

  double setup_s = 0;
  std::vector<ZooProgram> zoo = build_zoo(o.tmp_dir, setup_s);
  if (o.trace) {
    report_setup_layers(r, tc, kSetupReps);
    tc.set_recording(false);
    tc.reset();
  }

  std::vector<Tensor> inputs;
  for (int i = 0; i < kInputBatches; ++i) {
    inputs.push_back(data.calibration_batch(kBatch, o.seed * 1000 + static_cast<uint64_t>(i)));
  }
  const Tensor held_out = data.calibration_batch(kBatch, o.seed * 1000 + 999);

  // Warm-up at the measured pool size: every context's arena reaches its
  // high-water mark before timing. arena_kb counts one context per program.
  const int n_workers = load_threads();
  tqt::set_num_threads(1);
  std::vector<Worker> workers(static_cast<size_t>(n_workers));
  for (Worker& w : workers) {
    w.ctx.resize(zoo.size());
    w.out.resize(zoo.size());
    w.last_input.assign(zoo.size(), -1);
    for (size_t i = 0; i < zoo.size(); ++i) {
      for (const Tensor& x : inputs) zoo[i].program.run_into(x, w.ctx[i], w.out[i]);
    }
  }
  double arena_kb = 0, program_kb = 0;
  int fused = 0;
  for (size_t i = 0; i < zoo.size(); ++i) {
    ZooProgram& z = zoo[i];
    z.macs_per_batch = count_macs(z.program, inputs[0].shape());
    arena_kb += static_cast<double>(workers[0].ctx[i].arena_bytes()) / 1024.0;
    program_kb += static_cast<double>(z.saved.file_bytes) / 1024.0;
    fused += z.saved.fused_matmuls;
  }

  if (!o.trace) {
    const Window w = measure(zoo, workers, inputs, o.seconds, o.seed);
    r.ops(static_cast<uint64_t>(w.calls), static_cast<uint64_t>(w.failed));
    double p50_sum_us = 0;  // one batch of every program at its median latency
    for (const auto& lat : w.lat_s) p50_sum_us += median(lat) * 1e6;
    const WindowFigures raw{static_cast<double>(w.images) / w.wall_s, p50_sum_us,
                            w.cpu_s * 1e6 / static_cast<double>(w.images)};
    const HostGauge::Speed speed = w.gauge.speed();
    report_end_to_end(r, setup_s, raw, at_reference(raw, speed), speed, arena_kb, program_kb);
  } else {
    // Untraced half first (per-program latency, GMAC/s, counters), then the
    // traced half (instruction spans).
    const uint64_t runs0 = global_counter("engine.runs");
    const uint64_t instrs0 = global_counter("engine.instructions");
    const Window plain = measure(zoo, workers, inputs, o.seconds / 2, o.seed);
    const uint64_t runs = global_counter("engine.runs") - runs0;
    const uint64_t instrs = global_counter("engine.instructions") - instrs0;
    for (size_t i = 0; i < zoo.size(); ++i) {
      r.metric("fixedpoint.exec.ms_per_batch." + zoo[i].name, median(plain.lat_s[i]) * 1e3,
               "ms");
    }
    tc.reset();
    tc.set_recording(true);
    const Window traced = measure(zoo, workers, inputs, o.seconds / 2, o.seed);
    tc.stop();
    r.ops(static_cast<uint64_t>(plain.calls + traced.calls),
          static_cast<uint64_t>(plain.failed + traced.failed));

    report_exec_shares(r, tc);
    r.metric("fixedpoint.exec.gmac_per_s", static_cast<double>(plain.macs) / plain.wall_s * 1e-9,
             "GMAC/s");
    r.metric("fixedpoint.exec.instrs_per_run",
             runs ? static_cast<double>(instrs) / static_cast<double>(runs) : 0.0, "count");
    r.metric("fixedpoint.fused_matmuls", fused, "count");
    const double plain_ips = static_cast<double>(plain.images) / plain.wall_s;
    const double traced_ips = static_cast<double>(traced.images) / traced.wall_s;
    r.metric("observe.trace_overhead", traced_ips / plain_ips, "ratio");
    r.metric("observe.trace_dropped", static_cast<double>(tc.dropped()), "count");
  }

  // Oracles, apart from the timed path. Every worker's last output of each
  // program must equal the int64 reference interpreter on the same input,
  // and a held-out batch must give identical results from run_into,
  // run_reference and the fake-quant float graph the program was compiled
  // from.
  tqt::set_num_threads(0);
  for (size_t i = 0; i < zoo.size(); ++i) {
    ZooProgram& z = zoo[i];
    std::vector<Tensor> refs(kInputBatches);
    for (const Worker& w : workers) {
      const int in = w.last_input[i];
      r.op(true);
      if (in < 0) {
        r.wrong(z.name + ": no measured output");
        continue;
      }
      Tensor& ref = refs[static_cast<size_t>(in)];
      if (ref.numel() == 0) ref = z.program.run_reference(inputs[static_cast<size_t>(in)]);
      if (!w.out[i].equals(ref)) r.wrong(z.name + ": measured output differs from run_reference");
    }

    tqt::ExecContext ctx;
    Tensor y;
    z.program.run_into(held_out, ctx, y);
    const Tensor ref = z.program.run_reference(held_out);
    const Tensor fq = z.qg.model.graph.run({{z.qg.model.input, held_out}},
                                           z.qg.qres.quantized_output);
    r.op(true);
    if (!y.equals(ref)) r.wrong(z.name + ": held-out run_into differs from run_reference");
    if (!y.equals(fq)) r.wrong(z.name + ": held-out run_into differs from the fake-quant graph");
  }
  r.note("engine-zoo", "{\"programs\": " + std::to_string(zoo.size()) +
                           ", \"batch\": " + std::to_string(kBatch) +
                           ", \"workers\": " + std::to_string(n_workers) +
                           ", \"pool_threads\": 1}");
}

}  // namespace perfbench
