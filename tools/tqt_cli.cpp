// tqt_cli — command-line front end for the TQT pipeline.
//
//   tqt_cli list
//       List the model zoo.
//   tqt_cli pretrain <model> [--cache DIR]
//       FP32-pretrain a model (cached) and report accuracy.
//   tqt_cli quantize <model> [--mode static|wt|wt_th] [--wbits B] [--abits B]
//                    [--per-channel] [--epochs N] [-o FILE]
//       Quantize (and optionally retrain) from the cached FP32 weights under
//       a W/A precision policy; -o additionally compiles and saves the
//       fixed-point program (precision then validated against the [4,16]
//       inference range). --bits is a deprecated alias for --wbits.
//   tqt_cli export <model> -o FILE [--wbits B] [--abits B] [--per-channel]
//                  [--epochs N]
//       TQT-retrain and compile to a fixed-point program file.
//   tqt_cli run <model> -i FILE [--threads N] [--repeat N] [--explain-kernels]
//       Load a fixed-point program and evaluate it on the validation split.
//       --repeat runs the split N times and reports wall time per inference.
//       --explain-kernels prints the per-instruction kernel/algo table the
//       executor resolved (autotuned selections marked with *).
//   tqt_cli tune <model> -i FILE [--threads N]
//       Force-autotune a fixed-point program file (re-measuring every shape
//       key, ignoring any existing sidecar) and write the selections as a
//       versioned .tqt.tune sidecar next to the artifact. A later
//       `tqt_cli run --autotune on` loads the sidecar instead of measuring.
//   tqt_cli serve <model> -i FILE [--threads N] [--clients C] [--requests R]
//                 [--max-batch B] [--delay-us D] [--queue Q] [--repeat N]
//       Serve a fixed-point program through the tqt-serve micro-batching
//       server, drive it with C in-process client threads over the
//       validation split (N passes with --repeat), and print the per-model
//       stats block as JSON plus wall time per inference.
//   tqt_cli serve <model> -i FILE --port P [--max-connections C]
//                 [--max-inflight F] [...batching flags as above]
//       Network mode: expose the server over TCP through tqt-gateway
//       (src/net) instead of driving it in-process. Runs until SIGINT or
//       SIGTERM, then drains gracefully — in-flight requests finish, stats
//       and any --metrics-json / --trace files are still written.
//   tqt_cli serve <model> -i FILE --port P --shards N [--tenants FILE]
//       Sharded network mode (tqt-qos): N reactor event loops over one port
//       (SO_REUSEPORT, falling back to accept handoff), each with its own
//       batcher lanes against a shared model registry. --tenants loads a
//       token -> {class, weight, rate, quota} table enforced at admission
//       and hot-reloadable via `tqt_cli calib --reload-tenants`.
//   tqt_cli client <model> --port P [--host H] [--requests R]
//                  [--deadline-us D] [--gain G] [--tenant TOKEN]
//                  [--hedge-ms N] [--shed-retries R]
//       Drive a running tqt-gateway over the wire protocol with validation
//       samples and report accuracy plus per-status response counts. --gain
//       scales every pixel by G — a distribution shift the autocal drift
//       detector can be pointed at. --tenant authenticates as a configured
//       tenant (wire v2); --hedge-ms duplicates slow requests on a second
//       connection (first response wins, loser is cancelled).
//   tqt_cli serve <model> --calib --port P [--calib-* flags]
//       Serve with the tqt-autocal calibration service attached: the service
//       builds + deploys the initial program itself (no -i needed), mirrors
//       live traffic into its drift detector, and answers admin frames
//       (status / calib batches / trigger / dry-run / rollback / swap-file).
//   tqt_cli calib <model> --port P [--host H] [--status] [--batches N]
//                 [--batch-size M] [--gain G] [--trigger] [--dry-run]
//                 [--rollback] [--swap-file PATH]
//       Admin client for a --calib gateway: stream calibration batches from
//       the validation split, then run the requested control operations in
//       order. With no action flags, prints --status.
//
// Every subcommand accepts --help. quantize/export/run/serve additionally
// accept the shared telemetry flags:
//   --metrics-json PATH   write a metrics snapshot (observe.h schema) on exit
//   --trace PATH          record spans and write chrome://tracing JSON on exit
// export/run/serve also accept --autotune on|off|force, overriding the
// TQT_AUTOTUNE environment variable for the process.
#include <atomic>
#include <cerrno>
#include <chrono>
#include <climits>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "calib/autocal.h"
#include "core/metrics.h"
#include "core/pipeline.h"
#include "fixedpoint/autotune.h"
#include "fixedpoint/engine.h"
#include "fixedpoint/fuse.h"
#include "fixedpoint/kernels/kernels.h"
#include "net/client.h"
#include "quant/quant_spec.h"
#include "net/gateway.h"
#include "observe/observe.h"
#include "qos/shard.h"
#include "qos/tenant.h"
#include "runtime/parallel.h"
#include "serve/server.h"

namespace {

using namespace tqt;

int usage() {
  std::fprintf(stderr,
               "usage: tqt_cli <list|pretrain|quantize|export|run|tune|serve|client|calib> [args]\n"
               "  list\n"
               "  pretrain <model> [--cache DIR]\n"
               "  quantize <model> [--mode static|wt|wt_th] [--wbits B] [--abits B]\n"
               "           [--per-channel] [--epochs N] [-o FILE]\n"
               "  export   <model> -o FILE [--wbits B] [--abits B] [--per-channel] [--epochs N]\n"
               "  run      <model> -i FILE [--threads N] [--repeat N] [--explain-kernels]\n"
               "  tune     <model> -i FILE [--threads N]\n"
               "  serve    <model> -i FILE [--threads N] [--clients C] [--requests R]\n"
               "           [--max-batch B] [--delay-us D] [--queue Q] [--repeat N]\n"
               "           [--port P [--max-connections C] [--max-inflight F]]\n"
               "           [--shards N] [--tenants FILE]\n"
               "           [--calib [--calib-mirror-every N] [--calib-min-samples N] ...]\n"
               "  client   <model> --port P [--host H] [--requests R] [--deadline-us D]\n"
               "           [--gain G] [--tenant TOKEN] [--hedge-ms N] [--shed-retries R]\n"
               "  calib    <model> --port P [--host H] [--status] [--batches N]\n"
               "           [--batch-size M] [--gain G] [--trigger] [--dry-run]\n"
               "           [--rollback] [--swap-file PATH] [--reload-tenants]\n"
               "run '--help' after any subcommand for its full flag list\n");
  return 2;
}

// ---- Argument parsing ------------------------------------------------------

/// Declarative flag parser shared by every subcommand: registered flags with
/// one-line docs, --help rendering, positional collection, and a one-line
/// error (exit 1 via the main() catch block) for anything unregistered.
class ArgParser {
 public:
  ArgParser(std::string cmd, std::string positional_sig, std::string summary)
      : cmd_(std::move(cmd)),
        positional_sig_(std::move(positional_sig)),
        summary_(std::move(summary)) {}

  /// Register a flag. `value_name` nullptr declares a boolean flag;
  /// otherwise the flag consumes the next argument as its value.
  ArgParser& add(const char* name, const char* value_name, const char* doc) {
    flags_.push_back(Flag{name, value_name ? value_name : "", doc, "", false});
    return *this;
  }

  /// Parse `argv` (subcommand arguments only). Returns false when --help was
  /// handled (the caller should exit 0). Throws std::invalid_argument — a
  /// one-line error — on unknown flags or a flag missing its value.
  bool parse(int argc, char** argv) {
    for (int i = 0; i < argc; ++i) {
      const std::string a = argv[i];
      if (a == "--help" || a == "-h") {
        print_help(stdout);
        return false;
      }
      if (a.size() > 1 && a[0] == '-') {
        Flag* f = find(a);
        if (!f) {
          throw std::invalid_argument("tqt_cli " + cmd_ + ": unknown flag '" + a +
                                      "' (try --help)");
        }
        f->seen = true;
        if (!f->value_name.empty()) {
          if (i + 1 >= argc) {
            throw std::invalid_argument("tqt_cli " + cmd_ + ": flag '" + a + "' expects " +
                                        f->value_name);
          }
          f->value = argv[++i];
        }
      } else {
        positionals_.push_back(a);
      }
    }
    return true;
  }

  /// Value of a registered flag, or `fallback` when absent on the line.
  const char* value(const char* name, const char* fallback = nullptr) const {
    const Flag* f = find(name);
    if (!f) throw std::logic_error(std::string("flag not registered: ") + name);
    return f->seen ? f->value.c_str() : fallback;
  }

  bool seen(const char* name) const {
    const Flag* f = find(name);
    return f && f->seen;
  }

  /// Strict base-10 integer: the whole token must parse — "3abc", "", "++2"
  /// and out-of-range values are one-line errors, not silent truncations
  /// (std::atoi would accept all of them).
  static long strict_int(const char* name, const char* v) {
    errno = 0;
    char* end = nullptr;
    const long n = std::strtol(v, &end, 10);
    if (end == v || *end != '\0' || errno == ERANGE) {
      throw std::invalid_argument(std::string(name) + " expects an integer, got '" + v + "'");
    }
    return n;
  }

  /// Strict float with the same whole-token rule as strict_int.
  static float strict_float(const char* name, const char* v) {
    errno = 0;
    char* end = nullptr;
    const float f = std::strtof(v, &end);
    if (end == v || *end != '\0' || errno == ERANGE) {
      throw std::invalid_argument(std::string(name) + " expects a number, got '" + v + "'");
    }
    return f;
  }

  /// Strictly positive float flag value (e.g. a gain multiplier).
  float positive_float(const char* name, float fallback) const {
    const char* v = value(name, nullptr);
    if (!v) return fallback;
    const float f = strict_float(name, v);
    if (!(f > 0.0f)) {
      throw std::invalid_argument(std::string(name) + " must be > 0, got '" + v + "'");
    }
    return f;
  }

  /// Strictly positive integer flag value.
  int positive(const char* name, int fallback) const {
    const char* v = value(name, nullptr);
    if (!v) return fallback;
    const long n = strict_int(name, v);
    if (n < 1 || n > INT_MAX) {
      throw std::invalid_argument(std::string(name) + " must be a positive integer, got '" + v +
                                  "'");
    }
    return static_cast<int>(n);
  }

  /// Integer flag value constrained to [lo, hi] (e.g. a TCP port).
  int bounded(const char* name, int fallback, int lo, int hi) const {
    const char* v = value(name, nullptr);
    if (!v) return fallback;
    const long n = strict_int(name, v);
    if (n < lo || n > hi) {
      throw std::invalid_argument(std::string(name) + " must be in " + std::to_string(lo) +
                                  ".." + std::to_string(hi) + ", got '" + v + "'");
    }
    return static_cast<int>(n);
  }

  const std::vector<std::string>& positionals() const { return positionals_; }

  /// The single expected positional, with a one-line error otherwise.
  const std::string& positional(const char* what) const {
    if (positionals_.size() != 1) {
      throw std::invalid_argument("tqt_cli " + cmd_ + ": expected exactly one " + what +
                                  " argument (try --help)");
    }
    return positionals_[0];
  }

  /// Value of a required flag, with a one-line error when missing.
  const char* required(const char* name) const {
    const char* v = value(name, nullptr);
    if (!v) {
      throw std::invalid_argument("tqt_cli " + cmd_ + ": missing required flag " + name +
                                  " (try --help)");
    }
    return v;
  }

  void print_help(std::FILE* out) const {
    std::fprintf(out, "usage: tqt_cli %s%s%s%s\n\n  %s\n", cmd_.c_str(),
                 positional_sig_.empty() ? "" : " ", positional_sig_.c_str(),
                 flags_.empty() ? "" : " [flags]", summary_.c_str());
    if (flags_.empty()) return;
    std::fprintf(out, "\nflags:\n");
    for (const Flag& f : flags_) {
      char head[64];
      std::snprintf(head, sizeof head, "%s%s%s", f.name.c_str(),
                    f.value_name.empty() ? "" : " ", f.value_name.c_str());
      std::fprintf(out, "  %-22s %s\n", head, f.doc.c_str());
    }
  }

 private:
  struct Flag {
    std::string name;
    std::string value_name;  // empty = boolean flag
    std::string doc;
    std::string value;
    bool seen;
  };

  Flag* find(const std::string& name) {
    for (Flag& f : flags_) {
      if (f.name == name) return &f;
    }
    return nullptr;
  }
  const Flag* find(const std::string& name) const {
    return const_cast<ArgParser*>(this)->find(name);
  }

  std::string cmd_;
  std::string positional_sig_;
  std::string summary_;
  std::vector<Flag> flags_;
  std::vector<std::string> positionals_;
};

/// Register the flags shared by every telemetry-capable subcommand.
void add_telemetry_flags(ArgParser& p) {
  p.add("--metrics-json", "PATH", "write a metrics snapshot JSON to PATH on exit");
  p.add("--trace", "PATH", "record spans; write chrome://tracing JSON to PATH on exit");
}

/// Telemetry session: enables tracing up front when requested and renders
/// the metrics snapshot / trace file once the command's work is done.
class Telemetry {
 public:
  explicit Telemetry(const ArgParser& p)
      : metrics_path_(p.value("--metrics-json", "")), trace_path_(p.value("--trace", "")) {
    if (!trace_path_.empty()) observe::Tracer::global().set_enabled(true);
  }

  /// True when per-step training series should be recorded.
  bool wants_metrics() const { return !metrics_path_.empty(); }

  void flush() const {
    if (!trace_path_.empty()) {
      observe::Tracer::global().set_enabled(false);
      observe::Tracer::global().write_chrome_json(trace_path_);
      std::fprintf(stderr, "wrote trace to %s\n", trace_path_.c_str());
    }
    if (!metrics_path_.empty()) {
      observe::MetricsRegistry::global().write_json_file(metrics_path_);
      std::fprintf(stderr, "wrote metrics snapshot to %s\n", metrics_path_.c_str());
    }
  }

 private:
  std::string metrics_path_;
  std::string trace_path_;
};

// ---- Subcommands -----------------------------------------------------------

ModelKind parse_model(const std::string& name) {
  for (ModelKind k : all_model_kinds()) {
    if (model_name(k) == name) return k;
  }
  throw std::invalid_argument("unknown model '" + name + "' (try: tqt_cli list)");
}

/// --threads N overrides TQT_NUM_THREADS for the engine's thread pool.
void apply_threads_flag(const ArgParser& p) {
  if (p.seen("--threads")) set_num_threads(p.positive("--threads", 0));
}

/// --no-fuse disables the graph compiler's fusion + scheduling passes for
/// this process, so programs compile (and load) as the plain per-op
/// instruction stream. Equivalent to TQT_FUSE=0 in the environment.
void apply_fuse_flag(const ArgParser& p) {
  if (p.seen("--no-fuse")) set_fusion_enabled(0);
}

/// --autotune on|off|force overrides TQT_AUTOTUNE for this process. Must run
/// before the program is compiled or loaded — tuning happens at finalize().
void apply_autotune_flag(const ArgParser& p) {
  const char* v = p.value("--autotune", nullptr);
  if (!v) return;
  const std::string m = v;
  if (m == "off") {
    autotune::set_mode(0);
  } else if (m == "on") {
    autotune::set_mode(1);
  } else if (m == "force") {
    autotune::set_mode(2);
  } else {
    throw std::invalid_argument("--autotune expects on|off|force, got '" + m + "'");
  }
}

void add_autotune_flag(ArgParser& p) {
  p.add("--autotune", "M", "kernel autotuner: on | off | force (default TQT_AUTOTUNE)");
}

/// Register the W/A precision-policy flags (the CLI face of PrecisionPolicy).
/// `legacy_bits` additionally keeps the pre-policy --bits spelling alive as a
/// deprecated alias for --wbits on the subcommands that historically had it.
void add_precision_flags(ArgParser& p, bool legacy_bits = false) {
  p.add("--wbits", "B", "weight bit width (training [2,16], inference [4,16]; default 8)");
  p.add("--abits", "B", "activation bit width (same ranges; default 8)");
  p.add("--per-channel", "", "per-output-channel power-of-2 weight scales");
  if (legacy_bits) p.add("--bits", "B", "deprecated alias for --wbits");
}

/// Parse + strictly validate the precision flags into a PrecisionPolicy:
/// non-integer or out-of-range values are one-line errors (exit 1), with the
/// range picked by `use` — [2,16] where the result feeds a fake-quant
/// training graph, [4,16] where it must compile to fixed point.
PrecisionPolicy parse_precision(const ArgParser& p, QuantUse use) {
  PrecisionPolicy pol;
  if (p.seen("--bits")) {
    pol.wbits = static_cast<int>(ArgParser::strict_int("--bits", p.value("--bits")));
  }
  if (p.seen("--wbits")) {
    pol.wbits = static_cast<int>(ArgParser::strict_int("--wbits", p.value("--wbits")));
  }
  if (p.seen("--abits")) {
    pol.abits = static_cast<int>(ArgParser::strict_int("--abits", p.value("--abits")));
  }
  pol.per_channel_weights = p.seen("--per-channel");
  pol.validate(use);
  return pol;
}

/// The `run --explain-kernels` table: one row per exec-stream instruction
/// with the algo the executor resolved (measured selections are starred) and
/// the epilogue retire path of each matmul.
void print_explain_table(const FixedPointProgram& prog) {
  const auto rows = autotune::explain_kernels(prog);
  std::printf("%-4s %-30s %-20s %-12s %-7s %s\n", "#", "instruction", "kind", "algo",
              "retire", "shape-class");
  int i = 0;
  for (const auto& r : rows) {
    std::printf("%-4d %-30s %-20s %-11s%s %-7s %s\n", i++, r.name.c_str(), r.kind.c_str(),
                r.algo.c_str(), r.tuned ? "*" : " ", r.retire.c_str(), r.shape.c_str());
  }
  std::printf("(* = measured autotuner selection; kernel set %s)\n",
              fpk::active_kernels().name);
}

int cmd_list(int argc, char** argv) {
  ArgParser p("list", "", "List the model zoo.");
  if (!p.parse(argc, argv)) return 0;
  for (ModelKind k : all_model_kinds()) std::printf("%s\n", model_name(k).c_str());
  return 0;
}

int cmd_pretrain(int argc, char** argv) {
  ArgParser p("pretrain", "<model>", "FP32-pretrain a model (cached) and report accuracy.");
  p.add("--cache", "DIR", "weight cache directory (default tqt_artifacts)");
  if (!p.parse(argc, argv)) return 0;
  const ModelKind kind = parse_model(p.positional("model"));
  const std::string cache = p.value("--cache", "tqt_artifacts");
  SyntheticImageDataset data(default_dataset_config());
  const auto state = load_or_pretrain(kind, data, cache);
  const Accuracy acc = eval_fp32(kind, state, data);
  std::printf("%s FP32: top-1 %.1f%%  top-5 %.1f%%  (%zu tensors cached in %s)\n",
              model_name(kind).c_str(), 100.0 * acc.top1(), 100.0 * acc.top5(), state.size(),
              cache.c_str());
  return 0;
}

QuantTrialConfig trial_config(const ArgParser& p, const std::string& mode) {
  QuantTrialConfig cfg;
  if (mode == "static") {
    cfg.mode = TrialMode::kStatic;
  } else if (mode == "wt") {
    cfg.mode = TrialMode::kRetrainWt;
  } else if (mode == "wt_th") {
    cfg.mode = TrialMode::kRetrainWtTh;
  } else {
    throw std::invalid_argument("bad --mode " + mode);
  }
  // Training context: the fake-quant graph accepts [2,16]. Subcommands that
  // go on to compile fixed point re-validate at kInference before compiling.
  cfg.quant.precision = parse_precision(p, QuantUse::kTraining);
  cfg.schedule =
      default_retrain_schedule(static_cast<float>(std::atof(p.value("--epochs", "4"))));
  return cfg;
}

int cmd_quantize(int argc, char** argv) {
  ArgParser p("quantize", "<model>",
              "Quantize (and optionally retrain) from the cached FP32 weights.");
  p.add("--mode", "M", "static | wt | wt_th (default wt_th)");
  add_precision_flags(p, /*legacy_bits=*/true);
  p.add("--epochs", "N", "retraining epochs (default 4)");
  p.add("--cache", "DIR", "weight cache directory (default tqt_artifacts)");
  p.add("-o", "FILE", "also compile and save the fixed-point program to FILE");
  p.add("--no-fuse", "", "with -o: compile without conv+epilogue fusion (TQT_FUSE=0)");
  add_autotune_flag(p);
  add_telemetry_flags(p);
  if (!p.parse(argc, argv)) return 0;
  const Telemetry tel(p);
  // Fail fast on a bad precision policy before touching the weight cache;
  // trial_config re-parses the same flags when building the trial config.
  parse_precision(p, QuantUse::kTraining);
  const char* out_path = p.value("-o", nullptr);
  if (out_path) {
    apply_fuse_flag(p);
    apply_autotune_flag(p);
    // The tighter compile-time range applies when the trial must export.
    parse_precision(p, QuantUse::kInference);
  }
  const ModelKind kind = parse_model(p.positional("model"));
  SyntheticImageDataset data(default_dataset_config());
  const auto state = load_or_pretrain(kind, data, p.value("--cache", "tqt_artifacts"));
  const std::string mode = p.value("--mode", "wt_th");
  QuantTrialConfig cfg = trial_config(p, mode);
  if (tel.wants_metrics()) cfg.schedule.metrics = &observe::MetricsRegistry::global();
  TrialOutput out = run_quant_trial(kind, state, data, cfg);
  std::printf("%s W%dA%d%s (%s): top-1 %.1f%%  top-5 %.1f%%", model_name(kind).c_str(),
              cfg.quant.precision.wbits, cfg.quant.precision.abits,
              cfg.quant.precision.per_channel_weights ? " per-channel" : "", mode.c_str(),
              100.0 * out.accuracy.top1(), 100.0 * out.accuracy.top5());
  if (cfg.mode != TrialMode::kStatic) std::printf("  (best epoch %.1f)", out.best_epoch);
  std::printf("\n");
  if (out_path) {
    out.model.graph.set_training(false);
    const FixedPointProgram prog =
        compile_fixed_point(out.model.graph, out.model.input, out.qres.quantized_output);
    prog.save(out_path);
    std::printf("wrote %lld instructions / %lld int params to %s\n",
                static_cast<long long>(prog.instruction_count()),
                static_cast<long long>(prog.parameter_count()), out_path);
  }
  tel.flush();
  return 0;
}

int cmd_export(int argc, char** argv) {
  ArgParser p("export", "<model>",
              "TQT-retrain and compile to a fixed-point program file.");
  p.add("-o", "FILE", "output program file (required)");
  add_precision_flags(p, /*legacy_bits=*/true);
  p.add("--epochs", "N", "retraining epochs (default 4)");
  p.add("--cache", "DIR", "weight cache directory (default tqt_artifacts)");
  p.add("--no-fuse", "", "compile without conv+epilogue fusion (TQT_FUSE=0)");
  add_autotune_flag(p);
  add_telemetry_flags(p);
  if (!p.parse(argc, argv)) return 0;
  const Telemetry tel(p);
  apply_fuse_flag(p);
  apply_autotune_flag(p);
  const char* out_path = p.required("-o");
  // The artifact must compile to fixed point, so the inference range applies.
  parse_precision(p, QuantUse::kInference);
  const ModelKind kind = parse_model(p.positional("model"));
  SyntheticImageDataset data(default_dataset_config());
  const auto state = load_or_pretrain(kind, data, p.value("--cache", "tqt_artifacts"));
  QuantTrialConfig cfg = trial_config(p, "wt_th");
  if (tel.wants_metrics()) cfg.schedule.metrics = &observe::MetricsRegistry::global();
  TrialOutput out = run_quant_trial(kind, state, data, cfg);
  out.model.graph.set_training(false);
  const FixedPointProgram prog =
      compile_fixed_point(out.model.graph, out.model.input, out.qres.quantized_output);
  prog.save(out_path);
  std::printf("%s: top-1 %.1f%%; wrote %lld instructions / %lld int params to %s\n",
              model_name(kind).c_str(), 100.0 * out.accuracy.top1(),
              static_cast<long long>(prog.instruction_count()),
              static_cast<long long>(prog.parameter_count()), out_path);
  tel.flush();
  return 0;
}

int cmd_run(int argc, char** argv) {
  ArgParser p("run", "<model>",
              "Load a fixed-point program and evaluate it on the validation split.");
  p.add("-i", "FILE", "fixed-point program file (required)");
  p.add("--threads", "N", "engine thread-pool size (default TQT_NUM_THREADS)");
  p.add("--repeat", "N", "validation passes (default 1)");
  p.add("--no-fuse", "", "load without conv+epilogue fusion (TQT_FUSE=0)");
  p.add("--explain-kernels", "", "print the per-instruction kernel/algo table after load");
  add_precision_flags(p);
  add_autotune_flag(p);
  add_telemetry_flags(p);
  if (!p.parse(argc, argv)) return 0;
  const Telemetry tel(p);
  const char* in_path = p.required("-i");
  // The program file already fixes its precision; the flags here only assert
  // what the caller expects — same strict validation, same one-line errors.
  parse_precision(p, QuantUse::kInference);
  parse_model(p.positional("model"));  // validated for the error message only
  apply_threads_flag(p);
  apply_fuse_flag(p);
  apply_autotune_flag(p);
  const int repeat = p.positive("--repeat", 1);
  SyntheticImageDataset data(default_dataset_config());
  const FixedPointProgram prog = FixedPointProgram::load(in_path);
  if (p.seen("--explain-kernels")) print_explain_table(prog);
  ExecContext ctx;  // arena reused across batches and passes
  Tensor logits;
  Accuracy acc;
  int64_t inferences = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (int rep = 0; rep < repeat; ++rep) {
    Accuracy pass;
    for (int64_t first = 0; first < data.val_size(); first += 64) {
      const Batch b = data.val_batch(first, std::min<int64_t>(64, data.val_size() - first));
      prog.run_into(b.images, ctx, logits);
      accumulate_topk(logits, b.labels, pass);
      inferences += b.images.dim(0);
    }
    acc = pass;  // every pass is bit-identical; keep the last
  }
  const double secs = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  std::printf("%s (integer-only program): top-1 %.1f%%  top-5 %.1f%%\n", in_path,
              100.0 * acc.top1(), 100.0 * acc.top5());
  std::printf("%lld inferences in %.3f s: %.3f ms/inference (%.1f img/s, %d pass%s)\n",
              static_cast<long long>(inferences), secs,
              inferences > 0 ? 1e3 * secs / static_cast<double>(inferences) : 0.0,
              secs > 0 ? static_cast<double>(inferences) / secs : 0.0, repeat,
              repeat == 1 ? "" : "es");
  tel.flush();
  return 0;
}

int cmd_tune(int argc, char** argv) {
  ArgParser p("tune", "<model>",
              "Force-autotune a fixed-point program file and write its .tqt.tune "
              "sidecar (re-measures every shape key; ignores existing sidecars).");
  p.add("-i", "FILE", "fixed-point program file (required)");
  p.add("--threads", "N", "engine thread-pool size (default TQT_NUM_THREADS)");
  add_precision_flags(p);
  if (!p.parse(argc, argv)) return 0;
  const char* in_path = p.required("-i");
  parse_precision(p, QuantUse::kInference);  // assert-only, as in `run`
  parse_model(p.positional("model"));  // validated for the error message only
  apply_threads_flag(p);
  autotune::set_mode(2);  // force: measure everything fresh
  const FixedPointProgram prog = FixedPointProgram::load(in_path);
  const auto& tuning = prog.tuning();
  if (!tuning) {
    std::printf("%s: no tunable fused instructions; no sidecar written\n", in_path);
    return 0;
  }
  const std::string sidecar = std::string(in_path) + ".tqt.tune";
  if (!autotune::save_sidecar(sidecar, *tuning)) {
    throw std::runtime_error("cannot write sidecar " + sidecar);
  }
  std::printf("%s: tuned %d fused instruction%s (%d blocked-layout), %zu shape key%s\n",
              in_path, tuning->tuned_instrs, tuning->tuned_instrs == 1 ? "" : "s",
              tuning->blocked_instrs, tuning->entries.size(),
              tuning->entries.size() == 1 ? "" : "s");
  print_explain_table(prog);
  std::printf("wrote %s\n", sidecar.c_str());
  return 0;
}

// The SIGINT/SIGTERM handler for `serve --port`: request_stop() is
// async-signal-safe (an atomic store plus a pipe write), so a signal during
// serving begins the graceful drain instead of killing the process — the
// normal exit path then writes stats and the --metrics-json / --trace files.
std::atomic<net::Gateway*> g_gateway{nullptr};
std::atomic<qos::ShardedGateway*> g_sharded{nullptr};

extern "C" void on_stop_signal(int) {
  if (net::Gateway* g = g_gateway.load(std::memory_order_acquire)) g->request_stop();
  if (qos::ShardedGateway* s = g_sharded.load(std::memory_order_acquire)) s->request_stop();
}

/// Network mode of `serve`: expose the server through tqt-gateway until a
/// stop signal arrives, then drain and report. `before_server_drain` runs
/// after the gateway has drained (no more frames in flight) and before the
/// server shuts down — the slot where the calibration service is torn down,
/// satisfying its "destroyed before the InferenceServer" contract.
int serve_over_network(const ArgParser& p, serve::InferenceServer& server,
                       const std::string& model, const Telemetry& tel,
                       net::AdminHandler* admin = nullptr,
                       const std::function<void()>& before_server_drain = {},
                       qos::TenantTable* tenants = nullptr) {
  net::GatewayConfig gcfg;
  gcfg.port = static_cast<uint16_t>(p.bounded("--port", 0, 0, 65535));
  gcfg.max_connections = p.positive("--max-connections", 64);
  gcfg.max_inflight = p.positive("--max-inflight", 256);
  gcfg.admin = admin;
  gcfg.tenants = tenants;
  net::Gateway gateway(server, gcfg);
  g_gateway.store(&gateway, std::memory_order_release);
  std::signal(SIGINT, on_stop_signal);
  std::signal(SIGTERM, on_stop_signal);
  std::printf("tqt-gateway: serving '%s' on 127.0.0.1:%u (SIGINT/SIGTERM drains)%s\n",
              model.c_str(), gateway.port(), admin ? " [autocal]" : "");
  std::fflush(stdout);
  while (!gateway.stopped()) std::this_thread::sleep_for(std::chrono::milliseconds(20));
  gateway.stop_and_drain();
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  g_gateway.store(nullptr, std::memory_order_release);
  if (before_server_drain) before_server_drain();
  server.shutdown_and_drain();
  std::fprintf(stderr, "tqt-gateway: drained\n");
  std::printf("%s\n", server.stats_json().c_str());
  tel.flush();
  return 0;
}

/// Sharded network mode of `serve`: N reactor shards over one port against a
/// shared model registry (src/qos/shard.h). Serves until a stop signal, then
/// runs the drain barrier and reports shard-0 stats plus shared metrics.
int serve_sharded(const ArgParser& p, const std::string& model, const char* in_path,
                  const Shape& sample_shape, const serve::BatchConfig& batch,
                  const Telemetry& tel, qos::TenantTable* tenants, int shards) {
  qos::ShardedGatewayConfig cfg;
  cfg.num_shards = shards;
  cfg.port = static_cast<uint16_t>(p.bounded("--port", 0, 0, 65535));
  cfg.max_connections = p.positive("--max-connections", 64);
  cfg.max_inflight = p.positive("--max-inflight", 256);
  cfg.batch = batch;
  cfg.tenants = tenants;
  cfg.metrics = &observe::MetricsRegistry::global();
  qos::ShardedGateway gateway(cfg);
  gateway.deploy_file(model, in_path, sample_shape);
  g_sharded.store(&gateway, std::memory_order_release);
  std::signal(SIGINT, on_stop_signal);
  std::signal(SIGTERM, on_stop_signal);
  std::printf(
      "tqt-gateway: serving '%s' on 127.0.0.1:%u, %d shards (%s)%s (SIGINT/SIGTERM drains)\n",
      model.c_str(), gateway.port(), gateway.num_shards(),
      qos::to_string(gateway.mode()).c_str(),
      tenants ? (" [" + std::to_string(tenants->size()) + " tenants]").c_str() : "");
  std::fflush(stdout);
  while (!gateway.stopped()) std::this_thread::sleep_for(std::chrono::milliseconds(20));
  gateway.stop_and_drain();
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  g_sharded.store(nullptr, std::memory_order_release);
  std::fprintf(stderr, "tqt-gateway: drained (%d shards)\n", gateway.num_shards());
  std::printf("%s\n", gateway.server().stats_json().c_str());
  tel.flush();
  return 0;
}

int cmd_serve(int argc, char** argv) {
  ArgParser p("serve", "<model>",
              "Serve a fixed-point program through the micro-batching server and "
              "drive it with in-process clients (or over TCP with --port).");
  p.add("-i", "FILE", "fixed-point program file (required)");
  p.add("--threads", "N", "engine thread-pool size (default TQT_NUM_THREADS)");
  p.add("--clients", "C", "in-process client threads (default 4)");
  p.add("--requests", "R", "requests per pass (default 256)");
  p.add("--max-batch", "B", "micro-batch size cap (default 8)");
  p.add("--delay-us", "D", "micro-batch collection window in us (default 200)");
  p.add("--queue", "Q", "queue depth before shedding (default 256)");
  p.add("--repeat", "N", "passes over --requests (default 1)");
  p.add("--port", "P", "serve over TCP on this port (0 = ephemeral) instead of in-process");
  p.add("--max-connections", "C", "network mode: concurrent connection cap (default 64)");
  p.add("--max-inflight", "F", "network mode: in-flight request cap (default 256)");
  p.add("--shards", "N", "network mode: reactor shards over one port (default 1, max 64)");
  p.add("--tenants", "FILE", "network mode: tenant table (token/class/rate/quota lines)");
  p.add("--no-fuse", "", "load without conv+epilogue fusion (TQT_FUSE=0)");
  p.add("--calib", "", "attach tqt-autocal: the service builds + deploys its own program "
                       "(-i is ignored) and answers admin frames");
  p.add("--cache", "DIR", "--calib: FP32 weight cache directory (default tqt_artifacts)");
  p.add("--calib-mirror-every", "N", "--calib: mirror every Nth live sample (default 16)");
  p.add("--calib-min-samples", "N", "--calib: images required before a cycle (default 128)");
  p.add("--calib-min-window", "N", "--calib: mirrored samples per drift check (default 48)");
  p.add("--calib-drift-clip", "F", "--calib: window clipped-fraction trigger (default 0.02)");
  p.add("--calib-drift-bits", "F", "--calib: p99.9 log2-shift trigger (default 0.75)");
  p.add("--calib-interval-ms", "N", "--calib: drift check period in ms (default 50)");
  p.add("--calib-retrain-steps", "N", "--calib: TQT retrain steps per cycle (default 0)");
  p.add("--calib-no-auto", "", "--calib: report drift but do not auto-recalibrate");
  add_precision_flags(p);
  add_autotune_flag(p);
  add_telemetry_flags(p);
  if (!p.parse(argc, argv)) return 0;
  const Telemetry tel(p);
  // With --calib the policy drives the service's own quantize/compile cycles;
  // without it the flags are assert-only (the -i artifact fixes precision).
  const PrecisionPolicy precision = parse_precision(p, QuantUse::kInference);
  const bool with_calib = p.seen("--calib");
  const char* in_path = with_calib ? nullptr : p.required("-i");
  const ModelKind kind = parse_model(p.positional("model"));
  const std::string model = model_name(kind);
  apply_threads_flag(p);
  apply_fuse_flag(p);
  apply_autotune_flag(p);

  // tqt-qos flags are network-mode only, and sharding excludes --calib (the
  // calibration service is bound to exactly one InferenceServer).
  const int shards = p.bounded("--shards", 1, 1, 64);
  if (p.seen("--shards") && !p.seen("--port")) {
    throw std::invalid_argument("tqt_cli serve: --shards requires --port (try --help)");
  }
  if (p.seen("--shards") && with_calib) {
    throw std::invalid_argument("tqt_cli serve: --shards is incompatible with --calib");
  }
  if (p.seen("--tenants") && !p.seen("--port")) {
    throw std::invalid_argument("tqt_cli serve: --tenants requires --port (try --help)");
  }
  qos::TenantTable tenant_table(&observe::MetricsRegistry::global());
  qos::TenantTable* tenants = nullptr;
  if (p.seen("--tenants")) {
    tenant_table.load_file(p.value("--tenants"));  // one-line path:line errors
    tenants = &tenant_table;
  }
  const int clients = p.positive("--clients", 4);
  const int repeat = p.positive("--repeat", 1);
  const int64_t total_requests = static_cast<int64_t>(p.positive("--requests", 256)) * repeat;

  serve::ServerConfig scfg;
  scfg.batch.max_batch = p.positive("--max-batch", 8);
  scfg.batch.max_delay_us = p.positive("--delay-us", 200);
  scfg.batch.max_queue = p.positive("--queue", 256);
  // Record serve lane metrics into the process registry so --metrics-json
  // snapshots them alongside the engine/pool counters.
  scfg.metrics = &observe::MetricsRegistry::global();

  SyntheticImageDataset data(default_dataset_config());
  const DatasetConfig& dcfg = data.config();

  if (shards > 1) {
    return serve_sharded(p, model, in_path,
                         {dcfg.image_size, dcfg.image_size, dcfg.channels}, scfg.batch, tel,
                         tenants, shards);
  }

  // The mirror must be wired into ServerConfig before the server (and hence
  // before the service, which needs the server) exists — an atomic slot
  // breaks the cycle and makes detachment a single store at teardown.
  auto calib_slot = std::make_shared<std::atomic<calib::CalibrationService*>>(nullptr);
  if (with_calib) {
    scfg.mirror = [calib_slot](const std::string& n, const Tensor& s) {
      if (auto* svc = calib_slot->load(std::memory_order_acquire)) svc->mirror_sample(n, s);
    };
  }

  serve::InferenceServer server(scfg);
  std::unique_ptr<calib::CalibrationService> service;
  if (with_calib) {
    calib::AutocalConfig acfg;
    acfg.model = model;
    acfg.kind = kind;
    acfg.quant.precision = precision;
    acfg.mirror_every = p.positive("--calib-mirror-every", 16);
    acfg.min_samples = p.positive("--calib-min-samples", 128);
    acfg.min_window = p.positive("--calib-min-window", 48);
    acfg.drift_clip_threshold = p.positive_float("--calib-drift-clip", 0.02f);
    acfg.drift_range_bits = p.positive_float("--calib-drift-bits", 0.75f);
    acfg.drift_check_interval_ms = p.positive("--calib-interval-ms", 50);
    acfg.tqt_retrain_steps = p.bounded("--calib-retrain-steps", 0, 0, INT_MAX);
    acfg.auto_recalibrate = !p.seen("--calib-no-auto");
    const auto state = load_or_pretrain(kind, data, p.value("--cache", "tqt_artifacts"));
    service = std::make_unique<calib::CalibrationService>(server, data, state, acfg);
    calib_slot->store(service.get(), std::memory_order_release);
    std::fprintf(stderr, "tqt-autocal: deployed '%s' version %llu\n", model.c_str(),
                 static_cast<unsigned long long>(service->live_version()));
  } else {
    server.deploy_file(model, in_path, {dcfg.image_size, dcfg.image_size, dcfg.channels});
  }

  if (p.seen("--port")) {
    return serve_over_network(
        p, server, model, tel, service.get(),
        [&] {
          calib_slot->store(nullptr, std::memory_order_release);
          service.reset();
        },
        tenants);
  }

  // In-process closed-loop clients: each owns the validation indices
  // congruent to its id, submits one sample at a time, and retries on shed
  // (the explicit backpressure signal).
  std::mutex acc_mu;
  Accuracy acc;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(clients));
  const auto t0 = std::chrono::steady_clock::now();
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Accuracy local;
      for (int64_t i = c; i < total_requests; i += clients) {
        const Batch b = data.val_batch(i % data.val_size(), 1);
        serve::SubmitResult res;
        for (;;) {
          res = server.submit(model, b.images);
          if (res.status != serve::SubmitStatus::kShed) break;
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
        if (res.status != serve::SubmitStatus::kOk) return;
        accumulate_topk(res.response.get(), b.labels, local);
      }
      std::lock_guard<std::mutex> lk(acc_mu);
      acc.correct1 += local.correct1;
      acc.correct5 += local.correct5;
      acc.count += local.count;
    });
  }
  for (auto& t : threads) t.join();
  calib_slot->store(nullptr, std::memory_order_release);
  service.reset();  // worker must stop before the server it deploys into
  server.shutdown_and_drain();
  const double secs = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  std::fprintf(stderr, "%s served %lld requests (%d clients): top-1 %.1f%%  top-5 %.1f%%\n",
               model.c_str(), static_cast<long long>(acc.count), clients, 100.0 * acc.top1(),
               100.0 * acc.top5());
  std::fprintf(stderr, "%lld inferences in %.3f s: %.3f ms/inference (%.1f img/s)\n",
               static_cast<long long>(acc.count), secs,
               acc.count > 0 ? 1e3 * secs / static_cast<double>(acc.count) : 0.0,
               secs > 0 ? static_cast<double>(acc.count) / secs : 0.0);
  std::printf("%s\n", server.stats_json().c_str());
  tel.flush();
  return 0;
}

/// Pixel-wise gain (1.0 = identity): the drift-injection knob for the
/// autocal demo — a gain-shifted stream moves every activation range.
Tensor with_gain(const Tensor& t, float gain) {
  if (gain == 1.0f) return t;
  Tensor out = t;
  float* d = out.data();
  for (int64_t i = 0; i < out.numel(); ++i) d[i] *= gain;
  return out;
}

int cmd_client(int argc, char** argv) {
  ArgParser p("client", "<model>",
              "Drive a running tqt-gateway over the wire protocol with validation "
              "samples and report accuracy plus per-status response counts.");
  p.add("--host", "H", "server host, IPv4 or 'localhost' (default localhost)");
  p.add("--port", "P", "server TCP port (required)");
  p.add("--requests", "R", "samples to send (default 64)");
  p.add("--deadline-us", "D", "per-request deadline in microseconds (default none)");
  p.add("--gain", "G", "multiply every pixel by G — inject distribution drift (default 1)");
  p.add("--tenant", "TOKEN", "tenant auth token attached to every request (wire v2)");
  p.add("--hedge-ms", "N", "duplicate a slow request on a second connection after N ms; "
                           "first response wins, the loser is cancelled");
  p.add("--shed-retries", "R", "retry SHED rejections up to R times, doubling backoff "
                               "(default 0)");
  if (!p.parse(argc, argv)) return 0;
  // The model name is sent as-is: the server owns the deployment namespace
  // and answers BAD_MODEL for anything it does not host.
  const std::string model = p.positional("model");
  const uint16_t port = static_cast<uint16_t>(p.bounded("--port", 0, 1, 65535));
  if (!p.seen("--port")) {
    throw std::invalid_argument("tqt_cli client: missing required flag --port (try --help)");
  }
  const std::string host = p.value("--host", "localhost");
  const int requests = p.positive("--requests", 64);
  const uint32_t deadline_us =
      static_cast<uint32_t>(p.bounded("--deadline-us", 0, 1, INT_MAX));
  const float gain = p.positive_float("--gain", 1.0f);
  const std::string token = p.value("--tenant", "");
  if (p.seen("--tenant") && token.empty()) {
    throw std::invalid_argument("--tenant expects a non-empty token");
  }
  if (token.size() > net::kMaxTokenBytes) {
    throw std::invalid_argument("--tenant token must be at most " +
                                std::to_string(net::kMaxTokenBytes) + " bytes");
  }
  const int hedge_ms = p.positive("--hedge-ms", 0);
  const int shed_retries = p.bounded("--shed-retries", 0, 0, 1000);

  SyntheticImageDataset data(default_dataset_config());
  net::GatewayClient client(host, port);
  client.set_token(token);
  net::HedgeConfig hedge;
  hedge.hedge_after_us = static_cast<uint32_t>(hedge_ms) * 1000u;
  hedge.shed_retries = shed_retries;
  client.set_hedge(hedge);
  Accuracy acc;
  // One slot per WireStatus value (kOk..kCorruptModel).
  uint64_t by_status[static_cast<size_t>(net::kMaxWireStatus) + 1] = {};
  for (int i = 0; i < requests; ++i) {
    const Batch b = data.val_batch(i % data.val_size(), 1);
    const net::InferResponse resp = client.infer(model, with_gain(b.images, gain), deadline_us);
    ++by_status[static_cast<size_t>(resp.status)];
    if (resp.status == net::WireStatus::kOk) {
      accumulate_topk(resp.output, b.labels, acc);
    }
  }
  std::printf("%s via %s:%u: %d requests, top-1 %.1f%%  top-5 %.1f%%\n", model.c_str(),
              host.c_str(), port, requests, 100.0 * acc.top1(), 100.0 * acc.top5());
  for (size_t s = 0; s <= static_cast<size_t>(net::kMaxWireStatus); ++s) {
    if (by_status[s] > 0) {
      std::printf("  %-18s %llu\n", net::to_string(static_cast<net::WireStatus>(s)),
                  static_cast<unsigned long long>(by_status[s]));
    }
  }
  if (hedge_ms > 0) {
    std::fprintf(stderr, "hedges: sent %llu, won %llu\n",
                 static_cast<unsigned long long>(client.hedges_sent()),
                 static_cast<unsigned long long>(client.hedge_wins()));
  }
  // Non-OK responses are a useful probe result, not a transport failure —
  // exit 0 unless nothing succeeded.
  return by_status[0] > 0 ? 0 : 1;
}

int cmd_calib(int argc, char** argv) {
  ArgParser p("calib", "<model>",
              "Admin client for a --calib gateway: stream calibration batches from "
              "the validation split, then run the requested control operations in "
              "order (dry-run, trigger, rollback, swap-file, status).");
  p.add("--host", "H", "server host, IPv4 or 'localhost' (default localhost)");
  p.add("--port", "P", "server TCP port (required)");
  p.add("--batches", "N", "calibration batches to stream first (default 0)");
  p.add("--batch-size", "M", "images per calibration batch (default 32)");
  p.add("--gain", "G", "multiply batch pixels by G — stream drifted statistics (default 1)");
  p.add("--dry-run", "", "derive + print would-be thresholds without deploying");
  p.add("--trigger", "", "force a calibrate/validate/promote cycle");
  p.add("--rollback", "", "reinstall the previous program version");
  p.add("--swap-file", "PATH", "validate + promote a server-side program file");
  p.add("--reload-tenants", "", "hot-reload the gateway's tenant table from its file");
  p.add("--status", "", "print the service status JSON (the default action)");
  if (!p.parse(argc, argv)) return 0;
  const std::string model = p.positional("model");
  if (!p.seen("--port")) {
    throw std::invalid_argument("tqt_cli calib: missing required flag --port (try --help)");
  }
  const uint16_t port = static_cast<uint16_t>(p.bounded("--port", 0, 1, 65535));
  const std::string host = p.value("--host", "localhost");
  const int batches = p.bounded("--batches", 0, 0, INT_MAX);
  const int batch_size = p.positive("--batch-size", 32);
  const float gain = p.positive_float("--gain", 1.0f);

  net::GatewayClient client(host, port);
  bool all_ok = true;
  const auto run_op = [&](net::AdminOp op, const std::string& arg = "") {
    net::AdminRequest req;
    req.op = op;
    req.model = model;
    req.arg = arg;
    const net::AdminResponse resp = client.admin(req);
    if (resp.status != net::WireStatus::kOk) all_ok = false;
    std::printf("[%s] %s\n", net::to_string(op), net::to_string(resp.status));
    if (!resp.message.empty()) std::printf("%s\n", resp.message.c_str());
  };

  if (batches > 0) {
    SyntheticImageDataset data(default_dataset_config());
    net::AdminResponse last;
    int64_t sent = 0;
    for (int i = 0; i < batches; ++i) {
      const int64_t first = (static_cast<int64_t>(i) * batch_size) % data.val_size();
      const int64_t n = std::min<int64_t>(batch_size, data.val_size() - first);
      net::AdminRequest req;
      req.op = net::AdminOp::kCalibBatch;
      req.model = model;
      req.has_batch = true;
      req.batch = with_gain(data.val_batch(first, n).images, gain);
      last = client.admin(req);
      if (last.status != net::WireStatus::kOk) {
        all_ok = false;
        break;
      }
      sent += n;
    }
    std::printf("[calib_batch] %s after %lld images", net::to_string(last.status),
                static_cast<long long>(sent));
    if (!last.message.empty()) std::printf(": %s", last.message.c_str());
    std::printf("\n");
  }

  if (p.seen("--dry-run")) run_op(net::AdminOp::kDryRun);
  if (p.seen("--trigger")) run_op(net::AdminOp::kTrigger);
  if (p.seen("--rollback")) run_op(net::AdminOp::kRollback);
  if (p.seen("--swap-file")) run_op(net::AdminOp::kSwapFile, p.value("--swap-file"));
  if (p.seen("--reload-tenants")) run_op(net::AdminOp::kReloadTenants);
  const bool any_action = batches > 0 || p.seen("--dry-run") || p.seen("--trigger") ||
                          p.seen("--rollback") || p.seen("--swap-file") ||
                          p.seen("--reload-tenants");
  if (p.seen("--status") || !any_action) run_op(net::AdminOp::kStatus);
  return all_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // Fail fast on an unrecognized TQT_KERNELS value: resolving the kernel set
  // here (instead of at first dispatch) turns a mid-run abort into a one-line
  // startup error for every subcommand.
  tqt::fpk::active_kernels();
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "list") return cmd_list(argc - 2, argv + 2);
    if (cmd == "pretrain") return cmd_pretrain(argc - 2, argv + 2);
    if (cmd == "quantize") return cmd_quantize(argc - 2, argv + 2);
    if (cmd == "export") return cmd_export(argc - 2, argv + 2);
    if (cmd == "run") return cmd_run(argc - 2, argv + 2);
    if (cmd == "tune") return cmd_tune(argc - 2, argv + 2);
    if (cmd == "serve") return cmd_serve(argc - 2, argv + 2);
    if (cmd == "client") return cmd_client(argc - 2, argv + 2);
    if (cmd == "calib") return cmd_calib(argc - 2, argv + 2);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}
