// Kernel autotuner implementation (see autotune.h for the contract).
//
// Measurement strategy: every candidate runs through detail::run_fused — the
// exact dispatch the executor uses — on tuner-owned synthetic buffers filled
// from the planned register bounds (deterministic LCG, ~1/3 zeros so the
// zero-run skip paths see representative density). Timing is best-of-3 blocks
// of `reps` runs, reps sized so one block touches ~kTuneTargetOps multiply-
// accumulates; the best block is robust against scheduler noise and the
// measure-once cache makes a given process's selections stable. Ties break
// toward the lower Algo enum value, so identical measurements always produce
// identical programs.
//
// The blocked-layout decision is made over maximal CHAINS of capable
// instructions, not per instruction: pack/unpack transforms amortize across a
// chain (interior links hand the NC8HW8 register straight through), so the
// comparison is sum(t_blk) + t_pack(first) + t_unpack(last) against
// 0.95 * sum(t_std) — the 5% margin keeps near-ties on the simpler standard
// path.
#include "fixedpoint/autotune.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <unordered_map>

#include "fixedpoint/kernels/kernels.h"
#include "observe/observe.h"

namespace tqt::autotune {
namespace {

// ---- Mode resolution -------------------------------------------------------

std::atomic<int> g_mode_override{-1};
std::atomic<int> g_forced_algo{-1};

Mode env_mode() {
  const char* e = std::getenv("TQT_AUTOTUNE");
  if (!e) return Mode::kOff;
  if (std::strcmp(e, "1") == 0 || std::strcmp(e, "on") == 0) return Mode::kOn;
  if (std::strcmp(e, "2") == 0 || std::strcmp(e, "force") == 0) return Mode::kForce;
  return Mode::kOff;
}

// ---- Process shape cache ---------------------------------------------------

std::mutex& cache_mu() {
  static std::mutex mu;
  return mu;
}

std::unordered_map<std::string, TuneEntry>& shape_cache() {
  static std::unordered_map<std::string, TuneEntry> c;
  return c;
}

// ---- Hashing ---------------------------------------------------------------

struct Fnv {
  uint64_t h = 1469598103934665603ull;
  void bytes(const void* p, size_t n) {
    const unsigned char* b = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ull;
    }
  }
  void i64(int64_t v) { bytes(&v, sizeof v); }
  void i32(int32_t v) { bytes(&v, sizeof v); }
};

// ---- Synthetic probe inputs ------------------------------------------------

void fill_synth(void* p, int64_t n, IntWidth w, int64_t lo, int64_t hi) {
  if (hi < lo) { lo = -64; hi = 63; }
  uint32_t v = 20260809u;
  const bool zero_ok = lo <= 0 && 0 <= hi;
  const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  for (int64_t i = 0; i < n; ++i) {
    v = (v * 1103515245u + 12345u) & 0x7fffffffu;
    int64_t val = lo + static_cast<int64_t>(v % span);
    if (zero_ok && v % 3 == 0) val = 0;
    switch (w) {
      case IntWidth::kI8: static_cast<int8_t*>(p)[i] = static_cast<int8_t>(val); break;
      case IntWidth::kI16: static_cast<int16_t*>(p)[i] = static_cast<int16_t>(val); break;
      case IntWidth::kI32: static_cast<int32_t*>(p)[i] = static_cast<int32_t>(val); break;
      default: static_cast<int64_t*>(p)[i] = val; break;
    }
  }
}

// ---- Timing ----------------------------------------------------------------

constexpr int64_t kTuneTargetOps = 8'000'000;
constexpr int kTimeBlocks = 3;

int reps_for(int64_t ops) {
  if (ops < 1) ops = 1;
  int64_t r = kTuneTargetOps / ops;
  if (r < 2) r = 2;
  if (r > 64) r = 64;
  return static_cast<int>(r);
}

/// Best-of-N blocks of `reps` runs; returns seconds per run. One untimed
/// warm-up run first grows scratch buffers and faults pages in.
template <typename F>
double time_probe(int reps, F&& fn) {
  fn();
  double best = 1e300;
  for (int b = 0; b < kTimeBlocks; ++b) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < reps; ++r) fn();
    const auto t1 = std::chrono::steady_clock::now();
    const double per = std::chrono::duration<double>(t1 - t0).count() / reps;
    if (per < best) best = per;
  }
  return best;
}

// ---- Candidate enumeration -------------------------------------------------

/// Standard-layout candidates (never kGeneric — it cannot beat a registered
/// narrow kernel, so timing it would only slow tuning down; instructions whose
/// sole option is the generic fallback are not tunable).
void standard_candidates(const FpInstr& in, const ExecPlan::Const& c, IntWidth xw,
                         std::vector<fpk::Algo>& out) {
  out.clear();
  if (!c.acc_ok32 || c.width != IntWidth::kI8) return;
  if (xw != IntWidth::kI8 && xw != IntWidth::kI16) return;
  if (in.kind == FpInstr::Kind::kDepthwiseFused) {
    out.push_back(fpk::Algo::kDwDirect);
    return;
  }
  if (!c.b_pair16.empty()) out.push_back(fpk::Algo::kGemmPacked);
  if (!c.b_nib4.empty()) out.push_back(fpk::Algo::kGemmS4);
}

/// Whether the NC8HW8 blocked kernels can run this instruction at all.
bool blocked_capable(const FpInstr& in, const ExecPlan::Const& c, IntWidth xw) {
  if (!c.acc_ok32 || c.width != IntWidth::kI8) return false;
  if (xw != IntWidth::kI8) return false;
  // Per-channel epilogues index chan_shift by the logical channel; the
  // blocked kernels retire padded NC8HW8 lanes, so keep them off the table.
  if (!c.chan_shifts.empty()) return false;
  return in.kind == FpInstr::Kind::kConv2dFused || in.kind == FpInstr::Kind::kDepthwiseFused;
}

/// Multiply-accumulate count of one run (drives the rep count).
int64_t probe_ops(const FpInstr& in, int64_t yn) {
  switch (in.kind) {
    case FpInstr::Kind::kConv2dFused:
      return yn * in.const_shape[0] * in.const_shape[1] * in.const_shape[2];
    case FpInstr::Kind::kDepthwiseFused:
      return yn * in.const_shape[0] * in.const_shape[1];
    default:
      return yn * in.const_shape[0];
  }
}

/// Shape-class key: (op, widths, input shape incl. batch, weight shape,
/// geometry, kernel set, weight traits). Two instructions with equal keys
/// time identically, so they share one cache entry. The weight traits tag
/// (int4-packable, per-channel) keeps instructions with different candidate
/// sets or retire paths from sharing an entry.
std::string shape_key(const FpInstr& in, const ExecPlan::Const& c, const FpRegShape& xs,
                      IntWidth xw, IntWidth wy) {
  const FpInstr::Kind base = base_kind_of(in.kind);
  const char* op = base == FpInstr::Kind::kDepthwise ? "dw"
                   : base == FpInstr::Kind::kDense   ? "dense"
                                                     : "conv";
  char buf[256];
  char xdims[64];
  int off = 0;
  for (int d = 0; d < xs.rank; ++d) {
    off += std::snprintf(xdims + off, sizeof(xdims) - static_cast<size_t>(off),
                         d ? "x%lld" : "%lld", static_cast<long long>(xs.dims[d]));
  }
  char wdims[64];
  off = 0;
  for (size_t d = 0; d < in.const_shape.size(); ++d) {
    off += std::snprintf(wdims + off, sizeof(wdims) - static_cast<size_t>(off),
                         d ? "x%lld" : "%lld", static_cast<long long>(in.const_shape[d]));
  }
  std::snprintf(buf, sizeof buf, "%s|%s>%s|x%s|w%s|s%lldx%lld|p%lld.%lld.%lld.%lld|%s%s%s",
                op, to_string(xw), to_string(wy), xdims, wdims,
                static_cast<long long>(in.geom.stride_h),
                static_cast<long long>(in.geom.stride_w),
                static_cast<long long>(in.geom.pad_top),
                static_cast<long long>(in.geom.pad_bottom),
                static_cast<long long>(in.geom.pad_left),
                static_cast<long long>(in.geom.pad_right), fpk::active_kernels().name,
                c.b_nib4.empty() ? "" : "|w4", c.chan_shifts.empty() ? "" : "|pc");
  return buf;
}

/// Measure every candidate for one instruction and fill a TuneEntry.
TuneEntry measure_key(const FpInstr& in, const ExecPlan::Const& c, const FpRegShape& xs,
                      IntWidth xw, IntWidth wy, int64_t yn, int64_t in_lo, int64_t in_hi,
                      const std::vector<fpk::Algo>& cands, bool try_blocked,
                      observe::Counter& timed) {
  TuneEntry e;
  std::vector<unsigned char> scratch, acc;
  const int reps = reps_for(probe_ops(in, yn));

  // Standard-layout probe buffers (+32 bytes of A-operand slack).
  std::vector<unsigned char> x(static_cast<size_t>(xs.numel) * width_bytes(xw) + 32, 0);
  std::vector<unsigned char> y(static_cast<size_t>(yn) * width_bytes(wy) + 32, 0);
  fill_synth(x.data(), xs.numel, xw, in_lo, in_hi);

  double t_best = 1e300;
  fpk::Algo best = fpk::Algo::kGeneric;
  for (fpk::Algo a : cands) {
    const double t = time_probe(reps, [&] {
      detail::run_fused(in, c, a, x.data(), xs, xw, y.data(), wy, yn, scratch, acc);
    });
    timed.inc();
    if (t < t_best) {  // strict: ties keep the earlier (lower-enum) candidate
      t_best = t;
      best = a;
    }
  }
  e.winner = static_cast<int32_t>(best);
  e.t_std = t_best;

  if (try_blocked) {
    // A blocked probe needs the blocked weight packs the preliminary plan
    // does not carry yet, plus NC8HW8 copies of both activation buffers.
    ExecPlan::Const cb = c;
    int64_t yn_blk;
    if (in.kind == FpInstr::Kind::kDepthwiseFused) {
      cb.w_blk8 = fpk::pack_dw_wblk8(c.i8.data(), in.const_shape[0], in.const_shape[1],
                                     in.const_shape[2]);
      const int64_t oh = in.geom.out_h(xs.dims[1]), ow = in.geom.out_w(xs.dims[2]);
      yn_blk = xs.dims[0] * oh * ow * fpk::blocked_c(in.const_shape[2]);
    } else {
      cb.b_blk16 = fpk::pack_conv_wblk16(c.i8.data(), in.const_shape[0], in.const_shape[1],
                                         in.const_shape[2], in.const_shape[3]);
      const int64_t oh = in.geom.out_h(xs.dims[1]), ow = in.geom.out_w(xs.dims[2]);
      yn_blk = xs.dims[0] * oh * ow * fpk::blocked_c(in.const_shape[3]);
    }
    const int64_t xn_blk = xs.dims[0] * xs.dims[1] * xs.dims[2] * fpk::blocked_c(xs.dims[3]);
    std::vector<unsigned char> xb(static_cast<size_t>(xn_blk) + 32, 0);
    std::vector<unsigned char> yb(static_cast<size_t>(yn_blk) * width_bytes(wy) + 32, 0);
    detail::layout_pack(reinterpret_cast<const int8_t*>(x.data()), xs,
                        reinterpret_cast<int8_t*>(xb.data()));
    e.t_blk = time_probe(reps, [&] {
      detail::run_fused(in, cb, fpk::Algo::kBlocked, xb.data(), xs, xw, yb.data(), wy,
                        yn_blk, scratch, acc);
    });
    timed.inc();
    const int pack_reps = reps_for(xs.numel);
    e.t_pack = time_probe(pack_reps, [&] {
      detail::layout_pack(reinterpret_cast<const int8_t*>(x.data()), xs,
                          reinterpret_cast<int8_t*>(xb.data()));
    });
    FpRegShape ys{};
    ys.rank = 4;
    ys.dims[0] = xs.dims[0];
    ys.dims[1] = in.geom.out_h(xs.dims[1]);
    ys.dims[2] = in.geom.out_w(xs.dims[2]);
    ys.dims[3] = in.kind == FpInstr::Kind::kDepthwiseFused ? in.const_shape[2]
                                                           : in.const_shape[3];
    ys.numel = ys.dims[0] * ys.dims[1] * ys.dims[2] * ys.dims[3];
    e.t_unpack = time_probe(reps_for(ys.numel), [&] {
      detail::layout_unpack(yb.data(), wy, ys, y.data());
    });
  }
  return e;
}

}  // namespace

Mode mode() {
  const int o = g_mode_override.load(std::memory_order_relaxed);
  if (o == 0) return Mode::kOff;
  if (o == 1) return Mode::kOn;
  if (o == 2) return Mode::kForce;
  return env_mode();
}

void set_mode(int m) { g_mode_override.store(m, std::memory_order_relaxed); }

void set_forced_algo_for_test(int algo) {
  g_forced_algo.store(algo, std::memory_order_relaxed);
}

void reset_for_test() {
  g_forced_algo.store(-1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lk(cache_mu());
  shape_cache().clear();
}

uint64_t hash_program(const std::vector<FpInstr>& instrs, int n_registers,
                      int input_register, int output_register) {
  Fnv f;
  f.i32(n_registers);
  f.i32(input_register);
  f.i32(output_register);
  for (const FpInstr& in : instrs) {
    f.i32(static_cast<int32_t>(in.kind));
    f.i32(static_cast<int32_t>(in.inputs.size()));
    for (int r : in.inputs) f.i32(r);
    f.i32(in.output);
    f.i64(in.geom.kh);
    f.i64(in.geom.kw);
    f.i64(in.geom.stride_h);
    f.i64(in.geom.stride_w);
    f.i64(in.geom.pad_top);
    f.i64(in.geom.pad_bottom);
    f.i64(in.geom.pad_left);
    f.i64(in.geom.pad_right);
    f.i32(static_cast<int32_t>(in.const_data.size()));
    if (!in.const_data.empty())
      f.bytes(in.const_data.data(), in.const_data.size() * sizeof(int64_t));
    f.i32(static_cast<int32_t>(in.const_shape.size()));
    for (int64_t d : in.const_shape) f.i64(d);
    f.i32(in.const_exponent);
    f.i32(in.out_exponent);
    f.i64(in.clamp_lo);
    f.i64(in.clamp_hi);
    f.i64(in.alpha_q);
    f.i32(in.alpha_exponent);
    f.i32(static_cast<int32_t>(in.epi_data.size()));
    if (!in.epi_data.empty())
      f.bytes(in.epi_data.data(), in.epi_data.size() * sizeof(int64_t));
    f.i32(static_cast<int32_t>(in.bias_data.size()));
    if (!in.bias_data.empty())
      f.bytes(in.bias_data.data(), in.bias_data.size() * sizeof(int64_t));
    f.i32(static_cast<int32_t>(in.chan_data.size()));
    if (!in.chan_data.empty())
      f.bytes(in.chan_data.data(), in.chan_data.size() * sizeof(int64_t));
    // debug_name deliberately excluded: renames must not invalidate a tune.
  }
  return f.h;
}

uint64_t cpu_feature_hash() {
  Fnv f;
  const char* name = fpk::active_kernels().name;
  f.bytes(name, std::strlen(name));
  f.i32(fpk::avx2_kernels() != nullptr ? 1 : 0);
  return f.h;
}

bool save_sidecar(const std::string& path, const ProgramTuning& tuning) {
  std::FILE* fp = std::fopen(path.c_str(), "wb");
  if (!fp) return false;
  bool ok = true;
  const auto put = [&](const void* p, size_t n) {
    if (ok && std::fwrite(p, 1, n, fp) != n) ok = false;
  };
  put("TQTT", 4);
  const uint32_t ver = 1;
  put(&ver, 4);
  const uint64_t ph = tuning.program_hash;
  put(&ph, 8);
  const uint64_t ch = cpu_feature_hash();
  put(&ch, 8);
  const uint32_t n = static_cast<uint32_t>(tuning.entries.size());
  put(&n, 4);
  for (const auto& [key, e] : tuning.entries) {
    const uint32_t klen = static_cast<uint32_t>(key.size());
    put(&klen, 4);
    put(key.data(), key.size());
    put(&e.winner, 4);
    put(&e.t_std, 8);
    put(&e.t_blk, 8);
    put(&e.t_pack, 8);
    put(&e.t_unpack, 8);
  }
  if (std::fclose(fp) != 0) ok = false;
  return ok;
}

bool load_sidecar(const std::string& path, uint64_t program_hash, uint64_t cpu_hash,
                  std::vector<std::pair<std::string, TuneEntry>>& out) {
  std::FILE* fp = std::fopen(path.c_str(), "rb");
  if (!fp) return false;
  std::vector<std::pair<std::string, TuneEntry>> got;
  bool ok = true;
  const auto get = [&](void* p, size_t n) {
    if (ok && std::fread(p, 1, n, fp) != n) ok = false;
  };
  char magic[4] = {};
  get(magic, 4);
  if (ok && std::memcmp(magic, "TQTT", 4) != 0) ok = false;
  uint32_t ver = 0;
  get(&ver, 4);
  if (ok && ver != 1) ok = false;
  uint64_t ph = 0, ch = 0;
  get(&ph, 8);
  get(&ch, 8);
  if (ok && (ph != program_hash || ch != cpu_hash)) ok = false;
  uint32_t n = 0;
  get(&n, 4);
  if (ok && n > 100000) ok = false;
  for (uint32_t i = 0; ok && i < n; ++i) {
    uint32_t klen = 0;
    get(&klen, 4);
    if (ok && klen > 4096) ok = false;
    if (!ok) break;
    std::string key(klen, '\0');
    get(key.data(), klen);
    TuneEntry e;
    get(&e.winner, 4);
    get(&e.t_std, 8);
    get(&e.t_blk, 8);
    get(&e.t_pack, 8);
    get(&e.t_unpack, 8);
    if (ok && (e.winner < 0 || e.winner > static_cast<int32_t>(fpk::kAlgoMax)))
      ok = false;
    if (ok) got.emplace_back(std::move(key), e);
  }
  std::fclose(fp);
  if (!ok) return false;
  out = std::move(got);
  return true;
}

std::shared_ptr<const ProgramTuning> tune_program(const std::vector<FpInstr>& instrs,
                                                  int n_registers, int input_register,
                                                  int output_register, const ExecPlan& plan,
                                                  const std::string& sidecar_path) {
  auto& m = observe::MetricsRegistry::global();
  auto& c_timed = m.counter("engine.autotune.candidates_timed");
  auto& c_cache = m.counter("engine.autotune.cache_hits");
  auto& c_retune = m.counter("engine.autotune.retunes");
  auto& c_sidecar = m.counter("engine.autotune.sidecar_loads");

  const Shape nominal = fp_nominal_input_shape(instrs);
  std::vector<FpRegShape> shapes;
  infer_register_shapes(instrs, n_registers, input_register, nominal, shapes);

  const int n = static_cast<int>(instrs.size());
  std::vector<std::vector<fpk::Algo>> cands(static_cast<size_t>(n));
  std::vector<char> capable(static_cast<size_t>(n), 0);  // blocked-capable
  std::vector<std::string> keys(static_cast<size_t>(n));
  bool any = false;
  for (int i = 0; i < n; ++i) {
    const FpInstr& in = instrs[i];
    if (!is_fused_kind(in.kind)) continue;
    const IntWidth xw = plan.regs[static_cast<size_t>(in.inputs[0])].width;
    standard_candidates(in, plan.consts[static_cast<size_t>(i)], xw, cands[static_cast<size_t>(i)]);
    capable[static_cast<size_t>(i)] =
        blocked_capable(in, plan.consts[static_cast<size_t>(i)], xw) ? 1 : 0;
    // Tunable = a real choice exists: >= 2 standard candidates, or a blocked
    // alternative to >= 1 standard candidate.
    const bool tunable = cands[static_cast<size_t>(i)].size() >= 2 ||
                         (capable[static_cast<size_t>(i)] && !cands[static_cast<size_t>(i)].empty());
    if (!tunable) {
      cands[static_cast<size_t>(i)].clear();
      capable[static_cast<size_t>(i)] = 0;
      continue;
    }
    const IntWidth wy = plan.regs[static_cast<size_t>(in.output)].width;
    keys[static_cast<size_t>(i)] = shape_key(in, plan.consts[static_cast<size_t>(i)],
                                             shapes[static_cast<size_t>(in.inputs[0])], xw, wy);
    any = true;
  }
  if (!any) return nullptr;

  auto tuning = std::make_shared<ProgramTuning>();
  tuning->algos.assign(static_cast<size_t>(n), fpk::Algo::kAuto);
  tuning->program_hash = hash_program(instrs, n_registers, input_register, output_register);

  // Forced-algo test hook: no measurement, no cache, no sidecar.
  const int forced = g_forced_algo.load(std::memory_order_relaxed);
  if (forced >= 0) {
    const fpk::Algo fa = static_cast<fpk::Algo>(forced);
    for (int i = 0; i < n; ++i) {
      const bool can =
          fa == fpk::Algo::kBlocked
              ? capable[static_cast<size_t>(i)] != 0
              : std::find(cands[static_cast<size_t>(i)].begin(), cands[static_cast<size_t>(i)].end(),
                          fa) != cands[static_cast<size_t>(i)].end();
      if (!can) continue;
      tuning->algos[static_cast<size_t>(i)] = fa;
      ++tuning->tuned_instrs;
      if (fa == fpk::Algo::kBlocked) ++tuning->blocked_instrs;
      TuneEntry e;
      e.winner = forced;
      tuning->entries.emplace_back(keys[static_cast<size_t>(i)], e);
    }
    return tuning->tuned_instrs > 0 ? tuning : nullptr;
  }

  // Sidecar consultation (kOn only; kForce re-measures everything).
  std::unordered_map<std::string, TuneEntry> sidecar;
  if (!sidecar_path.empty() && mode() != Mode::kForce) {
    std::vector<std::pair<std::string, TuneEntry>> loaded;
    if (load_sidecar(sidecar_path, tuning->program_hash, cpu_feature_hash(), loaded)) {
      for (auto& [k, e] : loaded) sidecar.emplace(std::move(k), e);
    }
  }

  // Resolve every key: process cache, then sidecar, then measure. The mutex
  // is held across measurement so concurrent finalizes (serving hot-swap)
  // measure each key exactly once.
  std::unordered_map<std::string, TuneEntry> resolved;
  int measured_fresh = 0, from_sidecar = 0;
  {
    std::lock_guard<std::mutex> lk(cache_mu());
    auto& cache = shape_cache();
    for (int i = 0; i < n; ++i) {
      const std::string& key = keys[static_cast<size_t>(i)];
      if (key.empty() || resolved.count(key)) continue;
      if (mode() != Mode::kForce) {
        if (auto it = cache.find(key); it != cache.end()) {
          resolved.emplace(key, it->second);
          c_cache.inc();
          continue;
        }
        if (auto it = sidecar.find(key); it != sidecar.end()) {
          resolved.emplace(key, it->second);
          cache.emplace(key, it->second);
          c_sidecar.inc();
          ++from_sidecar;
          continue;
        }
      }
      const FpInstr& in = instrs[i];
      const int x = in.inputs[0];
      const IntWidth xw = plan.regs[static_cast<size_t>(x)].width;
      const IntWidth wy = plan.regs[static_cast<size_t>(in.output)].width;
      const TuneEntry e = measure_key(
          in, plan.consts[static_cast<size_t>(i)], shapes[static_cast<size_t>(x)], xw, wy,
          shapes[static_cast<size_t>(in.output)].numel, plan.regs[static_cast<size_t>(x)].lo,
          plan.regs[static_cast<size_t>(x)].hi, cands[static_cast<size_t>(i)],
          capable[static_cast<size_t>(i)] != 0, c_timed);
      resolved.emplace(key, e);
      cache[key] = e;
      ++measured_fresh;
      c_retune.inc();
    }
  }

  // Per-instruction standard winners.
  for (int i = 0; i < n; ++i) {
    if (keys[static_cast<size_t>(i)].empty()) continue;
    tuning->algos[static_cast<size_t>(i)] =
        static_cast<fpk::Algo>(resolved[keys[static_cast<size_t>(i)]].winner);
    ++tuning->tuned_instrs;
  }

  // Blocked-chain decision. A chain link exists when instruction i's output
  // feeds exactly instruction j's activation input (single use, int8, j also
  // capable); maximal chains are then accepted or rejected wholesale.
  std::vector<int> uses(static_cast<size_t>(n_registers), 0);
  for (const FpInstr& in : instrs)
    for (int r : in.inputs) ++uses[static_cast<size_t>(r)];
  std::vector<int> next(static_cast<size_t>(n), -1), prev(static_cast<size_t>(n), -1);
  std::unordered_map<int, int> producer;  // register -> capable producer idx
  for (int i = 0; i < n; ++i)
    if (capable[static_cast<size_t>(i)] && resolved.count(keys[static_cast<size_t>(i)]) &&
        resolved[keys[static_cast<size_t>(i)]].t_blk > 0)
      producer[instrs[static_cast<size_t>(i)].output] = i;
    else
      capable[static_cast<size_t>(i)] = 0;  // no usable blocked measurement
  for (int j = 0; j < n; ++j) {
    if (!capable[static_cast<size_t>(j)]) continue;
    const int r = instrs[static_cast<size_t>(j)].inputs[0];
    auto it = producer.find(r);
    if (it == producer.end()) continue;
    const int i = it->second;
    if (r == output_register || uses[static_cast<size_t>(r)] != 1) continue;
    if (plan.regs[static_cast<size_t>(r)].width != IntWidth::kI8) continue;
    next[static_cast<size_t>(i)] = j;
    prev[static_cast<size_t>(j)] = i;
  }
  for (int i = 0; i < n; ++i) {
    if (!capable[static_cast<size_t>(i)] || prev[static_cast<size_t>(i)] != -1) continue;
    std::vector<int> chain;
    for (int k = i; k != -1; k = next[static_cast<size_t>(k)]) chain.push_back(k);
    double t_std = 0, t_blk = 0;
    for (int k : chain) {
      const TuneEntry& e = resolved[keys[static_cast<size_t>(k)]];
      t_std += e.t_std;
      t_blk += e.t_blk;
    }
    t_blk += resolved[keys[static_cast<size_t>(chain.front())]].t_pack;
    t_blk += resolved[keys[static_cast<size_t>(chain.back())]].t_unpack;
    if (t_blk < 0.95 * t_std) {
      for (int k : chain) {
        tuning->algos[static_cast<size_t>(k)] = fpk::Algo::kBlocked;
        ++tuning->blocked_instrs;
      }
    }
  }

  // Entries in instruction order, deduped by key (sidecar payload).
  {
    std::unordered_map<std::string, bool> seen;
    for (int i = 0; i < n; ++i) {
      const std::string& key = keys[static_cast<size_t>(i)];
      if (key.empty() || seen.count(key)) continue;
      seen.emplace(key, true);
      tuning->entries.emplace_back(key, resolved[key]);
    }
  }
  tuning->from_sidecar = measured_fresh == 0 && from_sidecar > 0;

  m.gauge("engine.autotune.tuned_instrs").set(tuning->tuned_instrs);
  m.gauge("engine.autotune.blocked_selected").set(tuning->blocked_instrs);
  return tuning;
}

std::vector<ExplainRow> explain_kernels(const FixedPointProgram& prog) {
  const ExecPlan& plan = prog.plan();
  const std::vector<FpInstr>& stream =
      plan.instrs.empty() ? prog.instructions() : plan.instrs;
  const Shape nominal = fp_nominal_input_shape(prog.instructions());
  std::vector<FpRegShape> shapes;
  infer_register_shapes(stream, static_cast<int>(plan.regs.size()), prog.input_reg(),
                        nominal, shapes);
  std::vector<ExplainRow> rows;
  rows.reserve(stream.size());
  for (size_t i = 0; i < stream.size(); ++i) {
    const FpInstr& in = stream[i];
    ExplainRow row;
    row.name = in.debug_name;
    row.kind = to_string(in.kind);
    if (is_matmul_kind(in.kind)) {
      const IntWidth xw = plan.regs[static_cast<size_t>(in.inputs[0])].width;
      const IntWidth wy = plan.regs[static_cast<size_t>(in.output)].width;
      const fpk::Algo planned = i < plan.algos.size() ? plan.algos[i] : fpk::Algo::kAuto;
      row.shape = shape_key(in, plan.consts[i], shapes[static_cast<size_t>(in.inputs[0])],
                            xw, wy);
      const fpk::Algo algo = detail::resolve_fused_algo(in, plan.consts[i], xw, planned);
      row.algo = fpk::algo_name(algo);
      row.tuned = planned != fpk::Algo::kAuto;
      // Only the SIMD sets read Epilogue::vec32; the scalar set and the
      // generic fallback walk epi_apply lane by lane.
      const bool simd = &fpk::active_kernels() != &fpk::scalar_kernels();
      row.retire = simd && algo != fpk::Algo::kGeneric && plan.consts[i].epi_vec32
                       ? "vec32"
                       : "scalar";
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace tqt::autotune
