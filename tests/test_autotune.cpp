// Tests for the kernel autotuner (autotune.{h,cpp}) and the channel-blocked
// NC8HW8 layout: bit-exactness of tuned programs against the int64 reference
// at multiple thread counts, the forced-blocked layout path (pack/unpack
// pseudo-ops), sidecar persistence (round-trip, truncation at every prefix,
// hash validation, silent re-tune fallbacks), serving hot-swap under
// concurrent execution with differently-tuned artifacts, --explain-kernels
// plumbing, the engine.autotune.* metrics, and the TQT_KERNELS validation
// seam.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "fixedpoint/autotune.h"
#include "fixedpoint/engine.h"
#include "fixedpoint/kernels/kernels.h"
#include "fixedpoint/plan.h"
#include "graph_opt/quantize_pass.h"
#include "graph_opt/transforms.h"
#include "models/zoo.h"
#include "observe/observe.h"
#include "runtime/parallel.h"
#include "serve/model_registry.h"
#include "tensor/rng.h"
#include "test_util.h"

namespace tqt {
namespace {

struct Prepared {
  BuiltModel m;
  QuantizePassResult qres;
};

Prepared prepare(ModelKind kind, uint64_t seed = 11) {
  Prepared p;
  p.m = build_model(kind, 10, seed);
  Rng rng(seed);
  p.m.graph.set_training(true);
  for (int i = 0; i < 10; ++i) {
    p.m.graph.run({{p.m.input, rng.normal_tensor({8, 16, 16, 3}, 0.2f, 1.0f)}}, p.m.logits);
  }
  p.m.graph.set_training(false);
  Tensor calib = rng.normal_tensor({16, 16, 16, 3}, 0.2f, 1.0f);
  optimize_for_quantization(p.m.graph, p.m.input, calib);
  QuantizeConfig cfg;
  p.qres = quantize_pass(p.m.graph, p.m.input, p.m.logits, cfg);
  calibrate_thresholds(p.m.graph, p.qres, p.m.input, calib, WeightInit::kMax);
  return p;
}

FixedPointProgram compile(Prepared& p) {
  return compile_fixed_point(p.m.graph, p.m.input, p.qres.quantized_output);
}

void expect_raw_equal(const IntTensor& a, const IntTensor& b, const std::string& what) {
  ASSERT_EQ(a.shape, b.shape) << what;
  ASSERT_EQ(a.exponent, b.exponent) << what;
  ASSERT_EQ(a.data.size(), b.data.size()) << what;
  for (size_t i = 0; i < a.data.size(); ++i) {
    ASSERT_EQ(a.data[i], b.data[i]) << what << " lane " << i;
  }
}

std::string temp_path(const char* name) { return ::testing::TempDir() + "/" + name; }

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// RAII: turn tuning on (or force an algo) and restore the pristine
/// off-by-default state plus an empty shape cache afterwards, so the
/// remaining test binaries see exactly the pre-autotuner behavior.
struct TuneScope {
  explicit TuneScope(int mode, int forced = -1) {
    autotune::reset_for_test();
    autotune::set_mode(mode);
    if (forced >= 0) autotune::set_forced_algo_for_test(forced);
  }
  ~TuneScope() {
    autotune::set_mode(-1);
    autotune::reset_for_test();
  }
};

// ---- Bit-exactness of tuned programs ---------------------------------------

class TunedEngine : public ::testing::TestWithParam<ModelKind> {};

// The tuner only changes WHICH exact kernel runs: with autotuning on, every
// zoo model stays bit-identical to the int64 reference interpreter at 1 and
// 4 threads.
TEST_P(TunedEngine, MatchesReferenceWithAutotuneOn) {
  TuneScope scope(1);
  Prepared p = prepare(GetParam());
  FixedPointProgram prog = compile(p);
  ASSERT_NE(prog.tuning(), nullptr) << "no instruction was tunable";
  EXPECT_GT(prog.tuning()->tuned_instrs, 0);
  Rng rng(77);
  const Tensor probe = rng.normal_tensor({3, 16, 16, 3}, 0.2f, 1.2f);
  const IntTensor ref = prog.run_raw_reference(probe);
  for (int threads : {1, 4}) {
    set_num_threads(threads);
    expect_raw_equal(prog.run_raw(probe), ref,
                     model_name(GetParam()) + " tuned @" + std::to_string(threads));
  }
  set_num_threads(0);
}

INSTANTIATE_TEST_SUITE_P(AllModels, TunedEngine, ::testing::ValuesIn(all_model_kinds()),
                         [](const auto& info) { return model_name(info.param); });

// Forcing the blocked layout on every capable instruction exercises the
// pack/unpack pseudo-op insertion and the NC8HW8 kernels end to end; results
// must stay exact, including across thread counts and on both kernel sets.
TEST(TunedEngineBlocked, ForcedBlockedLayoutIsBitExact) {
  for (ModelKind kind : {ModelKind::kMiniVgg, ModelKind::kMiniMobileNetV2}) {
    TuneScope scope(1, static_cast<int>(fpk::Algo::kBlocked));
    Prepared p = prepare(kind);
    FixedPointProgram prog = compile(p);
    ASSERT_NE(prog.tuning(), nullptr);
    ASSERT_GT(prog.tuning()->blocked_instrs, 0) << model_name(kind);
    // Layout pseudo-ops exist only in the execution stream; the canonical
    // program (what serialization and the reference read) never has them.
    EXPECT_FALSE(prog.plan().instrs.empty());
    for (const FpInstr& in : prog.instructions()) {
      EXPECT_NE(in.kind, FpInstr::Kind::kLayoutPack);
      EXPECT_NE(in.kind, FpInstr::Kind::kLayoutUnpack);
    }
    int packs = 0, unpacks = 0;
    for (const FpInstr& in : prog.plan().instrs) {
      packs += in.kind == FpInstr::Kind::kLayoutPack;
      unpacks += in.kind == FpInstr::Kind::kLayoutUnpack;
    }
    EXPECT_GT(packs, 0);
    EXPECT_GT(unpacks, 0);
    Rng rng(78);
    const Tensor probe = rng.normal_tensor({2, 16, 16, 3}, 0.2f, 1.2f);
    const IntTensor ref = prog.run_raw_reference(probe);
    for (const fpk::KernelSet* ks :
         {&fpk::scalar_kernels(), fpk::avx2_kernels()}) {
      if (!ks) continue;
      fpk::set_active_kernels(ks);
      for (int threads : {1, 4}) {
        set_num_threads(threads);
        expect_raw_equal(prog.run_raw(probe), ref,
                         std::string(model_name(kind)) + " blocked " + ks->name + " @" +
                             std::to_string(threads));
      }
    }
    fpk::set_active_kernels(nullptr);
    set_num_threads(0);
  }
}

// A tuned program and the untuned build of the SAME model agree lane for
// lane — tuning is invisible to results by construction.
TEST(TunedEngineBlocked, TunedMatchesUntuned) {
  Prepared p = prepare(ModelKind::kMiniVgg);
  FixedPointProgram prog = compile(p);
  Rng rng(79);
  const Tensor probe = rng.normal_tensor({2, 16, 16, 3}, 0.2f, 1.2f);
  const IntTensor untuned = prog.run_raw(probe);
  TuneScope scope(1);
  prog.refinalize();
  expect_raw_equal(prog.run_raw(probe), untuned, "tuned vs untuned");
}

// ---- Sidecar persistence ---------------------------------------------------

autotune::ProgramTuning sample_tuning() {
  autotune::ProgramTuning t;
  t.program_hash = 0x1234abcd5678ef90ull;
  autotune::TuneEntry a;
  a.winner = static_cast<int32_t>(fpk::Algo::kGemmRaw);
  a.t_std = 1.5e-4;
  a.t_blk = 0.9e-4;
  a.t_pack = 1e-5;
  a.t_unpack = 2e-5;
  autotune::TuneEntry b;
  b.winner = static_cast<int32_t>(fpk::Algo::kDwDirect);
  b.t_std = 3e-5;
  t.entries.emplace_back("conv|i8>i8|x1x16x16x3|w3x3x3x8|s1x1|p1.1.1.1|avx2", a);
  t.entries.emplace_back("dw|i8>i8|x1x8x8x16|w3x3x16|s1x1|p1.1.1.1|avx2", b);
  return t;
}

TEST(TuneSidecar, RoundTrip) {
  const std::string path = temp_path("roundtrip.tqt.tune");
  const autotune::ProgramTuning t = sample_tuning();
  ASSERT_TRUE(autotune::save_sidecar(path, t));
  std::vector<std::pair<std::string, autotune::TuneEntry>> got;
  ASSERT_TRUE(autotune::load_sidecar(path, t.program_hash, autotune::cpu_feature_hash(), got));
  ASSERT_EQ(got.size(), t.entries.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].first, t.entries[i].first);
    EXPECT_EQ(got[i].second.winner, t.entries[i].second.winner);
    EXPECT_DOUBLE_EQ(got[i].second.t_std, t.entries[i].second.t_std);
    EXPECT_DOUBLE_EQ(got[i].second.t_blk, t.entries[i].second.t_blk);
    EXPECT_DOUBLE_EQ(got[i].second.t_pack, t.entries[i].second.t_pack);
    EXPECT_DOUBLE_EQ(got[i].second.t_unpack, t.entries[i].second.t_unpack);
  }
  std::remove(path.c_str());
}

// Truncation at EVERY byte prefix must be rejected cleanly (no throw, no
// partial output) — the load path treats any short read as "no sidecar".
TEST(TuneSidecar, TruncationAtEveryPrefixRejected) {
  const std::string path = temp_path("trunc.tqt.tune");
  const autotune::ProgramTuning t = sample_tuning();
  ASSERT_TRUE(autotune::save_sidecar(path, t));
  const std::string bytes = read_file(path);
  ASSERT_GT(bytes.size(), 24u);
  for (size_t n = 0; n < bytes.size(); ++n) {
    write_file(path, bytes.substr(0, n));
    std::vector<std::pair<std::string, autotune::TuneEntry>> got;
    got.emplace_back("sentinel", autotune::TuneEntry{});
    EXPECT_FALSE(
        autotune::load_sidecar(path, t.program_hash, autotune::cpu_feature_hash(), got))
        << "prefix " << n;
    ASSERT_EQ(got.size(), 1u) << "out modified on failure at prefix " << n;
    EXPECT_EQ(got[0].first, "sentinel");
  }
  std::remove(path.c_str());
}

TEST(TuneSidecar, WrongHashesRejected) {
  const std::string path = temp_path("hash.tqt.tune");
  const autotune::ProgramTuning t = sample_tuning();
  ASSERT_TRUE(autotune::save_sidecar(path, t));
  std::vector<std::pair<std::string, autotune::TuneEntry>> got;
  EXPECT_FALSE(autotune::load_sidecar(path, t.program_hash ^ 1, autotune::cpu_feature_hash(), got));
  EXPECT_FALSE(autotune::load_sidecar(path, t.program_hash, autotune::cpu_feature_hash() ^ 1, got));
  EXPECT_TRUE(got.empty());
  // Corrupt magic and version are rejected too.
  std::string bytes = read_file(path);
  std::string bad = bytes;
  bad[0] = 'X';
  write_file(path, bad);
  EXPECT_FALSE(autotune::load_sidecar(path, t.program_hash, autotune::cpu_feature_hash(), got));
  bad = bytes;
  bad[4] = 99;
  write_file(path, bad);
  EXPECT_FALSE(autotune::load_sidecar(path, t.program_hash, autotune::cpu_feature_hash(), got));
  std::remove(path.c_str());
}

TEST(TuneSidecar, MissingFileRejected) {
  std::vector<std::pair<std::string, autotune::TuneEntry>> got;
  EXPECT_FALSE(autotune::load_sidecar(temp_path("does_not_exist.tqt.tune"), 0, 0, got));
}

// save() writes the sidecar next to the artifact; load() adopts it without
// re-measuring (from_sidecar), and a STALE sidecar — program or CPU hash
// mismatch — silently falls back to a fresh tune.
TEST(TuneSidecar, ArtifactRoundTripAndStaleFallback) {
  TuneScope scope(1);
  Prepared p = prepare(ModelKind::kMiniVgg);
  FixedPointProgram prog = compile(p);
  ASSERT_NE(prog.tuning(), nullptr);
  const std::string path = temp_path("tuned_model.tqtp");
  const std::string sidecar = path + ".tqt.tune";
  prog.save(path);
  ASSERT_FALSE(read_file(sidecar).empty()) << "save() did not write the sidecar";

  // Fresh process state: the load must come entirely from the sidecar.
  autotune::reset_for_test();
  autotune::set_mode(1);
  FixedPointProgram back = FixedPointProgram::load(path);
  ASSERT_NE(back.tuning(), nullptr);
  EXPECT_TRUE(back.tuning()->from_sidecar);
  EXPECT_EQ(back.tuning()->program_hash, prog.tuning()->program_hash);
  Rng rng(80);
  const Tensor probe = rng.normal_tensor({2, 16, 16, 3}, 0.2f, 1.2f);
  expect_raw_equal(back.run_raw(probe), prog.run_raw_reference(probe), "sidecar-tuned load");

  // Flip one program-hash byte in the sidecar: the load silently re-tunes.
  std::string bytes = read_file(sidecar);
  bytes[8] = static_cast<char>(bytes[8] ^ 0x5a);
  write_file(sidecar, bytes);
  autotune::reset_for_test();
  autotune::set_mode(1);
  FixedPointProgram retuned = FixedPointProgram::load(path);
  ASSERT_NE(retuned.tuning(), nullptr);
  EXPECT_FALSE(retuned.tuning()->from_sidecar);
  expect_raw_equal(retuned.run_raw(probe), prog.run_raw_reference(probe), "stale-sidecar load");

  // Same with the CPU hash (bytes 16..23).
  bytes = read_file(sidecar);  // still the corrupted program hash — restore it
  prog.save(path);
  bytes = read_file(sidecar);
  bytes[16] = static_cast<char>(bytes[16] ^ 0x5a);
  write_file(sidecar, bytes);
  autotune::reset_for_test();
  autotune::set_mode(1);
  FixedPointProgram retuned2 = FixedPointProgram::load(path);
  ASSERT_NE(retuned2.tuning(), nullptr);
  EXPECT_FALSE(retuned2.tuning()->from_sidecar);
  std::remove(path.c_str());
  std::remove(sidecar.c_str());
}

// kGemmRaw is retired but keeps its enum value: a sidecar that persisted it
// as a winner still loads, the instructions it names run the packed GEMM,
// and the output stays bit-exact.
TEST(TuneSidecar, RetiredRawGemmWinnerRunsPacked) {
  TuneScope scope(1);
  Prepared p = prepare(ModelKind::kMiniVgg);
  FixedPointProgram prog = compile(p);
  ASSERT_NE(prog.tuning(), nullptr);
  const std::string path = temp_path("retired_raw.tqtp");
  const std::string sidecar = path + ".tqt.tune";
  prog.save(path);

  // Rewrite every GEMM entry's winner to kGemmRaw; zero t_blk so no blocked
  // chain overrides the standard pick.
  std::vector<std::pair<std::string, autotune::TuneEntry>> entries;
  ASSERT_TRUE(autotune::load_sidecar(sidecar, prog.tuning()->program_hash,
                                     autotune::cpu_feature_hash(), entries));
  autotune::ProgramTuning raw;
  raw.program_hash = prog.tuning()->program_hash;
  int raw_entries = 0;
  for (auto& [key, e] : entries) {
    if (key.rfind("dw|", 0) != 0) {
      e.winner = static_cast<int32_t>(fpk::Algo::kGemmRaw);
      ++raw_entries;
    }
    e.t_blk = 0;
    raw.entries.emplace_back(key, e);
  }
  ASSERT_GT(raw_entries, 0);
  ASSERT_TRUE(autotune::save_sidecar(sidecar, raw));

  autotune::reset_for_test();
  autotune::set_mode(1);
  FixedPointProgram back = FixedPointProgram::load(path);
  ASSERT_NE(back.tuning(), nullptr);
  EXPECT_TRUE(back.tuning()->from_sidecar);
  int raw_picks = 0;
  for (size_t i = 0; i < back.tuning()->algos.size(); ++i) {
    raw_picks += back.tuning()->algos[i] == fpk::Algo::kGemmRaw;
  }
  EXPECT_GT(raw_picks, 0) << "the sidecar's kGemmRaw winners were not adopted";
  int packed_tuned = 0;
  for (const auto& row : autotune::explain_kernels(back)) {
    EXPECT_NE(row.algo, fpk::algo_name(fpk::Algo::kGemmRaw)) << row.name;
    packed_tuned += row.tuned && row.algo == fpk::algo_name(fpk::Algo::kGemmPacked);
  }
  EXPECT_EQ(packed_tuned, raw_picks);
  Rng rng(82);
  const Tensor probe = rng.normal_tensor({2, 16, 16, 3}, 0.2f, 1.2f);
  expect_raw_equal(back.run_raw(probe), prog.run_raw_reference(probe), "retired raw winner");
  std::remove(path.c_str());
  std::remove(sidecar.c_str());
}

// ---- Hot-swap soak -----------------------------------------------------------

// Two artifacts of the SAME canonical program carrying DIFFERENT tunings
// (v1: forced packed GEMM, v2: forced blocked layout) hot-swap under concurrent
// execution; every reader sees bit-exact results throughout because tuning
// never changes values, only kernels. Run under TSan in verify.sh.
TEST(TuneHotSwap, SoakAcrossDifferentlyTunedVersions) {
  Prepared p = prepare(ModelKind::kMiniVgg);
  FixedPointProgram prog = compile(p);
  const std::string v1 = temp_path("swap_v1.tqtp");
  const std::string v2 = temp_path("swap_v2.tqtp");
  {
    TuneScope scope(1, static_cast<int>(fpk::Algo::kGemmPacked));
    prog.refinalize();
    ASSERT_NE(prog.tuning(), nullptr);
    EXPECT_EQ(prog.tuning()->blocked_instrs, 0);
    prog.save(v1);
  }
  {
    TuneScope scope(1, static_cast<int>(fpk::Algo::kBlocked));
    prog.refinalize();
    ASSERT_NE(prog.tuning(), nullptr);
    EXPECT_GT(prog.tuning()->blocked_instrs, 0);
    prog.save(v2);
  }
  Rng rng(81);
  const Tensor probe = rng.normal_tensor({2, 16, 16, 3}, 0.2f, 1.2f);
  const IntTensor ref = prog.run_raw_reference(probe);

  TuneScope scope(1);
  serve::ModelRegistry reg;
  ASSERT_EQ(reg.install_from_file("m", v1), 1u);
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        auto prog_now = reg.lookup("m");
        const IntTensor out = prog_now->run_raw(probe);
        if (out.data != ref.data || out.exponent != ref.exponent) {
          failures.fetch_add(1, std::memory_order_relaxed);
          return;
        }
      }
    });
  }
  for (int swap = 0; swap < 6; ++swap) {
    reg.install_from_file("m", swap % 2 == 0 ? v2 : v1);
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& th : readers) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(reg.version("m"), 7u);
  std::remove(v1.c_str());
  std::remove(v2.c_str());
  std::remove((v1 + ".tqt.tune").c_str());
  std::remove((v2 + ".tqt.tune").c_str());
}

// ---- Explain / metrics / misc ----------------------------------------------

TEST(TuneExplain, ReportsAlgoPerInstruction) {
  TuneScope scope(1, static_cast<int>(fpk::Algo::kBlocked));
  Prepared p = prepare(ModelKind::kMiniVgg);
  FixedPointProgram prog = compile(p);
  const auto rows = autotune::explain_kernels(prog);
  ASSERT_EQ(rows.size(), prog.plan().instrs.empty() ? prog.instructions().size()
                                                    : prog.plan().instrs.size());
  int tuned = 0, blocked = 0;
  for (const auto& r : rows) {
    EXPECT_FALSE(r.kind.empty());
    if (r.tuned) {
      ++tuned;
      EXPECT_FALSE(r.algo.empty());
      EXPECT_FALSE(r.shape.empty());
    }
    if (r.algo == "blocked") ++blocked;
  }
  EXPECT_GT(tuned, 0);
  EXPECT_GT(blocked, 0);
}

TEST(TuneMetrics, CountersAndGaugesRecorded) {
  auto& m = observe::MetricsRegistry::global();
  const uint64_t timed0 = m.counter("engine.autotune.candidates_timed").value();
  const uint64_t retunes0 = m.counter("engine.autotune.retunes").value();
  TuneScope scope(1);
  Prepared p = prepare(ModelKind::kMiniVgg);
  FixedPointProgram prog = compile(p);
  ASSERT_NE(prog.tuning(), nullptr);
  EXPECT_GT(m.counter("engine.autotune.candidates_timed").value(), timed0);
  EXPECT_GT(m.counter("engine.autotune.retunes").value(), retunes0);
  EXPECT_EQ(m.gauge("engine.autotune.tuned_instrs").value(), prog.tuning()->tuned_instrs);
  EXPECT_EQ(m.gauge("engine.autotune.blocked_selected").value(),
            prog.tuning()->blocked_instrs);
  // A recompile of the same model hits the process shape cache.
  const uint64_t hits0 = m.counter("engine.autotune.cache_hits").value();
  prog.refinalize();
  EXPECT_GT(m.counter("engine.autotune.cache_hits").value(), hits0);
}

// The tuner must never perturb the serialized artifact: identical bytes with
// and without tuning (layout pseudo-ops live only in the execution plan).
TEST(TuneSerialization, CanonicalBytesUnchangedByTuning) {
  Prepared p = prepare(ModelKind::kMiniVgg);
  FixedPointProgram prog = compile(p);
  const std::string a = temp_path("untuned.tqtp");
  const std::string b = temp_path("tuned.tqtp");
  prog.save(a);
  {
    TuneScope scope(1, static_cast<int>(fpk::Algo::kBlocked));
    prog.refinalize();
    prog.save(b);
  }
  EXPECT_EQ(read_file(a), read_file(b));
  std::remove(a.c_str());
  std::remove(b.c_str());
  std::remove((a + ".tqt.tune").c_str());
  std::remove((b + ".tqt.tune").c_str());
}

// TQT_KERNELS validation seam: the env-var exit path is unit-testable via
// kernels_env_error (the CLI CTest case covers the actual exit(1)).
TEST(KernelsEnv, UnrecognizedValueProducesError) {
  EXPECT_EQ(fpk::kernels_env_error("scalar"), nullptr);
  EXPECT_EQ(fpk::kernels_env_error("avx2"), nullptr);
  EXPECT_EQ(fpk::kernels_env_error("auto"), nullptr);
  EXPECT_NE(fpk::kernels_env_error("neon"), nullptr);
  EXPECT_NE(fpk::kernels_env_error(""), nullptr);
  EXPECT_NE(fpk::kernels_env_error("AVX2"), nullptr);
}

TEST(TuneMode, EnvAndOverrideResolution) {
  autotune::set_mode(0);
  EXPECT_EQ(autotune::mode(), autotune::Mode::kOff);
  autotune::set_mode(1);
  EXPECT_EQ(autotune::mode(), autotune::Mode::kOn);
  autotune::set_mode(2);
  EXPECT_EQ(autotune::mode(), autotune::Mode::kForce);
  autotune::set_mode(-1);  // back to env; the test env does not set TQT_AUTOTUNE
}

}  // namespace
}  // namespace tqt
