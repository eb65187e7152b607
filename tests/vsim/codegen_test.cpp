// Codegen-backend tests that REQUIRE a working host toolchain: the backend
// must actually run natively (no silent degradation to the compiled
// interpreter), the on-disk shared-object cache must hit when the same
// design fingerprint is rebuilt, and profile_run's opt-in codegen leg must
// record which backend executed. Registered under the `codegen` ctest
// label (CMake option HLSW_CODEGEN_TESTS, configure-time toolchain probe);
// each test also GTEST_SKIPs visibly if the toolchain disappeared between
// configure and run, so a toolchain-less machine never reports a silent
// pass. The cache directory is pointed at the build tree via
// HLSW_VSIM_CODEGEN_CACHE (set per test by ctest) and removed by a cleanup
// fixture, so test artifacts never leak into the user's tmp cache; the
// default-directory tests point TMPDIR at a scratch directory below it.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "hls/interp.h"
#include "hls/report.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "qam/architectures.h"
#include "qam/decoder_ir.h"
#include "qam/link.h"
#include "rtl/verilog.h"
#include "vsim/codegen.h"
#include "vsim/harness.h"
#include "vsim/pack.h"
#include "vsim/parser.h"
#include "vsim/profile.h"

namespace hlsw::vsim {
namespace {

using hls::PortIo;
using hls::TechLibrary;

#define REQUIRE_TOOLCHAIN()                                              \
  do {                                                                   \
    if (!codegen_available())                                            \
      GTEST_SKIP() << "no host C++ toolchain (HLSW_CODEGEN_CXX/CXX)";    \
  } while (0)

// Sets (or, with nullptr, unsets) an environment variable for one scope
// and restores the previous value afterwards.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* prev = std::getenv(name)) prev_ = prev;
    if (value)
      ::setenv(name, value, 1);
    else
      ::unsetenv(name);
  }
  ~ScopedEnv() {
    if (prev_)
      ::setenv(name_, prev_->c_str(), 1);
    else
      ::unsetenv(name_);
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  std::optional<std::string> prev_;
};

// A one-register design that compiles in a fraction of the decoder's time;
// every call elaborates afresh, so the per-plan memo never answers.
std::shared_ptr<const CompiledDesign> tiny_plan() {
  static const char* kSrc = R"(
module tiny(input wire clk, input wire [7:0] x, output reg [7:0] q);
  wire [7:0] n;
  assign n = q + x;
  always @(posedge clk) q <= n;
endmodule
)";
  return compiled_plan(elaborate(parse(kSrc), "tiny"), nullptr);
}

// A scratch directory for tests that point TMPDIR elsewhere: under the
// test's codegen cache when ctest sets one, so nothing lands in /tmp.
std::filesystem::path scratch_dir(const std::string& tag) {
  const char* cache = std::getenv("HLSW_VSIM_CODEGEN_CACHE");
  const std::filesystem::path base =
      cache && *cache ? std::filesystem::path(cache)
                      : std::filesystem::temp_directory_path();
  const auto dir = base / (tag + "-" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

hls::SynthesisResult synth_merge() {
  return hls::run_synthesis(qam::build_qam_decoder_ir(),
                            qam::table1_architectures()[0].dir,
                            TechLibrary::asic90());
}

TEST(VsimCodegen, BackendRunsNativelyAndMatchesGolden) {
  REQUIRE_TOOLCHAIN();
  const auto r = synth_merge();
  const std::string verilog = rtl::emit_verilog(r.transformed, r.schedule);
  const auto design = load_design(verilog, r.transformed.name);

  SimConfig cfg;
  cfg.backend = Backend::kCodegen;
  DutHarness dut(r.transformed, design, cfg);
  ASSERT_STREQ(dut.sim().backend(), "codegen")
      << dut.sim().fallback_reason();
  EXPECT_TRUE(dut.sim().fallback_reason().empty());

  hls::Interpreter golden(r.transformed);
  qam::LinkStimulus stim((qam::LinkConfig()));
  const auto vectors = qam::link_input_batch(&stim, 8);
  const auto want = golden.run_stream(vectors);
  const auto got = dut.run_stream(vectors);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].vars, want[i].vars) << "symbol " << i;
    EXPECT_EQ(got[i].arrays, want[i].arrays) << "symbol " << i;
  }
  // The generated engine keeps the interpreter's accounting contract.
  EXPECT_GT(dut.sim().stats().events, 0);
  EXPECT_GT(dut.sim().stats().nba_commits, 0);
}

// The one-lane source a scalar Simulation compiles under kCodegen: the
// lane-major ABI, with no target_clones (one lane has nothing to
// vectorize).
TEST(VsimCodegen, GeneratedSourceIsSelfContained) {
  REQUIRE_TOOLCHAIN();
  const auto r = synth_merge();
  const std::string verilog = rtl::emit_verilog(r.transformed, r.schedule);
  const auto design = load_design(verilog, r.transformed.name);
  const auto plan = compiled_plan(design, nullptr);
  ASSERT_NE(plan, nullptr);
  const std::string src = packed_codegen_source(*plan, 1);
  // The ABI the loader resolves, all emitted with C linkage.
  for (const char* sym :
       {"hlsw_cg_pk_lanes", "hlsw_cg_pk_create", "hlsw_cg_pk_destroy",
        "hlsw_cg_pk_poke", "hlsw_cg_pk_peek", "hlsw_cg_pk_settle",
        "hlsw_cg_pk_stats"})
    EXPECT_NE(src.find(sym), std::string::npos) << sym;
  EXPECT_NE(src.find("extern \"C\""), std::string::npos);
  EXPECT_NE(src.find("constexpr int kL = 1;"), std::string::npos);
  EXPECT_EQ(src.find("target_clones"), std::string::npos);
}

TEST(VsimCodegen, SharedObjectCacheHitsOnRebuiltFingerprint) {
  REQUIRE_TOOLCHAIN();
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  auto& m = obs::MetricsRegistry::instance();

  const auto r = synth_merge();
  const std::string verilog = rtl::emit_verilog(r.transformed, r.schedule);

  // First build through the normal path (may compile or hit a prior run's
  // on-disk artifact — either way the module loads).
  {
    SimConfig cfg;
    cfg.backend = Backend::kCodegen;
    Simulation sim(load_design(verilog, r.transformed.name), cfg);
    ASSERT_STREQ(sim.backend(), "codegen") << sim.fallback_reason();
  }

  // A FRESH elaboration of the same text bypasses both the design cache
  // and the per-plan memo, so packed_codegen_plan re-fingerprints — and
  // must find the .so on disk instead of invoking the toolchain again.
  const double hits0 = m.counter_value("vsim.codegen.so_cache.hits");
  const double compiles0 = m.counter_value("vsim.codegen.compiles");
  auto fresh = elaborate(parse(verilog), r.transformed.name);
  std::string why;
  const auto plan = compiled_plan(fresh, &why);
  ASSERT_NE(plan, nullptr) << why;
  const auto mod = packed_codegen_plan(plan, 1, &why);
  ASSERT_NE(mod, nullptr) << why;
  EXPECT_GE(m.counter_value("vsim.codegen.so_cache.hits"), hits0 + 1.0)
      << "rebuilt fingerprint missed the on-disk cache";
  EXPECT_EQ(m.counter_value("vsim.codegen.compiles"), compiles0)
      << "rebuilt fingerprint re-invoked the toolchain";
  EXPECT_FALSE(mod->fingerprint.empty());
  EXPECT_FALSE(mod->so_path.empty());

  obs::set_enabled(was_enabled);
}

TEST(VsimCodegen, PackedGeneratedSourceIsSelfContained) {
  REQUIRE_TOOLCHAIN();
  const auto r = synth_merge();
  const std::string verilog = rtl::emit_verilog(r.transformed, r.schedule);
  const auto design = load_design(verilog, r.transformed.name);
  const auto plan = compiled_plan(design, nullptr);
  ASSERT_NE(plan, nullptr);
  const std::string src = packed_codegen_source(*plan, 8);
  for (const char* sym :
       {"hlsw_cg_pk_lanes", "hlsw_cg_pk_create", "hlsw_cg_pk_destroy",
        "hlsw_cg_pk_poke", "hlsw_cg_pk_poke_plane", "hlsw_cg_pk_peek",
        "hlsw_cg_pk_nonzero", "hlsw_cg_pk_settle", "hlsw_cg_pk_stats"})
    EXPECT_NE(src.find(sym), std::string::npos) << sym;
  EXPECT_NE(src.find("constexpr int kL = 8;"), std::string::npos);
  EXPECT_NE(src.find("target_clones"), std::string::npos);
}

// The .so cache is keyed by a fingerprint over the generated text, and the
// lane count is part of that text, so one design at different lane counts
// must never alias to the same artifact in $HLSW_VSIM_CODEGEN_CACHE.
TEST(VsimCodegen, PackedFingerprintsDoNotCollideAcrossLanesOrAbi) {
  REQUIRE_TOOLCHAIN();
  const auto r = synth_merge();
  const std::string verilog = rtl::emit_verilog(r.transformed, r.schedule);
  const auto design = load_design(verilog, r.transformed.name);
  std::string why;
  const auto plan = compiled_plan(design, &why);
  ASSERT_NE(plan, nullptr) << why;

  const auto pk1 = packed_codegen_plan(plan, 1, &why);
  ASSERT_NE(pk1, nullptr) << why;
  const auto pk4 = packed_codegen_plan(plan, 4, &why);
  ASSERT_NE(pk4, nullptr) << why;
  const auto pk8 = packed_codegen_plan(plan, 8, &why);
  ASSERT_NE(pk8, nullptr) << why;

  EXPECT_NE(pk4->fingerprint, pk8->fingerprint);
  EXPECT_NE(pk1->fingerprint, pk4->fingerprint);
  EXPECT_NE(pk1->fingerprint, pk8->fingerprint);
  EXPECT_NE(pk4->so_path, pk8->so_path);
  EXPECT_NE(pk1->so_path, pk4->so_path);
  EXPECT_EQ(pk1->lanes, 1);
  EXPECT_EQ(pk4->lanes, 4);
  EXPECT_EQ(pk8->lanes, 8);

  // Re-requesting the same (plan, lanes) pair shares the memoized module.
  EXPECT_EQ(packed_codegen_plan(plan, 4, &why).get(), pk4.get());
  EXPECT_EQ(packed_codegen_plan(plan, 1, &why).get(), pk1.get());
}

TEST(VsimCodegen, PackedBackendRunsNativelyAndMatchesGolden) {
  REQUIRE_TOOLCHAIN();
  const auto r = synth_merge();
  const std::string verilog = rtl::emit_verilog(r.transformed, r.schedule);
  const auto design = load_design(verilog, r.transformed.name);
  std::string why;
  const auto plan = compiled_plan(design, &why);
  ASSERT_NE(plan, nullptr) << why;

  SimConfig cfg;
  cfg.backend = Backend::kCodegen;
  constexpr int kLanes = 4;
  PackedDutHarness dut(r.transformed, plan, kLanes, cfg);
  ASSERT_STREQ(dut.backend(), "packed_codegen") << dut.fallback_reason();
  EXPECT_TRUE(dut.fallback_reason().empty());

  qam::LinkStimulus stim((qam::LinkConfig()));
  const auto vectors = qam::link_input_batch(&stim, 8);
  std::vector<std::vector<PortIo>> streams(kLanes);
  for (std::size_t i = 0; i < vectors.size(); ++i)
    streams[i % kLanes].push_back(vectors[i]);
  const auto got = dut.run_streams(streams);

  hls::Interpreter golden(r.transformed);
  for (int l = 0; l < kLanes; ++l) {
    golden.reset();
    const auto want = golden.run_stream(streams[static_cast<std::size_t>(l)]);
    ASSERT_EQ(got[static_cast<std::size_t>(l)].size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[static_cast<std::size_t>(l)][i].vars, want[i].vars)
          << "lane " << l << " symbol " << i;
      EXPECT_EQ(got[static_cast<std::size_t>(l)][i].arrays, want[i].arrays)
          << "lane " << l << " symbol " << i;
    }
  }
  EXPECT_GT(dut.sim().stats().events, 0);
  EXPECT_GT(dut.sim().stats().nba_commits, 0);
}

// The .so key covers the compiler identity and command line, not just the
// source: another CXX or other flags must not reuse a stale object, while
// the same toolchain still hits the cache.
TEST(VsimCodegen, FingerprintCoversCompilerCommand) {
  REQUIRE_TOOLCHAIN();
  ScopedEnv cxx("HLSW_CODEGEN_CXX", "c++");
  if (!codegen_available()) GTEST_SKIP() << "no `c++` on PATH";
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  auto& m = obs::MetricsRegistry::instance();
  std::string why;
  const auto plain = packed_codegen_plan(tiny_plan(), 1, &why);
  ASSERT_NE(plain, nullptr) << why;

  ::setenv("HLSW_CODEGEN_CXX", "c++ -g0", 1);
  const auto flagged = packed_codegen_plan(tiny_plan(), 1, &why);
  ASSERT_NE(flagged, nullptr) << why;
  EXPECT_NE(plain->fingerprint, flagged->fingerprint);
  EXPECT_NE(plain->so_path, flagged->so_path);

  ::setenv("HLSW_CODEGEN_CXX", "c++", 1);
  const double hits0 = m.counter_value("vsim.codegen.so_cache.hits");
  const double compiles0 = m.counter_value("vsim.codegen.compiles");
  const auto again = packed_codegen_plan(tiny_plan(), 1, &why);
  ASSERT_NE(again, nullptr) << why;
  EXPECT_EQ(again->fingerprint, plain->fingerprint);
  EXPECT_EQ(m.counter_value("vsim.codegen.so_cache.hits"), hits0 + 1.0);
  EXPECT_EQ(m.counter_value("vsim.codegen.compiles"), compiles0);

  obs::set_enabled(was_enabled);
}

// Without HLSW_VSIM_CODEGEN_CACHE the artifacts go to a private per-user
// directory under $TMPDIR, created mode 0700.
TEST(VsimCodegen, DefaultCacheDirIsPerUserAndPrivate) {
  REQUIRE_TOOLCHAIN();
  const auto tmp = scratch_dir("tmpdir-fresh");
  {
    ScopedEnv cache("HLSW_VSIM_CODEGEN_CACHE", nullptr);
    ScopedEnv tmpdir("TMPDIR", tmp.c_str());
    const auto want =
        tmp / ("hlsw-vsim-codegen-" + std::to_string(::geteuid()));
    std::string why;
    const auto mod = packed_codegen_plan(tiny_plan(), 1, &why);
    ASSERT_NE(mod, nullptr) << why;
    EXPECT_EQ(std::filesystem::path(mod->so_path).parent_path(), want);
    struct stat st {};
    ASSERT_EQ(::lstat(want.c_str(), &st), 0);
    EXPECT_TRUE(S_ISDIR(st.st_mode));
    EXPECT_EQ(st.st_mode & 0777, 0700u);
    EXPECT_EQ(st.st_uid, ::geteuid());
  }
  std::filesystem::remove_all(tmp);
}

// A default directory others can write to, or a symlink in its place, is
// refused before anything is loaded from it: codegen falls back with a
// reason naming the directory.
TEST(VsimCodegen, UnsafeDefaultCacheDirFallsBackWithTypedReason) {
  REQUIRE_TOOLCHAIN();
  const auto tmp = scratch_dir("tmpdir-unsafe");
  {
    ScopedEnv cache("HLSW_VSIM_CODEGEN_CACHE", nullptr);
    ScopedEnv tmpdir("TMPDIR", tmp.c_str());
    const auto dir =
        tmp / ("hlsw-vsim-codegen-" + std::to_string(::geteuid()));

    std::filesystem::create_directory(dir);
    ASSERT_EQ(::chmod(dir.c_str(), 0777), 0);
    std::string why;
    EXPECT_EQ(packed_codegen_plan(tiny_plan(), 1, &why), nullptr);
    EXPECT_NE(why.find(dir.string()), std::string::npos) << why;
    EXPECT_NE(why.find("writable"), std::string::npos) << why;

    // The scalar Simulation degrades to the compiled interpreter with the
    // same reason behind its "codegen: " prefix.
    SimConfig cfg;
    cfg.backend = Backend::kCodegen;
    Simulation sim(tiny_plan()->design, cfg);
    EXPECT_STREQ(sim.backend(), "compiled");
    EXPECT_EQ(sim.fallback_reason().rfind("codegen: ", 0), 0u)
        << sim.fallback_reason();
    EXPECT_NE(sim.fallback_reason().find(dir.string()), std::string::npos)
        << sim.fallback_reason();

    std::filesystem::remove(dir);
    std::filesystem::create_directory(tmp / "elsewhere");
    std::filesystem::create_directory_symlink(tmp / "elsewhere", dir);
    EXPECT_EQ(packed_codegen_plan(tiny_plan(), 1, &why), nullptr);
    EXPECT_NE(why.find("symlink"), std::string::npos) << why;
    EXPECT_TRUE(std::filesystem::is_empty(tmp / "elsewhere"));
  }
  std::filesystem::remove_all(tmp);
}

TEST(VsimCodegen, ProfileRunRecordsCodegenLegAndBackend) {
  REQUIRE_TOOLCHAIN();
  const qam::Architecture a = qam::table1_architectures()[0];
  qam::LinkStimulus stim((qam::LinkConfig()));
  const auto vectors = qam::link_input_batch(&stim, 3);

  ProfileRunOptions opts;
  opts.run_rtl_sim = false;
  opts.run_vsim_event = false;
  opts.run_vsim_compiled = true;
  opts.run_vsim_codegen = true;
  const ProfileRunResult res =
      profile_run(qam::build_qam_decoder_ir(), a.dir, TechLibrary::asic90(),
                  vectors, opts);
  EXPECT_TRUE(res.ok()) << (res.cross_issues.empty()
                                ? "leg deviation"
                                : res.cross_issues.front());
  ASSERT_EQ(res.leg_backends.size(), 2u);
  EXPECT_EQ(res.leg_backends[0], "compiled");
  EXPECT_EQ(res.leg_backends[1], "codegen");
  EXPECT_EQ(res.leg_fallbacks[1], "");

  // The serialized report names the backend per leg, so a downgrade would
  // be visible in profile_run.json, not only in counters.
  const std::string json = res.to_json().dump();
  EXPECT_NE(json.find("\"backend\":\"codegen\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"fallback_reason\""), std::string::npos);
}

}  // namespace
}  // namespace hlsw::vsim
