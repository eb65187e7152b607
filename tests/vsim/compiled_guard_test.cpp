// Performance ratio guards for the vsim backend ladder (labeled
// bench_smoke in ctest): on the merge architecture the compiled backend
// must beat the event-driven backend by at least 2x per-symbol and the
// codegen backend must beat the compiled interpreter by at least 2x. Both
// floors sit far below the measured gap (BENCH_vsim.json: ~15x and ~7x),
// so CI noise cannot flake the guards, but they are tight enough to catch
// a backend silently falling back or regressing to the tier below. A third
// guard keeps the front end in proportion: parsing the emitted module may
// take at most 5x as long as elaborating it (measured ~1.5x; the
// string-comparing parser it replaced sat at ~13x). The multi-lane guard
// lives in packed_guard_test.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

#include "hls/report.h"
#include "qam/architectures.h"
#include "qam/decoder_ir.h"
#include "qam/link.h"
#include "rtl/verilog.h"
#include "vsim/codegen.h"
#include "vsim/elab.h"
#include "vsim/harness.h"
#include "vsim/parser.h"

namespace hlsw::vsim {
namespace {

using hls::PortIo;
using hls::TechLibrary;
using qam::LinkConfig;
using qam::LinkStimulus;

double run_symbols_ms(DutHarness& dut, const std::vector<PortIo>& batch) {
  const auto t0 = std::chrono::steady_clock::now();
  for (const auto& in : batch) dut.run(in);
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

TEST(VsimCompiledGuard, CompiledBeatsEventByAtLeast2xOnMergeArch) {
  const qam::Architecture arch = qam::table1_architectures()[0];  // merge
  const auto r = hls::run_synthesis(qam::build_qam_decoder_ir(), arch.dir,
                                    TechLibrary::asic90());
  const std::string verilog = rtl::emit_verilog(r.transformed, r.schedule);
  const auto design = load_design(verilog, r.transformed.name);

  LinkStimulus stim((LinkConfig()));
  const auto batch = qam::link_input_batch(&stim, 60);

  SimConfig event_cfg;
  event_cfg.backend = Backend::kEvent;
  DutHarness event_dut(r.transformed, design, event_cfg);
  DutHarness compiled_dut(r.transformed, design);
  ASSERT_STREQ(event_dut.sim().backend(), "event");
  ASSERT_STREQ(compiled_dut.sim().backend(), "compiled")
      << compiled_dut.sim().fallback_reason();

  // Warm both paths (plan compile, allocator), then take best-of-3 per
  // backend so a scheduler hiccup on one run cannot fail the guard.
  run_symbols_ms(compiled_dut, batch);
  run_symbols_ms(event_dut, batch);
  double t_compiled = 1e300, t_event = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    t_compiled = std::min(t_compiled, run_symbols_ms(compiled_dut, batch));
    t_event = std::min(t_event, run_symbols_ms(event_dut, batch));
  }

  ASSERT_GT(t_compiled, 0.0);
  const double ratio = t_event / t_compiled;
  EXPECT_GE(ratio, 2.0) << "compiled backend only " << ratio
                        << "x faster than event (event " << t_event
                        << " ms vs compiled " << t_compiled << " ms)";
}

TEST(VsimCodegenGuard, CodegenBeatsCompiledByAtLeast2xOnMergeArch) {
  if (!codegen_available())
    GTEST_SKIP() << "no host C++ toolchain — codegen backend unavailable";
  const qam::Architecture arch = qam::table1_architectures()[0];  // merge
  const auto r = hls::run_synthesis(qam::build_qam_decoder_ir(), arch.dir,
                                    TechLibrary::asic90());
  const std::string verilog = rtl::emit_verilog(r.transformed, r.schedule);
  const auto design = load_design(verilog, r.transformed.name);

  LinkStimulus stim((LinkConfig()));
  const auto batch = qam::link_input_batch(&stim, 60);

  SimConfig codegen_cfg;
  codegen_cfg.backend = Backend::kCodegen;
  DutHarness compiled_dut(r.transformed, design);
  DutHarness codegen_dut(r.transformed, design, codegen_cfg);
  ASSERT_STREQ(compiled_dut.sim().backend(), "compiled")
      << compiled_dut.sim().fallback_reason();
  ASSERT_STREQ(codegen_dut.sim().backend(), "codegen")
      << codegen_dut.sim().fallback_reason();

  // Warmup absorbs the one-time generate+compile+dlopen, then best-of-3.
  run_symbols_ms(codegen_dut, batch);
  run_symbols_ms(compiled_dut, batch);
  double t_codegen = 1e300, t_compiled = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    t_codegen = std::min(t_codegen, run_symbols_ms(codegen_dut, batch));
    t_compiled = std::min(t_compiled, run_symbols_ms(compiled_dut, batch));
  }

  ASSERT_GT(t_codegen, 0.0);
  const double ratio = t_compiled / t_codegen;
  EXPECT_GE(ratio, 2.0) << "codegen backend only " << ratio
                        << "x faster than compiled (compiled " << t_compiled
                        << " ms vs codegen " << t_codegen << " ms)";
}

TEST(VsimParseGuard, ParseWithin5xOfElaborateOnMergeArch) {
  const qam::Architecture arch = qam::table1_architectures()[0];  // merge
  const auto r = hls::run_synthesis(qam::build_qam_decoder_ir(), arch.dir,
                                    TechLibrary::asic90());
  const std::string verilog = rtl::emit_verilog(r.transformed, r.schedule);
  const auto ms_since = [](std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
  };

  // Best of 5 per stage, each rep a fresh parse and a fresh elaboration.
  double t_parse = 1e300, t_elab = 1e300;
  for (int rep = 0; rep < 5; ++rep) {
    auto t0 = std::chrono::steady_clock::now();
    const SourceUnit su = parse(verilog);
    t_parse = std::min(t_parse, ms_since(t0));
    t0 = std::chrono::steady_clock::now();
    const auto design = elaborate(su, r.transformed.name);
    t_elab = std::min(t_elab, ms_since(t0));
    ASSERT_NE(design, nullptr);
  }

  ASSERT_GT(t_elab, 0.0);
  const double ratio = t_parse / t_elab;
  EXPECT_LE(ratio, 5.0) << "parsing takes " << ratio
                        << "x as long as elaborating (parse " << t_parse
                        << " ms vs elaborate " << t_elab << " ms)";
}

}  // namespace
}  // namespace hlsw::vsim
