// Performance ratio guard for multi-lane sweeps (labeled codegen in
// ctest): one 64-lane PackedDutHarness — the generated lane-major engine —
// must beat per-block scalar replay by at least 2x in DUT throughput. The
// floor sits far below the measured gap (BENCH_vsim.json), so CI noise
// cannot flake it, but it catches the packed path silently regressing to
// scalar-replay speed. Registered only where the configure-time toolchain
// probe succeeded.
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
#include "vsim/harness.h"
#include "vsim/pack.h"

namespace hlsw::vsim {
namespace {

using hls::PortIo;
using hls::TechLibrary;
using qam::LinkConfig;
using qam::LinkStimulus;

TEST(VsimPackedGuard, Packed64BeatsScalarReplayByAtLeast2xDutThroughput) {
  // 64 independent 10-symbol blocks: per-block scalar DutHarness replay vs
  // one 64-lane PackedDutHarness over the same streams — the DUT-side work
  // a packed sweep saves (the golden interpreter leg is identical on both
  // sides of a full sweep, so it is excluded here).
  if (!codegen_available())
    GTEST_SKIP() << "no host C++ toolchain — no multi-lane engine";
  const qam::Architecture arch = qam::table1_architectures()[0];
  const auto r = hls::run_synthesis(qam::build_qam_decoder_ir(), arch.dir,
                                    TechLibrary::asic90());
  const std::string verilog = rtl::emit_verilog(r.transformed, r.schedule);
  const auto design = load_design(verilog, r.transformed.name);
  std::string why;
  const auto plan = compiled_plan(design, &why);
  ASSERT_NE(plan, nullptr) << why;

  const int kLanes = 64, kBlock = 10;
  LinkStimulus stim((LinkConfig()));
  const auto batch = qam::link_input_batch(&stim, kLanes * kBlock);
  std::vector<std::vector<PortIo>> streams(kLanes);
  for (int b = 0; b < kLanes; ++b)
    streams[static_cast<std::size_t>(b)].assign(
        batch.begin() + b * kBlock, batch.begin() + (b + 1) * kBlock);

  const auto scalar_ms = [&] {
    const auto t0 = std::chrono::steady_clock::now();
    for (const auto& s : streams) {
      DutHarness dut(r.transformed, design);
      dut.run_stream(s);
    }
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
  };
  const auto packed_ms = [&] {
    const auto t0 = std::chrono::steady_clock::now();
    PackedDutHarness dut(r.transformed, plan, kLanes);
    dut.run_streams(streams);
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
  };

  scalar_ms();  // warm the plan memo and allocator on both paths
  packed_ms();
  double t_scalar = 1e300, t_packed = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    t_scalar = std::min(t_scalar, scalar_ms());
    t_packed = std::min(t_packed, packed_ms());
  }

  ASSERT_GT(t_packed, 0.0);
  const double ratio = t_scalar / t_packed;
  EXPECT_GE(ratio, 2.0) << "packed 64-lane engine only " << ratio
                        << "x faster than scalar replay (scalar " << t_scalar
                        << " ms vs packed " << t_packed << " ms)";
}

}  // namespace
}  // namespace hlsw::vsim
