// Lane-packing semantics: running N stimulus streams through the generated
// lane-major engine (PackedCodegenSim) must be bit-identical to N
// independent scalar CompiledSim runs of the same streams — values, array
// state AND the event/NBA/instruction accounting summed over lanes. The
// stimulus is deliberately divergent (a data-dependent if, a case dispatch
// and per-lane memory indices all disagree across lanes), so the masked
// context-splitting path is exercised, not just lockstep execution. The
// sweep-level tests prove vsim_sweep with lanes > 1 returns the same
// CosimResult (ok, blocks, mismatch list) as the scalar sweep, on the
// generated engine and, without a toolchain, on the scalar fallback.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "hls/report.h"
#include "hls/verify.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "qam/architectures.h"
#include "qam/decoder_ir.h"
#include "qam/link.h"
#include "vsim/codegen.h"
#include "vsim/compile.h"
#include "vsim/harness.h"
#include "vsim/pack.h"

namespace hlsw::vsim {
namespace {

using hls::PortIo;

#define REQUIRE_TOOLCHAIN()                                              \
  do {                                                                   \
    if (!codegen_available())                                            \
      GTEST_SKIP() << "no host C++ toolchain (HLSW_CODEGEN_CXX/CXX)";    \
  } while (0)

// A small FSM whose control flow depends on the data: lanes fed different
// x/y take different branches of the if AND different case arms, write
// different memory elements, and flip q[0] every cycle (a bit-select NBA).
const char* kDivergeSrc = R"(
module diverge(input wire clk, input wire rst,
               input wire [7:0] x, input wire [7:0] y,
               output reg [15:0] q, output reg [7:0] mem_out);
  reg [7:0] mem [0:7];
  reg [2:0] state;
  wire [15:0] sum;
  assign sum = q + {8'b0, x};
  always @(posedge clk) begin
    if (rst) begin
      q <= 0; state <= 0; mem_out <= 0;
    end else begin
      case (state)
        0: begin
          if (x > 8'd5) q <= sum;
          else q <= q - 16'd1;
          state <= 1;
        end
        1: begin
          mem[x[2:0]] <= y;
          state <= 2;
        end
        2: begin
          mem_out <= mem[y[2:0]];
          if (y[0]) state <= 0;
          else state <= 1;
        end
        default: state <= 0;
      endcase
      q[0] <= ~q[0];
    end
  end
endmodule
)";

// Deterministic per-lane stimulus that disagrees across lanes every step.
std::uint64_t stim(int lane, int step, int which) {
  return static_cast<std::uint64_t>((lane * 37 + step * 13 + which * 7) %
                                    256);
}

// Signal handles of the diverge module.
struct Handles {
  int clk, rst, x, y, q, mo, mem;
  explicit Handles(const Design& d)
      : clk(d.find("clk")), rst(d.find("rst")), x(d.find("x")),
        y(d.find("y")), q(d.find("q")), mo(d.find("mem_out")),
        mem(d.find("mem")) {}
};

constexpr int kSteps = 50;

// The reference: one fresh scalar CompiledSim per lane, driven through
// reset and kSteps clocked steps of that lane's stimulus.
struct ScalarRuns {
  std::vector<std::uint64_t> q, mo;
  std::vector<std::vector<std::uint64_t>> mem;
  long long events = 0, nba_commits = 0, instrs = 0;
};

ScalarRuns scalar_runs(const std::shared_ptr<const CompiledDesign>& plan,
                       const Handles& h, int lanes) {
  ScalarRuns ref;
  for (int l = 0; l < lanes; ++l) {
    CompiledSim sim(plan, {});
    auto tick = [&] {
      sim.poke(h.clk, 1);
      sim.settle();
      sim.poke(h.clk, 0);
      sim.settle();
    };
    sim.poke(h.clk, 0);
    sim.poke(h.rst, 1);
    tick();
    sim.poke(h.rst, 0);
    for (int s = 0; s < kSteps; ++s) {
      sim.poke(h.x, stim(l, s, 0));
      sim.poke(h.y, stim(l, s, 1));
      tick();
    }
    ref.q.push_back(sim.peek(h.q));
    ref.mo.push_back(sim.peek(h.mo));
    ref.mem.emplace_back();
    for (int e = 0; e < 8; ++e)
      ref.mem.back().push_back(sim.peek_elem(h.mem, e));
    ref.events += sim.stats().events;
    ref.nba_commits += sim.stats().nba_commits;
    ref.instrs += sim.stats().instrs;
  }
  return ref;
}

// The same streams through one packed engine, per-lane pokes.
void drive(PackedCodegenSim& ps, const Handles& h, int steps) {
  auto ptick = [&] {
    ps.poke(h.clk, 1, ps.full_mask());
    ps.settle();
    ps.poke(h.clk, 0, ps.full_mask());
    ps.settle();
  };
  ps.poke(h.clk, 0, ps.full_mask());
  ps.poke(h.rst, 1, ps.full_mask());
  ptick();
  ps.poke(h.rst, 0, ps.full_mask());
  for (int s = 0; s < steps; ++s) {
    for (int l = 0; l < ps.lanes(); ++l) {
      ps.poke_lane(h.x, l, stim(l, s, 0));
      ps.poke_lane(h.y, l, stim(l, s, 1));
    }
    ptick();
  }
}

// The generated lane-major engine against N independent scalar runs — the
// tape interpreter is the oracle, so a design error in the lane-masked
// code cannot hide behind a second engine that shares it. Values, array
// state and the lane-summed accounting (events, NBA commits, executed
// instructions) must match. One lane is the engine a scalar Simulation
// runs under kCodegen; 8 and 64 are the sweep widths.
TEST(PackedLanes, DivergentStimulusBitIdenticalToScalarRuns) {
  REQUIRE_TOOLCHAIN();
  auto design = load_design(kDivergeSrc, "diverge");
  std::string why;
  auto plan = compiled_plan(design, &why);
  ASSERT_NE(plan, nullptr) << why;
  const Handles h(*design);

  for (const int lanes : {1, 8, 64}) {
    SCOPED_TRACE("lanes " + std::to_string(lanes));
    const ScalarRuns ref = scalar_runs(plan, h, lanes);
    auto mod = packed_codegen_plan(plan, lanes, &why);
    ASSERT_NE(mod, nullptr) << why;
    PackedCodegenSim cg(mod, {});
    ASSERT_EQ(cg.lanes(), lanes);
    drive(cg, h, kSteps);

    std::uint64_t want_nz = 0;
    for (int l = 0; l < lanes; ++l) {
      const auto ul = static_cast<std::size_t>(l);
      EXPECT_EQ(cg.peek(h.q, l), ref.q[ul]) << "lane " << l << " q diverged";
      EXPECT_EQ(cg.peek(h.mo, l), ref.mo[ul])
          << "lane " << l << " mem_out diverged";
      for (int e = 0; e < 8; ++e)
        EXPECT_EQ(cg.peek_elem(h.mem, e, l),
                  ref.mem[ul][static_cast<std::size_t>(e)])
            << "lane " << l << " mem[" << e << "] diverged";
      if (ref.q[ul] != 0) want_nz |= 1ULL << l;
    }
    EXPECT_EQ(cg.peek_nonzero_mask(h.q), want_nz);
    // Packed stats are the SUM of the per-lane scalar stats (delta_cycles
    // is shared across lanes, so excluded).
    EXPECT_EQ(cg.stats().events, ref.events);
    EXPECT_EQ(cg.stats().nba_commits, ref.nba_commits);
    EXPECT_EQ(cg.stats().instrs, ref.instrs);
  }
}

// Divergence splits have no scalar counterpart, so the split counts for
// the same stimulus are pinned to what the interpreted packed engine (the
// generated engine's former oracle, since removed) recorded, and the
// generated engine matched split for split. One lane cannot diverge;
// wider engines must actually have split, or the masked-context machinery
// went untested.
TEST(PackedLanes, PackedCodegenBitIdenticalToInterpretedOracle) {
  REQUIRE_TOOLCHAIN();
  auto design = load_design(kDivergeSrc, "diverge");
  std::string why;
  auto plan = compiled_plan(design, &why);
  ASSERT_NE(plan, nullptr) << why;

  const struct {
    int lanes;
    long long splits;
  } kCases[] = {{1, 0}, {8, 50}, {64, 50}};
  for (const auto& c : kCases) {
    SCOPED_TRACE("lanes " + std::to_string(c.lanes));
    auto mod = packed_codegen_plan(plan, c.lanes, &why);
    ASSERT_NE(mod, nullptr) << why;
    PackedCodegenSim cg(mod, {});
    drive(cg, Handles(*design), kSteps);
    EXPECT_EQ(cg.divergence_splits(), c.splits);
    if (c.lanes == 1)
      EXPECT_EQ(cg.divergence_splits(), 0);
    else
      EXPECT_GT(cg.divergence_splits(), 0);
  }
}

TEST(PackedLanes, PlanePokesAndNonzeroMaskMatchLaneAccessors) {
  REQUIRE_TOOLCHAIN();
  auto design = load_design(kDivergeSrc, "diverge");
  auto plan = compiled_plan(design, nullptr);
  ASSERT_NE(plan, nullptr);
  const int h_x = design->find("x"), h_clk = design->find("clk");

  const int kLanes = 5;  // odd count: the partial-mask paths
  std::string why;
  auto mod = packed_codegen_plan(plan, kLanes, &why);
  ASSERT_NE(mod, nullptr) << why;
  PackedCodegenSim a(mod, {});
  PackedCodegenSim b(mod, {});
  std::uint64_t plane[kLanes];
  for (int l = 0; l < kLanes; ++l) {
    plane[l] = stim(l, 3, 0);
    a.poke_lane(h_x, l, plane[l]);
  }
  b.poke_plane(h_x, plane, b.full_mask());
  a.poke(h_clk, 1, a.full_mask());
  b.poke(h_clk, 1, b.full_mask());
  a.settle();
  b.settle();

  std::uint64_t want_nz = 0;
  for (int l = 0; l < kLanes; ++l) {
    EXPECT_EQ(a.peek(h_x, l), b.peek(h_x, l)) << "lane " << l;
    if (a.peek(h_x, l) != 0) want_nz |= 1ULL << l;
  }
  EXPECT_EQ(b.peek_nonzero_mask(h_x), want_nz);
  EXPECT_EQ(a.stats().events, b.stats().events);
}

// Runs one vsim_sweep with tracing on and returns the args of its
// top-level span: which engine swept the lanes and why.
obs::Json traced_sweep(const hls::SynthesisResult& r,
                       const std::vector<PortIo>& vectors,
                       const hls::CosimOptions& opts, hls::CosimResult* out) {
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  obs::TraceSession::instance().clear();
  *out = vsim_sweep(r.transformed, r.schedule, vectors, opts);
  obs::Json args;
  for (const auto& ev : obs::TraceSession::instance().snapshot())
    if (ev.name == "vsim_sweep") args = ev.args;
  obs::set_enabled(was_enabled);
  return args;
}

std::string arg_string(const obs::Json& args, const char* key) {
  const obs::Json* v = args.is_object() ? args.find(key) : nullptr;
  return v != nullptr && v->is_string() ? v->as_string() : "";
}

// Sweep-level contract: lanes > 1 must be invisible in the CosimResult.
TEST(PackedLanes, PackedSweepMatchesScalarSweepOnDecoder) {
  const qam::Architecture arch = qam::table1_architectures()[0];
  const auto r = hls::run_synthesis(qam::build_qam_decoder_ir(), arch.dir,
                                    hls::TechLibrary::asic90());
  qam::LinkStimulus s((qam::LinkConfig()));
  const auto vectors = qam::link_input_batch(&s, 70);

  // 7 blocks of 10 symbols over 5 lanes: one full batch plus a partial
  // one, so the tail path (fewer blocks than lanes) is covered too.
  const hls::CosimResult scalar = vsim_sweep(
      r.transformed, r.schedule, vectors, {.block_size = 10, .lanes = 1});
  hls::CosimResult packed;
  const obs::Json args =
      traced_sweep(r, vectors, {.block_size = 10, .lanes = 5}, &packed);
  EXPECT_EQ(arg_string(args, "backend"),
            codegen_available() ? "packed_codegen" : "scalar")
      << arg_string(args, "fallback_reason");
  EXPECT_TRUE(scalar.ok())
      << (scalar.mismatches.empty() ? "" : scalar.mismatches.front());
  EXPECT_TRUE(packed.ok())
      << (packed.mismatches.empty() ? "" : packed.mismatches.front());
  EXPECT_EQ(packed.vectors, scalar.vectors);
  EXPECT_EQ(packed.blocks, scalar.blocks);
  EXPECT_EQ(packed.mismatches, scalar.mismatches);

  // Thread-pooled packed sweep: batches shard across workers, results must
  // still merge deterministically.
  const hls::CosimResult pooled =
      vsim_sweep(r.transformed, r.schedule, vectors,
                 {.threads = 2, .block_size = 10, .lanes = 4});
  EXPECT_TRUE(pooled.ok());
  EXPECT_EQ(pooled.blocks, scalar.blocks);
  EXPECT_EQ(pooled.mismatches, scalar.mismatches);
}

// Without a host toolchain there is no multi-lane engine: a 64-lane sweep
// runs on the scalar engines, returns the scalar sweep's CosimResult and
// names the reason in its span.
TEST(PackedLanes, SweepWithoutToolchainRunsScalarAndNamesTheReason) {
  const char* prev = std::getenv("HLSW_CODEGEN_CXX");
  const std::optional<std::string> saved =
      prev ? std::optional<std::string>(prev) : std::nullopt;
  ::setenv("HLSW_CODEGEN_CXX", "none", 1);

  const qam::Architecture arch = qam::table1_architectures()[0];
  const auto r = hls::run_synthesis(qam::build_qam_decoder_ir(), arch.dir,
                                    hls::TechLibrary::asic90());
  qam::LinkStimulus s((qam::LinkConfig()));
  const auto vectors = qam::link_input_batch(&s, 128);
  const hls::CosimResult scalar = vsim_sweep(
      r.transformed, r.schedule, vectors, {.block_size = 2, .lanes = 1});
  hls::CosimResult packed;
  const obs::Json args =
      traced_sweep(r, vectors, {.block_size = 2, .lanes = 64}, &packed);

  EXPECT_EQ(arg_string(args, "backend"), "scalar");
  EXPECT_EQ(arg_string(args, "fallback_reason").rfind("packed-codegen: ", 0),
            0u)
      << arg_string(args, "fallback_reason");
  EXPECT_TRUE(packed.ok());
  EXPECT_EQ(packed.vectors, scalar.vectors);
  EXPECT_EQ(packed.blocks, scalar.blocks);
  EXPECT_EQ(packed.total_mismatches, scalar.total_mismatches);
  EXPECT_EQ(packed.mismatches, scalar.mismatches);

  if (saved)
    ::setenv("HLSW_CODEGEN_CXX", saved->c_str(), 1);
  else
    ::unsetenv("HLSW_CODEGEN_CXX");
}

TEST(PackedLanes, PackedSweepCountsDivergenceSplitsInMetrics) {
  REQUIRE_TOOLCHAIN();
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  auto& m = obs::MetricsRegistry::instance();
  const double splits0 =
      m.counter_value("vsim.packed.divergence_splits");

  auto design = load_design(kDivergeSrc, "diverge");
  auto plan = compiled_plan(design, nullptr);
  ASSERT_NE(plan, nullptr);
  std::string why;
  auto mod = packed_codegen_plan(plan, 8, &why);
  ASSERT_NE(mod, nullptr) << why;
  {
    PackedCodegenSim ps(mod, {});
    drive(ps, Handles(*design), 10);
    EXPECT_GT(ps.divergence_splits(), 0);
  }  // metrics flush on destruction
  EXPECT_GT(m.counter_value("vsim.packed.divergence_splits"), splits0);
  obs::set_enabled(was_enabled);
}

}  // namespace
}  // namespace hlsw::vsim
