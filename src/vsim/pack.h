// Bit-packed multi-lane DUT replay for vsim sweeps.
//
// Signals are 2-state and at most 64 bits wide, so the same signal across
// up to 64 *independent* stimulus streams packs into a lane-major array:
// lane l of signal s lives at vals[s*L + l]. The generated lane-major
// engine (PackedCodegenSim, codegen.h) advances all L streams in one pass
// over the CompiledDesign, under per-lane execution masks that split into
// contexts when a data-dependent branch disagrees across lanes. This
// header is the sweep-facing harness around that engine: vsim_sweep and
// profile_run hand it one block of vectors per lane.
//
// Equivalence contract (tests/vsim/pack_test.cpp): running N lanes packed
// is bit-identical to N scalar CompiledSim runs of the same streams —
// including event/NBA-commit/instruction accounting summed over lanes.
// The harness freezes finished lanes (clock gated via masked pokes) so a
// lane that asserts `done` early sees exactly the clock edges its scalar
// replay would.
//
// A plan the generated engine cannot take (no host toolchain,
// $display/$dump in the design) is swept by the scalar engines instead.
// Callers decide that up front with packed_codegen_plan(plan, lanes,
// &why), which is memoized.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "hls/interp.h"
#include "hls/ir.h"
#include "hls/profile.h"
#include "rtl/testbench.h"
#include "vsim/codegen.h"
#include "vsim/compile.h"

namespace hlsw::vsim {

// Lockstep multi-lane DutHarness: each lane is an independent block of a
// sweep, driven through the same clk/rst/start/done protocol as
// vsim::DutHarness. Lanes whose stream is exhausted — or whose `done`
// arrived before the slowest lane's — are frozen by clock-gating their
// lane in the masked pokes, preserving bit-identity with per-lane scalar
// replay.
//
// The lanes always run on the generated lane-major engine; the
// constructor throws std::runtime_error("packed-codegen: <why>") when
// packed_codegen_plan cannot build it. cfg supplies the run budgets;
// cfg.backend is not consulted (there is one multi-lane engine).
class PackedDutHarness {
 public:
  PackedDutHarness(const hls::Function& f,
                   std::shared_ptr<const CompiledDesign> plan, int lanes,
                   const SimConfig& cfg = {});

  void reset();  // rst high across 3 edges, all lanes

  // Runs one stream of vectors per lane (streams.size() == lanes();
  // lengths may differ, and an empty stream leaves its lane idle) and
  // returns the per-lane outputs.
  std::vector<std::vector<hls::PortIo>> run_streams(
      const std::vector<std::vector<hls::PortIo>>& streams);

  // Reads the instrumented design's perf_* counters summed across lanes.
  // Every counter accumulates per invocation, so the lane sum equals what
  // one scalar harness replaying all the lanes' streams back to back would
  // measure — the identity profile_run's packed leg relies on.
  hls::CounterValues read_counters(
      const std::vector<hls::PerfCounter>& map) const;

  PackedCodegenSim& sim() { return sim_; }
  // Always "packed_codegen": the engine that runs the lanes.
  const char* backend() const { return sim_.backend(); }
  // Always empty: a harness that cannot run the generated engine is never
  // constructed (see above). Kept so callers can report engine choice the
  // same way for scalar and packed legs.
  const std::string& fallback_reason() const;

 private:
  void tick(std::uint64_t mask);

  std::vector<rtl::PortPin> pins_;
  PackedCodegenSim sim_;
  std::vector<int> pin_handle_;
  std::vector<std::uint64_t> in_plane_;  // staging for per-pin input pokes
  int h_clk_ = -1;
  int h_rst_ = -1;
  int h_start_ = -1;
  int h_done_ = -1;
};

}  // namespace hlsw::vsim
