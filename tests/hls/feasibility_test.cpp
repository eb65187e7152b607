// Differential soundness oracle for the static feasibility analysis
// (hls/feasibility.h). The analysis makes three kinds of claims and every
// one is checked here against the scheduler itself — the ground truth it
// is supposed to predict without running:
//
//  - kInfeasible: the candidate synthesizes *identically* to its clamped
//    canonical form. We force-schedule both and require equal latency and
//    area, exactly — a single divergence is a false claim.
//  - bounds: min_latency_cycles / min_area are true lower bounds on the
//    scheduled metrics for every verdict kind.
//
// The oracle runs over thirteen architectures — the ten from
// qam::exploration_architectures() plus three built here to force the
// bandwidth and recurrence floors — each perturbed by a deterministic
// randomized directive mutator that deliberately produces degenerate
// spellings (over-unrolling, sub-floor IIs, unknown labels, port
// starvation, conflicting merge groups).
#include <gtest/gtest.h>

#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "hls/dse.h"
#include "hls/feasibility.h"
#include "hls/report.h"
#include "qam/architectures.h"
#include "qam/decoder_ir.h"

namespace hlsw::hls {
namespace {

// The ten stock exploration architectures plus three that exercise the II
// floors: memory-port oversubscription, a multiplier cap, and a clock too
// tight for the adaptation recurrence to close in one cycle.
std::vector<qam::Architecture> oracle_architectures() {
  std::vector<qam::Architecture> out = qam::exploration_architectures();
  {
    qam::Architecture a;
    a.name = "mem+pipe+U4";
    a.description = "SRAM coefficients, unrolled and pipelined at II=1 "
                    "(oversubscribes the single read port)";
    a.dir.clock_period_ns = 10.0;
    a.dir.arrays["ffe_c"].mapping = ArrayMapping::kMemory;
    a.dir.arrays["dfe_c"].mapping = ArrayMapping::kMemory;
    a.dir.loops["ffe"].unroll = 4;
    a.dir.loops["ffe"].pipeline_ii = 1;
    a.dir.loops["dfe"].unroll = 4;
    a.dir.loops["dfe"].pipeline_ii = 1;
    out.push_back(std::move(a));
  }
  {
    qam::Architecture a;
    a.name = "mul2+pipe+U4";
    a.description = "two real multipliers, unrolled MACs pipelined at II=1";
    a.dir.clock_period_ns = 10.0;
    a.dir.max_real_multipliers = 2;
    a.dir.loops["ffe"].unroll = 4;
    a.dir.loops["ffe"].pipeline_ii = 1;
    a.dir.loops["dfe"].unroll = 4;
    a.dir.loops["dfe"].pipeline_ii = 1;
    out.push_back(std::move(a));
  }
  {
    qam::Architecture a;
    a.name = "macpipe@3ns+U4";
    a.description = "300+ MHz clock, unrolled MACs pipelined at II=1: the "
                    "accumulator chain spans cycles, so the request sits "
                    "below the recurrence floor";
    a.dir.clock_period_ns = 3.0;
    a.dir.loops["ffe"].unroll = 4;
    a.dir.loops["ffe"].pipeline_ii = 1;
    a.dir.loops["dfe"].unroll = 4;
    a.dir.loops["dfe"].pipeline_ii = 1;
    out.push_back(std::move(a));
  }
  return out;
}

const std::vector<std::string>& qam_loop_labels() {
  static const std::vector<std::string> labels = {
      "ffe", "dfe", "ffe_adapt", "dfe_adapt", "ffe_shift", "dfe_shift"};
  return labels;
}

// Applies one random degenerate (or merely aggressive) mutation to `dir`.
void mutate(Directives& dir, std::mt19937& rng) {
  const auto pick_label = [&]() -> const std::string& {
    const auto& l = qam_loop_labels();
    return l[rng() % l.size()];
  };
  switch (rng() % 8) {
    case 0: {  // over- or oddly-unroll a loop (trips are 3..16)
      static const int factors[] = {0, 3, 5, 7, 16, 17, 100};
      dir.loops[pick_label()].unroll = factors[rng() % 7];
      break;
    }
    case 1: {  // request an II, possibly below a floor or negative
      static const int iis[] = {-2, 1, 1, 2, 5};
      dir.loops[pick_label()].pipeline_ii = iis[rng() % 5];
      break;
    }
    case 2:  // directive for a loop the design does not have
      dir.loops["no_such_loop"].unroll = 4;
      break;
    case 3:  // directive for an array the design does not have
      dir.arrays["no_such_array"].mapping = ArrayMapping::kMemory;
      break;
    case 4: {  // starve or bless a memory's ports
      dir.arrays["ffe_c"].mapping = ArrayMapping::kMemory;
      dir.arrays["ffe_c"].mem_read_ports = static_cast<int>(rng() % 3) - 1;
      break;
    }
    case 5:  // non-consecutive merge group: a conflict the sim rejects
      dir.merge_groups.push_back({"ffe", "dfe_adapt"});
      break;
    case 6:
      dir.auto_merge = !dir.auto_merge;
      break;
    default:  // pipeline a loop that merging will fold away
      dir.merge_groups = qam::default_merge_groups();
      dir.loops["dfe"].pipeline_ii = 1 + static_cast<int>(rng() % 2);
      break;
  }
}

TEST(Feasibility, DifferentialOracleOverThirteenArchitectures) {
  const Function f = qam::build_qam_decoder_ir();
  const TechLibrary tech = TechLibrary::asic90();
  const auto archs = oracle_architectures();
  ASSERT_EQ(archs.size(), 13u);

  std::size_t infeasible_seen = 0;
  std::size_t bandwidth_seen = 0, recurrence_seen = 0;

  for (std::size_t ai = 0; ai < archs.size(); ++ai) {
    std::mt19937 rng(0xfea51b1eu + static_cast<std::uint32_t>(ai));
    for (int sample = 0; sample < 6; ++sample) {
      Directives dir = archs[ai].dir;
      // Sample 0 is the architecture itself; later samples stack 1..3
      // random mutations on top of it.
      for (int m = 0; m < sample % 4; ++m) mutate(dir, rng);
      SCOPED_TRACE(archs[ai].name + " sample " + std::to_string(sample));

      const FeasibilityVerdict v = check_feasibility(f, dir, tech);
      const SynthesisResult actual = run_synthesis(f, dir, tech);

      // Claim 1: bounds are true lower bounds, whatever the verdict.
      EXPECT_LE(v.bounds.min_latency_cycles, actual.latency_cycles());
      EXPECT_LE(v.bounds.min_area, actual.area.total + 1e-9);

      if (v.status == FeasibilityStatus::kInfeasible) {
        ++infeasible_seen;
        if (v.kind == InfeasibleKind::kIiBelowBandwidth) ++bandwidth_seen;
        if (v.kind == InfeasibleKind::kIiBelowRecurrence) ++recurrence_seen;
        EXPECT_NE(v.kind, InfeasibleKind::kNone);
        EXPECT_FALSE(v.reason.empty());
        // Claim 2: the clamped form is metrics-identical — scheduling the
        // original buys nothing. Any divergence here is a false claim.
        const SynthesisResult clamped = run_synthesis(f, v.clamped, tech);
        EXPECT_EQ(actual.latency_cycles(), clamped.latency_cycles());
        EXPECT_DOUBLE_EQ(actual.area.total, clamped.area.total);
        // The clamped form is a fixpoint of the analysis.
        const FeasibilityVerdict again = check_feasibility(f, v.clamped, tech);
        EXPECT_NE(again.status, FeasibilityStatus::kInfeasible)
            << "clamping must converge in one step, got: " << again.reason;
        EXPECT_EQ(again.bounds.min_latency_cycles,
                  v.bounds.min_latency_cycles);
        EXPECT_DOUBLE_EQ(again.bounds.min_area, v.bounds.min_area);
      } else {
        // kFeasible: no claim, and `clamped` is the same configuration
        // (any rewrite it made is invisible to the canonical cache key).
        EXPECT_EQ(v.status, FeasibilityStatus::kFeasible);
        EXPECT_EQ(v.kind, InfeasibleKind::kNone);
        EXPECT_TRUE(v.reason.empty());
        EXPECT_EQ(dse_cache_key(0, v.clamped, tech),
                  dse_cache_key(0, dir, tech));
      }
    }
  }

  // The sweep must actually exercise the analysis: clamps of both II
  // floors. (The three extra architectures exist precisely to force
  // them.)
  EXPECT_GT(infeasible_seen, 0u);
  EXPECT_GT(bandwidth_seen, 0u);
  EXPECT_GT(recurrence_seen, 0u);
}

TEST(Feasibility, VerdictTaxonomy) {
  const Function f = qam::build_qam_decoder_ir();
  const TechLibrary tech = TechLibrary::asic90();

  {  // unroll beyond the trip count clamps to the trip count
    Directives d;
    d.loops["ffe"].unroll = 100;  // trip is 8
    const auto v = check_feasibility(f, d, tech);
    EXPECT_EQ(v.status, FeasibilityStatus::kInfeasible);
    EXPECT_EQ(v.kind, InfeasibleKind::kUnrollOverTrip);
    EXPECT_EQ(v.clamped.loop_directive("ffe").unroll, 8);
  }
  {  // directives naming unknown loops are key-visible noise: redirected
    Directives d;
    d.loops["no_such_loop"].unroll = 2;
    const auto v = check_feasibility(f, d, tech);
    EXPECT_EQ(v.status, FeasibilityStatus::kInfeasible);
    EXPECT_EQ(v.kind, InfeasibleKind::kMergeConflict);
    EXPECT_EQ(v.clamped.loops.count("no_such_loop"), 0u);
  }
  {  // zero memory ports is degenerate (the scheduler clamps to 1)
    Directives d;
    d.arrays["ffe_c"].mapping = ArrayMapping::kMemory;
    d.arrays["ffe_c"].mem_read_ports = 0;
    const auto v = check_feasibility(f, d, tech);
    EXPECT_EQ(v.status, FeasibilityStatus::kInfeasible);
    EXPECT_EQ(v.kind, InfeasibleKind::kDegenerateDirective);
    EXPECT_EQ(v.clamped.arrays.at("ffe_c").mem_read_ports, 1);
  }
  {  // II=1 with four reads through one SRAM port: bandwidth floor
    Directives d;
    d.arrays["ffe_c"].mapping = ArrayMapping::kMemory;
    d.loops["ffe"].unroll = 4;
    d.loops["ffe"].pipeline_ii = 1;
    const auto v = check_feasibility(f, d, tech);
    EXPECT_EQ(v.status, FeasibilityStatus::kInfeasible);
    EXPECT_EQ(v.kind, InfeasibleKind::kIiBelowBandwidth);
    EXPECT_GT(v.clamped.loop_directive("ffe").pipeline_ii, 1);
  }
  {  // a feasible verdict carries usable bounds and an unchanged spelling
    Directives d;
    d.loops["ffe"].unroll = 2;
    const auto v = check_feasibility(f, d, tech);
    EXPECT_EQ(v.status, FeasibilityStatus::kFeasible);
    EXPECT_GT(v.bounds.min_latency_cycles, 0);
    EXPECT_GT(v.bounds.min_area, 0.0);
    EXPECT_EQ(v.clamped.loop_directive("ffe").unroll, 2);
  }
  // to_string covers every kind with a stable spelling.
  EXPECT_STREQ(to_string(InfeasibleKind::kNone), "none");
  EXPECT_STREQ(to_string(InfeasibleKind::kUnrollOverTrip), "unroll_over_trip");
  EXPECT_STREQ(to_string(InfeasibleKind::kMergeConflict), "merge_conflict");
  EXPECT_STREQ(to_string(InfeasibleKind::kDegenerateDirective),
               "degenerate_directive");
  EXPECT_STREQ(to_string(InfeasibleKind::kIiBelowRecurrence),
               "ii_below_recurrence");
  EXPECT_STREQ(to_string(InfeasibleKind::kIiBelowBandwidth),
               "ii_below_bandwidth");
}

TEST(Feasibility, DseOptionsValidationRejectsDegenerateSweeps) {
  const Function f = qam::build_qam_decoder_ir();
  const TechLibrary tech = TechLibrary::asic90();
  const auto expect_throws = [&](void (*tweak)(DseOptions&)) {
    DseOptions o;
    o.threads = 1;
    tweak(o);
    EXPECT_THROW(explore(f, o, tech), std::invalid_argument);
  };
  expect_throws([](DseOptions& o) { o.max_configs = 0; });
  expect_throws([](DseOptions& o) { o.max_configs = -7; });
  expect_throws([](DseOptions& o) { o.clock_period_ns = 0.0; });
  expect_throws([](DseOptions& o) { o.unroll_factors = {}; });
  expect_throws([](DseOptions& o) { o.unroll_factors = {1, 0}; });
  expect_throws([](DseOptions& o) { o.unroll_factors = {2, 4, 2}; });
  expect_throws([](DseOptions& o) { o.pipeline_iis = {}; });
  expect_throws([](DseOptions& o) { o.pipeline_iis = {0, -1}; });
  expect_throws([](DseOptions& o) { o.pipeline_iis = {0, 1, 1}; });
  expect_throws([](DseOptions& o) {
    o.try_merge = false;
    o.try_no_merge = false;
  });

  // The messages say what is wrong, not just that something is.
  DseOptions bad;
  bad.max_configs = -3;
  try {
    explore(f, bad, tech);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("max_configs"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("-3"), std::string::npos);
  }
}

}  // namespace
}  // namespace hlsw::hls
