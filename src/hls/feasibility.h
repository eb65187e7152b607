// Static feasibility analysis: a Dahlia-style check of a candidate
// Directives set against the IR that, WITHOUT running the scheduler, either
//
//   * proves the candidate cannot be honored as stated (kInfeasible) — a
//     requested pipeline II below the loop-carried recurrence or the
//     memory-port/multiplier bandwidth floor, an unroll factor beyond the
//     trip count, a merge group the engine will refuse, or a pipeline
//     directive targeting a loop that is merged away — together with a
//     `clamped` Directives value the engine provably synthesizes to
//     IDENTICAL metrics;
//
//   * or makes no claim (kFeasible).
//
// Either way it certifies lower bounds on the candidate's metrics
// (min_latency_cycles, min_area). vsim::profile_run reports them, and
// hls::reconcile_profile fails a run whose measured latency falls below
// them.
//
// Soundness contract (enforced by tests/hls/feasibility_test.cpp, which
// force-schedules every verdict): a kInfeasible candidate's true metrics
// equal its `clamped` metrics and the stated violation holds on the real
// schedule; every candidate's true latency and area are never below
// `bounds`. The bounds come from a relaxed replay of the scheduler's own
// greedy placement (dependences + operator chaining, resource checks
// dropped — a component-wise lower bound on every op's cycle) and from the
// schedule-independent terms of the area model.
#pragma once

#include <string>

#include "hls/directives.h"
#include "hls/ir.h"
#include "hls/tech.h"

namespace hlsw::hls {

enum class FeasibilityStatus {
  kFeasible,    // no claim; bounds are still valid
  kInfeasible,  // directives cannot be honored as stated; see kind/clamped
};

enum class InfeasibleKind {
  kNone,
  kUnrollOverTrip,       // unroll factor exceeds the loop trip count
  kMergeConflict,        // merge group unresolvable, or a pipeline directive
                         // targets a loop that is merged away / unknown
  kDegenerateDirective,  // values outside the representable range: memory
                         // port counts < 1, unroll < 1, pipeline_ii < 0
  kIiBelowRecurrence,    // pipeline II below the carried-dependence bound
  kIiBelowBandwidth,     // pipeline II below the memory-port/multiplier floor
};

const char* to_string(InfeasibleKind k);

// Certified lower bounds on a candidate's synthesis metrics.
struct DesignBounds {
  int min_latency_cycles = 0;
  double min_area = 0;
};

struct FeasibilityVerdict {
  FeasibilityStatus status = FeasibilityStatus::kFeasible;
  InfeasibleKind kind = InfeasibleKind::kNone;
  std::string reason;   // human-readable; non-empty iff kInfeasible
  Directives clamped;   // metrics-equivalent canonical form
  DesignBounds bounds;  // valid for every status
};

// Analyzes `dir` against `f` (the pre-transform IR) without scheduling.
FeasibilityVerdict check_feasibility(const Function& f, const Directives& dir,
                                     const TechLibrary& tech);

}  // namespace hlsw::hls
