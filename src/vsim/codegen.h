// Codegen backend for vsim — the generated-native rung of the backend
// ladder (event kernel -> compiled tape interpreter -> generated native
// code).
//
// The compiled backend (compile.h) already levelizes the design into a
// combinational DAG of expression tapes plus branch-resolved process
// programs; this backend pretty-prints that CompiledDesign as one
// self-contained LANE-MAJOR C++ translation unit for a fixed lane count L
// (1..64), compiles it with the host toolchain and dlopen()s the result.
// Every comb node and branch-resolved process body becomes a fixed-trip
// `for (l = 0; l < kL; ++l)` loop over [sig][lane] state planes, with
// per-lane execution masks and context-splitting divergence: a branch whose
// lanes disagree runs its lane subsets one after another. Its oracle is N
// independent scalar CompiledSim runs of the same streams (pack_test).
// There is one generator: a scalar Simulation asked for Backend::kCodegen
// runs it at L = 1 (one lane cannot diverge), and multi-lane harnesses
// run it at their lane count. The only per-L choice is derived from L
// itself: target_clones is emitted only when L > 1, since a one-lane body
// has nothing to vectorize.
//
// Fallback chain (silent, typed, reason recorded): codegen refuses plans
// with $display/$dumpfile/$dumpvars (testbenches keep the interpreter
// tiers, which own the display log and VCD writer), any environment
// without a working host toolchain, and an unsafe default cache
// directory. Simulation then degrades to the compiled interpreter with
// fallback_reason() prefixed "codegen: "; multi-lane sweeps
// (vsim_sweep, profile_run) ask packed_codegen_plan first and take their
// scalar path when it returns nullptr, recording the reason prefixed
// "packed-codegen: ".
//
// Shared-object cache: the fingerprint is FNV-1a over the compiler's
// `--version` output, the compile command line and the full generated
// text, so changing CXX or its flags never reuses a stale object.
// Compiled artifacts live as <fingerprint>.{cpp,so,log} under
// $HLSW_VSIM_CODEGEN_CACHE when set (a deployment setting, used as is),
// else under the per-user <tmp>/hlsw-vsim-codegen-<euid>, created mode
// 0700 and refused when it is a symlink, owned by another user, or group-
// or world-writable. A cached .so is dlopen()ed and verified against its
// embedded fingerprint + ABI version before reuse; compilation is
// serialized process-wide. Counters: vsim.codegen.so_cache.{hits,misses},
// vsim.codegen.compiles, vsim.codegen.fallbacks; the toolchain invocation
// runs under a "vsim.codegen.compile" span. Toolchain resolution:
// $HLSW_CODEGEN_CXX (value "none" or "" disables codegen outright — the
// fallback tests use this), else $CXX, else the first of c++/g++/clang++
// that answers --version.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "vsim/compile.h"
#include "vsim/sim.h"

namespace hlsw::vsim {

// Maximum lanes per generated engine: one lane per bit of the lane masks.
inline constexpr int kMaxLanes = 64;

// A generated, compiled and loaded LANE-MAJOR engine for one
// (CompiledDesign, lanes) pair. The dlopen handle is retained for the
// process lifetime (never dlclose()d); instances only hold resolved entry
// points. Immutable and shared across every PackedCodegenSim built from
// it, like CompiledDesign itself.
struct PackedCodegenModule {
  std::shared_ptr<const CompiledDesign> plan;
  int lanes = 0;
  std::string fingerprint;
  std::string so_path;

  void* (*create)() = nullptr;
  void (*destroy)(void*) = nullptr;
  // Broadcasts one value to every lane in `mask` (change-detected per
  // lane, edge triggers fired for the changed lanes).
  void (*poke)(void*, int, std::uint64_t, std::uint64_t) = nullptr;
  // Per-lane values: plane[l] applied to every lane in `mask`.
  void (*poke_plane)(void*, int, const std::uint64_t*,
                     std::uint64_t) = nullptr;
  std::uint64_t (*peek)(void*, int, int) = nullptr;            // sig, lane
  std::uint64_t (*peek_elem)(void*, int, int, int) = nullptr;  // sig,idx,lane
  // Bitmask over lanes whose current value of `sig` is nonzero.
  std::uint64_t (*nonzero)(void*, int) = nullptr;
  // Settle loop; the budget is the PRE-SCALED per-slot instruction cap
  // (max_instrs_per_slot * lanes — packed instr counts are lane sums).
  // Returns 0 when quiescent, or 1 + proc index when the budget blew.
  int (*settle)(void*, long long) = nullptr;
  // Copies {events, nba_commits, delta_cycles, instrs, flushes,
  // divergence_splits} into out[0..5].
  void (*stats)(void*, long long*) = nullptr;
};

// True when a host C++ toolchain is available to this process (and codegen
// has not been disabled via HLSW_CODEGEN_CXX=none). Cheap after the first
// probe; re-reads the environment on every call so tests can flip it.
bool codegen_available();

// The compiler command codegen would invoke ("" when unavailable).
std::string codegen_toolchain();

// Generates the lane-major C++ translation unit for one compiled plan at a
// fixed lane count (exposed for tests).
std::string packed_codegen_source(const CompiledDesign& cd, int lanes);

// Memoized generate+compile+dlopen of the lane-major engine, keyed
// (plan, lanes). Returns nullptr with a human-readable reason in *why (may
// be nullptr) when the plan has $display/$dump (plan_packable), no
// toolchain exists or the build fails. Success and failure are both
// memoized per (plan, lanes); the toolchain-disabled case is decided
// before the memo so re-enabling the toolchain is not poisoned.
std::shared_ptr<const PackedCodegenModule> packed_codegen_plan(
    const std::shared_ptr<const CompiledDesign>& plan, int lanes,
    std::string* why);

// Multi-lane execution over one loaded PackedCodegenModule: lane-masked
// pokes, per-lane peeks and the whole settle loop — lane-loop comb flush,
// masked process scheduling with context splitting, plane NBA commit —
// running inside the generated shared object. Bit-identical, lane by
// lane, to scalar CompiledSim runs of the same streams, with SimStats
// summed over lanes (pack_test certifies it). At one lane it is also the
// scalar Simulation's codegen engine. No $display/VCD support by
// construction (such plans never reach this backend).
class PackedCodegenSim {
 public:
  PackedCodegenSim(std::shared_ptr<const PackedCodegenModule> mod,
                   const SimConfig& cfg);
  ~PackedCodegenSim();
  PackedCodegenSim(const PackedCodegenSim&) = delete;
  PackedCodegenSim& operator=(const PackedCodegenSim&) = delete;

  int lanes() const { return mod_->lanes; }
  // All-ones over the configured lane count.
  std::uint64_t full_mask() const { return full_mask_; }
  // The shared plan this engine executes (signal handles resolve through
  // its elaborated design).
  const CompiledDesign& compiled() const { return *mod_->plan; }

  // Sets signal `sig` to `value` on every lane in `mask` (other lanes are
  // untouched — the masked poke is how the harness freezes lanes).
  void poke(int sig, std::uint64_t value, std::uint64_t mask);
  void poke_lane(int sig, int lane, std::uint64_t value);
  // Per-lane values in one call: plane[l] is applied to every lane in
  // `mask`. One change-detection pass instead of lanes() masked pokes.
  void poke_plane(int sig, const std::uint64_t* plane, std::uint64_t mask);
  std::uint64_t peek(int sig, int lane) const;
  long long peek_signed(int sig, int lane) const;
  std::uint64_t peek_elem(int sig, int index, int lane) const;
  // Bitmask over lanes whose current value of `sig` is nonzero (forces a
  // lazy node once, like peek). The harness polls `done` with this.
  std::uint64_t peek_nonzero_mask(int sig) const;
  // Runs delta cycles at the current time until every lane is quiescent.
  void settle();

  // Aggregate over all lanes; equals the sum of the per-lane scalar runs.
  const SimStats& stats() const;
  // Contexts created by divergent branches (0 = lanes stayed in lockstep).
  long long divergence_splits() const;
  const char* backend() const { return "packed_codegen"; }

 private:
  void refresh_stats() const;

  std::shared_ptr<const PackedCodegenModule> mod_;
  SimConfig cfg_;
  std::uint64_t full_mask_;
  void* st_ = nullptr;
  mutable SimStats stats_;
  mutable long long divergence_splits_ = 0;
};

}  // namespace hlsw::vsim
