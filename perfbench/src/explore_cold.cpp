// explore_cold — the paper's Figure 1 designer loop on a new design, every
// cache empty at the start: a seeded list of DSE problems (the QAM decoder
// at a drawn clock period and tech library), each explored with a fresh
// SynthesisCache and DseOptions defaults, then every Pareto-front point
// synthesized and verified (three-way cosim, lint, generated testbench) on a
// 200-symbol stimulus in one stateful block.
//
// End-to-end metrics: cold_s = explore.verified_s (explore call to the last
// front candidate's verdict, per problem), latency_ms.* = explore.verify_ms
// (directives to verdict, per candidate), ops_per_s = verified candidates
// per second. explore.front_ms (time to the front) is printed; it is not an
// end-to-end metric because its run-to-run spread on a shared host exceeds
// any usable bound (see perfbench/layers.json).
#include <algorithm>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common.h"
#include "hls/dse.h"
#include "hls/report.h"
#include "hls/synth_cache.h"
#include "hls/verify.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "qam/decoder_ir.h"
#include "rtl/sim.h"
#include "rtl/testbench.h"
#include "rtl/verilog.h"
#include "vsim/compile.h"
#include "vsim/elab.h"
#include "vsim/harness.h"
#include "vsim/lint.h"
#include "vsim/parser.h"

namespace pb {
namespace {

using namespace hlsw;

constexpr int kSymbols = 200;
// p90 needs at least ten samples beyond it.
constexpr std::size_t kMinCandidates = 110;
// Peak RSS is read after this many problems, a fixed amount of work, so it
// does not grow with however many problems the host's speed lets in.
constexpr std::size_t kRssProblems = 8;

struct Problem {
  double clock_ns = 10;
  bool fpga = false;
  std::vector<hls::PortIo> stimulus;

  hls::TechLibrary tech() const {
    return fpga ? hls::TechLibrary::fpga_lut4() : hls::TechLibrary::asic90();
  }
  std::string label() const {
    return std::string(fpga ? "fpga_lut4" : "asic90") + "@" +
           std::to_string(clock_ns) + "ns";
  }
};

struct Setup {
  hls::Function f;
  std::vector<Problem> problems;
};

// Clock periods 5.0..20.0 ns in 0.5 ns steps times both tech libraries,
// drawn without replacement (reshuffled when a long run exhausts them).
Setup make_setup(const Args& a) {
  Setup s;
  s.f = qam::build_qam_decoder_ir();
  std::vector<std::pair<double, bool>> grid;
  for (int c = 10; c <= 40; ++c)
    for (bool fpga : {false, true}) grid.push_back({c * 0.5, fpga});
  Rng rng(mix_seed(a.seed, 0xE1));
  const std::size_t n = 16 + static_cast<std::size_t>(a.seconds * 4);
  while (s.problems.size() < n) {
    for (std::size_t i = grid.size(); i > 1; --i)
      std::swap(grid[i - 1], grid[rng.below(i)]);
    for (const auto& [clk, fpga] : grid) {
      if (s.problems.size() == n) break;
      Problem p;
      p.clock_ns = clk;
      p.fpga = fpga;
      p.stimulus = link_stimulus(mix_seed(a.seed, 0xE2, s.problems.size()),
                                 kSymbols);
      s.problems.push_back(std::move(p));
    }
  }
  return s;
}

using FrontSig = std::vector<std::tuple<std::string, int, double>>;

FrontSig signature(const hls::DseResult& r) {
  FrontSig sig;
  for (const hls::DsePoint* p : r.pareto_front())
    sig.emplace_back(p->name, p->latency_cycles, p->area);
  return sig;
}

hls::DseResult explore_fresh(const hls::Function& f, const Problem& p,
                             unsigned threads) {
  hls::DseOptions o;
  o.clock_period_ns = p.clock_ns;
  o.threads = threads;
  o.cache = std::make_shared<hls::SynthesisCache>();
  return hls::explore(f, o, p.tech());
}

std::string describe(const vsim::VerifyEmittedResult& v) {
  if (v.ok()) return "ok";
  return "mismatches " + std::to_string(v.cosim.total_mismatches) +
         ", lint issues " + std::to_string(v.lint_issues.size()) +
         ", testbench " + (v.testbench.passed ? "PASS" : "FAIL");
}

struct ProblemRun {
  std::size_t index = 0;
  FrontSig front;
  double wall_ms = 0;
  long long scheduled = 0, pruned = 0, hits = 0, misses = 0;
};

// What the verification of one candidate concluded.
struct Verdict {
  bool ok = false, cosim_clean = false, tb_passed = false;
  std::size_t lint_issues = 0;
  bool operator==(const Verdict&) const = default;
};

Verdict verdict_of(const vsim::VerifyEmittedResult& v) {
  return {v.ok(), v.cosim.total_mismatches == 0, v.testbench.passed,
          v.lint_issues.size()};
}

struct TraceTally {
  double parse_bytes = 0, verilog_bytes = 0;
  long long candidates = 0;
};

// One traced pass over a problem's front through the public constituents
// of verify_emitted, each under its own span. Appends one verdict per
// candidate and returns the wall time.
double traced_problem(const Setup& s, std::size_t i, Tracer& tr,
                      TraceTally* tally, std::vector<Verdict>* verdicts) {
  const Problem& p = s.problems[i];
  const hls::TechLibrary tech = p.tech();
  const auto t0 = Clock::now();
  Tracer::Scope problem_span(tr, "problem", static_cast<long long>(i));
  const hls::DseResult res =
      traced(tr, "hls.explore", static_cast<long long>(i),
             [&] { return explore_fresh(s.f, p, 0); });
  int j = 0;
  for (const hls::DsePoint* pt : res.pareto_front()) {
    const long long id = static_cast<long long>(i) * 1000 + j++;
    Tracer::Scope cand(tr, "candidate", id);
    const auto syn = traced(tr, "hls.synth", id, [&] {
      return hls::run_synthesis(s.f, pt->dir, tech);
    });
    const hls::Function& tf = syn.transformed;
    const std::string verilog = traced(
        tr, "rtl.emit", id, [&] { return rtl::emit_verilog(tf, syn.schedule); });
    tally->verilog_bytes += static_cast<double>(verilog.size());
    const auto su =
        traced(tr, "vsim.parse", id, [&] { return vsim::parse(verilog); });
    tally->parse_bytes += static_cast<double>(verilog.size());
    const auto design = traced(tr, "vsim.elab", id,
                               [&] { return vsim::elaborate(su, tf.name); });
    const auto issues =
        traced(tr, "vsim.lint", id, [&] { return vsim::lint(*design); });
    traced(tr, "vsim.plan", id, [&] {
      std::string why;
      return vsim::compiled_plan(design, &why);
    });
    const auto golden = traced(tr, "hls.golden", id, [&] {
      hls::Interpreter g(tf);
      return g.run_stream(p.stimulus);
    });
    const auto rtl_out = traced(tr, "rtl.sim", id, [&] {
      rtl::Simulator sim(tf, syn.schedule);
      return sim.run_stream(p.stimulus);
    });
    const auto dut = traced(tr, "vsim.dut", id, [&] {
      vsim::DutHarness h(tf, design);
      return h.run_stream(p.stimulus);
    });
    std::vector<std::string> mism;
    for (std::size_t k = 0; k < p.stimulus.size(); ++k) {
      hls::compare_outputs(k, golden[k], rtl_out[k], &mism);
      hls::compare_outputs(k, golden[k], dut[k], &mism);
    }
    const std::string tb = traced(tr, "rtl.tbgen", id, [&] {
      const std::size_t n = std::min<std::size_t>(8, p.stimulus.size());
      const std::vector<hls::PortIo> tb_in(
          p.stimulus.begin(), p.stimulus.begin() + static_cast<long>(n));
      return rtl::emit_testbench(
          tf, rtl::capture_vectors(tf, syn.schedule, tb_in), tf.name);
    });
    const auto tbr = traced(tr, "vsim.testbench", id, [&] {
      return vsim::run_testbench(verilog + "\n" + tb, tf.name + "_tb");
    });
    verdicts->push_back({mism.empty() && issues.empty() && tbr.passed,
                         mism.empty(), tbr.passed, issues.size()});
    ++tally->candidates;
  }
  return ms_since(t0);
}

// The composite verify_emitted over one problem's front, for the cross-check
// against the traced constituents (run with obs counters on).
void composite_problem(const Setup& s, std::size_t i,
                       std::vector<Verdict>* verdicts) {
  const Problem& p = s.problems[i];
  const hls::TechLibrary tech = p.tech();
  const hls::DseResult res = explore_fresh(s.f, p, 0);
  for (const hls::DsePoint* pt : res.pareto_front()) {
    const auto syn = hls::run_synthesis(s.f, pt->dir, tech);
    hls::CosimOptions co;
    co.block_size = p.stimulus.size();
    verdicts->push_back(verdict_of(
        vsim::verify_emitted(syn.transformed, syn.schedule, p.stimulus, co)));
  }
}

}  // namespace

void run_explore_cold(const Args& a, Report* r) {
  std::vector<double> setup_s;
  double setup_in_run_ms = 0;
  const auto time_setup = [&] {
    const auto t0 = Clock::now();
    Setup s = make_setup(a);
    setup_s.push_back(ms_since(t0) / 1000);
    return s;
  };
  const Setup s = time_setup();

  // ---- Untraced measurement ----
  std::vector<double> front_ms, verified_s, verify_ms;
  std::vector<ProblemRun> runs;
  double peak_mb = 0;
  const auto t_begin = Clock::now();
  for (std::size_t i = 0; i < s.problems.size(); ++i) {
    if (ms_since(t_begin) >= a.seconds * 1000 &&
        verify_ms.size() >= kMinCandidates)
      break;
    if (setup_due(setup_s.size(), ms_since(t_begin), a.seconds)) {
      const auto t0 = Clock::now();
      time_setup();
      setup_in_run_ms += ms_since(t0);
    }
    const Problem& p = s.problems[i];
    const hls::TechLibrary tech = p.tech();
    const auto t0 = Clock::now();
    const hls::DseResult res = explore_fresh(s.f, p, 0);
    front_ms.push_back(ms_since(t0));
    for (const hls::DsePoint* pt : res.pareto_front()) {
      const auto t1 = Clock::now();
      const auto syn = hls::run_synthesis(s.f, pt->dir, tech);
      hls::CosimOptions co;
      co.block_size = p.stimulus.size();
      const auto v =
          vsim::verify_emitted(syn.transformed, syn.schedule, p.stimulus, co);
      verify_ms.push_back(ms_since(t1));
      r->check(v.ok(), p.label() + " " + pt->name + ": " + describe(v));
    }
    ProblemRun run;
    run.index = i;
    run.front = signature(res);
    run.wall_ms = ms_since(t0);
    verified_s.push_back(run.wall_ms / 1000);
    run.scheduled = static_cast<long long>(res.scheduled);
    run.pruned =
        static_cast<long long>(res.pruned_infeasible + res.pruned_dominated);
    run.hits = static_cast<long long>(res.cache_hits);
    run.misses = static_cast<long long>(res.cache_misses);
    runs.push_back(std::move(run));
    if (runs.size() == kRssProblems) peak_mb = peak_rss_mb();
  }
  const double wall_ms = ms_since(t_begin) - setup_in_run_ms;
  while (setup_s.size() < kSetupSamples) time_setup();
  if (runs.size() < kRssProblems) peak_mb = peak_rss_mb();

  r->set("setup_s", median(setup_s), "s");
  r->set("peak_rss_mb", peak_mb, "MB");
  r->set("ops_per_s", static_cast<double>(verify_ms.size()) / (wall_ms / 1000),
         "1/s");
  r->set("latency_ms.p50", quantile(verify_ms, 0.5), "ms");
  r->set("latency_ms.p90", quantile(verify_ms, 0.9), "ms");
  r->set("cold_s", median(verified_s), "s");
  r->note("explore.front_ms (median)", median(front_ms), "ms");
  r->note("explore.verified_s (median)", median(verified_s), "s");
  r->note("explore.verify_ms.p50", quantile(verify_ms, 0.5), "ms");
  r->note("explore.verify_ms.p90", quantile(verify_ms, 0.9), "ms");
  r->note("explore.problems", static_cast<double>(runs.size()), "count");
  r->note("explore.candidates", static_cast<double>(verify_ms.size()), "count");
  r->note("explore.candidates_per_s",
          static_cast<double>(verify_ms.size()) / (wall_ms / 1000), "1/s");
  r->note("setup_s (median)", median(setup_s), "s");
  r->note("peak_rss_mb", peak_mb, "MB");

  // ---- Traced run: the same problems through the constituents ----
  if (a.trace) {
    Tracer tr(true);
    evict_design_cache();
    TraceTally tally;
    std::vector<Verdict> traced_v, composite_v;
    double traced_ms = 0, untraced_ms = 0;
    for (const ProblemRun& run : runs) {
      traced_ms += traced_problem(s, run.index, tr, &tally, &traced_v);
      untraced_ms += run.wall_ms;
    }
    // The composites again from a cooled design cache, with the library's
    // cache counters on.
    evict_design_cache();
    obs::MetricsRegistry::instance().reset();
    obs::set_enabled(true);
    for (const ProblemRun& run : runs)
      composite_problem(s, run.index, &composite_v);
    obs::set_enabled(false);
    obs::TraceSession::instance().clear();
    r->check(traced_v == composite_v,
             "traced constituents disagree with verify_emitted");
    const auto totals = tr.totals();
    const auto& m = obs::MetricsRegistry::instance();
    long long sched = 0, pruned = 0, hits = 0, misses = 0;
    for (const ProblemRun& run : runs) {
      sched += run.scheduled;
      pruned += run.pruned;
      hits += run.hits;
      misses += run.misses;
    }
    const double np = static_cast<double>(std::max<std::size_t>(1, runs.size()));
    r->set("hls.explore_ms", layer_mean_ms(totals, "hls.explore"), "ms");
    r->set("hls.dse.scheduled", static_cast<double>(sched) / np, "count");
    r->set("hls.dse.pruned", static_cast<double>(pruned) / np, "count");
    r->set("hls.dse.cache_hit_ratio",
           ratio(static_cast<double>(hits), static_cast<double>(misses)),
           "ratio");
    for (const auto& [metric, span] :
         std::vector<std::pair<std::string, std::string>>{
             {"hls.synth_ms", "hls.synth"},
             {"hls.golden_ms", "hls.golden"},
             {"rtl.emit_ms", "rtl.emit"},
             {"rtl.sim_ms", "rtl.sim"},
             {"rtl.tbgen_ms", "rtl.tbgen"},
             {"vsim.parse_ms", "vsim.parse"},
             {"vsim.elab_ms", "vsim.elab"},
             {"vsim.plan_ms", "vsim.plan"},
             {"vsim.lint_ms", "vsim.lint"},
             {"vsim.testbench_ms", "vsim.testbench"},
             {"vsim.dut_ms", "vsim.dut"}})
      r->set(metric, layer_mean_ms(totals, span), "ms");
    const auto parse = totals.find("vsim.parse");
    r->set("vsim.parse_mb_per_s",
           parse == totals.end() ? 0
                                 : tally.parse_bytes / 1e6 /
                                       (parse->second.self_ms / 1000),
           "MB/s");
    r->set("rtl.verilog_kb",
           tally.verilog_bytes / 1024 /
               static_cast<double>(std::max<long long>(1, tally.candidates)),
           "kB");
    r->set("vsim.design_cache.hit_ratio",
           ratio(m.counter_value("vsim.design_cache.hits"),
                 m.counter_value("vsim.design_cache.misses")),
           "ratio");
    r->set("vsim.plan_cache.hit_ratio",
           ratio(m.counter_value("vsim.plan_cache.hits"),
                 m.counter_value("vsim.plan_cache.misses")),
           "ratio");
    r->set("trace_overhead_share", traced_ms / untraced_ms - 1, "ratio");
    r->set("unattributed_share",
           (untraced_ms - tr.layer_self_ms()) / untraced_ms, "ratio");
    write_trace_file(a, tr);
  }

  // ---- Correctness gate: every front equals the serial explore's ----
  for (const ProblemRun& run : runs) {
    const Problem& p = s.problems[run.index];
    r->check(signature(explore_fresh(s.f, p, 1)) == run.front,
             p.label() + ": Pareto front differs from serial explore");
  }
}

}  // namespace pb
