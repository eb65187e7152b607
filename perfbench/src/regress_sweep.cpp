// regress_sweep — regression of frozen designs: the four Table 1
// architectures swept by vsim::vsim_sweep with 64 lanes of 25-symbol
// replay-from-reset blocks and the default backend choice. The first pass
// per design runs with the benchmark's codegen cache emptied, so it pays
// parse, plan and the host compile; further passes run warm over fresh
// seeded stimulus of the same shape.
//
// End-to-end metrics: cold_s = sweep.cold_s (sum of the first passes),
// ops_per_s = sweep.symbols_per_s (warm symbols verified bit-exact per host
// second), latency_ms.* = warm pass time.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "hls/report.h"
#include "hls/verify.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "qam/architectures.h"
#include "qam/decoder_ir.h"
#include "rtl/verilog.h"
#include "vsim/codegen.h"
#include "vsim/compile.h"
#include "vsim/elab.h"
#include "vsim/harness.h"
#include "vsim/pack.h"
#include "vsim/parser.h"

namespace pb {
namespace {

using namespace hlsw;

constexpr int kLanes = 64;
constexpr int kBlock = 25;
constexpr int kSymbols = kLanes * kBlock;
constexpr std::size_t kMinPasses = 110;
constexpr std::size_t kTracedWarmPasses = 200;

struct Frozen {
  std::string name;
  hls::SynthesisResult syn;
  std::vector<hls::PortIo> cold_stimulus;  // stimulus of its first pass
};

std::vector<hls::PortIo> pass_stimulus(const Args& a, std::size_t pass) {
  return link_stimulus(mix_seed(a.seed, 0x5E, pass), kSymbols);
}

// The frozen designs synthesized, with the stimulus of each one's cold
// pass (pass i sweeps design i).
std::vector<Frozen> make_setup(const Args& a) {
  const hls::Function f = qam::build_qam_decoder_ir();
  std::vector<Frozen> designs;
  for (const auto& arch : qam::table1_architectures())
    designs.push_back(
        {arch.name, hls::run_synthesis(f, arch.dir, hls::TechLibrary::asic90()),
         pass_stimulus(a, designs.size())});
  return designs;
}

hls::CosimOptions sweep_options() {
  hls::CosimOptions o;
  o.block_size = kBlock;
  o.lanes = kLanes;
  return o;
}

// Pass p sweeps design p for the cold passes, then round-robin.
std::size_t design_of(std::size_t pass, std::size_t ndesigns) {
  return pass % ndesigns;
}

struct Loaded {
  std::shared_ptr<const vsim::CompiledDesign> plan;
};

struct TraceTally {
  double parse_bytes = 0, verilog_bytes = 0, src_bytes = 0;
  long long emits = 0, compiles = 0, legs = 0, packed_legs = 0;
};

// One traced pass through vsim_sweep's public constituents, each under its
// own span. Stores the pass's mismatch reports in *mism and returns its wall
// time.
double traced_pass(const Args& a, const std::vector<Frozen>& designs,
                   std::size_t pass, std::vector<Loaded>* loaded, Tracer& tr,
                   TraceTally* tally, std::vector<std::string>* mism) {
  const Frozen& d = designs[design_of(pass, designs.size())];
  Loaded& ld = (*loaded)[design_of(pass, designs.size())];
  const hls::Function& f = d.syn.transformed;
  const auto stim = pass_stimulus(a, pass);
  const long long id = static_cast<long long>(pass);
  const auto t0 = Clock::now();
  double side_ms = 0;
  Tracer::Scope pass_span(tr, "pass", id);
  const std::string verilog = traced(
      tr, "rtl.emit", id, [&] { return rtl::emit_verilog(f, d.syn.schedule); });
  tally->verilog_bytes += static_cast<double>(verilog.size());
  ++tally->emits;
  if (ld.plan == nullptr) {
    const auto su =
        traced(tr, "vsim.parse", id, [&] { return vsim::parse(verilog); });
    tally->parse_bytes += static_cast<double>(verilog.size());
    const auto design = traced(tr, "vsim.elab", id,
                               [&] { return vsim::elaborate(su, f.name); });
    std::string why;
    ld.plan = traced(tr, "vsim.plan", id,
                     [&] { return vsim::compiled_plan(design, &why); });
    if (ld.plan == nullptr)
      throw std::runtime_error(d.name + ": no compiled plan: " + why);
    traced(tr, "vsim.host_compile", id, [&] {
      return vsim::packed_codegen_plan(ld.plan, kLanes, &why);
    });
    ++tally->compiles;
    const auto ts = Clock::now();
    tally->src_bytes += static_cast<double>(
        vsim::packed_codegen_source(*ld.plan, kLanes).size());
    side_ms += ms_since(ts);
  }
  std::vector<std::vector<hls::PortIo>> streams(kLanes);
  for (int l = 0; l < kLanes; ++l)
    streams[static_cast<std::size_t>(l)].assign(
        stim.begin() + l * kBlock, stim.begin() + (l + 1) * kBlock);
  std::string backend;
  const auto got = traced(tr, "vsim.dut", id, [&] {
    vsim::PackedDutHarness h(f, ld.plan, kLanes);
    backend = h.backend();
    return h.run_streams(streams);
  });
  ++tally->legs;
  if (backend == "packed_codegen") ++tally->packed_legs;
  const auto want = traced(tr, "hls.golden", id, [&] {
    std::vector<std::vector<hls::PortIo>> outs;
    hls::Interpreter golden(f);
    for (int l = 0; l < kLanes; ++l) {
      if (l > 0) golden.reset();
      outs.push_back(golden.run_stream(streams[static_cast<std::size_t>(l)]));
    }
    return outs;
  });
  for (std::size_t l = 0; l < streams.size(); ++l)
    for (std::size_t i = 0; i < streams[l].size(); ++i)
      hls::compare_outputs(l * kBlock + i, want[l][i], got[l][i], mism);
  return ms_since(t0) - side_ms;
}

}  // namespace

void run_regress_sweep(const Args& a, Report* r) {
  const std::string cache_dir = own_codegen_cache(a);
  std::vector<double> setup_s;
  const auto time_setup = [&] {
    const auto t0 = Clock::now();
    std::vector<Frozen> d = make_setup(a);
    setup_s.push_back(ms_since(t0) / 1000);
    return d;
  };
  const std::vector<Frozen> designs = time_setup();
  const std::size_t nd = designs.size();

  // ---- Cold passes: empty codegen cache, fresh process ----
  empty_dir(cache_dir);
  std::vector<double> cold_ms;
  std::size_t pass = 0;
  for (; pass < nd; ++pass) {
    const Frozen& d = designs[design_of(pass, nd)];
    const auto t0 = Clock::now();
    const auto res =
        vsim::vsim_sweep(d.syn.transformed, d.syn.schedule, d.cold_stimulus,
                         sweep_options());
    cold_ms.push_back(ms_since(t0));
    r->check(res.ok(), d.name + " cold pass: " +
                           std::to_string(res.total_mismatches) +
                           " golden/DUT mismatches");
  }

  // ---- Engine-path honesty: which engine ran each design's 64 lanes ----
  for (const Frozen& d : designs) {
    const auto design = vsim::load_design(
        rtl::emit_verilog(d.syn.transformed, d.syn.schedule),
        d.syn.transformed.name);
    std::string why;
    const auto plan = vsim::compiled_plan(design, &why);
    std::string backend = "scalar";
    if (plan != nullptr && vsim::plan_packable(*plan)) {
      vsim::PackedDutHarness h(d.syn.transformed, plan, kLanes);
      backend = h.backend();
      why = h.fallback_reason();
    }
    r->lines.push_back("engine " + d.name + ": " + backend +
                       (why.empty() ? "" : " (" + why + ")"));
    r->check(backend == "packed_codegen",
             d.name + ": 64-lane leg ran on " + backend + ", not packed "
                      "codegen: " + why);
  }

  // ---- Warm passes ----
  std::vector<double> pass_ms;
  const auto t_warm = Clock::now();
  while (ms_since(t_warm) < a.seconds * 1000 || pass_ms.size() < kMinPasses) {
    if (setup_due(setup_s.size(), ms_since(t_warm), a.seconds)) time_setup();
    const Frozen& d = designs[design_of(pass, nd)];
    const auto stim = pass_stimulus(a, pass);
    const auto t0 = Clock::now();
    const auto res =
        vsim::vsim_sweep(d.syn.transformed, d.syn.schedule, stim,
                         sweep_options());
    pass_ms.push_back(ms_since(t0));
    r->check(res.ok(), d.name + " pass " + std::to_string(pass) + ": " +
                           std::to_string(res.total_mismatches) +
                           " golden/DUT mismatches");
    ++pass;
  }
  const std::size_t npasses = pass;
  while (setup_s.size() < kSetupSamples) time_setup();
  double sweep_ms = 0;
  for (double x : pass_ms) sweep_ms += x;
  double cold_total_ms = 0;
  for (double x : cold_ms) cold_total_ms += x;
  const double symbols_per_s =
      static_cast<double>(pass_ms.size()) * kSymbols / (sweep_ms / 1000);
  const double peak_mb = peak_rss_mb();

  r->set("setup_s", median(setup_s), "s");
  r->set("peak_rss_mb", peak_mb, "MB");
  r->set("ops_per_s", symbols_per_s, "1/s");
  r->set("latency_ms.p50", quantile(pass_ms, 0.5), "ms");
  r->set("latency_ms.p90", quantile(pass_ms, 0.9), "ms");
  r->set("cold_s", cold_total_ms / 1000, "s");
  r->note("sweep.cold_s", cold_total_ms / 1000, "s");
  for (std::size_t i = 0; i < nd; ++i)
    r->note("sweep.cold_s." + designs[i].name, cold_ms[i] / 1000, "s");
  r->note("sweep.symbols_per_s", symbols_per_s, "1/s");
  r->note("sweep.warm_pass_ms.p50", quantile(pass_ms, 0.5), "ms");
  r->note("sweep.warm_pass_ms.p90", quantile(pass_ms, 0.9), "ms");
  r->note("sweep.warm_passes", static_cast<double>(pass_ms.size()), "count");
  r->note("setup_s (median)", median(setup_s), "s");
  r->note("peak_rss_mb", peak_mb, "MB");

  // ---- Traced run: the same passes through the constituents ----
  if (!a.trace) return;
  Tracer tr(true);
  empty_dir(cache_dir);
  evict_design_cache();
  obs::MetricsRegistry::instance().reset();
  std::vector<Loaded> loaded(nd);
  TraceTally tally;
  double traced_ms = 0;
  // The cold passes and the first kTracedWarmPasses warm ones: enough for
  // per-call means, and it keeps a traced run well inside its time limit.
  const std::size_t ntraced = std::min(npasses, nd + kTracedWarmPasses);
  std::vector<std::vector<std::string>> traced_mism(ntraced);
  for (std::size_t p = 0; p < ntraced; ++p)
    traced_ms +=
        traced_pass(a, designs, p, &loaded, tr, &tally, &traced_mism[p]);
  // vsim_sweep itself over the same passes from a cooled design cache, with
  // the library's cache counters on, as the cross-check of the split.
  evict_design_cache();
  obs::MetricsRegistry::instance().reset();
  obs::set_enabled(true);
  for (std::size_t p = 0; p < ntraced; ++p) {
    const Frozen& d = designs[design_of(p, nd)];
    const auto res = vsim::vsim_sweep(d.syn.transformed, d.syn.schedule,
                                      pass_stimulus(a, p), sweep_options());
    r->check(res.total_mismatches == traced_mism[p].size() &&
                 res.mismatches == traced_mism[p],
             d.name + " pass " + std::to_string(p) +
                 ": traced constituents disagree with vsim_sweep");
  }
  obs::set_enabled(false);
  obs::TraceSession::instance().clear();
  double untraced_ms = cold_total_ms;
  for (std::size_t p = nd; p < ntraced; ++p) untraced_ms += pass_ms[p - nd];
  const auto totals = tr.totals();
  const auto& m = obs::MetricsRegistry::instance();
  for (const auto& [metric, span] :
       std::vector<std::pair<std::string, std::string>>{
           {"hls.golden_ms", "hls.golden"},
           {"rtl.emit_ms", "rtl.emit"},
           {"vsim.parse_ms", "vsim.parse"},
           {"vsim.elab_ms", "vsim.elab"},
           {"vsim.plan_ms", "vsim.plan"},
           {"vsim.host_compile_ms", "vsim.host_compile"},
           {"vsim.dut_ms", "vsim.dut"}})
    r->set(metric, layer_mean_ms(totals, span), "ms");
  const auto parse = totals.find("vsim.parse");
  r->set("vsim.parse_mb_per_s",
         parse == totals.end()
             ? 0
             : tally.parse_bytes / 1e6 / (parse->second.self_ms / 1000),
         "MB/s");
  r->set("rtl.verilog_kb",
         tally.verilog_bytes / 1024 /
             static_cast<double>(std::max<long long>(1, tally.emits)),
         "kB");
  r->set("vsim.codegen_src_kb",
         tally.src_bytes / 1024 /
             static_cast<double>(std::max<long long>(1, tally.compiles)),
         "kB");
  r->set("vsim.packed_codegen_share",
         static_cast<double>(tally.packed_legs) /
             static_cast<double>(std::max<long long>(1, tally.legs)),
         "ratio");
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

}  // namespace pb
