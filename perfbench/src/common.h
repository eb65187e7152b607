// Shared plumbing of the repo benchmark: arguments, seeded draws, the
// in-memory span recorder of the traced run, quantiles, the result report
// and the host identity stamped into every result.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "hls/interp.h"
#include "obs/json.h"

namespace pb {

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;   // scratch space inside the checkout
  std::string source_id;  // git commit or source digest of the program
  std::string host_json;  // host_identity(), stamped into trace files
};

// splitmix64: every input the benchmark generates derives from the seed.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }

 private:
  std::uint64_t s_;
};

// Derives an independent stream seed from (seed, a, b).
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t a, std::uint64_t b = 0);

// `n` QAM-decoder input vectors of a seeded PRBS15 source through the
// default multipath channel with seeded noise.
std::vector<hlsw::hls::PortIo> link_stimulus(std::uint64_t seed, int n);

// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }
// hits / (hits + misses); 0 when nothing was looked up.
inline double ratio(double hits, double misses) {
  return hits + misses > 0 ? hits / (hits + misses) : 0;
}

// Set-up is repeated kSetupSamples times per run and reported as the
// median. The samples are spread over the run rather than taken back to
// back: on a shared host the speed drifts on a scale of seconds, and
// back-to-back samples would all see one state.
constexpr std::size_t kSetupSamples = 9;
inline bool setup_due(std::size_t taken, double elapsed_ms, double seconds) {
  return taken < kSetupSamples &&
         elapsed_ms >= static_cast<double>(taken) * seconds * 1000 /
                           static_cast<double>(kSetupSamples);
}

// ---- Spans of the traced run ----------------------------------------------
//
// Recorded from the benchmark's own code around each call into a layer.
// Kept in memory and written once at the end. A span's parent is the
// innermost open span on the same thread; spans of one candidate, design
// pass or job share a `unit` id.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), epoch_(Clock::now()) {}
  bool on() const { return on_; }

  class Scope {
   public:
    Scope(Tracer& t, std::string_view name, long long unit);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
    int idx_ = -1;
    int saved_parent_ = -1;
  };

  // Records a finished span that no Scope can express (pipelined requests
  // overlap on one thread); it has no parent.
  void record(std::string_view name, long long unit, Clock::time_point t0,
              Clock::time_point t1);

  struct Totals {
    long long count = 0;
    double self_ms = 0;  // duration minus the part covered by child spans
  };
  // Per span name, over every recorded span.
  std::map<std::string, Totals> totals() const;
  // Sum of self time over spans whose name is a layer ("hls.", "rtl.",
  // "vsim.", "serve.").
  double layer_self_ms() const;
  hlsw::obs::Json to_json() const;

 private:
  struct Span {
    std::string name;
    long long unit = 0;
    int parent = -1;
    int tid = 0;
    double t0_us = 0, t1_us = 0;
  };
  double now_us() const;
  double us_of(Clock::time_point t) const;

  bool on_;
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

// Times `fn` under a span named `name` (inert when tracing is off).
template <typename Fn>
auto traced(Tracer& t, std::string_view name, long long unit, Fn&& fn) {
  Tracer::Scope s(t, name, unit);
  return fn();
}

// ---- Result report ---------------------------------------------------------

struct Report {
  long long attempted = 0;
  long long failed = 0;
  std::vector<std::string> failures;
  // Metrics of the final JSON line, in declaration order.
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  // Per-workload names of the same measurements (and a few extra
  // end-to-end figures), printed above the JSON line.
  std::vector<std::string> lines;

  // Counts one checked operation; a miss is counted and printed, never
  // dropped.
  void check(bool ok, const std::string& what);
  void set(const std::string& name, double value, const std::string& unit);
  void note(const std::string& name, double value, const std::string& unit);
  bool has(const std::string& name) const;
};

struct MetricDecl {
  const char* name;
  const char* unit;
};
// The contract of BENCHMARK.json: every run prints all of `end_to_end`
// (trace off) or all of `per_layer` (trace on).
const std::vector<MetricDecl>& end_to_end_metrics();
const std::vector<MetricDecl>& per_layer_metrics();

// Peak resident set size of this process (VmHWM), in MB.
double peak_rss_mb();

// CPU model, nproc, codegen toolchain and its --version, build type,
// benchmark compiler and the program's source id.
hlsw::obs::Json host_identity(const Args& a);

// Points HLSW_VSIM_CODEGEN_CACHE at a directory owned by this run and
// empties it.
std::string own_codegen_cache(const Args& a);
void empty_dir(const std::string& dir);

// Evicts every entry of vsim's process-wide elaborated-design LRU by
// loading small distinct modules through vsim::load_design, so the next
// load of a real design misses as it did at process start.
void evict_design_cache();

// Each workload fills `r` with its metrics; trace runs add per-layer ones.
void run_explore_cold(const Args& a, Report* r);
void run_regress_sweep(const Args& a, Report* r);
void run_serve_mix(const Args& a, Report* r);

// Writes the spans with the host identity to
// <work_dir>/trace-<workload>-<seed>.json.
void write_trace_file(const Args& a, const Tracer& t);

// Per-layer ms metric: mean self time per span of that name.
double layer_mean_ms(const std::map<std::string, Tracer::Totals>& t,
                     const std::string& span);

}  // namespace pb
