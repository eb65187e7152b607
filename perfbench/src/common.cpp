#include "common.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "qam/link.h"
#include "vsim/codegen.h"
#include "vsim/harness.h"

namespace pb {

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  Rng r(seed ^ (a * 0xd1342543de82ef95ull) ^ (b * 0x9e3779b97f4a7c15ull));
  r.next();
  return r.next();
}

std::vector<hlsw::hls::PortIo> link_stimulus(std::uint64_t seed, int n) {
  hlsw::qam::LinkConfig cfg;
  cfg.prbs_seed = static_cast<std::uint32_t>(1 + seed % 32767);  // PRBS15 != 0
  cfg.channel.noise_seed = mix_seed(seed, 1);
  hlsw::qam::LinkStimulus stim(cfg);
  return hlsw::qam::link_input_batch(&stim, n);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

// ---- Tracer -----------------------------------------------------------------

namespace {
thread_local int tl_open_span = -1;
std::atomic<int> g_next_tid{1};
int thread_tid() {
  thread_local int tid = g_next_tid.fetch_add(1);
  return tid;
}
bool is_layer(const std::string& name) {
  for (const char* p : {"hls.", "rtl.", "vsim.", "serve."})
    if (name.rfind(p, 0) == 0) return true;
  return false;
}
}  // namespace

double Tracer::now_us() const { return us_of(Clock::now()); }

double Tracer::us_of(Clock::time_point t) const {
  return std::chrono::duration<double, std::micro>(t - epoch_).count();
}

void Tracer::record(std::string_view name, long long unit,
                    Clock::time_point t0, Clock::time_point t1) {
  if (!on_) return;
  Span s;
  s.name = std::string(name);
  s.unit = unit;
  s.tid = thread_tid();
  s.t0_us = us_of(t0);
  s.t1_us = us_of(t1);
  std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back(std::move(s));
}

Tracer::Scope::Scope(Tracer& t, std::string_view name, long long unit)
    : t_(t.on() ? &t : nullptr) {
  if (t_ == nullptr) return;
  saved_parent_ = tl_open_span;
  Span s;
  s.name = std::string(name);
  s.unit = unit;
  s.parent = tl_open_span;
  s.tid = thread_tid();
  std::lock_guard<std::mutex> lk(t_->mu_);
  idx_ = static_cast<int>(t_->spans_.size());
  s.t0_us = t_->now_us();
  t_->spans_.push_back(std::move(s));
  tl_open_span = idx_;
}

Tracer::Scope::~Scope() {
  if (t_ == nullptr) return;
  const double t1 = t_->now_us();
  std::lock_guard<std::mutex> lk(t_->mu_);
  t_->spans_[static_cast<std::size_t>(idx_)].t1_us = t1;
  tl_open_span = saved_parent_;
}

std::map<std::string, Tracer::Totals> Tracer::totals() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const Span& s : spans_)
    if (s.parent >= 0)
      child_us[static_cast<std::size_t>(s.parent)] += s.t1_us - s.t0_us;
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    Totals& t = out[spans_[i].name];
    ++t.count;
    t.self_ms += (spans_[i].t1_us - spans_[i].t0_us - child_us[i]) / 1000.0;
  }
  return out;
}

double Tracer::layer_self_ms() const {
  double sum = 0;
  for (const auto& [name, t] : totals())
    if (is_layer(name)) sum += t.self_ms;
  return sum;
}

hlsw::obs::Json Tracer::to_json() const {
  using hlsw::obs::Json;
  std::lock_guard<std::mutex> lk(mu_);
  Json events = Json::array();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    events.push(Json::object()
                    .set("name", s.name)
                    .set("ph", "X")
                    .set("pid", 1)
                    .set("tid", s.tid)
                    .set("ts", s.t0_us)
                    .set("dur", s.t1_us - s.t0_us)
                    .set("args", Json::object()
                                     .set("span", static_cast<long long>(i))
                                     .set("parent", s.parent)
                                     .set("unit", s.unit)));
  }
  return Json::object().set("traceEvents", std::move(events));
}

void write_trace_file(const Args& a, const Tracer& t) {
  const std::string path = (std::filesystem::path(a.work_dir) /
                            ("trace-" + a.workload + "-" +
                             std::to_string(a.seed) + ".json"))
                               .string();
  hlsw::obs::Json doc = t.to_json();
  hlsw::obs::Json host;
  if (hlsw::obs::Json::parse(a.host_json, &host)) doc.set("host", host);
  std::ofstream(path) << doc.dump() << "\n";
}

double layer_mean_ms(const std::map<std::string, Tracer::Totals>& t,
                     const std::string& span) {
  const auto it = t.find(span);
  if (it == t.end() || it->second.count == 0) return 0;
  return it->second.self_ms / static_cast<double>(it->second.count);
}

// ---- Report -----------------------------------------------------------------

void Report::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  failures.push_back(what);
}

void Report::set(const std::string& name, double value,
                 const std::string& unit) {
  for (auto& m : metrics)
    if (m.first == name) {
      m.second = {value, unit};
      return;
    }
  metrics.push_back({name, {value, unit}});
}

void Report::note(const std::string& name, double value,
                  const std::string& unit) {
  char buf[256];
  std::snprintf(buf, sizeof buf, "%-34s %14.6g %s", name.c_str(), value,
                unit.c_str());
  lines.push_back(buf);
}

bool Report::has(const std::string& name) const {
  for (const auto& m : metrics)
    if (m.first == name) return true;
  return false;
}

const std::vector<MetricDecl>& end_to_end_metrics() {
  static const std::vector<MetricDecl> v = {
      {"setup_s", "s"},          {"peak_rss_mb", "MB"},
      {"ops_per_s", "1/s"},      {"latency_ms.p50", "ms"},
      {"latency_ms.p90", "ms"},  {"cold_s", "s"},
  };
  return v;
}

const std::vector<MetricDecl>& per_layer_metrics() {
  static const std::vector<MetricDecl> v = {
      {"hls.explore_ms", "ms"},
      {"hls.dse.scheduled", "count"},
      {"hls.dse.pruned", "count"},
      {"hls.dse.cache_hit_ratio", "ratio"},
      {"hls.synth_ms", "ms"},
      {"hls.golden_ms", "ms"},
      {"rtl.emit_ms", "ms"},
      {"rtl.verilog_kb", "kB"},
      {"rtl.sim_ms", "ms"},
      {"rtl.tbgen_ms", "ms"},
      {"vsim.parse_ms", "ms"},
      {"vsim.parse_mb_per_s", "MB/s"},
      {"vsim.elab_ms", "ms"},
      {"vsim.plan_ms", "ms"},
      {"vsim.lint_ms", "ms"},
      {"vsim.testbench_ms", "ms"},
      {"vsim.host_compile_ms", "ms"},
      {"vsim.codegen_src_kb", "kB"},
      {"vsim.dut_ms", "ms"},
      {"vsim.design_cache.hit_ratio", "ratio"},
      {"vsim.plan_cache.hit_ratio", "ratio"},
      {"vsim.packed_codegen_share", "ratio"},
      {"serve.ping_ms", "ms"},
      {"serve.exec_ms.p50", "ms"},
      {"serve.exec_ms.p99", "ms"},
      {"serve.wait_ms.p50", "ms"},
      {"serve.wait_ms.p99", "ms"},
      {"serve.latency_ms.synth.p50", "ms"},
      {"serve.latency_ms.cosim.p50", "ms"},
      {"serve.latency_ms.verify.p50", "ms"},
      {"serve.latency_ms.dse.p50", "ms"},
      {"serve.synth_cache.hit_ratio", "ratio"},
      {"serve.busy_rejections", "count"},
      {"serve.jobs_failed", "count"},
      {"trace_overhead_share", "ratio"},
      {"unattributed_share", "ratio"},
  };
  return v;
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
  return 0;
}

namespace {
std::string first_line_of(const std::string& cmd) {
  std::string out;
  if (FILE* p = ::popen(cmd.c_str(), "r")) {
    char buf[512];
    if (std::fgets(buf, sizeof buf, p)) out = buf;
    while (std::fgets(buf, sizeof buf, p)) {
    }
    ::pclose(p);
  }
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r'))
    out.pop_back();
  return out;
}
}  // namespace

hlsw::obs::Json host_identity(const Args& a) {
  using hlsw::obs::Json;
  std::string cpu = "unknown";
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);)
    if (line.rfind("model name", 0) == 0) {
      cpu = line.substr(line.find(':') + 2);
      break;
    }
  const std::string cxx = hlsw::vsim::codegen_toolchain();
  return Json::object()
      .set("cpu", cpu)
      .set("nproc", static_cast<long long>(std::thread::hardware_concurrency()))
      .set("codegen_toolchain", cxx)
      .set("codegen_toolchain_version",
           cxx.empty() ? std::string() : first_line_of(cxx + " --version 2>&1"))
      .set("build_type", PERFBENCH_BUILD_TYPE)
      .set("build_compiler", PERFBENCH_CXX)
      .set("source", a.source_id);
}

std::string own_codegen_cache(const Args& a) {
  const std::string dir =
      std::filesystem::absolute(std::filesystem::path(a.work_dir) /
                                "codegen-cache")
          .string();
  ::setenv("HLSW_VSIM_CODEGEN_CACHE", dir.c_str(), 1);
  empty_dir(dir);
  return dir;
}

void empty_dir(const std::string& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
}

void evict_design_cache() {
  for (int i = 0; i < 32; ++i) {
    const std::string top = "pb_evict_" + std::to_string(i);
    hlsw::vsim::load_design("module " + top +
                                "(input wire a, output wire b);\n"
                                "  assign b = a;\nendmodule\n",
                            top);
  }
}

}  // namespace pb
