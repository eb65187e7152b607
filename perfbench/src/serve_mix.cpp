// serve_mix — the shared-daemon regime: an hlsw::serve::Server driven over
// its unix socket by kConns client connections (two tenants) in a closed
// loop, each connection keeping kWindow requests outstanding. The op mix is
// seeded: mostly `synth` over the exploration-set directives (the draw fixes
// the cache-hit share), then `cosim` (200 symbols), `verify` (100 symbols)
// and a small share of reduced-space `dse`. The mix's weights are an
// assumption, not measured traffic (see Dealer).
//
// End-to-end metrics: ops_per_s = serve.jobs_per_s, latency_ms.* =
// client-observed serve.latency_ms, cold_s = serve.verify_cold_ms: a verify
// on the idle daemon, after the mix, of a design evicted from vsim's
// design cache (median over kColdRounds rounds through every exploration
// architecture).
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "hls/dse.h"
#include "hls/report.h"
#include "hls/synth_cache.h"
#include "hls/verify.h"
#include "obs/trace.h"
#include "qam/architectures.h"
#include "qam/decoder_ir.h"
#include "rtl/sim.h"
#include "serve/proto.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "vsim/harness.h"

namespace pb {
namespace {

using namespace hlsw;
using obs::Json;

constexpr int kConns = 4;   // <= nproc on the hosts this targets
constexpr int kWindow = 4;  // outstanding requests per connection
constexpr int kStimuli = 8;  // distinct stimulus sets per length
constexpr double kSampleRate = 0.03;
// Sampled responses checked per op and connection: every op is checked in
// every run, dse included.
constexpr std::size_t kMaxSamplesPerOp = 6;
constexpr int kColdRounds = 6;
// Pause before each cold probe: spreads the probes over ~10 s, since a
// shared host's speed drifts on a scale of seconds.
constexpr std::chrono::milliseconds kColdProbeGap{100};
// Peak RSS is read when this many jobs have completed, a fixed amount of
// work: the daemon's RSS grows with the dse jobs it has served, so an
// end-of-run reading would follow the host's speed.
constexpr long long kRssJobs = 3000;
const char* const kTenants[2] = {"tenant-a", "tenant-b"};
const char* const kOps[4] = {"synth", "cosim", "verify", "dse"};

struct Stimulus {
  std::vector<hls::PortIo> vectors;
  std::string json;
};

// Inputs shared read-only by every connection thread.
struct Inputs {
  std::vector<qam::Architecture> archs;
  std::vector<std::string> dir_json;  // per arch
  std::vector<Stimulus> cosim_stim;   // 200 symbols
  std::vector<Stimulus> verify_stim;  // 100 symbols
};

Inputs make_inputs(const Args& a) {
  Inputs in;
  in.archs = qam::exploration_architectures();
  for (const auto& arch : in.archs)
    in.dir_json.push_back(serve::directives_to_json(arch.dir).dump());
  for (int i = 0; i < kStimuli; ++i) {
    Stimulus c;
    c.vectors = link_stimulus(mix_seed(a.seed, 0x5C, i), 200);
    c.json = serve::vectors_to_json(c.vectors).dump();
    in.cosim_stim.push_back(std::move(c));
    Stimulus v;
    v.vectors = link_stimulus(mix_seed(a.seed, 0x5D, i), 100);
    v.json = serve::vectors_to_json(v.vectors).dump();
    in.verify_stim.push_back(std::move(v));
  }
  return in;
}

struct Draw {
  int op = 0;  // index into kOps
  std::size_t arch = 0;
  bool fpga = false;
  std::size_t stim = 0;
  double dse_clock = 10;
  bool sampled = false;
};

template <typename T>
void shuffle(std::vector<T>* v, Rng& rng) {
  for (std::size_t i = v->size(); i > 1; --i)
    std::swap((*v)[i - 1], (*v)[rng.below(i)]);
}

// Requests are dealt in decks of 100 with a fixed op mix (80 synth, 9 cosim,
// 8 verify, 3 dse) and architectures cycling through a shuffled order per
// op, so every seed runs the same mix and only the order, the directive
// pairing and the stimulus change. The weights are an unverified
// assumption: no measured daemon traffic exists to derive them from, and
// the only given shape is "mostly synth, a small share of dse". They are
// not a model of one designer's Figure 1 loop, which issues about one dse
// per front-size synth and front-size verify (explore_cold).
class Dealer {
 public:
  Dealer(std::uint64_t seed, const Inputs& in) : rng_(seed), in_(in) {}

  Draw next() {
    if (pos_ == deck_.size()) deal();
    return deck_[pos_++];
  }

 private:
  void deal() {
    deck_.clear();
    pos_ = 0;
    const int counts[4] = {80, 9, 8, 3};
    for (int op = 0; op < 4; ++op)
      for (int i = 0; i < counts[op]; ++i) {
        std::vector<std::size_t>& order = arch_order_[op];
        if (order.empty()) {
          for (std::size_t k = 0; k < in_.archs.size(); ++k) order.push_back(k);
          shuffle(&order, rng_);
        }
        Draw d;
        d.op = op;
        d.arch = order.back();
        order.pop_back();
        d.fpga = (op == 0 || op == 3) && rng_.below(2) == 1;
        d.stim = rng_.below(kStimuli);
        d.dse_clock = 7.5 + 2.5 * static_cast<double>(rng_.below(3));
        d.sampled = rng_.uniform() < kSampleRate;
        deck_.push_back(d);
      }
    shuffle(&deck_, rng_);
  }

  Rng rng_;
  const Inputs& in_;
  std::vector<Draw> deck_;
  std::size_t pos_ = 0;
  std::vector<std::size_t> arch_order_[4];
};

Json dse_options(const Draw& d) {
  return Json::object()
      .set("clock_period_ns", d.dse_clock)
      .set("unroll_factors", Json::array().push(1).push(2))
      .set("pipeline_iis", Json::array().push(0))
      .set("max_configs", 32);
}

std::string request_frame(const Draw& d, long long id, const char* tenant,
                          const Inputs& in) {
  std::string s = "{\"op\":\"" + std::string(kOps[d.op]) +
                  "\",\"id\":" + std::to_string(id) + ",\"tenant\":\"" +
                  tenant + "\",\"design\":\"qam_decoder\",\"tech\":\"" +
                  (d.fpga ? "fpga_lut4" : "asic90") + "\"";
  if (d.op == 3) return s + ",\"options\":" + dse_options(d).dump() + "}";
  s += ",\"directives\":" + in.dir_json[d.arch];
  if (d.op == 1) s += ",\"vectors\":" + in.cosim_stim[d.stim].json;
  if (d.op == 2) s += ",\"vectors\":" + in.verify_stim[d.stim].json;
  return s + "}";
}

struct Sample {
  Draw d;
  Json result;
};

struct Done {
  long long id = 0;
  int op = 0;
  double latency_ms = 0;
  bool synth_miss = false;
};

struct ConnRun {
  std::vector<Done> done;
  std::vector<Sample> samples;
  std::size_t samples_of_op[4] = {};
  std::vector<std::string> failures;
  long long sent = 0;
  double busy_ms = 0;  // time with at least one request outstanding
};

long long request_id(int conn, long long k) {
  return (static_cast<long long>(conn) + 1) * 1'000'000'000LL + k;
}

// Closed loop on one connection: keep kWindow requests in flight until the
// deadline (or `max_requests`, when replaying a run's count), then drain.
// Shared by the connection threads of one phase.
struct PhaseShared {
  std::atomic<long long> completed{0};
  std::atomic<double> rss_mb{0};  // peak RSS when kRssJobs completed
};

void conn_loop(int fd, int conn, const Args& a, const Inputs& in,
               Clock::time_point deadline, long long max_requests,
               Tracer* tr, PhaseShared* shared, ConnRun* out) {
  Dealer dealer(mix_seed(a.seed, 0x5F, static_cast<std::uint64_t>(conn)), in);
  struct Pending {
    Clock::time_point t0;
    Draw d;
  };
  std::map<long long, Pending> pending;
  Clock::time_point busy_since;
  const char* tenant = kTenants[conn % 2];
  while (true) {
    while (static_cast<int>(pending.size()) < kWindow &&
           (max_requests >= 0 ? out->sent < max_requests
                              : Clock::now() < deadline)) {
      const Draw d = dealer.next();
      const long long id = request_id(conn, out->sent++);
      const auto t0 = Clock::now();
      if (pending.empty()) busy_since = t0;
      if (!serve::write_frame(fd, request_frame(d, id, tenant, in))) {
        out->failures.push_back("connection " + std::to_string(conn) +
                                ": write failed");
        return;
      }
      pending[id] = {t0, d};
    }
    if (pending.empty()) return;
    std::string payload;
    std::string err;
    if (serve::read_frame(fd, &payload, serve::kDefaultMaxFrameBytes, &err) !=
        serve::FrameStatus::kOk) {
      out->failures.push_back("connection " + std::to_string(conn) +
                              ": read failed: " + err);
      return;
    }
    const auto t1 = Clock::now();
    Json resp;
    if (!Json::parse(payload, &resp) || resp.find("id") == nullptr) {
      out->failures.push_back("unparseable response");
      continue;
    }
    const long long id = resp.find("id")->as_int();
    const auto it = pending.find(id);
    if (it == pending.end()) {
      out->failures.push_back("response for unknown id " + std::to_string(id));
      continue;
    }
    const Draw d = it->second.d;
    Done done;
    done.id = id;
    done.op = d.op;
    done.latency_ms =
        std::chrono::duration<double, std::milli>(t1 - it->second.t0).count();
    if (tr != nullptr) {
      tr->record(std::string("serve.request.") + kOps[d.op], id,
                 it->second.t0, t1);
    }
    pending.erase(it);
    if (pending.empty())
      out->busy_ms += std::chrono::duration<double, std::milli>(t1 - busy_since)
                          .count();
    const Json* ok = resp.find("ok");
    const Json* result = resp.find("result");
    const std::string what = std::string(kOps[d.op]) + " request " +
                             std::to_string(id) + ": ";
    if (ok == nullptr || !ok->as_bool() || result == nullptr) {
      const Json* e = resp.find("error");
      const Json* code = e ? e->find("code") : nullptr;
      out->failures.push_back(what + "error " +
                              (code ? code->as_string() : payload));
      continue;
    }
    if (d.op == 0) {
      const Json* cached = result->find("cached");
      done.synth_miss = cached != nullptr && !cached->as_bool();
    }
    if (d.op == 1 || d.op == 2) {
      const Json* rok = result->find("ok");
      if (rok == nullptr || !rok->as_bool()) {
        out->failures.push_back(what + "wrong verdict " + result->dump());
        continue;
      }
    }
    if (d.sampled && out->samples_of_op[d.op] < kMaxSamplesPerOp) {
      ++out->samples_of_op[d.op];
      out->samples.push_back({d, *result});
    }
    out->done.push_back(done);
    if (++shared->completed == kRssJobs) shared->rss_mb = peak_rss_mb();
  }
}

// The daemon under test and one client connection per kConns.
struct Daemon {
  std::unique_ptr<serve::Server> server;
  std::vector<int> fds;

  Daemon() = default;
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() { stop(); }
  void stop() {
    for (int fd : fds) serve::close_fd(fd);
    fds.clear();
    if (server) server->stop();
    server.reset();
  }
};

// Exchanges one request on `fd` (nothing else may be in flight) and
// returns its result; throws on transport or job errors.
Json control(int fd, const std::string& op,
             const std::string& frame = std::string()) {
  if (!serve::write_frame(
          fd, frame.empty() ? "{\"op\":\"" + op + "\",\"id\":1}" : frame))
    throw std::runtime_error(op + ": write failed");
  std::string payload;
  if (serve::read_frame(fd, &payload) != serve::FrameStatus::kOk)
    throw std::runtime_error(op + ": read failed");
  Json resp;
  if (!Json::parse(payload, &resp) || resp.find("result") == nullptr)
    throw std::runtime_error(op + ": bad response " + payload);
  return *resp.find("result");
}

void start_daemon(const Args& a, bool enable_obs, Daemon* dm) {
  serve::ServerOptions o;
  o.unix_path = a.work_dir + "/serve-" + std::to_string(::getpid()) + ".sock";
  o.workers = 0;  // hardware concurrency
  // Not the defaults (4 coordinators, depth 64) that hlsw_serve runs with:
  // at the defaults this loop earns `busy`, a dse finding all coordinators
  // in use, and a dse job's shard units (up to 32) count against its
  // tenant's queue depth. Sized so every request in flight may be a dse,
  // the workload runs without refusals and so cannot show them or a fix
  // (layers.json, workloads.serve_mix).
  o.max_dse_coordinators = kConns * kWindow;
  o.sched.max_queue_depth = 1024;
  o.enable_obs = enable_obs;
  dm->server = std::make_unique<serve::Server>(o);
  std::string err;
  if (!dm->server->start(&err))
    throw std::runtime_error("server start failed: " + err);
  for (int c = 0; c < kConns; ++c) {
    const int fd = serve::connect_unix(o.unix_path, &err);
    if (fd < 0) throw std::runtime_error("connect failed: " + err);
    dm->fds.push_back(fd);
    control(fd, "ping");
  }
}

struct Phase {
  std::vector<ConnRun> conns;
  double wall_ms = 0;
  long long jobs = 0;
  double rss_mb = 0;  // peak RSS after kRssJobs jobs (or at the end)
};

Phase run_phase(const Args& a, const Inputs& in, Daemon& dm,
                const std::vector<long long>& max_requests, Tracer* tr) {
  Phase ph;
  ph.conns.resize(kConns);
  const auto t0 = Clock::now();
  const auto deadline =
      t0 + std::chrono::microseconds(static_cast<long long>(a.seconds * 1e6));
  PhaseShared shared;
  std::vector<std::thread> threads;
  for (int c = 0; c < kConns; ++c)
    threads.emplace_back([&, c] {
      conn_loop(dm.fds[static_cast<std::size_t>(c)], c, a, in, deadline,
                max_requests.empty() ? -1
                                     : max_requests[static_cast<std::size_t>(c)],
                tr, &shared, &ph.conns[static_cast<std::size_t>(c)]);
    });
  for (auto& t : threads) t.join();
  ph.wall_ms = ms_since(t0);
  ph.rss_mb = shared.rss_mb > 0 ? shared.rss_mb.load() : peak_rss_mb();
  for (const auto& c : ph.conns) ph.jobs += static_cast<long long>(c.done.size());
  return ph;
}

// Replays a sampled request against the library directly (no daemon) and
// compares the result documents.
bool check_sample(const Sample& s, const Inputs& in, const hls::Function& f,
                  std::string* why) {
  const hls::TechLibrary tech =
      s.d.fpga ? hls::TechLibrary::fpga_lut4() : hls::TechLibrary::asic90();
  const hls::Directives& dir = in.archs[s.d.arch].dir;
  if (s.d.op == 3) {
    hls::DseOptions o;
    const Json opts = dse_options(s.d);
    if (!serve::dse_options_from_json(&opts, &o, why)) return false;
    o.threads = 1;
    const hls::DseResult res = hls::explore(f, o, tech);
    Json front = Json::array();
    for (const hls::DsePoint* p : res.pareto_front()) front.push(p->name);
    const Json* got = s.result.find("pareto_front");
    *why = "pareto front " + (got ? got->dump() : "missing") + " vs " +
           front.dump();
    return got != nullptr && got->dump() == front.dump();
  }
  const hls::SynthesisResult syn = hls::run_synthesis(f, dir, tech);
  if (s.d.op == 0) {
    const Json want = Json::object()
                          .set("latency_cycles", syn.latency_cycles())
                          .set("latency_ns", syn.latency_ns())
                          .set("area", syn.area.total);
    Json got = Json::object();
    for (const char* k : {"latency_cycles", "latency_ns", "area"})
      if (const Json* v = s.result.find(k)) got.set(k, *v);
    *why = got.dump() + " vs " + want.dump();
    return got.dump() == want.dump();
  }
  const auto& tf = syn.transformed;
  if (s.d.op == 1) {
    const auto& vec = in.cosim_stim[s.d.stim].vectors;
    hls::Interpreter g(tf);
    const auto golden = g.run_stream(vec);
    rtl::Simulator sim(tf, syn.schedule);
    const auto got = sim.run_stream(vec);
    hls::CosimResult want;
    want.vectors = vec.size();
    want.blocks = 1;
    for (std::size_t i = 0; i < vec.size(); ++i)
      hls::compare_outputs(i, golden[i], got[i], &want.mismatches);
    want.total_mismatches = want.mismatches.size();
    const std::string w = serve::cosim_result_to_json(want).dump();
    *why = s.result.dump() + " vs " + w;
    return s.result.dump() == w;
  }
  const auto& vec = in.verify_stim[s.d.stim].vectors;
  hls::CosimOptions o;
  o.block_size = vec.size();
  const auto v = vsim::verify_emitted(tf, syn.schedule, vec, o);
  const Json* ok = s.result.find("ok");
  const Json* tb = s.result.find("testbench");
  const Json* passed = tb ? tb->find("passed") : nullptr;
  *why = "verify " + s.result.dump();
  return ok && ok->as_bool() == v.ok() && passed &&
         passed->as_bool() == v.testbench.passed;
}

// Every request sent is one attempt; error responses, wrong verdicts and
// transport failures are the failed ones.
void tally(const ConnRun& c, Report* r) {
  r->attempted += c.sent;
  r->failed += static_cast<long long>(c.failures.size());
  r->failures.insert(r->failures.end(), c.failures.begin(), c.failures.end());
}

double hist(const Json& metrics, const std::string& name, const char* q) {
  const Json* reg = metrics.find("registry");
  const Json* hs = reg ? reg->find("histograms") : nullptr;
  const Json* h = hs ? hs->find(name) : nullptr;
  const Json* v = h ? h->find(q) : nullptr;
  return v ? v->as_double() : 0;
}

double server_field(const Json& metrics, const char* group, const char* key) {
  const Json* s = metrics.find("server");
  const Json* g = s ? s->find(group) : nullptr;
  const Json* v = g ? g->find(key) : nullptr;
  return v ? v->as_double() : 0;
}

}  // namespace

void run_serve_mix(const Args& a, Report* r) {
  std::vector<double> setup_s;
  Inputs in;
  Daemon dm;
  const auto time_setup = [&] {
    dm.stop();
    const auto t0 = Clock::now();
    in = make_inputs(a);
    start_daemon(a, false, &dm);
    setup_s.push_back(ms_since(t0) / 1000);
  };
  time_setup();

  // ---- Untraced measurement ----
  const Phase u = run_phase(a, in, dm, {}, nullptr);
  std::vector<double> lat, miss_lat, per_op[4];
  double busy_ms = 0;
  std::vector<long long> sent;
  for (const ConnRun& c : u.conns) {
    for (const Done& d : c.done) {
      lat.push_back(d.latency_ms);
      per_op[d.op].push_back(d.latency_ms);
      if (d.synth_miss) miss_lat.push_back(d.latency_ms);
    }
    tally(c, r);
    busy_ms += c.busy_ms;
    sent.push_back(c.sent);
  }
  const Json metrics = control(dm.fds[0], "metrics");
  // Cold verify on the idle daemon: the daemon runs in this process, so
  // emptying vsim's process-wide design cache before each probe makes the
  // verify parse, elaborate and plan its design again. (A verify job runs
  // run_synthesis itself; the daemon's SynthesisCache plays no part.)
  std::vector<double> cold_ms;
  for (int round = 0; round < kColdRounds; ++round)
    for (std::size_t arch = 0; arch < in.archs.size(); ++arch) {
      Draw d;
      d.op = 2;
      d.arch = arch;
      d.stim = arch % kStimuli;
      evict_design_cache();
      std::this_thread::sleep_for(kColdProbeGap);
      const auto t0 = Clock::now();
      const Json res =
          control(dm.fds[0], "verify", request_frame(d, 1, kTenants[0], in));
      cold_ms.push_back(ms_since(t0));
      const Json* ok = res.find("ok");
      r->check(ok != nullptr && ok->as_bool(),
               "cold verify of " + in.archs[d.arch].name + ": " + res.dump());
    }
  std::vector<double> ping_ms;
  for (int i = 0; i < 50; ++i) {
    const auto t0 = Clock::now();
    control(dm.fds[0], "ping");
    ping_ms.push_back(ms_since(t0));
  }
  const double jobs_per_s = static_cast<double>(u.jobs) / (u.wall_ms / 1000);
  const double peak_mb = u.rss_mb;

  r->set("peak_rss_mb", peak_mb, "MB");
  r->set("ops_per_s", jobs_per_s, "1/s");
  r->set("latency_ms.p50", quantile(lat, 0.5), "ms");
  r->set("latency_ms.p90", quantile(lat, 0.9), "ms");
  r->set("cold_s", median(cold_ms) / 1000, "s");
  r->note("serve.verify_cold_ms (median)", median(cold_ms), "ms");
  r->note("serve.jobs_per_s", jobs_per_s, "1/s");
  r->note("serve.latency_ms.p50", quantile(lat, 0.5), "ms");
  r->note("serve.latency_ms.p90", quantile(lat, 0.9), "ms");
  r->note("serve.latency_ms.p99", quantile(lat, 0.99), "ms");
  r->note("serve.jobs", static_cast<double>(u.jobs), "count");
  r->note("serve.synth_miss_in_mix_ms (median)", median(miss_lat), "ms");
  r->note("serve.synth_misses", static_cast<double>(miss_lat.size()), "count");
  for (int op = 0; op < 4; ++op)
    r->note(std::string("serve.jobs.") + kOps[op],
            static_cast<double>(per_op[op].size()), "count");
  r->note("peak_rss_mb", peak_mb, "MB");

  Tracer tr(a.trace);
  if (a.trace) {
    // Same request sequence against a fresh daemon with obs on, so every
    // job's server-side execution span pairs with its client latency.
    dm.stop();
    obs::TraceSession::instance().clear();
    start_daemon(a, true, &dm);
    const Phase t = run_phase(a, in, dm, sent, &tr);
    dm.stop();
    obs::set_enabled(false);
    // The daemon's own spans: each job's execution, and the hls and rtl
    // calls the jobs made inside the daemon (synth cache misses, the
    // run_synthesis of every cosim and verify, their rtl::Simulator runs,
    // and each dse job's explore including its shards' queue wait).
    std::map<long long, double> exec_ms;
    std::map<std::string, std::vector<double>> layer_ms;
    for (const obs::TraceEvent& e : obs::TraceSession::instance().snapshot()) {
      if (e.kind != obs::TraceEvent::Kind::kSpan) continue;
      if (e.name == "serve.job") {
        if (const Json* id = e.args.find("id"))
          exec_ms[id->as_int()] = e.dur_us / 1000;
      } else if (e.cat == "hls" && e.name == "synthesis") {
        layer_ms["hls.synth_ms"].push_back(e.dur_us / 1000);
      } else if (e.cat == "rtl.sim" && e.name == "run_stream") {
        layer_ms["rtl.sim_ms"].push_back(e.dur_us / 1000);
      } else if (e.cat == "dse" && e.name == "explore") {
        layer_ms["hls.explore_ms"].push_back(e.dur_us / 1000);
      }
    }
    obs::TraceSession::instance().clear();
    for (const char* name : {"hls.synth_ms", "rtl.sim_ms", "hls.explore_ms"}) {
      const std::vector<double>& v = layer_ms[name];
      double sum = 0;
      for (double x : v) sum += x;
      r->set(name, v.empty() ? 0 : sum / static_cast<double>(v.size()), "ms");
      r->note(std::string(name) + " spans", static_cast<double>(v.size()),
              "count");
    }
    std::vector<double> wait_ms;
    for (const ConnRun& c : t.conns) {
      tally(c, r);
      for (const Done& d : c.done)
        if (const auto it = exec_ms.find(d.id); it != exec_ms.end())
          wait_ms.push_back(d.latency_ms - it->second);
    }
    const double t_jobs_per_s = static_cast<double>(t.jobs) / (t.wall_ms / 1000);
    r->set("serve.ping_ms", median(ping_ms), "ms");
    r->set("serve.exec_ms.p50", hist(metrics, "serve.job_ms", "p50"), "ms");
    r->set("serve.exec_ms.p99", hist(metrics, "serve.job_ms", "p99"), "ms");
    r->set("serve.wait_ms.p50", quantile(wait_ms, 0.5), "ms");
    r->set("serve.wait_ms.p99", quantile(wait_ms, 0.99), "ms");
    for (int op = 0; op < 4; ++op)
      r->set(std::string("serve.latency_ms.") + kOps[op] + ".p50",
             quantile(per_op[op], 0.5), "ms");
    r->set("serve.synth_cache.hit_ratio",
           server_field(metrics, "synth_cache", "hit_rate"), "ratio");
    r->set("serve.busy_rejections",
           server_field(metrics, "jobs", "busy_rejections"), "count");
    r->set("serve.jobs_failed", server_field(metrics, "jobs", "failed"),
           "count");
    r->set("trace_overhead_share", jobs_per_s / t_jobs_per_s - 1, "ratio");
    // Client-side view: the share of connection time with nothing in
    // flight is time not spent in the serve layer.
    r->set("unattributed_share",
           1 - busy_ms / (kConns * u.wall_ms), "ratio");
  }

  // The remaining set-up samples, a fifth of a second apart (the daemon
  // under measurement is stopped first; every sample starts a fresh one).
  while (setup_s.size() < kSetupSamples) {
    dm.stop();
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    time_setup();
  }
  dm.stop();
  r->set("setup_s", median(setup_s), "s");
  r->note("setup_s (median)", median(setup_s), "s");

  // ---- Correctness gate: sampled responses equal direct library calls ----
  const hls::Function f = qam::build_qam_decoder_ir();
  for (const ConnRun& c : u.conns)
    for (const Sample& s : c.samples) {
      std::string why;
      r->check(check_sample(s, in, f, &why),
               std::string("sampled ") + kOps[s.d.op] +
                   " differs from the direct library call: " + why);
    }
  if (a.trace) write_trace_file(a, tr);
}

}  // namespace pb
