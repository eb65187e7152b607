// Parallel/serial equivalence of explore(): any thread count must return
// the same point set — names, latencies, areas, pareto flags, order — and
// the same memoization counters as the legacy serial path, on the paper's
// QAM decoder IR and on a synthetic multi-loop function. The progress
// callback must fire deterministically on the calling thread.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "hls/builder.h"
#include "hls/dse.h"
#include "obs/trace.h"
#include "qam/decoder_ir.h"
#include "util/thread_pool.h"

namespace hlsw::hls {
namespace {

// A three-loop function with distinct trip counts so uniform sweep and
// per-loop refinement produce a rich, asymmetric space.
Function make_multi_loop() {
  FunctionBuilder fb("multi_loop");
  const int xin = fb.add_var("x_in", fx(10, 0), false, PortDir::kIn);
  const int x = fb.add_array("x", 16, fx(10, 0), true);
  const int c = fb.add_array("c", 16, fx(10, 0), true);
  const int acc = fb.add_var("acc", fx(28, 8), false, PortDir::kOut);
  {
    auto b0 = fb.block("in");
    b0.array_write(x, {0, 0}, b0.var_read(xin));
    b0.var_write(acc, b0.cnst(fx(28, 8), 0.0));
  }
  {
    auto mac = fb.loop("mac", 16);
    const int p = mac.mul(mac.array_read(x, {1, 0}), mac.array_read(c, {1, 0}));
    mac.var_write(acc, mac.add(mac.var_read(acc), p));
  }
  {
    auto adapt = fb.loop("adapt", 8);
    const int cv = adapt.array_read(c, {1, 0});
    adapt.array_write(c, {1, 0}, adapt.add(cv, adapt.cnst(fx(10, 0), 0.0)));
  }
  {
    auto sh = fb.loop("shift", 4);
    const int v = sh.array_read(x, {-1, 2});
    sh.array_write(x, {-1, 3}, v);
  }
  return fb.build();
}

void expect_identical(const DseResult& a, const DseResult& b,
                      const std::string& what) {
  ASSERT_EQ(a.points.size(), b.points.size()) << what;
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    const DsePoint& p = a.points[i];
    const DsePoint& q = b.points[i];
    EXPECT_EQ(p.name, q.name) << what << " point " << i;
    EXPECT_EQ(p.latency_cycles, q.latency_cycles) << what << " " << p.name;
    EXPECT_EQ(p.latency_ns, q.latency_ns) << what << " " << p.name;
    EXPECT_EQ(p.area, q.area) << what << " " << p.name;
    EXPECT_EQ(p.pareto, q.pareto) << what << " " << p.name;
  }
  EXPECT_EQ(a.cache_hits, b.cache_hits) << what;
  EXPECT_EQ(a.cache_misses, b.cache_misses) << what;
  EXPECT_EQ(a.scheduled, b.scheduled) << what;
  // Derived views agree as well (same order, same picks).
  const auto fa = a.pareto_front(), fb = b.pareto_front();
  ASSERT_EQ(fa.size(), fb.size()) << what;
  for (std::size_t i = 0; i < fa.size(); ++i)
    EXPECT_EQ(fa[i]->name, fb[i]->name) << what;
}

DseResult run_with_threads(const Function& f, unsigned threads) {
  DseOptions opts;
  opts.threads = threads;
  return explore(f, opts, TechLibrary::asic90());
}

TEST(DseParallel, QamDecoderIsBitIdenticalAcrossThreadCounts) {
  const Function ir = qam::build_qam_decoder_ir();
  const DseResult serial = run_with_threads(ir, 1);
  ASSERT_FALSE(serial.points.empty());
  expect_identical(serial, run_with_threads(ir, 2), "threads=2");
  expect_identical(serial, run_with_threads(ir, 8), "threads=8");
}

TEST(DseParallel, MultiLoopFunctionIsBitIdenticalAcrossThreadCounts) {
  const Function f = make_multi_loop();
  DseOptions opts;
  opts.unroll_factors = {1, 2, 4, 8};
  opts.threads = 1;
  const DseResult serial = explore(f, opts, TechLibrary::asic90());
  ASSERT_FALSE(serial.points.empty());
  opts.threads = 2;
  expect_identical(serial, explore(f, opts, TechLibrary::asic90()),
                   "threads=2");
  opts.threads = 8;
  expect_identical(serial, explore(f, opts, TechLibrary::asic90()),
                   "threads=8");
}

TEST(DseParallel, DefaultThreadsMatchesSerial) {
  const Function ir = qam::build_qam_decoder_ir();
  const DseResult serial = run_with_threads(ir, 1);
  expect_identical(serial, run_with_threads(ir, 0), "threads=default");
}

TEST(DseParallel, SharedPoolIsReusableAcrossCalls) {
  const Function ir = qam::build_qam_decoder_ir();
  const DseResult serial = run_with_threads(ir, 1);
  DseOptions opts;
  opts.threads = 4;
  opts.pool = std::make_shared<util::ThreadPool>(4);
  expect_identical(serial, explore(ir, opts, TechLibrary::asic90()),
                   "shared pool, call 1");
  expect_identical(serial, explore(ir, opts, TechLibrary::asic90()),
                   "shared pool, call 2");
}

TEST(DseParallel, ProgressFiresDeterministicallyOnCallerThread) {
  const Function ir = qam::build_qam_decoder_ir();
  struct Event {
    std::string name;
    std::size_t done;
    std::size_t planned;
  };
  auto run = [&](unsigned threads) {
    std::vector<Event> events;
    const auto caller = std::this_thread::get_id();
    bool off_thread = false;
    DseOptions opts;
    opts.threads = threads;
    opts.progress = [&](const DsePoint& p, const DseProgress& pr) {
      if (std::this_thread::get_id() != caller) off_thread = true;
      events.push_back({p.name, pr.done, pr.planned});
    };
    const DseResult r = explore(ir, opts, TechLibrary::asic90());
    EXPECT_FALSE(off_thread) << "progress ran on a worker thread";
    EXPECT_EQ(events.size(), r.points.size());
    return events;
  };
  const auto serial = run(1);
  const auto threaded = run(4);
  ASSERT_EQ(serial.size(), threaded.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].name, threaded[i].name);
    EXPECT_EQ(serial[i].done, threaded[i].done);
    EXPECT_EQ(serial[i].planned, threaded[i].planned);
  }
  // done is 1..N within each phase's planned horizon.
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].done, i + 1);
    EXPECT_LE(serial[i].done, serial[i].planned);
  }
}

// With tracing enabled, the merged trace must account for every candidate
// the engine resolved: one "dse.candidate" event per resolution (scheduled
// candidates + cache hits) and one "dse.synth" span per schedule actually
// run — at any thread count.
TEST(DseParallel, TraceEventTotalsMatchCacheCountersAtAnyThreadCount) {
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  const Function ir = qam::build_qam_decoder_ir();
  for (unsigned threads : {1u, 4u}) {
    obs::TraceSession::instance().clear();
    const DseResult r = run_with_threads(ir, threads);
    ASSERT_FALSE(r.points.empty());
    std::size_t candidates = 0, synth_spans = 0;
    for (const auto& e : obs::TraceSession::instance().snapshot()) {
      if (e.cat == "dse.candidate") ++candidates;
      if (e.cat == "dse.synth") ++synth_spans;
    }
    EXPECT_EQ(candidates, r.cache_hits + r.cache_misses)
        << "threads=" << threads;
    EXPECT_EQ(synth_spans, r.cache_misses) << "threads=" << threads;
  }
  obs::TraceSession::instance().clear();
  obs::set_enabled(was_enabled);
}

TEST(DseParallel, MaxConfigsRespectedAtAnyThreadCount) {
  const Function ir = qam::build_qam_decoder_ir();
  for (unsigned threads : {1u, 4u}) {
    DseOptions opts;
    opts.threads = threads;
    opts.max_configs = 3;
    const DseResult r = explore(ir, opts, TechLibrary::asic90());
    EXPECT_EQ(r.points.size(), 3u) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace hlsw::hls
