// Wire/JSON fuzz lane (labeled `fuzz`): mutants of valid synth, cosim,
// verify, dse and profile request payloads — byte flips, deletions,
// truncations, token splices and deep nesting — go through obs::Json::parse
// and every *_from_json decoder in serve/wire.h, which must each return a
// value or `false` with an error, never crash. Corrupted length prefixes go
// through read_frame on a socketpair, and a few hundred mutants go to a
// live Server, which must answer every frame and still answer `ping`.
// Seeds are fixed, and the budget scales with HLSW_FUZZ_ITERS exactly as
// in the other fuzz lanes:
//   HLSW_FUZZ_ITERS=20000 ctest -L fuzz
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>
#include <sys/socket.h>
#include <unistd.h>

#include "../fuzz_budget.h"
#include "hls/builder.h"
#include "obs/json.h"
#include "qam/architectures.h"
#include "qam/link.h"
#include "serve/proto.h"
#include "serve/server.h"
#include "serve/wire.h"

namespace hlsw::serve {
namespace {

using hlsw::testing::fuzz_iters;
using obs::Json;

// A deliberately small design, so the jobs that survive mutation on the
// live server stay cheap.
hls::Function build_tiny() {
  hls::FunctionBuilder fb("tiny");
  const int a = fb.add_array("a", 4, hls::fx(12, 0), false, hls::PortDir::kIn);
  const int b = fb.add_array("b", 4, hls::fx(24, 2), false, hls::PortDir::kOut);
  {
    auto l = fb.loop("scale", 4);
    const int p = l.mul(l.array_read(a, {1, 0}), l.array_read(a, {1, 0}));
    l.array_write(b, {1, 0}, l.cast(hls::fx(24, 2), p));
  }
  return fb.build();
}

std::vector<hls::PortIo> tiny_vectors(int n) {
  std::vector<hls::PortIo> out(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    for (int k = 0; k < 4; ++k) {
      hls::FxValue v;
      v.re = (i * 37 + k * 11) % 2048 - 1024;
      out[static_cast<std::size_t>(i)].arrays["a"].push_back(v);
    }
  return out;
}

// One valid request per job op. With `live` the payloads name the tiny
// design and leave out every option that reaches the host compiler
// (lanes, run_vsim_codegen), so no mutant can start a multi-second job.
std::vector<std::string> seed_payloads(bool live) {
  const std::string design = live ? "tiny" : "qam_decoder";
  hls::Directives tiny_dir;
  tiny_dir.loops["scale"].unroll = 2;
  tiny_dir.arrays["a"].mapping = hls::ArrayMapping::kMemory;
  const Json dir = directives_to_json(
      live ? tiny_dir : qam::table1_architectures()[1].dir);
  Json vectors;
  if (live) {
    vectors = vectors_to_json(tiny_vectors(3));
  } else {
    qam::LinkStimulus stim((qam::LinkConfig()));
    vectors = vectors_to_json(qam::link_input_batch(&stim, 3));
  }
  Json cosim_opts = Json::object().set("block_size", 3).set("mismatch_limit",
                                                            4);
  Json profile_opts = Json::object().set("run_rtl_sim", true);
  if (!live) {
    cosim_opts.set("lanes", 2);
    profile_opts.set("lanes", 2).set("run_vsim_codegen", false);
  }
  const auto req = [&](const char* op, int id) {
    return Json::object().set("op", op).set("id", id).set("design", design);
  };
  std::vector<Json> reqs = {
      req("synth", 1).set("directives", dir).set("emit_verilog", true),
      req("cosim", 2)
          .set("directives", dir)
          .set("vectors", vectors)
          .set("options", cosim_opts),
      req("verify", 3)
          .set("directives", dir)
          .set("vectors", vectors)
          .set("options", cosim_opts)
          .set("tech", "fpga_lut4"),
      req("dse", 4).set(
          "options",
          Json::object()
              .set("unroll_factors", Json::array().push(1).push(2))
              .set("pipeline_iis", Json::array().push(0).push(1))
              .set("max_configs", 4)
              .set("clock_period_ns", 10.0)
              .set("try_merge", true)),
      req("profile", 5)
          .set("directives", dir)
          .set("vectors", vectors)
          .set("options", profile_opts),
  };
  std::vector<std::string> out;
  for (const Json& r : reqs) out.push_back(r.dump());
  return out;
}

// Wraps one top-level value of the request in `depth` arrays.
std::string nest(const std::string& seed, std::mt19937* rng, int depth) {
  Json j;
  if (!Json::parse(seed, &j) || !j.is_object() || j.size() == 0) return seed;
  const auto& items = j.items();
  const std::string key = items[(*rng)() % items.size()].first;
  Json v = *j.find(key);
  for (int d = 0; d < depth; ++d) v = Json::array().push(std::move(v));
  j.set(key, std::move(v));
  return j.dump();
}

// One mutation of seeds[which], drawn from rng.
std::string mutate(const std::vector<std::string>& seeds, std::size_t which,
                   std::mt19937* rng) {
  std::string s = seeds[which];
  const auto pick = [&](std::size_t n) {
    return n == 0 ? 0 : static_cast<std::size_t>((*rng)() % n);
  };
  switch ((*rng)() % 5) {
    case 0:  // byte flips
      for (int k = 1 + static_cast<int>(pick(4)); k > 0 && !s.empty(); --k)
        s[pick(s.size())] ^= static_cast<char>(1u << pick(8));
      break;
    case 1: {  // delete a short run
      const std::size_t at = pick(s.size());
      s.erase(at, 1 + pick(16));
      break;
    }
    case 2:  // truncate
      s.resize(pick(s.size()));
      break;
    case 3: {  // splice a run of another seed in
      const std::string& donor = seeds[pick(seeds.size())];
      const std::size_t from = pick(donor.size());
      s.insert(pick(s.size() + 1), donor.substr(from, 1 + pick(32)));
      break;
    }
    default: {  // deep nesting, around the parser's depth limit
      static constexpr int kDepths[] = {2, 64, Json::kMaxDepth - 2,
                                        Json::kMaxDepth + 1, 20000};
      const int depth = kDepths[pick(std::size(kDepths))];
      s = depth > Json::kMaxDepth ? std::string(static_cast<std::size_t>(depth),
                                                '[') + s
                                  : nest(s, rng, depth);
      break;
    }
  }
  return s;
}

// Every decoder on every field a request can carry: each returns true, or
// false with a non-empty error.
void decode_all(const Json& req) {
  const Json* dir = req.is_object() ? req.find("directives") : nullptr;
  const Json* vec = req.is_object() ? req.find("vectors") : nullptr;
  const Json* opts = req.is_object() ? req.find("options") : nullptr;
  const Json* tech = req.is_object() ? req.find("tech") : nullptr;
  std::string err;
  const auto check = [&](bool ok, const char* what) {
    EXPECT_TRUE(ok || !err.empty()) << what << " failed without an error";
    err.clear();
  };
  hls::Directives d;
  check(directives_from_json(dir ? *dir : req, &d, &err), "directives");
  std::vector<hls::PortIo> v;
  check(vectors_from_json(vec ? *vec : req, &v, &err), "vectors");
  if (vec != nullptr && vec->is_array() && vec->size() > 0) {
    hls::PortIo io;
    check(portio_from_json(vec->at(0), &io, &err), "portio");
    hls::FxValue fx;
    check(fxvalue_from_json(vec->at(0), &fx, &err), "fxvalue");
  }
  hls::TechLibrary t;
  check(tech_from_json(tech, &t, &err), "tech");
  hls::DseOptions dse;
  check(dse_options_from_json(opts, &dse, &err), "dse options");
  hls::CosimOptions co;
  check(cosim_options_from_json(opts, &co, &err), "cosim options");
}

TEST(WireFuzz, MutatedPayloadsParseOrFailWithTypedErrors) {
  const std::vector<std::string> seeds = seed_payloads(false);
  std::mt19937 rng(20261020);
  int parsed = 0;
  const int trials = fuzz_iters(400);
  for (int i = 0; i < trials; ++i) {
    const std::string m = mutate(seeds, static_cast<std::size_t>(i) %
                                            seeds.size(), &rng);
    Json j;
    std::string err;
    if (!Json::parse(m, &j, &err)) {
      EXPECT_FALSE(err.empty()) << "parse failed without an error";
      continue;
    }
    ++parsed;
    decode_all(j);
  }
  // The lane is only meaningful if some mutants reach the decoders.
  EXPECT_GT(parsed, 0);
}

TEST(WireFuzz, CorruptedLengthPrefixesNeverHangOrOverread) {
  const std::vector<std::string> seeds = seed_payloads(false);
  std::mt19937 rng(7);
  const int trials = fuzz_iters(200);
  for (int i = 0; i < trials; ++i) {
    const std::string& payload = seeds[static_cast<std::size_t>(i) %
                                       seeds.size()];
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    // The true big-endian prefix, with one byte replaced or the whole
    // prefix cut short, then the payload and EOF.
    const auto len = static_cast<std::uint32_t>(payload.size());
    std::string frame = {static_cast<char>(len >> 24),
                         static_cast<char>(len >> 16),
                         static_cast<char>(len >> 8), static_cast<char>(len)};
    if (rng() % 4 == 0)
      frame.resize(rng() % 4);
    else
      frame[rng() % 4] = static_cast<char>(rng());
    if (frame.size() == 4) frame += payload;
    ASSERT_EQ(::write(fds[0], frame.data(), frame.size()),
              static_cast<ssize_t>(frame.size()));
    ::shutdown(fds[0], SHUT_WR);
    // Every byte is consumed by at most a handful of frames before a
    // terminal status; a reader that loops forever fails the bound.
    FrameStatus st = FrameStatus::kOk;
    int frames = 0;
    std::string got, err;
    while (st == FrameStatus::kOk && frames < 64) {
      st = read_frame(fds[1], &got, kDefaultMaxFrameBytes, &err);
      if (st == FrameStatus::kOk) {
        ++frames;
        EXPECT_LE(got.size(), payload.size());
      }
    }
    EXPECT_NE(st, FrameStatus::kOk) << "reader never reached EOF";
    EXPECT_NE(st, FrameStatus::kError) << err;
    close_fd(fds[0]);
    close_fd(fds[1]);
  }
}

TEST(WireFuzz, LiveServerAnswersEveryMutantThenPing) {
  ServerOptions opts;
  opts.unix_path = "/tmp/hlsw_wire_fuzz_" + std::to_string(::getpid()) +
                   ".sock";
  opts.workers = 2;
  Server server(opts);
  server.register_design("tiny", build_tiny);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;
  const int fd = connect_unix(opts.unix_path, &err);
  ASSERT_GE(fd, 0) << err;

  const std::vector<std::string> seeds = seed_payloads(true);
  std::mt19937 rng(99);
  const int trials = fuzz_iters(300);
  int jobs_ok = 0;
  for (int i = 0; i < trials; ++i) {
    const std::string m = mutate(seeds, static_cast<std::size_t>(i) %
                                            seeds.size(), &rng);
    ASSERT_TRUE(write_frame(fd, m)) << "daemon gone after mutant " << i;
    std::string raw;
    ASSERT_EQ(read_frame(fd, &raw), FrameStatus::kOk)
        << "no reply to mutant " << i;
    Json resp;
    ASSERT_TRUE(Json::parse(raw, &resp)) << raw;
    ASSERT_TRUE(resp.is_object() && resp.find("ok") != nullptr) << raw;
    if (resp.find("ok")->as_bool()) ++jobs_ok;
  }
  // Some mutants must survive as runnable jobs, or the daemon's job path
  // went unexercised.
  EXPECT_GT(jobs_ok, 0);

  ASSERT_TRUE(write_frame(fd, "{\"op\": \"ping\", \"id\": 1}"));
  std::string raw;
  ASSERT_EQ(read_frame(fd, &raw), FrameStatus::kOk);
  Json pong;
  ASSERT_TRUE(Json::parse(raw, &pong)) << raw;
  ASSERT_NE(pong.find("ok"), nullptr) << raw;
  EXPECT_TRUE(pong.find("ok")->as_bool()) << raw;
  close_fd(fd);
  server.stop();
}

}  // namespace
}  // namespace hlsw::serve
