// Verilog front-end fuzz lane (labeled `fuzz`): mutants of the emitted
// merge module and of its self-checking testbench — byte flips, deletions,
// truncations, same-kind token swaps and token splices — go through
// parse -> elaborate -> lint -> a bounded Simulation::run. Every mutant
// must either finish or throw std::runtime_error; anything else (another
// exception type, a crash, a hang past the simulation bounds) fails the
// lane. Seeds are fixed, and the budget scales with HLSW_FUZZ_ITERS
// exactly as in hls_fuzz_test:
//   HLSW_FUZZ_ITERS=20000 ctest -L fuzz
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "../fuzz_budget.h"
#include "hls/report.h"
#include "qam/architectures.h"
#include "qam/decoder_ir.h"
#include "qam/link.h"
#include "rtl/testbench.h"
#include "rtl/verilog.h"
#include "vsim/elab.h"
#include "vsim/lexer.h"
#include "vsim/lint.h"
#include "vsim/parser.h"
#include "vsim/sim.h"

namespace hlsw::vsim {
namespace {

using hlsw::testing::fuzz_iters;

struct Sources {
  std::string top;     // the emitted module's name
  std::string module;  // emit_verilog text
  std::string bench;   // module + its 8-vector testbench (top: <top>_tb)
};

const Sources& merge_sources() {
  static const Sources s = [] {
    const auto r = hls::run_synthesis(qam::build_qam_decoder_ir(),
                                      qam::table1_architectures()[0].dir,
                                      hls::TechLibrary::asic90());
    qam::LinkStimulus stim((qam::LinkConfig()));
    const auto tvs = rtl::capture_vectors(r.transformed, r.schedule,
                                          qam::link_input_batch(&stim, 8));
    Sources out;
    out.top = r.transformed.name;
    out.module = rtl::emit_verilog(r.transformed, r.schedule);
    out.bench = out.module + "\n" +
                rtl::emit_testbench(r.transformed, tvs, r.transformed.name);
    return out;
  }();
  return s;
}

// Every token of the base text as the lexer sees it: byte offsets
// [begin, end) and kind, plus the token indices of each kind.
struct Span {
  std::size_t begin, end;
  Tok kind;
};
struct Spans {
  std::vector<Span> at;
  std::map<Tok, std::vector<std::size_t>> by_kind;
};

Spans token_spans(const std::string& src) {
  Spans out;
  for (const Token& t : lex(src)) {
    if (t.kind == Tok::kEof) break;
    const auto b = static_cast<std::size_t>(t.text.data() - src.data());
    out.by_kind[t.kind].push_back(out.at.size());
    out.at.push_back({b, b + t.text.size(), t.kind});
  }
  return out;
}

std::string mutate(const std::string& base, const Spans& spans,
                   std::mt19937_64* rng) {
  const auto& toks = spans.at;
  std::string s = base;
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>((*rng)() % n);
  };
  switch ((*rng)() % 5) {
    case 0:  // flip 1-4 random bits
      for (std::size_t k = 0, n = 1 + pick(4); k < n; ++k)
        s[pick(s.size())] ^= static_cast<char>(1u << pick(8));
      break;
    case 1:  // delete a run of 1-32 bytes
      s.erase(pick(s.size()), 1 + pick(32));
      break;
    case 2:  // truncate
      s.resize(pick(s.size()));
      break;
    case 3: {  // swap one token for another of its kind: mostly still
               // parses, so elaboration, lint and the run see the mutant
      const Span& t = toks[pick(toks.size())];
      const auto& same = spans.by_kind.at(t.kind);
      const Span& p = toks[same[pick(same.size())]];
      s.replace(t.begin, t.end - t.begin,
                base.substr(p.begin, p.end - p.begin));
      break;
    }
    default: {  // replace 0-3 tokens with a run of 1-8 tokens from elsewhere
      const std::size_t at = pick(toks.size());
      const std::size_t at_end = std::min(toks.size() - 1, at + pick(4));
      const std::size_t from = pick(toks.size());
      const std::size_t from_end = std::min(toks.size() - 1, from + pick(8));
      const std::string piece =
          base.substr(toks[from].begin, toks[from_end].end - toks[from].begin);
      const std::size_t len =
          at_end > at ? toks[at_end].begin - toks[at].begin : 0;
      s.replace(toks[at].begin, len, piece + " ");
      break;
    }
  }
  return s;
}

struct Outcome {
  int finished = 0;      // parsed, elaborated, linted and ran to its bound
  int typed_errors = 0;  // threw std::runtime_error somewhere on the way
};

// Runs `trials` mutants of `base` through the whole front end and a bounded
// simulation of `top`.
Outcome fuzz(const std::string& base, const std::string& top,
             std::uint64_t seed, int trials) {
  const Spans spans = token_spans(base);
  std::mt19937_64 rng(seed);
  SimConfig cfg;
  cfg.max_time = 20'000;  // the unmutated 8-vector testbench ends near 6'000
  cfg.max_instrs_per_slot = 200'000;
  cfg.max_comb_iterations = 1'000;
  Outcome o;
  for (int i = 0; i < trials; ++i) {
    const std::string src = mutate(base, spans, &rng);
    try {
      const auto design = elaborate(parse(src), top);
      lint(*design);
      Simulation sim(design, cfg);
      sim.run();
      ++o.finished;
    } catch (const std::runtime_error&) {
      ++o.typed_errors;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "trial " << i << " (seed " << seed
                    << ") threw a non-runtime_error: " << e.what();
    }
  }
  return o;
}

TEST(VsimFrontendFuzz, MutatedModuleFinishesOrFailsTyped) {
  const Sources& s = merge_sources();
  const int trials = fuzz_iters(400);
  const Outcome o = fuzz(s.module, s.top, 0x5eed0001, trials);
  EXPECT_EQ(o.finished + o.typed_errors, trials);
  EXPECT_GT(o.typed_errors, 0) << "no mutant was rejected";
  RecordProperty("finished", o.finished);
  RecordProperty("typed_errors", o.typed_errors);
}

TEST(VsimFrontendFuzz, MutatedTestbenchFinishesOrFailsTyped) {
  const Sources& s = merge_sources();
  const int trials = fuzz_iters(200);
  const Outcome o = fuzz(s.bench, s.top + "_tb", 0x5eed0002, trials);
  EXPECT_EQ(o.finished + o.typed_errors, trials);
  EXPECT_GT(o.typed_errors, 0) << "no mutant was rejected";
  RecordProperty("finished", o.finished);
  RecordProperty("typed_errors", o.typed_errors);
}

}  // namespace
}  // namespace hlsw::vsim
