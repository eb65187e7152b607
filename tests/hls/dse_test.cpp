// Tests for automated design-space exploration: the sweep must contain the
// paper's design points, the Pareto front must be consistent, and the
// "smallest design meeting the 20-cycle throughput goal" query must
// reproduce the paper's design decision (section 5: "the algorithm should
// take 20 or fewer cycles").
#include <gtest/gtest.h>

#include <vector>

#include "hls/dse.h"
#include "qam/decoder_ir.h"

namespace hlsw::hls {
namespace {

using qam::build_qam_decoder_ir;

TEST(Dse, SweepCoversThePaperDesignPoints) {
  DseOptions opts;
  const DseResult r = explore(build_qam_decoder_ir(), opts,
                              TechLibrary::asic90());
  ASSERT_FALSE(r.points.empty());
  // The paper's 69- and 35-cycle points must appear.
  bool found69 = false, found35 = false;
  for (const auto& p : r.points) {
    if (p.latency_cycles == 69) found69 = true;
    if (p.latency_cycles == 35) found35 = true;
  }
  EXPECT_TRUE(found69) << "sequential baseline missing from the sweep";
  EXPECT_TRUE(found35) << "merged default missing from the sweep";
}

TEST(Dse, ParetoFrontIsConsistent) {
  const DseResult r = explore(build_qam_decoder_ir(), DseOptions{},
                              TechLibrary::asic90());
  const auto front = r.pareto_front();
  ASSERT_GE(front.size(), 2u);
  // Front must be strictly improving in latency and strictly degrading in
  // area when sorted by latency.
  for (std::size_t i = 1; i < front.size(); ++i) {
    EXPECT_GT(front[i]->latency_cycles, front[i - 1]->latency_cycles);
    EXPECT_LT(front[i]->area, front[i - 1]->area);
  }
  // No non-pareto point may dominate a pareto point.
  for (const auto& p : r.points) {
    if (p.pareto) continue;
    for (const auto* q : front) {
      const bool dominates = p.latency_cycles <= q->latency_cycles &&
                             p.area <= q->area &&
                             (p.latency_cycles < q->latency_cycles ||
                              p.area < q->area);
      EXPECT_FALSE(dominates) << p.name << " dominates " << q->name;
    }
  }
}

TEST(Dse, ReproducesThePaperDesignDecision) {
  // Paper section 5: the 5 MBaud target needs <= 20 cycles; the chosen
  // implementation is the merged+U2 19-cycle design. The DSE query must
  // return a design meeting the bound, cheaper than the fastest point.
  const DseResult r = explore(build_qam_decoder_ir(), DseOptions{},
                              TechLibrary::asic90());
  const DsePoint* pick = r.smallest_within(20);
  ASSERT_NE(pick, nullptr);
  EXPECT_LE(pick->latency_cycles, 20);
  const DsePoint* fastest = r.fastest();
  ASSERT_NE(fastest, nullptr);
  EXPECT_LE(fastest->latency_cycles, pick->latency_cycles);
  EXPECT_LE(pick->area, fastest->area)
      << "the throughput-constrained pick must not cost more than the "
         "fastest design";
}

TEST(Dse, FastestAndSmallestAreExtremes) {
  const DseResult r = explore(build_qam_decoder_ir(), DseOptions{},
                              TechLibrary::asic90());
  const DsePoint* fastest = r.fastest();
  const DsePoint* smallest = r.smallest();
  for (const auto& p : r.points) {
    EXPECT_GE(p.latency_cycles, fastest->latency_cycles);
    EXPECT_GE(p.area, smallest->area);
  }
}

TEST(Dse, RespectsConfigCap) {
  DseOptions opts;
  opts.max_configs = 3;
  const DseResult r = explore(build_qam_decoder_ir(), opts,
                              TechLibrary::asic90());
  EXPECT_LE(r.points.size(), 3u);
}

// Pinned fronts: pareto_front() name, latency and area, in order, on the
// QAM decoder. The literals were captured from explore() when it still ran
// feasibility pruning (redirecting below-floor II requests onto their
// clamped twins), so they also prove that scheduling every candidate
// under its own directives reaches the same fronts. The last two problems
// are the redirect-heavy axes — a 3 ns clock, unroll {1,2,4,8,16}, II
// {0,1,2,3} — at the historical 256-row cap and the current 1024.
struct FrontRow {
  int latency_cycles;
  double area;
  const char* name;
};

const std::vector<FrontRow> kAsic90At10ns = {
    {9, 51088,
     "merge+U2+dfe_shiftxU4+dfe_adaptxU4+dfexU4+ffe_adaptxU4+dfe_shiftxU8"
     "+dfe_adaptxU8"},
    {11, 43890,
     "merge+U2+dfe_shiftxU4+dfe_adaptxU4+dfexU4+ffe_adaptxU4+dfe_shiftxU8"},
    {15, 29631,
     "merge+U1+dfe_adaptxU2+ffe_adaptxU2+ffe_shiftxU2+dfe_shiftxU2"
     "+dfe_shiftxU4+dfe_adaptxU4+dfexU2+dfe_shiftxU8"},
    {19, 26425,
     "merge+U1+dfexU2+dfe_adaptxU2+ffe_shiftxU2+dfe_shiftxU2+dfe_shiftxU4"
     "+dfe_shiftxU8"},
    {23, 26056,
     "merge+U1+dfe_adaptxU2+ffe_adaptxU2+ffe_shiftxU2+dfe_shiftxU2"
     "+dfe_shiftxU4+dfe_adaptxU4+dfe_shiftxU8"},
    {27, 22462,
     "merge+U1+dfe_adaptxU2+ffe_adaptxU2+ffe_shiftxU2+dfe_shiftxU2"
     "+dfe_shiftxU4+dfe_shiftxU8"},
    {35, 20338,
     "merge+U1+ffe_shiftxU2+dfe_shiftxU2+dfe_shiftxU4+dfe_shiftxU8"},
    {43, 18340,
     "flat+U1+dfe_adaptxU2+ffe_adaptxU2+dfe_shiftxU2+ffe_shiftxU2"
     "+dfe_shiftxU4+dfe_shiftxU8"},
    {55, 16658,
     "flat+U1+ffe_shiftxU2+dfe_shiftxU2+dfe_shiftxU4+dfe_shiftxU8"},
};
const std::vector<FrontRow> kFpgaLut4At5ns = {
    {28, 60328,
     "merge+U4+II1+dfexU8+dfe_adaptxU8+dfe_shiftxU8+ffe_shiftxU2"},
    {30, 43354,
     "merge+U2+II1+dfexU4+dfe_shiftxU4+dfe_adaptxU4+ffe_adaptxU4"
     "+dfe_shiftxU8+dfe_adaptxU8"},
    {32, 36592,
     "merge+U2+II1+dfexU4+dfe_shiftxU4+dfe_adaptxU4+ffe_adaptxU4"
     "+dfe_shiftxU8"},
    {36, 24796,
     "merge+U1+II1+dfe_adaptxU2+ffe_adaptxU2+ffe_shiftxU2+dfe_shiftxU2"
     "+dfe_shiftxU4+dfe_adaptxU4+dfexU2+dfe_shiftxU8"},
    {40, 22354,
     "merge+U1+II1+dfexU2+dfe_adaptxU2+ffe_shiftxU2+dfe_shiftxU2"
     "+dfe_shiftxU4+dfe_shiftxU8"},
    {44, 21962,
     "merge+U1+II1+dfe_adaptxU2+ffe_adaptxU2+ffe_shiftxU2+dfe_shiftxU2"
     "+dfe_shiftxU4+dfe_adaptxU4+dfe_shiftxU8"},
    {48, 18584,
     "merge+U1+II1+dfe_adaptxU2+ffe_adaptxU2+ffe_shiftxU2+dfe_shiftxU2"
     "+dfe_shiftxU4+dfe_shiftxU8"},
    {56, 16970,
     "merge+U1+II1+ffe_shiftxU2+dfe_shiftxU2+dfe_shiftxU4+dfe_shiftxU8"},
    {73, 16126,
     "flat+U1+II1+dfe_adaptxU2+ffe_adaptxU2+dfe_shiftxU2+ffe_shiftxU2"
     "+dfe_shiftxU4+dfe_shiftxU8"},
    {85, 14518,
     "flat+U1+II1+ffe_shiftxU2+dfe_shiftxU2+dfe_shiftxU4+dfe_shiftxU8"},
};
const std::vector<FrontRow> kAsic90At20ns = {
    {7, 72528,
     "merge+U4+ffe_shiftxU2+dfe_shiftxU8+dfe_adaptxU8+dfexU8"},
    {9, 51088,
     "merge+U2+dfe_shiftxU4+dfe_adaptxU4+dfexU4+ffe_adaptxU4+dfe_shiftxU8"
     "+dfe_adaptxU8"},
    {11, 43890,
     "merge+U2+dfe_shiftxU4+dfe_adaptxU4+dfexU4+ffe_adaptxU4+dfe_shiftxU8"},
    {15, 29631,
     "merge+U1+dfe_adaptxU2+ffe_adaptxU2+ffe_shiftxU2+dfe_shiftxU2"
     "+dfe_shiftxU4+dfe_adaptxU4+dfexU2+dfe_shiftxU8"},
    {19, 26425,
     "merge+U1+dfexU2+dfe_adaptxU2+ffe_shiftxU2+dfe_shiftxU2+dfe_shiftxU4"
     "+dfe_shiftxU8"},
    {23, 26056,
     "merge+U1+dfe_adaptxU2+ffe_adaptxU2+ffe_shiftxU2+dfe_shiftxU2"
     "+dfe_shiftxU4+dfe_adaptxU4+dfe_shiftxU8"},
    {27, 22462,
     "merge+U1+dfe_adaptxU2+ffe_adaptxU2+ffe_shiftxU2+dfe_shiftxU2"
     "+dfe_shiftxU4+dfe_shiftxU8"},
    {35, 20338,
     "merge+U1+ffe_shiftxU2+dfe_shiftxU2+dfe_shiftxU4+dfe_shiftxU8"},
    {43, 18340,
     "flat+U1+dfe_adaptxU2+ffe_adaptxU2+dfe_shiftxU2+ffe_shiftxU2"
     "+dfe_shiftxU4+dfe_shiftxU8"},
    {55, 16658,
     "flat+U1+ffe_shiftxU2+dfe_shiftxU2+dfe_shiftxU4+dfe_shiftxU8"},
};
const std::vector<FrontRow> kAxesCap256 = {
    {18, 76680,
     "merge+U4+II1+dfexU8+ffe_shiftxU2+dfe_shiftxU8+dfe_adaptxU8"},
    {20, 72842,
     "merge+U4+II1+dfexU8+ffe_shiftxU2+dfe_shiftxU8"},
    {22, 45474,
     "merge+U2+II1+dfexU4+dfe_shiftxU4+dfe_adaptxU4+dfe_shiftxU8"},
    {26, 40680,
     "merge+U2+II1+dfexU4+dfe_shiftxU4+dfe_shiftxU8"},
    {30, 27121,
     "merge+U1+II1+dfexU2+dfe_adaptxU2+ffe_shiftxU2+dfe_shiftxU2"},
    {38, 25649,
     "merge+U1+II1+dfexU2+ffe_shiftxU2+dfe_shiftxU2+dfe_shiftxU4"},
    {46, 23386,
     "merge+U1+II1+dfe_adaptxU2+ffe_shiftxU2+dfe_shiftxU2+dfe_shiftxU4"},
    {54, 21874,
     "merge+U1+II1+ffe_shiftxU2+dfe_shiftxU2+dfe_shiftxU4+dfe_shiftxU8"},
    {72, 20040,
     "flat+U1+II1+dfe_adaptxU2+dfe_shiftxU2+dfe_shiftxU4+ffe_adaptxU2"
     "+dfe_shiftxU8"},
    {73, 20030,
     "flat+U1+II1+dfe_adaptxU2+dfe_shiftxU2+ffe_shiftxU2+dfe_shiftxU4"
     "+ffe_adaptxU2"},
    {75, 18826,
     "flat+U1+II1+dfe_adaptxU2+dfe_shiftxU2+ffe_shiftxU2+dfe_shiftxU4"
     "+dfe_shiftxU8"},
    {83, 18018,
     "flat+U1+II1+ffe_shiftxU2+dfe_shiftxU2+dfe_shiftxU4+dfe_shiftxU8"},
};
const std::vector<FrontRow> kAxesCap1024 = {
    {18, 76680,
     "merge+U4+II1+dfexU8+ffe_shiftxU2+dfe_shiftxU8+dfe_adaptxU8"},
    {20, 72842,
     "merge+U4+II1+dfexU8+ffe_shiftxU2+dfe_shiftxU8"},
    {22, 45474,
     "merge+U2+II1+dfexU4+dfe_shiftxU4+dfe_adaptxU4+dfe_shiftxU8"},
    {26, 40680,
     "merge+U2+II1+dfexU4+dfe_shiftxU4+dfe_shiftxU8"},
    {30, 27001,
     "merge+U1+II1+dfexU2+dfe_adaptxU2+ffe_shiftxU2+dfe_shiftxU2"
     "+dfe_shiftxU4+dfe_shiftxU8"},
    {38, 25569,
     "merge+U1+II1+dfexU2+ffe_shiftxU2+dfe_shiftxU2+dfe_shiftxU4"
     "+dfe_shiftxU8"},
    {46, 23306,
     "merge+U1+II1+dfe_adaptxU2+ffe_shiftxU2+dfe_shiftxU2+dfe_shiftxU4"
     "+dfe_shiftxU8"},
    {54, 21874,
     "merge+U1+II1+ffe_shiftxU2+dfe_shiftxU2+dfe_shiftxU4+dfe_shiftxU8"},
    {71, 19940,
     "flat+U1+II1+dfe_adaptxU2+dfe_shiftxU2+ffe_shiftxU2+dfe_shiftxU4"
     "+ffe_adaptxU2+dfe_shiftxU8"},
    {75, 18826,
     "flat+U1+II1+dfe_adaptxU2+dfe_shiftxU2+ffe_shiftxU2+dfe_shiftxU4"
     "+dfe_shiftxU8"},
    {79, 18796,
     "flat+U1+II1+ffe_shiftxU2+dfe_shiftxU2+dfe_shiftxU4+ffe_adaptxU2"
     "+dfe_shiftxU8"},
    {83, 18018,
     "flat+U1+II1+ffe_shiftxU2+dfe_shiftxU2+dfe_shiftxU4+dfe_shiftxU8"},
};

void expect_front(const DseResult& r, const std::vector<FrontRow>& want) {
  const auto front = r.pareto_front();
  ASSERT_EQ(front.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(front[i]->name, want[i].name) << "front row " << i;
    EXPECT_EQ(front[i]->latency_cycles, want[i].latency_cycles)
        << want[i].name;
    EXPECT_EQ(front[i]->area, want[i].area) << want[i].name;
  }
}

DseResult explore_at(double clock_ns, const TechLibrary& tech) {
  DseOptions opts;
  opts.clock_period_ns = clock_ns;
  return explore(build_qam_decoder_ir(), opts, tech);
}

DseResult explore_axes(int max_configs) {
  DseOptions opts;
  opts.clock_period_ns = 3.0;
  opts.unroll_factors = {1, 2, 4, 8, 16};
  opts.pipeline_iis = {0, 1, 2, 3};
  opts.max_configs = max_configs;
  return explore(build_qam_decoder_ir(), opts, TechLibrary::asic90());
}

TEST(DseFront, Asic90At10nsIsPinned) {
  expect_front(explore_at(10.0, TechLibrary::asic90()), kAsic90At10ns);
}

TEST(DseFront, FpgaLut4At5nsIsPinned) {
  expect_front(explore_at(5.0, TechLibrary::fpga_lut4()), kFpgaLut4At5ns);
}

TEST(DseFront, Asic90At20nsIsPinned) {
  expect_front(explore_at(20.0, TechLibrary::asic90()), kAsic90At20ns);
}

TEST(DseFront, RedirectHeavyAxesAtCap256ArePinned) {
  expect_front(explore_axes(256), kAxesCap256);
}

TEST(DseFront, RedirectHeavyAxesAtCap1024ArePinned) {
  expect_front(explore_axes(1024), kAxesCap1024);
}

}  // namespace
}  // namespace hlsw::hls
