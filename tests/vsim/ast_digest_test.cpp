// Pins the exact AST the vsim front end builds: an FNV-1a digest of the
// canonical dump (ast_dump.h) for every emitted exploration module, each
// module plus its 8-vector self-checking testbench, the perf-counter-
// instrumented merge module, and the well-formed hand-written sources of
// parser_test.cpp. The literals were captured from the reference
// recursive-descent parser; any change to the tree handed to elaboration
// (operator spelling, associativity, literal payloads, node order) moves a
// digest.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "ast_dump.h"
#include "hls/report.h"
#include "hls/synth_cache.h"
#include "qam/architectures.h"
#include "qam/decoder_ir.h"
#include "qam/link.h"
#include "rtl/testbench.h"
#include "rtl/verilog.h"
#include "vsim/parser.h"

namespace hlsw::vsim {
namespace {

// The well-formed sources of parser_test.cpp, verbatim.
const char* const kHandWritten[] = {
    R"(
module m (
  input wire clk,
  input wire signed [15:0] a,
  output reg signed [15:0] q
);
  reg signed [63:0] acc;
  wire signed [63:0] w0;
  reg [15:0] state;
  localparam S_IDLE = 0;
  reg signed [9:0] mem [0:7];
  assign w0 = acc + {{48{a[15]}}, a};
  always @(posedge clk) q <= w0[15:0];
endmodule
)",
    R"(
module tb;
  reg clk = 0, rst = 1, start = 0;
  wire done;
  integer errors = 0;
  always #5 clk = ~clk;
  task run_vector(input integer idx);
    begin
      @(negedge clk); start = 1;
      @(negedge clk); start = 0;
      @(posedge done);
    end
  endtask
  initial begin
    repeat (3) @(negedge clk); rst = 0;
    run_vector(0);
    if (errors == 0) $display("PASS: all %0d vectors matched", errors);
    $finish;
  end
endmodule
)",
    R"(
module leaf (input wire a, output wire b);
  assign b = !a;
endmodule
module top;
  wire x, y;
  leaf u0 (.a(x), .b(y));
endmodule
)",
    R"(
module e (input wire signed [63:0] a, output wire signed [63:0] q);
  wire signed [63:0] t0, t1;
  assign t0 = (a <<< 3) + -64'sd12 - $signed({{63{1'b0}}, a[5]});
  assign t1 = (a >= 64'sd0 ? t0 : {a[62:0], 1'b0});
  assign q = t1 >>> 2;
endmodule
)",
    "module m (output wire q);\n  assign q = ghost;\nendmodule\n",
    "module m;\n  wire w;\nendmodule\n",
    R"(
module leaf (input wire signed [7:0] a, output wire signed [7:0] b);
  localparam K = 3;
  assign b = a + K;
endmodule
module top (input wire signed [7:0] x, output wire signed [7:0] y);
  leaf u0 (.a(x), .b(y));
endmodule
)",
};

// Every input the digests cover, keyed by a stable name.
std::map<std::string, std::string> corpus() {
  std::map<std::string, std::string> out;
  const auto ir = qam::build_qam_decoder_ir();
  qam::LinkStimulus stim((qam::LinkConfig()));
  const auto inputs = qam::link_input_batch(&stim, 8);
  for (const auto& arch : qam::exploration_architectures()) {
    const auto r =
        hls::run_synthesis(ir, arch.dir, hls::TechLibrary::asic90());
    const std::string v = rtl::emit_verilog(r.transformed, r.schedule);
    const auto tvs = rtl::capture_vectors(r.transformed, r.schedule, inputs);
    out["emit:" + arch.name] = v;
    out["tb:" + arch.name] =
        v + "\n" + rtl::emit_testbench(r.transformed, tvs, r.transformed.name);
    if (arch.name == "merge") {
      rtl::VerilogOptions o;
      o.instrument.enabled = true;
      o.instrument.readback_mux = true;
      out["instrumented:merge"] =
          rtl::emit_verilog(r.transformed, r.schedule, o);
    }
  }
  for (std::size_t i = 0; i < std::size(kHandWritten); ++i)
    out["hand:" + std::to_string(i)] = kHandWritten[i];
  return out;
}

TEST(VsimAstDigest, MatchesReferenceParser) {
  const std::map<std::string, std::uint64_t> pinned = {
      {"emit:merge", 0x83a0043813cd8398ull},
      {"emit:merge+U2", 0x62ad7d5edf56735aull},
      {"emit:merge+U2/U4", 0x7265bb35ee1d026eull},
      {"emit:merge+U4all", 0x028a93927fadbcafull},
      {"emit:merge+U8all", 0x776f2f6f1990e85bull},
      {"emit:merge+mul4", 0x9abe2a7aaa159951ull},
      {"emit:merge+pipe", 0x83a0043813cd8398ull},
      {"emit:merge@5ns", 0xd4a1c34a0e553c47ull},
      {"emit:none", 0x1a8a503509ab5f1cull},
      {"emit:none+mem", 0x1a8a503509ab5f1cull},
      {"hand:0", 0x8123540430cf713dull},
      {"hand:1", 0xf4ae35a8e2691b2bull},
      {"hand:2", 0xd89e40e4de94ca74ull},
      {"hand:3", 0x660b2a5fc75d1d56ull},
      {"hand:4", 0xd969dc6166938361ull},
      {"hand:5", 0xc7b0f011e2f789e7ull},
      {"hand:6", 0x7a55c19fc75af3f9ull},
      {"instrumented:merge", 0x0a3099edc3d718d0ull},
      {"tb:merge", 0xc7605709c2a82885ull},
      {"tb:merge+U2", 0xb969a99e447648bbull},
      {"tb:merge+U2/U4", 0x577795203e311477ull},
      {"tb:merge+U4all", 0x4ea227b4f4003366ull},
      {"tb:merge+U8all", 0xc24cd03ad5339d9aull},
      {"tb:merge+mul4", 0xbc275089b1095784ull},
      {"tb:merge+pipe", 0xc7605709c2a82885ull},
      {"tb:merge@5ns", 0xe773e54ae78c568eull},
      {"tb:none", 0xb10f7cd62ae15981ull},
      {"tb:none+mem", 0xb10f7cd62ae15981ull},
  };
  const auto inputs = corpus();
  for (const auto& [name, src] : inputs) {
    const std::uint64_t d = hls::fnv1a64(testing::dump_ast(parse(src)));
    char hex[32];
    std::snprintf(hex, sizeof hex, "0x%016llxull",
                  static_cast<unsigned long long>(d));
    const auto it = pinned.find(name);
    if (it == pinned.end())
      ADD_FAILURE() << "unpinned: {\"" << name << "\", " << hex << "},";
    else
      EXPECT_EQ(it->second, d) << "{\"" << name << "\", " << hex << "},";
  }
  EXPECT_EQ(inputs.size(), pinned.size());
}

}  // namespace
}  // namespace hlsw::vsim
