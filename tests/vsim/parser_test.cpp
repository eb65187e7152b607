// Front-end contract of the vsim Verilog subset: well-formed emitter/
// testbench constructs parse into the expected AST shape, and malformed
// input fails loudly (std::runtime_error carrying a line number) instead of
// mis-parsing — the negative half is what makes the structural "emitter
// output parses" tests meaningful.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "vsim/elab.h"
#include "vsim/parser.h"

namespace hlsw::vsim {
namespace {

TEST(VsimParser, ModuleHeaderAndDeclarations) {
  const auto su = parse(R"(
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
)");
  ASSERT_EQ(su.modules.size(), 1u);
  const Module& m = su.modules[0];
  EXPECT_EQ(m.name, "m");
  ASSERT_EQ(m.port_order.size(), 3u);
  EXPECT_EQ(m.port_order[0], "clk");
  const NetDecl *clk = nullptr, *a = nullptr, *q = nullptr, *mem = nullptr;
  for (const auto& n : m.nets) {
    if (n.name == "clk") clk = &n;
    if (n.name == "a") a = &n;
    if (n.name == "q") q = &n;
    if (n.name == "mem") mem = &n;
  }
  ASSERT_TRUE(clk && a && q && mem);
  EXPECT_TRUE(clk->is_input);
  EXPECT_FALSE(clk->is_output);
  EXPECT_EQ(a->width, 16);
  EXPECT_TRUE(a->is_signed);
  EXPECT_TRUE(q->is_output);
  EXPECT_TRUE(q->is_reg);
  EXPECT_EQ(mem->array_len, 8);
  EXPECT_EQ(mem->width, 10);
  EXPECT_EQ(m.assigns.size(), 1u);
  EXPECT_EQ(m.always.size(), 1u);
}

TEST(VsimParser, TestbenchConstructs) {
  // The behavioral subset the generated testbench leans on: init values,
  // always with an intra-assignment delay, tasks, repeat, event controls,
  // system tasks with string arguments, integer declarations.
  const auto su = parse(R"(
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
)");
  ASSERT_EQ(su.modules.size(), 1u);
  const Module& m = su.modules[0];
  EXPECT_EQ(m.tasks.size(), 1u);
  EXPECT_EQ(m.tasks[0].name, "run_vector");
  ASSERT_EQ(m.always.size(), 1u);
  EXPECT_EQ(m.always[0]->kind, StmtKind::kDelay);
  ASSERT_EQ(m.initials.size(), 1u);
}

TEST(VsimParser, InstancesByNamedConnection) {
  const auto su = parse(R"(
module leaf (input wire a, output wire b);
  assign b = !a;
endmodule
module top;
  wire x, y;
  leaf u0 (.a(x), .b(y));
endmodule
)");
  ASSERT_EQ(su.modules.size(), 2u);
  ASSERT_EQ(su.modules[1].instances.size(), 1u);
  const Instance& inst = su.modules[1].instances[0];
  EXPECT_EQ(inst.module_name, "leaf");
  EXPECT_EQ(inst.inst_name, "u0");
  ASSERT_EQ(inst.conns.size(), 2u);
  EXPECT_EQ(inst.conns[0].port, "a");
}

TEST(VsimParser, SizedLiteralsAndOperators) {
  // Exercises the emitter's expression grammar end to end; shape-checking
  // one nested case is enough — execution tests pin the semantics.
  const auto su = parse(R"(
module e (input wire signed [63:0] a, output wire signed [63:0] q);
  wire signed [63:0] t0, t1;
  assign t0 = (a <<< 3) + -64'sd12 - $signed({{63{1'b0}}, a[5]});
  assign t1 = (a >= 64'sd0 ? t0 : {a[62:0], 1'b0});
  assign q = t1 >>> 2;
endmodule
)");
  ASSERT_EQ(su.modules[0].assigns.size(), 3u);
  const Expr& rhs = *su.modules[0].assigns[1].rhs;
  EXPECT_EQ(rhs.kind, ExprKind::kTernary);
}

// ---- Negative tests: the parser must throw, with a line number ------------

void expect_parse_error(const std::string& src, const std::string& needle) {
  try {
    parse(src);
    FAIL() << "expected parse failure for: " << src;
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("line"), std::string::npos) << msg;
    if (!needle.empty()) {
      EXPECT_NE(msg.find(needle), std::string::npos) << msg;
    }
  }
}

TEST(VsimParser, RejectsMalformedInput) {
  expect_parse_error("module m (input wire a;\nendmodule\n", "");
  expect_parse_error("module m;\n  wire w\nendmodule\n", "");       // no ';'
  expect_parse_error("module m;\n  assign = 1;\nendmodule\n", "");  // no lhs
  expect_parse_error("module m;\n  wire [3:0 w;\nendmodule\n", "");
  expect_parse_error("module m;\n  initial begin $finish;\n", "");  // EOF
  expect_parse_error("module m;\n  wire w = ;\nendmodule\n", "");
  // Literal sizes that wrap a 32- or 64-bit accumulator to 1 are still
  // out of range.
  expect_parse_error("module m;\n  wire w = 4294967297'd5;\nendmodule\n",
                     "1..64");
  expect_parse_error(
      "module m;\n  wire w = 18446744073709551617'h3;\nendmodule\n", "1..64");
  // Literal values past 64 bits are rejected instead of wrapping.
  expect_parse_error(
      "module m;\n  wire [63:0] w = 99999999999999999999;\nendmodule\n",
      "64 bits");
  expect_parse_error(
      "module m;\n  wire [63:0] w = 64'h1_0000_0000_0000_0001;\nendmodule\n",
      "64 bits");
  // Register-file bounds: one past 32 bits used to wrap to a scalar, and a
  // bound near 1e9 elements passed the parser only to exhaust memory.
  expect_parse_error(
      "module m;\n  reg [7:0] mem [0:4294967295];\nendmodule\n", "elements");
  expect_parse_error(
      "module m;\n  reg [7:0] mem [0:999999999];\nendmodule\n", "elements");
  // Nesting is bounded: each of these used to recurse until the stack
  // overflowed.
  const std::string deep_parens = "module m (input wire a, output wire y);\n"
                                  "  assign y = " +
                                  std::string(200000, '(') + "a" +
                                  std::string(200000, ')') + ";\nendmodule\n";
  expect_parse_error(deep_parens, "nesting");
  std::string deep_unary = "module m (input wire a, output wire y);\n"
                           "  assign y = ";
  for (int i = 0; i < 200000; ++i) deep_unary += "- ";
  deep_unary += "a;\nendmodule\n";
  expect_parse_error(deep_unary, "nesting");
  std::string deep_begin = "module m;\n  reg r;\n  initial ";
  for (int i = 0; i < 10000; ++i) deep_begin += "begin ";
  deep_begin += "r = 1;";
  for (int i = 0; i < 10000; ++i) deep_begin += " end";
  deep_begin += "\nendmodule\n";
  expect_parse_error(deep_begin, "nesting");
}

TEST(VsimParser, RejectsPartSelectOfComposite) {
  // `(a + b)[3:0]` is not legal Verilog-2001 — this pin is what forced the
  // emitter to materialize composite sources into fresh wires.
  expect_parse_error(
      "module m (input wire signed [7:0] a, output wire q);\n"
      "  assign q = (a + 8'sd1)[0];\nendmodule\n",
      "");
}

TEST(VsimParser, RejectsUnterminatedString) {
  expect_parse_error("module m;\n  initial $display(\"oops);\nendmodule\n",
                     "");
}

TEST(VsimParser, RejectsStrayCharacters) {
  expect_parse_error("module m;\n  wire w; #@!\nendmodule\n", "");
}

// ---- Elaboration negatives -------------------------------------------------

TEST(VsimElab, UndeclaredIdentifierFails) {
  const auto su = parse(
      "module m (output wire q);\n  assign q = ghost;\nendmodule\n");
  EXPECT_THROW(elaborate(su, "m"), std::runtime_error);
}

TEST(VsimElab, UnknownTopModuleFails) {
  const auto su = parse("module m;\n  wire w;\nendmodule\n");
  EXPECT_THROW(elaborate(su, "nope"), std::runtime_error);
}

TEST(VsimElab, OverwideSignalFails) {
  // The >64-bit limit is enforced at the front door: the parser only
  // accepts [msb:0] ranges with msb <= 63.
  expect_parse_error(
      "module m;\n  reg signed [64:0] monster;\n"
      "  initial monster = 0;\nendmodule\n",
      "msb");
}

TEST(VsimElab, FlattensInstancesAndFoldsLocalparams) {
  const auto su = parse(R"(
module leaf (input wire signed [7:0] a, output wire signed [7:0] b);
  localparam K = 3;
  assign b = a + K;
endmodule
module top (input wire signed [7:0] x, output wire signed [7:0] y);
  leaf u0 (.a(x), .b(y));
endmodule
)");
  const auto d = elaborate(su, "top");
  EXPECT_EQ(d->top, "top");
  EXPECT_GE(d->find("x"), 0);
  EXPECT_EQ(d->assigns.size(), 1u);  // leaf's assign, aliased onto y
  EXPECT_EQ(d->find("K"), -1) << "localparams fold away";
}

}  // namespace
}  // namespace hlsw::vsim
