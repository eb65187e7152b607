// Tokenizer for the vsim Verilog subset. Produces a flat token stream with
// line numbers for error reporting; skips // and /* */ comments and
// compiler directives (`timescale and friends), which the simulator does
// not interpret (time is counted in abstract units, one unit per #1).
//
// Tokens do not own their text: Token::text views the lexed source, which
// must outlive the token vector. Every operator and punctuation mark comes
// from one table (op_info), which the parser also reads for precedence and
// unary-ness.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace hlsw::vsim {

enum class Tok : std::uint8_t {
  kIdent,    // identifiers and keywords (keywords resolved by the parser)
  kSysName,  // $display, $signed, ...
  kNumber,   // sized or unsized literal
  kString,   // "..."
  kSymbol,   // operator / punctuation, possibly multi-character
  kEof,
};

// Operator and punctuation codes; kNone on every non-symbol token.
enum class Op : std::uint8_t {
  kNone,
  // Punctuation.
  kLParen, kRParen, kLBracket, kRBracket, kLBrace, kRBrace,
  kColon, kSemi, kComma, kDot, kAt, kHash, kQuestion, kAssign,
  // Binary operators, loosest tier first (see OpInfo::prec).
  kLogOr, kLogAnd, kOr, kXor, kXnor, kXnorAlt, kAnd,
  kEq, kNe, kCaseEq, kCaseNe, kLt, kLe, kGt, kGe,
  kShl, kShr, kAShl, kAShr, kAdd, kSub, kMul, kDiv, kMod,
  // Unary-only operators.
  kNot, kTilde, kNand, kNor,
  kCount,
};

struct OpInfo {
  std::string_view spelling;
  Op op;
  int prec;    // binary precedence tier, 0 loosest; -1 when not binary
  bool unary;  // may prefix an operand
};

// The operator table entry for `op` (kNone: empty spelling, not an
// operator).
const OpInfo& op_info(Op op);

struct Token {
  Tok kind = Tok::kEof;
  Op op = Op::kNone;  // kSymbol: which operator or punctuation mark
  bool sized = false;
  bool is_signed = false;  // unsized decimals and 's literals are signed
  int line = 0;
  // The token as written in the source: identifier, symbol, literal
  // (with any '_' separators), or a string's contents between the quotes
  // (escapes unresolved). See token_text for the decoded form.
  std::string_view text;
  // kNumber payload.
  unsigned long long value = 0;
  int width = 32;
};

// The token's text with string escapes resolved and '_' digit separators
// dropped from literals.
std::string token_text(const Token& t);

// Tokenizes the full source; throws std::runtime_error (with line number)
// on malformed input such as an unterminated string or a bad based literal.
std::vector<Token> lex(std::string_view src);

}  // namespace hlsw::vsim
