#include "vsim/lexer.h"

#include <array>
#include <stdexcept>

namespace hlsw::vsim {

namespace {

constexpr OpInfo kOpTable[] = {
    {"", Op::kNone, -1, false},
    {"(", Op::kLParen, -1, false},
    {")", Op::kRParen, -1, false},
    {"[", Op::kLBracket, -1, false},
    {"]", Op::kRBracket, -1, false},
    {"{", Op::kLBrace, -1, false},
    {"}", Op::kRBrace, -1, false},
    {":", Op::kColon, -1, false},
    {";", Op::kSemi, -1, false},
    {",", Op::kComma, -1, false},
    {".", Op::kDot, -1, false},
    {"@", Op::kAt, -1, false},
    {"#", Op::kHash, -1, false},
    {"?", Op::kQuestion, -1, false},
    {"=", Op::kAssign, -1, false},
    {"||", Op::kLogOr, 0, false},
    {"&&", Op::kLogAnd, 1, false},
    {"|", Op::kOr, 2, true},
    {"^", Op::kXor, 3, true},
    {"~^", Op::kXnor, 3, true},
    {"^~", Op::kXnorAlt, 3, true},
    {"&", Op::kAnd, 4, true},
    {"==", Op::kEq, 5, false},
    {"!=", Op::kNe, 5, false},
    {"===", Op::kCaseEq, 5, false},
    {"!==", Op::kCaseNe, 5, false},
    {"<", Op::kLt, 6, false},
    {"<=", Op::kLe, 6, false},
    {">", Op::kGt, 6, false},
    {">=", Op::kGe, 6, false},
    {"<<", Op::kShl, 7, false},
    {">>", Op::kShr, 7, false},
    {"<<<", Op::kAShl, 7, false},
    {">>>", Op::kAShr, 7, false},
    {"+", Op::kAdd, 8, true},
    {"-", Op::kSub, 8, true},
    {"*", Op::kMul, 9, false},
    {"/", Op::kDiv, 9, false},
    {"%", Op::kMod, 9, false},
    {"!", Op::kNot, -1, true},
    {"~", Op::kTilde, -1, true},
    {"~&", Op::kNand, -1, true},
    {"~|", Op::kNor, -1, true},
};
static_assert(std::size(kOpTable) == static_cast<std::size_t>(Op::kCount));
constexpr bool table_indexed_by_op() {
  for (std::size_t i = 0; i < std::size(kOpTable); ++i)
    if (static_cast<std::size_t>(kOpTable[i].op) != i) return false;
  return true;
}
static_assert(table_indexed_by_op());

// For each first character, the operators spelled with it, longest first
// (at most four share one: < <= << <<<), so the first match is the longest.
struct FirstCharIndex {
  std::array<std::array<Op, 4>, 256> ops{};
  std::array<std::uint8_t, 256> count{};
};

constexpr FirstCharIndex build_first_char_index() {
  FirstCharIndex idx;
  for (std::size_t len = 3; len >= 1; --len)
    for (const OpInfo& o : kOpTable)
      if (o.spelling.size() == len) {
        const auto c = static_cast<unsigned char>(o.spelling[0]);
        idx.ops[c][idx.count[c]++] = o.op;
      }
  return idx;
}
constexpr FirstCharIndex kFirstChar = build_first_char_index();

// C-locale character classes.
enum : std::uint8_t { kSpace = 1, kDigit = 2, kAlpha = 4 };
constexpr std::array<std::uint8_t, 256> build_char_classes() {
  std::array<std::uint8_t, 256> t{};
  for (char c : {' ', '\t', '\n', '\v', '\f', '\r'})
    t[static_cast<unsigned char>(c)] = kSpace;
  for (int c = '0'; c <= '9'; ++c) t[c] = kDigit;
  for (int c = 'a'; c <= 'z'; ++c) t[c] = kAlpha;
  for (int c = 'A'; c <= 'Z'; ++c) t[c] = kAlpha;
  t['_'] = kAlpha;
  return t;
}
constexpr std::array<std::uint8_t, 256> kClass = build_char_classes();

bool is_space(char c) { return kClass[static_cast<unsigned char>(c)] & kSpace; }
bool is_digit(char c) { return kClass[static_cast<unsigned char>(c)] & kDigit; }
bool ident_start(char c) {
  return kClass[static_cast<unsigned char>(c)] & kAlpha;
}
bool ident_char(char c) {
  return kClass[static_cast<unsigned char>(c)] & (kAlpha | kDigit);
}

// Emitted modules and testbenches run 3.6-3.9 source bytes per token, so
// reserving one token per 3 bytes lexes them without a reallocation (which
// would double the vector) at ~20% over-reservation.
constexpr std::size_t kBytesPerTokenEstimate = 3;

[[noreturn]] void fail(int line, const std::string& what) {
  throw std::runtime_error("vsim lex error at line " + std::to_string(line) +
                           ": " + what);
}

int digit_value(char c, int base, int line) {
  int v;
  if (c >= '0' && c <= '9') v = c - '0';
  else if (c >= 'a' && c <= 'f') v = c - 'a' + 10;
  else if (c >= 'A' && c <= 'F') v = c - 'A' + 10;
  else v = -1;
  if (v < 0 || v >= base) fail(line, std::string("bad digit '") + c + "'");
  return v;
}

}  // namespace

const OpInfo& op_info(Op op) { return kOpTable[static_cast<std::size_t>(op)]; }

std::string token_text(const Token& t) {
  std::string s;
  s.reserve(t.text.size());
  for (std::size_t i = 0; i < t.text.size(); ++i) {
    const char c = t.text[i];
    if (t.kind == Tok::kString && c == '\\' && i + 1 < t.text.size()) {
      const char e = t.text[++i];
      s.push_back(e == 'n' ? '\n' : e == 't' ? '\t' : e);
    } else if (!(t.kind == Tok::kNumber && c == '_')) {
      s.push_back(c);
    }
  }
  return s;
}

std::vector<Token> lex(std::string_view src) {
  std::vector<Token> out;
  out.reserve(src.size() / kBytesPerTokenEstimate + 1);
  std::size_t i = 0;
  const std::size_t n = src.size();
  int line = 1;

  const auto peek = [&](std::size_t k) -> char {
    return i + k < n ? src[i + k] : '\0';
  };

  while (i < n) {
    const char c = src[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (is_space(c)) {
      ++i;
      continue;
    }
    if (c == '/' && peek(1) == '/') {
      while (i < n && src[i] != '\n') ++i;
      continue;
    }
    if (c == '/' && peek(1) == '*') {
      i += 2;
      while (i < n && !(src[i] == '*' && peek(1) == '/')) {
        if (src[i] == '\n') ++line;
        ++i;
      }
      if (i >= n) fail(line, "unterminated block comment");
      i += 2;
      continue;
    }
    if (c == '`') {  // compiler directive: skip to end of line
      while (i < n && src[i] != '\n') ++i;
      continue;
    }

    Token& t = out.emplace_back();
    t.line = line;
    const std::size_t start = i;

    if (c == '"') {
      t.kind = Tok::kString;
      ++i;
      while (i < n && src[i] != '"') {
        if (src[i] == '\n') fail(line, "unterminated string");
        i += src[i] == '\\' && i + 1 < n ? 2 : 1;
      }
      if (i >= n) fail(line, "unterminated string");
      t.text = src.substr(start + 1, i - start - 1);
      ++i;
      continue;
    }

    if (c == '$' && ident_start(peek(1))) {
      t.kind = Tok::kSysName;
      ++i;
      while (i < n && ident_char(src[i])) ++i;
      t.text = src.substr(start, i - start);
      continue;
    }

    if (ident_start(c)) {
      t.kind = Tok::kIdent;
      while (i < n && ident_char(src[i])) ++i;
      t.text = src.substr(start, i - start);
      continue;
    }

    if (is_digit(c) || (c == '\'' && ident_char(peek(1)))) {
      t.kind = Tok::kNumber;
      // Optional decimal size, then optional '<s><base> digits. A size
      // beyond 64 is remembered as it accumulates, before it can wrap.
      unsigned long long size = 0;
      bool have_size = false, too_wide = false;
      while (i < n && is_digit(src[i])) {
        size = size * 10 + static_cast<unsigned long long>(src[i++] - '0');
        too_wide = too_wide || size > 64;
        have_size = true;
      }
      if (i < n && src[i] == '\'') {
        ++i;
        bool sflag = false;
        if (i < n && (src[i] == 's' || src[i] == 'S')) {
          sflag = true;
          ++i;
        }
        if (i >= n) fail(line, "truncated based literal");
        int base;
        switch (src[i]) {
          case 'd': case 'D': base = 10; break;
          case 'h': case 'H': base = 16; break;
          case 'b': case 'B': base = 2; break;
          case 'o': case 'O': base = 8; break;
          default: fail(line, "unknown literal base");
        }
        ++i;
        unsigned long long v = 0;
        bool any = false;
        while (i < n && ident_char(src[i])) {
          if (src[i] != '_') {
            v = v * static_cast<unsigned long long>(base) +
                static_cast<unsigned long long>(
                    digit_value(src[i], base, line));
            any = true;
          }
          ++i;
        }
        if (!any) fail(line, "based literal without digits");
        t.width = have_size ? static_cast<int>(size) : 32;
        if (too_wide || t.width < 1)
          fail(line, "literal width out of the supported 1..64 range");
        t.value = t.width < 64 ? v & ((1ULL << t.width) - 1) : v;
        t.sized = have_size;
        t.is_signed = sflag;
      } else {
        // Plain unsized decimal: 32-bit signed per the LRM.
        t.value = size;
        t.is_signed = true;
      }
      t.text = src.substr(start, i - start);
      continue;
    }

    // Operators and punctuation: longest spelling with this first char.
    t.kind = Tok::kSymbol;
    const auto fc = static_cast<unsigned char>(c);
    for (std::uint8_t k = 0; k < kFirstChar.count[fc]; ++k) {
      const OpInfo& o = op_info(kFirstChar.ops[fc][k]);
      if (src.substr(i, o.spelling.size()) == o.spelling) {
        t.op = o.op;
        i += o.spelling.size();
        break;
      }
    }
    if (t.op == Op::kNone)
      fail(line, std::string("unexpected character '") + c + "'");
    t.text = src.substr(start, i - start);
  }

  Token& eof = out.emplace_back();
  eof.kind = Tok::kEof;
  eof.line = line;
  return out;
}

}  // namespace hlsw::vsim
