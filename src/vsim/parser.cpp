#include "vsim/parser.h"

#include <map>
#include <stdexcept>
#include <string_view>

#include "vsim/lexer.h"

namespace hlsw::vsim {

namespace {

class Parser {
 public:
  explicit Parser(std::vector<Token> toks) : toks_(std::move(toks)) {}

  SourceUnit parse_unit() {
    SourceUnit su;
    while (!at_eof()) su.modules.push_back(parse_module());
    if (su.modules.empty()) fail("no modules in source");
    return su;
  }

 private:
  // ---- Token helpers -------------------------------------------------------
  const Token& cur() const { return toks_[pos_]; }
  const Token& ahead(std::size_t k) const {
    return toks_[std::min(pos_ + k, toks_.size() - 1)];
  }
  bool at_eof() const { return cur().kind == Tok::kEof; }

  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("vsim parse error at line " +
                             std::to_string(cur().line) + ": " + what);
  }

  bool is_sym(Op op) const { return cur().op == op; }
  bool is_kw(std::string_view s) const {
    return cur().kind == Tok::kIdent && cur().text == s;
  }
  const Token& take() { return toks_[pos_++]; }
  void expect_sym(Op op) {
    if (!is_sym(op))
      fail("expected '" + std::string(op_info(op).spelling) + "'");
    ++pos_;
  }
  void expect_kw(std::string_view s) {
    if (!is_kw(s)) fail("expected keyword '" + std::string(s) + "'");
    ++pos_;
  }
  bool eat_sym(Op op) {
    if (!is_sym(op)) return false;
    ++pos_;
    return true;
  }
  bool eat_kw(std::string_view s) {
    if (!is_kw(s)) return false;
    ++pos_;
    return true;
  }
  std::string expect_ident() {
    if (cur().kind != Tok::kIdent) fail("expected identifier");
    return std::string(take().text);
  }

  long long const_int(const ExprPtr& e) const {
    // Declaration ranges and localparam values must fold to integers here
    // (localparam references resolve through the module being parsed).
    switch (e->kind) {
      case ExprKind::kNumber: {
        long long v = static_cast<long long>(e->num);
        if (e->num_sized && e->num_width < 64 && e->num_signed &&
            (e->num >> (e->num_width - 1)) & 1)
          v -= 1LL << e->num_width;
        return v;
      }
      case ExprKind::kIdent: {
        auto it = params_.find(e->name);
        if (it == params_.end())
          throw std::runtime_error("vsim parse error: '" + e->name +
                                   "' is not a constant");
        return it->second;
      }
      case ExprKind::kUnary:
        if (e->name == "-") return -const_int(e->kids[0]);
        if (e->name == "+") return const_int(e->kids[0]);
        break;
      case ExprKind::kBinary: {
        const long long a = const_int(e->kids[0]);
        const long long b = const_int(e->kids[1]);
        if (e->name == "+") return a + b;
        if (e->name == "-") return a - b;
        if (e->name == "*") return a * b;
        break;
      }
      default:
        break;
    }
    throw std::runtime_error(
        "vsim parse error: expression is not a supported constant");
  }

  // ---- Modules -------------------------------------------------------------
  Module parse_module() {
    params_.clear();
    expect_kw("module");
    Module m;
    m.name = expect_ident();
    if (eat_sym(Op::kLParen)) parse_ansi_ports(&m);
    expect_sym(Op::kSemi);
    while (!eat_kw("endmodule")) {
      if (at_eof()) fail("unexpected end of file inside module");
      parse_module_item(&m);
    }
    return m;
  }

  void parse_ansi_ports(Module* m) {
    if (eat_sym(Op::kRParen)) return;
    do {
      NetDecl d;
      if (eat_kw("input")) d.is_input = true;
      else if (eat_kw("output")) d.is_output = true;
      else fail("expected port direction");
      if (eat_kw("wire")) d.is_reg = false;
      else if (eat_kw("reg")) d.is_reg = true;
      if (eat_kw("signed")) d.is_signed = true;
      d.width = parse_opt_range();
      d.name = expect_ident();
      m->port_order.push_back(d.name);
      m->nets.push_back(std::move(d));
    } while (eat_sym(Op::kComma));
    expect_sym(Op::kRParen);
  }

  // Returns the width of an optional [msb:lsb] range (1 when absent).
  int parse_opt_range() {
    if (!eat_sym(Op::kLBracket)) return 1;
    const long long msb = const_int(parse_expr());
    expect_sym(Op::kColon);
    const long long lsb = const_int(parse_expr());
    expect_sym(Op::kRBracket);
    if (lsb != 0 || msb < 0 || msb > 63)
      fail("only [msb:0] ranges with msb<=63 are supported");
    return static_cast<int>(msb) + 1;
  }

  void parse_module_item(Module* m) {
    if (is_kw("reg") || is_kw("wire") || is_kw("integer")) {
      parse_net_decl(m);
      return;
    }
    if (eat_kw("localparam")) {
      do {
        // Optional range on the localparam itself; the value is what counts.
        if (is_sym(Op::kLBracket)) parse_opt_range();
        const std::string name = expect_ident();
        expect_sym(Op::kAssign);
        const long long v = const_int(parse_expr());
        params_[name] = v;
        m->localparams.emplace_back(name, v);
      } while (eat_sym(Op::kComma));
      expect_sym(Op::kSemi);
      return;
    }
    if (eat_kw("assign")) {
      ContAssign a;
      a.lhs = parse_lvalue();
      expect_sym(Op::kAssign);
      a.rhs = parse_expr();
      expect_sym(Op::kSemi);
      m->assigns.push_back(std::move(a));
      return;
    }
    if (eat_kw("always")) {
      m->always.push_back(parse_stmt());
      return;
    }
    if (eat_kw("initial")) {
      m->initials.push_back(parse_stmt());
      return;
    }
    if (eat_kw("task")) {
      m->tasks.push_back(parse_task());
      return;
    }
    if (cur().kind == Tok::kIdent && ahead(1).kind == Tok::kIdent &&
        ahead(2).op == Op::kLParen) {
      m->instances.push_back(parse_instance());
      return;
    }
    fail("unsupported module item '" + token_text(cur()) + "'");
  }

  void parse_net_decl(Module* m) {
    NetDecl base;
    if (eat_kw("integer")) {
      base.is_reg = true;
      base.is_signed = true;
      base.width = 32;
    } else {
      base.is_reg = eat_kw("reg");
      if (!base.is_reg) expect_kw("wire");
      if (eat_kw("signed")) base.is_signed = true;
      base.width = parse_opt_range();
    }
    do {
      NetDecl d = base;
      d.name = expect_ident();
      if (eat_sym(Op::kLBracket)) {  // register file: [0:N-1]
        const long long lo = const_int(parse_expr());
        expect_sym(Op::kColon);
        const long long hi = const_int(parse_expr());
        expect_sym(Op::kRBracket);
        if (lo != 0 || hi < 0) fail("array bounds must be [0:N-1]");
        d.array_len = static_cast<int>(hi) + 1;
      }
      if (eat_sym(Op::kAssign)) {
        d.has_init = true;
        d.init = const_int(parse_expr());
      }
      m->nets.push_back(std::move(d));
    } while (eat_sym(Op::kComma));
    expect_sym(Op::kSemi);
  }

  TaskDecl parse_task() {
    TaskDecl t;
    t.name = expect_ident();
    if (eat_sym(Op::kLParen)) {
      if (!is_sym(Op::kRParen)) {
        do {
          NetDecl a;
          expect_kw("input");
          if (eat_kw("integer")) {
            a.is_signed = true;
            a.width = 32;
          } else {
            if (eat_kw("reg")) {}
            if (eat_kw("signed")) a.is_signed = true;
            a.width = parse_opt_range();
          }
          a.is_reg = true;
          a.name = expect_ident();
          t.args.push_back(std::move(a));
        } while (eat_sym(Op::kComma));
      }
      expect_sym(Op::kRParen);
    }
    expect_sym(Op::kSemi);
    t.body = parse_stmt();
    expect_kw("endtask");
    return t;
  }

  Instance parse_instance() {
    Instance inst;
    inst.module_name = expect_ident();
    inst.inst_name = expect_ident();
    expect_sym(Op::kLParen);
    if (!is_sym(Op::kRParen)) {
      do {
        expect_sym(Op::kDot);
        PortConn pc;
        pc.port = expect_ident();
        expect_sym(Op::kLParen);
        if (!is_sym(Op::kRParen)) pc.expr = parse_expr();
        expect_sym(Op::kRParen);
        inst.conns.push_back(std::move(pc));
      } while (eat_sym(Op::kComma));
    }
    expect_sym(Op::kRParen);
    expect_sym(Op::kSemi);
    return inst;
  }

  // ---- Statements ----------------------------------------------------------
  StmtPtr parse_stmt() {
    auto st = std::make_shared<Stmt>();
    if (eat_sym(Op::kSemi)) {
      st->kind = StmtKind::kNull;
      return st;
    }
    if (eat_kw("begin")) {
      st->kind = StmtKind::kBlock;
      while (!eat_kw("end")) {
        if (at_eof()) fail("unexpected end of file inside begin/end");
        st->sub.push_back(parse_stmt());
      }
      return st;
    }
    if (eat_kw("if")) {
      st->kind = StmtKind::kIf;
      expect_sym(Op::kLParen);
      st->cond = parse_expr();
      expect_sym(Op::kRParen);
      st->sub.push_back(parse_stmt());
      if (eat_kw("else")) st->sub.push_back(parse_stmt());
      return st;
    }
    if (eat_kw("case")) {
      st->kind = StmtKind::kCase;
      expect_sym(Op::kLParen);
      st->cond = parse_expr();
      expect_sym(Op::kRParen);
      while (!eat_kw("endcase")) {
        if (at_eof()) fail("unexpected end of file inside case");
        CaseItem item;
        if (eat_kw("default")) {
          item.is_default = true;
          eat_sym(Op::kColon);
        } else {
          do item.labels.push_back(parse_expr());
          while (eat_sym(Op::kComma));
          expect_sym(Op::kColon);
        }
        item.body = parse_stmt();
        st->items.push_back(std::move(item));
      }
      return st;
    }
    if (eat_kw("repeat")) {
      st->kind = StmtKind::kRepeat;
      expect_sym(Op::kLParen);
      st->cond = parse_expr();
      expect_sym(Op::kRParen);
      st->sub.push_back(parse_stmt());
      return st;
    }
    if (eat_kw("forever")) {
      st->kind = StmtKind::kForever;
      st->sub.push_back(parse_stmt());
      return st;
    }
    if (eat_sym(Op::kAt)) {
      st->kind = StmtKind::kEventCtrl;
      expect_sym(Op::kLParen);
      do {
        Edge e = Edge::kAny;
        if (eat_kw("posedge")) e = Edge::kPos;
        else if (eat_kw("negedge")) e = Edge::kNeg;
        st->events.emplace_back(e, parse_expr());
      } while (eat_kw("or") || eat_sym(Op::kComma));
      expect_sym(Op::kRParen);
      st->sub.push_back(parse_stmt());
      return st;
    }
    if (eat_sym(Op::kHash)) {
      st->kind = StmtKind::kDelay;
      if (cur().kind != Tok::kNumber) fail("expected delay value after '#'");
      st->delay = static_cast<double>(take().value);
      st->sub.push_back(parse_stmt());
      return st;
    }
    if (cur().kind == Tok::kSysName) {
      st->kind = StmtKind::kSysTask;
      st->callee = std::string(take().text);
      if (eat_sym(Op::kLParen)) {
        if (!is_sym(Op::kRParen)) {
          do st->args.push_back(parse_expr());
          while (eat_sym(Op::kComma));
        }
        expect_sym(Op::kRParen);
      }
      expect_sym(Op::kSemi);
      return st;
    }
    if (cur().kind == Tok::kIdent) {
      // Either a task enable `name(...);` or an assignment.
      if (ahead(1).op == Op::kLParen || ahead(1).op == Op::kSemi) {
        st->kind = StmtKind::kTaskCall;
        st->callee = std::string(take().text);
        if (eat_sym(Op::kLParen)) {
          if (!is_sym(Op::kRParen)) {
            do st->args.push_back(parse_expr());
            while (eat_sym(Op::kComma));
          }
          expect_sym(Op::kRParen);
        }
        expect_sym(Op::kSemi);
        return st;
      }
      st->lhs = parse_lvalue();
      if (eat_sym(Op::kAssign)) st->kind = StmtKind::kBlockingAssign;
      else if (eat_sym(Op::kLe)) st->kind = StmtKind::kNbAssign;
      else fail("expected '=' or '<=' in assignment");
      st->rhs = parse_expr();
      expect_sym(Op::kSemi);
      return st;
    }
    fail("unsupported statement starting at '" + token_text(cur()) + "'");
  }

  // LHS of an assignment: identifier with optional single element select.
  ExprPtr parse_lvalue() {
    auto id = std::make_shared<Expr>();
    id->kind = ExprKind::kIdent;
    id->name = expect_ident();
    if (eat_sym(Op::kLBracket)) {
      auto sel = std::make_shared<Expr>();
      sel->kind = ExprKind::kSelect;
      sel->kids.push_back(std::move(id));
      sel->kids.push_back(parse_expr());
      expect_sym(Op::kRBracket);
      return sel;
    }
    return id;
  }

  // ---- Expressions (precedence climbing) ----------------------------------
  ExprPtr parse_expr() { return parse_ternary(); }

  ExprPtr parse_ternary() {
    ExprPtr c = parse_binary(0);
    if (!eat_sym(Op::kQuestion)) return c;
    auto e = std::make_shared<Expr>();
    e->kind = ExprKind::kTernary;
    e->kids.push_back(std::move(c));
    e->kids.push_back(parse_ternary());
    expect_sym(Op::kColon);
    e->kids.push_back(parse_ternary());
    return e;
  }

  // Binary operators at precedence tier min_prec or tighter (tiers and
  // unary-ness come from the lexer's operator table), left associative.
  ExprPtr parse_binary(int min_prec) {
    ExprPtr lhs = parse_unary();
    for (;;) {
      const OpInfo& op = op_info(cur().op);
      if (op.prec < min_prec) return lhs;
      ++pos_;
      auto e = std::make_shared<Expr>();
      e->kind = ExprKind::kBinary;
      e->name = op.spelling;
      e->kids.push_back(std::move(lhs));
      e->kids.push_back(parse_binary(op.prec + 1));
      lhs = std::move(e);
    }
  }

  ExprPtr parse_unary() {
    const OpInfo& op = op_info(cur().op);
    if (!op.unary) return parse_postfix();
    ++pos_;
    auto e = std::make_shared<Expr>();
    e->kind = ExprKind::kUnary;
    e->name = op.spelling;
    e->kids.push_back(parse_unary());
    return e;
  }

  ExprPtr parse_postfix() {
    ExprPtr e = parse_primary();
    // Element/bit selects and part selects, possibly chained (m[i][b]).
    while (is_sym(Op::kLBracket)) {
      if (e->kind != ExprKind::kIdent && e->kind != ExprKind::kSelect)
        fail("select applied to a non-identifier expression");
      ++pos_;
      ExprPtr first = parse_expr();
      if (eat_sym(Op::kColon)) {
        auto r = std::make_shared<Expr>();
        r->kind = ExprKind::kRange;
        r->kids.push_back(std::move(e));
        r->kids.push_back(std::move(first));
        r->kids.push_back(parse_expr());
        expect_sym(Op::kRBracket);
        e = std::move(r);
      } else {
        auto s = std::make_shared<Expr>();
        s->kind = ExprKind::kSelect;
        s->kids.push_back(std::move(e));
        s->kids.push_back(std::move(first));
        expect_sym(Op::kRBracket);
        e = std::move(s);
      }
    }
    return e;
  }

  ExprPtr parse_primary() {
    if (cur().kind == Tok::kNumber) {
      const Token& t = take();
      auto e = std::make_shared<Expr>();
      e->kind = ExprKind::kNumber;
      e->num = t.value;
      e->num_width = t.width;
      e->num_sized = t.sized;
      e->num_signed = t.is_signed;
      return e;
    }
    if (cur().kind == Tok::kString) {
      auto e = std::make_shared<Expr>();
      e->kind = ExprKind::kString;
      e->str = token_text(take());
      return e;
    }
    if (cur().kind == Tok::kSysName) {
      auto e = std::make_shared<Expr>();
      e->kind = ExprKind::kSysCall;
      e->name = take().text;
      if (e->name == "$time") return e;  // argument-less system function
      expect_sym(Op::kLParen);
      do e->kids.push_back(parse_expr());
      while (eat_sym(Op::kComma));
      expect_sym(Op::kRParen);
      return e;
    }
    if (cur().kind == Tok::kIdent) {
      auto e = std::make_shared<Expr>();
      e->kind = ExprKind::kIdent;
      e->name = take().text;
      return e;
    }
    if (eat_sym(Op::kLParen)) {
      ExprPtr e = parse_expr();
      expect_sym(Op::kRParen);
      return e;
    }
    if (eat_sym(Op::kLBrace)) {
      ExprPtr first = parse_expr();
      if (is_sym(Op::kLBrace)) {
        // Replication {N{...}}: the inner braces hold a concat list.
        ++pos_;
        auto r = std::make_shared<Expr>();
        r->kind = ExprKind::kReplicate;
        r->kids.push_back(std::move(first));  // count
        auto inner = std::make_shared<Expr>();
        inner->kind = ExprKind::kConcat;
        do inner->kids.push_back(parse_expr());
        while (eat_sym(Op::kComma));
        expect_sym(Op::kRBrace);
        r->kids.push_back(inner->kids.size() == 1 ? inner->kids[0] : inner);
        expect_sym(Op::kRBrace);
        return r;
      }
      auto c = std::make_shared<Expr>();
      c->kind = ExprKind::kConcat;
      c->kids.push_back(std::move(first));
      while (eat_sym(Op::kComma)) c->kids.push_back(parse_expr());
      expect_sym(Op::kRBrace);
      return c;
    }
    fail("unexpected token '" + token_text(cur()) + "' in expression");
  }

  std::vector<Token> toks_;
  std::size_t pos_ = 0;
  std::map<std::string, long long> params_;
};

}  // namespace

SourceUnit parse(const std::string& src) { return Parser(lex(src)).parse_unit(); }

}  // namespace hlsw::vsim
