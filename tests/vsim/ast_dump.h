// Canonical text dump of a parsed vsim SourceUnit, for tests that pin the
// exact tree the front end hands to elaboration. Every field of ast.h is
// written in declaration order, one node per line, indented by depth, so
// two trees dump equal exactly when they are structurally identical.
#pragma once

#include <string>

#include "vsim/ast.h"

namespace hlsw::vsim::testing {

namespace detail {

inline void line(std::string* out, int depth, const std::string& s) {
  out->append(static_cast<std::size_t>(depth) * 2, ' ');
  out->append(s);
  out->push_back('\n');
}

inline void dump_expr(std::string* out, const Expr* e, int depth) {
  if (e == nullptr) {
    line(out, depth, "expr null");
    return;
  }
  line(out, depth,
       "expr k=" + std::to_string(static_cast<int>(e->kind)) +
           " num=" + std::to_string(e->num) +
           " w=" + std::to_string(e->num_width) +
           " sized=" + std::to_string(e->num_sized) +
           " sgn=" + std::to_string(e->num_signed) + " str=[" + e->str +
           "] name=[" + e->name + "] sig=" + std::to_string(e->sig) +
           " hi=" + std::to_string(e->hi) + " lo=" + std::to_string(e->lo) +
           " repl=" + std::to_string(e->repl) +
           " self_w=" + std::to_string(e->self_w) +
           " self_sgn=" + std::to_string(e->self_sgn) +
           " kids=" + std::to_string(e->kids.size()));
  for (const auto& k : e->kids) dump_expr(out, k.get(), depth + 1);
}

inline void dump_net(std::string* out, const NetDecl& n, int depth) {
  line(out, depth,
       "net [" + n.name + "] reg=" + std::to_string(n.is_reg) +
           " sgn=" + std::to_string(n.is_signed) +
           " w=" + std::to_string(n.width) +
           " arr=" + std::to_string(n.array_len) +
           " has_init=" + std::to_string(n.has_init) +
           " init=" + std::to_string(n.init) +
           " in=" + std::to_string(n.is_input) +
           " out=" + std::to_string(n.is_output));
}

inline void dump_stmt(std::string* out, const Stmt* s, int depth) {
  if (s == nullptr) {
    line(out, depth, "stmt null");
    return;
  }
  line(out, depth,
       "stmt k=" + std::to_string(static_cast<int>(s->kind)) +
           " delay=" + std::to_string(s->delay) + " callee=[" + s->callee +
           "] sub=" + std::to_string(s->sub.size()) +
           " items=" + std::to_string(s->items.size()) +
           " events=" + std::to_string(s->events.size()) +
           " args=" + std::to_string(s->args.size()));
  line(out, depth + 1, "lhs");
  dump_expr(out, s->lhs.get(), depth + 2);
  line(out, depth + 1, "rhs");
  dump_expr(out, s->rhs.get(), depth + 2);
  line(out, depth + 1, "cond");
  dump_expr(out, s->cond.get(), depth + 2);
  for (const auto& sub : s->sub) dump_stmt(out, sub.get(), depth + 1);
  for (const auto& item : s->items) {
    line(out, depth + 1,
         "item default=" + std::to_string(item.is_default) +
             " labels=" + std::to_string(item.labels.size()));
    for (const auto& l : item.labels) dump_expr(out, l.get(), depth + 2);
    dump_stmt(out, item.body.get(), depth + 2);
  }
  for (const auto& [edge, e] : s->events) {
    line(out, depth + 1,
         "event edge=" + std::to_string(static_cast<int>(edge)));
    dump_expr(out, e.get(), depth + 2);
  }
  for (const auto& a : s->args) dump_expr(out, a.get(), depth + 1);
}

}  // namespace detail

inline std::string dump_ast(const SourceUnit& su) {
  using namespace detail;
  std::string out;
  for (const Module& m : su.modules) {
    line(&out, 0, "module [" + m.name + "]");
    for (const auto& p : m.port_order) line(&out, 1, "port [" + p + "]");
    for (const auto& n : m.nets) dump_net(&out, n, 1);
    for (const auto& [name, v] : m.localparams)
      line(&out, 1, "localparam [" + name + "] = " + std::to_string(v));
    for (const auto& a : m.assigns) {
      line(&out, 1, "assign");
      dump_expr(&out, a.lhs.get(), 2);
      dump_expr(&out, a.rhs.get(), 2);
    }
    for (const auto& s : m.initials) {
      line(&out, 1, "initial");
      dump_stmt(&out, s.get(), 2);
    }
    for (const auto& s : m.always) {
      line(&out, 1, "always");
      dump_stmt(&out, s.get(), 2);
    }
    for (const auto& t : m.tasks) {
      line(&out, 1, "task [" + t.name + "]");
      for (const auto& a : t.args) dump_net(&out, a, 2);
      dump_stmt(&out, t.body.get(), 2);
    }
    for (const auto& inst : m.instances) {
      line(&out, 1, "instance [" + inst.module_name + "] [" + inst.inst_name +
                        "]");
      for (const auto& pc : inst.conns) {
        line(&out, 2, "conn [" + pc.port + "]");
        dump_expr(&out, pc.expr.get(), 3);
      }
    }
  }
  return out;
}

}  // namespace hlsw::vsim::testing
