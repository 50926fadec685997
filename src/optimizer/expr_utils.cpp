#include "optimizer/expr_utils.h"

namespace aldsp::optimizer {

using xquery::Clause;
using xquery::CloneExpr;
using xquery::Expr;
using xquery::ExprKind;
using xquery::ExprPtr;

namespace {

void CollectFree(const Expr& e, std::set<std::string> bound,
                 std::set<std::string>* free) {
  switch (e.kind) {
    case ExprKind::kVarRef:
      if (bound.count(e.name) == 0) free->insert(e.name);
      return;
    case ExprKind::kFLWOR: {
      for (const auto& cl : e.clauses) {
        switch (cl.kind) {
          case Clause::Kind::kFor:
          case Clause::Kind::kJoin:
            if (cl.expr) CollectFree(*cl.expr, bound, free);
            if (cl.kind == Clause::Kind::kJoin) {
              // Condition and keys see the join variable.
              std::set<std::string> with_var = bound;
              with_var.insert(cl.var);
              if (cl.condition) CollectFree(*cl.condition, with_var, free);
              for (const auto& [l, r] : cl.equi_keys) {
                if (l) CollectFree(*l, bound, free);
                if (r) CollectFree(*r, with_var, free);
              }
            }
            bound.insert(cl.var);
            if (!cl.positional_var.empty()) bound.insert(cl.positional_var);
            break;
          case Clause::Kind::kLet:
            if (cl.expr) CollectFree(*cl.expr, bound, free);
            bound.insert(cl.var);
            break;
          case Clause::Kind::kWhere:
            if (cl.expr) CollectFree(*cl.expr, bound, free);
            break;
          case Clause::Kind::kGroupBy:
            for (const auto& gv : cl.group_vars) {
              if (bound.count(gv.in_var) == 0) free->insert(gv.in_var);
            }
            for (const auto& gk : cl.group_keys) {
              if (gk.expr) CollectFree(*gk.expr, bound, free);
            }
            for (const auto& gv : cl.group_vars) bound.insert(gv.out_var);
            for (const auto& gk : cl.group_keys) {
              if (!gk.as_var.empty()) bound.insert(gk.as_var);
            }
            break;
          case Clause::Kind::kOrderBy:
            for (const auto& ok : cl.order_keys) {
              if (ok.expr) CollectFree(*ok.expr, bound, free);
            }
            break;
        }
      }
      CollectFree(*e.children[0], bound, free);
      return;
    }
    case ExprKind::kQuantified: {
      CollectFree(*e.children[0], bound, free);
      bound.insert(e.name);
      CollectFree(*e.children[1], bound, free);
      return;
    }
    case ExprKind::kFilter: {
      CollectFree(*e.children[0], bound, free);
      bound.insert(".");
      CollectFree(*e.children[1], bound, free);
      return;
    }
    default:
      for (const auto& c : e.children) {
        if (c) CollectFree(*c, bound, free);
      }
      return;
  }
}

// Substitutes free occurrences of `name` by `replacement` respecting
// shadowing. Returns false and does nothing more along a branch where
// `name` is rebound.
void Subst(ExprPtr& e, const std::string& name, const ExprPtr& replacement) {
  if (!e) return;
  switch (e->kind) {
    case ExprKind::kVarRef:
      if (e->name == name) e = CloneExpr(replacement);
      return;
    case ExprKind::kFLWOR: {
      bool shadowed = false;
      for (auto& cl : e->clauses) {
        if (shadowed) break;
        switch (cl.kind) {
          case Clause::Kind::kFor:
          case Clause::Kind::kJoin:
            Subst(cl.expr, name, replacement);
            if (cl.kind == Clause::Kind::kJoin) {
              for (auto& [l, r] : cl.equi_keys) {
                Subst(l, name, replacement);
                if (cl.var != name) Subst(r, name, replacement);
              }
              if (cl.var != name) Subst(cl.condition, name, replacement);
            }
            if (cl.var == name || cl.positional_var == name) shadowed = true;
            break;
          case Clause::Kind::kLet:
            Subst(cl.expr, name, replacement);
            if (cl.var == name) shadowed = true;
            break;
          case Clause::Kind::kWhere:
            Subst(cl.expr, name, replacement);
            break;
          case Clause::Kind::kGroupBy:
            for (auto& gv : cl.group_vars) {
              if (gv.in_var == name &&
                  replacement->kind == ExprKind::kVarRef) {
                gv.in_var = replacement->name;
              }
            }
            for (auto& gk : cl.group_keys) Subst(gk.expr, name, replacement);
            for (auto& gv : cl.group_vars) {
              if (gv.out_var == name) shadowed = true;
            }
            for (auto& gk : cl.group_keys) {
              if (gk.as_var == name) shadowed = true;
            }
            break;
          case Clause::Kind::kOrderBy:
            for (auto& ok : cl.order_keys) Subst(ok.expr, name, replacement);
            break;
        }
      }
      if (!shadowed) Subst(e->children[0], name, replacement);
      return;
    }
    case ExprKind::kQuantified:
      Subst(e->children[0], name, replacement);
      if (e->name != name) Subst(e->children[1], name, replacement);
      return;
    case ExprKind::kFilter:
      Subst(e->children[0], name, replacement);
      if (name != ".") Subst(e->children[1], name, replacement);
      return;
    default:
      for (auto& c : e->children) Subst(c, name, replacement);
      return;
  }
}

}  // namespace

std::set<std::string> FreeVars(const Expr& e) {
  std::set<std::string> free;
  CollectFree(e, {}, &free);
  return free;
}

bool IsFreeVar(const Expr& e, const std::string& name) {
  return FreeVars(e).count(name) > 0;
}

void SubstituteVar(ExprPtr& e, const std::string& name,
                   const ExprPtr& replacement) {
  Subst(e, name, replacement);
}

void RenameBoundVars(ExprPtr& e, int* serial) {
  if (!e) return;
  // Bottom-up: rename inner binders first so outer substitution cannot be
  // shadowed.
  xquery::ForEachChildSlot(*e, [&](ExprPtr& c) { RenameBoundVars(c, serial); });

  auto fresh = [&](const std::string& base) {
    return base + "#" + std::to_string((*serial)++);
  };

  if (e->kind == ExprKind::kFLWOR) {
    for (size_t i = 0; i < e->clauses.size(); ++i) {
      Clause& cl = e->clauses[i];
      auto rename_from = [&](const std::string& old_name,
                             const std::string& new_name, size_t from) {
        ExprPtr ref = xquery::MakeVarRef(new_name);
        for (size_t j = from; j < e->clauses.size(); ++j) {
          Clause& later = e->clauses[j];
          Subst(later.expr, old_name, ref);
          Subst(later.condition, old_name, ref);
          for (auto& [l, r] : later.equi_keys) {
            Subst(l, old_name, ref);
            Subst(r, old_name, ref);
          }
          for (auto& gv : later.group_vars) {
            if (gv.in_var == old_name) gv.in_var = new_name;
          }
          for (auto& gk : later.group_keys) Subst(gk.expr, old_name, ref);
          for (auto& ok : later.order_keys) Subst(ok.expr, old_name, ref);
        }
        Subst(e->children[0], old_name, ref);
      };
      switch (cl.kind) {
        case Clause::Kind::kFor:
        case Clause::Kind::kJoin:
        case Clause::Kind::kLet: {
          std::string new_name = fresh(cl.var);
          std::string old_name = cl.var;
          cl.var = new_name;
          if (cl.kind == Clause::Kind::kJoin) {
            // Condition/keys at this clause reference the old name too.
            ExprPtr ref = xquery::MakeVarRef(new_name);
            Subst(cl.condition, old_name, ref);
            for (auto& [l, r] : cl.equi_keys) {
              Subst(l, old_name, ref);
              Subst(r, old_name, ref);
            }
          }
          rename_from(old_name, new_name, i + 1);
          if (!cl.positional_var.empty()) {
            std::string new_pos = fresh(cl.positional_var);
            std::string old_pos = cl.positional_var;
            cl.positional_var = new_pos;
            rename_from(old_pos, new_pos, i + 1);
          }
          break;
        }
        case Clause::Kind::kGroupBy: {
          for (auto& gv : cl.group_vars) {
            std::string new_name = fresh(gv.out_var);
            std::string old_name = gv.out_var;
            gv.out_var = new_name;
            rename_from(old_name, new_name, i + 1);
          }
          for (auto& gk : cl.group_keys) {
            if (gk.as_var.empty()) continue;
            std::string new_name = fresh(gk.as_var);
            std::string old_name = gk.as_var;
            gk.as_var = new_name;
            rename_from(old_name, new_name, i + 1);
          }
          break;
        }
        default:
          break;
      }
    }
  } else if (e->kind == ExprKind::kQuantified) {
    std::string new_name = fresh(e->name);
    ExprPtr ref = xquery::MakeVarRef(new_name);
    Subst(e->children[1], e->name, ref);
    e->name = new_name;
  }
}

bool ContainsCallTo(const Expr& e, const std::string& name) {
  if (e.kind == ExprKind::kFunctionCall && e.name == name) return true;
  bool found = false;
  xquery::ForEachChildSlot(const_cast<Expr&>(e), [&](ExprPtr& c) {
    if (!found && c && ContainsCallTo(*c, name)) found = true;
  });
  return found;
}

int CountVarUses(const Expr& e, const std::string& name) {
  // Approximation that ignores shadowing (safe for freshly renamed trees,
  // where names are unique).
  int count = 0;
  if (e.kind == ExprKind::kVarRef && e.name == name) return 1;
  xquery::ForEachChildSlot(const_cast<Expr&>(e), [&](ExprPtr& c) {
    if (c) count += CountVarUses(*c, name);
  });
  for (const auto& cl : e.clauses) {
    for (const auto& gv : cl.group_vars) {
      if (gv.in_var == name) ++count;
    }
  }
  return count;
}

}  // namespace aldsp::optimizer
