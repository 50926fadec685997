#include "update/lineage.h"

#include "compiler/builtins.h"
#include "xml/node.h"

namespace aldsp::update {

using compiler::Builtin;
using compiler::ExternalFunction;
using compiler::LookupBuiltin;
using compiler::UserFunction;
using xquery::Clause;
using xquery::Expr;
using xquery::ExprKind;
using xquery::ExprPtr;

std::string FieldLineage::RowPathPrefix() const {
  size_t slash = shape_path.rfind('/');
  return slash == std::string::npos ? "" : shape_path.substr(0, slash);
}

const FieldLineage* LineageMap::Find(const std::string& path) const {
  for (const auto& f : fields) {
    if (f.shape_path == path) return &f;
  }
  return nullptr;
}

namespace {

struct RowCtx {
  std::string var;     // FLWOR variable bound to a row of `table`
  std::string source;
  std::string table;
  std::string pk;      // primary-key column (may be empty)
  int ctx_id = 0;
};

class LineageAnalysis {
 public:
  explicit LineageAnalysis(const compiler::FunctionTable& functions)
      : functions_(functions) {}

  Result<LineageMap> Run(const UserFunction& fn) {
    if (fn.body == nullptr || fn.body->kind != ExprKind::kFLWOR ||
        fn.body->clauses.empty()) {
      return Status::UpdateError(
          "lineage provider must be a FLWOR over a physical source: " +
          fn.name);
    }
    const Clause& first = fn.body->clauses.front();
    if (first.kind != Clause::Kind::kFor) {
      return Status::UpdateError("lineage provider must start with 'for'");
    }
    const ExternalFunction* table_fn = AsTableFn(*first.expr);
    if (table_fn == nullptr) {
      return Status::UpdateError(
          "lineage provider must iterate a relational source function");
    }
    RowCtx root_ctx = MakeCtx(first.var, *table_fn);
    const ExprPtr& ret = fn.body->children[0];
    if (ret->kind != ExprKind::kElementCtor) {
      return Status::UpdateError("lineage provider must return a constructor");
    }
    // Paths are relative to the returned root element.
    for (const auto& child : ret->children) {
      WalkContent(child, "", root_ctx);
    }
    ResolveKeys();
    return std::move(map_);
  }

 private:
  const ExternalFunction* AsTableFn(const Expr& e) const {
    if (e.kind != ExprKind::kFunctionCall || !e.children.empty()) {
      return nullptr;
    }
    const ExternalFunction* fn = functions_.FindExternal(e.name);
    if (fn == nullptr || fn->kind() != "relational") return nullptr;
    return fn;
  }

  RowCtx MakeCtx(const std::string& var, const ExternalFunction& fn) {
    RowCtx ctx;
    ctx.var = var;
    ctx.source = fn.Property("source");
    ctx.table = fn.Property("table");
    ctx.pk = fn.Property("primary_key");
    if (ctx.pk.find(',') != std::string::npos) ctx.pk.clear();
    ctx.ctx_id = next_ctx_id_++;
    return ctx;
  }

  static std::string Extend(const std::string& prefix,
                            const std::string& name) {
    return prefix.empty() ? name : prefix + "/" + name;
  }

  // Skips fn:data and typematch wrappers the analyzer inserts around
  // function arguments.
  static const ExprPtr& UnwrapData(const ExprPtr& e) {
    const ExprPtr* cur = &e;
    while (true) {
      if ((*cur)->kind == ExprKind::kTypematch) {
        cur = &(*cur)->children[0];
        continue;
      }
      if ((*cur)->kind == ExprKind::kFunctionCall &&
          LookupBuiltin((*cur)->name) == Builtin::kData &&
          (*cur)->children.size() == 1) {
        cur = &(*cur)->children[0];
        continue;
      }
      return *cur;
    }
  }

  // Detects `f1(f2(...($var/COL)))` over external transformations and
  // returns the column; transforms are recorded outermost first.
  bool MatchTransformedColumn(const ExprPtr& raw, const RowCtx& ctx,
                              std::string* column,
                              std::vector<std::string>* transforms) {
    const ExprPtr* cur = &UnwrapData(raw);
    while ((*cur)->kind == ExprKind::kFunctionCall &&
           (*cur)->children.size() == 1) {
      const ExternalFunction* fn = functions_.FindExternal((*cur)->name);
      if (fn == nullptr || fn->kind() != "external") break;
      transforms->push_back((*cur)->name);
      cur = &UnwrapData((*cur)->children[0]);
    }
    const ExprPtr& e = *cur;
    if (e->kind == ExprKind::kPathStep && !e->is_attribute_step &&
        e->children[0]->kind == ExprKind::kVarRef &&
        e->children[0]->name == ctx.var) {
      *column = e->name;
      return true;
    }
    return false;
  }

  void AddField(const std::string& path, const RowCtx& ctx,
                const std::string& column,
                std::vector<std::string> transforms) {
    FieldLineage f;
    f.shape_path = path;
    f.source_id = ctx.source;
    f.table = ctx.table;
    f.column = column;
    f.key_column = ctx.pk;
    f.transforms = std::move(transforms);
    for (const auto& t : f.transforms) {
      if (functions_.InverseOf(t).empty()) f.updatable = false;
    }
    if (ctx.pk.empty()) f.updatable = false;
    ctx_of_field_.push_back(ctx.ctx_id);
    map_.fields.push_back(std::move(f));
  }

  // Expands a row-sequence expression (table function, navigation
  // function, filtered scan, or correlated FLWOR) into per-column fields
  // under `prefix`.
  bool TryRowSequence(const ExprPtr& raw, const std::string& prefix,
                      const RowCtx& outer) {
    (void)outer;  // correlation predicates are implied by navigation keys
    const ExprPtr* e = &raw;
    // Peel filters: CREDIT_CARD()[CID eq $c/CID].
    while ((*e)->kind == ExprKind::kFilter) e = &(*e)->children[0];
    // Correlated FLWOR: for $o in T() where ... return $o | <ctor>.
    if ((*e)->kind == ExprKind::kFLWOR && !(*e)->clauses.empty()) {
      const Clause& first = (*e)->clauses.front();
      if (first.kind != Clause::Kind::kFor &&
          first.kind != Clause::Kind::kJoin) {
        return false;
      }
      std::vector<ExprPtr> unused;
      const ExprPtr* base = &first.expr;
      while ((*base)->kind == ExprKind::kFilter) base = &(*base)->children[0];
      const ExternalFunction* fn = AsTableFn(**base);
      if (fn == nullptr) return false;
      RowCtx ctx = MakeCtx(first.var, *fn);
      const ExprPtr& ret = UnwrapData((*e)->children[0]);
      if (ret->kind == ExprKind::kVarRef && ret->name == ctx.var) {
        ExpandWholeRow(prefix, ctx, *fn);
        return true;
      }
      if (ret->kind == ExprKind::kElementCtor) {
        std::string row_prefix = Extend(prefix, ret->name);
        for (const auto& child : ret->children) {
          WalkContent(child, row_prefix, ctx);
        }
        return true;
      }
      return false;
    }
    if ((*e)->kind == ExprKind::kFunctionCall) {
      const ExternalFunction* fn = functions_.FindExternal((*e)->name);
      if (fn == nullptr) return false;
      if (fn->kind() == "relational" && (*e)->children.empty()) {
        RowCtx ctx = MakeCtx("", *fn);
        ExpandWholeRow(prefix, ctx, *fn);
        return true;
      }
      if (fn->kind() == "relational-nav") {
        // Navigation function: rows of fn's table keyed by its own PK.
        const ExternalFunction* table_fn = nullptr;
        for (const auto& cand : functions_.external_functions()) {
          if (cand.kind() == "relational" &&
              cand.Property("source") == fn->Property("source") &&
              cand.Property("table") == fn->Property("table")) {
            table_fn = &cand;
          }
        }
        if (table_fn == nullptr) return false;
        RowCtx ctx = MakeCtx("", *table_fn);
        ExpandWholeRow(prefix, ctx, *table_fn);
        return true;
      }
    }
    return false;
  }

  void ExpandWholeRow(const std::string& prefix, const RowCtx& ctx,
                      const ExternalFunction& fn) {
    if (fn.return_type.item == nullptr ||
        fn.return_type.item->kind() != xsd::XType::Kind::kElement) {
      return;
    }
    std::string row_prefix = Extend(prefix, fn.return_type.item->name());
    for (const auto& field : fn.return_type.item->fields()) {
      AddField(Extend(row_prefix, field.name), ctx, field.name, {});
    }
  }

  void WalkContent(const ExprPtr& child, const std::string& prefix,
                   const RowCtx& ctx) {
    if (child->kind == ExprKind::kSequence) {
      for (const auto& c : child->children) WalkContent(c, prefix, ctx);
      return;
    }
    if (child->kind == ExprKind::kElementCtor) {
      std::string path = Extend(prefix, child->name);
      // Simple mapped field: <NAME>{ transforms($var/COL) }</NAME>.
      if (child->children.size() == 1) {
        std::string column;
        std::vector<std::string> transforms;
        if (MatchTransformedColumn(child->children[0], ctx, &column,
                                   &transforms)) {
          AddField(path, ctx, column, std::move(transforms));
          return;
        }
        if (TryRowSequence(child->children[0], path, ctx)) return;
      }
      // Otherwise: recurse into mixed content.
      for (const auto& c : child->children) WalkContent(c, path, ctx);
      return;
    }
    // A bare column step contributes an element named after the column.
    {
      std::string column;
      std::vector<std::string> transforms;
      const ExprPtr& e = UnwrapData(child);
      if (e->kind == ExprKind::kPathStep && !e->is_attribute_step &&
          e->children[0]->kind == ExprKind::kVarRef &&
          e->children[0]->name == ctx.var && transforms.empty()) {
        AddField(Extend(prefix, e->name), ctx, e->name, {});
        return;
      }
      (void)column;
    }
    // Row sequences directly in content.
    TryRowSequence(child, prefix, ctx);
    // Anything else (web service values, computations): no lineage.
  }

  void ResolveKeys() {
    for (size_t i = 0; i < map_.fields.size(); ++i) {
      FieldLineage& f = map_.fields[i];
      if (f.key_column.empty()) continue;
      bool found = false;
      for (size_t j = 0; j < map_.fields.size(); ++j) {
        if (ctx_of_field_[j] != ctx_of_field_[i]) continue;
        const FieldLineage& g = map_.fields[j];
        if (g.column == f.key_column && g.transforms.empty()) {
          f.key_shape_path = g.shape_path;
          found = true;
          break;
        }
      }
      // A row whose key is not exposed in the shape cannot be updated.
      if (!found) f.updatable = false;
    }
  }

  const compiler::FunctionTable& functions_;
  LineageMap map_;
  std::vector<int> ctx_of_field_;
  int next_ctx_id_ = 0;
};

}  // namespace

Result<LineageMap> ComputeLineage(const std::string& function_name,
                                  const compiler::FunctionTable& functions) {
  const UserFunction* fn = functions.FindUser(function_name);
  if (fn == nullptr) {
    return Status::NotFound("no such lineage provider: " + function_name);
  }
  LineageAnalysis analysis(functions);
  return analysis.Run(*fn);
}

}  // namespace aldsp::update
