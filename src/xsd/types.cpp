#include "xsd/types.h"

#include <array>

#include "xml/node.h"

namespace aldsp::xsd {

using xml::AtomicType;

std::string SequenceType::ToString() const {
  if (is_empty_sequence()) return "empty-sequence()";
  std::string s = item->ToString();
  switch (occurrence) {
    case Occurrence::kOne:
      break;
    case Occurrence::kOptional:
      s += "?";
      break;
    case Occurrence::kStar:
      s += "*";
      break;
    case Occurrence::kPlus:
      s += "+";
      break;
  }
  return s;
}

TypePtr XType::AnyItem() {
  static const TypePtr kInstance(new XType(Kind::kAnyItem));
  return kInstance;
}

TypePtr XType::AnyNode() {
  static const TypePtr kInstance(new XType(Kind::kAnyNode));
  return kInstance;
}

TypePtr XType::Atomic(AtomicType t) {
  // Types are immutable and an atomic type is nothing but `t`: one shared
  // instance per AtomicType, rather than two allocations for every typed
  // node of every cached plan.
  static const auto kInstances = [] {
    std::array<TypePtr, static_cast<size_t>(AtomicType::kUntyped) + 1> all;
    for (size_t i = 0; i < all.size(); ++i) {
      auto* ty = new XType(Kind::kAtomic);
      ty->atomic_ = static_cast<AtomicType>(i);
      all[i] = TypePtr(ty);
    }
    return all;
  }();
  return kInstances[static_cast<size_t>(t)];
}

TypePtr XType::SimpleElement(std::string name, AtomicType content) {
  auto* ty = new XType(Kind::kElement);
  ty->name_ = std::move(name);
  ty->atomic_ = content;
  ty->simple_content_ = true;
  return TypePtr(ty);
}

TypePtr XType::ComplexElement(std::string name, std::vector<ElementField> fields,
                              std::vector<ElementField> attributes) {
  auto* ty = new XType(Kind::kElement);
  ty->name_ = std::move(name);
  ty->fields_ = std::move(fields);
  ty->attributes_ = std::move(attributes);
  return TypePtr(ty);
}

TypePtr XType::AnyElement(std::string name) {
  auto* ty = new XType(Kind::kElement);
  ty->name_ = std::move(name);
  ty->any_content_ = true;
  return TypePtr(ty);
}

TypePtr XType::AttributeType(std::string name, AtomicType content) {
  auto* ty = new XType(Kind::kAttribute);
  ty->name_ = std::move(name);
  ty->atomic_ = content;
  return TypePtr(ty);
}

TypePtr XType::Error(std::string message) {
  auto* ty = new XType(Kind::kError);
  ty->name_ = std::move(message);
  return TypePtr(ty);
}

const ElementField* XType::FindField(const std::string& name) const {
  for (const auto& f : fields_) {
    if (xml::NameMatches(f.name, name)) return &f;
  }
  return nullptr;
}

const ElementField* XType::FindAttribute(const std::string& name) const {
  for (const auto& a : attributes_) {
    if (xml::NameMatches(a.name, name)) return &a;
  }
  return nullptr;
}

std::string XType::ToString() const {
  switch (kind_) {
    case Kind::kAnyItem:
      return "item()";
    case Kind::kAnyNode:
      return "node()";
    case Kind::kAtomic:
      return xml::AtomicTypeName(atomic_);
    case Kind::kElement: {
      if (any_content_) return "element(" + name_ + ", ANYTYPE)";
      if (simple_content_) {
        return "element(" + name_ + ", " + xml::AtomicTypeName(atomic_) + ")";
      }
      std::string s = "element(" + name_ + ", {";
      for (size_t i = 0; i < fields_.size(); ++i) {
        if (i > 0) s += ", ";
        s += fields_[i].name + ": " + fields_[i].type.ToString();
      }
      s += "})";
      return s;
    }
    case Kind::kAttribute:
      return "attribute(" + name_ + ", " + xml::AtomicTypeName(atomic_) + ")";
    case Kind::kError:
      return "error(" + name_ + ")";
  }
  return "?";
}

SequenceType EmptySequenceType() { return {nullptr, Occurrence::kOptional}; }
SequenceType One(TypePtr t) { return {std::move(t), Occurrence::kOne}; }
SequenceType Opt(TypePtr t) { return {std::move(t), Occurrence::kOptional}; }
SequenceType Star(TypePtr t) { return {std::move(t), Occurrence::kStar}; }
SequenceType Plus(TypePtr t) { return {std::move(t), Occurrence::kPlus}; }
SequenceType AnySequence() { return Star(XType::AnyItem()); }

namespace {

bool AtomicSubtype(AtomicType sub, AtomicType super) {
  if (sub == super) return true;
  // integer <: decimal in the XDM numeric hierarchy; everything else is
  // unrelated at the atomic level in our subset.
  if (sub == AtomicType::kInteger && super == AtomicType::kDecimal) return true;
  return false;
}

bool AtomicIntersects(AtomicType a, AtomicType b) {
  if (a == b) return true;
  if (AtomicSubtype(a, b) || AtomicSubtype(b, a)) return true;
  // Untyped data can be cast toward any atomic type at runtime.
  if (a == AtomicType::kUntyped || b == AtomicType::kUntyped) return true;
  return false;
}

}  // namespace

bool IsItemSubtype(const TypePtr& sub, const TypePtr& super) {
  if (!sub || !super) return false;
  if (super->kind() == XType::Kind::kAnyItem) return true;
  if (sub->kind() == XType::Kind::kError || super->kind() == XType::Kind::kError) {
    return false;
  }
  switch (super->kind()) {
    case XType::Kind::kAnyNode:
      return sub->kind() == XType::Kind::kElement ||
             sub->kind() == XType::Kind::kAttribute ||
             sub->kind() == XType::Kind::kAnyNode;
    case XType::Kind::kAtomic:
      return sub->kind() == XType::Kind::kAtomic &&
             AtomicSubtype(sub->atomic_type(), super->atomic_type());
    case XType::Kind::kElement: {
      if (sub->kind() != XType::Kind::kElement) return false;
      if (!xml::NameMatches(sub->name(), super->name())) return false;
      if (super->has_any_content()) return true;  // element(E) accepts any E
      if (sub->has_any_content()) return false;
      if (super->has_simple_content()) {
        return sub->has_simple_content() &&
               AtomicSubtype(sub->atomic_type(), super->atomic_type());
      }
      if (sub->has_simple_content()) return false;
      // Structural: every particle of super must be matched by sub, with a
      // compatible (sub)type; sub may not add extra required particles.
      for (const auto& sf : super->fields()) {
        const ElementField* mf = sub->FindField(sf.name);
        if (mf == nullptr) {
          if (!sf.type.allows_empty()) return false;
          continue;
        }
        if (!IsSubtype(mf->type, sf.type)) return false;
      }
      for (const auto& f : sub->fields()) {
        if (super->FindField(f.name) == nullptr && !f.type.allows_empty()) {
          return false;
        }
      }
      for (const auto& sa : super->attributes()) {
        const ElementField* ma = sub->FindAttribute(sa.name);
        if (ma == nullptr) {
          if (!sa.type.allows_empty()) return false;
          continue;
        }
        if (!IsSubtype(ma->type, sa.type)) return false;
      }
      return true;
    }
    case XType::Kind::kAttribute:
      return sub->kind() == XType::Kind::kAttribute &&
             xml::NameMatches(sub->name(), super->name()) &&
             AtomicSubtype(sub->atomic_type(), super->atomic_type());
    case XType::Kind::kAnyItem:
    case XType::Kind::kError:
      break;
  }
  return false;
}

namespace {

bool OccurrenceContained(Occurrence sub, Occurrence super) {
  auto low = [](Occurrence o) {
    return o == Occurrence::kOptional || o == Occurrence::kStar ? 0 : 1;
  };
  auto high = [](Occurrence o) {
    return o == Occurrence::kStar || o == Occurrence::kPlus ? 2 : 1;
  };
  return low(sub) >= low(super) && high(sub) <= high(super);
}

}  // namespace

bool IsSubtype(const SequenceType& sub, const SequenceType& super) {
  if (sub.is_empty_sequence()) return super.allows_empty();
  if (super.is_empty_sequence()) return false;
  return OccurrenceContained(sub.occurrence, super.occurrence) &&
         IsItemSubtype(sub.item, super.item);
}

bool ItemIntersects(const TypePtr& a, const TypePtr& b) {
  if (!a || !b) return false;
  if (a->kind() == XType::Kind::kAnyItem || b->kind() == XType::Kind::kAnyItem) {
    return true;
  }
  if (a->kind() == XType::Kind::kError || b->kind() == XType::Kind::kError) {
    return false;
  }
  if (a->kind() == XType::Kind::kAnyNode) {
    return b->kind() == XType::Kind::kElement ||
           b->kind() == XType::Kind::kAttribute ||
           b->kind() == XType::Kind::kAnyNode;
  }
  if (b->kind() == XType::Kind::kAnyNode) return ItemIntersects(b, a);
  if (a->kind() != b->kind()) return false;
  switch (a->kind()) {
    case XType::Kind::kAtomic:
      return AtomicIntersects(a->atomic_type(), b->atomic_type());
    case XType::Kind::kElement: {
      if (!xml::NameMatches(a->name(), b->name())) return false;
      if (a->has_any_content() || b->has_any_content()) return true;
      if (a->has_simple_content() != b->has_simple_content()) return false;
      if (a->has_simple_content()) {
        return AtomicIntersects(a->atomic_type(), b->atomic_type());
      }
      // Complex content: required particles on either side must intersect.
      for (const auto& f : a->fields()) {
        const ElementField* g = b->FindField(f.name);
        if (g == nullptr) {
          if (!f.type.allows_empty()) return false;
          continue;
        }
        if (!Intersects(f.type, g->type)) return false;
      }
      for (const auto& g : b->fields()) {
        if (a->FindField(g.name) == nullptr && !g.type.allows_empty()) {
          return false;
        }
      }
      return true;
    }
    case XType::Kind::kAttribute:
      return xml::NameMatches(a->name(), b->name()) &&
             AtomicIntersects(a->atomic_type(), b->atomic_type());
    default:
      return false;
  }
}

bool Intersects(const SequenceType& a, const SequenceType& b) {
  if (a.is_empty_sequence()) return b.allows_empty();
  if (b.is_empty_sequence()) return a.allows_empty();
  // Both allow empty => the empty sequence witnesses the intersection.
  if (a.allows_empty() && b.allows_empty()) return true;
  return ItemIntersects(a.item, b.item);
}

Occurrence OccurrenceUnion(Occurrence a, Occurrence b) {
  auto low = [](Occurrence o) {
    return o == Occurrence::kOptional || o == Occurrence::kStar ? 0 : 1;
  };
  auto high = [](Occurrence o) {
    return o == Occurrence::kStar || o == Occurrence::kPlus ? 2 : 1;
  };
  int lo = std::min(low(a), low(b));
  int hi = std::max(high(a), high(b));
  if (lo == 0) return hi == 2 ? Occurrence::kStar : Occurrence::kOptional;
  return hi == 2 ? Occurrence::kPlus : Occurrence::kOne;
}

Occurrence OccurrenceProduct(Occurrence a, Occurrence b) {
  auto low = [](Occurrence o) {
    return o == Occurrence::kOptional || o == Occurrence::kStar ? 0 : 1;
  };
  auto high = [](Occurrence o) {
    return o == Occurrence::kStar || o == Occurrence::kPlus ? 2 : 1;
  };
  int lo = low(a) * low(b);
  int hi = high(a) * high(b);
  if (lo == 0) return hi >= 2 ? Occurrence::kStar : Occurrence::kOptional;
  return hi >= 2 ? Occurrence::kPlus : Occurrence::kOne;
}

Occurrence MakeOptional(Occurrence o) {
  switch (o) {
    case Occurrence::kOne:
      return Occurrence::kOptional;
    case Occurrence::kPlus:
      return Occurrence::kStar;
    default:
      return o;
  }
}

SequenceType CommonSupertype(const SequenceType& a, const SequenceType& b) {
  if (a.is_empty_sequence() && b.is_empty_sequence()) return a;
  if (a.is_empty_sequence()) {
    return {b.item, MakeOptional(b.occurrence)};
  }
  if (b.is_empty_sequence()) {
    return {a.item, MakeOptional(a.occurrence)};
  }
  Occurrence occ = OccurrenceUnion(a.occurrence, b.occurrence);
  if (IsItemSubtype(a.item, b.item)) return {b.item, occ};
  if (IsItemSubtype(b.item, a.item)) return {a.item, occ};
  if (a.item->kind() == XType::Kind::kAtomic &&
      b.item->kind() == XType::Kind::kAtomic) {
    // Numeric promotion to decimal/double where sensible.
    xml::AtomicType at = a.item->atomic_type();
    xml::AtomicType bt = b.item->atomic_type();
    if (xml::IsNumeric(at) && xml::IsNumeric(bt)) {
      xml::AtomicType wide = (at == xml::AtomicType::kDouble ||
                              bt == xml::AtomicType::kDouble)
                                 ? xml::AtomicType::kDouble
                                 : xml::AtomicType::kDecimal;
      return {XType::Atomic(wide), occ};
    }
  }
  return {XType::AnyItem(), occ};
}

xml::AtomicType AtomizedType(const SequenceType& t) {
  if (t.is_empty_sequence() || !t.item) return xml::AtomicType::kUntyped;
  switch (t.item->kind()) {
    case XType::Kind::kAtomic:
      return t.item->atomic_type();
    case XType::Kind::kElement:
      if (t.item->has_simple_content()) return t.item->atomic_type();
      return xml::AtomicType::kUntyped;
    case XType::Kind::kAttribute:
      return t.item->atomic_type();
    default:
      return xml::AtomicType::kUntyped;
  }
}

void SchemaRegistry::Register(const std::string& name, TypePtr type) {
  for (auto& e : entries_) {
    if (e.first == name) {
      e.second = std::move(type);
      return;
    }
  }
  entries_.emplace_back(name, std::move(type));
}

TypePtr SchemaRegistry::Lookup(const std::string& name) const {
  for (const auto& e : entries_) {
    if (e.first == name || xml::LocalName(e.first) == xml::LocalName(name)) {
      return e.second;
    }
  }
  return nullptr;
}

}  // namespace aldsp::xsd
