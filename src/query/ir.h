#ifndef AGIS_QUERY_IR_H_
#define AGIS_QUERY_IR_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "geodb/object.h"
#include "geodb/query.h"
#include "geodb/value.h"
#include "geom/bbox.h"
#include "geom/geometry.h"
#include "geom/topology.h"

namespace agis::query {

/// Arithmetic over attribute values inside a query expression
/// (`where install_year + lifetime_years < 2026`).
enum class ArithOp { kAdd, kSub, kMul, kDiv };

const char* ArithOpName(ArithOp op);

struct ScalarExpr;
using ScalarPtr = std::shared_ptr<const ScalarExpr>;

/// A value-producing expression node: literal, attribute read, or
/// binary arithmetic over two sub-expressions. Nodes are immutable
/// after construction and shared by pointer, so sub-trees can be
/// reused freely across normalization passes.
struct ScalarExpr {
  enum class Kind { kLiteral, kAttribute, kArith };

  Kind kind = Kind::kLiteral;
  geodb::Value literal;        // kLiteral
  std::string attribute;       // kAttribute
  ArithOp op = ArithOp::kAdd;  // kArith
  ScalarPtr lhs;               // kArith
  ScalarPtr rhs;               // kArith

  static ScalarPtr Literal(geodb::Value v);
  static ScalarPtr Attribute(std::string name);
  static ScalarPtr Arith(ArithOp op, ScalarPtr lhs, ScalarPtr rhs);

  /// Value of this expression over `obj`. Arithmetic is defined over
  /// numeric operands only: any null or non-numeric input — and
  /// division by zero — yields null (which makes the enclosing
  /// comparison false, matching the residual-scan semantics of
  /// GeoDatabase::GetClass).
  geodb::Value Evaluate(const geodb::ObjectInstance& obj) const;

  /// Canonical rendering: literals via ToDisplayString (strings
  /// quoted), arithmetic fully parenthesized.
  std::string ToString() const;

  /// Appends every attribute name read by this sub-tree.
  void CollectAttributes(std::vector<std::string>* out) const;
};

struct BoolExpr;
using BoolPtr = std::shared_ptr<const BoolExpr>;

/// A truth-valued expression node: comparison between two scalars,
/// spatial predicate against a fixed geometry, or AND/OR/NOT
/// combination. Immutable and shared like ScalarExpr.
struct BoolExpr {
  enum class Kind { kCompare, kSpatial, kAnd, kOr, kNot };

  Kind kind = Kind::kAnd;
  // kCompare.
  geodb::CompareOp op = geodb::CompareOp::kEq;
  ScalarPtr lhs;
  ScalarPtr rhs;
  // kSpatial: instance geometry `relation` target.
  geom::TopoRelation relation = geom::TopoRelation::kIntersects;
  geom::Geometry target;
  // kAnd (all children), kOr (any child), kNot (exactly one child).
  std::vector<BoolPtr> children;

  static BoolPtr Compare(geodb::CompareOp op, ScalarPtr lhs, ScalarPtr rhs);
  static BoolPtr Spatial(geom::TopoRelation relation, geom::Geometry target);
  static BoolPtr And(std::vector<BoolPtr> children);
  static BoolPtr Or(std::vector<BoolPtr> children);
  static BoolPtr Not(BoolPtr child);

  /// Truth of this expression over `obj`. Comparison errors
  /// (incomparable kinds, null inputs) are *false*, exactly like the
  /// database residual scan; `contains` is substring match over two
  /// strings; spatial predicates read `geometry_attr` (false when the
  /// attribute is empty/null — a spatial filter over a non-spatial
  /// class matches nothing). kNot negates the recursive result, so
  /// NOT (a < 5) is true for a null `a` — which is why normalization
  /// never rewrites NOT through a comparison operator.
  bool Evaluate(const geodb::ObjectInstance& obj,
                const std::string& geometry_attr) const;

  std::string ToString() const;

  void CollectAttributes(std::vector<std::string>* out) const;
};

/// One ORDER BY key: an attribute (CompareValues order, nulls last in
/// either direction; same-kind values CompareValues cannot order, such
/// as tuples, tie and fall to the ascending-id tiebreak) or distance to
/// a fixed geometry (the `nearest <WKT>` form; instances without
/// geometry sort last).
struct OrderKey {
  enum class Kind { kAttribute, kDistance };

  Kind kind = Kind::kAttribute;
  std::string attribute;   // kAttribute
  geom::Geometry target;   // kDistance
  bool descending = false;

  std::string ToString() const;
};

/// A complete query: the composable form behind the text front end,
/// the cost-based planner, and the semantic result cache. Produced by
/// query::Parse or built programmatically; legacy GetClassOptions
/// lower into it via FromGetClassOptions.
struct Query {
  std::string class_name;
  bool include_subclasses = false;
  /// Viewport paging window (bbox intersection pre-filter).
  std::optional<geom::BoundingBox> window;
  /// Filter; null means "all instances".
  BoolPtr where;
  std::vector<OrderKey> order_by;
  /// 0 = unlimited. Applied after `offset`, after ordering.
  size_t limit = 0;
  size_t offset = 0;

  std::string ToString() const;
};

/// Normalizes a boolean expression to negation normal form with
/// flattened, sorted, deduplicated AND/OR children:
///   - double negation removed; De Morgan pushes NOT down to leaves
///     (a pure boolean identity over computed truth values — NOT is
///     *kept* on comparison leaves, never folded into the operator,
///     because error-means-false makes NOT(a = x) differ from a != x);
///   - nested same-kind AND/OR flattened, children sorted by canonical
///     string and deduplicated, single-child nodes collapsed;
///   - literal-only arithmetic constant-folded.
/// Equivalent queries thus normalize to byte-identical canonical keys.
BoolPtr Normalize(const BoolPtr& expr);

/// Query with `where` normalized (other fields copied unchanged).
Query Normalized(Query q);

/// Deterministic cache/identity key: ToString of the normalized query.
std::string CanonicalKey(const Query& q);

/// Lowers a legacy Get_Class request into the IR: predicates become an
/// AND of comparisons, the spatial filter a spatial atom, window and
/// limit copy through. The lowered query evaluates to byte-identical
/// results (the equivalence tests pin this down).
Query FromGetClassOptions(const std::string& class_name,
                          const geodb::GetClassOptions& options);

}  // namespace agis::query

#endif  // AGIS_QUERY_IR_H_
