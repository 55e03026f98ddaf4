// Independent reference answers: a brute-force evaluator for the
// analysis query mix over the plain World copy, and the expected
// winning directive for a user context under the paper's order of
// specificity. Neither reads the system under test.
#ifndef E2EBENCH_REFERENCE_H_
#define E2EBENCH_REFERENCE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "model.h"

namespace e2e {

enum class CmpOp { kEq, kNe, kLt, kLe, kGt, kGe };

/// One leaf of a filter.
struct Atom {
  enum class Kind { kCompare, kArith, kWithin };
  Kind kind = Kind::kCompare;
  std::string attr;
  CmpOp op = CmpOp::kEq;
  bool is_string = false;
  int64_t ival = 0;
  std::string sval;
  int64_t add = 0;  // kArith: attr + add <op> ival.
  Rect rect;        // kWithin: integer-valued corners.
};

/// A query of the analysis mix in structured form. Text() renders it
/// in the system's query language; Evaluate() answers it directly.
struct QuerySpec {
  enum class Order { kNone, kAttr, kNearest };

  std::string cls = "Pole";
  bool subclasses = false;
  /// OR of ANDs; empty = every instance.
  std::vector<std::vector<Atom>> where;
  std::optional<Rect> window;
  Order order = Order::kNone;
  std::string order_attr;
  bool desc = false;
  double nx = 0, ny = 0;  // kNearest target (integer-valued).
  size_t limit = 0;
  size_t offset = 0;

  std::string Text() const;
  /// ORDER BY + LIMIT over a filtered set: the system may answer it
  /// with a truncated `total`, so totals are not compared.
  bool TotalMayBeTruncated() const {
    return order == Order::kAttr && limit > 0 && (!where.empty() || window);
  }
};

struct Answer {
  std::vector<Id> ids;
  size_t total = 0;
};

/// Whether `e` belongs to the query's classes, viewport and filter.
bool Selects(const QuerySpec& q, const Element& e);

/// Brute force over every element of the queried classes.
Answer Evaluate(const QuerySpec& q, const World& world);
/// Same over a flat copy (ascending ids).
Answer Evaluate(const QuerySpec& q, const std::vector<Element>& elements);

/// Checks the evaluator and the specificity order on hand-worked
/// cases; returns one message per failed case.
std::vector<std::string> SelfTest();

}  // namespace e2e

#endif  // E2EBENCH_REFERENCE_H_
