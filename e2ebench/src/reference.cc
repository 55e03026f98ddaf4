#include "reference.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "directives.h"

namespace e2e {

namespace {

const char* OpText(CmpOp op) {
  switch (op) {
    case CmpOp::kEq: return "=";
    case CmpOp::kNe: return "!=";
    case CmpOp::kLt: return "<";
    case CmpOp::kLe: return "<=";
    case CmpOp::kGt: return ">";
    case CmpOp::kGe: return ">=";
  }
  return "?";
}

template <typename T>
bool Holds(CmpOp op, const T& a, const T& b) {
  switch (op) {
    case CmpOp::kEq: return a == b;
    case CmpOp::kNe: return a != b;
    case CmpOp::kLt: return a < b;
    case CmpOp::kLe: return a <= b;
    case CmpOp::kGt: return a > b;
    case CmpOp::kGe: return a >= b;
  }
  return false;
}

std::string Coord(double v) { return std::to_string(std::llround(v)); }

std::optional<int64_t> IntAttr(const Element& e, const std::string& attr) {
  if (attr == "install_year") return e.install_year;
  if (attr == "pole_type" && e.cls == "Pole") return e.pole_type;
  if (attr == "cable_pairs" && e.cls == "Cable") return e.cable_pairs;
  return std::nullopt;
}

bool AtomHolds(const Atom& a, const Element& e) {
  switch (a.kind) {
    case Atom::Kind::kCompare:
      if (a.is_string) {
        // Missing values compare false, whatever the operator.
        return a.attr == "status" && e.status && Holds(a.op, *e.status, a.sval);
      } else {
        const auto v = IntAttr(e, a.attr);
        return v && Holds(a.op, *v, a.ival);
      }
    case Atom::Kind::kArith: {
      const auto v = IntAttr(e, a.attr);
      return v && Holds(a.op, *v + a.add, a.ival);
    }
    case Atom::Kind::kWithin:
      // Strictly inside; inputs keep elements off integer coordinates,
      // so no element sits on the boundary.
      return e.minx() > a.rect.x0 && e.maxx() < a.rect.x1 &&
             e.miny() > a.rect.y0 && e.maxy() < a.rect.y1;
  }
  return false;
}

}  // namespace

bool Selects(const QuerySpec& q, const Element& e) {
  const bool in_class =
      e.cls == q.cls || (q.subclasses && q.cls == "NetworkElement");
  if (!in_class) return false;
  if (q.window && !e.Meets(*q.window)) return false;
  if (q.where.empty()) return true;
  for (const auto& conj : q.where) {
    bool all = true;
    for (const Atom& a : conj) {
      if (!AtomHolds(a, e)) {
        all = false;
        break;
      }
    }
    if (all) return true;
  }
  return false;
}

std::string QuerySpec::Text() const {
  std::ostringstream out;
  out << "select " << cls;
  if (subclasses) out << " with subclasses";
  if (!where.empty()) {
    out << " where ";
    for (size_t d = 0; d < where.size(); ++d) {
      if (d > 0) out << " or ";
      const bool paren = where.size() > 1 && where[d].size() > 1;
      if (paren) out << "(";
      for (size_t i = 0; i < where[d].size(); ++i) {
        const Atom& a = where[d][i];
        if (i > 0) out << " and ";
        switch (a.kind) {
          case Atom::Kind::kCompare:
            out << a.attr << " " << OpText(a.op) << " ";
            if (a.is_string) {
              out << "'" << a.sval << "'";
            } else {
              out << a.ival;
            }
            break;
          case Atom::Kind::kArith:
            out << a.attr << " + " << a.add << " " << OpText(a.op) << " "
                << a.ival;
            break;
          case Atom::Kind::kWithin:
            out << "within POLYGON ((" << Coord(a.rect.x0) << " "
                << Coord(a.rect.y0) << ", " << Coord(a.rect.x1) << " "
                << Coord(a.rect.y0) << ", " << Coord(a.rect.x1) << " "
                << Coord(a.rect.y1) << ", " << Coord(a.rect.x0) << " "
                << Coord(a.rect.y1) << ", " << Coord(a.rect.x0) << " "
                << Coord(a.rect.y0) << "))";
            break;
        }
      }
      if (paren) out << ")";
    }
  }
  if (window) {
    out << " window " << Coord(window->x0) << " " << Coord(window->y0) << " "
        << Coord(window->x1) << " " << Coord(window->y1);
  }
  if (order == Order::kAttr) {
    out << " order by " << order_attr << (desc ? " desc" : " asc");
  } else if (order == Order::kNearest) {
    out << " order by nearest POINT (" << Coord(nx) << " " << Coord(ny) << ")";
  }
  if (limit > 0) out << " limit " << limit;
  if (offset > 0) out << " offset " << offset;
  return out.str();
}

namespace {

/// Orders and pages the selected rows (ascending ids on entry).
Answer OrderAndPage(const QuerySpec& q, std::vector<const Element*> rows) {
  Answer answer;
  answer.total = rows.size();
  if (q.order == QuerySpec::Order::kAttr) {
    // Nulls last in both directions; ties by ascending id.
    const bool text = q.order_attr == "status";
    std::stable_sort(rows.begin(), rows.end(),
                     [&](const Element* a, const Element* b) {
      if (text) {
        if (!a->status || !b->status) return a->status.has_value() && !b->status;
        if (*a->status == *b->status) return false;
        return q.desc ? *a->status > *b->status : *a->status < *b->status;
      }
      const auto va = IntAttr(*a, q.order_attr), vb = IntAttr(*b, q.order_attr);
      if (!va || !vb) return va.has_value() && !vb;
      if (*va == *vb) return false;
      return q.desc ? *va > *vb : *va < *vb;
    });
  } else if (q.order == QuerySpec::Order::kNearest) {
    const auto d2 = [&](const Element* e) {
      const double dx = e->x0 - q.nx, dy = e->y0 - q.ny;
      return dx * dx + dy * dy;
    };
    std::stable_sort(rows.begin(), rows.end(),
                     [&](const Element* a, const Element* b) {
                       return (q.desc ? d2(a) > d2(b) : d2(a) < d2(b));
                     });
  }
  const size_t begin = std::min(q.offset, rows.size());
  size_t end = rows.size();
  if (q.limit > 0) end = std::min(end, begin + q.limit);
  for (size_t i = begin; i < end; ++i) answer.ids.push_back(rows[i]->id);
  return answer;
}

}  // namespace

Answer Evaluate(const QuerySpec& q, const World& world) {
  std::vector<const Element*> rows;
  for (const auto& [id, e] : world.elements) {
    if (Selects(q, e)) rows.push_back(&e);
  }
  return OrderAndPage(q, std::move(rows));
}

Answer Evaluate(const QuerySpec& q, const std::vector<Element>& elements) {
  std::vector<const Element*> rows;
  for (const Element& e : elements) {
    if (Selects(q, e)) rows.push_back(&e);
  }
  return OrderAndPage(q, std::move(rows));
}

std::vector<std::string> SelfTest() {
  std::vector<std::string> failures;
  const auto expect = [&](bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  };
  // Five poles: ids 10..14; 11 and 13 have no install_year; 10 and 14
  // share a year (ties break by ascending id in both directions).
  World w;
  const auto pole = [&](Id id, double x, double y, std::optional<int64_t> year,
                        std::optional<int64_t> type) {
    Element e;
    e.id = id;
    e.cls = "Pole";
    e.x0 = e.x1 = x;
    e.y0 = e.y1 = y;
    e.install_year = year;
    e.pole_type = type;
    e.status = "active";
    w.elements[id] = e;
  };
  pole(10, 1.5, 1.5, 1990, 1);
  pole(11, 2.5, 2.5, std::nullopt, 2);
  pole(12, 3.5, 3.5, 1980, 1);
  pole(13, 10, 10, std::nullopt, 3);  // On the viewport's corner.
  pole(14, 5.5, 5.5, 1990, std::nullopt);
  const auto ids = [&](const QuerySpec& q) { return Evaluate(q, w).ids; };
  using V = std::vector<Id>;

  QuerySpec asc;
  asc.order = QuerySpec::Order::kAttr;
  asc.order_attr = "install_year";
  expect(ids(asc) == V({12, 10, 14, 11, 13}),
         "ascending order: nulls last, ties by ascending id");
  QuerySpec desc = asc;
  desc.desc = true;
  expect(ids(desc) == V({10, 14, 12, 11, 13}),
         "descending order: nulls still last, ties still by ascending id");

  QuerySpec paged = asc;
  paged.limit = 2;
  paged.offset = 4;
  expect(ids(paged) == V({13}), "offset 4 limit 2 keeps the one row left");
  paged.offset = 9;
  expect(ids(paged).empty() && Evaluate(paged, w).total == 5,
         "offset past the end returns no rows and the full total");

  QuerySpec view;
  view.window = Rect{0, 0, 10, 10};
  expect(ids(view) == V({10, 11, 12, 13, 14}),
         "viewport edges are inclusive (pole 13 sits on the corner)");
  view.window = Rect{2.5, 0, 5, 3.5};
  expect(ids(view) == V({11, 12}), "viewport edge x0=2.5 and y1=3.5 inclusive");

  QuerySpec nulls;
  Atom ne;
  ne.attr = "pole_type";
  ne.op = CmpOp::kNe;
  ne.ival = 1;
  nulls.where = {{ne}};
  expect(ids(nulls) == V({11, 13}), "a null never satisfies !=");
  Atom arith;
  arith.kind = Atom::Kind::kArith;
  arith.attr = "install_year";
  arith.add = 10;
  arith.op = CmpOp::kLt;
  arith.ival = 2000;
  nulls.where = {{arith}};
  expect(ids(nulls) == V({12}), "arithmetic over a null is false");

  QuerySpec near;
  near.order = QuerySpec::Order::kNearest;
  near.nx = 3;
  near.ny = 3;
  near.limit = 3;
  // 11 and 12 are equidistant from (3, 3): the lower id comes first.
  expect(ids(near) == V({11, 12, 10}), "nearest: distance, then ascending id");

  for (const std::string& f : SpecificitySelfTest()) failures.push_back(f);
  return failures;
}

}  // namespace e2e
