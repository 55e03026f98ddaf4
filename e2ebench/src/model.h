// The benchmark's phone network: its own copy of the Figure 5 schema,
// a seeded generator, and a plain in-memory copy of every object the
// benchmark writes. The copy is the reference every answer is checked
// against; it never reads back from the system under test.
#ifndef E2EBENCH_MODEL_H_
#define E2EBENCH_MODEL_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "base/status.h"
#include "geodb/db_interface.h"
#include "harness.h"

namespace e2e {

using Id = uint64_t;

struct Rect {
  double x0 = 0, y0 = 0, x1 = 0, y1 = 0;
  bool Meets(double ax0, double ay0, double ax1, double ay1) const {
    return ax0 <= x1 && ax1 >= x0 && ay0 <= y1 && ay1 >= y0;
  }
};

/// One NetworkElement subclass instance (Pole, Cable or Duct). Poles
/// are points (x0,y0 == x1,y1); cables and ducts are one straight span.
struct Element {
  Id id = 0;
  std::string cls;
  double x0 = 0, y0 = 0, x1 = 0, y1 = 0;
  std::optional<int64_t> install_year;
  std::optional<std::string> status;
  std::optional<int64_t> pole_type;  // Pole only.
  int64_t cable_pairs = 0;           // Cable only.
  Id supplier = 0;                   // Pole only.
  int variant = 0;  // Picks pole_composition / duct_depth values.

  double minx() const { return std::min(x0, x1); }
  double maxx() const { return std::max(x0, x1); }
  double miny() const { return std::min(y0, y1); }
  double maxy() const { return std::max(y0, y1); }
  bool Meets(const Rect& r) const { return r.Meets(minx(), miny(), maxx(), maxy()); }
};

/// The world is the square [0, kWorldSize]^2, tiled by kRegions
/// service regions; poles draw their supplier from kSuppliers.
inline constexpr double kWorldSize = 10000;
inline constexpr size_t kRegions = 16;
inline constexpr size_t kSuppliers = 6;

/// How many elements of each class to generate.
struct DataSpec {
  size_t poles = 0;
  size_t cables = 0;
  size_t ducts = 0;
  /// Poles at the four world corners that no write ever touches, so a
  /// full-extent window keeps its map fit (edit_push needs that to
  /// compare a patched window with a full rebuild).
  bool corner_anchors = false;
};

/// The reference copy. Keyed by id so iteration is in ascending id
/// order, which is the order every tie-break of the system uses.
struct World {
  std::map<Id, Element> elements;  // Poles, cables and ducts.
  std::vector<Id> suppliers;
  std::vector<Id> anchors;  // Never written after load.
};

/// Registers Supplier, ServiceRegion, NetworkElement and its
/// Pole/Duct/Cable subclasses with the get_supplier_name method.
agis::Status RegisterSchema(agis::geodb::Database* db);

/// Builds the Figure 5 attribute list of one element.
std::vector<std::pair<std::string, agis::geodb::Value>> ElementValues(
    const Element& e);

/// Generates `spec` from `rng`, inserts it into `db` and records the
/// reference copy in `world`.
agis::Status LoadWorld(agis::geodb::Database* db, const DataSpec& spec,
                       Rng& rng, World* world);

/// Draws the position and attribute values of a new element of `cls`
/// (id left 0 until the insert assigns it).
Element NewElement(const std::string& cls, Rng& rng, const World& world);

/// Status values and their share of the population.
extern const char* const kStatuses[4];
std::string DrawStatus(Rng& rng);

}  // namespace e2e

#endif  // E2EBENCH_MODEL_H_
