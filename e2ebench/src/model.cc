#include "model.h"

#include <algorithm>

#include "base/strutil.h"
#include "geom/geometry.h"

namespace e2e {

namespace geodb = agis::geodb;
using geodb::AttributeDef;
using geodb::ClassDef;
using geodb::Value;

const char* const kStatuses[4] = {"active", "repair", "planned", "retired"};

std::string DrawStatus(Rng& rng) {
  const double u = rng.Unit();
  if (u < 0.70) return kStatuses[0];
  if (u < 0.85) return kStatuses[1];
  if (u < 0.95) return kStatuses[2];
  return kStatuses[3];
}

agis::Status RegisterSchema(geodb::Database* db) {
  {
    ClassDef supplier("Supplier", "pole/cable equipment vendor");
    AttributeDef name = AttributeDef::String("supplier_name");
    name.required = true;
    AGIS_RETURN_IF_ERROR(supplier.AddAttribute(name));
    AGIS_RETURN_IF_ERROR(supplier.AddAttribute(AttributeDef::String("supplier_city")));
    AGIS_RETURN_IF_ERROR(db->RegisterClass(std::move(supplier)));
  }
  {
    ClassDef region("ServiceRegion", "telephone service region");
    AGIS_RETURN_IF_ERROR(region.AddAttribute(AttributeDef::String("region_name")));
    AGIS_RETURN_IF_ERROR(region.AddAttribute(AttributeDef::Geometry("region_area")));
    AGIS_RETURN_IF_ERROR(db->RegisterClass(std::move(region)));
  }
  {
    ClassDef base("NetworkElement", "common network element state");
    AGIS_RETURN_IF_ERROR(base.AddAttribute(AttributeDef::String("status")));
    AGIS_RETURN_IF_ERROR(base.AddAttribute(AttributeDef::Int("install_year")));
    AGIS_RETURN_IF_ERROR(db->RegisterClass(std::move(base)));
  }
  {
    ClassDef pole("Pole", "aerial network support pole (Figure 5)");
    pole.set_parent("NetworkElement");
    AGIS_RETURN_IF_ERROR(pole.AddAttribute(AttributeDef::Int("pole_type")));
    AGIS_RETURN_IF_ERROR(pole.AddAttribute(AttributeDef::Tuple(
        "pole_composition", {AttributeDef::String("pole_material"),
                             AttributeDef::Double("pole_diameter"),
                             AttributeDef::Double("pole_height")})));
    AGIS_RETURN_IF_ERROR(pole.AddAttribute(AttributeDef::Ref("pole_supplier", "Supplier")));
    AGIS_RETURN_IF_ERROR(pole.AddAttribute(AttributeDef::Geometry("pole_location")));
    AGIS_RETURN_IF_ERROR(pole.AddAttribute(AttributeDef::Blob("pole_picture")));
    AGIS_RETURN_IF_ERROR(pole.AddAttribute(AttributeDef::Text("pole_historic")));
    AGIS_RETURN_IF_ERROR(db->RegisterClass(std::move(pole)));
  }
  {
    ClassDef duct("Duct", "underground duct");
    duct.set_parent("NetworkElement");
    AGIS_RETURN_IF_ERROR(duct.AddAttribute(AttributeDef::Double("duct_depth")));
    AGIS_RETURN_IF_ERROR(duct.AddAttribute(AttributeDef::Geometry("duct_path")));
    AGIS_RETURN_IF_ERROR(db->RegisterClass(std::move(duct)));
  }
  {
    ClassDef cable("Cable", "aerial cable strung between poles");
    cable.set_parent("NetworkElement");
    AGIS_RETURN_IF_ERROR(cable.AddAttribute(AttributeDef::Int("cable_pairs")));
    AGIS_RETURN_IF_ERROR(cable.AddAttribute(AttributeDef::Geometry("cable_path")));
    AGIS_RETURN_IF_ERROR(db->RegisterClass(std::move(cable)));
  }
  // Figure 5's method: the name of the pole's supplier.
  return db->RegisterMethod(
      "Pole",
      geodb::MethodDef{
          "get_supplier_name", "name of the pole's supplier",
          [](const geodb::Database& db,
             const geodb::ObjectInstance& pole) -> agis::Result<Value> {
            const Value& ref = pole.Get("pole_supplier");
            if (ref.kind() != geodb::ValueKind::kRef) {
              return Value::String("<no supplier>");
            }
            const geodb::Snapshot snap = db.OpenSnapshot();
            const geodb::ObjectInstance* supplier =
                db.FindObjectAt(snap, ref.ref_value().id);
            if (supplier == nullptr) {
              return agis::Status::NotFound(agis::StrCat("supplier ", ref.ref_value().id));
            }
            return supplier->Get("supplier_name");
          }});
}

std::vector<std::pair<std::string, Value>> ElementValues(const Element& e) {
  std::vector<std::pair<std::string, Value>> v;
  if (e.install_year) v.emplace_back("install_year", Value::Int(*e.install_year));
  if (e.status) v.emplace_back("status", Value::String(*e.status));
  if (e.cls == "Pole") {
    if (e.pole_type) v.emplace_back("pole_type", Value::Int(*e.pole_type));
    static const char* kMaterials[] = {"wood", "concrete", "steel"};
    v.emplace_back("pole_composition",
                   Value::MakeTuple({{"pole_material", Value::String(kMaterials[e.variant % 3])},
                                     {"pole_diameter", Value::Double(0.2 + (e.variant % 7) * 0.05)},
                                     {"pole_height", Value::Double(7.0 + (e.variant % 11) * 0.5)}}));
    if (e.supplier != 0) v.emplace_back("pole_supplier", Value::Ref(e.supplier, "Supplier"));
    v.emplace_back("pole_location",
                   Value::MakeGeometry(agis::geom::Geometry::FromPoint({e.x0, e.y0})));
    geodb::Blob picture;
    picture.format = "pbm";
    picture.bytes = {'P', '1', ' ', '1', ' ', '1', ' ', '1'};
    v.emplace_back("pole_picture", Value::MakeBlob(std::move(picture)));
    v.emplace_back("pole_historic", Value::String("installed by field crew"));
  } else {
    agis::geom::LineString span;
    span.points = {{e.x0, e.y0}, {e.x1, e.y1}};
    const Value path = Value::MakeGeometry(agis::geom::Geometry::FromLineString(span));
    if (e.cls == "Cable") {
      v.emplace_back("cable_pairs", Value::Int(e.cable_pairs));
      v.emplace_back("cable_path", path);
    } else {
      v.emplace_back("duct_depth", Value::Double(0.6 + (e.variant % 5) * 0.2));
      v.emplace_back("duct_path", path);
    }
  }
  return v;
}

Element NewElement(const std::string& cls, Rng& rng, const World& world) {
  Element e;
  e.cls = cls;
  e.variant = static_cast<int>(rng.Uniform(1000));
  // Keep clear of the world border: the corner anchors own it.
  const double lo = kWorldSize * 0.01, hi = kWorldSize * 0.99;
  e.x0 = rng.Real(lo, hi);
  e.y0 = rng.Real(lo, hi);
  if (cls == "Pole") {
    e.x1 = e.x0;
    e.y1 = e.y0;
    if (!rng.Chance(0.02)) e.pole_type = rng.Int(0, 7);
    if (!rng.Chance(0.03)) e.install_year = rng.Int(1960, 2019);
    // Never null: the one indexed key the ORDER BY/LIMIT pushdown can
    // stream from (it declines on a key column with nulls).
    e.status = DrawStatus(rng);
    e.supplier = world.suppliers.empty()
                     ? 0
                     : world.suppliers[rng.Uniform(world.suppliers.size())];
  } else {
    const double len = kWorldSize * 0.004;
    e.x1 = std::clamp(e.x0 + rng.Real(-len, len), lo, hi);
    e.y1 = std::clamp(e.y0 + rng.Real(-len, len), lo, hi);
    e.install_year = rng.Int(1970, 2019);
    e.status = DrawStatus(rng);
    e.cable_pairs = rng.Int(10, 99);
  }
  return e;
}

agis::Status LoadWorld(geodb::Database* db, const DataSpec& spec, Rng& rng,
                       World* world) {
  static const char* kNames[] = {"WoodCo", "ConcretePlus", "SteelBr",
                                 "PoleTec", "LigMat", "TeleParts"};
  for (size_t i = 0; i < kSuppliers; ++i) {
    const std::string name = agis::StrCat(kNames[i % 6], "_", i);
    AGIS_ASSIGN_OR_RETURN(
        geodb::ObjectId id,
        db->Insert("Supplier", {{"supplier_name", Value::String(name)},
                                {"supplier_city", Value::String("Campinas")}}));
    world->suppliers.push_back(id);
  }
  size_t grid = 1;
  while (grid * grid < kRegions) ++grid;
  for (size_t i = 0; i < kRegions; ++i) {
    const double w = kWorldSize / static_cast<double>(grid);
    const double x0 = w * static_cast<double>(i % grid);
    const double y0 = w * static_cast<double>(i / grid);
    agis::geom::Polygon poly;
    poly.outer = {{x0, y0}, {x0 + w, y0}, {x0 + w, y0 + w}, {x0, y0 + w}};
    AGIS_RETURN_IF_ERROR(
        db->Insert("ServiceRegion",
                   {{"region_name", Value::String(agis::StrCat("region_", i))},
                    {"region_area",
                     Value::MakeGeometry(agis::geom::Geometry::FromPolygon(poly))}})
            .status());
  }
  const auto insert = [&](Element e) -> agis::Status {
    AGIS_ASSIGN_OR_RETURN(geodb::ObjectId id,
                          db->Insert(e.cls, ElementValues(e)));
    e.id = id;
    world->elements[id] = std::move(e);
    return agis::Status::OK();
  };
  if (spec.corner_anchors) {
    const double s = kWorldSize;
    for (const std::string cls : {"Pole", "Cable"}) {
      const double pts[4][2] = {{0, 0}, {s, 0}, {0, s}, {s, s}};
      for (const auto& p : pts) {
        Element e = NewElement(cls, rng, *world);
        e.x0 = e.x1 = p[0];
        e.y0 = e.y1 = p[1];
        if (cls == "Cable") e.x1 = p[0] == 0 ? 1 : s - 1;
        AGIS_RETURN_IF_ERROR(insert(e));
        world->anchors.push_back(std::prev(world->elements.end())->first);
      }
    }
  }
  // Interleave the classes so ids of one class are not one block.
  size_t p = 0, c = 0, d = 0;
  while (p < spec.poles || c < spec.cables || d < spec.ducts) {
    if (p < spec.poles) {
      AGIS_RETURN_IF_ERROR(insert(NewElement("Pole", rng, *world)));
      ++p;
    }
    if (c * spec.poles < p * spec.cables && c < spec.cables) {
      AGIS_RETURN_IF_ERROR(insert(NewElement("Cable", rng, *world)));
      ++c;
    }
    if (d * spec.poles < p * spec.ducts && d < spec.ducts) {
      AGIS_RETURN_IF_ERROR(insert(NewElement("Duct", rng, *world)));
      ++d;
    }
    if (p >= spec.poles) {
      while (c < spec.cables) {
        AGIS_RETURN_IF_ERROR(insert(NewElement("Cable", rng, *world)));
        ++c;
      }
      while (d < spec.ducts) {
        AGIS_RETURN_IF_ERROR(insert(NewElement("Duct", rng, *world)));
        ++d;
      }
    }
  }
  return agis::Status::OK();
}

}  // namespace e2e
