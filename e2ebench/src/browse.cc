// browse: one client explores an unsharded database the way the
// paper's Section 4 pole manager does. One op is one visit: set a
// context, open the Schema window, open viewport-bounded Class-set
// windows on Pole and Cable, click a pole (Instance window), close
// everything.
#include <cmath>
#include <limits>

#include "base/strutil.h"
#include "directives.h"
#include "model.h"
#include "uilib/widget_props.h"
#include "workload.h"

namespace e2e {

namespace {

using agis::core::ActiveInterfaceSystem;
namespace geodb = agis::geodb;

constexpr size_t kViewports = 256;
constexpr double kViewportSkew = 1.0;
constexpr double kClickTolerance = 60;

struct Viewport {
  Rect rect;
  size_t poles = 0;   // Reference feature counts.
  size_t cables = 0;
  double click_x = 0, click_y = 0;
  Id click_target = 0;  // Reference-nearest pole to the click.
};

class Browse : public Workload {
 public:
  Browse(uint64_t seed, RunResult* r) : Workload(seed), result_(r) {}

  agis::Status Setup() override {
    sys_ = std::make_unique<ActiveInterfaceSystem>("phone_net",
                                                   BaseOptions(1, false));
    geodb::Database* db = &sys_->database();
    AGIS_RETURN_IF_ERROR(RegisterSchema(db));
    Rng rng(seed_);
    DataSpec spec;
    spec.poles = 20000;
    spec.cables = 6000;
    spec.ducts = 1500;
    AGIS_RETURN_IF_ERROR(LoadWorld(db, spec, rng, &world_));
    AGIS_RETURN_IF_ERROR(CreatePoleIndexes(db));
    pop_ = MakePopulation();
    const Clock::time_point t0 = Clock::now();
    for (const DirectiveSpec& d : pop_.directives) {
      auto installed = sys_->InstallCustomization(d.source);
      if (!installed.ok()) {
        return agis::Status::Internal(agis::StrCat(
            "directive ", d.CanonicalName(), ": ", installed.status().ToString()));
      }
    }
    install_ms_ = MicrosBetween(t0, Clock::now()) / 1000.0;
    MakeViewports(rng);
    return agis::Status::OK();
  }

  std::vector<std::string> HomeLayers() const override {
    return {"active.select_us", "active.memo_hit_ratio", "custlang.install_ms",
            "geodb.get_class_us", "geodb.rows_per_get_class",
            "geodb.buffer_hit_ratio", "builder.class_window_us",
            "builder.instance_window_us", "builder.features_per_window",
            "ui.open_window_us"};
  }

  PhaseStats Phase(double seconds, bool traced) override {
    PhaseStats ps;
    const auto engine0 = sys_->engine().stats();
    const auto pool0 = sys_->db().buffer_pool().stats();
    Rng rng(seed_ * 31 + (traced ? 7 : 3) + phase_++);
    const Clock::time_point start = ps.start = Clock::now();
    while (SecondsSince(start) < seconds) {
      Visit(rng, traced, &ps);
    }
    ps.seconds = SecondsSince(start);
    const auto engine1 = sys_->engine().stats();
    const auto pool1 = sys_->db().buffer_pool().stats();
    const double hits = static_cast<double>(engine1.cache_hits - engine0.cache_hits);
    const double misses = static_cast<double>(engine1.cache_misses - engine0.cache_misses);
    ps.counters["active.memo_hit_ratio"] = hits / std::max(1.0, hits + misses);
    const double ph = static_cast<double>(pool1.hits - pool0.hits);
    const double pm = static_cast<double>(pool1.misses - pool0.misses);
    ps.counters["geodb.buffer_hit_ratio"] = ph / std::max(1.0, ph + pm);
    ps.counters["custlang.install_ms"] = install_ms_;
    return ps;
  }

  std::map<std::string, double> Finish() override {
    // Latency by which directive levels customize the visit's windows
    // (U user, C category, A application; - generic), for reading where
    // p50/p95 fall.
    for (const auto& [kind, s] : by_kind_) {
      std::fprintf(stderr, "browse kind %-22s n=%-6zu p50=%.0fus p95=%.0fus\n",
                   kind.c_str(), s.size(), s.Median(), s.Quantile(0.95));
    }
    std::fprintf(stderr, "browse: dispatcher interaction log holds %zu entries\n",
                 sys_->dispatcher().interaction_log().size());
    return {};
  }

 private:
  void MakeViewports(Rng& rng) {
    while (viewports_.size() < kViewports) {
      Viewport vp;
      const double w = 1200, h = 900;  // One size: cost must not depend on the seed.
      const double x = std::floor(rng.Real(0, kWorldSize - w));
      const double y = std::floor(rng.Real(0, kWorldSize - h));
      vp.rect = Rect{x, y, x + w, y + h};
      std::vector<const Element*> in;
      for (const auto& [id, e] : world_.elements) {
        if (!e.Meets(vp.rect)) continue;
        if (e.cls == "Pole") {
          ++vp.poles;
          in.push_back(&e);
        } else if (e.cls == "Cable") {
          ++vp.cables;
        }
      }
      if (in.empty()) continue;
      // Click near a pole of the viewport; keep the click only when
      // the nearest pole is unambiguous.
      for (int attempt = 0; attempt < 16 && vp.click_target == 0; ++attempt) {
        const Element* p = in[rng.Uniform(in.size())];
        const double cx = p->x0 + rng.Real(-3, 3), cy = p->y0 + rng.Real(-3, 3);
        double best = std::numeric_limits<double>::infinity(), second = best;
        Id best_id = 0;
        for (const Element* q : in) {
          const double d = std::hypot(q->x0 - cx, q->y0 - cy);
          if (d < best) {
            second = best;
            best = d;
            best_id = q->id;
          } else if (d < second) {
            second = d;
          }
        }
        if (best < kClickTolerance && second - best > 1e-3) {
          vp.click_x = cx;
          vp.click_y = cy;
          vp.click_target = best_id;
        }
      }
      if (vp.click_target != 0) viewports_.push_back(vp);
    }
    skew_ = std::make_unique<SkewedPick>(kViewports, kViewportSkew);
  }

  static size_t FeatureCount(const agis::uilib::InterfaceObject* window) {
    if (window == nullptr) return std::numeric_limits<size_t>::max();
    const auto* area = window->FindDescendant("presentation");
    if (area == nullptr) return std::numeric_limits<size_t>::max();
    return std::stoul(area->GetProperty(agis::uilib::kPropFeatureCount));
  }

  void CheckWinner(const agis::uilib::InterfaceObject* window,
                   const agis::UserContext& ctx, WindowEvent event,
                   const std::string& cls) {
    const std::string expected = ExpectedWinner(pop_.directives, ctx, event, cls);
    const std::string got =
        window == nullptr ? "<no window>" : window->GetProperty("customization_directive");
    result_->Check(got == expected,
                   agis::StrCat("browse: ", ctx.ToString(), " window for ", cls,
                                " customized by '", got, "', expected '",
                                expected, "'"));
  }

  /// "Pole=<levels> Cable=<levels>" of the directives that win under
  /// `ctx`, levels from U(ser), C(ategory), A(pplication); "-" generic.
  std::string VisitKind(const agis::UserContext& ctx) const {
    std::string kind;
    for (const char* cls : {"Pole", "Cable"}) {
      const std::string name = ExpectedWinner(pop_.directives, ctx, WindowEvent::kClass, cls);
      std::string levels;
      if (name.find(" user=") != std::string::npos) levels += 'U';
      if (name.find(" category=") != std::string::npos) levels += 'C';
      if (name.find(" application=") != std::string::npos) levels += 'A';
      kind += agis::StrCat(kind.empty() ? "" : " ", cls, "=", levels.empty() ? "-" : levels);
    }
    return kind;
  }

  /// Times one customization lookup the way the dispatcher makes it.
  std::optional<agis::active::WindowCustomization> TimedSelect(
      const agis::UserContext& ctx, const char* event_name,
      std::map<std::string, std::string> params, PhaseStats* ps,
      double* stage) {
    agis::active::Event event;
    event.name = event_name;
    event.context = ctx;
    event.params = std::move(params);
    const Clock::time_point t0 = Clock::now();
    auto payload = sys_->engine().GetCustomization(event);
    const double us = MicrosBetween(t0, Clock::now());
    ps->layers["active.select_us"].Add(us);
    *stage += us;
    if (!payload.ok()) return std::nullopt;
    return payload.value();
  }

  /// Outside-in timing of one Class-set window: select, Get_Class,
  /// builder (with the precomputed result, carto render included).
  void TraceClassWindow(const agis::UserContext& ctx, const std::string& cls,
                        const agis::builder::BuildOptions& options,
                        PhaseStats* ps, double* stage) {
    auto payload = TimedSelect(ctx, agis::active::kEventGetClass,
                                {{"class", cls}}, ps, stage);
    Clock::time_point t0 = Clock::now();
    auto rows = sys_->database().GetClass(cls, options.query, ctx);
    double us = MicrosBetween(t0, Clock::now());
    ps->layers["geodb.get_class_us"].Add(us);
    *stage += us;
    if (!rows.ok()) return;
    ps->layers["geodb.rows_per_get_class"].Add(static_cast<double>(rows.value().ids.size()));
    agis::builder::BuildOptions build = options;
    build.precomputed = &rows.value();
    t0 = Clock::now();
    auto window = sys_->builder().BuildClassSetWindow(
        cls, payload ? &*payload : nullptr, ctx, build);
    us = MicrosBetween(t0, Clock::now());
    ps->layers["builder.class_window_us"].Add(us);
    *stage += us;
    if (window.ok()) {
      ps->layers["builder.features_per_window"].Add(
          static_cast<double>(FeatureCount(window.value().get())));
    }
  }

  void Visit(Rng& rng, bool traced, PhaseStats* ps) {
    const agis::UserContext& ctx = pop_.contexts[rng.Uniform(pop_.contexts.size())];
    const Viewport& vp = viewports_[skew_->Draw(rng)];
    agis::ui::Dispatcher& ui = sys_->dispatcher();
    agis::builder::BuildOptions options;
    options.query.window = agis::geom::BoundingBox(vp.rect.x0, vp.rect.y0,
                                                   vp.rect.x1, vp.rect.y1);
    double stage = 0;
    bool ok = true;
    const Clock::time_point t0 = Clock::now();
    ui.set_context(ctx);
    ui.set_build_options(options);
    if (traced) {
      TimedSelect(ctx, agis::active::kEventGetSchema, {{"schema", "phone_net"}},
                  ps, &stage);
    }
    ok &= ui.OpenSchemaWindow().ok();
    for (const char* cls : {"Pole", "Cable"}) {
      if (traced) TraceClassWindow(ctx, cls, options, ps, &stage);
      const Clock::time_point w0 = Clock::now();
      ok &= ui.OpenClassWindow(cls).ok();
      if (traced) ps->layers["ui.open_window_us"].Add(MicrosBetween(w0, Clock::now()));
    }
    auto instance = ui.SelectInstanceAt(
        "Pole", agis::geom::Point{vp.click_x, vp.click_y}, kClickTolerance);
    ok &= instance.ok();
    if (traced && instance.ok()) {
      const geodb::ObjectId id = vp.click_target;
      auto payload = TimedSelect(ctx, agis::active::kEventGetValue,
                                 {{"class", "Pole"}, {"object", agis::StrCat(id)}},
                                 ps, &stage);
      const Clock::time_point b0 = Clock::now();
      auto window = sys_->builder().BuildInstanceWindow(
          id, payload ? &*payload : nullptr, ctx, options);
      const double us = MicrosBetween(b0, Clock::now());
      ps->layers["builder.instance_window_us"].Add(us);
      stage += us;
      ok &= window.ok();
    }
    const Clock::time_point t1 = Clock::now();

    // Checks, outside the op's time.
    const auto* schema = ui.FindWindow("Schema: phone_net");
    const auto* pole = ui.FindWindow("Class set: Pole");
    const auto* cable = ui.FindWindow("Class set: Cable");
    result_->Check(FeatureCount(pole) == vp.poles,
                   agis::StrCat("browse: Pole window shows ", FeatureCount(pole),
                                " features, reference ", vp.poles));
    result_->Check(FeatureCount(cable) == vp.cables,
                   agis::StrCat("browse: Cable window shows ", FeatureCount(cable),
                                " features, reference ", vp.cables));
    const std::string inst_name = agis::StrCat("Instance: Pole#", vp.click_target);
    const auto* inst = ui.FindWindow(inst_name);
    result_->Check(inst != nullptr,
                   agis::StrCat("browse: click did not open ", inst_name));
    CheckWinner(schema, ctx, WindowEvent::kSchema, "");
    CheckWinner(pole, ctx, WindowEvent::kClass, "Pole");
    CheckWinner(cable, ctx, WindowEvent::kClass, "Cable");
    if (inst != nullptr) CheckWinner(inst, ctx, WindowEvent::kInstance, "Pole");

    std::vector<std::string> names;
    for (const auto* w : ui.windows()) names.push_back(w->name());
    const Clock::time_point t2 = Clock::now();
    for (const std::string& n : names) ok &= ui.CloseWindow(n).ok();
    const Clock::time_point t3 = Clock::now();

    ++ps->ops;
    if (!ok) ++ps->failed;
    ps->AddOp(MicrosBetween(t0, t1) + MicrosBetween(t2, t3));
    by_kind_[VisitKind(ctx)].Add(MicrosBetween(t0, t1) + MicrosBetween(t2, t3));
    if (traced) ps->stage_us.Add(stage);
  }

  RunResult* result_;
  std::unique_ptr<ActiveInterfaceSystem> sys_;
  World world_;
  Population pop_;
  std::vector<Viewport> viewports_;
  std::unique_ptr<SkewedPick> skew_;
  double install_ms_ = 0;
  std::map<std::string, Samples> by_kind_;
  uint64_t phase_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeBrowse(uint64_t seed, RunResult* r) {
  return std::make_unique<Browse>(seed, r);
}

}  // namespace e2e
