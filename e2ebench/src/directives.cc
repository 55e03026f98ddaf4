#include "directives.h"

#include <sstream>
#include <tuple>

#include "harness.h"

namespace e2e {

namespace {

// Figure 6, the pole manager's customization (Section 4).
const char* kFigure6 = R"(For user juliano application pole_manager
schema phone_net display as Null
class Pole display
  control as poleWidget
  presentation as pointFormat
  instances
    display attribute pole_composition as composed_text
      from pole.material pole.diameter pole.height
      using composed_text.notify()
    display attribute pole_supplier as text
      from get_supplier_name(pole_supplier)
    display attribute pole_location as Null
)";

// Category-level customization for network planners.
const char* kPlanner = R"(For category network_planner application pole_manager
schema phone_net display as hierarchy
class ServiceRegion display
  presentation as regionFormat
class Pole display
  presentation as crossFormat
)";

const char* kApps[] = {"pole_manager", "network_planning", "maintenance",
                       "field_survey"};
const char* kCategories[] = {"network_planner", "field_crew", "engineering",
                             "management", "contractor", "operations"};

DirectiveSpec Generated(const std::string& user, const std::string& category,
                        const std::string& application, Rng& rng) {
  DirectiveSpec d;
  d.user = user;
  d.category = category;
  d.application = application;
  std::ostringstream src;
  src << "For";
  if (!user.empty()) src << " user " << user;
  if (!category.empty()) src << " category " << category;
  if (!application.empty()) src << " application " << application;
  src << "\n";
  if (rng.Chance(0.2)) {
    d.schema_clause = true;
    src << "schema phone_net display as hierarchy\n";
  }
  bool pole = rng.Chance(0.65), cable = rng.Chance(0.65);
  if (!pole && !cable) pole = true;
  if (pole) {
    static const char* kFormats[] = {"pointFormat", "crossFormat", "highlightFormat"};
    DirectiveSpec::ClassClause clause{"Pole", rng.Chance(0.5)};
    src << "class Pole display\n  presentation as " << kFormats[rng.Uniform(3)]
        << "\n";
    if (clause.instances) {
      src << "  instances\n"
             "    display attribute pole_supplier as text\n"
             "      from get_supplier_name(pole_supplier)\n"
             "    display attribute pole_historic as Null\n";
    }
    d.classes.push_back(clause);
  }
  if (cable) {
    static const char* kFormats[] = {"lineFormat", "highlightFormat"};
    DirectiveSpec::ClassClause clause{"Cable", rng.Chance(0.3)};
    src << "class Cable display\n  presentation as " << kFormats[rng.Uniform(2)]
        << "\n";
    if (clause.instances) {
      src << "  instances\n    display attribute cable_path as Null\n";
    }
    d.classes.push_back(clause);
  }
  d.source = src.str();
  return d;
}

/// Rank under the paper's order; registration index breaks ties.
std::tuple<int, int, int> Rank(const DirectiveSpec& d) {
  return {!d.user.empty(), !d.category.empty(), !d.application.empty()};
}

bool Applies(const DirectiveSpec& d, WindowEvent event, const std::string& cls) {
  if (event == WindowEvent::kSchema) return d.schema_clause;
  for (const auto& c : d.classes) {
    if (c.cls == cls) return event == WindowEvent::kClass || c.instances;
  }
  return false;
}

}  // namespace

std::string DirectiveSpec::CanonicalName() const {
  std::string out = "For";
  if (!user.empty()) out += " user=" + user;
  if (!category.empty()) out += " category=" + category;
  if (!application.empty()) out += " application=" + application;
  if (schema_clause) out += " schema=phone_net";
  return out;
}

bool DirectiveSpec::Matches(const agis::UserContext& ctx) const {
  return (user.empty() || user == ctx.user) &&
         (category.empty() || category == ctx.category) &&
         (application.empty() || application == ctx.application);
}

Population MakePopulation() {
  Rng rng(0xd1ec7195ULL);
  Population pop;
  DirectiveSpec fig6;
  fig6.user = "juliano";
  fig6.application = "pole_manager";
  fig6.schema_clause = true;
  fig6.classes = {{"Pole", true}};
  fig6.source = kFigure6;
  pop.directives.push_back(fig6);
  DirectiveSpec planner;
  planner.category = "network_planner";
  planner.application = "pole_manager";
  planner.schema_clause = true;
  planner.classes = {{"ServiceRegion", false}, {"Pole", false}};
  planner.source = kPlanner;
  pop.directives.push_back(planner);

  // Users: juliano plus 47 generated, each in one category, each
  // working in two applications.
  struct User {
    std::string name, category;
    std::vector<std::string> apps;
  };
  std::vector<User> users = {{"juliano", "network_planner",
                              {"pole_manager", "network_planning"}}};
  for (int i = 0; i < 47; ++i) {
    User u;
    char name[8];
    std::snprintf(name, sizeof(name), "u%02d", i);
    u.name = name;
    u.category = kCategories[rng.Uniform(6)];
    const size_t a = rng.Uniform(4);
    u.apps = {kApps[a], kApps[(a + 1 + rng.Uniform(3)) % 4]};
    users.push_back(u);
  }
  // Generic to specific, so a later registration never out-ranks by
  // order alone: application, category, category+application, user,
  // user+application.
  for (const char* app : kApps) {
    if (rng.Chance(0.75)) pop.directives.push_back(Generated("", "", app, rng));
  }
  for (const char* cat : kCategories) {
    if (rng.Chance(0.6)) pop.directives.push_back(Generated("", cat, "", rng));
  }
  for (const char* cat : kCategories) {
    for (const char* app : kApps) {
      const bool taken = std::string(cat) == "network_planner" &&
                         std::string(app) == "pole_manager";
      if (!taken && rng.Chance(0.3)) {
        pop.directives.push_back(Generated("", cat, app, rng));
      }
    }
  }
  for (const User& u : users) {
    if (u.name == "juliano") continue;
    if (rng.Chance(0.3)) pop.directives.push_back(Generated(u.name, "", "", rng));
    if (rng.Chance(0.3)) {
      pop.directives.push_back(
          Generated(u.name, "", u.apps[rng.Uniform(2)], rng));
    }
  }
  for (const User& u : users) {
    for (const std::string& app : u.apps) {
      agis::UserContext ctx;
      ctx.user = u.name;
      ctx.category = u.category;
      ctx.application = app;
      pop.contexts.push_back(ctx);
    }
  }
  return pop;
}

std::string ExpectedWinner(const std::vector<DirectiveSpec>& directives,
                           const agis::UserContext& ctx, WindowEvent event,
                           const std::string& cls) {
  const DirectiveSpec* best = nullptr;
  for (const DirectiveSpec& d : directives) {
    if (!d.Matches(ctx) || !Applies(d, event, cls)) continue;
    if (best == nullptr || Rank(d) >= Rank(*best)) best = &d;
  }
  return best == nullptr ? std::string() : best->CanonicalName();
}

std::vector<std::string> SpecificitySelfTest() {
  std::vector<std::string> failures;
  const auto make = [](std::string user, std::string cat, std::string app) {
    DirectiveSpec d;
    d.user = std::move(user);
    d.category = std::move(cat);
    d.application = std::move(app);
    d.classes = {{"Pole", false}};
    return d;
  };
  const DirectiveSpec app = make("", "", "pm");
  const DirectiveSpec cat = make("", "planner", "");
  const DirectiveSpec cat_app = make("", "planner", "pm");
  const DirectiveSpec user = make("ana", "", "");
  agis::UserContext ctx;
  ctx.user = "ana";
  ctx.category = "planner";
  ctx.application = "pm";
  const auto winner = [&](std::vector<DirectiveSpec> ds) {
    return ExpectedWinner(ds, ctx, WindowEvent::kClass, "Pole");
  };
  const auto expect = [&](bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  };
  expect(winner({}).empty(), "no directive: generic presentation");
  expect(winner({app}) == app.CanonicalName(), "application beats generic");
  expect(winner({app, cat}) == cat.CanonicalName(), "category beats application");
  expect(winner({cat, app}) == cat.CanonicalName(),
         "category beats application registered later");
  expect(winner({user, cat_app}) == user.CanonicalName(),
         "user beats category+application registered later");
  expect(winner({cat_app, cat}) == cat_app.CanonicalName(),
         "category+application beats category");
  DirectiveSpec other = user;
  other.user = "bob";
  expect(winner({other, app}) == app.CanonicalName(),
         "another user's directive does not match");
  expect(ExpectedWinner({user}, ctx, WindowEvent::kClass, "Cable").empty(),
         "a directive without a Cable clause leaves Cable generic");
  expect(ExpectedWinner({user}, ctx, WindowEvent::kInstance, "Pole").empty(),
         "a class clause without instances leaves the Instance window generic");
  DirectiveSpec app2 = app;
  app2.classes = {{"Pole", true}};
  expect(ExpectedWinner({app2, user}, ctx, WindowEvent::kInstance, "Pole") ==
             app2.CanonicalName(),
         "the Instance window falls back to the directive with instances");
  return failures;
}

}  // namespace e2e
