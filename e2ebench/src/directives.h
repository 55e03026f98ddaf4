// Customization directives of the benchmark: its own copies of the
// paper's Figure 6 directive and the network-planner directive, plus
// a seeded population of users, categories and applications with
// directives at every specificity level. ExpectedWinner() names the
// directive the paper's order of specificity picks for a window.
#ifndef E2EBENCH_DIRECTIVES_H_
#define E2EBENCH_DIRECTIVES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "base/context.h"

namespace e2e {

struct DirectiveSpec {
  struct ClassClause {
    std::string cls;
    bool instances = false;  // Has an `instances` block (a Get_Value rule).
  };
  std::string user, category, application;
  bool schema_clause = false;
  std::vector<ClassClause> classes;
  std::string source;

  /// The provenance the system stamps on windows it customizes:
  /// "For user=U category=C application=A schema=S".
  std::string CanonicalName() const;
  bool Matches(const agis::UserContext& ctx) const;
};

struct Population {
  std::vector<DirectiveSpec> directives;  // Registration order.
  std::vector<agis::UserContext> contexts;
};

/// Figure 6 and planner copies first, then the generated directives.
/// The same for every run: the share of customized windows, and with
/// it the cost of a visit, must not move with the data seed.
Population MakePopulation();

enum class WindowEvent { kSchema, kClass, kInstance };

/// Canonical name of the winning directive for a window of `cls`
/// (ignored for kSchema) under `ctx`; empty = generic presentation.
/// Order: a user binding beats a category binding beats an
/// application binding; equal bindings go to the later registration.
std::string ExpectedWinner(const std::vector<DirectiveSpec>& directives,
                           const agis::UserContext& ctx, WindowEvent event,
                           const std::string& cls);

/// Hand-worked cases of the order above.
std::vector<std::string> SpecificitySelfTest();

}  // namespace e2e

#endif  // E2EBENCH_DIRECTIVES_H_
