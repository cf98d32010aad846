#pragma once
/// \file flat_drc.hpp
/// The traditional mask-level design rule checker the paper argues
/// against: the chip is fully instantiated, all topological and device
/// information is discarded, and checking happens on per-layer mask
/// geometry with the shrink-expand-compare width technique (Lindsay &
/// Preas [7]) and the expand-check-overlap spacing technique.
///
/// This is the comparison baseline for the Fig. 1 experiment: it exhibits
///   * false errors: spacing flags between electrically equivalent
///     shapes (Fig. 5a), corner artifacts in Euclidean mode (Fig. 4),
///     metric disagreement on diagonal spacing;
///   * unchecked errors: device-dependent rules (Fig. 6), contact over
///     gate (Fig. 7, indistinguishable from a butting contact at mask
///     level), accidental transistors (Fig. 8, "it forms a legal
///     transistor"), and all electrical construction rules.

#include <string>
#include <vector>

#include "layout/library.hpp"
#include "report/violation.hpp"
#include "tech/technology.hpp"

namespace dic::engine {
class HierarchyView;
}  // namespace dic::engine

namespace dic::baseline {

struct Options {
  geom::Metric metric{geom::Metric::kOrthogonal};
  /// Check width with shrink-expand-compare (Fig. 4 pathologies included).
  bool checkWidth{true};
  /// Check same-layer and inter-layer spacing with expand-check-overlap.
  bool checkSpacing{true};
  /// Check contact enclosure on mask geometry (metal and poly-or-diff
  /// must enclose every cut) -- the mask-level approximation of contact
  /// device rules.
  bool checkContacts{true};
};

struct Stats {
  std::size_t flatShapes{0};
  std::size_t layerComponents{0};
  std::size_t pairChecks{0};
};

/// Run the baseline checker on the fully instantiated design.
report::Report check(const layout::Library& lib, layout::CellId root,
                     const tech::Technology& tech, const Options& opts = {},
                     Stats* stats = nullptr);

/// Same, on a shared engine::HierarchyView: the flat
/// (device-geometry-included) view and its grid indexes come from the
/// view's caches instead of being rebuilt, which is how the Workspace
/// amortizes repeated baseline runs.
report::Report check(engine::HierarchyView& view, const tech::Technology& tech,
                     const Options& opts = {}, Stats* stats = nullptr);

}  // namespace dic::baseline
