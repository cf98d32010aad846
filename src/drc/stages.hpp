#pragma once
/// \file stages.hpp
/// Internal stage implementations of the DIC pipeline. Public interface is
/// drc/checker.hpp; these are exposed for unit testing of each stage.

#include <vector>

#include "drc/checker.hpp"
#include "engine/executor.hpp"
#include "engine/hierarchy_view.hpp"

namespace dic::drc {

/// Stage 1: width (and Manhattan validity) of a single interconnect
/// element. "Boxes and wires are trivial to check, polygons require a
/// more general purpose polygon width routine."
std::vector<report::Violation> checkElementWidth(const layout::Element& e,
                                                 const tech::Technology& tech);

/// Stage 2: the rules of one primitive device symbol (enclosures,
/// overlaps, contact-over-gate, device-dependent isolation rules).
std::vector<report::Violation> checkDeviceCell(const layout::Cell& cell,
                                               const tech::Technology& tech);

/// Stage 3: legal connections between elements of one cell: touching
/// same-layer elements must be skeletally connected (Fig. 11), otherwise
/// the union may be pinched below minimum width.
std::vector<report::Violation> checkCellConnections(
    const layout::Cell& cell, const tech::Technology& tech);

/// Shared context of the interaction stage (stage 5). All placement
/// enumeration, flattening, and candidate-pair queries go through the
/// engine::HierarchyView; the netlist's elementNet and devices are
/// indexed in the view's flat(false) order, so nets are looked up by
/// placement base + subtree-relative offset.
struct InteractionContext {
  InteractionContext(engine::HierarchyView& view_,
                     const tech::Technology& tech_,
                     const netlist::Netlist& nl_, geom::Metric metric_,
                     InteractionStats& stats_, bool useNets_ = true)
      : view(view_), tech(tech_), nl(nl_), metric(metric_), stats(stats_),
        useNets(useNets_) {}

  engine::HierarchyView& view;
  const tech::Technology& tech;
  const netlist::Netlist& nl;
  geom::Metric metric;
  /// Aggregate sink; parallel workers count into private copies that are
  /// merged here in deterministic order after the fan-out.
  InteractionStats& stats;
  bool useNets{true};
};

/// Stage 5, exact reference: flatten everything and check all candidate
/// pairs with the Fig. 12 matrix. Pair evaluation fans across the
/// executor's workers in deterministic chunks.
report::Report checkInteractionsFlat(InteractionContext& ctx,
                                     engine::Executor& exec);

/// Stage 5, hierarchical: per-cell-once intra-cell pairs plus
/// parent-element/instance and instance/instance overlap windows, each an
/// independent work item fanned across the executor's workers.
///
/// With `cache` set the per-item reports and stats of this run are stored
/// under their deterministic item keys; with `dirty` additionally set (and
/// DirtyInfo::reuseInteractions true) items whose window no transformed
/// dirty rect can reach take their cached result instead of recomputing —
/// merged in the identical item order, so the output is byte-for-byte the
/// cold-run report.
report::Report checkInteractionsHierarchical(InteractionContext& ctx,
                                             engine::Executor& exec,
                                             IncrementalCache* cache = nullptr,
                                             const DirtyInfo* dirty = nullptr);

}  // namespace dic::drc
