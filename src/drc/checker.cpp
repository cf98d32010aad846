#include "drc/checker.hpp"

#include <chrono>
#include <memory>

#include "drc/stages.hpp"
#include "engine/arena.hpp"
#include "obs/trace.hpp"

namespace dic::drc {

DirtyInfo computeDirtyInfo(const engine::HierarchyView& view,
                           const std::vector<layout::CellEdit>& edits) {
  DirtyInfo out;
  for (const layout::CellEdit& e : edits) {
    out.dirtyCells.insert(e.cell);
    std::vector<geom::Rect>& rects = out.dirtyRects[e.cell];
    rects.push_back(e.oldElement.bbox());
    rects.push_back(e.newElement.bbox());
  }
  if (out.dirtyRects.empty()) return out;
  // Propagate bottom-up. cells() is post-order (substrates before users),
  // so when a parent is reached every child's rect list is final and one
  // pass suffices; each instance folds its child's rects through the
  // instance transform into the parent's frame. Rect lists are capped by
  // hull collapse — conservative (a bigger dirty region only recomputes
  // more), never unsound.
  const layout::Library& lib = view.library();
  constexpr std::size_t kMaxDirtyRects = 64;
  for (layout::CellId id : view.cells()) {
    const layout::Cell& c = lib.cell(id);
    std::vector<geom::Rect>* mine = nullptr;
    for (const layout::Instance& inst : c.instances) {
      auto it = out.dirtyRects.find(inst.cell);
      if (it == out.dirtyRects.end()) continue;
      if (!mine) mine = &out.dirtyRects[id];
      for (const geom::Rect& r : it->second)
        mine->push_back(inst.transform.apply(r));
    }
    if (mine && mine->size() > kMaxDirtyRects) {
      geom::Rect hull = (*mine)[0];
      for (const geom::Rect& r : *mine) hull = geom::bound(hull, r);
      mine->assign(1, hull);
    }
  }
  return out;
}

Checker::Checker(const layout::Library& lib, layout::CellId root,
                 const tech::Technology& tech, Options options)
    : Checker(std::make_shared<engine::HierarchyView>(lib, root), tech,
              std::move(options)) {}

Checker::Checker(std::shared_ptr<engine::HierarchyView> view,
                 const tech::Technology& tech, Options options)
    : lib_(view->library()),
      root_(view->root()),
      tech_(tech),
      opt_(std::move(options)),
      view_(std::move(view)) {}

void Checker::emitInstantiated(report::Report& rep, layout::CellId cell,
                               report::Violation v) {
  if (!opt_.instantiateViolations) {
    rep.add(std::move(v));
    return;
  }
  for (const engine::Placement& p : view_->placementsOf(cell)) {
    report::Violation inst = v;
    inst.where = p.transform.apply(v.where);
    if (!p.path.empty()) inst.cell = p.path + " (" + v.cell + ")";
    rep.add(std::move(inst));
  }
}

report::Report Checker::run() {
  engine::Executor exec(opt_.threads);
  return run(exec);
}

report::Report Checker::run(engine::Executor& exec) {
  nl_ = nullptr;
  times_ = {};
  // The Fig. 10 stages in order, each on the calling thread and fanning
  // its own work across `exec`. A stage body runs inside a scratch-arena
  // scope and a span named after the stage, and its wall clock lands in
  // its StageTimes slot. A throwing stage propagates: later stages never
  // start and keep a zero time. Reports merge in this same order.
  const auto stage = [](const char* name, double& seconds,
                        const auto& body) {
    const auto t0 = std::chrono::steady_clock::now();
    report::Report r;
    {
      engine::ArenaScope scratch(engine::scratchArena());
      obs::ScopedSpan span(name);
      r = body();
    }
    seconds = std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
    return r;
  };
  report::Report rep = stage("elements", times_.elements,
                             [&] { return checkElementsImpl(exec); });
  rep.merge(stage("symbols", times_.symbols,
                  [&] { return checkPrimitiveSymbolsImpl(exec); }));
  rep.merge(stage("connections", times_.connections,
                  [&] { return checkConnectionsImpl(exec); }));
  stage("netlist", times_.netlist, [&] {
    nl_ = supplier_ ? supplier_(exec)
                    : std::make_shared<const netlist::Netlist>(
                          netlist::extract(*view_, tech_, exec, opt_.extract));
    return report::Report{};
  });
  rep.merge(stage("interactions", times_.interactions,
                  [&] { return checkInteractionsImpl(*nl_, exec); }));
  return rep;
}

report::Report Checker::perCellStage(
    engine::Executor& exec, int cacheSlot,
    const std::function<void(layout::CellId, report::Report&)>& fn) {
  const std::vector<layout::CellId>& cells = view_->cells();
  view_->placements();  // built once, read-only for the workers below
  std::vector<report::Report> reps(cells.size());
  // Reuse path: only cells whose own content changed recompute; every
  // clean cell takes its cached report verbatim. The merge below runs in
  // the same cells() order either way, so the output is byte-identical to
  // a full recompute.
  const bool reuse = icache_ && idirty_ && icache_->valid &&
                     icache_->cells == cells &&
                     icache_->perCell[cacheSlot].size() == cells.size();
  if (reuse) {
    const std::vector<report::Report>& cached = icache_->perCell[cacheSlot];
    exec.parallelFor(cells.size(), [&](std::size_t k) {
      if (idirty_->dirtyCells.count(cells[k]))
        fn(cells[k], reps[k]);
      else
        reps[k] = cached[k];
    });
  } else {
    exec.parallelFor(cells.size(),
                     [&](std::size_t k) { fn(cells[k], reps[k]); });
  }
  if (icache_) icache_->perCell[cacheSlot] = reps;
  report::Report out;
  for (const report::Report& r : reps) out.merge(r);
  return out;
}

report::Report Checker::checkElements() {
  engine::Executor exec(opt_.threads);
  return checkElementsImpl(exec);
}

report::Report Checker::checkElementsImpl(engine::Executor& exec) {
  return perCellStage(exec, 0, [&](layout::CellId id, report::Report& rep) {
    const layout::Cell& c = lib_.cell(id);
    if (c.isDevice()) return;  // device geometry is stage 2's business
    for (const layout::Element& e : c.elements) {
      for (report::Violation v : checkElementWidth(e, tech_)) {
        v.cell = c.name;
        emitInstantiated(rep, id, std::move(v));
      }
    }
  });
}

report::Report Checker::checkPrimitiveSymbols() {
  engine::Executor exec(opt_.threads);
  return checkPrimitiveSymbolsImpl(exec);
}

report::Report Checker::checkPrimitiveSymbolsImpl(engine::Executor& exec) {
  if (!opt_.checkDevices) return {};
  return perCellStage(exec, 1, [&](layout::CellId id, report::Report& rep) {
    const layout::Cell& c = lib_.cell(id);
    if (!c.isDevice() || c.prechecked) return;
    for (report::Violation v : checkDeviceCell(c, tech_)) {
      v.cell = c.name;
      emitInstantiated(rep, id, std::move(v));
    }
  });
}

report::Report Checker::checkConnections() {
  engine::Executor exec(opt_.threads);
  return checkConnectionsImpl(exec);
}

report::Report Checker::checkConnectionsImpl(engine::Executor& exec) {
  return perCellStage(exec, 2, [&](layout::CellId id, report::Report& rep) {
    const layout::Cell& c = lib_.cell(id);
    if (c.isDevice()) return;
    for (report::Violation v : checkCellConnections(c, tech_)) {
      v.cell = c.name;
      emitInstantiated(rep, id, std::move(v));
    }
  });
}

netlist::Netlist Checker::generateNetlist() {
  engine::Executor exec(opt_.threads);
  return netlist::extract(*view_, tech_, exec, opt_.extract);
}

report::Report Checker::checkInteractions(const netlist::Netlist& nl) {
  engine::Executor exec(opt_.threads);
  return checkInteractionsImpl(nl, exec);
}

report::Report Checker::checkInteractionsImpl(const netlist::Netlist& nl,
                                              engine::Executor& exec) {
  InteractionContext ctx{*view_,      tech_,   nl,
                         opt_.metric, istats_, opt_.useNetInformation};
  if (!opt_.hierarchicalInteractions) return checkInteractionsFlat(ctx, exec);
  report::Report rep =
      checkInteractionsHierarchical(ctx, exec, icache_, idirty_);
  // Record the netlist the cached items now reflect. A netlist the
  // checker does not share cannot be kept, so the next run recomputes
  // every item.
  if (icache_) icache_->netlist = &nl == nl_.get() ? nl_ : nullptr;
  return rep;
}

}  // namespace dic::drc
