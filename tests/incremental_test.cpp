// Randomized differential tests of incremental edit-then-check: after
// every random edit the incrementally served CheckResult must be
// byte-for-byte the result of a cold full rebuild on a mirrored library
// (report text AND canonical netlist), across thread counts and server
// shard counts, plus directed degenerate-edit cases (zero-area rects,
// halo-boundary-exact spacing, empty cells, edit-then-drop).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "netlist_canonical.hpp"
#include "server/server.hpp"
#include "service/workspace.hpp"
#include "workload/generator.hpp"
#include "workload/inject.hpp"
#include "workload/traffic.hpp"

namespace dic {
namespace {

using netlist::testing::canonicalText;

/// splitmix64 — the repo's deterministic test/traffic generator idiom.
struct Rng {
  std::uint64_t s;
  explicit Rng(std::uint64_t seed) : s(seed) {}
  std::uint64_t next() {
    s += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = s;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  std::size_t uniform(std::size_t n) { return n ? next() % n : 0; }
  geom::Coord range(long long lo, long long hi) {
    return static_cast<geom::Coord>(
        lo + static_cast<long long>(uniform(static_cast<std::size_t>(hi - lo + 1))));
  }
};

workload::GeneratedChip makeChip(unsigned seed) {
  const tech::Technology t = tech::nmos();
  workload::GeneratedChip chip =
      workload::generateChip(t, {1, 1, 2, 2, true});
  workload::InjectionPlan plan;
  workload::inject(chip, t, plan, seed);
  return chip;
}

/// One random edit against the CURRENT library state (the caller applies
/// it to both the served workspace and the oracle mirror). Mix: moves
/// dominate (the incremental fast path), with resizes, adds/removes,
/// placement edits, and occasional device-cell edits (each a deliberate
/// full-rebuild fallback).
EditOp randomEdit(Rng& rng, const layout::Library& lib, layout::CellId top,
                  int& nameCounter) {
  std::vector<layout::CellId> withElems, withInsts, devWithElems;
  lib.forEachCellOnce(top, [&](layout::CellId id) {
    const layout::Cell& c = lib.cell(id);
    if (!c.isDevice() && !c.elements.empty()) withElems.push_back(id);
    if (!c.isDevice() && !c.instances.empty()) withInsts.push_back(id);
    if (c.isDevice() && !c.elements.empty()) devWithElems.push_back(id);
  });

  const auto pickElem = [&](const std::vector<layout::CellId>& pool)
      -> std::pair<layout::CellId, std::size_t> {
    const layout::CellId cell = pool[rng.uniform(pool.size())];
    return {cell, rng.uniform(lib.cell(cell).elements.size())};
  };
  const auto moveEdit = [&] {
    const auto [cell, idx] = pickElem(withElems);
    // Small nudges mostly (often connectivity-preserving), occasional
    // large jumps (usually netlist-changing).
    const geom::Coord scale = rng.uniform(4) == 0 ? 500 : 50;
    const geom::Transform t = geom::translate(
        {rng.range(-2, 2) * scale, rng.range(-2, 2) * scale});
    return EditOp::setElement(cell, idx,
                              lib.cell(cell).elements[idx].transformed(t));
  };

  const std::uint64_t roll = rng.uniform(100);
  if (roll < 45 || withElems.empty()) return moveEdit();
  if (roll < 65) {
    // Resize: replace with a box spanning a perturbed bbox (zero-width
    // degenerates allowed — clamped to closed-valid).
    const auto [cell, idx] = pickElem(withElems);
    const layout::Element& e = lib.cell(cell).elements[idx];
    geom::Rect r = e.bbox();
    r.hi.x += rng.range(-4, 6) * 50;
    r.hi.y += rng.range(-4, 6) * 50;
    if (r.hi.x < r.lo.x) r.hi.x = r.lo.x;
    if (r.hi.y < r.lo.y) r.hi.y = r.lo.y;
    return EditOp::setElement(cell, idx, layout::makeBox(e.layer, r, e.net));
  }
  if (roll < 75) {
    // Add a box near an existing element (structural: rebuild fallback).
    const auto [cell, idx] = pickElem(withElems);
    const layout::Element& e = lib.cell(cell).elements[idx];
    const geom::Rect b = e.bbox();
    const geom::Coord dx = rng.range(-6, 6) * 100;
    const geom::Coord dy = rng.range(-6, 6) * 100;
    EditOp op;
    op.kind = EditOp::Kind::kAddElement;
    op.cell = cell;
    op.element = layout::makeBox(
        e.layer, {{b.lo.x + dx, b.lo.y + dy}, {b.hi.x + dx, b.hi.y + dy}},
        e.net);
    return op;
  }
  if (roll < 83) {
    // Remove an element (keep at least one so later edits have targets).
    std::vector<layout::CellId> pool;
    for (layout::CellId id : withElems)
      if (lib.cell(id).elements.size() > 1) pool.push_back(id);
    if (pool.empty()) return moveEdit();
    const auto [cell, idx] = pickElem(pool);
    EditOp op;
    op.kind = EditOp::Kind::kRemoveElement;
    op.cell = cell;
    op.index = idx;
    return op;
  }
  if (roll < 89 && !withInsts.empty()) {
    // Duplicate an existing placement at an offset.
    const layout::CellId parent = withInsts[rng.uniform(withInsts.size())];
    const layout::Cell& c = lib.cell(parent);
    layout::Instance inst = c.instances[rng.uniform(c.instances.size())];
    inst.transform.t.x += rng.range(-3, 3) * 2000;
    inst.transform.t.y += rng.range(-3, 3) * 2000;
    inst.name = "x" + std::to_string(nameCounter++);
    EditOp op;
    op.kind = EditOp::Kind::kAddInstance;
    op.cell = parent;
    op.instance = std::move(inst);
    return op;
  }
  if (roll < 94) {
    // Remove a placement.
    std::vector<layout::CellId> pool;
    for (layout::CellId id : withInsts)
      if (lib.cell(id).instances.size() > 1) pool.push_back(id);
    if (pool.empty()) return moveEdit();
    const layout::CellId parent = pool[rng.uniform(pool.size())];
    EditOp op;
    op.kind = EditOp::Kind::kRemoveInstance;
    op.cell = parent;
    op.index = rng.uniform(lib.cell(parent).instances.size());
    return op;
  }
  if (!devWithElems.empty()) {
    // Device-cell element nudge: tryPatch must reject it and rebuild.
    const auto [cell, idx] = pickElem(devWithElems);
    const geom::Transform t =
        geom::translate({rng.range(-1, 1) * 50, rng.range(-1, 1) * 50});
    return EditOp::setElement(cell, idx,
                              lib.cell(cell).elements[idx].transformed(t));
  }
  return moveEdit();
}

/// Apply one EditOp to a plain library through the tracked API (the same
/// operations Workspace::applyEdits performs).
void applyToMirror(layout::Library& lib, const EditOp& e) {
  switch (e.kind) {
    case EditOp::Kind::kNone: break;
    case EditOp::Kind::kSetElement: lib.setElement(e.cell, e.index, e.element); break;
    case EditOp::Kind::kAddElement: lib.addElement(e.cell, e.element); break;
    case EditOp::Kind::kRemoveElement: lib.removeElement(e.cell, e.index); break;
    case EditOp::Kind::kAddInstance: lib.addInstance(e.cell, e.instance); break;
    case EditOp::Kind::kRemoveInstance: lib.removeInstance(e.cell, e.index); break;
  }
}

/// Run the full-rebuild oracle: mirror the edit, wipe every cache
/// (revision bump + edit-log clear, so nothing can be patched or
/// reused), and serve a cold request.
CheckResult oracleCheck(Workspace& oracle, layout::CellId top,
                        const EditOp& edit) {
  applyToMirror(oracle.library(), edit);
  oracle.library().invalidateCaches();
  return oracle.run(CheckRequest::drc(top));
}

void expectSameResult(const CheckResult& inc, const CheckResult& cold,
                      const std::string& what) {
  EXPECT_EQ(inc.ok(), cold.ok()) << what << ": " << inc.error;
  EXPECT_EQ(inc.report.text(), cold.report.text()) << what;
  EXPECT_EQ(inc.report.count(), cold.report.count()) << what;
  EXPECT_EQ(inc.netlist ? canonicalText(*inc.netlist) : "",
            cold.netlist ? canonicalText(*cold.netlist) : "")
      << what;
}

/// The oracle loop against a direct Workspace (no server): `threads`
/// sizes the served side's pool; the oracle always runs cold.
void runWorkspaceOracle(unsigned seed, int threads, int edits) {
  workload::GeneratedChip chip = makeChip(seed);
  const layout::CellId top = chip.top;
  const tech::Technology t = tech::nmos();
  Workspace served(chip.lib, t, {.threads = threads});
  Workspace oracle(chip.lib, t, {.threads = 1});
  Rng rng(seed * 1000003ULL + 17);
  int nameCounter = 0;
  // Warm-up: populate the incremental cache once.
  ASSERT_TRUE(served.run(CheckRequest::drc(top)).ok());
  for (int n = 0; n < edits; ++n) {
    const EditOp edit =
        randomEdit(rng, oracle.library(), top, nameCounter);
    CheckRequest req = CheckRequest::drc(top);
    req.edits.push_back(edit);
    const CheckResult inc = served.run(req);
    const CheckResult cold = oracleCheck(oracle, top, edit);
    expectSameResult(inc, cold,
                     "seed " + std::to_string(seed) + " edit " +
                         std::to_string(n));
    if (::testing::Test::HasFailure()) break;
  }
}

/// The oracle loop through a dic::server::Server: edits ride
/// CheckRequests submitted to the owning shard; each library keeps its
/// own cold-oracle mirror.
void runServerOracle(unsigned seed, int shards, int threadsPerShard,
                     int libs, int edits) {
  server::ServerOptions opts;
  opts.shards = shards;
  opts.threadsPerShard = threadsPerShard;
  server::Server srv(opts);
  const tech::Technology t = tech::nmos();
  std::vector<std::string> ids;
  std::vector<std::unique_ptr<Workspace>> oracles;
  std::vector<layout::CellId> tops;
  for (int l = 0; l < libs; ++l) {
    workload::GeneratedChip chip = makeChip(seed + 100 * l);
    ids.push_back(workload::libraryName(l));
    tops.push_back(chip.top);
    ASSERT_TRUE(srv.addLibrary(ids.back(), chip.lib, t));
    oracles.push_back(std::make_unique<Workspace>(std::move(chip.lib), t,
                                                  WorkspaceOptions{1}));
    ASSERT_TRUE(
        srv.submit(ids.back(), CheckRequest::drc(tops.back())).get().ok());
  }
  Rng rng(seed * 7919ULL + 3);
  int nameCounter = 0;
  for (int n = 0; n < edits; ++n) {
    const std::size_t l = rng.uniform(oracles.size());
    const EditOp edit =
        randomEdit(rng, oracles[l]->library(), tops[l], nameCounter);
    CheckRequest req = CheckRequest::drc(tops[l]);
    req.edits.push_back(edit);
    const CheckResult inc = srv.submit(ids[l], req).get();
    const CheckResult cold = oracleCheck(*oracles[l], tops[l], edit);
    expectSameResult(inc, cold,
                     "seed " + std::to_string(seed) + " lib " + ids[l] +
                         " edit " + std::to_string(n));
    if (::testing::Test::HasFailure()) break;
  }
}

// ---- the ISSUE's oracle matrix: >=50 edits x 4 seeds x threads {1,8}
// ---- x shards {1,4}, byte-identical each step.

TEST(Incremental, OracleThreads1) {
  for (unsigned seed : {1u, 2u, 3u, 4u}) runWorkspaceOracle(seed, 1, 50);
}

TEST(Incremental, OracleThreads8) {
  for (unsigned seed : {1u, 2u, 3u, 4u}) runWorkspaceOracle(seed, 8, 50);
}

TEST(Incremental, OracleServer1Shard) {
  for (unsigned seed : {11u, 12u, 13u, 14u})
    runServerOracle(seed, 1, 1, 1, 50);
}

TEST(Incremental, OracleServer4Shards) {
  for (unsigned seed : {21u, 22u, 23u, 24u})
    runServerOracle(seed, 4, 8, 3, 50);
}

// ---- telemetry: the fast path is actually taken -----------------------

TEST(Incremental, FastPathEngagesOnPlainMove) {
  workload::GeneratedChip chip = makeChip(5);
  const tech::Technology t = tech::nmos();
  Workspace ws(chip.lib, t, {.threads = 1});
  ASSERT_TRUE(ws.run(CheckRequest::drc(chip.top)).ok());
  // Nudge one element of the block cell: kSet on a composite cell — the
  // cached view must patch (viewCacheHit) and the run must reuse cached
  // units (incrementalHit). NOTE: const access — the mutable cell()
  // overload conservatively invalidates all caches.
  const layout::Cell& blk = std::as_const(ws.library()).cell(chip.block);
  ASSERT_FALSE(blk.elements.empty());
  CheckRequest req = CheckRequest::drc(chip.top);
  req.edits.push_back(EditOp::setElement(
      chip.block, 0,
      blk.elements[0].transformed(geom::translate({50, 0}))));
  const std::uint64_t rev = std::as_const(ws).library().revision();
  const CheckResult r = ws.run(req);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_TRUE(r.viewCacheHit);
  EXPECT_TRUE(r.incrementalHit);
  // The edit is the only mutation: patching reads the library, so it
  // must not bump the revision (and clear the edit log) a second time.
  EXPECT_EQ(std::as_const(ws).library().revision(), rev + 1);
  // A structural edit falls back: fresh view, cold (populating) run.
  CheckRequest req2 = CheckRequest::drc(chip.top);
  EditOp add;
  add.kind = EditOp::Kind::kAddElement;
  add.cell = chip.block;
  add.element = blk.elements[0];
  req2.edits.push_back(add);
  const CheckResult r2 = ws.run(req2);
  ASSERT_TRUE(r2.ok()) << r2.error;
  EXPECT_FALSE(r2.viewCacheHit);
  EXPECT_FALSE(r2.incrementalHit);
}

TEST(Incremental, EditPathKeepsNetlistWithoutColdFlatView) {
  // A cold DRC builds no flat view, so the pre-edit state the netlist
  // probes compare against must be materialized when the first edit
  // lands. Counted over the fleet chip's nudge traffic: how many
  // edit-then-check requests reuse the cached netlist, and every report
  // must equal a fresh Workspace's on the same library.
  const tech::Technology t = tech::nmos();
  workload::GeneratedChip chip = workload::fleetChip(t);
  const layout::CellId top = chip.top;
  Workspace ws(std::move(chip.lib), t, {.threads = 2});
  ASSERT_TRUE(ws.run(CheckRequest::drc(top)).ok());
  int netlistKept = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    CheckRequest req = CheckRequest::drc(top);
    req.edits.push_back(
        workload::makeEditOp(seed, std::as_const(ws).library(), top));
    ASSERT_EQ(req.edits.back().kind, EditOp::Kind::kSetElement);
    const CheckResult r = ws.run(req);
    ASSERT_TRUE(r.ok()) << r.error;
    netlistKept += r.netlistCacheHit ? 1 : 0;
    Workspace fresh(std::as_const(ws).library(), t, {.threads = 1});
    const CheckResult cold = fresh.run(CheckRequest::drc(top));
    expectSameResult(r, cold, "seed " + std::to_string(seed));
    if (::testing::Test::HasFailure()) break;
  }
  // The count reached when extraction still built the flat view.
  EXPECT_EQ(netlistKept, 161);
}

// ---- directed degenerate edits ----------------------------------------

/// A hand-built two-level library whose geometry the tests position
/// exactly: parent holds one metal probe element plus two leaf
/// instances; the leaf holds one metal box.
struct TinyFixture {
  layout::Library lib;
  layout::CellId leaf{0};
  layout::CellId parent{0};
  static constexpr int kMetal = 3;  // nmos(): ND,NP,NC,NM
  TinyFixture() {
    layout::Cell lc;
    lc.name = "leaf";
    lc.elements.push_back(
        layout::makeBox(kMetal, {{0, 0}, {1000, 1000}}));
    leaf = lib.addCell(std::move(lc));
    layout::Cell pc;
    pc.name = "parent";
    pc.elements.push_back(
        layout::makeBox(kMetal, {{-5000, 0}, {-4000, 1000}}));
    pc.instances.push_back({leaf, geom::translate({0, 0}), "a"});
    pc.instances.push_back({leaf, geom::translate({8000, 0}), "b"});
    parent = lib.addCell(std::move(pc));
  }
};

TEST(Incremental, DegenerateZeroAreaAndHaloExact) {
  const tech::Technology t = tech::nmos();
  const geom::Coord dmax = t.maxInteractionDistance();
  ASSERT_GT(dmax, 0);
  TinyFixture fx;
  Workspace served(fx.lib, t, {.threads = 1});
  Workspace oracle(fx.lib, t, {.threads = 1});
  ASSERT_TRUE(served.run(CheckRequest::drc(fx.parent)).ok());

  const auto step = [&](const geom::Rect& r, const std::string& what) {
    const EditOp edit = EditOp::setElement(
        fx.parent, 0, layout::makeBox(TinyFixture::kMetal, r));
    CheckRequest req = CheckRequest::drc(fx.parent);
    req.edits.push_back(edit);
    const CheckResult inc = served.run(req);
    const CheckResult cold = oracleCheck(oracle, fx.parent, edit);
    expectSameResult(inc, cold, what);
  };

  // Zero-area (zero-width) probe rect.
  step({{-5000, 0}, {-5000, 1000}}, "zero-width");
  // Zero-area point rect.
  step({{-5000, 0}, {-5000, 0}}, "point");
  // Probe gap to leaf instance "a" (bbox x in [0,1000]) EXACTLY dmax:
  // the halo-boundary case the conservative closed-touch affectedness
  // test must classify identically to the oracle.
  step({{-dmax - 1000, 0}, {-dmax, 1000}}, "gap == dmax");
  // One unit outside the halo.
  step({{-dmax - 1001, 0}, {-dmax - 1, 1000}}, "gap == dmax+1");
  // One unit inside.
  step({{-dmax - 999, 0}, {-dmax + 1, 1000}}, "gap == dmax-1");
  // Touching (gap 0).
  step({{-1000, 0}, {0, 1000}}, "touching");
}

TEST(Incremental, EditEmptyCellAndStructuralFallback) {
  const tech::Technology t = tech::nmos();
  TinyFixture fx;
  // An initially empty cell instantiated by the parent.
  layout::Cell ec;
  ec.name = "empty";
  const layout::CellId empty = fx.lib.addCell(std::move(ec));
  {
    layout::Cell pc = fx.lib.cell(fx.parent);
    pc.instances.push_back({empty, geom::translate({4000, 0}), "e"});
    fx.lib.cell(fx.parent) = std::move(pc);
  }
  Workspace served(fx.lib, t, {.threads = 1});
  Workspace oracle(fx.lib, t, {.threads = 1});
  ASSERT_TRUE(served.run(CheckRequest::drc(fx.parent)).ok());

  const auto step = [&](const EditOp& edit, const std::string& what) {
    CheckRequest req = CheckRequest::drc(fx.parent);
    req.edits.push_back(edit);
    const CheckResult inc = served.run(req);
    const CheckResult cold = oracleCheck(oracle, fx.parent, edit);
    expectSameResult(inc, cold, what);
  };

  // Populate the empty cell (structural; falls back to rebuild)...
  EditOp add;
  add.kind = EditOp::Kind::kAddElement;
  add.cell = empty;
  add.element =
      layout::makeBox(TinyFixture::kMetal, {{0, 0}, {800, 800}});
  step(add, "add-to-empty");
  // ...then edit the newly added element in place (fast path).
  step(EditOp::setElement(
           empty, 0,
           layout::makeBox(TinyFixture::kMetal, {{100, 100}, {900, 900}})),
       "set-in-formerly-empty");
  // ...and empty it again.
  EditOp rm;
  rm.kind = EditOp::Kind::kRemoveElement;
  rm.cell = empty;
  rm.index = 0;
  step(rm, "remove-back-to-empty");
}

TEST(Incremental, EditThenDropLibrary) {
  server::ServerOptions opts;
  opts.shards = 2;
  server::Server srv(opts);
  const tech::Technology t = tech::nmos();
  workload::GeneratedChip chip = makeChip(7);
  ASSERT_TRUE(srv.addLibrary("lib", chip.lib, t));
  CheckRequest req = CheckRequest::drc(chip.top);
  const layout::Cell& blk = std::as_const(chip.lib).cell(chip.block);
  req.edits.push_back(EditOp::setElement(
      chip.block, 0,
      blk.elements[0].transformed(geom::translate({50, 50}))));
  ASSERT_TRUE(srv.submit("lib", CheckRequest::drc(chip.top)).get().ok());
  ASSERT_TRUE(srv.submit("lib", req).get().ok());
  // Drop while the edited state (patched view + incremental cache) is
  // live; a subsequent submit must fail cleanly...
  ASSERT_TRUE(srv.dropLibrary("lib"));
  EXPECT_FALSE(srv.submit("lib", CheckRequest::drc(chip.top)).get().ok());
  // ...and a re-registered pristine copy must serve from scratch,
  // including another edit-then-check round.
  ASSERT_TRUE(srv.addLibrary("lib", chip.lib, t));
  ASSERT_TRUE(srv.submit("lib", CheckRequest::drc(chip.top)).get().ok());
  const CheckResult again = srv.submit("lib", req).get();
  ASSERT_TRUE(again.ok()) << again.error;
}

}  // namespace
}  // namespace dic
