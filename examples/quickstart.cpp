// Quickstart: build a small NMOS layout with the public API, submit the
// full DIC pipeline (Fig. 10) and the electrical construction rules as
// one dic::Workspace batch, print the report, and write the design to
// CIF with the 4N/4D extensions.
//
//   $ ./examples/quickstart
#include <cstdio>
#include <fstream>

#include "cif/writer.hpp"
#include "layout/cifio.hpp"
#include "service/workspace.hpp"
#include "structured/structured.hpp"
#include "tech/technology.hpp"
#include "workload/nmos_cells.hpp"

int main() {
  using namespace dic;

  // 1. A technology: the built-in Mead-Conway NMOS lambda rules.
  const tech::Technology t = tech::nmos();
  const geom::Coord L = t.lambda();
  std::printf("technology %s, lambda = %lld centimicrons\n",
              t.name().c_str(), static_cast<long long>(L));

  // 2. A library with the standard device cells and an inverter.
  layout::Library lib;
  const workload::NmosCells cells = workload::installNmosCells(lib, t);

  // 3. A top cell: two inverters sharing rails, plus one deliberate
  //    mistake -- a stray poly wire crossing the VDD diffusion riser.
  layout::Cell top;
  top.name = "demo";
  top.instances.push_back(
      {cells.inverter, {geom::Orient::kR0, {0, 0}}, "u1"});
  top.instances.push_back(
      {cells.inverter, {geom::Orient::kR0, {26 * L, 0}}, "u2"});
  const int np = *t.layerByName("poly");
  top.elements.push_back(layout::makeWire(
      np, {{9 * L, 31 * L}, {15 * L, 31 * L}}, 2 * L));  // the mistake
  const layout::CellId root = lib.addCell(std::move(top));

  // 4. One front door for everything: a Workspace owns the library and
  //    serves DRC and ERC as a batch -- the hierarchy view and the
  //    extracted netlist are built once and shared between the two.
  Workspace ws(std::move(lib), t);
  const CheckRequest reqs[] = {CheckRequest::drc(root),
                               CheckRequest::ercCheck(root)};
  std::vector<CheckResult> results = ws.runBatch(reqs);
  for (const CheckResult& r : results) {
    if (!r.ok()) {
      std::fprintf(stderr, "%s request failed: %s\n",
                   toString(r.kind).c_str(), r.error.c_str());
      return 2;
    }
  }
  report::Report rep = std::move(results[0].report);
  rep.merge(results[1].report);
  rep.merge(structured::checkImplicitDevices(ws.library(), root, t));

  const netlist::Netlist& nl = *results[1].netlist;
  std::printf("\nextracted %zu nets, %zu devices\n", nl.nets.size(),
              nl.devices.size());
  for (const netlist::Net& n : nl.nets) {
    if (!n.names.empty())
      std::printf("  net %-12s %zu elements, %zu terminals\n",
                  n.displayName().c_str(), n.elementCount,
                  n.terminalCount);
  }

  std::printf("\n%zu violation(s):\n%s", rep.count(), rep.text().c_str());

  // 5. Write the layout to CIF (with net and device-type extensions).
  const cif::CifFile file = layout::toCif(
      ws.library(), root, [&](int l) { return t.layer(l).cifName; });
  std::ofstream("quickstart.cif") << cif::write(file);
  std::printf("\nwrote quickstart.cif\n");
  return rep.empty() ? 0 : 1;
}
