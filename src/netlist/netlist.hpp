#pragma once
/// \file netlist.hpp
/// The extracted netlist model: nets with hierarchical dot-notation names
/// (the paper: "a.b refers to element b in the instance a"), device
/// instances with typed terminals, and the extraction entry point.

#include <map>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "layout/library.hpp"
#include "tech/technology.hpp"

namespace dic::engine {
class Executor;
class HierarchyView;
}  // namespace dic::engine

namespace dic::netlist {

/// A device instance in the extracted circuit.
struct ExtractedDevice {
  std::string path;  ///< hierarchical instance path
  std::string type;  ///< CIF 4D device type string
  tech::DeviceClass cls{tech::DeviceClass::kContact};
  layout::CellId cell{0};
  geom::Rect bbox{};
  std::size_t firstPort{0};  ///< index of its first port in Netlist::portNet
};

/// One electrical net.
struct Net {
  int id{-1};
  std::vector<std::string> names;  ///< declared labels, global names first
  std::size_t elementCount{0};     ///< interconnect elements on the net
  geom::Rect bbox{};               ///< bounds of the net's geometry
  std::size_t terminalCount{0};    ///< device ports on the net

  /// Preferred display name: first declared label or "net<id>".
  std::string displayName() const {
    return names.empty() ? "net" + std::to_string(id) : names.front();
  }
  bool hasName(const std::string& n) const {
    for (const auto& s : names)
      if (s == n) return true;
    return false;
  }
};

/// The extracted circuit.
struct Netlist {
  std::vector<Net> nets;
  std::vector<ExtractedDevice> devices;
  /// Net id of each flattened interconnect element (parallel to the
  /// flatten() element order used during extraction).
  std::vector<int> elementNet;
  /// Net id of each flat device port: devices in order, each device's
  /// ports in its cell's `ports` order. Device d's ports are the slice
  /// starting at devices[d].firstPort (see portNets()).
  std::vector<int> portNet;
  /// Port names of each device cell, in its `ports` order, indexed by
  /// CellId (empty for every other cell): stored once per cell, not once
  /// per placed device.
  std::vector<std::vector<std::string>> cellPorts;

  /// The port nets of one device, in its cell's `ports` order.
  std::span<const int> portNets(const ExtractedDevice& d) const {
    return {portNet.data() + d.firstPort, cellPorts[d.cell].size()};
  }
  /// The port names of one device, parallel to portNets(d).
  const std::vector<std::string>& portNames(const ExtractedDevice& d) const {
    return cellPorts[d.cell];
  }
  /// Net of the port named `port` on device `d`, or null when the device
  /// has no such port.
  const int* findPortNet(const ExtractedDevice& d,
                         const std::string& port) const {
    const std::vector<std::string>& names = portNames(d);
    for (std::size_t k = 0; k < names.size(); ++k)
      if (names[k] == port) return &portNet[d.firstPort + k];
    return nullptr;
  }
  /// Same, throwing std::out_of_range (like std::map::at) when the device
  /// has no such port.
  int portNetAt(const ExtractedDevice& d, const std::string& port) const {
    const int* net = findPortNet(d, port);
    if (!net)
      throw std::out_of_range("device " + d.path + " has no port " + port);
    return *net;
  }

  const Net* findNet(const std::string& name) const {
    for (const Net& n : nets)
      if (n.hasName(name)) return &n;
    return nullptr;
  }
};

/// Extraction options.
struct ExtractOptions {
  /// Merge equal *global* labels even without touching geometry (power
  /// rails and chip-wide buses). A label is global if it starts with one
  /// of these prefixes; all other labels are local to their instance and
  /// are qualified with the dot-notation path ("a.b").
  bool mergeByLabel{true};
  std::vector<std::string> globalPrefixes{"VDD", "GND", "BUS",
                                          "IN",  "CLK", "PHI"};

  bool isGlobalLabel(const std::string& label) const {
    for (const std::string& p : globalPrefixes)
      if (label.rfind(p, 0) == 0) return true;
    return false;
  }

  /// Option equality gates netlist reuse: the Workspace caches one
  /// extraction per hierarchy view and shares it only across requests
  /// whose options compare equal.
  bool operator==(const ExtractOptions&) const = default;
};

/// Extract the netlist below `root`.
///
/// Connectivity rules (the paper's "check legal connections" stage):
///  * two interconnect elements on the same layer connect iff their
///    skeletons touch (Fig. 11);
///  * an element connects to a device port on the same layer iff its
///    region (closed) touches the port rect;
///  * ports of one device instance sharing an internalGroup are connected
///    through the device (contacts);
///  * device classes with no internal groups (FETs) keep terminals apart.
Netlist extract(const layout::Library& lib, layout::CellId root,
                const tech::Technology& tech, const ExtractOptions& opts = {});

/// Same, on a shared engine::HierarchyView -- the flat element order (and
/// thus Netlist::elementNet indexing) is the view's flat(false) order, so
/// a checker that shares the view gets consistent element-net lookups
/// from each placement's elemBase. The view's flat copies are never
/// built: counts, labels, bboxes and devices come from its placements.
///
/// Extraction is hierarchical (the paper's "generate hierarchical net
/// list"): connectivity geometry is probed once per cell definition and
/// orientation -- its own element pairs, its elements against each
/// child's window, and each touching child pair's overlap window -- as
/// edges between subtree-relative node ids. Each placement replays those
/// edges into one union-find over flat node ids as integer work. Nets are
/// numbered in first-encounter order over the flat(false) element order,
/// so the result is the one a flat extraction gives, byte for byte.
Netlist extract(engine::HierarchyView& view, const tech::Technology& tech,
                const ExtractOptions& opts = {});

/// Same, fanning the per-definition probes across `exec`'s worker pool.
/// Probes only collect edges into per-item slots; the union-find replay
/// and net numbering are serial, so the extracted netlist -- including
/// net numbering -- is byte-identical to the serial overloads for every
/// pool size.
Netlist extract(engine::HierarchyView& view, const tech::Technology& tech,
                engine::Executor& exec, const ExtractOptions& opts = {});

/// Work counters of one extraction. Kept out of Netlist, which goes on
/// the wire; deterministic for any pool size.
struct ExtractStats {
  std::size_t windows{0};  ///< child subtree windows collected
  std::size_t probes{0};   ///< node pairs given the exact connectivity test
};

/// Same, also reporting the work counters (added into `stats`).
Netlist extract(engine::HierarchyView& view, const tech::Technology& tech,
                engine::Executor& exec, const ExtractOptions& opts,
                ExtractStats& stats);

/// The connectivity edges incident to one flat element, as node ids in
/// extraction numbering: element indexes in [0, ne), then port nodes as
/// ne + portIndex (ne = view.flat(false).elements.size()). Sorted,
/// deduplicated. Applies the one connectivity predicate extract() uses
/// (same layer + closed bbox touch + skeleton connectivity for elements;
/// same layer + region-touches-port for ports), so two probes of the same
/// element before and after a geometry edit compare equal iff the edit
/// left every connection of that element intact. This is the incremental
/// check path's "netlist unchanged" test: if every edited element's edge
/// set (and net label) is unchanged, the extraction's union-find
/// partition — and therefore net numbering, names, and terminals — is
/// unchanged, and a cached netlist stays valid up to net bboxes
/// (refreshNetBBoxes). The one extraction-side reader of the flat view:
/// builds the view's flat(false) copy, grid and port indexes on first
/// use; extraction itself never needs them.
std::vector<std::size_t> probeElementEdges(engine::HierarchyView& view,
                                           const tech::Technology& tech,
                                           std::size_t flatIndex);

/// Recompute every net's bbox from `bboxes` (the view's current flat
/// element bboxes, parallel to Netlist::elementNet), replaying exactly
/// the fold extract() performs: reset to the default rect, then bound in
/// element index order. Used to patch a reused netlist after an edit
/// that moved geometry without changing connectivity.
void refreshNetBBoxes(Netlist& nl, const std::vector<geom::Rect>& bboxes);

/// Compare an extracted netlist against a golden device/connection list
/// ("check the net list against an input net list for consistency").
/// Returns human-readable mismatch descriptions (empty = consistent).
struct GoldenDevice {
  std::string type;
  /// Port name -> net label. Labels are matched up to renaming; named
  /// nets (VDD/GND) must match exactly.
  std::map<std::string, std::string> ports;
};
std::vector<std::string> compareAgainstGolden(
    const Netlist& extracted, const std::vector<GoldenDevice>& golden);

}  // namespace dic::netlist
