#pragma once
// Shared test helper: one canonical text form of a netlist (nets, names,
// bboxes, terminals, devices, element-net map) so every byte-identity
// test compares the same fields. Not part of the library API.

#include <algorithm>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "netlist/netlist.hpp"

namespace dic::netlist::testing {

/// Each net's terminals print as "device:port:net;" in (device,
/// cell-port) order and each device's ports as "port=net;" in port-name
/// order, both derived from Netlist::portNet: the format every recorded
/// canonical text was pinned in.
inline std::string canonicalText(const Netlist& nl) {
  std::vector<std::string> terminals(nl.nets.size());
  std::vector<std::string> devicePorts(nl.devices.size());
  for (std::size_t d = 0; d < nl.devices.size(); ++d) {
    const std::span<const int> nets = nl.portNets(nl.devices[d]);
    const std::vector<std::string>& names = nl.portNames(nl.devices[d]);
    for (std::size_t k = 0; k < nets.size(); ++k)
      terminals.at(static_cast<std::size_t>(nets[k])) +=
          std::to_string(d) + ':' + names[k] + ':' + std::to_string(nets[k]) +
          ';';
    std::vector<std::size_t> byName(names.size());
    std::iota(byName.begin(), byName.end(), std::size_t{0});
    std::sort(byName.begin(), byName.end(),
              [&](std::size_t a, std::size_t b) {
                return names[a] < names[b];
              });
    for (const std::size_t k : byName)
      devicePorts[d] += names[k] + '=' + std::to_string(nets[k]) + ';';
  }
  std::ostringstream os;
  for (std::size_t i = 0; i < nl.nets.size(); ++i) {
    const Net& n = nl.nets[i];
    os << n.id << '|' << n.elementCount << '|' << n.bbox.lo.x << ','
       << n.bbox.lo.y << ',' << n.bbox.hi.x << ',' << n.bbox.hi.y << '|';
    for (const std::string& s : n.names) os << s << ';';
    os << terminals[i] << '\n';
  }
  for (std::size_t d = 0; d < nl.devices.size(); ++d)
    os << nl.devices[d].path << '|' << nl.devices[d].type << '|'
       << devicePorts[d] << '\n';
  for (int id : nl.elementNet) os << id << ',';
  return os.str();
}

}  // namespace dic::netlist::testing
