#include "erc/erc.hpp"

#include <algorithm>
#include <numeric>

namespace dic::erc {

namespace {

report::Violation electrical(std::string rule, std::string message,
                             const geom::Rect& where = {}) {
  report::Violation v;
  v.category = report::Category::kElectrical;
  v.severity = report::Severity::kError;
  v.rule = std::move(rule);
  v.message = std::move(message);
  v.where = where;
  return v;
}

bool isPowerOrGround(const netlist::Net& n, const tech::Technology& tech) {
  return n.hasName(tech.powerNet) || n.hasName(tech.groundNet);
}

bool isBusNet(const netlist::Net& n, const tech::Technology& tech) {
  for (const std::string& name : n.names) {
    // A label is a bus label if its last path component starts with the
    // bus prefix.
    const std::size_t dot = name.rfind('.');
    const std::string leaf = dot == std::string::npos
                                 ? name
                                 : name.substr(dot + 1);
    if (leaf.rfind(tech.busPrefix, 0) == 0) return true;
  }
  return false;
}

}  // namespace

report::Report check(const netlist::Netlist& nl, const tech::Technology& tech,
                     const Options& opts) {
  report::Report rep;

  if (opts.checkPowerGroundShort) {
    for (const netlist::Net& n : nl.nets) {
      if (n.hasName(tech.powerNet) && n.hasName(tech.groundNet)) {
        rep.add(electrical("ERC.PGSHORT",
                           "power (" + tech.powerNet + ") and ground (" +
                               tech.groundNet + ") are shorted"));
      }
    }
  }

  if (opts.checkDanglingNets) {
    for (const netlist::Net& n : nl.nets) {
      // Power/ground nets legitimately fan out to everything; the rule
      // targets signal nets ("a net must have at least two devices").
      if (isPowerOrGround(n, tech)) continue;
      if (n.terminalCount < 2) {
        rep.add(electrical(
            "ERC.DANGLING",
            "net " + n.displayName() + " has " +
                std::to_string(n.terminalCount) +
                " device terminal(s); a net must have at least two",
            n.bbox));
      }
    }
  }

  if (opts.checkBusRules) {
    for (const netlist::Net& n : nl.nets) {
      if (isBusNet(n, tech) && isPowerOrGround(n, tech)) {
        rep.add(electrical("ERC.BUS_PG", "bus net " + n.displayName() +
                                             " connects to power or ground"));
      }
    }
  }

  if (opts.checkDepletionToGround) {
    for (const netlist::ExtractedDevice& d : nl.devices) {
      if (d.cls != tech::DeviceClass::kDepletionFet) continue;
      // Ports in name order, so findings come out sorted by port name.
      const std::span<const int> nets = nl.portNets(d);
      const std::vector<std::string>& names = nl.portNames(d);
      std::vector<std::size_t> byName(names.size());
      std::iota(byName.begin(), byName.end(), std::size_t{0});
      std::sort(byName.begin(), byName.end(),
                [&](std::size_t a, std::size_t b) {
                  return names[a] < names[b];
                });
      for (const std::size_t k : byName) {
        const int net = nets[k];
        if (net < 0 || net >= static_cast<int>(nl.nets.size())) continue;
        if (nl.nets[net].hasName(tech.groundNet)) {
          rep.add(electrical(
              "ERC.DEPL_GND",
              "depletion device " + d.path + " terminal " + names[k] +
                  " connects to ground",
              d.bbox));
        }
      }
    }
  }

  return rep;
}

}  // namespace dic::erc
