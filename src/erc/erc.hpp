#pragma once
/// \file erc.hpp
/// Non-geometric construction rules (the paper's fourth rule category):
///   1. a net must have at least two "devices" on it;
///   2. power and ground must not be shorted;
///   3. a "bus" may not connect to power or ground;
///   4. a depletion device may not connect to ground.
///
/// "Net list generation and non-geometric design verification have a lot
/// in common with DRC and should appropriately be handled by a single
/// program." -- these checks run on the netlist the DIC pipeline already
/// extracted.

#include <string>
#include <vector>

#include "netlist/netlist.hpp"
#include "report/violation.hpp"
#include "tech/technology.hpp"

namespace dic::erc {

struct Options {
  bool checkDanglingNets{true};
  bool checkPowerGroundShort{true};
  bool checkBusRules{true};
  bool checkDepletionToGround{true};
};

/// Run all enabled electrical construction rules.
report::Report check(const netlist::Netlist& nl, const tech::Technology& tech,
                     const Options& opts = {});

}  // namespace dic::erc
