#pragma once
// The three workloads and the traced layer peel (dicbench/README.md).

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "service/workspace.hpp"

namespace dic::server {
struct ServerStats;
}

namespace dicbench {

/// cold_chip: fresh Workspace + one hierarchical DRC per generated chip,
/// closed loop, alternating a ~28k and a ~113k flat-element chip.
Outcome runColdChip(const RunConfig& cfg);

/// tcp_read / tcp_edit: open-loop Poisson traffic at fixed rates into a
/// spawned example_check_server_tcp over <= 2 connections.
Outcome runTcp(const RunConfig& cfg, bool edits);

/// Materializes edit-then-check DRC requests for one library: calls
/// alternate between a workload::makeEditOp nudge of the start state and
/// the edit that restores the nudged element, so a long run oscillates
/// around the start state instead of random-walking the layout away.
class EditShadow {
 public:
  EditShadow(const dic::layout::Library& lib, dic::layout::CellId root)
      : lib_(lib), root_(root) {}
  dic::CheckRequest next(std::uint64_t seed);

 private:
  const dic::layout::Library& lib_;  ///< the start state; outlives this
  dic::layout::CellId root_;
  bool nudged_{false};
  dic::EditOp restore_{};
};

/// One library the peel loads: the layout plus the requests to replay
/// on it, in order (edits included; each request was materialized
/// against the library state the previous ones leave behind).
struct PeelLibrary {
  std::string id;
  dic::layout::Library lib;
  dic::layout::CellId root{0};
  std::vector<dic::CheckRequest> requests;
};

/// Everything the peel measures from outside the library.
struct PeelInput {
  std::vector<PeelLibrary> libraries;
  int threads{1};        ///< pool size of the measured path
  int shards{1};         ///< server shards of the peeled stacks
  int threadsPerShard{1};
};

/// Call each layer's public entry point on the same inputs — net::Client
/// (in-process listener), server::Server, Workspace, and the drc::Checker
/// stages on a fresh HierarchyView — record spans around each call into
/// `spans`, and add the per-layer metrics to `out.metrics`. Requests
/// whose responses differ between the layers count as failures.
/// Returns the peeled paths' times (seconds) for the caller's
/// unattributed remainder.
struct PeelTimes {
  double netRoundTrip{0};     ///< net::Client::check, mean per request
  double coldStages{0};       ///< view build + every checker stage
  double coldSerialRun{0};    ///< cold Workspace::run on one thread
};
PeelTimes peelLayers(PeelInput& in, SpanLog& spans, Outcome& out);

/// server.queue_wait_ms / server.service_ms (served-weighted means over
/// shards) and server.shard_imbalance (max / min served per shard).
void putServerStats(const dic::server::ServerStats& ss, Outcome& out);

}  // namespace dicbench
