// Tests for the dic::Workspace check service: per-(root, revision) view
// cache semantics, netlist sharing, runBatch == sequential run() across
// pool sizes, per-request failure isolation, and the thread-safety of the
// library's bbox cache under cold concurrent lookups.
#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "engine/executor.hpp"
#include "engine/hierarchy_view.hpp"
#include "netlist_canonical.hpp"
#include "obs/trace.hpp"
#include "server/server.hpp"
#include "service/workspace.hpp"
#include "workload/generator.hpp"
#include "workload/inject.hpp"
#include "workload/traffic.hpp"

namespace dic {
namespace {

using netlist::testing::canonicalText;

/// A small injected chip: every check kind has something to find.
workload::GeneratedChip makeChip() {
  const tech::Technology t = tech::nmos();
  workload::GeneratedChip chip = workload::generateChip(t, {1, 1, 2, 2, true});
  workload::InjectionPlan plan;
  workload::inject(chip, t, plan, /*seed=*/7);
  return chip;
}

TEST(Workspace, RepeatedRequestHitsViewCache) {
  workload::GeneratedChip chip = makeChip();
  Workspace ws(std::move(chip.lib), tech::nmos(), {/*threads=*/2});

  const CheckRequest req = CheckRequest::drc(chip.top);
  const CheckResult first = ws.run(req);
  ASSERT_TRUE(first.ok()) << first.error;
  EXPECT_FALSE(first.viewCacheHit);
  EXPECT_FALSE(first.report.empty());  // the injected defects

  const CheckResult second = ws.run(req);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.viewCacheHit);
  EXPECT_TRUE(second.netlistCacheHit);  // published by the first run
  EXPECT_EQ(second.revision, first.revision);
  EXPECT_EQ(first.report.text(), second.report.text());

  const Workspace::CacheStats s = ws.cacheStats();
  EXPECT_EQ(s.viewMisses, 1u);
  EXPECT_EQ(s.viewHits, 1u);
  EXPECT_EQ(s.viewEvictions, 0u);
  EXPECT_EQ(s.cachedViews, 1u);
}

TEST(Workspace, MutationInvalidatesCachedView) {
  workload::GeneratedChip chip = makeChip();
  Workspace ws(std::move(chip.lib), tech::nmos(), {2});

  const CheckRequest req = CheckRequest::drc(chip.top);
  const CheckResult before = ws.run(req);
  ASSERT_TRUE(before.ok());

  // Mutable cell access counts as a mutation: revision bumps, the cached
  // view goes stale, and the next run transparently rebuilds.
  ws.library().cell(chip.top);
  const CheckResult after = ws.run(req);
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after.viewCacheHit);
  EXPECT_GT(after.revision, before.revision);
  EXPECT_EQ(before.report.text(), after.report.text());  // nothing changed

  // A real edit: adding a cell invalidates again and changes nothing for
  // an unrelated root's report either.
  layout::Cell extra;
  extra.name = "unrelated";
  ws.library().addCell(std::move(extra));
  const CheckResult third = ws.run(req);
  ASSERT_TRUE(third.ok());
  EXPECT_FALSE(third.viewCacheHit);
  EXPECT_GT(third.revision, after.revision);
  EXPECT_EQ(before.report.text(), third.report.text());

  const Workspace::CacheStats s = ws.cacheStats();
  EXPECT_EQ(s.viewMisses, 3u);
  EXPECT_EQ(s.viewEvictions, 2u);
  EXPECT_EQ(s.cachedViews, 1u);
}

TEST(Workspace, NetlistSharedAcrossRequestKinds) {
  workload::GeneratedChip chip = makeChip();
  Workspace ws(std::move(chip.lib), tech::nmos(), {2});

  const CheckResult nlRes = ws.run(CheckRequest::netlistOnly(chip.top));
  ASSERT_TRUE(nlRes.ok());
  ASSERT_NE(nlRes.netlist, nullptr);
  EXPECT_FALSE(nlRes.netlistCacheHit);
  EXPECT_TRUE(nlRes.report.empty());

  const CheckResult ercRes = ws.run(CheckRequest::ercCheck(chip.top));
  ASSERT_TRUE(ercRes.ok());
  EXPECT_TRUE(ercRes.viewCacheHit);
  EXPECT_TRUE(ercRes.netlistCacheHit);
  EXPECT_EQ(ercRes.netlist.get(), nlRes.netlist.get());  // shared, not copied
  EXPECT_FALSE(ercRes.report.empty());  // injected electrical defects

  const CheckResult drcRes = ws.run(CheckRequest::drc(chip.top));
  ASSERT_TRUE(drcRes.ok());
  EXPECT_TRUE(drcRes.viewCacheHit);
  EXPECT_TRUE(drcRes.netlistCacheHit);  // pipeline reused the extraction
  EXPECT_EQ(drcRes.netlist.get(), nlRes.netlist.get());
}

TEST(Workspace, BatchByteIdenticalToSequentialAcrossThreads) {
  const tech::Technology t = tech::nmos();

  // A mixed batch: the full pipeline, the mask-level baseline, ERC,
  // extraction-only, and an ablated pipeline (net-blind, orthogonal).
  workload::GeneratedChip proto = makeChip();
  std::vector<CheckRequest> reqs;
  reqs.push_back(CheckRequest::drc(proto.top));
  reqs.push_back(CheckRequest::baseline(proto.top));
  reqs.push_back(CheckRequest::ercCheck(proto.top));
  reqs.push_back(CheckRequest::netlistOnly(proto.top));
  CheckRequest ablated = CheckRequest::drc(proto.top);
  ablated.useNetInformation = false;
  ablated.metric = geom::Metric::kOrthogonal;
  reqs.push_back(ablated);

  // Reference: sequential single runs on a serial workspace.
  std::vector<std::string> refText;
  std::vector<std::string> refNl;
  {
    workload::GeneratedChip chip = makeChip();
    Workspace ws(std::move(chip.lib), t, {/*threads=*/1});
    for (const CheckRequest& r : reqs) {
      const CheckResult res = ws.run(r);
      ASSERT_TRUE(res.ok()) << res.error;
      refText.push_back(res.report.text());
      refNl.push_back(res.netlist ? canonicalText(*res.netlist) : "");
    }
  }

  for (const int threads : {1, 2, 8}) {
    workload::GeneratedChip chip = makeChip();
    Workspace ws(std::move(chip.lib), t, {threads});
    const std::vector<CheckResult> out = ws.runBatch(reqs);
    ASSERT_EQ(out.size(), reqs.size());
    for (std::size_t i = 0; i < out.size(); ++i) {
      ASSERT_TRUE(out[i].ok()) << out[i].error;
      EXPECT_EQ(out[i].report.text(), refText[i])
          << "threads=" << threads << " request " << i;
      EXPECT_EQ(out[i].netlist ? canonicalText(*out[i].netlist) : "", refNl[i])
          << "threads=" << threads << " request " << i;
    }
    // All five requests target one root and run one by one: the first
    // builds the view, the other four hit it.
    const Workspace::CacheStats s = ws.cacheStats();
    EXPECT_EQ(s.viewMisses, 1u) << "threads=" << threads;
    EXPECT_EQ(s.viewHits, 4u) << "threads=" << threads;
    EXPECT_EQ(s.cachedViews, 1u) << "threads=" << threads;
  }
}

TEST(Workspace, BatchDedupsNetlistExtractionAcrossRequests) {
  // Three netlist-consuming requests on one (root, extract-options)
  // pair: the first extracts, the other two take the cached netlist, and
  // all three hold the same shared object.
  workload::GeneratedChip chip = makeChip();
  Workspace ws(std::move(chip.lib), tech::nmos(), {4});

  std::vector<CheckRequest> reqs;
  reqs.push_back(CheckRequest::drc(chip.top));
  reqs.push_back(CheckRequest::ercCheck(chip.top));
  reqs.push_back(CheckRequest::netlistOnly(chip.top));
  const std::vector<CheckResult> out = ws.runBatch(reqs);
  ASSERT_EQ(out.size(), 3u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    ASSERT_TRUE(out[i].ok()) << out[i].error;
    EXPECT_EQ(out[i].netlistCacheHit, i > 0) << "request " << i;
    ASSERT_NE(out[i].netlist, nullptr);
    EXPECT_EQ(out[i].netlist.get(), out[0].netlist.get());  // shared
  }
  const Workspace::CacheStats s = ws.cacheStats();
  EXPECT_EQ(s.viewMisses, 1u);
  EXPECT_EQ(s.netlistHits, 2u);  // every consumer after the first
}

TEST(Workspace, FailedRequestDoesNotAbortBatch) {
  // Failed-request isolation: the bad-root requests come back as error
  // results, and the healthy requests — declared before, between, and
  // after the failures — complete byte-identically to sequential runs.
  const tech::Technology t = tech::nmos();
  std::vector<std::string> refText(5);
  {
    workload::GeneratedChip chip = makeChip();
    Workspace ws(std::move(chip.lib), t, {/*threads=*/1});
    refText[0] = ws.run(CheckRequest::drc(chip.top)).report.text();
    refText[2] = ws.run(CheckRequest::ercCheck(chip.top)).report.text();
    refText[4] = ws.run(CheckRequest::baseline(chip.top)).report.text();
  }

  workload::GeneratedChip chip = makeChip();
  Workspace ws(std::move(chip.lib), t, {4});

  std::vector<CheckRequest> reqs;
  reqs.push_back(CheckRequest::drc(chip.top));
  reqs.push_back(CheckRequest::drc(/*root=*/99999));      // no such cell
  reqs.push_back(CheckRequest::ercCheck(chip.top));
  reqs.push_back(CheckRequest::ercCheck(/*root=*/88888));  // no such cell
  reqs.push_back(CheckRequest::baseline(chip.top));

  const std::vector<CheckResult> out = ws.runBatch(reqs);
  ASSERT_EQ(out.size(), 5u);
  for (const std::size_t bad : {std::size_t{1}, std::size_t{3}}) {
    EXPECT_FALSE(out[bad].ok());
    EXPECT_FALSE(out[bad].error.empty());
    EXPECT_EQ(out[bad].root, reqs[bad].root);  // identity fields survive
    EXPECT_EQ(out[bad].kind, reqs[bad].kind);
  }
  for (const std::size_t good :
       {std::size_t{0}, std::size_t{2}, std::size_t{4}}) {
    ASSERT_TRUE(out[good].ok()) << out[good].error;
    EXPECT_EQ(out[good].report.text(), refText[good]) << "request " << good;
  }
}

TEST(Workspace, InstanceCycleEditIsRejectedAndLibraryUntouched) {
  // An edit instancing a cell into itself (or into one of its own
  // descendants) would send every hierarchy walk into unbounded
  // recursion. It must come back as an error result, leave the library
  // as it was, and the workspace must keep serving.
  const tech::Technology t = tech::nmos();
  workload::GeneratedChip chip = makeChip();
  Workspace ws(std::move(chip.lib), t, {2});
  const std::string ref = ws.run(CheckRequest::drc(chip.top)).report.text();
  const std::uint64_t rev = std::as_const(ws).library().revision();

  for (const auto& [cell, target] :
       {std::pair{chip.top, chip.top}, std::pair{chip.cells.inverter, chip.top},
        std::pair{chip.cells.inverter, chip.block}}) {
    CheckRequest req = CheckRequest::drc(chip.top);
    EditOp op;
    op.kind = EditOp::Kind::kAddInstance;
    op.cell = cell;
    op.instance = {target, {geom::Orient::kR0, {0, 0}}, "loop"};
    req.edits.push_back(op);
    const CheckResult r = ws.run(req);
    EXPECT_FALSE(r.ok()) << cell << " <- " << target;
    EXPECT_NE(r.error.find("cycle"), std::string::npos) << r.error;
  }
  EXPECT_EQ(std::as_const(ws).library().revision(), rev);
  const CheckResult after = ws.run(CheckRequest::drc(chip.top));
  ASSERT_TRUE(after.ok()) << after.error;
  EXPECT_EQ(after.report.text(), ref);
}

TEST(Workspace, CollidingInstanceNameEditKeepsDistinctNets) {
  // A kAddInstance edit may reuse a sibling's instance name. The two
  // same-named instances sit 1L apart on different nets, and the check
  // after the edit must flag the gap exactly as it does when the names
  // differ: one DIFFNET spacing violation at the same place.
  const tech::Technology t = tech::nmos();
  const geom::Coord L = t.lambda();
  auto library = [&](layout::CellId& leaf, layout::CellId& top) {
    layout::Library lib;
    layout::Cell w;
    w.name = "W";
    w.elements.push_back(layout::makeBox(*t.layerByName("metal"),
                                         geom::makeRect(0, 0, 3 * L, 3 * L)));
    leaf = lib.addCell(std::move(w));
    layout::Cell c;
    c.name = "top";
    c.instances.push_back({leaf, {geom::Orient::kR0, {0, 0}}, "x"});
    top = lib.addCell(std::move(c));
    return lib;
  };
  const layout::Instance second{0, {geom::Orient::kR0, {4 * L, 0}}, "y"};

  layout::CellId leaf{}, top{};
  layout::Library ref = library(leaf, top);
  layout::Instance distinct = second;
  distinct.cell = leaf;
  ref.addInstance(top, distinct);
  Workspace refWs(std::move(ref), t, {2});
  const CheckResult want = refWs.run(CheckRequest::drc(top));
  ASSERT_TRUE(want.ok()) << want.error;
  ASSERT_EQ(want.report.count(), 1u) << want.report.text();
  ASSERT_EQ(want.report.violations()[0].rule, "S.metal.metal.DIFFNET");

  Workspace ws(library(leaf, top), t, {2});
  ASSERT_TRUE(ws.run(CheckRequest::drc(top)).report.empty());
  CheckRequest req = CheckRequest::drc(top);
  EditOp op;
  op.kind = EditOp::Kind::kAddInstance;
  op.cell = top;
  op.instance = second;
  op.instance.cell = leaf;
  op.instance.name = "x";
  req.edits.push_back(op);
  const CheckResult got = ws.run(req);
  ASSERT_TRUE(got.ok()) << got.error;
  ASSERT_EQ(got.report.count(), 1u) << got.report.text();
  EXPECT_EQ(got.report.violations()[0].rule, want.report.violations()[0].rule);
  EXPECT_EQ(got.report.violations()[0].where,
            want.report.violations()[0].where);
}

TEST(Workspace, BatchFillsPerRequestStageTelemetry) {
  workload::GeneratedChip chip = makeChip();
  Workspace ws(std::move(chip.lib), tech::nmos(), {2});

  std::vector<CheckRequest> reqs;
  reqs.push_back(CheckRequest::drc(chip.top));
  reqs.push_back(CheckRequest::ercCheck(chip.top));
  reqs[0].traceId = obs::newTraceId();
  obs::Tracer::instance().clear();
  obs::Tracer::instance().setEnabled(true);
  const std::vector<CheckResult> out = ws.runBatch(reqs);
  obs::Tracer::instance().setEnabled(false);
  const std::vector<obs::SpanRecord> spans =
      obs::Tracer::instance().collect(reqs[0].traceId);
  obs::Tracer::instance().clear();
  ASSERT_EQ(out.size(), 2u);
  ASSERT_TRUE(out[0].ok()) << out[0].error;

  // The DRC request's clock and per-stage times are set.
  EXPECT_GT(out[0].seconds, 0.0);
  EXPECT_GT(out[0].stageTimes.total(), 0.0);
  EXPECT_GT(out[0].interactionStats.candidatePairs, 0u);
  // Non-DRC requests keep empty stage telemetry, as in sequential runs.
  EXPECT_EQ(out[1].stageTimes.total(), 0.0);

#if DIC_TRACING_ENABLED
  // The stage-span contract: exactly one span per Fig. 10 stage, named
  // after it, each a child of the request's serve:drc span, started in
  // stage order and never overlapping the next.
  const std::vector<std::string> names = {"elements", "symbols",
                                          "connections", "netlist",
                                          "interactions"};
  const obs::SpanRecord* serve = nullptr;
  std::vector<obs::SpanRecord> stages;
  for (const obs::SpanRecord& sp : spans) {
    if (sp.label() == "serve:drc") serve = &sp;
    if (std::find(names.begin(), names.end(), sp.label()) != names.end())
      stages.push_back(sp);
  }
  ASSERT_NE(serve, nullptr);
  ASSERT_EQ(stages.size(), names.size());
  std::sort(stages.begin(), stages.end(),
            [](const obs::SpanRecord& x, const obs::SpanRecord& y) {
              return x.startNs < y.startNs;
            });
  for (std::size_t k = 0; k < stages.size(); ++k) {
    EXPECT_EQ(stages[k].label(), names[k]) << "stage " << k;
    EXPECT_EQ(stages[k].parentId, serve->spanId) << names[k];
    if (k + 1 < stages.size()) {
      EXPECT_LE(stages[k].startNs + stages[k].durNs, stages[k + 1].startNs)
          << names[k] << " overlaps " << names[k + 1];
    }
  }
#endif
}

TEST(Workspace, UnknownRootIsRejectedWithoutCaching) {
  // A request on a cell id the library does not have fails with a named
  // error before the view cache is touched, so a stream of bad ids (a
  // wire kCheck carries the root unvalidated) leaves no entries behind.
  workload::GeneratedChip chip = makeChip();
  const layout::Library fresh = chip.lib;
  Workspace ws(std::move(chip.lib), tech::nmos(), {2});
  ASSERT_TRUE(ws.run(CheckRequest::drc(chip.top)).ok());
  const Workspace::CacheStats before = ws.cacheStats();

  for (int k = 0; k < 1000; ++k) {
    const layout::CellId bad = k == 0 ? -1 : 99999 + k;
    const CheckResult r = ws.run(CheckRequest::drc(bad));
    ASSERT_FALSE(r.ok()) << bad;
    EXPECT_EQ(r.error, "unknown root cell " + std::to_string(bad));
  }
  EXPECT_THROW(ws.view(99999), std::invalid_argument);
  const Workspace::CacheStats after = ws.cacheStats();
  EXPECT_EQ(after.cachedViews, before.cachedViews);
  EXPECT_EQ(after.cacheBytes, before.cacheBytes);

  Workspace ref(fresh, tech::nmos(), {2});
  for (const CheckRequest& req :
       {CheckRequest::drc(chip.top), CheckRequest::netlistOnly(chip.top)}) {
    const CheckResult got = ws.run(req);
    const CheckResult want = ref.run(req);
    ASSERT_TRUE(got.ok()) << got.error;
    EXPECT_EQ(got.report.text(), want.report.text());
    EXPECT_EQ(canonicalText(*got.netlist), canonicalText(*want.netlist));
  }
}

TEST(Workspace, AddInstanceEditPastDepthCapIsRejected) {
  // A chain of kMaxHierarchyDepth cells beside the chip is legal; an edit
  // placing the chain's top under the chip's top would make the call
  // chain one cell too deep, so it comes back as an error result and the
  // library is left as it was.
  workload::GeneratedChip chip = makeChip();
  layout::CellId chainTop = -1;
  for (int k = 0; k < layout::kMaxHierarchyDepth; ++k) {
    layout::Cell c;
    c.name = "chain" + std::to_string(k);
    if (chainTop >= 0) c.instances.push_back({chainTop, {}, "i"});
    chainTop = chip.lib.addCell(std::move(c));
  }
  Workspace ws(std::move(chip.lib), tech::nmos(), {2});
  const std::string ref = ws.run(CheckRequest::drc(chip.top)).report.text();
  const std::uint64_t rev = std::as_const(ws).library().revision();

  CheckRequest req = CheckRequest::drc(chip.top);
  EditOp op;
  op.kind = EditOp::Kind::kAddInstance;
  op.cell = chip.top;
  op.instance = {chainTop, {geom::Orient::kR0, {0, 0}}, "deep"};
  req.edits.push_back(op);
  const CheckResult r = ws.run(req);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("deeper than"), std::string::npos) << r.error;
  EXPECT_EQ(std::as_const(ws).library().revision(), rev);
  const CheckResult after = ws.run(CheckRequest::drc(chip.top));
  ASSERT_TRUE(after.ok()) << after.error;
  EXPECT_EQ(after.report.text(), ref);
}

TEST(Workspace, RunBatchEqualsSequentialRun) {
  // runBatch is run() on each request in order, so every deterministic
  // field of every result equals what a fresh Workspace's sequential
  // run() calls return: cache flags and revisions included, across a
  // failing request and an edit in the middle of the batch.
  const tech::Technology t = tech::nmos();
  workload::GeneratedChip proto = makeChip();
  const layout::CellId top = proto.top;
  std::vector<CheckRequest> reqs;
  reqs.push_back(CheckRequest::drc(top));
  reqs.push_back(CheckRequest::baseline(top));
  reqs.push_back(CheckRequest::ercCheck(top));
  CheckRequest ablated = CheckRequest::drc(top);
  ablated.useNetInformation = false;
  ablated.metric = geom::Metric::kOrthogonal;
  reqs.push_back(ablated);
  reqs.push_back(CheckRequest::drc(/*root=*/99999));  // no such cell
  CheckRequest edit = CheckRequest::drc(top);
  edit.edits.push_back(workload::makeEditOp(3, proto.lib, top));
  ASSERT_EQ(edit.edits.back().kind, EditOp::Kind::kSetElement);
  reqs.push_back(edit);
  reqs.push_back(CheckRequest::netlistOnly(top));
  reqs.push_back(CheckRequest::ercCheck(top));
  reqs.push_back(CheckRequest::drc(top));
  for (std::size_t i = 0; i < reqs.size(); ++i)
    reqs[i].tag = "r" + std::to_string(i);

  std::vector<CheckResult> ref;
  {
    workload::GeneratedChip chip = makeChip();
    Workspace ws(std::move(chip.lib), t, {/*threads=*/1});
    for (const CheckRequest& r : reqs) ref.push_back(ws.run(r));
  }
  ASSERT_FALSE(ref[4].ok());
  EXPECT_TRUE(ref[5].incrementalHit);  // the edit took the fast path

  for (const int threads : {1, 4}) {
    workload::GeneratedChip chip = makeChip();
    Workspace ws(std::move(chip.lib), t, {threads});
    const std::vector<CheckResult> out = ws.runBatch(reqs);
    ASSERT_EQ(out.size(), reqs.size());
    for (std::size_t i = 0; i < out.size(); ++i) {
      const std::string what =
          "threads=" + std::to_string(threads) + " request " +
          std::to_string(i);
      EXPECT_EQ(out[i].kind, ref[i].kind) << what;
      EXPECT_EQ(out[i].root, ref[i].root) << what;
      EXPECT_EQ(out[i].tag, ref[i].tag) << what;
      EXPECT_EQ(out[i].error, ref[i].error) << what;
      EXPECT_EQ(out[i].report.text(), ref[i].report.text()) << what;
      EXPECT_EQ(out[i].netlist ? canonicalText(*out[i].netlist) : "",
                ref[i].netlist ? canonicalText(*ref[i].netlist) : "")
          << what;
      EXPECT_EQ(out[i].revision, ref[i].revision) << what;
      EXPECT_EQ(out[i].viewCacheHit, ref[i].viewCacheHit) << what;
      EXPECT_EQ(out[i].netlistCacheHit, ref[i].netlistCacheHit) << what;
      EXPECT_EQ(out[i].incrementalHit, ref[i].incrementalHit) << what;
    }
  }
}

TEST(Workspace, BatchByteIdenticalAcrossThreadAndShardSweep) {
  // The acceptance sweep: batches must reproduce sequential per-request
  // bytes for Workspace pool sizes {1, 2, 8} and, through the serving
  // tier's per-request submit futures, shard counts {1, 4}.
  const tech::Technology t = tech::nmos();
  workload::GeneratedChip proto = makeChip();
  std::vector<CheckRequest> reqs;
  reqs.push_back(CheckRequest::drc(proto.top));
  reqs.push_back(CheckRequest::baseline(proto.top));
  reqs.push_back(CheckRequest::ercCheck(proto.top));
  reqs.push_back(CheckRequest::netlistOnly(proto.top));
  reqs.push_back(CheckRequest::drc(proto.top));  // duplicate: a warm repeat

  std::vector<std::string> refText;
  std::vector<std::string> refNl;
  {
    workload::GeneratedChip chip = makeChip();
    Workspace ws(std::move(chip.lib), t, {/*threads=*/1});
    for (const CheckRequest& r : reqs) {
      const CheckResult res = ws.run(r);
      ASSERT_TRUE(res.ok()) << res.error;
      refText.push_back(res.report.text());
      refNl.push_back(res.netlist ? canonicalText(*res.netlist) : "");
    }
  }
  const auto expectMatch = [&](const std::vector<CheckResult>& out,
                               const std::string& what) {
    ASSERT_EQ(out.size(), reqs.size()) << what;
    for (std::size_t i = 0; i < out.size(); ++i) {
      ASSERT_TRUE(out[i].ok()) << what << " request " << i << ": "
                               << out[i].error;
      EXPECT_EQ(out[i].report.text(), refText[i])
          << what << " request " << i;
      EXPECT_EQ(out[i].netlist ? canonicalText(*out[i].netlist) : "",
                refNl[i])
          << what << " request " << i;
    }
  };

  for (const int threads : {1, 2, 8}) {
    workload::GeneratedChip chip = makeChip();
    Workspace ws(std::move(chip.lib), t, {threads});
    expectMatch(ws.runBatch(reqs), "threads=" + std::to_string(threads));
  }

  for (const int shards : {1, 4}) {
    for (const int threadsPerShard : {1, 2, 8}) {
      server::ServerOptions opts;
      opts.shards = shards;
      opts.threadsPerShard = threadsPerShard;
      server::Server srv(opts);
      workload::GeneratedChip chip = makeChip();
      ASSERT_TRUE(srv.addLibrary("lib", std::move(chip.lib), t));
      std::vector<std::future<CheckResult>> futs;
      for (const CheckRequest& r : reqs) futs.push_back(srv.submit("lib", r));
      std::vector<CheckResult> out;
      for (std::future<CheckResult>& f : futs) out.push_back(f.get());
      expectMatch(out, "shards=" + std::to_string(shards) +
                           " thr/sh=" + std::to_string(threadsPerShard));
    }
  }
}

TEST(Workspace, DedicatedPoolMatchesSharedPool) {
  workload::GeneratedChip chip = makeChip();
  Workspace ws(std::move(chip.lib), tech::nmos(), {/*threads=*/1});

  const CheckResult shared = ws.run(CheckRequest::drc(chip.top));
  CheckRequest dedicated = CheckRequest::drc(chip.top);
  dedicated.threads = 4;  // per-request pool, same bytes out
  const CheckResult pooled = ws.run(dedicated);
  ASSERT_TRUE(shared.ok());
  ASSERT_TRUE(pooled.ok());
  EXPECT_EQ(shared.report.text(), pooled.report.text());
  EXPECT_TRUE(pooled.viewCacheHit);  // cache is shared regardless of pool
}

TEST(Workspace, LruEvictionAfterEditRebuildsCleanly) {
  // Dirty tracking must not outlive the entry it describes: patch a
  // cached view in place through a tracked edit, let the LRU byte cap
  // evict that entry when another root is served, then re-request the
  // evicted root with a further edit. The rebuild must start from the
  // post-edit library — no stale pending-dirty window, no resurrected
  // cached netlist — and match a cold single-threaded oracle
  // byte-for-byte at every step.
  std::size_t bytesTop = 0, bytesBlock = 0;
  layout::CellId top{}, block{};
  layout::Element e0;
  {
    workload::GeneratedChip chip = makeChip();
    top = chip.top;
    block = chip.block;
    e0 = std::as_const(chip.lib).cell(block).elements[0];
    Workspace ws(std::move(chip.lib), tech::nmos(), {1});
    ASSERT_TRUE(ws.run(CheckRequest::drc(top)).ok());
    bytesTop = ws.cacheStats().cacheBytes;
    ASSERT_TRUE(ws.run(CheckRequest::drc(block)).ok());
    bytesBlock = ws.cacheStats().cacheBytes - bytesTop;
    ASSERT_GT(bytesTop, 0u);
    ASSERT_GT(bytesBlock, 0u);
  }
  const layout::Element e1 = e0.transformed(geom::translate({25, 0}));

  workload::GeneratedChip forWs = makeChip();
  workload::GeneratedChip forOracle = makeChip();
  WorkspaceOptions wopts;
  wopts.threads = 2;
  wopts.maxCacheBytes = std::max(bytesTop, bytesBlock) + bytesTop / 8;
  ASSERT_LT(wopts.maxCacheBytes, bytesTop + bytesBlock);
  Workspace ws(std::move(forWs.lib), tech::nmos(), wopts);
  Workspace oracle(std::move(forOracle.lib), tech::nmos(), {1});

  const auto oracleRun = [&](layout::CellId root, const layout::Element& e) {
    oracle.library().setElement(block, 0, e);
    oracle.library().invalidateCaches();  // edit log cleared: cold rebuild
    return oracle.run(CheckRequest::drc(root));
  };
  const auto editReq = [&](layout::CellId root, const layout::Element& e) {
    CheckRequest req = CheckRequest::drc(root);
    req.edits.push_back(EditOp::setElement(block, 0, e));
    return req;
  };

  // Warm, then patch the cached view in place via a tracked edit.
  ASSERT_TRUE(ws.run(CheckRequest::drc(top)).ok());
  const CheckResult patched = ws.run(editReq(top, e1));
  ASSERT_TRUE(patched.ok()) << patched.error;
  EXPECT_TRUE(patched.viewCacheHit);
  EXPECT_TRUE(patched.incrementalHit);
  EXPECT_EQ(patched.report.text(), oracleRun(top, e1).report.text());

  // Serving the other root trips the byte cap and evicts the patched
  // (and dirty-tracked) top entry, which is now the coldest.
  const CheckResult other = ws.run(CheckRequest::drc(block));
  ASSERT_TRUE(other.ok());
  EXPECT_GE(ws.cacheStats().lruEvictions, 1u);
  EXPECT_EQ(ws.cacheStats().cachedViews, 1u);
  EXPECT_EQ(other.report.text(), oracle.run(CheckRequest::drc(block)).report.text());

  // The evicted root returns with another edit riding along: no cached
  // entry to patch, so this must rebuild from the post-edit library.
  const CheckResult rebuilt = ws.run(editReq(top, e0));
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.error;
  EXPECT_FALSE(rebuilt.viewCacheHit);
  EXPECT_FALSE(rebuilt.incrementalHit);
  EXPECT_EQ(rebuilt.report.text(), oracleRun(top, e0).report.text());

  // And the fresh entry immediately supports in-place patching again.
  const CheckResult repatched = ws.run(editReq(top, e1));
  ASSERT_TRUE(repatched.ok()) << repatched.error;
  EXPECT_TRUE(repatched.viewCacheHit);
  EXPECT_TRUE(repatched.incrementalHit);
  EXPECT_EQ(repatched.report.text(), oracleRun(top, e1).report.text());
}

TEST(Workspace, ColdDrcBuildsNoFlatView) {
  // The hierarchical path reads placements and per-definition variants
  // only: a cold DRC, and the netlist and ERC requests sharing its
  // extraction, leave both flat variants unbuilt. The chip is the
  // cold_chip benchmark's large chip (4x4 blocks, DRC-only injection).
  const tech::Technology t = tech::nmos();
  workload::GeneratedChip chip =
      workload::generateChip(t, {4, 4, 12, 22, true});
  workload::InjectionPlan plan;
  plan.accidentalFets = 0;
  plan.contactsOverGate = 0;
  plan.powerGroundShorts = 0;
  plan.floatingNets = 0;
  workload::inject(chip, t, plan, /*seed=*/401);
  const layout::CellId top = chip.top;
  Workspace ws(std::move(chip.lib), t, {2});
  // The placements of this chip measure ~4 MB; its flat(false) copy
  // alone is several times that.
  constexpr std::size_t kMaxViewBytes = std::size_t{8} << 20;
  for (const CheckRequest& req :
       {CheckRequest::drc(top), CheckRequest::netlistOnly(top),
        CheckRequest::ercCheck(top)}) {
    const CheckResult r = ws.run(req);
    ASSERT_TRUE(r.ok()) << r.error;
    const std::shared_ptr<engine::HierarchyView> view = ws.view(top);
    EXPECT_FALSE(view->flatBuilt(false)) << toString(req.kind);
    EXPECT_FALSE(view->flatBuilt(true)) << toString(req.kind);
    EXPECT_LE(view->memoryBytes(), kMaxViewBytes) << toString(req.kind);
  }
}

TEST(Workspace, ViewAccessorReturnsCachedView) {
  workload::GeneratedChip chip = makeChip();
  Workspace ws(std::move(chip.lib), tech::nmos(), {1});

  const auto v1 = ws.view(chip.top);
  const auto v2 = ws.view(chip.top);
  EXPECT_EQ(v1.get(), v2.get());

  ws.library().invalidateCaches();  // back-door mutation signal
  const auto v3 = ws.view(chip.top);
  EXPECT_NE(v1.get(), v3.get());
}

TEST(LibraryBBoxCache, ColdConcurrentLookupsMatchSerial) {
  // ThreadSanitizer-style stress for the bbox cache: many workers resolve
  // every cell's recursive bbox concurrently on a COLD cache (the
  // hierarchy-view warm-up is deliberately bypassed), which exercises the
  // mutex-guarded find/insert from all sides. Values must match a serial
  // reference computed on a copy.
  const tech::Technology t = tech::nmos();
  for (int iter = 0; iter < 10; ++iter) {
    const workload::GeneratedChip chip =
        workload::generateChip(t, {2, 2, 2, 2, true});
    const layout::Library copy = chip.lib;  // exercises the copy ctor too
    const std::size_t n = copy.cellCount();
    std::vector<geom::Rect> ref(n);
    for (std::size_t i = 0; i < n; ++i)
      ref[i] = copy.cellBBox(static_cast<layout::CellId>(i));

    engine::Executor exec(8);
    std::vector<geom::Rect> got(4 * n);
    // 4 passes per cell so lookups overlap computes of the same ids; each
    // worker writes only its own slot.
    exec.parallelFor(got.size(), [&](std::size_t k) {
      got[k] = chip.lib.cellBBox(static_cast<layout::CellId>(k % n));
    });
    for (std::size_t k = 0; k < got.size(); ++k)
      EXPECT_EQ(got[k], ref[k % n]) << "iter " << iter << " cell " << k % n;
  }
}

}  // namespace
}  // namespace dic
