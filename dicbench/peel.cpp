// The traced peel: every layer measured from outside by calling its
// public entry point on the same inputs, with the benchmark's own spans
// around each call. A layer's self time is its call minus the call one
// layer down (net::Client round trip - server::Server round trip -
// Workspace::run), and the cold path is split over a fresh
// HierarchyView and each drc::Checker stage.
#include <algorithm>
#include <memory>
#include <string>

#include "drc/checker.hpp"
#include "engine/hierarchy_view.hpp"
#include "net/client.hpp"
#include "net/listener.hpp"
#include "net/wire.hpp"
#include "server/server.hpp"
#include "workloads.hpp"
#include "workload/traffic.hpp"

namespace dicbench {

using namespace dic;

CheckRequest EditShadow::next(std::uint64_t seed) {
  CheckRequest req = CheckRequest::drc(root_);
  if (nudged_) {
    req.edits.push_back(restore_);
    nudged_ = false;
    return req;
  }
  EditOp op = workload::makeEditOp(seed, lib_, root_);
  if (op.kind == EditOp::Kind::kNone) return req;
  restore_ = EditOp::setElement(op.cell, op.index,
                                lib_.cell(op.cell).elements[op.index]);
  req.edits.push_back(std::move(op));
  nudged_ = true;
  return req;
}

namespace {

template <class F>
double timeIt(F&& f) {
  const auto t0 = Clock::now();
  f();
  return secondsSince(t0);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Passes over each peeled path; figures are medians across passes.
constexpr int kPasses = 3;

/// View build + every checker stage, serial, on a fresh view.
void peelStages(const PeelLibrary& pl, const tech::Technology& t,
                SpanLog& spans, Outcome& out, PeelTimes& pt) {
  std::vector<double> view, el, sym, con, nlx, inter;
  drc::InteractionStats st;
  std::size_t viewBytes = 0, nets = 0;
  for (int r = 0; r < kPasses; ++r) {
    struct Child {
      const char* name;
      Clock::time_point t0, t1;
    };
    std::vector<Child> children;
    auto span = [&](const char* name, std::vector<double>& into, auto&& f) {
      const auto t0 = Clock::now();
      f();
      children.push_back({name, t0, Clock::now()});
      into.push_back(secondsBetween(t0, children.back().t1));
    };
    const auto root0 = Clock::now();
    std::shared_ptr<engine::HierarchyView> v;
    span("engine.view_build", view, [&] {
      v = std::make_shared<engine::HierarchyView>(pl.lib, pl.root);
      v->prepare(false);
    });
    drc::Checker ch(v, t, drc::Options{});
    netlist::Netlist nl;
    span("drc.elements", el, [&] { ch.checkElements(); });
    span("drc.symbols", sym, [&] { ch.checkPrimitiveSymbols(); });
    span("drc.connections", con, [&] { ch.checkConnections(); });
    span("netlist.extract", nlx, [&] { nl = ch.generateNetlist(); });
    span("drc.interactions", inter, [&] { ch.checkInteractions(nl); });
    const std::uint64_t trace = 100 + static_cast<std::uint64_t>(r);
    const std::uint64_t rootId =
        spans.add("peel.cold_stages", root0, Clock::now(), 0, trace);
    for (const Child& c : children) spans.add(c.name, c.t0, c.t1, rootId, trace);
    st = ch.interactionStats();
    viewBytes = v->memoryBytes();
    nets = nl.nets.size();
  }
  out.put("engine.view_build_s", median(view), "s");
  out.put("drc.elements_s", median(el), "s");
  out.put("drc.symbols_s", median(sym), "s");
  out.put("drc.connections_s", median(con), "s");
  out.put("netlist.extract_s", median(nlx), "s");
  out.put("drc.interactions_s", median(inter), "s");
  out.put("drc.candidate_pairs", double(st.candidatePairs), "count");
  out.put("drc.distance_checks", double(st.distanceChecks), "count");
  // Share of evaluated placement pairs settled without a distance
  // check (no rule, same net, or related). candidate_pairs counts pairs
  // per cell definition; evaluations happen per placement.
  const double skipped =
      double(st.sameNetSkipped + st.relatedSkipped + st.noRulePairs);
  out.put("drc.pruned_ratio", ratio(skipped, skipped + double(st.distanceChecks)),
          "ratio");
  out.put("engine.view_bytes", double(viewBytes), "bytes");
  out.put("netlist.nets", double(nets), "count");
  pt.coldStages = median(view) + median(el) + median(sym) + median(con) +
                  median(nlx) + median(inter);
}

/// Cold Workspace::run at one thread vs at the measured pool size.
double peelPool(const PeelLibrary& pl, const tech::Technology& t,
                int threads, Outcome& out) {
  std::vector<double> one, many;
  auto cold = [&](int n) {
    Workspace ws(pl.lib, t, WorkspaceOptions{n});
    return timeIt([&] { ws.run(CheckRequest::drc(pl.root)); });
  };
  for (int r = 0; r < kPasses; ++r) {
    one.push_back(cold(1));
    many.push_back(cold(threads));
  }
  out.put("engine.pool_speedup", ratio(median(one), median(many)), "ratio");
  return median(one);
}

/// Per-request wire codec cost: request frame + result frames, each way.
void peelCodec(const std::vector<std::pair<std::string, CheckRequest>>& reqs,
               const std::vector<CheckResult>& results, Outcome& out) {
  double enc = 0, dec = 0;
  constexpr int kLoops = 20;  // tiny requests: repeat for clock resolution
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    std::vector<std::uint8_t> reqFrame;
    std::vector<std::vector<std::uint8_t>> resFrames;
    enc += timeIt([&] {
      for (int k = 0; k < kLoops; ++k) {
        reqFrame = net::encodeCheckFrame(i + 1, reqs[i].first, reqs[i].second);
        resFrames.clear();
        net::ResultFrameStream stream(i + 1, results[i]);
        std::vector<std::uint8_t> f;
        while (stream.next(f)) resFrames.push_back(f);
      }
    });
    dec += timeIt([&] {
      for (int k = 0; k < kLoops; ++k) {
        net::FrameHeader h;
        std::string lib;
        CheckRequest req;
        net::parseHeader(reqFrame.data(), h);
        net::decodeCheckPayload(reqFrame.data() + net::kHeaderSize,
                                h.payloadLen, lib, req);
        net::ResultAssembler as;
        CheckResult r;
        for (const auto& f : resFrames) {
          net::parseHeader(f.data(), h);
          as.feed(h, f.data() + net::kHeaderSize, h.payloadLen, r);
        }
      }
    });
  }
  const double n = double(reqs.size()) * kLoops;
  out.put("net.encode_us", enc / n * 1e6, "us");
  out.put("net.decode_us", dec / n * 1e6, "us");
}

}  // namespace

PeelTimes peelLayers(PeelInput& in, SpanLog& spans, Outcome& out) {
  PeelTimes pt;
  const tech::Technology t = tech::nmos();
  peelStages(in.libraries.front(), t, spans, out, pt);
  pt.coldSerialRun =
      peelPool(in.libraries.front(), t, in.threads, out);

  // Three independent stacks over equal libraries, fed the same request
  // sequence: A = net::Client -> in-process Listener -> Server, B = the
  // Server alone, C = one Workspace per library. Edits reach each stack
  // once per pass and every pass ends where it started (EditShadow
  // pairs), so passes repeat.
  server::ServerOptions sopts;
  sopts.shards = in.shards;
  sopts.threadsPerShard = in.threadsPerShard;
  server::Server srvA(sopts), srvB(sopts);
  std::vector<std::unique_ptr<Workspace>> wsC;
  for (const PeelLibrary& pl : in.libraries) {
    srvA.addLibrary(pl.id, pl.lib, t);
    srvB.addLibrary(pl.id, pl.lib, t);
    wsC.push_back(std::make_unique<Workspace>(
        pl.lib, t, WorkspaceOptions{in.threadsPerShard}));
  }
  net::Listener listener(srvA, net::ListenerOptions{});
  net::ClientOptions copts;
  copts.host = "127.0.0.1";
  copts.port = listener.port();
  net::Client client(copts);

  // Round-robin the libraries' request lists into one sequence.
  struct Item {
    std::size_t lib;
    const CheckRequest* req;
  };
  std::vector<Item> seq;
  for (std::size_t k = 0;; ++k) {
    bool any = false;
    for (std::size_t l = 0; l < in.libraries.size(); ++l)
      if (k < in.libraries[l].requests.size()) {
        seq.push_back({l, &in.libraries[l].requests[k]});
        any = true;
      }
    if (!any) break;
  }
  // Warm every stack: one read per library pays the view/netlist build.
  for (std::size_t l = 0; l < in.libraries.size(); ++l) {
    const CheckRequest warm = CheckRequest::drc(in.libraries[l].root);
    client.check(in.libraries[l].id, warm);
    srvB.submit(in.libraries[l].id, warm).get();
    wsC[l]->run(warm);
  }

  std::vector<std::vector<double>> tA(seq.size()), tB(seq.size()),
      tC(seq.size());
  std::vector<CheckResult> firstC(seq.size());
  std::size_t edits = 0, incremental = 0;
  for (int r = 0; r < kPasses; ++r) {
    for (std::size_t i = 0; i < seq.size(); ++i) {
      const PeelLibrary& pl = in.libraries[seq[i].lib];
      const CheckRequest& req = *seq[i].req;
      const std::uint64_t trace = 1000 + r * seq.size() + i;
      const auto a0 = Clock::now();
      const CheckResult a = client.check(pl.id, req);
      const auto a1 = Clock::now();
      const CheckResult b = srvB.submit(pl.id, req).get();
      const auto b1 = Clock::now();
      const CheckResult c = wsC[seq[i].lib]->run(req);
      const auto c1 = Clock::now();
      // Logical nesting net > server > service, laid on one track.
      const std::uint64_t na = spans.add("net.client_check", a0, a1, 0, trace);
      const std::uint64_t nb = spans.add("server.submit", a1, b1, na, trace);
      spans.add("service.run", b1, c1, nb, trace);
      tA[i].push_back(secondsBetween(a0, a1));
      tB[i].push_back(secondsBetween(a1, b1));
      tC[i].push_back(secondsBetween(b1, c1));
      ++out.attempted;
      if (!a.ok() || !b.ok() || !c.ok() ||
          a.report.text() != c.report.text() ||
          b.report.text() != c.report.text()) {
        ++out.failed;
        out.fail("peel: layers disagree on " + pl.id + ": " + a.error +
                 b.error + c.error);
      }
      if (!req.edits.empty()) {
        ++edits;
        incremental += c.incrementalHit ? 1 : 0;
      }
      if (r == 0) firstC[i] = c;
    }
  }

  // Mean over requests of each request's median across passes.
  auto meanOfMedians = [&](const std::vector<std::vector<double>>& t,
                           int which) {  // 0 all, 1 reads, 2 edits
    double sum = 0;
    std::size_t n = 0;
    for (std::size_t i = 0; i < seq.size(); ++i) {
      const bool edit = !seq[i].req->edits.empty();
      if ((which == 1 && edit) || (which == 2 && !edit)) continue;
      sum += median(t[i]);
      ++n;
    }
    return n ? sum / double(n) : 0;
  };
  pt.netRoundTrip = meanOfMedians(tA, 0);
  const double serverRoundTrip = meanOfMedians(tB, 0);
  const double serviceRun = meanOfMedians(tC, 0);
  out.put("net.self_ms", (pt.netRoundTrip - serverRoundTrip) * 1e3, "ms");
  out.put("server.self_ms", (serverRoundTrip - serviceRun) * 1e3, "ms");
  out.put("service.run_ms", meanOfMedians(tC, 1) * 1e3, "ms");
  out.put("service.edit_run_ms", meanOfMedians(tC, 2) * 1e3, "ms");
  out.put("service.incremental_hit_ratio",
          ratio(double(incremental), double(edits)), "ratio");

  std::size_t vh = 0, vm = 0, nh = 0, runs = 0;
  for (const auto& ws : wsC) {
    const Workspace::CacheStats cs = ws->cacheStats();
    vh += cs.viewHits;
    vm += cs.viewMisses;
    nh += cs.netlistHits;
  }
  runs = seq.size() * kPasses + in.libraries.size();
  out.put("service.view_hit_ratio", ratio(double(vh), double(vh + vm)),
          "ratio");
  out.put("service.netlist_hit_ratio", ratio(double(nh), double(runs)),
          "ratio");

  std::vector<std::pair<std::string, CheckRequest>> reqs;
  for (const Item& it : seq) reqs.push_back({in.libraries[it.lib].id, *it.req});
  peelCodec(reqs, firstC, out);

  // Server-side queue/service split and shard balance of stack B; the
  // TCP workloads overwrite these with the measured server's own stats.
  const server::ServerStats ss = srvB.stats();
  putServerStats(ss, out);
  const net::ClientTelemetry tel = client.telemetry();
  out.put("net.rejected", double(tel.rejectedFrames), "count");
  out.put("net.report_parts", double(tel.reportPartFrames), "count");

  client.close();
  listener.shutdown();
  srvA.shutdown();
  srvB.shutdown();
  return pt;
}

void putServerStats(const server::ServerStats& ss, Outcome& out) {
  double wait = 0, service = 0;
  std::size_t served = 0, maxS = 0, minS = SIZE_MAX;
  for (const server::ShardStats& s : ss.shards) {
    wait += s.meanQueueWaitSeconds * double(s.served);
    service += s.meanServiceSeconds * double(s.served);
    served += s.served;
    maxS = std::max(maxS, s.served);
    minS = std::min(minS, s.served);
  }
  out.put("server.queue_wait_ms", ratio(wait, double(served)) * 1e3, "ms");
  out.put("server.service_ms", ratio(service, double(served)) * 1e3, "ms");
  out.put("server.shard_imbalance",
          ratio(double(maxS), double(std::max<std::size_t>(minS, 1))),
          "ratio");
}

}  // namespace dicbench
