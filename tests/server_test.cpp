// Tests for the dic::server serving tier: stable owner-shard routing,
// concurrent multi-shard submission (plain and edit-carrying) byte-
// identical to sequential per-library Workspace runs, two-phase shutdown
// draining queued work, the QueueFull reject path, rolling dropLibrary
// under a submit storm, and the Workspace view-cache LRU byte cap the
// server relies on for long-running shards.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "server/queue.hpp"
#include "server/server.hpp"
#include "service/workspace.hpp"
#include "workload/generator.hpp"
#include "workload/inject.hpp"
#include "workload/traffic.hpp"

namespace dic {
namespace {

/// A small injected chip; seed varies the defect plant per library so
/// libraries are distinguishable by their reports.
workload::GeneratedChip makeChip(unsigned seed,
                                 const workload::ChipParams& p = {1, 1, 2, 2,
                                                                  true}) {
  const tech::Technology t = tech::nmos();
  workload::GeneratedChip chip = workload::generateChip(t, p);
  workload::InjectionPlan plan;
  workload::inject(chip, t, plan, seed);
  return chip;
}

TEST(BoundedQueue, CapacityRejectAndDrainAfterClose) {
  server::BoundedQueue<int> q(2);
  int v = 1;
  EXPECT_EQ(q.tryPush(v), server::PushResult::kOk);
  v = 2;
  EXPECT_EQ(q.tryPush(v), server::PushResult::kOk);
  v = 3;
  EXPECT_EQ(q.tryPush(v), server::PushResult::kFull);
  EXPECT_EQ(v, 3);  // kept on failure
  q.close();
  EXPECT_EQ(q.tryPush(v), server::PushResult::kClosed);
  int out = 0;
  EXPECT_TRUE(q.pop(out));
  EXPECT_EQ(out, 1);
  EXPECT_TRUE(q.pop(out));
  EXPECT_EQ(out, 2);  // accepted items survive the close
  EXPECT_FALSE(q.pop(out));  // closed and drained
}

TEST(Server, StableRoutingAndRegistration) {
  server::ServerOptions opts;
  opts.shards = 4;
  opts.threadsPerShard = 1;
  server::Server srv(opts);
  EXPECT_EQ(srv.shardCount(), 4);

  // Routing is a pure function of the id: the owner shard.
  for (const char* id : {"libA", "libB", "lib0", "lib1", ""}) {
    EXPECT_EQ(static_cast<std::uint64_t>(srv.shardOf(id)),
              server::stableHash(id) % 4u)
        << id;
  }

  workload::GeneratedChip chip = makeChip(1);
  const layout::CellId top = chip.top;
  const layout::Element e0 =
      std::as_const(chip.lib).cell(chip.block).elements[0];
  EXPECT_TRUE(srv.addLibrary("libA", chip.lib, tech::nmos()));
  EXPECT_FALSE(srv.addLibrary("libA", chip.lib, tech::nmos()));  // duplicate
  EXPECT_EQ(srv.libraryCount(), 1u);

  // A read and an edit on one library are both served by its owner
  // shard, and by no other.
  ASSERT_TRUE(srv.submit("libA", CheckRequest::drc(top)).get().ok());
  CheckRequest edit = CheckRequest::drc(top);
  edit.edits.push_back(EditOp::setElement(
      chip.block, 0, e0.transformed(geom::translate({25, 0}))));
  ASSERT_TRUE(srv.submit("libA", std::move(edit)).get().ok());
  const server::ServerStats st = srv.stats();
  ASSERT_EQ(st.shards.size(), 4u);
  const int owner = srv.shardOf("libA");
  for (int s = 0; s < 4; ++s) {
    EXPECT_EQ(st.shards[s].served, s == owner ? 2u : 0u) << "shard " << s;
    EXPECT_EQ(st.shards[s].heat.size(), s == owner ? 1u : 0u)
        << "shard " << s;
  }

  EXPECT_TRUE(srv.dropLibrary("libA"));
  EXPECT_FALSE(srv.dropLibrary("libA"));
  EXPECT_EQ(srv.libraryCount(), 0u);
}

TEST(Server, UnknownLibraryReportsNotFound) {
  server::ServerOptions opts;
  opts.shards = 2;
  opts.threadsPerShard = 1;
  server::Server srv(opts);
  for (const CheckRequest& req :
       {CheckRequest::drc(0), CheckRequest::ercCheck(0)}) {
    const CheckResult r = srv.submit("ghost", req).get();
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.error, server::kErrLibraryNotFound);
    EXPECT_EQ(r.kind, req.kind);
  }
}

TEST(Server, ConcurrentSubmitMatchesSequentialPerLibrary) {
  // 4 libraries across 4 shards, hammered from 8 client threads with a
  // deterministic mixed trace. Every result must be byte-identical to a
  // sequential per-library Workspace run of the same request — the
  // serving tier may reorder *scheduling*, never *results*.
  constexpr int kLibs = 4;
  constexpr int kClients = 8;

  // Sequential reference: per library, per kind, the report text.
  std::map<std::string, std::map<CheckKind, std::string>> ref;
  for (int l = 0; l < kLibs; ++l) {
    workload::GeneratedChip chip = makeChip(10 + l);
    const layout::CellId top = chip.top;
    Workspace ws(std::move(chip.lib), tech::nmos(), {/*threads=*/1});
    const std::string id = workload::libraryName(l);
    for (const CheckKind k :
         {CheckKind::kHierarchicalDrc, CheckKind::kFlatBaselineDrc,
          CheckKind::kErc, CheckKind::kNetlistOnly}) {
      workload::TrafficEvent ev;
      ev.kind = k;
      ref[id][k] = ws.run(workload::materialize(ev, top)).report.text();
    }
  }

  server::ServerOptions opts;
  opts.shards = 4;
  opts.threadsPerShard = 2;
  opts.queue.capacity = 256;
  server::Server srv(opts);
  std::vector<layout::CellId> tops(kLibs);
  for (int l = 0; l < kLibs; ++l) {
    workload::GeneratedChip chip = makeChip(10 + l);
    tops[l] = chip.top;
    ASSERT_TRUE(srv.addLibrary(workload::libraryName(l), std::move(chip.lib),
                               tech::nmos()));
  }

  // One deterministic trace per client thread.
  struct Submitted {
    std::size_t library;
    CheckKind kind;
    std::future<CheckResult> fut;
  };
  std::vector<std::vector<Submitted>> perClient(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      workload::TrafficOptions topt;
      topt.libraries = kLibs;
      topt.requests = 12;
      topt.seed = 100 + static_cast<std::uint64_t>(c);
      for (const workload::TrafficEvent& ev : workload::generateTrace(topt)) {
        const std::string id = workload::libraryName(ev.library);
        perClient[c].push_back(
            {ev.library, ev.kind,
             srv.submit(id, workload::materialize(ev, tops[ev.library]))});
      }
    });
  }
  for (std::thread& t : clients) t.join();

  std::size_t checked = 0;
  for (auto& batch : perClient) {
    for (Submitted& s : batch) {
      const CheckResult r = s.fut.get();
      ASSERT_TRUE(r.ok()) << r.error;
      const std::string id = workload::libraryName(s.library);
      EXPECT_EQ(r.report.text(), ref[id][s.kind])
          << id << " kind " << toString(s.kind);
      ++checked;
    }
  }
  EXPECT_EQ(checked, static_cast<std::size_t>(kClients) * 12u);

  const server::ServerStats st = srv.stats();
  EXPECT_EQ(st.totalServed(), checked);
  EXPECT_EQ(st.totalRejected(), 0u);
  EXPECT_GT(st.totalCacheBytes(), 0u);  // warm views are accounted
}

TEST(Server, ShutdownDrainsQueuedWork) {
  // Queue up more work than one serial shard can start on immediately,
  // then shut down: phase 2 must drain — every accepted future resolves
  // with a real result, none with ServerStopped.
  server::ServerOptions opts;
  opts.shards = 1;
  opts.threadsPerShard = 1;
  opts.queue.capacity = 64;
  server::Server srv(opts);
  workload::GeneratedChip chip = makeChip(3);
  const layout::CellId top = chip.top;
  ASSERT_TRUE(srv.addLibrary("lib", std::move(chip.lib), tech::nmos()));

  std::vector<std::future<CheckResult>> futs;
  for (int k = 0; k < 16; ++k)
    futs.push_back(srv.submit("lib", CheckRequest::drc(top)));
  srv.shutdown();

  std::string refText;
  for (std::size_t k = 0; k < futs.size(); ++k) {
    CheckResult r = futs[k].get();
    ASSERT_TRUE(r.ok()) << "request " << k << ": " << r.error;
    if (k == 0)
      refText = r.report.text();
    else
      EXPECT_EQ(r.report.text(), refText) << "request " << k;
  }
  EXPECT_EQ(srv.stats().totalServed(), futs.size());

  // Phase 1 after the fact: the intake is closed.
  CheckResult late = srv.submit("lib", CheckRequest::drc(top)).get();
  EXPECT_EQ(late.error, server::kErrServerStopped);
  EXPECT_FALSE(srv.addLibrary("late", layout::Library{}, tech::nmos()));
}

TEST(Server, QueueFullRejectPath) {
  // Reject policy, capacity 1: stuff the single shard with heavy DRC
  // requests far faster than it can serve them. The overflow must come
  // back as immediate QueueFull results, and accepted + rejected must
  // account for every submission.
  server::ServerOptions opts;
  opts.shards = 1;
  opts.threadsPerShard = 1;
  opts.queue.capacity = 1;
  opts.queue.overflow = server::OverflowPolicy::kReject;
  server::Server srv(opts);
  workload::GeneratedChip chip = makeChip(4, {2, 2, 2, 4, true});
  const layout::CellId top = chip.top;
  ASSERT_TRUE(srv.addLibrary("lib", std::move(chip.lib), tech::nmos()));

  constexpr int kBurst = 12;
  std::vector<std::future<CheckResult>> futs;
  for (int k = 0; k < kBurst; ++k)
    futs.push_back(srv.submit("lib", CheckRequest::drc(top)));

  int ok = 0, rejected = 0;
  for (auto& f : futs) {
    CheckResult r = f.get();
    if (r.ok()) {
      ++ok;
    } else {
      EXPECT_EQ(r.error, server::kErrQueueFull);
      ++rejected;
    }
  }
  EXPECT_EQ(ok + rejected, kBurst);
  // A cold DRC on the 2x2-block chip takes orders of magnitude longer
  // than 12 enqueues; with one in flight and one queued slot, the burst
  // cannot all be accepted.
  EXPECT_GE(rejected, 1);
  EXPECT_GE(ok, 1);  // in-flight + queued still serve
  const server::ServerStats st = srv.stats();
  EXPECT_EQ(st.totalRejected(), static_cast<std::size_t>(rejected));
  EXPECT_EQ(st.totalServed(), static_cast<std::size_t>(ok));
}

TEST(Server, UnknownIdsAllocateNoHeatMetrics) {
  // Outside input must not grow the registry: a rejected or not-found
  // request for an id that was never registered counts on its shard
  // alone. The single serving thread is held inside a completion
  // callback, so the 1-slot queue is deterministically full.
  server::ServerOptions opts;
  opts.shards = 1;
  opts.threadsPerShard = 1;
  opts.queue.capacity = 1;
  opts.queue.overflow = server::OverflowPolicy::kReject;
  server::Server srv(opts);
  workload::GeneratedChip chip = makeChip(4);
  const layout::CellId top = chip.top;
  ASSERT_TRUE(srv.addLibrary("lib", std::move(chip.lib), tech::nmos()));

  std::promise<void> entered, release;
  std::shared_future<void> released = release.get_future().share();
  srv.submitAsync("lib", CheckRequest::drc(top),
                  [&entered, released](CheckResult) {
                    entered.set_value();
                    released.wait();
                  });
  entered.get_future().wait();
  // The thread is parked; the next request takes the only queue slot.
  std::future<CheckResult> queued = srv.submit("lib", CheckRequest::drc(top));

  constexpr int kGhosts = 16;
  for (int k = 0; k < kGhosts; ++k) {
    const CheckResult r =
        srv.submit("ghost" + std::to_string(k), CheckRequest::drc(top)).get();
    EXPECT_EQ(r.error, server::kErrQueueFull) << k;
  }
  constexpr int kLibRejects = 3;
  for (int k = 0; k < kLibRejects; ++k)
    EXPECT_EQ(srv.submit("lib", CheckRequest::drc(top)).get().error,
              server::kErrQueueFull);
  release.set_value();
  ASSERT_TRUE(queued.get().ok());
  // An accepted request for an unknown id fails on the shard alone too.
  EXPECT_EQ(srv.submit("ghost-late", CheckRequest::drc(top)).get().error,
            server::kErrLibraryNotFound);

  for (const obs::MetricValue& m : srv.metricsSnapshot().metrics)
    EXPECT_NE(m.name.rfind("library.ghost", 0), 0u) << m.name;
  const server::ServerStats st = srv.stats();
  ASSERT_EQ(st.shards.size(), 1u);
  const server::ShardStats& sh = st.shards[0];
  EXPECT_EQ(sh.rejected, static_cast<std::size_t>(kGhosts + kLibRejects));
  EXPECT_EQ(sh.served, 2u);
  EXPECT_EQ(sh.failed, 1u);
  EXPECT_EQ(sh.submitted, sh.served + sh.failed);
  ASSERT_EQ(sh.heat.size(), 1u);
  EXPECT_EQ(sh.heat[0].id, "lib");
  EXPECT_EQ(sh.heat[0].served, 2u);
  EXPECT_EQ(sh.heat[0].rejected, static_cast<std::size_t>(kLibRejects));
}

TEST(Server, StatsViewLatencyFromShardHistograms) {
  // ServerStats is computed from the registry: quantiles from each
  // shard's latency histogram, means as sum / count per job.
  server::ServerOptions opts;
  opts.shards = 2;
  opts.threadsPerShard = 1;
  server::Server srv(opts);
  const tech::Technology t = tech::nmos();
  std::vector<layout::CellId> tops;
  for (std::size_t l = 0; l < 4; ++l) {
    workload::GeneratedChip chip = makeChip(20 + static_cast<unsigned>(l));
    tops.push_back(chip.top);
    ASSERT_TRUE(srv.addLibrary(workload::libraryName(l), std::move(chip.lib), t));
  }
  for (int round = 0; round < 3; ++round)
    for (std::size_t l = 0; l < 4; ++l)
      ASSERT_TRUE(srv.submit(workload::libraryName(l),
                             CheckRequest::drc(tops[l]))
                      .get()
                      .ok());

  const obs::MetricsSnapshot snap = srv.metricsSnapshot();
  const server::ServerStats st = server::statsFromMetrics(snap);
  ASSERT_EQ(st.shards.size(), 2u);
  EXPECT_EQ(st.totalServed(), 12u);
  for (std::size_t s = 0; s < st.shards.size(); ++s) {
    const server::ShardStats& sh = st.shards[s];
    const obs::MetricValue* lat =
        snap.find("shard." + std::to_string(s) + ".latency_seconds");
    ASSERT_NE(lat, nullptr);
    std::uint64_t jobs = 0;
    for (std::uint64_t c : lat->buckets) jobs += c;
    EXPECT_EQ(jobs, sh.served) << "shard " << s;
    if (sh.served == 0) continue;
    EXPECT_LE(sh.p50Seconds, sh.p95Seconds) << "shard " << s;
    EXPECT_GT(sh.p50Seconds, 0.0);
    EXPECT_GT(sh.meanQueueWaitSeconds, 0.0) << "shard " << s;
    EXPECT_GT(sh.meanServiceSeconds, 0.0) << "shard " << s;
  }
}

TEST(Server, MixedKindsMatchSequentialWorkspace) {
  server::ServerOptions opts;
  opts.shards = 2;
  opts.threadsPerShard = 2;
  server::Server srv(opts);
  workload::GeneratedChip chip = makeChip(5);
  const layout::CellId top = chip.top;

  // Sequential reference on an identical library.
  workload::GeneratedChip ref = makeChip(5);
  Workspace ws(std::move(ref.lib), tech::nmos(), {1});

  ASSERT_TRUE(srv.addLibrary("lib", std::move(chip.lib), tech::nmos()));
  const std::vector<CheckRequest> reqs = {
      CheckRequest::drc(top), CheckRequest::baseline(top),
      CheckRequest::ercCheck(top), CheckRequest::netlistOnly(top)};
  std::vector<std::future<CheckResult>> futs;
  for (const CheckRequest& r : reqs) futs.push_back(srv.submit("lib", r));
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const CheckResult out = futs[i].get();
    ASSERT_TRUE(out.ok()) << out.error;
    EXPECT_EQ(out.report.text(), ws.run(reqs[i]).report.text())
        << "request " << i;
  }
  EXPECT_EQ(srv.stats().totalServed(), reqs.size());
}

TEST(Server, BadRootFailsAloneAndShardKeepsServing) {
  // A bad-root request comes back as an error result; the requests
  // around it on the same shard, before and after, stay byte-identical
  // to a sequential Workspace.
  server::ServerOptions opts;
  opts.shards = 2;
  opts.threadsPerShard = 2;
  server::Server srv(opts);
  workload::GeneratedChip chip = makeChip(6);
  const layout::CellId top = chip.top;
  ASSERT_TRUE(srv.addLibrary("lib", std::move(chip.lib), tech::nmos()));

  workload::GeneratedChip ref = makeChip(6);
  Workspace ws(std::move(ref.lib), tech::nmos(), {1});

  const std::vector<CheckRequest> reqs = {
      CheckRequest::drc(top), CheckRequest::drc(/*root=*/99999),
      CheckRequest::ercCheck(top), CheckRequest::drc(top)};
  std::vector<std::future<CheckResult>> futs;
  for (const CheckRequest& r : reqs) futs.push_back(srv.submit("lib", r));
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const CheckResult out = futs[i].get();
    const CheckResult want = ws.run(reqs[i]);
    if (i == 1) {
      EXPECT_FALSE(out.ok());
      EXPECT_FALSE(out.error.empty());
      EXPECT_EQ(out.error, want.error);
      continue;
    }
    ASSERT_TRUE(out.ok()) << "request " << i << ": " << out.error;
    EXPECT_EQ(out.report.text(), want.report.text()) << "request " << i;
  }
  EXPECT_EQ(srv.stats().totalServed(), reqs.size());
}

TEST(Server, RollingDropLibraryUnderSubmitStorm) {
  // The CI stress shape: clients storm two libraries while another
  // thread rolls one of them (drop + re-add) repeatedly. Every future
  // must resolve — to a real result or a clean LibraryNotFound — and
  // the survivor library's results must stay byte-identical throughout.
  server::ServerOptions opts;
  opts.shards = 2;
  opts.threadsPerShard = 2;
  opts.queue.capacity = 128;
  server::Server srv(opts);

  workload::GeneratedChip stable = makeChip(6);
  const layout::CellId stableTop = stable.top;
  ASSERT_TRUE(srv.addLibrary("stable", std::move(stable.lib), tech::nmos()));
  {
    workload::GeneratedChip rolling = makeChip(7);
    ASSERT_TRUE(
        srv.addLibrary("rolling", std::move(rolling.lib), tech::nmos()));
  }
  const layout::CellId rollingTop = makeChip(7).top;

  const std::string refText = [&] {
    workload::GeneratedChip c = makeChip(6);
    Workspace ws(std::move(c.lib), tech::nmos(), {1});
    return ws.run(CheckRequest::ercCheck(stableTop)).report.text();
  }();

  std::atomic<bool> stop{false};
  std::thread roller([&] {
    for (int k = 0; k < 8; ++k) {
      srv.dropLibrary("rolling");
      workload::GeneratedChip c = makeChip(7);
      srv.addLibrary("rolling", std::move(c.lib), tech::nmos());
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    stop.store(true);
  });

  std::vector<std::thread> clients;
  std::mutex outMu;
  std::size_t served = 0, notFound = 0;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      std::size_t myServed = 0, myNotFound = 0;
      int k = 0;
      while (!stop.load()) {
        const bool toRolling = (k++ + c) % 2 == 0;
        CheckResult r =
            toRolling
                ? srv.submit("rolling", CheckRequest::ercCheck(rollingTop))
                      .get()
                : srv.submit("stable", CheckRequest::ercCheck(stableTop))
                      .get();
        if (r.ok()) {
          ++myServed;
          if (!toRolling) {
            EXPECT_EQ(r.report.text(), refText);
          }
        } else {
          EXPECT_EQ(r.error, server::kErrLibraryNotFound);
          ++myNotFound;
        }
      }
      std::lock_guard<std::mutex> lock(outMu);
      served += myServed;
      notFound += myNotFound;
    });
  }
  for (std::thread& t : clients) t.join();
  roller.join();
  EXPECT_GT(served, 0u);  // traffic flowed throughout the roll
  srv.shutdown();
  // Server-side accounting matches what the clients observed and
  // reconciles after the drain: completed requests are served,
  // accepted-but-dropped ones are failed, and nothing is left pending.
  const server::ServerStats st = srv.stats();
  EXPECT_EQ(st.totalServed(), served);
  EXPECT_EQ(st.totalFailed(), notFound);
  std::size_t submitted = 0;
  for (const server::ShardStats& sh : st.shards) submitted += sh.submitted;
  EXPECT_EQ(submitted, st.totalServed() + st.totalFailed());
}

// TSan stress: edit-carrying checks racing plain checks on one library.
// The shard's single serving thread serializes the requests themselves;
// what races is everything around them — two submitters hammering the
// queue and promise handoff, and each request's stages fanning out over
// the shared worker pool while the next request's edit application
// invalidates the same cached view's flat copies and netlist. Every response must come
// back coherent: report byte-equal to the full-rebuild result for one
// of the two library states the toggle alternates between. (This test
// caught a cacheMu_/nlMu lock-order inversion between acquire()'s
// tryPatch and netlistFor's hit accounting.) Runs under the CI
// TSan filter ('Server.*').
TEST(Server, EditCheckRacesPlainChecks) {
  workload::GeneratedChip chip = makeChip(5);
  const layout::CellId top = chip.top;
  const layout::CellId block = chip.block;
  const tech::Technology t = tech::nmos();
  server::ServerOptions opts;
  opts.shards = 2;
  opts.threadsPerShard = 2;
  server::Server srv(opts);
  ASSERT_TRUE(srv.addLibrary("lib", chip.lib, t));

  // Full-rebuild oracle texts for the two states the toggle visits.
  const layout::Element e0 = std::as_const(chip.lib).cell(block).elements[0];
  const layout::Element e1 = e0.transformed(geom::translate({25, 0}));
  Workspace oracle(std::move(chip.lib), t, {1});
  const std::string text0 = oracle.run(CheckRequest::drc(top)).report.text();
  oracle.library().setElement(block, 0, e1);
  oracle.library().invalidateCaches();
  const std::string text1 = oracle.run(CheckRequest::drc(top)).report.text();

  constexpr int kPerThread = 40;
  std::vector<std::future<CheckResult>> editFutures, plainFutures;
  std::mutex mu;  // guards the future vectors across the two submitters
  std::thread editor([&] {
    for (int k = 0; k < kPerThread; ++k) {
      CheckRequest req = CheckRequest::drc(top);
      req.edits.push_back(
          EditOp::setElement(block, 0, (k & 1) != 0 ? e0 : e1));
      auto fut = srv.submit("lib", std::move(req));
      std::lock_guard<std::mutex> lock(mu);
      editFutures.push_back(std::move(fut));
    }
  });
  std::thread checker([&] {
    for (int k = 0; k < kPerThread; ++k) {
      auto fut = srv.submit("lib", CheckRequest::drc(top));
      std::lock_guard<std::mutex> lock(mu);
      plainFutures.push_back(std::move(fut));
    }
  });
  editor.join();
  checker.join();

  const auto coherent = [&](const std::string& text) {
    return text == text0 || text == text1;
  };
  for (auto& f : editFutures) {
    const CheckResult r = f.get();
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_TRUE(coherent(r.report.text()));
  }
  for (auto& f : plainFutures) {
    const CheckResult r = f.get();
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_TRUE(coherent(r.report.text()));
  }
  srv.shutdown();
}

// Mixed read/edit byte identity across shards: every response — on a
// trace where every 7th request carries an edit — must be byte-identical
// to a sequential Workspace replay of the same per-library stream. Each
// library has exactly one client issuing its stream sequentially (submit,
// await, compare), so the oracle state is well-defined at every step;
// the 8 clients run concurrently across 4 shards.
TEST(Server, MixedReadEditByteIdentity8Clients4Shards) {
  constexpr int kClients = 8;
  constexpr std::size_t kRequests = 40;
  server::ServerOptions opts;
  opts.shards = 4;
  opts.threadsPerShard = 2;
  server::Server srv(opts);
  const tech::Technology t = tech::nmos();

  struct Lib {
    std::string id;
    layout::CellId top{}, block{};
    std::unique_ptr<Workspace> oracle;
  };
  std::vector<Lib> libs(kClients);
  for (int c = 0; c < kClients; ++c) {
    workload::GeneratedChip chip = makeChip(40 + static_cast<unsigned>(c));
    libs[c] = {workload::libraryName(c), chip.top, chip.block, nullptr};
    ASSERT_TRUE(srv.addLibrary(libs[c].id, chip.lib, t));
    libs[c].oracle = std::make_unique<Workspace>(std::move(chip.lib), t,
                                                 WorkspaceOptions{1});
  }

  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Lib& lib = libs[c];
      const layout::Element e0 =
          std::as_const(lib.oracle->library()).cell(lib.block).elements[0];
      const layout::Element e1 = e0.transformed(geom::translate({25, 0}));
      workload::TrafficOptions topt;
      topt.libraries = 1;
      topt.requests = kRequests;
      topt.seed = 500 + static_cast<std::uint64_t>(c);
      int k = 0;
      for (const workload::TrafficEvent& ev : workload::generateTrace(topt)) {
        CheckRequest req = workload::materialize(ev, lib.top);
        if (++k % 7 == 0)
          req.edits.push_back(
              EditOp::setElement(lib.block, 0, (k & 1) != 0 ? e1 : e0));
        const CheckResult got = srv.submit(lib.id, req).get();
        const CheckResult want = lib.oracle->run(req);
        ASSERT_EQ(got.ok(), want.ok()) << lib.id << " step " << k << ": "
                                       << got.error;
        EXPECT_EQ(got.report.text(), want.report.text())
            << lib.id << " step " << k;
        if (::testing::Test::HasFailure()) return;
      }
    });
  }
  for (std::thread& th : threads) th.join();
  srv.shutdown();

  // Every library's traffic, reads and edits alike, was served by its
  // owner shard alone.
  const server::ServerStats st = srv.stats();
  EXPECT_EQ(st.totalServed(), kClients * kRequests);
  for (std::size_t s = 0; s < st.shards.size(); ++s)
    for (const server::LibraryHeat& h : st.shards[s].heat) {
      EXPECT_EQ(srv.shardOf(h.id), static_cast<int>(s)) << h.id;
      EXPECT_EQ(h.served, kRequests) << h.id;
    }
}

// --- the Workspace LRU cap the server relies on ------------------------------

TEST(WorkspaceLru, UnboundedByDefault) {
  workload::GeneratedChip chip = makeChip(8);
  Workspace ws(std::move(chip.lib), tech::nmos(), {1});
  ASSERT_TRUE(ws.run(CheckRequest::drc(chip.top)).ok());
  ASSERT_TRUE(ws.run(CheckRequest::drc(chip.block)).ok());
  const Workspace::CacheStats s = ws.cacheStats();
  EXPECT_EQ(s.cachedViews, 2u);
  EXPECT_EQ(s.lruEvictions, 0u);
  EXPECT_GT(s.cacheBytes, 0u);
}

TEST(WorkspaceLru, EvictsColdestRootAndStaysUnderCap) {
  // Measure the two roots' accounted footprints first, then cap the
  // cache so exactly one fits: serving the second root must evict the
  // first (the coldest), keep accounted bytes under the cap, and a
  // re-submit of the evicted root must rebuild byte-identically.
  const workload::ChipParams p = {1, 1, 2, 2, true};
  std::size_t bytesTop = 0, bytesBlock = 0;
  std::string refTop;
  layout::CellId top{}, block{};
  {
    workload::GeneratedChip chip = makeChip(9, p);
    top = chip.top;
    block = chip.block;
    Workspace ws(std::move(chip.lib), tech::nmos(), {1});
    const CheckResult r = ws.run(CheckRequest::drc(top));
    ASSERT_TRUE(r.ok());
    refTop = r.report.text();
    bytesTop = ws.cacheStats().cacheBytes;
    ASSERT_TRUE(ws.run(CheckRequest::drc(block)).ok());
    bytesBlock = ws.cacheStats().cacheBytes - bytesTop;
    ASSERT_GT(bytesTop, 0u);
    ASSERT_GT(bytesBlock, 0u);
  }

  workload::GeneratedChip chip = makeChip(9, p);
  WorkspaceOptions wopts;
  wopts.threads = 1;
  // Room for the larger root alone, not for both.
  wopts.maxCacheBytes = std::max(bytesTop, bytesBlock) + bytesTop / 8;
  ASSERT_LT(wopts.maxCacheBytes, bytesTop + bytesBlock);
  Workspace ws(std::move(chip.lib), tech::nmos(), wopts);

  ASSERT_TRUE(ws.run(CheckRequest::drc(top)).ok());
  {
    const Workspace::CacheStats s = ws.cacheStats();
    EXPECT_EQ(s.cachedViews, 1u);
    EXPECT_EQ(s.lruEvictions, 0u);
    EXPECT_LE(s.cacheBytes, wopts.maxCacheBytes);
  }

  // Root `block` becomes MRU; `top` is the coldest and must go.
  ASSERT_TRUE(ws.run(CheckRequest::drc(block)).ok());
  {
    const Workspace::CacheStats s = ws.cacheStats();
    EXPECT_EQ(s.cachedViews, 1u);
    EXPECT_EQ(s.lruEvictions, 1u);
    EXPECT_LE(s.cacheBytes, wopts.maxCacheBytes);
  }

  // The evicted root rebuilds transparently and byte-identically.
  const CheckResult again = ws.run(CheckRequest::drc(top));
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again.viewCacheHit);  // it was evicted, not cached
  EXPECT_EQ(again.report.text(), refTop);
  {
    const Workspace::CacheStats s = ws.cacheStats();
    EXPECT_EQ(s.lruEvictions, 2u);  // block went cold in turn
    EXPECT_LE(s.cacheBytes, wopts.maxCacheBytes);
  }
}

TEST(WorkspaceLru, ServerEnforcesPerLibraryCap) {
  // End to end through the server: a shard library with a tiny cap
  // serves alternating roots; the cache never holds both.
  const workload::ChipParams p = {1, 1, 2, 2, true};
  std::size_t oneRoot = 0;
  layout::CellId top{}, block{};
  {
    workload::GeneratedChip chip = makeChip(11, p);
    top = chip.top;
    block = chip.block;
    Workspace ws(std::move(chip.lib), tech::nmos(), {1});
    ASSERT_TRUE(ws.run(CheckRequest::drc(top)).ok());
    oneRoot = ws.cacheStats().cacheBytes;
  }

  server::ServerOptions opts;
  opts.shards = 1;
  opts.threadsPerShard = 1;
  opts.maxCacheBytesPerLibrary = oneRoot + oneRoot / 2;
  server::Server srv(opts);
  workload::GeneratedChip chip = makeChip(11, p);
  ASSERT_TRUE(srv.addLibrary("lib", std::move(chip.lib), tech::nmos()));

  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(srv.submit("lib", CheckRequest::drc(top)).get().ok());
    ASSERT_TRUE(srv.submit("lib", CheckRequest::drc(block)).get().ok());
  }
  const server::ServerStats st = srv.stats();
  ASSERT_EQ(st.shards.size(), 1u);
  EXPECT_LE(st.shards[0].cacheBytes, opts.maxCacheBytesPerLibrary);
  EXPECT_EQ(st.shards[0].served, 6u);
}

}  // namespace
}  // namespace dic
