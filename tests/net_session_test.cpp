// The dic::net session layer over real sockets on loopback: a
// net::Listener fronting a server::Server, driven by net::Client and by
// raw sockets speaking deliberately broken protocol. Covers the ISSUE 8
// acceptance points — wire responses byte-identical to in-process
// submits, many ids multiplexed over one connection, streamed report
// delivery, the kReject -> kRejected backpressure mapping, the
// graceful-shutdown drain, and the rule that a malformed frame or a
// mid-frame disconnect closes that one session and nothing else.
#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/client.hpp"
#include "net/listener.hpp"
#include "net/socket.hpp"
#include "server/server.hpp"
#include "workload/traffic.hpp"

namespace {

using namespace dic;

/// Register `libraries` copies of the canonical fleet chip (the same
/// recipe check_server_tcp serves) and return the shared top cell id.
layout::CellId addFleet(server::Server& srv, std::size_t libraries) {
  const tech::Technology t = tech::nmos();
  layout::CellId top = 0;
  for (std::size_t l = 0; l < libraries; ++l) {
    workload::GeneratedChip chip = workload::fleetChip(t);
    top = chip.top;
    EXPECT_TRUE(
        srv.addLibrary(workload::libraryName(l), std::move(chip.lib), t));
  }
  return top;
}

bool pollUntil(const std::function<bool()>& pred, double seconds = 10.0) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(seconds));
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return pred();
}

/// The four request kinds against one root.
std::vector<CheckRequest> allKinds(layout::CellId top) {
  return {CheckRequest::drc(top), CheckRequest::baseline(top),
          CheckRequest::ercCheck(top), CheckRequest::netlistOnly(top)};
}

TEST(NetSession, EndToEndByteIdenticalToInProcess) {
  server::Server srv{server::ServerOptions{}};
  const layout::CellId top = addFleet(srv, 1);
  net::Listener listener(srv);
  net::ClientOptions copts;
  copts.port = listener.port();
  net::Client client(copts);

  for (const CheckRequest& req : allKinds(top)) {
    CheckRequest tagged = req;
    tagged.tag = "wire";
    const CheckResult wire = client.check("lib0", tagged);
    const CheckResult ref = srv.submit("lib0", req).get();
    ASSERT_TRUE(ref.error.empty()) << ref.error;
    ASSERT_TRUE(wire.error.empty()) << wire.error;
    EXPECT_EQ(wire.kind, req.kind);
    EXPECT_EQ(wire.root, top);
    EXPECT_EQ(wire.tag, "wire");
    EXPECT_EQ(wire.report.text(), ref.report.text());
  }

  // A server-level failure crosses the wire through the same per-
  // request error channel the in-process API uses.
  const CheckResult missing = client.check("no-such-lib",
                                           CheckRequest::drc(top));
  EXPECT_EQ(missing.error, server::kErrLibraryNotFound);

  listener.shutdown();
  srv.shutdown();
}

TEST(NetSession, ConcurrentMultiplexingOverOneConnection) {
  server::Server srv{server::ServerOptions{}};
  const layout::CellId top = addFleet(srv, 2);
  net::Listener listener(srv);
  net::ClientOptions copts;
  copts.port = listener.port();
  net::Client client(copts);

  // In-process reference per (library, kind).
  const std::vector<CheckRequest> kinds = allKinds(top);
  std::string ref[2][4];
  for (std::size_t l = 0; l < 2; ++l)
    for (std::size_t k = 0; k < 4; ++k) {
      const CheckResult r =
          srv.submit(workload::libraryName(l), kinds[k]).get();
      ASSERT_TRUE(r.error.empty()) << r.error;
      ref[l][k] = r.report.text();
    }

  // 64 in-flight ids over the one socket, submitted from 8 threads.
  constexpr std::size_t kThreads = 8, kPerThread = 8;
  std::future<CheckResult> futs[kThreads * kPerThread];
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        const std::size_t k = t * kPerThread + i;
        CheckRequest req = kinds[(k / 2) % 4];
        req.tag = "t" + std::to_string(k);
        futs[k] = client.submit(workload::libraryName(k % 2), req);
      }
    });
  for (std::thread& th : threads) th.join();

  for (std::size_t k = 0; k < kThreads * kPerThread; ++k) {
    const CheckResult r = futs[k].get();
    ASSERT_TRUE(r.error.empty()) << k << ": " << r.error;
    // The echoed tag proves the response was matched to the right id.
    EXPECT_EQ(r.tag, "t" + std::to_string(k));
    EXPECT_EQ(r.kind, kinds[(k / 2) % 4].kind);
    EXPECT_EQ(r.report.text(), ref[k % 2][(k / 2) % 4]);
  }

  const net::ClientTelemetry tel = client.telemetry();
  EXPECT_GE(tel.framesOut, kThreads * kPerThread);
  EXPECT_GE(tel.framesIn, kThreads * kPerThread);

  listener.shutdown();
  srv.shutdown();
}

TEST(NetSession, StreamingLargeReportDelivery) {
  server::Server srv{server::ServerOptions{}};
  const layout::CellId top = addFleet(srv, 1);
  // Tiny chunk: any report beyond 2 violations must stream as
  // kReportPart frames closed by a kReportEnd.
  net::ListenerOptions lopts;
  lopts.reportChunkViolations = 2;
  net::Listener listener(srv, lopts);
  net::ClientOptions copts;
  copts.port = listener.port();
  net::Client client(copts);

  const CheckResult ref = srv.submit("lib0", CheckRequest::drc(top)).get();
  ASSERT_TRUE(ref.error.empty()) << ref.error;
  // The fleet chip's injected plan plants a dozen real violations; the
  // streaming path needs at least three to produce multiple parts.
  ASSERT_GE(ref.report.count(), 3u);

  const CheckResult wire = client.check("lib0", CheckRequest::drc(top));
  ASSERT_TRUE(wire.error.empty()) << wire.error;
  EXPECT_EQ(wire.report.text(), ref.report.text());
  EXPECT_GE(client.telemetry().reportPartFrames, 2u);

  listener.shutdown();
  srv.shutdown();
}

TEST(NetSession, BackpressureRejectMapsToRejectedFrame) {
  server::ServerOptions sopts;
  sopts.shards = 1;
  sopts.threadsPerShard = 1;
  sopts.queue.capacity = 1;
  sopts.queue.overflow = server::OverflowPolicy::kReject;
  server::Server srv(sopts);
  const layout::CellId top = addFleet(srv, 1);
  net::Listener listener(srv);
  net::ClientOptions copts;
  copts.port = listener.port();
  net::Client client(copts);

  // The cold first request occupies the single worker while the burst
  // lands, so the one-slot queue must turn most of the burst away.
  std::vector<std::future<CheckResult>> futs;
  futs.push_back(client.submit("lib0", CheckRequest::drc(top)));
  for (int i = 0; i < 16; ++i)
    futs.push_back(client.submit("lib0", CheckRequest::drc(top)));

  std::size_t served = 0, rejected = 0;
  for (auto& f : futs) {
    const CheckResult r = f.get();
    if (r.error.empty()) {
      ++served;
    } else {
      EXPECT_EQ(r.error, server::kErrQueueFull);
      ++rejected;
      EXPECT_TRUE(r.report.empty());  // a turndown ships no violations
    }
  }
  EXPECT_EQ(served + rejected, futs.size());
  EXPECT_GE(served, 1u);
  EXPECT_GE(rejected, 1u);
  EXPECT_EQ(client.telemetry().rejectedFrames, rejected);

  listener.shutdown();
  srv.shutdown();
}

TEST(NetSession, GracefulShutdownDrainsAcceptedRequests) {
  server::Server srv{server::ServerOptions{}};
  const layout::CellId top = addFleet(srv, 1);
  auto listener = std::make_unique<net::Listener>(srv);
  const std::uint16_t port = listener->port();
  net::ClientOptions copts;
  copts.port = port;
  net::Client client(copts);

  constexpr std::size_t kRequests = 6;
  std::vector<std::future<CheckResult>> futs;
  for (std::size_t i = 0; i < kRequests; ++i) {
    CheckRequest req = CheckRequest::drc(top);
    req.tag = "drain" + std::to_string(i);
    futs.push_back(client.submit("lib0", req));
  }
  // Wait until the listener has decoded all six request frames, so the
  // shutdown below races against in-flight work, not intake.
  ASSERT_TRUE(pollUntil(
      [&] { return listener->stats().framesIn >= kRequests; }));

  listener->shutdown();
  // The drain contract: everything accepted before shutdown completes
  // with a real, flushed response.
  const CheckResult ref = srv.submit("lib0", CheckRequest::drc(top)).get();
  for (std::size_t i = 0; i < futs.size(); ++i) {
    const CheckResult r = futs[i].get();
    ASSERT_TRUE(r.error.empty()) << i << ": " << r.error;
    EXPECT_EQ(r.tag, "drain" + std::to_string(i));
    EXPECT_EQ(r.report.text(), ref.report.text());
  }
  const net::ListenerStats ls = listener->stats();
  EXPECT_EQ(ls.framesIn, kRequests);
  EXPECT_GE(ls.framesOut, kRequests);
  EXPECT_EQ(ls.sessionsOpen, 0u);

  // New connections are refused once the drain has begun.
  net::ClientOptions copts2;
  copts2.port = port;
  copts2.connectTimeoutSeconds = 1.0;
  net::Client late(copts2);
  std::string err;
  EXPECT_FALSE(late.connect(&err));

  listener.reset();
  srv.shutdown();
}

TEST(NetSession, MalformedFrameClosesOnlyThatSession) {
  server::Server srv{server::ServerOptions{}};
  const layout::CellId top = addFleet(srv, 1);
  net::Listener listener(srv);
  net::ClientOptions copts;
  copts.port = listener.port();
  net::Client client(copts);
  ASSERT_TRUE(client.check("lib0", CheckRequest::drc(top)).error.empty());

  // A raw connection speaking garbage: the server answers with a
  // best-effort kError frame naming the failure, then closes.
  std::string err;
  net::Socket raw =
      net::connectTo("127.0.0.1", listener.port(), 5.0, &err);
  ASSERT_TRUE(raw.valid()) << err;
  std::vector<std::uint8_t> junk(net::kHeaderSize, 0xAB);
  ASSERT_TRUE(raw.sendAll(junk.data(), junk.size()));

  std::uint8_t hdr[net::kHeaderSize];
  ASSERT_TRUE(raw.recvAll(hdr, net::kHeaderSize));
  net::FrameHeader h;
  ASSERT_TRUE(net::parseHeader(hdr, h, &err)) << err;
  EXPECT_EQ(h.type, net::FrameType::kError);
  std::vector<std::uint8_t> payload(h.payloadLen);
  ASSERT_TRUE(raw.recvAll(payload.data(), payload.size()));
  EXPECT_EQ(net::decodeErrorPayload(payload.data(), payload.size()),
            "bad magic");
  // ... followed by an orderly close of that session only.
  std::uint8_t byte;
  EXPECT_FALSE(raw.recvAll(&byte, 1));
  EXPECT_TRUE(pollUntil(
      [&] { return listener.stats().malformedSessions == 1; }));

  // The well-behaved session on the same listener is untouched.
  EXPECT_TRUE(client.check("lib0", CheckRequest::drc(top)).error.empty());

  listener.shutdown();
  srv.shutdown();
}

TEST(NetSession, SelfInstanceEditIsAnErrorResultNotACrash) {
  // A kCheck whose edit instances the root into itself once made every
  // hierarchy walk recurse without bound, killing the server. It must be
  // rejected at the edge as an error result, and the server must answer
  // the next request byte-identically to before.
  server::Server srv{server::ServerOptions{}};
  const layout::CellId top = addFleet(srv, 1);
  net::Listener listener(srv);
  net::ClientOptions copts;
  copts.port = listener.port();
  net::Client client(copts);
  const CheckResult before = client.check("lib0", CheckRequest::drc(top));
  ASSERT_TRUE(before.error.empty()) << before.error;

  CheckRequest loop = CheckRequest::drc(top);
  EditOp op;
  op.kind = EditOp::Kind::kAddInstance;
  op.cell = top;
  op.instance = {top, {geom::Orient::kR0, {0, 0}}, "self"};
  loop.edits.push_back(op);
  const CheckResult bad = client.check("lib0", loop);
  EXPECT_NE(bad.error.find("cycle"), std::string::npos) << bad.error;

  const CheckResult after = client.check("lib0", CheckRequest::drc(top));
  ASSERT_TRUE(after.error.empty()) << after.error;
  EXPECT_EQ(after.report.text(), before.report.text());

  listener.shutdown();
  srv.shutdown();
}

TEST(NetSession, MidFrameDisconnectIsACleanSessionEnd) {
  server::Server srv{server::ServerOptions{}};
  const layout::CellId top = addFleet(srv, 1);
  net::Listener listener(srv);
  net::ClientOptions copts;
  copts.port = listener.port();
  net::Client client(copts);
  ASSERT_TRUE(client.check("lib0", CheckRequest::drc(top)).error.empty());

  // Half a header, then a hard close: an ordinary session end, not a
  // protocol error.
  {
    std::string err;
    net::Socket raw =
        net::connectTo("127.0.0.1", listener.port(), 5.0, &err);
    ASSERT_TRUE(raw.valid()) << err;
    std::vector<std::uint8_t> half;
    net::appendHeader(half, net::FrameType::kCheck, 1, 64);
    ASSERT_TRUE(raw.sendAll(half.data(), net::kHeaderSize / 2));
  }
  ASSERT_TRUE(pollUntil([&] {
    const net::ListenerStats s = listener.stats();
    return s.sessionsAccepted == 2 && s.sessionsOpen == 1;
  }));
  EXPECT_EQ(listener.stats().malformedSessions, 0u);
  EXPECT_TRUE(client.check("lib0", CheckRequest::drc(top)).error.empty());

  listener.shutdown();
  srv.shutdown();
}

TEST(NetSession, StatsOverWire) {
  server::ServerOptions sopts;
  sopts.shards = 2;
  server::Server srv(sopts);
  const layout::CellId top = addFleet(srv, 2);
  net::Listener listener(srv);
  net::ClientOptions copts;
  copts.port = listener.port();
  net::Client client(copts);

  for (std::size_t l = 0; l < 2; ++l)
    ASSERT_TRUE(client.check(workload::libraryName(l),
                             CheckRequest::drc(top)).error.empty());

  // At quiescence the wire view (kMetrics + statsFromMetrics) and the
  // local view agree on every count, shard by shard.
  server::ServerStats wire;
  std::string err;
  ASSERT_TRUE(client.stats(wire, &err)) << err;
  const server::ServerStats local = srv.stats();
  ASSERT_EQ(wire.shards.size(), local.shards.size());
  std::size_t libs = 0;
  for (std::size_t s = 0; s < wire.shards.size(); ++s) {
    const server::ShardStats& w = wire.shards[s];
    const server::ShardStats& l = local.shards[s];
    EXPECT_EQ(w.libraries, l.libraries) << "shard " << s;
    EXPECT_EQ(w.submitted, l.submitted) << "shard " << s;
    EXPECT_EQ(w.served, l.served) << "shard " << s;
    EXPECT_EQ(w.rejected, l.rejected) << "shard " << s;
    EXPECT_EQ(w.failed, l.failed) << "shard " << s;
    EXPECT_EQ(w.cacheBytes, l.cacheBytes) << "shard " << s;
    ASSERT_EQ(w.heat.size(), l.heat.size()) << "shard " << s;
    for (std::size_t h = 0; h < w.heat.size(); ++h) {
      EXPECT_EQ(w.heat[h].id, l.heat[h].id);
      EXPECT_EQ(w.heat[h].served, l.heat[h].served) << w.heat[h].id;
      EXPECT_EQ(w.heat[h].rejected, l.heat[h].rejected) << w.heat[h].id;
      EXPECT_EQ(w.heat[h].bytes, l.heat[h].bytes) << w.heat[h].id;
    }
    libs += w.libraries;
  }
  EXPECT_EQ(libs, 2u);
  EXPECT_EQ(wire.totalServed(), 2u);

  listener.shutdown();
  srv.shutdown();
}

// --- client failure channels against a server that never answers -----------

TEST(NetClient, RequestTimeoutExpiresFuture) {
  // A listener that accepts and then goes silent: the per-request
  // deadline is client-side and must fire without any server help.
  net::Acceptor acc;
  ASSERT_TRUE(acc.listenOn("127.0.0.1", 0));
  net::Socket held;
  std::thread accepter([&] { held = acc.accept(); });

  net::ClientOptions copts;
  copts.port = acc.port();
  copts.requestTimeoutSeconds = 0.05;
  copts.reconnect = false;
  net::Client client(copts);
  const CheckResult r = client.check("lib0", CheckRequest::drc(0));
  EXPECT_EQ(r.error, net::kErrNetTimeout);
  EXPECT_GE(client.telemetry().timeouts, 1u);

  accepter.join();
  client.close();
  acc.shutdownListen();
}

TEST(NetClient, ConnectionLostFailsPendingFutures) {
  net::Acceptor acc;
  ASSERT_TRUE(acc.listenOn("127.0.0.1", 0));

  net::ClientOptions copts;
  copts.port = acc.port();
  copts.reconnect = false;
  net::Client client(copts);
  std::string err;
  ASSERT_TRUE(client.connect(&err)) << err;
  std::future<CheckResult> fut = client.submit("lib0", CheckRequest::drc(0));

  // Accept the queued handshake, then slam the connection shut.
  net::Socket held = acc.accept();
  ASSERT_TRUE(held.valid());
  held.close();

  EXPECT_EQ(fut.get().error, net::kErrConnectionLost);
  acc.shutdownListen();
}

TEST(NetClient, ConnectToClosedPortFails) {
  // Bind an ephemeral port, then release it: connecting to it must
  // fail with a reason, not hang.
  std::uint16_t port = 0;
  {
    net::Acceptor acc;
    ASSERT_TRUE(acc.listenOn("127.0.0.1", 0));
    port = acc.port();
  }
  net::ClientOptions copts;
  copts.port = port;
  copts.connectTimeoutSeconds = 1.0;
  net::Client client(copts);
  std::string err;
  EXPECT_FALSE(client.connect(&err));
  EXPECT_FALSE(err.empty());
}

}  // namespace
