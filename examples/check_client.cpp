// A net::Client talking to a running check_server_tcp: submits a mixed
// batch of checks over one multiplexed connection, then (with --stats)
// fetches the server's metrics registry over the wire and prints its
// ServerStats view — per-shard queue depth, served/rejected counts,
// p50/p95 end-to-end latency, and per-library heat — the remote version
// of the table examples/check_server prints locally. --metrics dumps
// the same registry raw; --trace submits one extra check and prints the
// span tree the server recorded for it (the server must run with
// tracing on, e.g. check_server_tcp ... trace).
//
//   $ ./examples/check_client --port P [--host 127.0.0.1]
//         [--requests N] [--library lib0] [--stats] [--metrics]
//         [--trace [out.json]]
//
// The root cell id is recovered by regenerating the canonical fleet
// chip locally (workload::fleetChip) — the same recipe the server
// example registers, so no layout crosses the wire.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <string>
#include <vector>

#include "net/client.hpp"
#include "obs/trace.hpp"
#include "workload/traffic.hpp"

int main(int argc, char** argv) {
  using namespace dic;
  net::ClientOptions copts;
  copts.requestTimeoutSeconds = 30;
  std::size_t requests = 8;
  std::string library = "lib0";
  bool wantStats = false;
  bool wantMetrics = false;
  bool wantTrace = false;
  std::string traceOut;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--port" && i + 1 < argc)
      copts.port = static_cast<std::uint16_t>(std::atoi(argv[++i]));
    else if (a == "--host" && i + 1 < argc)
      copts.host = argv[++i];
    else if (a == "--requests" && i + 1 < argc)
      requests = static_cast<std::size_t>(std::atoi(argv[++i]));
    else if (a == "--library" && i + 1 < argc)
      library = argv[++i];
    else if (a == "--stats")
      wantStats = true;
    else if (a == "--metrics")
      wantMetrics = true;
    else if (a == "--trace") {
      wantTrace = true;
      // Optional value: a path to write Chrome/Perfetto JSON to.
      if (i + 1 < argc && argv[i + 1][0] != '-') traceOut = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: check_client --port P [--host H] [--requests N] "
                   "[--library ID] [--stats] [--metrics] "
                   "[--trace [out.json]]\n");
      return 2;
    }
  }
  if (copts.port == 0) {
    std::fprintf(stderr, "check_client: --port is required\n");
    return 2;
  }

  net::Client client(copts);
  std::string err;
  if (!client.connect(&err)) {
    std::fprintf(stderr, "check_client: connect failed: %s\n", err.c_str());
    return 1;
  }

  const layout::CellId top = workload::fleetChip(tech::nmos()).top;
  const CheckRequest kinds[] = {
      CheckRequest::drc(top), CheckRequest::baseline(top),
      CheckRequest::ercCheck(top), CheckRequest::netlistOnly(top)};
  const char* names[] = {"drc", "baseline", "erc", "netlist"};

  // All requests in flight at once over the one connection; responses
  // are matched back by request id.
  std::vector<std::future<CheckResult>> futs;
  for (std::size_t i = 0; i < requests; ++i)
    futs.push_back(client.submit(library, kinds[i % 4]));
  std::size_t failures = 0;
  for (std::size_t i = 0; i < futs.size(); ++i) {
    const CheckResult r = futs[i].get();
    if (r.ok()) {
      std::printf("%-8s %4zu violations  %7.2f ms  %s%s\n", names[i % 4],
                  r.report.violations().size(), r.seconds * 1e3,
                  r.viewCacheHit ? "view-hit " : "view-miss ",
                  r.netlistCacheHit ? "netlist-hit" : "");
    } else {
      ++failures;
      std::printf("%-8s FAILED: %s\n", names[i % 4], r.error.c_str());
    }
  }

  if (wantStats) {
    server::ServerStats st;
    if (!client.stats(st, &err)) {
      std::fprintf(stderr, "check_client: stats failed: %s\n", err.c_str());
      return 1;
    }
    std::printf("\n%-6s %5s %6s %7s %7s %7s %9s %9s\n", "shard", "libs",
                "queue", "served", "reject", "failed", "p50-ms", "p95-ms");
    for (std::size_t s = 0; s < st.shards.size(); ++s) {
      const server::ShardStats& sh = st.shards[s];
      std::printf("%-6zu %5zu %6zu %7zu %7zu %7zu %9.2f %9.2f\n", s,
                  sh.libraries, sh.queueDepth, sh.served, sh.rejected,
                  sh.failed, sh.p50Seconds * 1e3, sh.p95Seconds * 1e3);
    }
    std::printf("total: %zu served, %zu rejected over the wire\n",
                st.totalServed(), st.totalRejected());
    // One heat row per library, listed under the shard that owns and
    // serves it.
    std::printf("\n%-12s %5s %7s %7s %10s\n", "library", "shard",
                "served", "reject", "bytes");
    for (std::size_t s = 0; s < st.shards.size(); ++s) {
      for (const server::LibraryHeat& h : st.shards[s].heat) {
        std::printf("%-12s %5zu %7zu %7zu %10llu\n", h.id.c_str(), s,
                    h.served, h.rejected,
                    static_cast<unsigned long long>(h.bytes));
      }
    }
  }

  if (wantMetrics) {
    obs::MetricsSnapshot snap;
    if (!client.metrics(snap, &err)) {
      std::fprintf(stderr, "check_client: metrics failed: %s\n", err.c_str());
      return 1;
    }
    std::printf("\n%zu metrics:\n", snap.metrics.size());
    for (const obs::MetricValue& m : snap.metrics) {
      switch (m.kind) {
        case obs::MetricValue::Kind::kCounter:
          std::printf("  %-40s counter  %llu\n", m.name.c_str(),
                      static_cast<unsigned long long>(m.counter));
          break;
        case obs::MetricValue::Kind::kGauge:
          std::printf("  %-40s gauge    %lld\n", m.name.c_str(),
                      static_cast<long long>(m.gauge));
          break;
        case obs::MetricValue::Kind::kHistogram: {
          std::uint64_t total = 0;
          for (std::uint64_t c : m.buckets) total += c;
          std::printf("  %-40s histo    %llu obs in %zu buckets, sum %g\n",
                      m.name.c_str(), static_cast<unsigned long long>(total),
                      m.buckets.size(), m.sum);
          break;
        }
      }
    }
  }

  if (wantTrace) {
    // One more request whose id we keep, so we can ask the server for
    // exactly that request's span tree.
    std::uint64_t id = 0;
    const CheckResult r = client.submit(library, kinds[0], &id).get();
    if (!r.ok()) {
      std::fprintf(stderr, "check_client: trace request failed: %s\n",
                   r.error.c_str());
      return 1;
    }
    std::vector<dic::obs::SpanRecord> spans;
    if (!client.trace(id, spans, &err)) {
      std::fprintf(stderr, "check_client: trace fetch failed: %s\n",
                   err.c_str());
      return 1;
    }
    if (spans.empty()) {
      std::fprintf(stderr,
                   "check_client: no spans (is the server running with "
                   "tracing on?)\n");
      return 1;
    }
    std::vector<dic::obs::SpanRecord> byStart = spans;
    std::sort(byStart.begin(), byStart.end(),
              [](const auto& a, const auto& b) { return a.startNs < b.startNs; });
    std::printf("\ntrace %llu: %zu spans\n",
                static_cast<unsigned long long>(id), spans.size());
    for (const auto& s : byStart)
      std::printf("  %-24s %9.3f ms  (tid %u)\n",
                  std::string(s.label()).c_str(), s.durNs / 1e6, s.tid);
    if (!traceOut.empty()) {
      const std::string json = obs::toChromeTraceJson(spans);
      if (std::FILE* f = std::fopen(traceOut.c_str(), "w")) {
        std::fwrite(json.data(), 1, json.size(), f);
        std::fclose(f);
        std::printf("wrote %s (load in ui.perfetto.dev)\n", traceOut.c_str());
      } else {
        std::fprintf(stderr, "check_client: cannot write %s\n",
                     traceOut.c_str());
        return 1;
      }
    }
  }

  const net::ClientTelemetry tel = client.telemetry();
  std::printf("\nconnection: %zu frames out, %zu frames in (%zu report "
              "parts, %zu rejected)\n",
              tel.framesOut, tel.framesIn, tel.reportPartFrames,
              tel.rejectedFrames);
  return failures == 0 ? 0 : 1;
}
