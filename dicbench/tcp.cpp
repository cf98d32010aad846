// tcp_read / tcp_edit: the TCP kCheck path. A spawned
// example_check_server_tcp (4 fleet libraries, 2 shards x 1 thread)
// takes open-loop Poisson traffic at a few fixed rates from this
// process over <= 2 connections; each request is timed from its
// scheduled send to its last response frame. Every library is pinned
// to the connection of its owner shard, so per-library order on the
// wire is trace order and every response is compared byte for byte
// with a sequential in-process replay.
#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <climits>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <map>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "engine/executor.hpp"
#include "net/client.hpp"
#include "server/server.hpp"
#include "workloads.hpp"
#include "workload/traffic.hpp"

namespace dicbench {
namespace {

using namespace dic;

constexpr std::size_t kLibraries = 4;
constexpr int kShards = 2;
constexpr int kThreadsPerShard = 1;
constexpr double kTailPct = 90;
constexpr double kSliceSeconds = 0.5;
/// Server instances per run: each set-up spawns one and all of them
/// serve, slices rotating among them, so one process's luck (thread
/// placement, memory layout) is a third of the sample, not all of it.
constexpr std::size_t kInstances = 3;
/// Set-ups per run (setup_s is their median); the last kInstances serve.
constexpr int kSetups = 5;

/// Per-workload traffic shape: fixed open-loop rates (ascending), the
/// reference rate the latency metrics are read at, and the tail limit
/// max_rate_rps is judged against.
struct Shape {
  std::vector<double> rates;
  double referenceRate;
  double tailLimitMs;
  double editWeight;  ///< vs drc 4 : erc 3 : netlist 1

  std::size_t referenceIndex() const {
    return std::size_t(std::find(rates.begin(), rates.end(), referenceRate) -
                       rates.begin());
  }
};
const Shape kRead{{1000, 2000, 4000, 6000}, 2000, 1.0, 0};
const Shape kEdit{{250, 500, 1000, 2000}, 500, 5.0, 8};

/// CPU placement on hosts with >= 4 cores: the server gets the lower
/// half of the CPUs and the load generator the upper half, so the two
/// never migrate onto each other's cores and run-to-run placement is
/// the same. Smaller hosts share everything.
cpu_set_t cpuRange(int lo, int hi) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c = lo; c < hi; ++c) CPU_SET(c, &set);
  return set;
}
int hostCpus() { return dic::engine::Executor::hardwareThreads(); }
bool splitCpus() { return hostCpus() >= 4; }
cpu_set_t serverCpus() { return cpuRange(0, hostCpus() / 2); }
cpu_set_t generatorCpus() { return cpuRange(hostCpus() / 2, hostCpus()); }
cpu_set_t allCpus() { return cpuRange(0, hostCpus()); }
void pinTo(const cpu_set_t& set) {
  if (splitCpus()) ::sched_setaffinity(0, sizeof set, &set);
}

/// The spawned server: stdin pipe (closing it drains the server),
/// LISTENING handshake on stdout, and its rusage once reaped.
class ServerProcess {
 public:
  ServerProcess() = default;
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;
  ~ServerProcess() { terminate(); }

  bool spawn() {
    char exe[PATH_MAX] = {0};
    const ssize_t n = ::readlink("/proc/self/exe", exe, sizeof exe - 1);
    if (n <= 0) return false;
    std::string path(exe, static_cast<std::size_t>(n));
    path = path.substr(0, path.rfind('/') + 1) + "example_check_server_tcp";
    // Close-on-exec: a later server must not inherit this one's stdin
    // pipe, or closing it here would never reach EOF there.
    int toChild[2], fromChild[2];
    if (::pipe2(toChild, O_CLOEXEC) != 0) return false;
    if (::pipe2(fromChild, O_CLOEXEC) != 0) {
      ::close(toChild[0]);
      ::close(toChild[1]);
      return false;
    }
    pid_ = ::fork();
    if (pid_ < 0) return false;
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive the benchmark
      pinTo(serverCpus());
      ::dup2(toChild[0], 0);
      ::dup2(fromChild[1], 1);
      ::close(toChild[0]);
      ::close(toChild[1]);
      ::close(fromChild[0]);
      ::close(fromChild[1]);
      const std::string libs = std::to_string(kLibraries);
      const std::string shards = std::to_string(kShards);
      const std::string threads = std::to_string(kThreadsPerShard);
      ::execl(path.c_str(), path.c_str(), "0", libs.c_str(), shards.c_str(),
              threads.c_str(), "256", "block", static_cast<char*>(nullptr));
      std::_Exit(127);
    }
    ::close(toChild[0]);
    ::close(fromChild[1]);
    stdinFd_ = toChild[1];
    std::FILE* out = ::fdopen(fromChild[0], "r");
    if (!out) return false;
    char line[256];
    while (std::fgets(line, sizeof line, out)) {
      unsigned p = 0;
      if (std::sscanf(line, "LISTENING %u", &p) == 1) {
        port_ = static_cast<std::uint16_t>(p);
        break;
      }
    }
    std::fclose(out);
    return port_ != 0;
  }

  /// Close stdin and reap; a server that has not drained within 30 s is
  /// killed. Returns the exit status (-1 if abnormal).
  int terminate() {
    if (stdinFd_ >= 0) {
      ::close(stdinFd_);
      stdinFd_ = -1;
    }
    if (pid_ <= 0) return status_;
    int st = 0;
    rusage ru{};
    const auto deadline = Clock::now() + std::chrono::seconds(30);
    while (::wait4(pid_, &st, WNOHANG, &ru) == 0) {
      if (Clock::now() > deadline) {
        ::kill(pid_, SIGKILL);
        ::wait4(pid_, &st, 0, &ru);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    pid_ = -1;
    peakRssMb_ = static_cast<double>(ru.ru_maxrss) / 1024.0;
    cpuSeconds_ = double(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
                  double(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
    status_ = WIFEXITED(st) ? WEXITSTATUS(st) : -1;
    return status_;
  }

  std::uint16_t port() const { return port_; }
  double peakRssMb() const { return peakRssMb_; }
  double cpuSeconds() const { return cpuSeconds_; }

 private:
  pid_t pid_{-1};
  int stdinFd_{-1};
  std::uint16_t port_{0};
  int status_{-1};
  double peakRssMb_{0};
  double cpuSeconds_{0};
};

/// One spawned server with its connections and its oracle replay.
struct Instance {
  ServerProcess child;
  std::vector<std::unique_ptr<net::Client>> clients;
  std::vector<std::unique_ptr<Workspace>> oracle;
  std::vector<std::map<int, std::string>> memo;  ///< per library: kind -> text
};

/// One request of the run: where it goes, what it carries, and what
/// happened to it.
struct Sent {
  std::size_t library{0};
  CheckRequest req;
  double scheduled{0};  ///< seconds from phase start
  double sendLag{0};    ///< actual send - scheduled
  double latency{0};    ///< last response frame - scheduled
  CheckResult result;   ///< dropped once verified
  bool failed{false};   ///< error, rejection, or oracle mismatch
};

/// A slice of the run at one fixed rate.
struct Slice {
  std::size_t rate{0};  ///< index into Shape::rates
  std::size_t server{0};  ///< which server instance it drives
  bool traced{false};   ///< spans recorded (traced runs only)
  std::vector<Sent> sent;
};

/// One fixed-rate phase's trace, materialized (edits via EditShadow).
std::vector<Sent> makePhase(double rate, double seconds, std::uint64_t seed,
                            const Shape& shape,
                            std::vector<EditShadow>& shadows,
                            const std::vector<layout::CellId>& tops) {
  workload::TrafficOptions o;
  o.libraries = kLibraries;
  o.requests = static_cast<std::size_t>(rate * seconds);
  o.weightDrc = 4;
  o.weightBaseline = 0;  // the flat strawman is not the served path
  o.weightErc = 3;
  o.weightNetlist = 1;
  o.weightEditCheck = shape.editWeight;
  o.arrivalsPerSecond = rate;
  o.zipfPopularity = true;
  o.seed = seed;
  std::vector<Sent> out;
  for (const workload::TrafficEvent& ev : workload::generateTrace(o)) {
    Sent s;
    s.library = ev.library;
    s.scheduled = ev.arrivalSeconds;
    s.req = ev.edit ? shadows[ev.library].next(ev.editSeed)
                    : workload::materialize(ev, tops[ev.library]);
    out.push_back(std::move(s));
  }
  return out;
}

/// Drive one phase: per connection, a sender thread submits its
/// libraries' requests on schedule and a collector thread takes the
/// responses in order (one shard per connection, one thread per shard:
/// completion order is submission order, so in-order waiting does not
/// delay a timestamp).
void drivePhase(std::vector<Sent>& phase,
                std::vector<std::unique_ptr<net::Client>>& clients,
                const std::vector<int>& connOf, SpanLog* spans,
                std::uint64_t traceBase) {
  struct Pending {
    std::size_t index;
    std::future<CheckResult> fut;
  };
  struct Lane {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Pending> q;  // guarded by mu
    bool done{false};       // guarded by mu
  };
  std::vector<Lane> lanes(clients.size());
  const auto t0 = Clock::now() + std::chrono::milliseconds(5);
  auto at = [&](double s) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(s));
  };
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients.size(); ++c) {
    threads.emplace_back([&, c] {  // sender
      Lane& lane = lanes[c];
      for (std::size_t i = 0; i < phase.size(); ++i) {
        Sent& s = phase[i];
        if (connOf[s.library] != static_cast<int>(c)) continue;
        std::this_thread::sleep_until(at(s.scheduled));
        const auto sendAt = Clock::now();
        s.sendLag = secondsBetween(at(s.scheduled), sendAt);
        std::future<CheckResult> f =
            clients[c]->submit(workload::libraryName(s.library), s.req);
        if (spans)
          spans->add("net.submit", sendAt, Clock::now(), 0, traceBase + i);
        std::lock_guard<std::mutex> lock(lane.mu);
        lane.q.push_back({i, std::move(f)});
        lane.cv.notify_one();
      }
      std::lock_guard<std::mutex> lock(lane.mu);
      lane.done = true;
      lane.cv.notify_one();
    });
    threads.emplace_back([&, c] {  // collector
      Lane& lane = lanes[c];
      for (;;) {
        Pending p;
        {
          std::unique_lock<std::mutex> lock(lane.mu);
          lane.cv.wait(lock, [&] { return !lane.q.empty() || lane.done; });
          if (lane.q.empty()) return;
          p = std::move(lane.q.front());
          lane.q.pop_front();
        }
        Sent& s = phase[p.index];
        s.result = p.fut.get();
        const auto doneAt = Clock::now();
        s.latency = secondsBetween(at(s.scheduled), doneAt);
        if (spans)
          spans->add("request", at(s.scheduled), doneAt, 0,
                     traceBase + p.index);
      }
    });
  }
  for (std::thread& th : threads) th.join();
}

struct PhaseStats {
  double rate{0};
  Summary all, reads, edits;
  double meanLatency{0};
  double meanLag{0};
  double lateP50{0};  ///< p50 of each slice's last quarter (backlog probe)
  Summary high;       ///< highest percentile with >= 10 samples beyond
  std::size_t failed{0};
  bool meets{false};
};

PhaseStats phaseStats(double rate, const std::vector<const Sent*>& phase,
                      double sliceSeconds, double tailLimitMs) {
  PhaseStats ps;
  ps.rate = rate;
  std::vector<double> all, reads, edits, late;
  double lat = 0, lag = 0;
  for (std::size_t i = 0; i < phase.size(); ++i) {
    const Sent& s = *phase[i];
    all.push_back(s.latency);
    (s.req.edits.empty() ? reads : edits).push_back(s.latency);
    if (s.scheduled >= 0.75 * sliceSeconds) late.push_back(s.latency);
    lat += s.latency;
    lag += s.sendLag;
    if (s.failed) ++ps.failed;
  }
  ps.all = summarize(all, kTailPct);
  ps.high = summarize(all, 99.9);
  ps.reads = summarize(reads, kTailPct);
  ps.edits = summarize(edits, kTailPct);
  ps.meanLatency = phase.empty() ? 0 : lat / double(phase.size());
  ps.meanLag = phase.empty() ? 0 : lag / double(phase.size());
  ps.lateP50 = median(late);
  // A growing backlog shows as late requests waiting past the limit.
  ps.meets = ps.failed == 0 && ps.all.tail * 1e3 <= tailLimitMs &&
             ps.lateP50 * 1e3 <= tailLimitMs;
  return ps;
}

/// Highest fixed rate meeting the limit, interpolated toward the first
/// failing rate by where its tail crosses the limit (so the figure moves
/// continuously instead of jumping a whole rate step).
double maxRate(const std::vector<PhaseStats>& ps, double limitMs) {
  double best = 0;
  for (std::size_t i = 0; i < ps.size(); ++i) {
    if (!ps[i].meets) {
      if (i == 0) return 0;
      const double t0 = ps[i - 1].all.tail * 1e3;
      const double t1 = ps[i].all.tail * 1e3;
      const double f = t1 > t0 ? (limitMs - t0) / (t1 - t0) : 0;
      return ps[i - 1].rate +
             std::clamp(f, 0.0, 1.0) * (ps[i].rate - ps[i - 1].rate);
    }
    best = ps[i].rate;
  }
  return best;
}

}  // namespace

Outcome runTcp(const RunConfig& cfg, bool editsOn) {
  Outcome out;
  const Shape& shape = editsOn ? kEdit : kRead;
  const tech::Technology t = tech::nmos();
  pinTo(generatorCpus());  // threads started from here on inherit it

  // Local copies of the fleet (the server regenerates the same recipe):
  // the oracle's inputs and the edit materialization base.
  std::vector<workload::GeneratedChip> fleet;
  std::vector<layout::CellId> tops;
  for (std::size_t l = 0; l < kLibraries; ++l) {
    fleet.push_back(workload::fleetChip(t));
    tops.push_back(fleet.back().top);
  }
  // Library -> connection: the owner shard, as the server will place it.
  std::vector<int> connOf(kLibraries);
  int connections = 1;
  {
    server::ServerOptions so;
    so.shards = kShards;
    so.threadsPerShard = 1;
    server::Server probe(so);
    for (std::size_t l = 0; l < kLibraries; ++l) {
      connOf[l] = probe.placementOf(workload::libraryName(l)).owner;
      connections = std::max(connections, connOf[l] + 1);
    }
  }

  // Slice plan: short slices alternate between the reference rate and
  // each other rate in turn, cycling through the run. Every rate's
  // sample spans the whole run, so slow drift and noisy episodes on a
  // shared host land on all rates alike, and the reference rate gets
  // half the time. Each slice drains before the next starts, so none
  // inherits a backlog. In a traced run every other reference slice
  // records spans.
  const std::size_t nRates = shape.rates.size();
  std::vector<std::size_t> cycle;
  for (std::size_t p = 0; p < nRates; ++p)
    if (shape.rates[p] != shape.referenceRate) {
      cycle.push_back(shape.referenceIndex());
      cycle.push_back(p);
    }
  const int cycles = std::max(
      cfg.trace ? 2 : 1, int(cfg.seconds / (kSliceSeconds * cycle.size())));
  const double sliceSeconds = cfg.seconds / double(cycles * cycle.size());

  // Set-up, kSetups times (median = setup_s): spawn a server (it
  // generates and registers its fleet), connect, warm every library
  // with each kind, and generate + materialize the traffic.
  std::vector<double> setups;
  std::vector<std::unique_ptr<Instance>> inst;
  std::vector<Slice> slices;
  for (int rep = 0; rep < kSetups; ++rep) {
    if (inst.size() == kInstances) {  // keep the last kInstances
      for (auto& c : inst.front()->clients) c->close();
      inst.front()->child.terminate();
      inst.erase(inst.begin());
    }
    const auto s0 = Clock::now();
    inst.push_back(std::make_unique<Instance>());
    Instance& in = *inst.back();
    if (!in.child.spawn()) {
      out.fail("cannot spawn example_check_server_tcp");
      return out;
    }
    for (int c = 0; c < connections; ++c) {
      net::ClientOptions co;
      co.host = "127.0.0.1";
      co.port = in.child.port();
      in.clients.push_back(std::make_unique<net::Client>(co));
      std::string err;
      if (!in.clients.back()->connect(&err)) {
        out.fail("connect: " + err);
        return out;
      }
    }
    for (std::size_t l = 0; l < kLibraries; ++l)
      for (const CheckRequest& r :
           {CheckRequest::drc(tops[l]), CheckRequest::ercCheck(tops[l]),
            CheckRequest::netlistOnly(tops[l])}) {
        const CheckResult w =
            in.clients[connOf[l]]->check(workload::libraryName(l), r);
        if (!w.ok()) out.fail("warm-up failed: " + w.error);
      }
    std::vector<EditShadow> shadows;
    for (std::size_t l = 0; l < kLibraries; ++l)
      shadows.emplace_back(fleet[l].lib, tops[l]);
    slices.clear();
    std::size_t refSlices = 0;
    for (int c = 0; c < cycles; ++c)
      for (std::size_t k = 0; k < cycle.size(); ++k) {
        const std::size_t p = cycle[k];
        const bool isRef = p == shape.referenceIndex();
        const bool traced = cfg.trace && isRef && refSlices++ % 2 == 1;
        // Rotate the instances so each rate meets every server.
        const std::size_t server = (k / 2 + std::size_t(c)) % kInstances;
        slices.push_back({p, server, traced,
                          makePhase(shape.rates[p], sliceSeconds,
                                    cfg.seed * 1000 + slices.size(), shape,
                                    shadows, tops)});
      }
    setups.push_back(secondsSince(s0));
  }

  // Oracle: per server instance, a per-library sequential Workspace
  // replay of exactly what that server was sent, in send order (which
  // per library is trace order). Each slice is checked after it drains,
  // outside the measured time. Reads between two edits of a library see
  // one state and a Workspace read is deterministic, so each (library,
  // kind) is replayed once per state and its text reused until the
  // library's next edit.
  for (auto& in : inst) {
    for (std::size_t l = 0; l < kLibraries; ++l)
      in->oracle.push_back(std::make_unique<Workspace>(
          fleet[l].lib, t, WorkspaceOptions{1}));
    in->memo.resize(kLibraries);
  }
  std::size_t mismatches = 0;
  auto verify = [&](Slice& sl) {
    Instance& in = *inst[sl.server];
    for (Sent& s : sl.sent) {
      ++out.attempted;
      std::map<int, std::string>& m = in.memo[s.library];
      if (!s.req.edits.empty()) m.clear();
      auto it = m.find(int(s.req.kind));
      if (it == m.end() || !s.req.edits.empty()) {
        const std::string want =
            in.oracle[s.library]->run(s.req).report.text();
        it = s.req.edits.empty() ? m.emplace(int(s.req.kind), want).first
                                 : m.insert_or_assign(-1, want).first;
      }
      s.failed = !s.result.ok() || s.result.report.text() != it->second;
      if (!s.result.ok()) {
        ++out.failed;
        out.fail("request failed: " + s.result.error);
      } else if (s.failed) {
        ++out.failed;
        ++mismatches;
        out.fail("response differs from the sequential replay");
      }
      if (!s.req.edits.empty()) m.clear();
      s.result = {};  // keep one slice of responses in memory, not all
    }
  };

  // Measure (verifying each slice as it drains), then pool each rate's
  // slices (traced slices apart).
  SpanLog spans;
  for (std::size_t i = 0; i < slices.size(); ++i) {
    drivePhase(slices[i].sent, inst[slices[i].server]->clients, connOf,
               slices[i].traced ? &spans : nullptr, i * 1'000'000);
    verify(slices[i]);
  }
  auto pooled = [&](std::size_t p, bool traced) {
    std::vector<const Sent*> all;
    for (const Slice& sl : slices)
      if (sl.rate == p && sl.traced == traced)
        for (const Sent& s : sl.sent) all.push_back(&s);
    return phaseStats(shape.rates[p], all, sliceSeconds, shape.tailLimitMs);
  };
  std::vector<PhaseStats> stats;
  PhaseStats ref;
  for (std::size_t p = 0; p < nRates; ++p) {
    stats.push_back(pooled(p, false));
    if (shape.rates[p] == shape.referenceRate) {
      ref = stats.back();
    }
  }
  const double maxRps = maxRate(stats, shape.tailLimitMs);

  // The gated reference figures: medians over the reference slices of
  // each slice's p50 and tail, so one noisy stretch of the host moves
  // the run's figure by at most one slice's rank.
  struct SliceMedians {
    double p50{0}, tail{0}, editP50{0};
  };
  auto sliceMedians = [&](bool traced) {
    std::vector<double> p50, tail, editP50;
    for (const Slice& sl : slices) {
      if (sl.rate != shape.referenceIndex() || sl.traced != traced) continue;
      std::vector<double> all, edits;
      for (const Sent& x : sl.sent) {
        all.push_back(x.latency);
        if (!x.req.edits.empty()) edits.push_back(x.latency);
      }
      const Summary a = summarize(all, kTailPct);
      p50.push_back(a.p50);
      tail.push_back(a.tail);
      editP50.push_back(median(edits));
    }
    return SliceMedians{median(p50), median(tail), median(editP50)};
  };
  const SliceMedians refSlices = sliceMedians(false);

  // Server-side stats over the wire (the first instance's), then drain
  // every server and reap it.
  server::ServerStats ss;
  const bool haveStats = inst[0]->clients[0]->stats(ss);
  std::size_t rejected = 0, parts = 0;
  std::vector<double> rss;
  double cpu = 0;
  for (auto& in : inst) {
    for (const auto& c : in->clients) {
      rejected += c->telemetry().rejectedFrames;
      parts += c->telemetry().reportPartFrames;
      c->close();
    }
    if (in->child.terminate() != 0)
      out.fail("server drain reported a deficit");
    rss.push_back(in->child.peakRssMb());
    cpu += in->child.cpuSeconds();
  }
  const std::size_t served =
      out.attempted + inst.size() * kLibraries * 3 /* warm-up */;

  if (!cfg.trace) {
    out.put("setup_s", median(setups), "s");
    out.put("peak_rss_mb", median(rss), "MB");
    out.put("cpu_ms_per_op", cpu * 1e3 / double(served), "ms");
  }
  out.note("setup_s", median(setups), "s");
  out.note("peak_rss_mb", median(rss), "MB");
  out.note("fail_ratio", out.attempted ? double(out.failed) / out.attempted
                                       : 0, "ratio");
  out.note("latency_p50_ms", refSlices.p50 * 1e3, "ms");
  out.note("latency_tail_ms", refSlices.tail * 1e3, "ms");
  out.note("latency_tail_percentile", ref.all.tailPct, "pct");
  out.note("latency_samples", double(ref.all.n), "count");
  out.note("latency_high_ms", ref.high.tail * 1e3, "ms");
  out.note("latency_high_percentile", ref.high.tailPct, "pct");
  if (editsOn) {
    out.note("edit_latency_p50_ms", refSlices.editP50 * 1e3, "ms");
    out.note("edit_samples", double(ref.edits.n), "count");
    out.note("read_latency_p50_ms", ref.reads.p50 * 1e3, "ms");
  }
  out.note("max_rate_rps", maxRps, "1/s");
  out.note("server_cpu_ms_per_request",
           cpu * 1e3 / double(served), "ms");
  out.note("oracle_mismatches", double(mismatches), "count");
  for (const PhaseStats& ps : stats) {
    const std::string r = "rate_" + std::to_string(int(ps.rate)) + ".";
    out.note(r + "p50_ms", ps.all.p50 * 1e3, "ms");
    out.note(r + "tail_ms", ps.all.tail * 1e3, "ms");
    out.note(r + "late_p50_ms", ps.lateP50 * 1e3, "ms");
    out.note(r + "mean_lag_ms", ps.meanLag * 1e3, "ms");
    out.note(r + "samples", double(ps.all.n), "count");
    out.note(r + "meets_limit", ps.meets ? 1 : 0, "bool");
  }

  std::string rates;
  for (double r : shape.rates) rates += (rates.empty() ? "" : ",") +
                                        std::to_string(int(r));
  out.provenance.push_back({"server", std::to_string(kShards) + " shards x " +
                                          std::to_string(kThreadsPerShard) +
                                          " thread"});
  out.provenance.push_back({"server_instances", std::to_string(kInstances)});
  out.provenance.push_back({"client_connections",
                            std::to_string(connections) + " per server"});
  out.provenance.push_back(
      {"cpu_split", splitCpus() ? "server on the lower half of the CPUs, "
                                  "load generator on the upper half"
                                : "none (fewer than 4 CPUs)"});
  out.provenance.push_back({"fixed_rates_rps", rates});
  out.provenance.push_back({"reference_rate_rps",
                            std::to_string(int(shape.referenceRate))});
  out.provenance.push_back({"tail_limit", "p" + std::to_string(int(kTailPct)) +
                                              " <= " +
                                              std::to_string(shape.tailLimitMs) +
                                              " ms"});

  if (cfg.trace) {
    // Peel the layers on the same fleet with the reference phase's
    // first requests (probe edits appended on tcp_read so the edit path
    // is measured). Edits are absolute setElements, so each peeled stack
    // receiving the identical sequence stays comparable pass after pass.
    PeelInput in;
    in.threads = cfg.hostCores;
    in.shards = kShards;
    in.threadsPerShard = kThreadsPerShard;
    for (std::size_t l = 0; l < kLibraries; ++l)
      in.libraries.push_back(
          {workload::libraryName(l), fleet[l].lib, tops[l], {}});
    for (const Slice& sl : slices)
      if (sl.rate == shape.referenceIndex()) {
        for (std::size_t i = 0; i < sl.sent.size() && i < 200; ++i)
          in.libraries[sl.sent[i].library].requests.push_back(sl.sent[i].req);
        break;
      }
    if (!editsOn) {
      EditShadow probe(fleet[0].lib, tops[0]);
      for (int i = 0; i < 4; ++i)
        in.libraries[0].requests.push_back(probe.next(cfg.seed + i));
    }
    pinTo(allCpus());  // the in-process peel stacks get the whole host
    const PeelTimes pt = peelLayers(in, spans, out);

    if (haveStats) putServerStats(ss, out);
    out.put("net.rejected", double(rejected), "count");
    out.put("net.report_parts", double(parts), "count");
    out.put("bench.generator_lag_ms", ref.meanLag * 1e3, "ms");
    out.put("obs.tracing_overhead_ratio",
            sliceMedians(true).p50 / refSlices.p50, "ratio");
    out.put("unattributed_ratio",
            (ref.meanLatency - pt.netRoundTrip) / ref.meanLatency, "ratio");
    const std::string path = cfg.outDir + "/trace_" + cfg.workload + ".json";
    if (!spans.write(path)) out.fail("cannot write " + path);
    out.note("trace_spans", double(spans.size()), "count");
  }
  return out;
}

}  // namespace dicbench
