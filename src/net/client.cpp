#include "net/client.hpp"

#include <chrono>
#include <utility>
#include <vector>

namespace dic::net {

struct Client::PendingCheck {
  std::promise<CheckResult> promise;
  // Enough of the request to shape a coherent error result.
  CheckKind kind{CheckKind::kHierarchicalDrc};
  layout::CellId root{0};
  std::string tag;
  std::chrono::steady_clock::time_point deadline{
      std::chrono::steady_clock::time_point::max()};
};

struct Client::RawReply {
  struct Data {
    bool ok{false};
    std::string error;
    std::vector<std::uint8_t> payload;
  };
  FrameType expect{FrameType::kError};  ///< response type this wait matches
  std::promise<Data> promise;
};

namespace {

CheckResult makeErrorResult(CheckKind kind, layout::CellId root,
                            std::string tag, std::string error) {
  CheckResult r;
  r.kind = kind;
  r.root = root;
  r.tag = std::move(tag);
  r.error = std::move(error);
  return r;
}

}  // namespace

Client::Client(ClientOptions opts) : opts_(std::move(opts)) {}

Client::~Client() { close(); }

bool Client::connect(std::string* err) { return ensureConnected(err); }

bool Client::connected() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sock_.valid() && !sockDead_;
}

void Client::close() {
  std::thread reader;
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    if (sock_.valid()) {
      sock_.shutdownRead();  // wakes the reader with EOF
      sock_.shutdownWrite();
      sockDead_ = true;
    }
    reader = std::move(readerThread_);
  }
  if (reader.joinable()) reader.join();
  failAllPending();
}

bool Client::ensureConnected(std::string* err) {
  std::thread dead;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) {
      if (err) *err = "client closed";
      return false;
    }
    if (sock_.valid() && !sockDead_) return true;
    if (everConnected_ && !opts_.reconnect) {
      if (err) *err = "disconnected and reconnect is disabled";
      return false;
    }
    dead = std::move(readerThread_);
  }
  // Join the previous reader outside mu_ — its disconnect cleanup takes
  // mu_ on its way out.
  if (dead.joinable()) dead.join();

  std::scoped_lock lock(sendMu_, mu_);
  if (closed_) {
    if (err) *err = "client closed";
    return false;
  }
  if (sock_.valid() && !sockDead_) return true;  // raced another connect
  std::string cerr;
  Socket s = connectTo(opts_.host, opts_.port, opts_.connectTimeoutSeconds,
                       &cerr);
  if (!s.valid()) {
    if (err) *err = cerr;
    return false;
  }
  // The receive timeout is the reader's deadline-scan tick, not a
  // protocol timeout — kTimeout just means "check expiries, keep going".
  s.setRecvTimeout(0.05);
  sock_ = std::move(s);  // holds both mutexes: no sendAll can race this
  sockDead_ = false;
  if (everConnected_) ++telemetry_.reconnects;
  everConnected_ = true;
  readerThread_ = std::thread([this] { readerLoop(); });
  return true;
}

bool Client::sendFrame(const std::vector<std::uint8_t>& frame) {
  bool ok = false;
  {
    std::lock_guard<std::mutex> lock(sendMu_);
    ok = sock_.sendAll(frame.data(), frame.size());
  }
  if (ok) {
    std::lock_guard<std::mutex> lock(mu_);
    ++telemetry_.framesOut;
    return true;
  }
  failAllPending();
  return false;
}

std::future<CheckResult> Client::submit(std::string_view library,
                                        CheckRequest req,
                                        std::uint64_t* idOut) {
  if (idOut) *idOut = 0;
  auto pc = std::make_unique<PendingCheck>();
  pc->kind = req.kind;
  pc->root = req.root;
  pc->tag = req.tag;
  std::future<CheckResult> fut = pc->promise.get_future();

  std::string err;
  if (!ensureConnected(&err)) {
    pc->promise.set_value(
        makeErrorResult(pc->kind, pc->root, pc->tag, kErrConnectionLost));
    return fut;
  }

  std::vector<std::uint8_t> frame;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!sock_.valid() || sockDead_) {  // raced a disconnect
      pc->promise.set_value(
          makeErrorResult(pc->kind, pc->root, pc->tag, kErrConnectionLost));
      return fut;
    }
    const std::uint64_t id = nextId_++;
    if (idOut) *idOut = id;
    if (opts_.requestTimeoutSeconds > 0) {
      pc->deadline = std::chrono::steady_clock::now() +
                     std::chrono::duration_cast<
                         std::chrono::steady_clock::duration>(
                         std::chrono::duration<double>(
                             opts_.requestTimeoutSeconds));
    }
    frame = encodeCheckFrame(id, library, req);
    pending_.emplace(id, std::move(pc));
  }
  // A send failure fails every pending future (this one included)
  // through failAllPending, so the future is always fulfilled.
  sendFrame(frame);
  return fut;
}

CheckResult Client::check(std::string_view library, CheckRequest req) {
  return submit(library, std::move(req)).get();
}

bool Client::rawRoundTrip(FrameType expect, std::vector<std::uint8_t> frame,
                          std::uint64_t id,
                          std::vector<std::uint8_t>& payloadOut,
                          std::string* err) {
  auto rr = std::make_unique<RawReply>();
  rr->expect = expect;
  std::future<RawReply::Data> fut = rr->promise.get_future();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!sock_.valid() || sockDead_) {
      if (err) *err = kErrConnectionLost;
      return false;
    }
    pendingRaw_.emplace(id, std::move(rr));
  }
  if (!sendFrame(frame)) {
    if (err) *err = kErrConnectionLost;
    return false;
  }
  if (opts_.requestTimeoutSeconds > 0) {
    const auto status = fut.wait_for(
        std::chrono::duration<double>(opts_.requestTimeoutSeconds));
    if (status != std::future_status::ready) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        pendingRaw_.erase(id);  // a late response frame is discarded
        ++telemetry_.timeouts;
      }
      if (err) *err = kErrNetTimeout;
      return false;
    }
  }
  RawReply::Data d = fut.get();
  if (!d.ok) {
    if (err) *err = d.error;
    return false;
  }
  payloadOut = std::move(d.payload);
  return true;
}

bool Client::metrics(obs::MetricsSnapshot& out, std::string* err) {
  std::string cerr;
  if (!ensureConnected(&cerr)) {
    if (err) *err = cerr;
    return false;
  }
  std::uint64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = nextId_++;
  }
  std::vector<std::uint8_t> payload;
  if (!rawRoundTrip(FrameType::kMetrics, encodeMetricsRequestFrame(id), id,
                    payload, err))
    return false;
  std::string derr;
  if (!decodeMetricsPayload(payload.data(), payload.size(), out, &derr)) {
    if (err) *err = std::string(kErrNetProtocol) + ": " + derr;
    return false;
  }
  return true;
}

bool Client::trace(std::uint64_t traceId, std::vector<obs::SpanRecord>& out,
                   std::string* err) {
  std::string cerr;
  if (!ensureConnected(&cerr)) {
    if (err) *err = cerr;
    return false;
  }
  std::uint64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = nextId_++;
  }
  std::vector<std::uint8_t> payload;
  if (!rawRoundTrip(FrameType::kTrace, encodeTraceRequestFrame(id, traceId),
                    id, payload, err))
    return false;
  std::uint64_t echoed = 0;
  std::string derr;
  if (!decodeTracePayload(payload.data(), payload.size(), echoed, out,
                          &derr)) {
    if (err) *err = std::string(kErrNetProtocol) + ": " + derr;
    return false;
  }
  return true;
}

bool Client::stats(server::ServerStats& out, std::string* err) {
  obs::MetricsSnapshot snap;
  if (!metrics(snap, err)) return false;
  out = server::statsFromMetrics(snap);
  return true;
}

ClientTelemetry Client::telemetry() const {
  std::lock_guard<std::mutex> lock(mu_);
  return telemetry_;
}

void Client::expireDeadlines() {
  std::vector<std::unique_ptr<PendingCheck>> expired;
  const auto now = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = pending_.begin(); it != pending_.end();) {
      if (it->second->deadline <= now) {
        expired.push_back(std::move(it->second));
        it = pending_.erase(it);
      } else {
        ++it;
      }
    }
    telemetry_.timeouts += expired.size();
  }
  for (auto& pc : expired)
    pc->promise.set_value(
        makeErrorResult(pc->kind, pc->root, pc->tag, kErrNetTimeout));
}

void Client::failAllPending() {
  std::unordered_map<std::uint64_t, std::unique_ptr<PendingCheck>> checks;
  std::unordered_map<std::uint64_t, std::unique_ptr<RawReply>> rawWaits;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (sock_.valid() && !sockDead_) {
      // Shut down (not close): a submitter may be blocked inside
      // sendAll on this descriptor; shutdown fails it fast, while the
      // actual close is deferred to the next reconnect so the fd number
      // cannot be reused under that send.
      sock_.shutdownRead();
      sock_.shutdownWrite();
      sockDead_ = true;
    }
    checks.swap(pending_);
    rawWaits.swap(pendingRaw_);
  }
  for (auto& [id, pc] : checks)
    pc->promise.set_value(
        makeErrorResult(pc->kind, pc->root, pc->tag, kErrConnectionLost));
  RawReply::Data rawLost;
  rawLost.ok = false;
  rawLost.error = kErrConnectionLost;
  for (auto& [id, rr] : rawWaits) rr->promise.set_value(rawLost);
}

void Client::readerLoop() {
  ResultAssembler assembler;
  std::string err;
  bool alive = true;
  while (alive) {
    // Incrementally fill the header, then the payload; kTimeout ticks
    // run the deadline scan in between.
    std::uint8_t hdr[kHeaderSize];
    std::size_t have = 0;
    while (alive && have < kHeaderSize) {
      std::size_t got = 0;
      const Socket::Io io =
          sock_.recvSome(hdr + have, kHeaderSize - have, got);
      if (io == Socket::Io::kTimeout) {
        expireDeadlines();
        continue;
      }
      if (io != Socket::Io::kOk) {
        alive = false;
        break;
      }
      have += got;
    }
    if (!alive) break;
    FrameHeader h;
    if (!parseHeader(hdr, h, &err)) break;  // server spoke garbage
    std::vector<std::uint8_t> payload(h.payloadLen);
    have = 0;
    while (alive && have < payload.size()) {
      std::size_t got = 0;
      const Socket::Io io = sock_.recvSome(payload.data() + have,
                                           payload.size() - have, got);
      if (io == Socket::Io::kTimeout) {
        expireDeadlines();
        continue;
      }
      if (io != Socket::Io::kOk) {
        alive = false;
        break;
      }
      have += got;
    }
    if (!alive) break;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++telemetry_.framesIn;
      if (h.type == FrameType::kReportPart) ++telemetry_.reportPartFrames;
      if (h.type == FrameType::kRejected) ++telemetry_.rejectedFrames;
    }

    switch (h.type) {
      case FrameType::kResult:
      case FrameType::kReportPart:
      case FrameType::kReportEnd:
      case FrameType::kRejected: {
        CheckResult out;
        const ResultAssembler::Feed fed =
            assembler.feed(h, payload.data(), payload.size(), out, &err);
        if (fed == ResultAssembler::Feed::kError) {
          alive = false;  // stream state is unrecoverable
          break;
        }
        if (fed == ResultAssembler::Feed::kComplete) {
          std::unique_ptr<PendingCheck> pc;
          {
            std::lock_guard<std::mutex> lock(mu_);
            auto it = pending_.find(h.requestId);
            if (it != pending_.end()) {
              pc = std::move(it->second);
              pending_.erase(it);
            }
          }
          // No entry: the request expired client-side (or the id is
          // unknown) — discard the late response.
          if (pc) pc->promise.set_value(std::move(out));
        }
        break;
      }
      case FrameType::kTrace:
      case FrameType::kMetrics: {
        std::unique_ptr<RawReply> rr;
        {
          std::lock_guard<std::mutex> lock(mu_);
          auto it = pendingRaw_.find(h.requestId);
          if (it != pendingRaw_.end() && it->second->expect == h.type) {
            rr = std::move(it->second);
            pendingRaw_.erase(it);
          }
        }
        // No matching wait (expired, unknown, or a type mismatch): the
        // frame is discarded like any other late response.
        if (rr) {
          RawReply::Data d;
          d.ok = true;
          d.payload = std::move(payload);
          rr->promise.set_value(std::move(d));
          payload.clear();
        }
        break;
      }
      case FrameType::kError: {
        // The server is about to close the session; fail the offending
        // request now (the rest fail with kErrConnectionLost on EOF).
        const std::string msg =
            decodeErrorPayload(payload.data(), payload.size());
        const std::string what =
            msg.empty() ? std::string(kErrNetProtocol)
                        : std::string(kErrNetProtocol) + ": " + msg;
        std::unique_ptr<PendingCheck> pc;
        std::unique_ptr<RawReply> rr;
        {
          std::lock_guard<std::mutex> lock(mu_);
          auto it = pending_.find(h.requestId);
          if (it != pending_.end()) {
            pc = std::move(it->second);
            pending_.erase(it);
          }
          auto rw = pendingRaw_.find(h.requestId);
          if (rw != pendingRaw_.end()) {
            rr = std::move(rw->second);
            pendingRaw_.erase(rw);
          }
        }
        if (pc)
          pc->promise.set_value(
              makeErrorResult(pc->kind, pc->root, pc->tag, what));
        if (rr) {
          RawReply::Data d;
          d.error = what;
          rr->promise.set_value(std::move(d));
        }
        break;
      }
      default:
        alive = false;  // a request-type frame from the server
        break;
    }
  }
  failAllPending();
}

}  // namespace dic::net
