#include "net/listener.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <stdexcept>
#include <utility>

#include "obs/trace.hpp"

namespace dic::net {

/// One TCP connection: a reader thread feeding the server, a writer
/// thread streaming results back, and a small cv-protected outbox
/// between them. The session is kept alive by shared_ptrs — the
/// Listener's registry plus every in-flight completion callback — so a
/// late-completing request can never dangle it.
struct Listener::Session : std::enable_shared_from_this<Listener::Session> {
  Session(Listener& l, server::Server& s, Socket so,
          std::size_t chunkViolations)
      : owner(l), srv(s), sock(std::move(so)), chunk(chunkViolations) {}

  Listener& owner;  ///< outlives every session (shutdown joins them)
  server::Server& srv;
  Socket sock;
  std::size_t chunk;
  std::thread readerThread;
  std::thread writerThread;

  /// One unit of writer work: either a pre-framed buffer (stats,
  /// protocol error) or a result the writer serializes chunk by chunk,
  /// so a huge report is never materialized as one frame buffer.
  struct Outgoing {
    bool isResult{false};
    std::uint64_t id{0};
    CheckResult result;
    std::vector<std::uint8_t> raw;
  };

  std::mutex mu;  ///< guards outbox, inflight, readerDone
  std::condition_variable cv;
  std::deque<Outgoing> outbox;
  std::size_t inflight{0};  ///< requests handed to the server, result pending
  bool readerDone{false};

  std::atomic<bool> dead{false};  ///< a send failed; discard output
  std::atomic<int> liveLoops{2};  ///< reader+writer still running

  void start() {
    auto self = shared_from_this();
    readerThread = std::thread([self] { self->readerLoop(); });
    writerThread = std::thread([self] { self->writerLoop(); });
  }

  void enqueueResult(std::uint64_t id, CheckResult&& r) {
    {
      std::lock_guard<std::mutex> lock(mu);
      Outgoing o;
      o.isResult = true;
      o.id = id;
      o.result = std::move(r);
      outbox.push_back(std::move(o));
      --inflight;
    }
    cv.notify_all();
  }

  void enqueueRaw(std::vector<std::uint8_t>&& frame) {
    {
      std::lock_guard<std::mutex> lock(mu);
      Outgoing o;
      o.raw = std::move(frame);
      outbox.push_back(std::move(o));
    }
    cv.notify_all();
  }

  /// Best-effort kError to the peer, then let the reader exit: the
  /// session closes, the process does not.
  void protocolError(std::uint64_t id, const std::string& what) {
    owner.malformedSessions_.add();  // once: the reader exits after it
    enqueueRaw(encodeErrorFrame(id, what));
  }

  /// A reader or writer loop is done; the last one out closes the
  /// session in the "net.sessions_open" gauge.
  void loopExited() {
    if (liveLoops.fetch_sub(1, std::memory_order_acq_rel) == 1)
      owner.sessionsOpen_.add(-1);
  }

  void readerLoop() {
    std::vector<std::uint8_t> payload;
    for (;;) {
      std::uint8_t hdr[kHeaderSize];
      // EOF here is the clean end of the session; EOF or an error
      // mid-header/mid-payload is a mid-frame disconnect — both just
      // end this session's intake.
      if (!sock.recvAll(hdr, kHeaderSize)) break;
      FrameHeader h;
      std::string err;
      if (!parseHeader(hdr, h, &err)) {
        protocolError(0, err);
        break;
      }
      payload.resize(h.payloadLen);
      if (h.payloadLen > 0 && !sock.recvAll(payload.data(), payload.size()))
        break;
      owner.framesIn_.add();
      if (h.type == FrameType::kCheck) {
        std::string lib;
        CheckRequest req;
        bool decoded;
        {
          // The trace's first span: decode cost, rooted directly in the
          // request's trace (the wire request id IS the trace id).
          obs::ScopedSpan decodeSpan("session.decode", h.requestId);
          decoded =
              decodeCheckPayload(payload.data(), payload.size(), lib, req,
                                 &err);
        }
        if (!decoded) {
          protocolError(h.requestId, err);
          break;
        }
        req.traceId = h.requestId;
        {
          std::lock_guard<std::mutex> lock(mu);
          ++inflight;
        }
        // Under OverflowPolicy::kBlock a full shard queue blocks right
        // here — the reader stops draining the socket and the client
        // feels TCP backpressure. Under kReject the callback fires
        // inline with a kErrQueueFull result, which the writer turns
        // into a kRejected frame.
        auto self = shared_from_this();
        srv.submitAsync(lib, std::move(req),
                        [self, id = h.requestId](CheckResult r) {
                          self->enqueueResult(id, std::move(r));
                        });
      } else if (h.type == FrameType::kTraceRequest) {
        std::uint64_t traceId = 0;
        if (!decodeTraceRequestPayload(payload.data(), payload.size(),
                                       traceId, &err)) {
          protocolError(h.requestId, err);
          break;
        }
        enqueueRaw(encodeTraceFrame(h.requestId, traceId,
                                    obs::Tracer::instance().collect(traceId)));
      } else if (h.type == FrameType::kMetricsRequest) {
        enqueueRaw(encodeMetricsFrame(h.requestId, srv.metricsSnapshot()));
      } else {
        protocolError(h.requestId, "request frame type expected");
        break;
      }
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      readerDone = true;
    }
    cv.notify_all();
    loopExited();
  }

  void writerLoop() {
    for (;;) {
      Outgoing o;
      {
        std::unique_lock<std::mutex> lock(mu);
        // Drain contract: the writer exits only after the reader is
        // done AND every accepted request has delivered its result AND
        // the outbox is flushed — so a graceful shutdown answers
        // everything the server accepted.
        cv.wait(lock, [&] {
          return !outbox.empty() || (readerDone && inflight == 0);
        });
        if (outbox.empty()) break;
        o = std::move(outbox.front());
        outbox.pop_front();
      }
      if (dead.load(std::memory_order_relaxed)) continue;  // peer gone
      bool ok = true;
      if (o.isResult) {
        // Close the request's trace with its write-back cost (the id of
        // a TCP-served result doubles as its trace id).
        obs::ScopedSpan writeSpan("reply.write", o.id);
        ResultFrameStream stream(o.id, o.result, chunk);
        std::vector<std::uint8_t> frame;
        while (ok && stream.next(frame)) {
          ok = sock.sendAll(frame.data(), frame.size());
          if (ok) owner.framesOut_.add();
        }
      } else {
        ok = sock.sendAll(o.raw.data(), o.raw.size());
        if (ok) owner.framesOut_.add();
      }
      if (!ok) dead.store(true, std::memory_order_relaxed);
    }
    sock.shutdownWrite();  // orderly EOF after the last response
    loopExited();
  }

  bool finished() const {
    return liveLoops.load(std::memory_order_acquire) == 0;
  }

  void join() {
    if (readerThread.joinable()) readerThread.join();
    if (writerThread.joinable()) writerThread.join();
  }

  ~Session() { join(); }
};

Listener::Listener(server::Server& srv, ListenerOptions opts)
    : srv_(srv),
      opts_(std::move(opts)),
      sessionsAccepted_(srv.metrics().counter("net.sessions_accepted")),
      framesIn_(srv.metrics().counter("net.frames_in")),
      framesOut_(srv.metrics().counter("net.frames_out")),
      malformedSessions_(srv.metrics().counter("net.malformed_sessions")),
      sessionsOpen_(srv.metrics().gauge("net.sessions_open")) {
  std::string err;
  if (!acceptor_.listenOn(opts_.host, opts_.port, &err))
    throw std::runtime_error("net::Listener: " + err);
  acceptThread_ = std::thread([this] { acceptLoop(); });
}

Listener::~Listener() { shutdown(); }

void Listener::acceptLoop() {
  for (;;) {
    Socket s = acceptor_.accept();
    if (!s.valid()) break;  // shutdownListen or fatal error
    auto session = std::make_shared<Session>(
        *this, srv_, std::move(s), opts_.reportChunkViolations);
    {
      std::lock_guard<std::mutex> lock(mu_);
      sessions_.push_back(session);
    }
    // Counted before start(), so the session's own close can never
    // drive the open gauge below zero.
    sessionsAccepted_.add();
    sessionsOpen_.add(1);
    session->start();
    reapFinished();
  }
}

void Listener::reapFinished() {
  std::vector<std::shared_ptr<Session>> finished;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t i = 0; i < sessions_.size();) {
      if (sessions_[i]->finished()) {
        finished.push_back(std::move(sessions_[i]));
        sessions_.erase(sessions_.begin() +
                        static_cast<std::ptrdiff_t>(i));
      } else {
        ++i;
      }
    }
  }
  for (const auto& s : finished) s->join();  // outside mu_: joins block
}

void Listener::shutdown() {
  std::call_once(shutdownOnce_, [this] {
    // New connects are refused from here on.
    acceptor_.shutdownListen();
    if (acceptThread_.joinable()) acceptThread_.join();
    acceptor_.close();
    // Stop each session's intake; requests already handed to the
    // server keep their in-flight status and the writers drain them.
    std::vector<std::shared_ptr<Session>> live;
    {
      std::lock_guard<std::mutex> lock(mu_);
      live = sessions_;
    }
    for (const auto& s : live) s->sock.shutdownRead();
    for (const auto& s : live) s->join();
    reapFinished();
  });
}

ListenerStats Listener::stats() const {
  ListenerStats out;
  out.sessionsAccepted = sessionsAccepted_.value();
  out.sessionsOpen = static_cast<std::size_t>(
      std::max<std::int64_t>(0, sessionsOpen_.value()));
  out.framesIn = framesIn_.value();
  out.framesOut = framesOut_.value();
  out.malformedSessions = malformedSessions_.value();
  return out;
}

}  // namespace dic::net
