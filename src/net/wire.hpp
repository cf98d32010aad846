#pragma once
/// \file wire.hpp
/// The dic::net wire format: a length-prefixed binary framing for check
/// traffic over TCP, with zero socket dependency — every encoder and
/// decoder here works on byte buffers, so the whole protocol is unit-
/// testable (and fuzzable) without opening a connection. The full frame
/// table, versioning rule, backpressure mapping, and streaming contract
/// live in docs/net.md.
///
/// Every frame is a fixed 20-byte little-endian header followed by
/// `payloadLen` payload bytes:
///
///     u32 magic      kMagic ("DICN" on the wire)
///     u8  version    kVersion; a mismatch closes the session
///     u8  type       FrameType
///     u16 flags      reserved, must be zero
///     u64 requestId  client-chosen correlation id, echoed in responses
///     u32 payloadLen payload bytes following the header (<= kMaxPayload)
///
/// Large reports stream: a response whose report exceeds the sender's
/// chunk size is delivered as kReportPart frames (each a slice of the
/// violation list) closed by one kReportEnd carrying the result
/// envelope, so a million-violation report never materializes as one
/// giant buffer on either side. Frames of one streamed response are
/// contiguous on the connection — the server's session writer never
/// interleaves two responses' parts.
///
/// Decoders are defensive by contract: any malformed input (bad magic,
/// unknown version or type, nonzero reserved flags, oversized declared
/// length, truncated payload, out-of-range enum) is reported as a
/// decode failure — never an exception, a crash, or an over-read. The
/// session layer maps a decode failure to closing that one session.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "server/server.hpp"
#include "service/workspace.hpp"

namespace dic::net {

/// Frame magic: the bytes 'D' 'I' 'C' 'N' in wire order.
inline constexpr std::uint32_t kMagic = 0x4E434944u;
/// Protocol version. The rule is strict equality: a session speaking a
/// different version is closed at the first frame (no negotiation —
/// clients and servers deploy together in this tier). Version 2 added
/// the kTraceRequest/kTrace and kMetricsRequest/kMetrics frame pairs and
/// per-library heat in the kStats payload. Version 3 added placement to
/// the heat table (per-shard replica count, each heat entry's owner and
/// replica shards); version 4 removed it again with hot-library
/// replication — every heat entry now lives on its owner shard.
/// Version 5 removed the stats request/response pair (types 2 and 20):
/// ServerStats is computed client-side from the kMetrics snapshot, whose
/// histogram entries gained their running sum.
inline constexpr std::uint8_t kVersion = 5;
/// Bytes in the fixed frame header.
inline constexpr std::size_t kHeaderSize = 20;
/// Hard cap on a frame's declared payload length. A header declaring
/// more is malformed (protects the reader from attacker-sized
/// allocations); the streaming path keeps honest frames far below it.
inline constexpr std::uint32_t kMaxPayload = 64u << 20;
/// Default violations per kReportPart frame. At ~100 bytes a violation
/// this keeps streamed frames around 100 KiB.
inline constexpr std::size_t kDefaultReportChunk = 1024;

/// Frame types. Requests (client to server) are low values, responses
/// (server to client) start at 16.
enum class FrameType : std::uint8_t {
  kCheck = 1,           ///< payload: library id + CheckRequest
  kTraceRequest = 3,    ///< payload: u64 trace id; asks for that trace's spans
  kMetricsRequest = 4,  ///< payload: empty; asks for a MetricsSnapshot
  kResult = 16,         ///< payload: result envelope + full violation list
  kReportPart = 17,     ///< payload: a slice of a streamed violation list
  kReportEnd = 18,      ///< payload: result envelope closing a stream
  kRejected = 19,       ///< payload: result envelope; backpressure turndown
  kError = 21,          ///< payload: message; protocol-level failure
  kTrace = 22,          ///< payload: one trace's SpanRecord list
  kMetrics = 23,        ///< payload: MetricsSnapshot
};

/// A parsed frame header.
struct FrameHeader {
  std::uint32_t magic{0};
  std::uint8_t version{0};
  FrameType type{FrameType::kError};
  std::uint16_t flags{0};
  std::uint64_t requestId{0};
  std::uint32_t payloadLen{0};
};

/// Parse and validate `buf` (which must hold kHeaderSize bytes). False
/// with a reason in *err on bad magic, unknown version, unknown frame
/// type (including the retired 2 and 20), nonzero reserved flags, or a
/// payload length above kMaxPayload.
bool parseHeader(const std::uint8_t* buf, FrameHeader& out,
                 std::string* err = nullptr);

/// Serialize a header into `out` (appended; kHeaderSize bytes).
void appendHeader(std::vector<std::uint8_t>& out, FrameType type,
                  std::uint64_t requestId, std::uint32_t payloadLen);

// --- request side ----------------------------------------------------------

/// One complete kCheck frame: header + (library id, CheckRequest).
/// Everything result-affecting in the request is carried — kind, root,
/// metric, the per-kind knobs, extraction options, edits with their
/// element/instance payloads, and the tag — so a server-side run of the
/// decoded request is byte-identical to an in-process run of `req`.
std::vector<std::uint8_t> encodeCheckFrame(std::uint64_t requestId,
                                           std::string_view library,
                                           const CheckRequest& req);

/// Decode a kCheck payload. False on any malformed byte; `library` and
/// `req` are unspecified on failure.
bool decodeCheckPayload(const std::uint8_t* p, std::size_t n,
                        std::string& library, CheckRequest& req,
                        std::string* err = nullptr);

/// One complete kTraceRequest frame. `traceId` names the trace to fetch —
/// for TCP-served checks that is the request id the client chose for the
/// kCheck frame (the session roots the request's trace with it).
std::vector<std::uint8_t> encodeTraceRequestFrame(std::uint64_t requestId,
                                                  std::uint64_t traceId);

/// Decode a kTraceRequest payload (one u64 trace id).
bool decodeTraceRequestPayload(const std::uint8_t* p, std::size_t n,
                               std::uint64_t& traceId,
                               std::string* err = nullptr);

/// One complete kMetricsRequest frame (empty payload).
std::vector<std::uint8_t> encodeMetricsRequestFrame(std::uint64_t requestId);

// --- response side ---------------------------------------------------------

/// One complete kTrace frame: the trace id followed by its spans (the
/// server's Tracer::collect output, arrival order preserved). Span names
/// cross the wire as length-prefixed strings, not the fixed in-memory
/// buffer, so the payload carries no padding bytes.
std::vector<std::uint8_t> encodeTraceFrame(std::uint64_t requestId,
                                           std::uint64_t traceId,
                                           const std::vector<obs::SpanRecord>& spans);

/// Decode a kTrace payload. False on any malformed byte.
bool decodeTracePayload(const std::uint8_t* p, std::size_t n,
                        std::uint64_t& traceId,
                        std::vector<obs::SpanRecord>& spans,
                        std::string* err = nullptr);

/// One complete kMetrics frame: every metric of the snapshot in its
/// (name-sorted) order, each as name + kind tag + kind-specific value
/// (a histogram: u32 bound count B, B f64 bounds, B+1 u64 bucket counts,
/// f64 sum). Encoding a snapshot twice after identical deterministic
/// work yields byte-identical frames for the counter/gauge subset.
std::vector<std::uint8_t> encodeMetricsFrame(std::uint64_t requestId,
                                             const obs::MetricsSnapshot& snap);

/// Decode a kMetrics payload. False on any malformed byte (unknown kind
/// tag, count bomb, truncation, trailing bytes) or when the names are
/// not strictly increasing.
bool decodeMetricsPayload(const std::uint8_t* p, std::size_t n,
                          obs::MetricsSnapshot& out,
                          std::string* err = nullptr);

/// One complete kError frame (protocol-level failure description).
std::vector<std::uint8_t> encodeErrorFrame(std::uint64_t requestId,
                                           std::string_view message);

/// Decode a kError payload into its message (always succeeds; a
/// truncated message decodes to what is there).
std::string decodeErrorPayload(const std::uint8_t* p, std::size_t n);

/// Serializes one CheckResult as its wire frame sequence, chunk by
/// chunk, so the caller can write each frame to the socket before the
/// next is materialized: peak memory is one chunk, not the report.
///
///  * error == server::kErrQueueFull  -> one kRejected frame
///  * violations <= chunk             -> one kResult frame
///  * otherwise                       -> kReportPart... then kReportEnd
///
/// The envelope (kind, root, cache flags, revision, seconds, tag,
/// error, total violation count) rides the kResult / kRejected /
/// kReportEnd frame. Not every CheckResult field crosses the wire:
/// stage timings, interaction/baseline statistics, and the netlist
/// pointer stay in-process (docs/net.md lists the envelope).
class ResultFrameStream {
 public:
  ResultFrameStream(std::uint64_t requestId, const CheckResult& result,
                    std::size_t chunkViolations = kDefaultReportChunk);

  /// Produce the next frame into `frame` (replaced, not appended).
  /// Returns false when the sequence is complete (`frame` untouched).
  bool next(std::vector<std::uint8_t>& frame);

 private:
  std::uint64_t id_;
  const CheckResult& result_;
  std::size_t chunk_;
  std::size_t nextViolation_{0};
  bool envelopeSent_{false};
  bool singleFrame_{false};
  bool done_{false};
};

/// Reassembles response frames into CheckResults on the client side.
/// Feed every kResult / kReportPart / kReportEnd / kRejected frame in
/// connection order; at most one streamed response may be open at a
/// time (the server never interleaves), and a violation of that — or a
/// part/end for a mismatched request id, or a malformed payload — is a
/// protocol error.
class ResultAssembler {
 public:
  enum class Feed {
    kNeedMore,  ///< frame absorbed; the response is still streaming
    kComplete,  ///< `out` holds the finished (requestId, CheckResult)
    kError,     ///< protocol violation; the connection should close
  };

  Feed feed(const FrameHeader& h, const std::uint8_t* payload,
            std::size_t n, CheckResult& out, std::string* err = nullptr);

  /// True while a streamed response is open (parts seen, no end yet).
  bool streaming() const { return streaming_; }

 private:
  bool streaming_{false};
  std::uint64_t streamId_{0};
  std::vector<report::Violation> partial_;
};

// --- shared low-level codec helpers (exposed for tests) --------------------

/// Append an encoded CheckResult envelope + the violation slice
/// [first, first+count) to `out` (payload bytes only, no header).
void appendResultEnvelope(std::vector<std::uint8_t>& out,
                          const CheckResult& r,
                          std::uint64_t totalViolations);

/// Decode a result envelope; on success advances *p/*n past it.
bool decodeResultEnvelope(const std::uint8_t** p, std::size_t* n,
                          CheckResult& out, std::uint64_t* totalViolations,
                          std::string* err = nullptr);

/// Append `count` violations starting at `first` (payload bytes only).
void appendViolations(std::vector<std::uint8_t>& out,
                      const std::vector<report::Violation>& vs,
                      std::size_t first, std::size_t count);

/// Decode a violation slice, appending onto `out`. On success advances
/// *p/*n past the slice.
bool decodeViolations(const std::uint8_t** p, std::size_t* n,
                      std::vector<report::Violation>& out,
                      std::string* err = nullptr);

}  // namespace dic::net
