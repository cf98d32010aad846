#include "net/wire.hpp"

#include <bit>
#include <cstring>

namespace dic::net {

namespace {

// --- little-endian byte writer --------------------------------------------

void putU8(std::vector<std::uint8_t>& b, std::uint8_t v) { b.push_back(v); }

void putU16(std::vector<std::uint8_t>& b, std::uint16_t v) {
  b.push_back(static_cast<std::uint8_t>(v));
  b.push_back(static_cast<std::uint8_t>(v >> 8));
}

void putU32(std::vector<std::uint8_t>& b, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    b.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void putU64(std::vector<std::uint8_t>& b, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    b.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void putI32(std::vector<std::uint8_t>& b, std::int32_t v) {
  putU32(b, static_cast<std::uint32_t>(v));
}

void putI64(std::vector<std::uint8_t>& b, std::int64_t v) {
  putU64(b, static_cast<std::uint64_t>(v));
}

void putF64(std::vector<std::uint8_t>& b, double v) {
  putU64(b, std::bit_cast<std::uint64_t>(v));
}

void putStr(std::vector<std::uint8_t>& b, std::string_view s) {
  putU32(b, static_cast<std::uint32_t>(s.size()));
  b.insert(b.end(), s.begin(), s.end());
}

// --- bounds-checked little-endian reader ----------------------------------

/// Every read checks the remaining byte count first and latches failure;
/// after a failure all further reads return zeros, so decoders can read
/// linearly and test `ok` once per structural boundary.
struct Reader {
  const std::uint8_t* p;
  std::size_t n;
  bool ok{true};

  bool take(std::size_t k) {
    if (!ok || n < k) {
      ok = false;
      return false;
    }
    return true;
  }
  std::uint8_t u8() {
    if (!take(1)) return 0;
    const std::uint8_t v = p[0];
    p += 1;
    n -= 1;
    return v;
  }
  std::uint16_t u16() {
    if (!take(2)) return 0;
    std::uint16_t v = 0;
    for (int i = 0; i < 2; ++i) v |= static_cast<std::uint16_t>(p[i]) << (8 * i);
    p += 2;
    n -= 2;
    return v;
  }
  std::uint32_t u32() {
    if (!take(4)) return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
    p += 4;
    n -= 4;
    return v;
  }
  std::uint64_t u64() {
    if (!take(8)) return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    p += 8;
    n -= 8;
    return v;
  }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() { return std::bit_cast<double>(u64()); }
  std::string str() {
    const std::uint32_t len = u32();
    if (!take(len)) return {};
    std::string s(reinterpret_cast<const char*>(p), len);
    p += len;
    n -= len;
    return s;
  }
  /// u8 validated against an inclusive enum ceiling.
  std::uint8_t u8Max(std::uint8_t maxInclusive) {
    const std::uint8_t v = u8();
    if (v > maxInclusive) ok = false;
    return v;
  }
};

bool fail(std::string* err, const char* what) {
  if (err) *err = what;
  return false;
}

// --- geometry / layout payload pieces --------------------------------------

void putRect(std::vector<std::uint8_t>& b, const geom::Rect& r) {
  putI64(b, r.lo.x);
  putI64(b, r.lo.y);
  putI64(b, r.hi.x);
  putI64(b, r.hi.y);
}

geom::Rect getRect(Reader& rd) {
  geom::Rect r;
  r.lo.x = rd.i64();
  r.lo.y = rd.i64();
  r.hi.x = rd.i64();
  r.hi.y = rd.i64();
  return r;
}

void putElement(std::vector<std::uint8_t>& b, const layout::Element& e) {
  putU8(b, static_cast<std::uint8_t>(e.kind));
  putI32(b, e.layer);
  putStr(b, e.net);
  putRect(b, e.box);
  putU32(b, static_cast<std::uint32_t>(e.path.size()));
  for (const geom::Point& pt : e.path) {
    putI64(b, pt.x);
    putI64(b, pt.y);
  }
  putI64(b, e.wireWidth);
}

bool getElement(Reader& rd, layout::Element& e) {
  e.kind = static_cast<layout::ElementKind>(
      rd.u8Max(static_cast<std::uint8_t>(layout::ElementKind::kPolygon)));
  e.layer = rd.i32();
  e.net = rd.str();
  e.box = getRect(rd);
  const std::uint32_t nPath = rd.u32();
  if (!rd.ok || rd.n / 16 < nPath) return rd.ok = false;
  e.path.clear();
  e.path.reserve(nPath);
  for (std::uint32_t i = 0; i < nPath; ++i) {
    geom::Point pt;
    pt.x = rd.i64();
    pt.y = rd.i64();
    e.path.push_back(pt);
  }
  e.wireWidth = rd.i64();
  return rd.ok;
}

void putInstance(std::vector<std::uint8_t>& b, const layout::Instance& ins) {
  putI64(b, ins.cell);
  putU8(b, static_cast<std::uint8_t>(ins.transform.orient));
  putI64(b, ins.transform.t.x);
  putI64(b, ins.transform.t.y);
  putStr(b, ins.name);
}

bool getInstance(Reader& rd, layout::Instance& ins) {
  ins.cell = static_cast<layout::CellId>(rd.i64());
  ins.transform.orient = static_cast<geom::Orient>(
      rd.u8Max(static_cast<std::uint8_t>(geom::Orient::kMY90)));
  ins.transform.t.x = rd.i64();
  ins.transform.t.y = rd.i64();
  ins.name = rd.str();
  return rd.ok;
}

/// Lower bound on one encoded violation (fixed fields + three empty
/// strings); used to reject count bombs before reserving.
constexpr std::size_t kMinViolationBytes = 2 + 4 * 8 + 3 * 4 + 2 * 4;

}  // namespace

// --- header ----------------------------------------------------------------

void appendHeader(std::vector<std::uint8_t>& out, FrameType type,
                  std::uint64_t requestId, std::uint32_t payloadLen) {
  putU32(out, kMagic);
  putU8(out, kVersion);
  putU8(out, static_cast<std::uint8_t>(type));
  putU16(out, 0);  // reserved flags
  putU64(out, requestId);
  putU32(out, payloadLen);
}

bool parseHeader(const std::uint8_t* buf, FrameHeader& out, std::string* err) {
  Reader rd{buf, kHeaderSize};
  out.magic = rd.u32();
  out.version = rd.u8();
  const std::uint8_t type = rd.u8();
  out.flags = rd.u16();
  out.requestId = rd.u64();
  out.payloadLen = rd.u32();
  if (out.magic != kMagic) return fail(err, "bad magic");
  if (out.version != kVersion) return fail(err, "unsupported version");
  // Types 2 and 20 (the stats request/response pair) were retired in
  // version 5.
  const bool known =
      (type >= static_cast<std::uint8_t>(FrameType::kCheck) &&
       type <= static_cast<std::uint8_t>(FrameType::kMetricsRequest) &&
       type != 2) ||
      (type >= static_cast<std::uint8_t>(FrameType::kResult) &&
       type <= static_cast<std::uint8_t>(FrameType::kMetrics) && type != 20);
  if (!known) return fail(err, "unknown frame type");
  out.type = static_cast<FrameType>(type);
  if (out.flags != 0) return fail(err, "nonzero reserved flags");
  if (out.payloadLen > kMaxPayload) return fail(err, "oversized payload length");
  return true;
}

// --- kCheck ----------------------------------------------------------------

std::vector<std::uint8_t> encodeCheckFrame(std::uint64_t requestId,
                                           std::string_view library,
                                           const CheckRequest& req) {
  std::vector<std::uint8_t> payload;
  putStr(payload, library);
  putU8(payload, static_cast<std::uint8_t>(req.kind));
  putI64(payload, req.root);
  putU8(payload, static_cast<std::uint8_t>(req.metric));
  std::uint8_t drcFlags = 0;
  if (req.checkDevices) drcFlags |= 1;
  if (req.hierarchicalInteractions) drcFlags |= 2;
  if (req.useNetInformation) drcFlags |= 4;
  if (req.instantiateViolations) drcFlags |= 8;
  putU8(payload, drcFlags);
  std::uint8_t baseFlags = 0;
  if (req.baselineWidth) baseFlags |= 1;
  if (req.baselineSpacing) baseFlags |= 2;
  if (req.baselineContacts) baseFlags |= 4;
  putU8(payload, baseFlags);
  std::uint8_t ercFlags = 0;
  if (req.erc.checkDanglingNets) ercFlags |= 1;
  if (req.erc.checkPowerGroundShort) ercFlags |= 2;
  if (req.erc.checkBusRules) ercFlags |= 4;
  if (req.erc.checkDepletionToGround) ercFlags |= 8;
  putU8(payload, ercFlags);
  putU8(payload, req.extract.mergeByLabel ? 1 : 0);
  putU32(payload, static_cast<std::uint32_t>(req.extract.globalPrefixes.size()));
  for (const std::string& pfx : req.extract.globalPrefixes) putStr(payload, pfx);
  putI32(payload, req.threads);
  putU32(payload, static_cast<std::uint32_t>(req.edits.size()));
  for (const EditOp& op : req.edits) {
    putU8(payload, static_cast<std::uint8_t>(op.kind));
    putI64(payload, op.cell);
    putU64(payload, op.index);
    putElement(payload, op.element);
    putInstance(payload, op.instance);
  }
  putStr(payload, req.tag);

  std::vector<std::uint8_t> frame;
  frame.reserve(kHeaderSize + payload.size());
  appendHeader(frame, FrameType::kCheck, requestId,
               static_cast<std::uint32_t>(payload.size()));
  frame.insert(frame.end(), payload.begin(), payload.end());
  return frame;
}

bool decodeCheckPayload(const std::uint8_t* p, std::size_t n,
                        std::string& library, CheckRequest& req,
                        std::string* err) {
  Reader rd{p, n};
  library = rd.str();
  req = CheckRequest{};
  req.kind = static_cast<CheckKind>(
      rd.u8Max(static_cast<std::uint8_t>(CheckKind::kNetlistOnly)));
  req.root = static_cast<layout::CellId>(rd.i64());
  req.metric = static_cast<geom::Metric>(
      rd.u8Max(static_cast<std::uint8_t>(geom::Metric::kOrthogonal)));
  const std::uint8_t drcFlags = rd.u8();
  req.checkDevices = drcFlags & 1;
  req.hierarchicalInteractions = drcFlags & 2;
  req.useNetInformation = drcFlags & 4;
  req.instantiateViolations = drcFlags & 8;
  const std::uint8_t baseFlags = rd.u8();
  req.baselineWidth = baseFlags & 1;
  req.baselineSpacing = baseFlags & 2;
  req.baselineContacts = baseFlags & 4;
  const std::uint8_t ercFlags = rd.u8();
  req.erc.checkDanglingNets = ercFlags & 1;
  req.erc.checkPowerGroundShort = ercFlags & 2;
  req.erc.checkBusRules = ercFlags & 4;
  req.erc.checkDepletionToGround = ercFlags & 8;
  req.extract.mergeByLabel = rd.u8Max(1) != 0;
  const std::uint32_t nPfx = rd.u32();
  if (!rd.ok || rd.n / 4 < nPfx) return fail(err, "bad prefix count");
  req.extract.globalPrefixes.clear();
  req.extract.globalPrefixes.reserve(nPfx);
  for (std::uint32_t i = 0; i < nPfx; ++i)
    req.extract.globalPrefixes.push_back(rd.str());
  req.threads = rd.i32();
  const std::uint32_t nEdits = rd.u32();
  // An encoded EditOp is at least 9 bytes of its own fields plus the
  // element (>= 59) and instance (>= 21) payloads.
  if (!rd.ok || rd.n / 64 < nEdits) return fail(err, "bad edit count");
  req.edits.clear();
  req.edits.reserve(nEdits);
  for (std::uint32_t i = 0; i < nEdits; ++i) {
    EditOp op;
    op.kind = static_cast<EditOp::Kind>(
        rd.u8Max(static_cast<std::uint8_t>(EditOp::Kind::kRemoveInstance)));
    op.cell = static_cast<layout::CellId>(rd.i64());
    op.index = rd.u64();
    if (!getElement(rd, op.element)) return fail(err, "bad edit element");
    if (!getInstance(rd, op.instance)) return fail(err, "bad edit instance");
    req.edits.push_back(std::move(op));
  }
  req.tag = rd.str();
  if (!rd.ok) return fail(err, "truncated check payload");
  if (rd.n != 0) return fail(err, "trailing bytes in check payload");
  return true;
}

std::vector<std::uint8_t> encodeTraceRequestFrame(std::uint64_t requestId,
                                                  std::uint64_t traceId) {
  std::vector<std::uint8_t> frame;
  appendHeader(frame, FrameType::kTraceRequest, requestId, 8);
  putU64(frame, traceId);
  return frame;
}

bool decodeTraceRequestPayload(const std::uint8_t* p, std::size_t n,
                               std::uint64_t& traceId, std::string* err) {
  Reader rd{p, n};
  traceId = rd.u64();
  if (!rd.ok) return fail(err, "truncated trace request payload");
  if (rd.n != 0) return fail(err, "trailing bytes in trace request payload");
  return true;
}

std::vector<std::uint8_t> encodeMetricsRequestFrame(std::uint64_t requestId) {
  std::vector<std::uint8_t> frame;
  appendHeader(frame, FrameType::kMetricsRequest, requestId, 0);
  return frame;
}

// --- result envelope + violations ------------------------------------------

void appendResultEnvelope(std::vector<std::uint8_t>& out, const CheckResult& r,
                          std::uint64_t totalViolations) {
  putU8(out, static_cast<std::uint8_t>(r.kind));
  putI64(out, r.root);
  std::uint8_t flags = 0;
  if (r.viewCacheHit) flags |= 1;
  if (r.netlistCacheHit) flags |= 2;
  if (r.incrementalHit) flags |= 4;
  putU8(out, flags);
  putU64(out, r.revision);
  putF64(out, r.seconds);
  putStr(out, r.tag);
  putStr(out, r.error);
  putU64(out, totalViolations);
}

bool decodeResultEnvelope(const std::uint8_t** p, std::size_t* n,
                          CheckResult& out, std::uint64_t* totalViolations,
                          std::string* err) {
  Reader rd{*p, *n};
  out = CheckResult{};
  out.kind = static_cast<CheckKind>(
      rd.u8Max(static_cast<std::uint8_t>(CheckKind::kNetlistOnly)));
  out.root = static_cast<layout::CellId>(rd.i64());
  const std::uint8_t flags = rd.u8();
  out.viewCacheHit = flags & 1;
  out.netlistCacheHit = flags & 2;
  out.incrementalHit = flags & 4;
  out.revision = rd.u64();
  out.seconds = rd.f64();
  out.tag = rd.str();
  out.error = rd.str();
  const std::uint64_t total = rd.u64();
  if (!rd.ok) return fail(err, "truncated result envelope");
  if (totalViolations) *totalViolations = total;
  *p = rd.p;
  *n = rd.n;
  return true;
}

void appendViolations(std::vector<std::uint8_t>& out,
                      const std::vector<report::Violation>& vs,
                      std::size_t first, std::size_t count) {
  putU32(out, static_cast<std::uint32_t>(count));
  for (std::size_t i = first; i < first + count; ++i) {
    const report::Violation& v = vs[i];
    putU8(out, static_cast<std::uint8_t>(v.category));
    putU8(out, static_cast<std::uint8_t>(v.severity));
    putStr(out, v.rule);
    putRect(out, v.where);
    putStr(out, v.cell);
    putStr(out, v.message);
    putI32(out, v.layerA);
    putI32(out, v.layerB);
  }
}

bool decodeViolations(const std::uint8_t** p, std::size_t* n,
                      std::vector<report::Violation>& out, std::string* err) {
  Reader rd{*p, *n};
  const std::uint32_t count = rd.u32();
  if (!rd.ok || rd.n / kMinViolationBytes < count)
    return fail(err, "bad violation count");
  out.reserve(out.size() + count);
  for (std::uint32_t i = 0; i < count; ++i) {
    report::Violation v;
    v.category = static_cast<report::Category>(
        rd.u8Max(static_cast<std::uint8_t>(report::Category::kOther)));
    v.severity = static_cast<report::Severity>(
        rd.u8Max(static_cast<std::uint8_t>(report::Severity::kInfo)));
    v.rule = rd.str();
    v.where = getRect(rd);
    v.cell = rd.str();
    v.message = rd.str();
    v.layerA = rd.i32();
    v.layerB = rd.i32();
    if (!rd.ok) return fail(err, "truncated violation");
    out.push_back(std::move(v));
  }
  *p = rd.p;
  *n = rd.n;
  return true;
}

// --- ResultFrameStream ------------------------------------------------------

ResultFrameStream::ResultFrameStream(std::uint64_t requestId,
                                     const CheckResult& result,
                                     std::size_t chunkViolations)
    : id_(requestId),
      result_(result),
      chunk_(chunkViolations == 0 ? kDefaultReportChunk : chunkViolations) {
  const bool rejected = result_.error == server::kErrQueueFull;
  singleFrame_ = rejected || result_.report.count() <= chunk_;
}

bool ResultFrameStream::next(std::vector<std::uint8_t>& frame) {
  if (done_) return false;
  const std::vector<report::Violation>& vs = result_.report.violations();
  std::vector<std::uint8_t> payload;
  frame.clear();
  if (singleFrame_) {
    const bool rejected = result_.error == server::kErrQueueFull;
    appendResultEnvelope(payload, result_, rejected ? 0 : vs.size());
    if (!rejected) appendViolations(payload, vs, 0, vs.size());
    appendHeader(frame, rejected ? FrameType::kRejected : FrameType::kResult,
                 id_, static_cast<std::uint32_t>(payload.size()));
    frame.insert(frame.end(), payload.begin(), payload.end());
    done_ = true;
    return true;
  }
  if (nextViolation_ < vs.size()) {
    const std::size_t count = std::min(chunk_, vs.size() - nextViolation_);
    appendViolations(payload, vs, nextViolation_, count);
    appendHeader(frame, FrameType::kReportPart, id_,
                 static_cast<std::uint32_t>(payload.size()));
    frame.insert(frame.end(), payload.begin(), payload.end());
    nextViolation_ += count;
    return true;
  }
  appendResultEnvelope(payload, result_, vs.size());
  appendHeader(frame, FrameType::kReportEnd, id_,
               static_cast<std::uint32_t>(payload.size()));
  frame.insert(frame.end(), payload.begin(), payload.end());
  done_ = true;
  return true;
}

// --- ResultAssembler --------------------------------------------------------

ResultAssembler::Feed ResultAssembler::feed(const FrameHeader& h,
                                            const std::uint8_t* payload,
                                            std::size_t n, CheckResult& out,
                                            std::string* err) {
  const std::uint8_t* p = payload;
  switch (h.type) {
    case FrameType::kResult:
    case FrameType::kRejected: {
      if (streaming_) {
        fail(err, "result frame inside an open report stream");
        return Feed::kError;
      }
      std::uint64_t total = 0;
      if (!decodeResultEnvelope(&p, &n, out, &total, err)) return Feed::kError;
      std::vector<report::Violation> vs;
      if (h.type == FrameType::kResult &&
          !decodeViolations(&p, &n, vs, err))
        return Feed::kError;
      if (n != 0) {
        fail(err, "trailing bytes after result");
        return Feed::kError;
      }
      if (h.type == FrameType::kResult && vs.size() != total) {
        fail(err, "violation count mismatch");
        return Feed::kError;
      }
      for (report::Violation& v : vs) out.report.add(std::move(v));
      return Feed::kComplete;
    }
    case FrameType::kReportPart: {
      if (streaming_ && h.requestId != streamId_) {
        fail(err, "interleaved report streams");
        return Feed::kError;
      }
      if (!streaming_) {
        streaming_ = true;
        streamId_ = h.requestId;
        partial_.clear();
      }
      if (!decodeViolations(&p, &n, partial_, err)) return Feed::kError;
      if (n != 0) {
        fail(err, "trailing bytes after report part");
        return Feed::kError;
      }
      return Feed::kNeedMore;
    }
    case FrameType::kReportEnd: {
      if (!streaming_ || h.requestId != streamId_) {
        fail(err, "report end without open stream");
        return Feed::kError;
      }
      std::uint64_t total = 0;
      if (!decodeResultEnvelope(&p, &n, out, &total, err)) return Feed::kError;
      if (n != 0) {
        fail(err, "trailing bytes after report end");
        return Feed::kError;
      }
      if (partial_.size() != total) {
        fail(err, "streamed violation count mismatch");
        return Feed::kError;
      }
      for (report::Violation& v : partial_) out.report.add(std::move(v));
      partial_.clear();
      streaming_ = false;
      return Feed::kComplete;
    }
    default:
      fail(err, "unexpected frame type for result assembly");
      return Feed::kError;
  }
}

// --- trace -----------------------------------------------------------------

std::vector<std::uint8_t> encodeTraceFrame(
    std::uint64_t requestId, std::uint64_t traceId,
    const std::vector<obs::SpanRecord>& spans) {
  std::vector<std::uint8_t> payload;
  putU64(payload, traceId);
  putU32(payload, static_cast<std::uint32_t>(spans.size()));
  for (const obs::SpanRecord& s : spans) {
    putU64(payload, s.spanId);
    putU64(payload, s.parentId);
    putU64(payload, s.startNs);
    putU64(payload, s.durNs);
    putU32(payload, s.tid);
    putStr(payload, s.label());
  }
  std::vector<std::uint8_t> frame;
  frame.reserve(kHeaderSize + payload.size());
  appendHeader(frame, FrameType::kTrace, requestId,
               static_cast<std::uint32_t>(payload.size()));
  frame.insert(frame.end(), payload.begin(), payload.end());
  return frame;
}

bool decodeTracePayload(const std::uint8_t* p, std::size_t n,
                        std::uint64_t& traceId,
                        std::vector<obs::SpanRecord>& spans,
                        std::string* err) {
  Reader rd{p, n};
  traceId = rd.u64();
  const std::uint32_t count = rd.u32();
  // One encoded span: four u64, one u32, one empty-name string.
  constexpr std::size_t kMinSpanBytes = 4 * 8 + 4 + 4;
  if (!rd.ok || rd.n / kMinSpanBytes < count)
    return fail(err, "bad span count");
  spans.clear();
  spans.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    obs::SpanRecord s;
    s.traceId = traceId;
    s.spanId = rd.u64();
    s.parentId = rd.u64();
    s.startNs = rd.u64();
    s.durNs = rd.u64();
    s.tid = rd.u32();
    const std::string name = rd.str();
    if (!rd.ok) return fail(err, "truncated span");
    // Truncate into the fixed in-memory buffer exactly like emission does.
    std::strncpy(s.name, name.c_str(), sizeof(s.name) - 1);
    spans.push_back(s);
  }
  if (rd.n != 0) return fail(err, "trailing bytes in trace payload");
  return true;
}

// --- metrics ---------------------------------------------------------------

std::vector<std::uint8_t> encodeMetricsFrame(std::uint64_t requestId,
                                             const obs::MetricsSnapshot& snap) {
  std::vector<std::uint8_t> payload;
  putU32(payload, static_cast<std::uint32_t>(snap.metrics.size()));
  for (const obs::MetricValue& m : snap.metrics) {
    putStr(payload, m.name);
    putU8(payload, static_cast<std::uint8_t>(m.kind));
    switch (m.kind) {
      case obs::MetricValue::Kind::kCounter:
        putU64(payload, m.counter);
        break;
      case obs::MetricValue::Kind::kGauge:
        putI64(payload, m.gauge);
        break;
      case obs::MetricValue::Kind::kHistogram:
        putU32(payload, static_cast<std::uint32_t>(m.bounds.size()));
        for (double b : m.bounds) putF64(payload, b);
        // buckets has bounds.size() + 1 entries (overflow last); the
        // count is implied by the bounds count.
        for (std::uint64_t c : m.buckets) putU64(payload, c);
        putF64(payload, m.sum);
        break;
    }
  }
  std::vector<std::uint8_t> frame;
  frame.reserve(kHeaderSize + payload.size());
  appendHeader(frame, FrameType::kMetrics, requestId,
               static_cast<std::uint32_t>(payload.size()));
  frame.insert(frame.end(), payload.begin(), payload.end());
  return frame;
}

bool decodeMetricsPayload(const std::uint8_t* p, std::size_t n,
                          obs::MetricsSnapshot& out, std::string* err) {
  Reader rd{p, n};
  const std::uint32_t count = rd.u32();
  // Smallest metric: empty name (4) + kind tag (1) + one 8-byte value
  // (a counter or gauge; a histogram carries at least a u32 bound
  // count, the overflow bucket and the sum).
  constexpr std::size_t kMinMetricBytes = 4 + 1 + 8;
  if (!rd.ok || rd.n / kMinMetricBytes < count)
    return fail(err, "bad metric count");
  out.metrics.clear();
  out.metrics.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    obs::MetricValue m;
    m.name = rd.str();
    m.kind = static_cast<obs::MetricValue::Kind>(rd.u8Max(
        static_cast<std::uint8_t>(obs::MetricValue::Kind::kHistogram)));
    if (!rd.ok) return fail(err, "truncated metric");
    switch (m.kind) {
      case obs::MetricValue::Kind::kCounter:
        m.counter = rd.u64();
        break;
      case obs::MetricValue::Kind::kGauge:
        m.gauge = rd.i64();
        break;
      case obs::MetricValue::Kind::kHistogram: {
        const std::uint32_t nBounds = rd.u32();
        // Each bound costs 8 bytes and implies an 8-byte bucket; the
        // overflow bucket and the sum add 16 more.
        if (!rd.ok || rd.n < 16 || (rd.n - 16) / 16 < nBounds)
          return fail(err, "bad histogram bound count");
        m.bounds.reserve(nBounds);
        for (std::uint32_t j = 0; j < nBounds; ++j)
          m.bounds.push_back(rd.f64());
        m.buckets.reserve(nBounds + 1);
        for (std::uint32_t j = 0; j < nBounds + 1; ++j)
          m.buckets.push_back(rd.u64());
        m.sum = rd.f64();
        break;
      }
    }
    if (!rd.ok) return fail(err, "truncated metric value");
    // Snapshot lookups binary-search by name, so the order is checked.
    if (!out.metrics.empty() && !(out.metrics.back().name < m.name))
      return fail(err, "metrics not strictly name-sorted");
    out.metrics.push_back(std::move(m));
  }
  if (rd.n != 0) return fail(err, "trailing bytes in metrics payload");
  return true;
}

// --- error -----------------------------------------------------------------

std::vector<std::uint8_t> encodeErrorFrame(std::uint64_t requestId,
                                           std::string_view message) {
  std::vector<std::uint8_t> payload;
  putStr(payload, message);
  std::vector<std::uint8_t> frame;
  appendHeader(frame, FrameType::kError, requestId,
               static_cast<std::uint32_t>(payload.size()));
  frame.insert(frame.end(), payload.begin(), payload.end());
  return frame;
}

std::string decodeErrorPayload(const std::uint8_t* p, std::size_t n) {
  Reader rd{p, n};
  std::string s = rd.str();
  return rd.ok ? s : std::string("(malformed error payload)");
}

}  // namespace dic::net
