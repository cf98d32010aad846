// The dic::net wire codec, exercised entirely on byte buffers — no
// sockets: rich round-trips, the streamed-report reassembly contract,
// and the malformed-input hardening the session layer depends on (a
// hostile or truncated frame must decode to a clean failure, never an
// over-read or a crash).
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "net/wire.hpp"

namespace {

using namespace dic;
using namespace dic::net;

report::Violation makeViolation(int i) {
  report::Violation v;
  v.category = static_cast<report::Category>(
      i % (static_cast<int>(report::Category::kOther) + 1));
  v.severity = static_cast<report::Severity>(i % 3);
  v.rule = "S.ND.RULE" + std::to_string(i);
  v.where = {{i * 10, -i * 3}, {i * 10 + 7, -i * 3 + 5}};
  v.cell = "cell" + std::to_string(i % 4);
  v.message = "violation #" + std::to_string(i);
  v.layerA = i % 5;
  v.layerB = (i % 7) - 1;
  return v;
}

CheckResult makeResult(std::size_t violations) {
  CheckResult r;
  r.kind = CheckKind::kHierarchicalDrc;
  r.root = 3;
  r.viewCacheHit = true;
  r.incrementalHit = true;
  r.revision = 17;
  r.seconds = 0.04125;
  r.tag = "tag-x";
  for (std::size_t i = 0; i < violations; ++i)
    r.report.add(makeViolation(static_cast<int>(i)));
  return r;
}

/// Parse the header of a full frame and return (header, payload span).
FrameHeader splitFrame(const std::vector<std::uint8_t>& frame,
                       const std::uint8_t** payload, std::size_t* n) {
  FrameHeader h;
  std::string err;
  EXPECT_GE(frame.size(), kHeaderSize);
  EXPECT_TRUE(parseHeader(frame.data(), h, &err)) << err;
  EXPECT_EQ(frame.size(), kHeaderSize + h.payloadLen);
  *payload = frame.data() + kHeaderSize;
  *n = h.payloadLen;
  return h;
}

/// Compare everything a result envelope carries (reports via text()).
void expectResultEq(const CheckResult& a, const CheckResult& b) {
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.root, b.root);
  EXPECT_EQ(a.viewCacheHit, b.viewCacheHit);
  EXPECT_EQ(a.netlistCacheHit, b.netlistCacheHit);
  EXPECT_EQ(a.incrementalHit, b.incrementalHit);
  EXPECT_EQ(a.revision, b.revision);
  EXPECT_DOUBLE_EQ(a.seconds, b.seconds);
  EXPECT_EQ(a.tag, b.tag);
  EXPECT_EQ(a.error, b.error);
  EXPECT_EQ(a.report.text(), b.report.text());
}

TEST(NetWire, HeaderRoundTrip) {
  std::vector<std::uint8_t> buf;
  appendHeader(buf, FrameType::kReportPart, 0xDEADBEEFCAFEBABEull, 12345);
  ASSERT_EQ(buf.size(), kHeaderSize);
  FrameHeader h;
  std::string err;
  ASSERT_TRUE(parseHeader(buf.data(), h, &err)) << err;
  EXPECT_EQ(h.magic, kMagic);
  EXPECT_EQ(h.version, kVersion);
  EXPECT_EQ(h.type, FrameType::kReportPart);
  EXPECT_EQ(h.flags, 0);
  EXPECT_EQ(h.requestId, 0xDEADBEEFCAFEBABEull);
  EXPECT_EQ(h.payloadLen, 12345u);
}

TEST(NetWire, CheckFrameRoundTripRich) {
  CheckRequest req;
  req.kind = CheckKind::kErc;
  req.root = 42;
  req.metric = geom::Metric::kOrthogonal;
  req.checkDevices = false;
  req.hierarchicalInteractions = true;
  req.useNetInformation = false;
  req.instantiateViolations = true;
  req.baselineWidth = false;
  req.baselineSpacing = true;
  req.baselineContacts = false;
  req.erc.checkDanglingNets = false;
  req.erc.checkPowerGroundShort = true;
  req.erc.checkBusRules = false;
  req.erc.checkDepletionToGround = true;
  req.extract.mergeByLabel = false;
  req.extract.globalPrefixes = {"VDD", "GND", "PHI"};
  req.tag = "req-77";

  layout::Element wire;
  wire.kind = layout::ElementKind::kWire;
  wire.layer = 2;
  wire.net = "VDD";
  wire.box = {{0, 0}, {100, 4}};
  wire.path = {{0, 2}, {50, 2}, {50, 40}, {100, 40}};
  wire.wireWidth = 4;
  req.edits.push_back(EditOp::setElement(7, 11, wire));

  EditOp add;
  add.kind = EditOp::Kind::kAddInstance;
  add.cell = 5;
  add.index = 0;
  add.instance.cell = 9;
  add.instance.transform.orient = geom::Orient::kMY90;
  add.instance.transform.t = {-1234, 5678};
  add.instance.name = "u42";
  req.edits.push_back(add);

  const std::vector<std::uint8_t> frame =
      encodeCheckFrame(99, "libA", req);
  const std::uint8_t* p = nullptr;
  std::size_t n = 0;
  const FrameHeader h = splitFrame(frame, &p, &n);
  EXPECT_EQ(h.type, FrameType::kCheck);
  EXPECT_EQ(h.requestId, 99u);

  std::string lib;
  CheckRequest got;
  std::string err;
  ASSERT_TRUE(decodeCheckPayload(p, n, lib, got, &err)) << err;
  EXPECT_EQ(lib, "libA");
  EXPECT_EQ(got.kind, req.kind);
  EXPECT_EQ(got.root, req.root);
  EXPECT_EQ(got.metric, req.metric);
  EXPECT_EQ(got.checkDevices, req.checkDevices);
  EXPECT_EQ(got.hierarchicalInteractions, req.hierarchicalInteractions);
  EXPECT_EQ(got.useNetInformation, req.useNetInformation);
  EXPECT_EQ(got.instantiateViolations, req.instantiateViolations);
  EXPECT_EQ(got.baselineWidth, req.baselineWidth);
  EXPECT_EQ(got.baselineSpacing, req.baselineSpacing);
  EXPECT_EQ(got.baselineContacts, req.baselineContacts);
  EXPECT_EQ(got.erc.checkDanglingNets, req.erc.checkDanglingNets);
  EXPECT_EQ(got.erc.checkPowerGroundShort, req.erc.checkPowerGroundShort);
  EXPECT_EQ(got.erc.checkBusRules, req.erc.checkBusRules);
  EXPECT_EQ(got.erc.checkDepletionToGround, req.erc.checkDepletionToGround);
  EXPECT_EQ(got.extract.mergeByLabel, req.extract.mergeByLabel);
  EXPECT_EQ(got.extract.globalPrefixes, req.extract.globalPrefixes);
  EXPECT_EQ(got.tag, req.tag);
  ASSERT_EQ(got.edits.size(), 2u);
  EXPECT_EQ(got.edits[0].kind, EditOp::Kind::kSetElement);
  EXPECT_EQ(got.edits[0].cell, 7);
  EXPECT_EQ(got.edits[0].index, 11u);
  EXPECT_EQ(got.edits[0].element.kind, layout::ElementKind::kWire);
  EXPECT_EQ(got.edits[0].element.net, "VDD");
  EXPECT_EQ(got.edits[0].element.path.size(), 4u);
  EXPECT_EQ(got.edits[0].element.path[2].y, 40);
  EXPECT_EQ(got.edits[0].element.wireWidth, 4);
  EXPECT_EQ(got.edits[1].kind, EditOp::Kind::kAddInstance);
  EXPECT_EQ(got.edits[1].instance.cell, 9);
  EXPECT_EQ(got.edits[1].instance.transform.orient, geom::Orient::kMY90);
  EXPECT_EQ(got.edits[1].instance.transform.t.x, -1234);
  EXPECT_EQ(got.edits[1].instance.name, "u42");
}

TEST(NetWire, ErrorFrameRoundTrip) {
  for (const std::string& msg : {std::string("bad magic"), std::string()}) {
    const std::vector<std::uint8_t> frame = encodeErrorFrame(8, msg);
    const std::uint8_t* p = nullptr;
    std::size_t n = 0;
    const FrameHeader h = splitFrame(frame, &p, &n);
    EXPECT_EQ(h.type, FrameType::kError);
    EXPECT_EQ(decodeErrorPayload(p, n), msg);
  }
}

TEST(NetWire, SingleFrameResultRoundTrip) {
  const CheckResult r = makeResult(3);
  ResultFrameStream stream(21, r, /*chunkViolations=*/8);
  std::vector<std::uint8_t> frame;
  ASSERT_TRUE(stream.next(frame));
  const std::uint8_t* p = nullptr;
  std::size_t n = 0;
  const FrameHeader h = splitFrame(frame, &p, &n);
  EXPECT_EQ(h.type, FrameType::kResult);
  EXPECT_EQ(h.requestId, 21u);
  ASSERT_FALSE(stream.next(frame));  // single-frame sequence

  ResultAssembler as;
  CheckResult got;
  std::string err;
  ASSERT_EQ(as.feed(h, p, n, got, &err), ResultAssembler::Feed::kComplete)
      << err;
  expectResultEq(got, r);
}

TEST(NetWire, RejectedFrameCarriesNoViolations) {
  CheckResult r = makeResult(5);  // violations must NOT cross the wire
  r.error = server::kErrQueueFull;
  ResultFrameStream stream(4, r, /*chunkViolations=*/1);
  std::vector<std::uint8_t> frame;
  ASSERT_TRUE(stream.next(frame));
  ASSERT_FALSE(stream.next(frame));  // one frame even though 5 > chunk
  const std::uint8_t* p = nullptr;
  std::size_t n = 0;
  const FrameHeader h = splitFrame(frame, &p, &n);
  EXPECT_EQ(h.type, FrameType::kRejected);

  ResultAssembler as;
  CheckResult got;
  std::string err;
  ASSERT_EQ(as.feed(h, p, n, got, &err), ResultAssembler::Feed::kComplete)
      << err;
  EXPECT_EQ(got.error, server::kErrQueueFull);
  EXPECT_TRUE(got.report.empty());
}

TEST(NetWire, StreamingChunksAndReassembly) {
  const CheckResult r = makeResult(10);
  ResultFrameStream stream(33, r, /*chunkViolations=*/3);
  ResultAssembler as;
  CheckResult got;
  std::string err;
  std::vector<std::uint8_t> frame;
  std::size_t parts = 0;
  bool complete = false;
  while (stream.next(frame)) {
    const std::uint8_t* p = nullptr;
    std::size_t n = 0;
    const FrameHeader h = splitFrame(frame, &p, &n);
    ASSERT_FALSE(complete);  // nothing after the end frame
    const ResultAssembler::Feed fed = as.feed(h, p, n, got, &err);
    if (h.type == FrameType::kReportPart) {
      ++parts;
      EXPECT_EQ(fed, ResultAssembler::Feed::kNeedMore) << err;
      EXPECT_TRUE(as.streaming());
    } else {
      EXPECT_EQ(h.type, FrameType::kReportEnd);
      ASSERT_EQ(fed, ResultAssembler::Feed::kComplete) << err;
      complete = true;
    }
  }
  EXPECT_TRUE(complete);
  EXPECT_EQ(parts, 4u);  // 3+3+3+1
  EXPECT_FALSE(as.streaming());
  expectResultEq(got, r);
}

TEST(NetWire, HeaderRejectsBadMagicVersionFlagsType) {
  std::vector<std::uint8_t> good;
  appendHeader(good, FrameType::kCheck, 1, 0);
  FrameHeader h;
  ASSERT_TRUE(parseHeader(good.data(), h));

  auto corrupt = [&](std::size_t offset, std::uint8_t value) {
    std::vector<std::uint8_t> bad = good;
    bad[offset] = value;
    std::string err;
    EXPECT_FALSE(parseHeader(bad.data(), h, &err));
    EXPECT_FALSE(err.empty());
  };
  corrupt(0, 'X');               // magic
  corrupt(4, kVersion + 1);      // version from the future
  corrupt(4, kVersion - 1);      // an older peer: closed at its first frame
  corrupt(5, 0);                 // type 0 unknown
  corrupt(5, 5);                 // gap between requests and responses
  corrupt(5, 15);                // still in the gap
  corrupt(5, 24);                // past kMetrics
  corrupt(6, 1);                 // reserved flags must be zero

  // The version-2 frame types are all known to the parser.
  for (const FrameType t : {FrameType::kTraceRequest, FrameType::kMetricsRequest,
                            FrameType::kTrace, FrameType::kMetrics}) {
    std::vector<std::uint8_t> buf;
    appendHeader(buf, t, 1, 0);
    std::string err;
    EXPECT_TRUE(parseHeader(buf.data(), h, &err)) << err;
    EXPECT_EQ(h.type, t);
  }
}

TEST(NetWire, HeaderRejectsRetiredStatsFrameTypes) {
  // Version 5 retired the stats request (2) and stats response (20):
  // a peer still sending them is speaking an unknown frame type.
  for (const std::uint8_t type : {std::uint8_t{2}, std::uint8_t{20}}) {
    std::vector<std::uint8_t> buf;
    appendHeader(buf, FrameType::kCheck, 1, 0);
    buf[5] = type;
    FrameHeader h;
    std::string err;
    EXPECT_FALSE(parseHeader(buf.data(), h, &err)) << int(type);
    EXPECT_EQ(err, "unknown frame type") << int(type);
  }
}

TEST(NetWire, HeaderRejectsVersion5Peer) {
  // Version 6 dropped the kCheck payload's per-request thread count; a
  // v5 client would send four bytes the decoder no longer expects.
  EXPECT_EQ(kVersion, 6);
  std::vector<std::uint8_t> buf;
  appendHeader(buf, FrameType::kMetricsRequest, 1, 0);
  buf[4] = kVersion - 1;
  FrameHeader h;
  std::string err;
  EXPECT_FALSE(parseHeader(buf.data(), h, &err));
  EXPECT_EQ(err, "unsupported version");
}

TEST(NetWire, HeaderRejectsOversizedPayloadLength) {
  std::vector<std::uint8_t> buf;
  appendHeader(buf, FrameType::kCheck, 1, 0);
  const std::uint32_t big = kMaxPayload + 1;
  std::memcpy(buf.data() + 16, &big, 4);  // little-endian host in CI
  FrameHeader h;
  std::string err;
  EXPECT_FALSE(parseHeader(buf.data(), h, &err));
  EXPECT_EQ(err, "oversized payload length");
}

TEST(NetWire, TruncatedCheckPayloadPrefixSweep) {
  CheckRequest req = CheckRequest::drc(3);
  req.extract.globalPrefixes = {"VDD"};
  layout::Element e;
  e.kind = layout::ElementKind::kBox;
  e.layer = 1;
  e.box = {{0, 0}, {10, 10}};
  req.edits.push_back(EditOp::setElement(2, 0, e));
  req.tag = "t";
  const std::vector<std::uint8_t> frame = encodeCheckFrame(1, "lib0", req);
  const std::uint8_t* p = frame.data() + kHeaderSize;
  const std::size_t n = frame.size() - kHeaderSize;

  std::string lib;
  CheckRequest got;
  ASSERT_TRUE(decodeCheckPayload(p, n, lib, got));
  for (std::size_t cut = 0; cut < n; ++cut)
    EXPECT_FALSE(decodeCheckPayload(p, cut, lib, got))
        << "prefix of " << cut << " bytes decoded";
}

TEST(NetWire, TruncatedResultPayloadPrefixSweep) {
  const CheckResult r = makeResult(2);
  ResultFrameStream stream(6, r);
  std::vector<std::uint8_t> frame;
  ASSERT_TRUE(stream.next(frame));
  const std::uint8_t* p = nullptr;
  std::size_t n = 0;
  const FrameHeader h = splitFrame(frame, &p, &n);
  for (std::size_t cut = 0; cut < n; ++cut) {
    ResultAssembler as;  // fresh: no stream state across attempts
    CheckResult got;
    EXPECT_EQ(as.feed(h, p, cut, got, nullptr),
              ResultAssembler::Feed::kError)
        << "prefix of " << cut << " bytes assembled";
  }
}

TEST(NetWire, EditCountBombRejected) {
  const std::vector<std::uint8_t> frame =
      encodeCheckFrame(1, "lib0", CheckRequest::drc(0));
  std::vector<std::uint8_t> payload(frame.begin() + kHeaderSize, frame.end());
  // Layout tail: ... u32 editCount, then u32 tag length (empty tag).
  ASSERT_GE(payload.size(), 8u);
  for (std::size_t i = payload.size() - 8; i < payload.size() - 4; ++i)
    payload[i] = 0xFF;
  std::string lib, err;
  CheckRequest got;
  EXPECT_FALSE(
      decodeCheckPayload(payload.data(), payload.size(), lib, got, &err));
  EXPECT_EQ(err, "bad edit count");
}

TEST(NetWire, ViolationCountBombRejected) {
  CheckResult r;  // honest envelope, hostile count
  std::vector<std::uint8_t> payload;
  appendResultEnvelope(payload, r, /*totalViolations=*/0x40000000u);
  for (int i = 0; i < 4; ++i)
    payload.push_back(i == 3 ? 0x40 : 0x00);  // u32 count = 1 << 30
  FrameHeader h;
  h.magic = kMagic;
  h.version = kVersion;
  h.type = FrameType::kResult;
  h.requestId = 1;
  h.payloadLen = static_cast<std::uint32_t>(payload.size());
  ResultAssembler as;
  CheckResult got;
  std::string err;
  EXPECT_EQ(as.feed(h, payload.data(), payload.size(), got, &err),
            ResultAssembler::Feed::kError);
  EXPECT_EQ(err, "bad violation count");
}

TEST(NetWire, InterleavedStreamsRejected) {
  const CheckResult r = makeResult(6);
  auto partFrame = [&](std::uint64_t id) {
    ResultFrameStream stream(id, r, /*chunkViolations=*/2);
    std::vector<std::uint8_t> frame;
    EXPECT_TRUE(stream.next(frame));  // first kReportPart
    return frame;
  };
  // A second stream's part while the first is open.
  {
    ResultAssembler as;
    CheckResult got;
    for (const std::uint64_t id : {1ull, 2ull}) {
      const std::vector<std::uint8_t> frame = partFrame(id);
      const std::uint8_t* p = nullptr;
      std::size_t n = 0;
      const FrameHeader h = splitFrame(frame, &p, &n);
      std::string err;
      const ResultAssembler::Feed fed = as.feed(h, p, n, got, &err);
      if (id == 1)
        EXPECT_EQ(fed, ResultAssembler::Feed::kNeedMore);
      else
        EXPECT_EQ(fed, ResultAssembler::Feed::kError);
    }
  }
  // A whole kResult while a stream is open.
  {
    ResultAssembler as;
    CheckResult got;
    const std::vector<std::uint8_t> part = partFrame(1);
    const std::uint8_t* p = nullptr;
    std::size_t n = 0;
    FrameHeader h = splitFrame(part, &p, &n);
    ASSERT_EQ(as.feed(h, p, n, got, nullptr),
              ResultAssembler::Feed::kNeedMore);
    const CheckResult whole = makeResult(1);  // must outlive the stream
    ResultFrameStream single(1, whole);
    std::vector<std::uint8_t> frame;
    ASSERT_TRUE(single.next(frame));
    h = splitFrame(frame, &p, &n);
    EXPECT_EQ(as.feed(h, p, n, got, nullptr),
              ResultAssembler::Feed::kError);
  }
}

obs::SpanRecord makeSpan(std::uint64_t traceId, int i) {
  obs::SpanRecord s;
  s.traceId = traceId;
  s.spanId = 100u + static_cast<std::uint64_t>(i);
  s.parentId = i == 0 ? 0 : 100u;
  s.startNs = 1000u * static_cast<std::uint64_t>(i + 1);
  s.durNs = 500u + static_cast<std::uint64_t>(i);
  s.tid = static_cast<std::uint32_t>(i % 3);
  const std::string name = "section" + std::to_string(i);
  std::strncpy(s.name, name.c_str(), sizeof(s.name) - 1);
  return s;
}

TEST(NetWire, TraceRequestRoundTrip) {
  const std::vector<std::uint8_t> frame =
      encodeTraceRequestFrame(11, 0xAB54A98CEB1F0AD2ull);
  const std::uint8_t* p = nullptr;
  std::size_t n = 0;
  const FrameHeader h = splitFrame(frame, &p, &n);
  EXPECT_EQ(h.type, FrameType::kTraceRequest);
  EXPECT_EQ(h.requestId, 11u);
  std::uint64_t traceId = 0;
  std::string err;
  ASSERT_TRUE(decodeTraceRequestPayload(p, n, traceId, &err)) << err;
  EXPECT_EQ(traceId, 0xAB54A98CEB1F0AD2ull);
  EXPECT_FALSE(decodeTraceRequestPayload(p, n - 1, traceId));  // truncated
  std::vector<std::uint8_t> padded(p, p + n);
  padded.push_back(0);  // trailing byte
  EXPECT_FALSE(decodeTraceRequestPayload(padded.data(), padded.size(), traceId));
}

TEST(NetWire, MetricsRequestHasEmptyPayload) {
  const std::vector<std::uint8_t> frame = encodeMetricsRequestFrame(12);
  const std::uint8_t* p = nullptr;
  std::size_t n = 0;
  const FrameHeader h = splitFrame(frame, &p, &n);
  EXPECT_EQ(h.type, FrameType::kMetricsRequest);
  EXPECT_EQ(n, 0u);
}

TEST(NetWire, TraceFrameRoundTrip) {
  const std::uint64_t traceId = 77;
  std::vector<obs::SpanRecord> spans;
  for (int i = 0; i < 5; ++i) spans.push_back(makeSpan(traceId, i));

  const std::vector<std::uint8_t> frame = encodeTraceFrame(13, traceId, spans);
  const std::uint8_t* p = nullptr;
  std::size_t n = 0;
  const FrameHeader h = splitFrame(frame, &p, &n);
  EXPECT_EQ(h.type, FrameType::kTrace);
  EXPECT_EQ(h.requestId, 13u);

  std::uint64_t gotId = 0;
  std::vector<obs::SpanRecord> got;
  std::string err;
  ASSERT_TRUE(decodeTracePayload(p, n, gotId, got, &err)) << err;
  EXPECT_EQ(gotId, traceId);
  ASSERT_EQ(got.size(), spans.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].traceId, traceId);  // re-stamped from the payload head
    EXPECT_EQ(got[i].spanId, spans[i].spanId);
    EXPECT_EQ(got[i].parentId, spans[i].parentId);
    EXPECT_EQ(got[i].startNs, spans[i].startNs);
    EXPECT_EQ(got[i].durNs, spans[i].durNs);
    EXPECT_EQ(got[i].tid, spans[i].tid);
    EXPECT_EQ(got[i].label(), spans[i].label());
  }

  for (std::size_t cut = 0; cut < n; ++cut)
    EXPECT_FALSE(decodeTracePayload(p, cut, gotId, got))
        << "prefix of " << cut << " bytes decoded";
}

TEST(NetWire, TraceSpanCountBombRejected) {
  const std::vector<std::uint8_t> frame = encodeTraceFrame(1, 7, {});
  std::vector<std::uint8_t> payload(frame.begin() + kHeaderSize, frame.end());
  // Layout: u64 traceId, then u32 span count — make the count hostile.
  ASSERT_EQ(payload.size(), 12u);
  for (std::size_t i = 8; i < 12; ++i) payload[i] = 0xFF;
  std::uint64_t traceId = 0;
  std::vector<obs::SpanRecord> spans;
  std::string err;
  EXPECT_FALSE(
      decodeTracePayload(payload.data(), payload.size(), traceId, spans, &err));
  EXPECT_FALSE(err.empty());
}

obs::MetricsSnapshot makeSnapshot() {
  obs::Registry reg;
  reg.counter("alpha.count").add(41);
  reg.gauge("beta.depth").set(-17);
  reg.histogram("gamma.latency", {0.001, 0.01, 0.1}).observe(0.005);
  reg.histogram("gamma.latency").observe(5.0);  // overflow bucket
  return reg.snapshot();
}

TEST(NetWire, MetricsFrameRoundTrip) {
  const obs::MetricsSnapshot snap = makeSnapshot();
  const std::vector<std::uint8_t> frame = encodeMetricsFrame(14, snap);
  const std::uint8_t* p = nullptr;
  std::size_t n = 0;
  const FrameHeader h = splitFrame(frame, &p, &n);
  EXPECT_EQ(h.type, FrameType::kMetrics);

  obs::MetricsSnapshot got;
  std::string err;
  ASSERT_TRUE(decodeMetricsPayload(p, n, got, &err)) << err;
  ASSERT_EQ(got.metrics.size(), 3u);
  EXPECT_EQ(got.metrics[0].name, "alpha.count");
  EXPECT_EQ(got.metrics[0].kind, obs::MetricValue::Kind::kCounter);
  EXPECT_EQ(got.metrics[0].counter, 41u);
  EXPECT_EQ(got.metrics[1].name, "beta.depth");
  EXPECT_EQ(got.metrics[1].kind, obs::MetricValue::Kind::kGauge);
  EXPECT_EQ(got.metrics[1].gauge, -17);
  EXPECT_EQ(got.metrics[2].name, "gamma.latency");
  EXPECT_EQ(got.metrics[2].kind, obs::MetricValue::Kind::kHistogram);
  ASSERT_EQ(got.metrics[2].bounds.size(), 3u);
  EXPECT_DOUBLE_EQ(got.metrics[2].bounds[1], 0.01);
  ASSERT_EQ(got.metrics[2].buckets.size(), 4u);
  EXPECT_EQ(got.metrics[2].buckets[1], 1u);  // the 0.005 observation
  EXPECT_EQ(got.metrics[2].buckets[3], 1u);  // the 5.0 overflow

  // Deterministic: encoding the same snapshot twice is byte-identical.
  EXPECT_EQ(frame, encodeMetricsFrame(14, snap));

  for (std::size_t cut = 0; cut < n; ++cut)
    EXPECT_FALSE(decodeMetricsPayload(p, cut, got))
        << "prefix of " << cut << " bytes decoded";
}

TEST(NetWire, MetricsHistogramCarriesSumInV5Layout) {
  obs::Registry reg;
  obs::Histogram& hist = reg.histogram("lat", {0.5, 1.5});
  hist.observe(0.25);
  hist.observe(1.0);
  hist.observe(4.0);  // overflow
  const obs::MetricsSnapshot snap = reg.snapshot();
  const std::vector<std::uint8_t> frame = encodeMetricsFrame(3, snap);
  const std::uint8_t* p = nullptr;
  std::size_t n = 0;
  splitFrame(frame, &p, &n);
  // u32 metric count; name "lat" (u32 + 3), kind u8, u32 bound count,
  // two f64 bounds, three u64 buckets, one f64 sum.
  EXPECT_EQ(n, 4u + (4 + 3) + 1 + 4 + 2 * 8 + 3 * 8 + 8);

  obs::MetricsSnapshot got;
  std::string err;
  ASSERT_TRUE(decodeMetricsPayload(p, n, got, &err)) << err;
  ASSERT_EQ(got.metrics.size(), 1u);
  EXPECT_EQ(got.metrics[0].kind, obs::MetricValue::Kind::kHistogram);
  EXPECT_EQ(got.metrics[0].sum, 5.25);  // exact in binary
  EXPECT_EQ(got.metrics[0].buckets,
            (std::vector<std::uint64_t>{1, 1, 1}));
  EXPECT_EQ(obs::quantile(got.metrics[0], 0.5), 1.5);
  EXPECT_EQ(obs::quantile(got.metrics[0], 1.0), 1.5);  // overflow saturates

  // Every strict prefix of a histogram-bearing payload is rejected.
  for (std::size_t cut = 0; cut < n; ++cut)
    EXPECT_FALSE(decodeMetricsPayload(p, cut, got))
        << "prefix of " << cut << " bytes decoded";
}

TEST(NetWire, MetricsRejectsUnknownKindAndCountBombs) {
  const obs::MetricsSnapshot snap = makeSnapshot();
  const std::vector<std::uint8_t> frame = encodeMetricsFrame(1, snap);
  const std::vector<std::uint8_t> payload(frame.begin() + kHeaderSize,
                                          frame.end());
  obs::MetricsSnapshot got;
  std::string err;

  // Metric count bomb (leading u32).
  std::vector<std::uint8_t> bomb = payload;
  for (std::size_t i = 0; i < 4; ++i) bomb[i] = 0xFF;
  EXPECT_FALSE(decodeMetricsPayload(bomb.data(), bomb.size(), got, &err));

  // Unknown kind tag: the first metric's kind byte follows the u32
  // count, the u32 name length, and the name bytes.
  std::vector<std::uint8_t> badKind = payload;
  const std::size_t kindOff = 4 + 4 + std::strlen("alpha.count");
  badKind[kindOff] = 9;
  EXPECT_FALSE(decodeMetricsPayload(badKind.data(), badKind.size(), got, &err));

  // Trailing garbage after a well-formed snapshot.
  std::vector<std::uint8_t> padded = payload;
  padded.push_back(0);
  EXPECT_FALSE(decodeMetricsPayload(padded.data(), padded.size(), got, &err));

  // Histogram bound-count bomb: the last metric ("gamma.latency") is the
  // histogram, and its u32 bound count sits 3 f64 bounds, 4 u64 buckets
  // and the f64 sum before the end. One more bound than the remaining
  // bytes can hold must be rejected before any allocation.
  std::vector<std::uint8_t> boundBomb = payload;
  const std::size_t boundOff = payload.size() - (3 * 8 + 4 * 8 + 8) - 4;
  ASSERT_EQ(boundBomb[boundOff], 3u);
  boundBomb[boundOff] = 4;
  EXPECT_FALSE(
      decodeMetricsPayload(boundBomb.data(), boundBomb.size(), got, &err));
  EXPECT_EQ(err, "bad histogram bound count");

  // Names out of order (or repeated): lookups binary-search by name.
  obs::MetricsSnapshot unsorted = snap;
  std::swap(unsorted.metrics[0], unsorted.metrics[1]);
  const std::vector<std::uint8_t> bad = encodeMetricsFrame(1, unsorted);
  EXPECT_FALSE(decodeMetricsPayload(bad.data() + kHeaderSize,
                                    bad.size() - kHeaderSize, got, &err));
  EXPECT_EQ(err, "metrics not strictly name-sorted");
}

TEST(NetWire, ReportEndWithoutStreamRejected) {
  const CheckResult r = makeResult(0);
  std::vector<std::uint8_t> payload;
  appendResultEnvelope(payload, r, 0);
  FrameHeader h;
  h.magic = kMagic;
  h.version = kVersion;
  h.type = FrameType::kReportEnd;
  h.requestId = 9;
  h.payloadLen = static_cast<std::uint32_t>(payload.size());
  ResultAssembler as;
  CheckResult got;
  std::string err;
  EXPECT_EQ(as.feed(h, payload.data(), payload.size(), got, &err),
            ResultAssembler::Feed::kError);
  EXPECT_EQ(err, "report end without open stream");
}

}  // namespace
