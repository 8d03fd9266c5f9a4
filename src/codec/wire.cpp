#include "codec/wire.h"

#include <cstring>

#include "common/bytes.h"

namespace waran::codec::wire {

namespace {

// Fixed-width little-endian stores (the host is little endian, as
// ByteWriter assumes too).
template <class T>
void store(uint8_t* at, T v) {
  std::memcpy(at, &v, sizeof v);
}

}  // namespace

std::vector<uint8_t> encode_request(const SchedRequest& req) {
  const uint32_t n = static_cast<uint32_t>(req.ues.size());
  // One allocation of the exact size; value-initialized, so the record
  // padding (keeps f64 fields 8-aligned in plugin memory) is already 0.
  std::vector<uint8_t> out(kReqHeaderSize + static_cast<size_t>(kUeRecordSize) * n);
  uint8_t* p = out.data();
  store(p + 0, req.slot);
  store(p + 4, req.prb_quota);
  store(p + 8, n);
  p += kReqHeaderSize;
  for (const UeInfo& ue : req.ues) {
    store(p + kUeRnti, ue.rnti);
    store(p + kUeCqi, ue.cqi);
    store(p + kUeMcs, ue.mcs);
    store(p + kUeBufferBytes, ue.buffer_bytes);
    store(p + kUeTbsPerPrb, ue.tbs_per_prb);
    store(p + kUeAvgTput, ue.avg_tput_bps);
    store(p + kUeAchievable, ue.achievable_bps);
    p += kUeRecordSize;
  }
  return out;
}

Result<SchedRequest> decode_request(std::span<const uint8_t> bytes) {
  ByteReader r(bytes);
  SchedRequest req;
  WARAN_TRY(slot, r.u32le());
  WARAN_TRY(quota, r.u32le());
  WARAN_TRY(n, r.u32le());
  req.slot = slot;
  req.prb_quota = quota;
  if (static_cast<uint64_t>(n) * kUeRecordSize > r.remaining()) {
    return Error::decode("wire request: UE count exceeds payload");
  }
  req.ues.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    UeInfo ue;
    WARAN_TRY(rnti, r.u32le());
    WARAN_TRY(cqi, r.u32le());
    WARAN_TRY(mcs, r.u32le());
    WARAN_TRY(buf, r.u32le());
    WARAN_TRY(tbs, r.u32le());
    WARAN_CHECK_OK(r.skip(4));  // padding
    WARAN_TRY(avg, r.f64le());
    WARAN_TRY(ach, r.f64le());
    ue.rnti = rnti;
    ue.cqi = cqi;
    ue.mcs = mcs;
    ue.buffer_bytes = buf;
    ue.tbs_per_prb = tbs;
    ue.avg_tput_bps = avg;
    ue.achievable_bps = ach;
    req.ues.push_back(ue);
  }
  if (!r.at_end()) return Error::decode("wire request: trailing bytes");
  return req;
}

std::vector<uint8_t> encode_response(const SchedResponse& resp) {
  ByteWriter w;
  w.u32le(static_cast<uint32_t>(resp.allocs.size()));
  for (const SchedAlloc& a : resp.allocs) {
    w.u32le(a.rnti);
    w.u32le(a.prbs);
  }
  return w.take();
}

Result<SchedResponse> decode_response(std::span<const uint8_t> bytes) {
  ByteReader r(bytes);
  SchedResponse resp;
  WARAN_TRY(n, r.u32le());
  if (static_cast<uint64_t>(n) * kAllocRecordSize > r.remaining()) {
    return Error::decode("wire response: alloc count exceeds payload");
  }
  resp.allocs.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    WARAN_TRY(rnti, r.u32le());
    WARAN_TRY(prbs, r.u32le());
    resp.allocs.push_back({rnti, prbs});
  }
  // Trailing bytes are tolerated: the plugin output window may be larger
  // than the payload it wrote.
  return resp;
}

}  // namespace waran::codec::wire
