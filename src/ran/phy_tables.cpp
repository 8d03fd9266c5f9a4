#include "ran/phy_tables.h"

#include <algorithm>
#include <array>
#include <cmath>

namespace waran::ran {
namespace {

// 38.214 Table 5.2.2.1-2 (CQI table 1, up to 64QAM): efficiency in
// bits/RE for CQI 1..15; CQI 0 = out of range.
constexpr double kCqiEff64[16] = {
    0.0,     0.1523, 0.2344, 0.3770, 0.6016, 0.8770, 1.1758, 1.4766,
    1.9141,  2.4063, 2.7305, 3.3223, 3.9023, 4.5234, 5.1152, 5.5547};

// 38.214 Table 5.2.2.1-4 (CQI table 2, up to 256QAM).
constexpr double kCqiEff256[16] = {
    0.0,    0.1523, 0.3770, 0.8770, 1.4766, 1.9141, 2.4063, 2.7305,
    3.3223, 3.9023, 4.5234, 5.1152, 5.5547, 6.2266, 6.9141, 7.4063};

// 38.214 Table 5.1.3.1-1 (MCS table 1): {modulation order Qm, code rate
// R x 1024} for MCS 0..28.
struct McsRow {
  uint32_t qm;
  double rate_x1024;
};
constexpr McsRow kMcs64[29] = {
    {2, 120},  {2, 157},  {2, 193},  {2, 251},  {2, 308},  {2, 379},
    {2, 449},  {2, 526},  {2, 602},  {2, 679},  {4, 340},  {4, 378},
    {4, 434},  {4, 490},  {4, 553},  {4, 616},  {4, 658},  {6, 438},
    {6, 466},  {6, 517},  {6, 567},  {6, 616},  {6, 666},  {6, 719},
    {6, 772},  {6, 822},  {6, 873},  {6, 910},  {6, 948}};

// 38.214 Table 5.1.3.1-2 (MCS table 2, 256QAM): MCS 0..27.
constexpr McsRow kMcs256[28] = {
    {2, 120},  {2, 193},  {2, 308},  {2, 449},  {2, 602},  {4, 378},
    {4, 434},  {4, 490},  {4, 553},  {4, 616},  {4, 658},  {6, 466},
    {6, 517},  {6, 567},  {6, 616},  {6, 666},  {6, 719},  {6, 772},
    {6, 822},  {6, 873},  {8, 682.5},{8, 711},  {8, 754},  {8, 797},
    {8, 841},  {8, 885},  {8, 916.5},{8, 948}};

const McsRow& mcs_row(uint32_t mcs, McsTable table) {
  if (table == McsTable::kQam256) return kMcs256[std::min(mcs, max_mcs(table))];
  return kMcs64[std::min(mcs, max_mcs(table))];
}

}  // namespace

uint32_t max_mcs(McsTable table) { return table == McsTable::kQam256 ? 27 : 28; }

double cqi_spectral_efficiency(uint32_t cqi, McsTable table) {
  uint32_t c = std::min(cqi, kMaxCqi);
  return table == McsTable::kQam256 ? kCqiEff256[c] : kCqiEff64[c];
}

double mcs_spectral_efficiency(uint32_t mcs, McsTable table) {
  const McsRow& row = mcs_row(mcs, table);
  return row.qm * row.rate_x1024 / 1024.0;
}

uint32_t mcs_modulation_order(uint32_t mcs, McsTable table) {
  return mcs_row(mcs, table).qm;
}

namespace {

uint32_t scan_mcs_for_cqi(uint32_t cqi, McsTable table) {
  double target = cqi_spectral_efficiency(cqi, table);
  if (target <= 0.0) return 0;
  // Most efficient MCS not exceeding the CQI's efficiency. The MCS tables
  // are not strictly monotone at modulation switches, so select by
  // efficiency, not index. Very low CQI falls back to MCS 0.
  uint32_t best = 0;
  double best_se = 0.0;
  for (uint32_t m = 0; m <= max_mcs(table); ++m) {
    double se = mcs_spectral_efficiency(m, table);
    if (se <= target + 1e-9 && se > best_se) {
      best = m;
      best_se = se;
    }
  }
  return best;
}

}  // namespace

uint32_t mcs_from_cqi(uint32_t cqi, McsTable table) {
  // Link adaptation runs per UE per slot: scan once per (table, CQI).
  static const auto kTable = [] {
    std::array<std::array<uint8_t, kMaxCqi + 1>, 2> t{};
    for (uint32_t c = 0; c <= kMaxCqi; ++c) {
      t[0][c] = static_cast<uint8_t>(scan_mcs_for_cqi(c, McsTable::kQam64));
      t[1][c] = static_cast<uint8_t>(scan_mcs_for_cqi(c, McsTable::kQam256));
    }
    return t;
  }();
  return kTable[static_cast<uint8_t>(table)][std::min(cqi, kMaxCqi)];
}

uint32_t cqi_from_mcs(uint32_t mcs, McsTable table) {
  double need = mcs_spectral_efficiency(mcs, table);
  for (uint32_t c = 1; c <= kMaxCqi; ++c) {
    if (cqi_spectral_efficiency(c, table) >= need - 1e-9) return c;
  }
  return kMaxCqi;
}

uint32_t transport_block_bits(uint32_t mcs, uint32_t n_prb, McsTable table) {
  if (n_prb == 0) return 0;
  return static_cast<uint32_t>(
      std::floor(mcs_spectral_efficiency(mcs, table) * kDataResPerPrb * n_prb));
}

uint32_t cqi_from_snr_db(double snr_db) {
  // Linear ramp: CQI 1 at -6 dB, CQI 15 at 22 dB (2 dB per CQI step).
  if (snr_db < -6.0) return 0;
  double cqi = 1.0 + (snr_db + 6.0) / 2.0;
  return std::min<uint32_t>(kMaxCqi, static_cast<uint32_t>(cqi));
}

}  // namespace waran::ran
