// Near-RT RIC tests: E2-lite codecs, the framing communication plugin and
// its sanitization of corrupt frames, xApp decision logic (SLA + traffic
// steering), inter-xApp messaging, the vendor interop shim, and the full
// closed loop gNB -> RIC -> gNB.
#include <gtest/gtest.h>

#include "plugin/plugin.h"
#include "ric/e2lite.h"
#include "ric/gnb_agent.h"
#include "ric/near_rt_ric.h"
#include "ric/plugin_sources.h"
#include "ric/quota_inter.h"
#include "ric/transport.h"
#include "sched/native.h"
#include "wcc/compiler.h"

namespace waran::ric {
namespace {

IndicationReport sample_report() {
  IndicationReport r;
  r.slices.push_back({1, 10, 12e6, 8e6});
  r.slices.push_back({2, 20, 15e6, 15.1e6});
  r.ues.push_back({0x4601, 0, -80, -95, 12, 1});
  r.ues.push_back({0x4602, 0, -100, -70, 7, 1});
  return r;
}

TEST(E2Lite, IndicationRoundTrip) {
  IndicationReport r = sample_report();
  auto bytes = encode_indication(r);
  auto back = decode_indication(bytes);
  ASSERT_TRUE(back.ok()) << back.error().message;
  EXPECT_EQ(*back, r);
}

TEST(E2Lite, ControlRoundTrip) {
  std::vector<ControlAction> actions = {
      {ActionType::kSetSliceQuota, 1, 20},
      {ActionType::kHandover, 0x4601, 1},
      {ActionType::kSetCqiTable, 2, 0},
  };
  auto bytes = encode_control(actions);
  auto back = decode_control(bytes);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, actions);
}

TEST(E2Lite, RejectsTruncationAndBadCounts) {
  auto bytes = encode_indication(sample_report());
  bytes.resize(bytes.size() - 1);
  EXPECT_FALSE(decode_indication(bytes).ok());

  std::vector<uint8_t> huge = {1, 0, 0, 0, 0xff, 0xff, 0xff, 0x7f};
  EXPECT_FALSE(decode_indication(huge).ok());

  std::vector<ControlAction> bad = {{static_cast<ActionType>(9), 0, 0}};
  EXPECT_FALSE(decode_control(encode_control(bad)).ok());
}

// --- Communication plugin. ---

class CommPluginTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto bytes = plugin_sources::comm_framing();
    ASSERT_TRUE(bytes.ok()) << bytes.error().message;
    auto p = plugin::Plugin::load(*bytes);
    ASSERT_TRUE(p.ok()) << p.error().message;
    plugin_ = std::move(*p);
  }
  std::unique_ptr<plugin::Plugin> plugin_;
};

TEST_F(CommPluginTest, FrameUnframeRoundTrip) {
  std::vector<uint8_t> payload = {1, 2, 3, 200, 255};
  auto framed = plugin_->call("frame", payload);
  ASSERT_TRUE(framed.ok());
  EXPECT_EQ(framed->size(), payload.size() + 12);
  // On-wire magic is little-endian 0xE2A0B1C2.
  uint32_t magic;
  memcpy(&magic, framed->data(), 4);
  EXPECT_EQ(magic, plugin_sources::kFrameMagic);

  auto unframed = plugin_->call("unframe", *framed);
  ASSERT_TRUE(unframed.ok()) << unframed.error().message;
  EXPECT_EQ(*unframed, payload);
}

TEST_F(CommPluginTest, EmptyPayloadFrames) {
  auto framed = plugin_->call("frame", {});
  ASSERT_TRUE(framed.ok());
  auto unframed = plugin_->call("unframe", *framed);
  ASSERT_TRUE(unframed.ok());
  EXPECT_TRUE(unframed->empty());
}

TEST_F(CommPluginTest, CorruptedChecksumRejectedInSandbox) {
  std::vector<uint8_t> payload = {9, 9, 9, 9};
  auto framed = plugin_->call("frame", payload);
  ASSERT_TRUE(framed.ok());
  (*framed)[9] ^= 0x40;  // flip a payload bit, checksum now stale
  auto unframed = plugin_->call("unframe", *framed);
  EXPECT_FALSE(unframed.ok());
}

TEST_F(CommPluginTest, BadMagicRejected) {
  std::vector<uint8_t> payload = {1};
  auto framed = plugin_->call("frame", payload);
  ASSERT_TRUE(framed.ok());
  (*framed)[0] ^= 0xff;
  EXPECT_FALSE(plugin_->call("unframe", *framed).ok());
}

TEST_F(CommPluginTest, ShortFrameRejected) {
  std::vector<uint8_t> tiny = {1, 2, 3};
  EXPECT_FALSE(plugin_->call("unframe", tiny).ok());
}

TEST_F(CommPluginTest, LengthMismatchRejected) {
  std::vector<uint8_t> payload = {5, 5};
  auto framed = plugin_->call("frame", payload);
  ASSERT_TRUE(framed.ok());
  framed->push_back(0);  // trailing junk: total no longer matches header len
  EXPECT_FALSE(plugin_->call("unframe", *framed).ok());
}

// --- Vendor interop shim. ---

TEST(VendorShim, Widens8BitCqiTo12Bit) {
  auto bytes = plugin_sources::vendor_widen();
  ASSERT_TRUE(bytes.ok()) << bytes.error().message;
  auto p = plugin::Plugin::load(*bytes);
  ASSERT_TRUE(p.ok());

  // Vendor A: u32 n, then 3-byte records {u16 rnti, u8 cqi}.
  std::vector<uint8_t> input = {2, 0, 0, 0,
                                0x01, 0x46, 200,
                                0x02, 0x46, 15};
  auto out = (*p)->call("widen", input);
  ASSERT_TRUE(out.ok()) << out.error().message;
  ASSERT_EQ(out->size(), 4u + 2 * 8);
  uint32_t n, rnti0, cqi0, rnti1, cqi1;
  memcpy(&n, out->data(), 4);
  memcpy(&rnti0, out->data() + 4, 4);
  memcpy(&cqi0, out->data() + 8, 4);
  memcpy(&rnti1, out->data() + 12, 4);
  memcpy(&cqi1, out->data() + 16, 4);
  EXPECT_EQ(n, 2u);
  EXPECT_EQ(rnti0, 0x4601u);
  EXPECT_EQ(cqi0, 200u * 16);  // 8-bit value on the 12-bit scale
  EXPECT_EQ(rnti1, 0x4602u);
  EXPECT_EQ(cqi1, 15u * 16);
}

TEST(VendorShim, RejectsTruncatedVendorPayload) {
  auto bytes = plugin_sources::vendor_widen();
  ASSERT_TRUE(bytes.ok());
  auto p = plugin::Plugin::load(*bytes);
  ASSERT_TRUE(p.ok());
  std::vector<uint8_t> input = {5, 0, 0, 0, 1, 2};  // claims 5 records
  EXPECT_FALSE((*p)->call("widen", input).ok());
}

// --- xApps in isolation. ---

std::vector<ControlAction> run_xapp(std::span<const uint8_t> module_bytes,
                                    const IndicationReport& report) {
  auto p = plugin::Plugin::load(module_bytes);
  EXPECT_TRUE(p.ok());
  auto out = (*p)->call("on_indication", encode_indication(report));
  EXPECT_TRUE(out.ok()) << (out.ok() ? "" : out.error().message);
  if (!out.ok()) return {};
  auto actions = decode_control(*out);
  EXPECT_TRUE(actions.ok());
  return actions.ok() ? *actions : std::vector<ControlAction>{};
}

TEST(SlaXapp, RaisesQuotaWhenUnderTarget) {
  auto bytes = plugin_sources::sla_xapp();
  ASSERT_TRUE(bytes.ok()) << bytes.error().message;
  IndicationReport r;
  r.slices.push_back({7, 10, 12e6, 6e6});  // far below target
  auto actions = run_xapp(*bytes, r);
  ASSERT_EQ(actions.size(), 1u);
  EXPECT_EQ(actions[0].type, ActionType::kSetSliceQuota);
  EXPECT_EQ(actions[0].a, 7u);
  EXPECT_EQ(actions[0].b, 11u);  // +1
}

TEST(SlaXapp, TrimsQuotaWhenOverTarget) {
  auto bytes = plugin_sources::sla_xapp();
  ASSERT_TRUE(bytes.ok());
  IndicationReport r;
  r.slices.push_back({7, 10, 12e6, 14e6});
  auto actions = run_xapp(*bytes, r);
  ASSERT_EQ(actions.size(), 1u);
  EXPECT_EQ(actions[0].b, 9u);  // -1
}

TEST(SlaXapp, SilentWhenOnTargetAndCapsAtCarrier) {
  auto bytes = plugin_sources::sla_xapp();
  ASSERT_TRUE(bytes.ok());
  IndicationReport r;
  r.slices.push_back({1, 10, 12e6, 12e6});   // on target: no action
  r.slices.push_back({2, 52, 40e6, 10e6});   // already at the cap: no-op
  auto actions = run_xapp(*bytes, r);
  EXPECT_TRUE(actions.empty());
}

TEST(SteerXapp, HandsOverOnHysteresisExceeded) {
  auto bytes = plugin_sources::steer_xapp();
  ASSERT_TRUE(bytes.ok()) << bytes.error().message;
  IndicationReport r;
  r.slices.push_back({1, 10, 0, 0});
  r.ues.push_back({0x4601, 0, -80, -75, 10, 1});   // neighbor +5 dB: handover
  r.ues.push_back({0x4602, 0, -80, -78, 10, 1});   // +2 dB: inside hysteresis
  r.ues.push_back({0x4603, 0, -80, -90, 10, 1});   // weaker: stay
  auto actions = run_xapp(*bytes, r);
  ASSERT_EQ(actions.size(), 1u);
  EXPECT_EQ(actions[0].type, ActionType::kHandover);
  EXPECT_EQ(actions[0].a, 0x4601u);
  EXPECT_EQ(actions[0].b, 1u);
}

// --- Full closed loop. ---

class ClosedLoop : public ::testing::Test {
 protected:
  void SetUp() override {
    mac_ = std::make_unique<ran::GnbMac>(ran::MacConfig{});
    auto quotas = std::make_unique<QuotaTableInterScheduler>();
    quotas_ = quotas.get();
    mac_->set_inter_scheduler(std::move(quotas));

    ran::SliceConfig cfg;
    cfg.slice_id = 1;
    cfg.target_rate_bps = 12e6;
    mac_->add_slice(cfg, std::make_unique<sched::RrScheduler>());
    rnti_ = mac_->add_ue(1, ran::Channel::pinned_mcs(28),
                         ran::TrafficSource::full_buffer());

    agent_ = std::make_unique<GnbAgent>(0, *mac_, quotas_, link_, Duplex::Side::kA);
    ric_ = std::make_unique<NearRtRic>(link_, Duplex::Side::kB);

    auto comm = plugin_sources::comm_framing();
    ASSERT_TRUE(comm.ok());
    ASSERT_TRUE(agent_->load_comm_plugin(*comm).ok());
    ASSERT_TRUE(ric_->load_comm_plugin(*comm).ok());
    auto ctl = plugin_sources::control_dispatch();
    ASSERT_TRUE(ctl.ok());
    ASSERT_TRUE(agent_->load_control_plugin(*ctl).ok());
  }

  Duplex link_;
  std::unique_ptr<ran::GnbMac> mac_;
  QuotaTableInterScheduler* quotas_ = nullptr;
  uint32_t rnti_ = 0;
  std::unique_ptr<GnbAgent> agent_;
  std::unique_ptr<NearRtRic> ric_;
};

TEST_F(ClosedLoop, SlaXappConvergesSliceTowardTarget) {
  auto sla = plugin_sources::sla_xapp();
  ASSERT_TRUE(sla.ok());
  ASSERT_TRUE(ric_->add_xapp("sla", *sla).ok());

  // Start the slice with a starvation quota.
  quotas_->set_quota(1, 2);
  for (int round = 0; round < 100; ++round) {
    ASSERT_TRUE(mac_->run_slots(100).ok());      // 100 ms
    ASSERT_TRUE(agent_->send_indication().ok());
    ASSERT_TRUE(ric_->poll().ok());
    ASSERT_TRUE(agent_->poll().ok());
  }
  double rate = mac_->slice_rate_bps(1);
  EXPECT_GT(rate, 10e6);
  EXPECT_LT(rate, 15e6);
  EXPECT_GT(agent_->stats().quota_updates, 0u);
  EXPECT_EQ(agent_->stats().frames_rejected, 0u);
  EXPECT_EQ(ric_->stats().frames_rejected, 0u);
}

TEST_F(ClosedLoop, SteeringTriggersHandoverCallback)  {
  auto steer = plugin_sources::steer_xapp();
  ASSERT_TRUE(steer.ok());
  ASSERT_TRUE(ric_->add_xapp("steer", *steer).ok());

  uint32_t handed_over_rnti = 0, target = 99;
  agent_->set_handover_handler([&](uint32_t rnti, uint32_t cell) {
    handed_over_rnti = rnti;
    target = cell;
  });
  agent_->set_ue_radio(rnti_, {-85, -70, 1});

  ASSERT_TRUE(mac_->run_slots(10).ok());
  ASSERT_TRUE(agent_->send_indication().ok());
  ASSERT_TRUE(ric_->poll().ok());
  ASSERT_TRUE(agent_->poll().ok());

  EXPECT_EQ(handed_over_rnti, rnti_);
  EXPECT_EQ(target, 1u);
  EXPECT_EQ(agent_->stats().handovers, 1u);
}

TEST_F(ClosedLoop, CorruptedFramesAreSanitizedNotParsed) {
  auto sla = plugin_sources::sla_xapp();
  ASSERT_TRUE(sla.ok());
  ASSERT_TRUE(ric_->add_xapp("sla", *sla).ok());

  // Corrupt every frame on the wire.
  link_.add_fault_stage([](std::vector<uint8_t>& frame, Duplex::Side) {
    if (frame.size() > 10) frame[10] ^= 0xff;
    return Duplex::Fault{Duplex::FaultAction::kCorrupt};
  });
  ASSERT_TRUE(mac_->run_slots(10).ok());
  ASSERT_TRUE(agent_->send_indication().ok());
  ASSERT_TRUE(ric_->poll().ok());
  EXPECT_EQ(ric_->stats().indications_processed, 0u);
  EXPECT_EQ(ric_->stats().frames_rejected, 1u);
  // Corrupted-but-delivered frames are visible in the link accounting, not
  // just as the receiver's rejection.
  EXPECT_EQ(link_.frames_corrupted(), 1u);
  EXPECT_EQ(link_.frames_delivered(), 1u);
  EXPECT_EQ(link_.frames_reordered(), 0u);
}

TEST_F(ClosedLoop, ReorderedFramesAreCountedAndStillProcessed) {
  auto sla = plugin_sources::sla_xapp();
  ASSERT_TRUE(sla.ok());
  ASSERT_TRUE(ric_->add_xapp("sla", *sla).ok());

  // Hold the first indication back until two later sends pass it.
  bool first = true;
  link_.add_fault_stage([&first](std::vector<uint8_t>&, Duplex::Side) {
    if (first) {
      first = false;
      return Duplex::Fault{Duplex::FaultAction::kReorder, 2};
    }
    return Duplex::Fault{};
  });
  quotas_->set_quota(1, 2);
  ASSERT_TRUE(mac_->run_slots(30).ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(agent_->send_indication().ok());
  }
  ASSERT_TRUE(ric_->poll().ok());
  EXPECT_EQ(link_.frames_reordered(), 1u);
  EXPECT_EQ(link_.delayed_in_flight(), 0u);  // released after 2 later sends
  // All three indications (in permuted order) are intact and parse.
  EXPECT_EQ(ric_->stats().indications_processed, 3u);
  EXPECT_EQ(ric_->stats().frames_rejected, 0u);
  EXPECT_EQ(link_.frames_delivered(), link_.frames_sent());
}

TEST_F(ClosedLoop, DuplicatedAndDroppedFramesBalanceLinkAccounting) {
  auto sla = plugin_sources::sla_xapp();
  ASSERT_TRUE(sla.ok());
  ASSERT_TRUE(ric_->add_xapp("sla", *sla).ok());

  // Duplicate the first frame, drop the second, deliver the rest.
  uint32_t n = 0;
  link_.add_fault_stage([&n](std::vector<uint8_t>&, Duplex::Side) {
    ++n;
    if (n == 1) return Duplex::Fault{Duplex::FaultAction::kDuplicate};
    if (n == 2) return Duplex::Fault{Duplex::FaultAction::kDrop};
    return Duplex::Fault{};
  });
  ASSERT_TRUE(mac_->run_slots(10).ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(agent_->send_indication().ok());
  }
  ASSERT_TRUE(ric_->poll().ok());
  EXPECT_EQ(link_.frames_sent(), 4u);
  EXPECT_EQ(link_.frames_duplicated(), 1u);
  EXPECT_EQ(link_.frames_dropped(), 1u);
  // Conservation: sent + duplicated == delivered + dropped (+ held).
  EXPECT_EQ(link_.frames_sent() + link_.frames_duplicated(),
            link_.frames_delivered() + link_.frames_dropped());
  // The duplicate is a well-formed frame: it parses as a second indication.
  EXPECT_EQ(ric_->stats().indications_processed, 4u);
}

TEST_F(ClosedLoop, FaultyXappIsContainedOthersKeepWorking) {
  // First xApp traps on every indication; the SLA xApp still runs.
  auto bad = wcc::compile("export fn on_indication() -> i32 { trap(); return 0; }");
  ASSERT_TRUE(bad.ok());
  ASSERT_TRUE(ric_->add_xapp("bad", *bad).ok());
  auto sla = plugin_sources::sla_xapp();
  ASSERT_TRUE(sla.ok());
  ASSERT_TRUE(ric_->add_xapp("sla", *sla).ok());

  quotas_->set_quota(1, 2);
  ASSERT_TRUE(mac_->run_slots(200).ok());
  ASSERT_TRUE(agent_->send_indication().ok());
  ASSERT_TRUE(ric_->poll().ok());
  ASSERT_TRUE(agent_->poll().ok());

  EXPECT_GT(ric_->stats().xapp_faults, 0u);
  EXPECT_GT(agent_->stats().quota_updates, 0u);  // SLA actions still landed
}

TEST_F(ClosedLoop, FuelStatsEqualSlotCostsWhenCallsNeverEnterTheSandbox) {
  // A quarantined slot and an injected failure both return before the
  // sandbox is entered: the crossing costs no fuel, so the agent's and the
  // RIC's fuel figures must stay the sums of their slots' cost records.
  auto sla = plugin_sources::sla_xapp();
  ASSERT_TRUE(sla.ok());
  ASSERT_TRUE(ric_->add_xapp("sla", *sla).ok());
  auto round = [&] {
    ASSERT_TRUE(mac_->run_slots(100).ok());
    ASSERT_TRUE(agent_->send_indication().ok());
    ASSERT_TRUE(ric_->poll().ok());
    ASSERT_TRUE(agent_->poll().ok());
  };
  quotas_->set_quota(1, 2);
  round();  // every slot has run once for real
  ASSERT_GT(agent_->stats().quota_updates, 0u);

  // ctl always fails (and is quarantined after three faults); the xApp
  // fails every other indication.
  agent_->plugins().set_call_interceptor([](const std::string& slot, const std::string&) {
    plugin::PluginManager::CallIntercept i;
    if (slot == "ctl") i.fail = Error::trap("injected");
    return i;
  });
  uint32_t xapp_calls = 0;
  ric_->plugins().set_call_interceptor(
      [&xapp_calls](const std::string& slot, const std::string&) {
        plugin::PluginManager::CallIntercept i;
        if (slot == "xapp:sla" && xapp_calls++ % 2 == 0) i.fail = Error::trap("injected");
        return i;
      });
  for (int r = 0; r < 8; ++r) round();
  EXPECT_TRUE(agent_->plugins().health("ctl")->quarantined);
  EXPECT_GT(ric_->plugins().health("xapp:sla")->faults, 0u);

  const auto fuel = [](const plugin::PluginManager& m, const char* slot) {
    return m.cost(slot)->total_fuel();
  };
  EXPECT_EQ(agent_->stats().plugin_fuel_used,
            fuel(agent_->plugins(), "comm") + fuel(agent_->plugins(), "ctl"));
  EXPECT_EQ(ric_->stats().xapp_fuel_used, fuel(ric_->plugins(), "xapp:sla"));
}

TEST_F(ClosedLoop, XappHotSwapChangesPolicyLive) {
  auto sla = plugin_sources::sla_xapp();
  ASSERT_TRUE(sla.ok());
  ASSERT_TRUE(ric_->add_xapp("sla", *sla).ok());

  // Swap the SLA xApp for a no-op variant mid-flight.
  auto noop = wcc::compile(R"(
    export fn on_indication() -> i32 {
      store32(0, 2); store32(4, 0);
      output_write(0, 8);
      return 0;
    }
  )");
  ASSERT_TRUE(noop.ok());

  quotas_->set_quota(1, 2);
  ASSERT_TRUE(mac_->run_slots(200).ok());
  ASSERT_TRUE(agent_->send_indication().ok());
  ASSERT_TRUE(ric_->poll().ok());
  uint64_t actions_before = ric_->stats().actions_sent;
  EXPECT_GT(actions_before, 0u);

  ASSERT_TRUE(ric_->plugins().swap("xapp:sla", *noop).ok());
  ASSERT_TRUE(mac_->run_slots(200).ok());
  ASSERT_TRUE(agent_->send_indication().ok());
  ASSERT_TRUE(ric_->poll().ok());
  EXPECT_EQ(ric_->stats().actions_sent, actions_before);  // no new actions
}

TEST_F(ClosedLoop, InterXappMessagingDelivers) {
  auto counter = plugin_sources::counter_xapp();
  ASSERT_TRUE(counter.ok()) << counter.error().message;
  // xApp 0 receives; xApp 1 sends to index 0 on every indication.
  ASSERT_TRUE(ric_->add_xapp("receiver", *counter).ok());
  ASSERT_TRUE(ric_->add_xapp("sender", *counter).ok());

  ASSERT_TRUE(mac_->run_slots(5).ok());
  ASSERT_TRUE(agent_->send_indication().ok());
  ASSERT_TRUE(ric_->poll().ok());
  // Both xApps sent a 1-byte note to index 0; receiver got 2 messages.
  EXPECT_EQ(ric_->stats().messages_delivered, 2u);
}

}  // namespace
}  // namespace waran::ric

// Appended: the feature-upgrade story — a new control action (type 4,
// set_report_period) rolled out purely by hot-swapping the control plugin.
namespace waran::ric {
namespace {

class FeatureUpgrade : public ::testing::Test {
 protected:
  void SetUp() override {
    mac_ = std::make_unique<ran::GnbMac>(ran::MacConfig{});
    mac_->set_inter_scheduler(std::make_unique<sched::WeightedShareInterScheduler>());
    ran::SliceConfig cfg;
    cfg.slice_id = 1;
    mac_->add_slice(cfg, std::make_unique<sched::RrScheduler>());
    agent_ = std::make_unique<GnbAgent>(0, *mac_, nullptr, link_, Duplex::Side::kA);
    auto comm = plugin_sources::comm_framing();
    ASSERT_TRUE(comm.ok());
    ASSERT_TRUE(agent_->load_comm_plugin(*comm).ok());
    // A standalone framing plugin to forge RIC-side frames in the test.
    auto framer = plugin::Plugin::load(*comm);
    ASSERT_TRUE(framer.ok());
    framer_ = std::move(*framer);
  }

  void send_control(const std::vector<ControlAction>& actions) {
    auto frame = framer_->call("frame", encode_control(actions));
    ASSERT_TRUE(frame.ok());
    link_.send(Duplex::Side::kB, *frame);
  }

  Duplex link_;
  std::unique_ptr<ran::GnbMac> mac_;
  std::unique_ptr<GnbAgent> agent_;
  std::unique_ptr<plugin::Plugin> framer_;
};

TEST_F(FeatureUpgrade, V1SkipsUnknownActionV2AppliesIt) {
  auto v1 = plugin_sources::control_dispatch();
  ASSERT_TRUE(v1.ok());
  ASSERT_TRUE(agent_->load_control_plugin(*v1).ok());
  EXPECT_EQ(agent_->report_period_slots(), 100u);

  // v1 era: the new action is skipped silently; known actions still work.
  send_control({{ActionType::kSetReportPeriod, 10, 0},
                {ActionType::kSetCqiTable, 1, 0}});
  ASSERT_TRUE(agent_->poll().ok());
  EXPECT_EQ(agent_->report_period_slots(), 100u);   // unknown to v1
  EXPECT_EQ(agent_->cqi_table_index(), 1u);         // known action applied
  EXPECT_EQ(mac_->mcs_table(), ran::McsTable::kQam256);  // ...and took effect
  EXPECT_EQ(agent_->stats().frames_rejected, 0u);   // no fault either

  // Hot-swap to v2: the same wire bytes now take effect.
  auto v2 = plugin_sources::control_dispatch_v2();
  ASSERT_TRUE(v2.ok()) << v2.error().message;
  ASSERT_TRUE(agent_->load_control_plugin(*v2).ok());
  send_control({{ActionType::kSetReportPeriod, 10, 0}});
  ASSERT_TRUE(agent_->poll().ok());
  EXPECT_EQ(agent_->report_period_slots(), 10u);
  EXPECT_EQ(agent_->stats().period_updates, 1u);
}

TEST_F(FeatureUpgrade, V2RejectsOutOfRangePeriods) {
  auto v2 = plugin_sources::control_dispatch_v2();
  ASSERT_TRUE(v2.ok());
  ASSERT_TRUE(agent_->load_control_plugin(*v2).ok());
  send_control({{ActionType::kSetReportPeriod, 0, 0}});
  ASSERT_TRUE(agent_->poll().ok());
  EXPECT_EQ(agent_->report_period_slots(), 100u);  // host-side sanity bound
  EXPECT_EQ(agent_->stats().period_updates, 0u);
}

}  // namespace
}  // namespace waran::ric

// Appended: one near-RT RIC serving multiple E2 nodes (real O-RAN topology).
namespace waran::ric {
namespace {

TEST(MultiCell, OneRicDrivesTwoGnbsIndependently) {
  auto comm = plugin_sources::comm_framing();
  auto ctl = plugin_sources::control_dispatch();
  auto sla = plugin_sources::sla_xapp();
  ASSERT_TRUE(comm.ok() && ctl.ok() && sla.ok());

  struct Cell {
    std::unique_ptr<ran::GnbMac> mac;
    QuotaTableInterScheduler* quotas;
    std::unique_ptr<Duplex> link;
    std::unique_ptr<GnbAgent> agent;
  };
  auto make_cell = [&](uint32_t id, double target_bps) {
    Cell c;
    c.mac = std::make_unique<ran::GnbMac>(ran::MacConfig{});
    auto q = std::make_unique<QuotaTableInterScheduler>();
    c.quotas = q.get();
    c.mac->set_inter_scheduler(std::move(q));
    ran::SliceConfig cfg;
    cfg.slice_id = 1;
    cfg.target_rate_bps = target_bps;
    c.mac->add_slice(cfg, std::make_unique<sched::RrScheduler>());
    c.mac->add_ue(1, ran::Channel::pinned_mcs(28), ran::TrafficSource::full_buffer());
    c.link = std::make_unique<Duplex>();
    c.agent = std::make_unique<GnbAgent>(id, *c.mac, c.quotas, *c.link,
                                         Duplex::Side::kA);
    EXPECT_TRUE(c.agent->load_comm_plugin(*comm).ok());
    EXPECT_TRUE(c.agent->load_control_plugin(*ctl).ok());
    c.quotas->set_quota(1, 2);  // both start starved
    return c;
  };

  Cell cell0 = make_cell(0, 10e6);
  Cell cell1 = make_cell(1, 20e6);

  NearRtRic ric(*cell0.link, Duplex::Side::kB);
  ric.add_link(*cell1.link, Duplex::Side::kB);
  ASSERT_TRUE(ric.load_comm_plugin(*comm).ok());
  ASSERT_TRUE(ric.add_xapp("sla", *sla).ok());
  EXPECT_EQ(ric.link_count(), 2u);

  for (int round = 0; round < 120; ++round) {
    ASSERT_TRUE(cell0.mac->run_slots(100).ok());
    ASSERT_TRUE(cell1.mac->run_slots(100).ok());
    ASSERT_TRUE(cell0.agent->send_indication().ok());
    ASSERT_TRUE(cell1.agent->send_indication().ok());
    ASSERT_TRUE(ric.poll().ok());
    ASSERT_TRUE(cell0.agent->poll().ok());
    ASSERT_TRUE(cell1.agent->poll().ok());
  }

  // Each cell converged to its own target — control frames were routed to
  // the link their indications came from.
  EXPECT_NEAR(cell0.mac->slice_rate_bps(1) / 1e6, 10.0, 2.5);
  EXPECT_NEAR(cell1.mac->slice_rate_bps(1) / 1e6, 20.0, 3.5);
  EXPECT_GT(cell0.agent->stats().quota_updates, 0u);
  EXPECT_GT(cell1.agent->stats().quota_updates, 0u);
  EXPECT_EQ(ric.stats().indications_processed, 240u);
}

}  // namespace
}  // namespace waran::ric
