//===- tests/telemetry/TelemetryTest.cpp - telemetry subsystem tests -----------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "telemetry/Telemetry.h"

#include "sim/Simulator.h"
#include "telemetry/FlightRecorder.h"

#include "MiniJson.h"

#include <gtest/gtest.h>

using namespace greenweb;

//===----------------------------------------------------------------------===//
// MetricsRegistry
//===----------------------------------------------------------------------===//

TEST(MetricsRegistryTest, CounterAndGaugeBasics) {
  MetricsRegistry M;
  EXPECT_FALSE(M.has("a.count"));
  Counter &C = M.counter("a.count");
  C.add();
  C.add(4);
  EXPECT_EQ(C.value(), 5u);
  EXPECT_TRUE(M.has("a.count"));
  // Registration is idempotent: same name, same object.
  EXPECT_EQ(&M.counter("a.count"), &C);

  Gauge &G = M.gauge("a.level");
  G.set(2.5);
  G.add(0.5);
  EXPECT_DOUBLE_EQ(G.value(), 3.0);
  EXPECT_EQ(M.size(), 2u);
}

TEST(MetricsRegistryTest, HistogramBucketsAndSummary) {
  MetricsRegistry M;
  Histogram &H = M.histogram("lat", {1.0, 10.0});
  H.observe(0.5);  // first bucket (<= 1)
  H.observe(1.0);  // boundary is inclusive -> first bucket
  H.observe(5.0);  // second bucket (<= 10)
  H.observe(99.0); // overflow
  ASSERT_EQ(H.bucketCounts().size(), 3u);
  EXPECT_EQ(H.bucketCounts()[0], 2u);
  EXPECT_EQ(H.bucketCounts()[1], 1u);
  EXPECT_EQ(H.bucketCounts()[2], 1u);
  EXPECT_EQ(H.summary().count(), 4u);
  EXPECT_DOUBLE_EQ(H.summary().min(), 0.5);
  EXPECT_DOUBLE_EQ(H.summary().max(), 99.0);
  // Later registrations ignore differing bounds and reuse the original.
  EXPECT_EQ(&M.histogram("lat", {42.0}), &H);
  EXPECT_EQ(H.upperBounds().size(), 2u);
}

TEST(MetricsRegistryTest, HistogramQuantilesInterpolateWithinBuckets) {
  MetricsRegistry M;
  Histogram &H = M.histogram("lat", {10.0, 20.0, 30.0, 40.0});
  EXPECT_DOUBLE_EQ(H.quantile(0.5), 0.0); // No observations yet.
  for (double X : {5.0, 15.0, 25.0, 35.0})
    H.observe(X);
  // Rank 1 lands at the first bucket's upper edge; the first bucket
  // interpolates from the observed minimum.
  EXPECT_DOUBLE_EQ(H.quantile(0.25), 10.0);
  EXPECT_DOUBLE_EQ(H.quantile(0.5), 20.0);
  EXPECT_DOUBLE_EQ(H.quantile(0.75), 30.0);
  // Estimates never leave [min, max]: the last bucket would
  // extrapolate to its 40.0 bound but clamps to the observed 35.0.
  EXPECT_DOUBLE_EQ(H.quantile(1.0), 35.0);
  EXPECT_DOUBLE_EQ(H.quantile(0.0), 5.0);
}

TEST(MetricsRegistryTest, SnapshotsCarryQuantileFields) {
  MetricsRegistry M;
  M.histogram("h", {1.0}).observe(0.5);
  std::string Json = M.snapshotJson();
  // A single observation pins every estimate to that value.
  EXPECT_NE(Json.find("\"p50\": 0.5"), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"p90\": 0.5"), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"p95\": 0.5"), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"p99\": 0.5"), std::string::npos) << Json;
  std::string Csv = M.snapshotCsv();
  EXPECT_NE(Csv.find("h,histogram,p50,0.5"), std::string::npos) << Csv;
  EXPECT_NE(Csv.find("h,histogram,p99,0.5"), std::string::npos) << Csv;
}

TEST(MetricsRegistryTest, JsonSnapshotIsValidAndOrdered) {
  MetricsRegistry M;
  M.counter("z.last").add(1);
  M.counter("a.first").add(2);
  M.gauge("m.mid").set(1.25);
  M.histogram("h.lat", {1.0}).observe(0.25);
  std::string Json = M.snapshotJson();
  EXPECT_TRUE(minijson::valid(Json)) << Json;
  // std::map iteration puts a.first before z.last regardless of
  // registration order.
  EXPECT_LT(Json.find("a.first"), Json.find("z.last"));
  EXPECT_NE(Json.find("\"m.mid\": 1.25"), std::string::npos) << Json;
}

TEST(MetricsRegistryTest, SnapshotsAreByteStable) {
  auto Build = [] {
    MetricsRegistry M;
    M.counter("c").add(7);
    M.gauge("g").set(0.123456789);
    M.histogram("h", {1.0, 2.0}).observe(1.5);
    return std::make_pair(M.snapshotJson(), M.snapshotCsv());
  };
  EXPECT_EQ(Build(), Build());
}

TEST(MetricsRegistryTest, VolatileMetricsExcludedByDefault) {
  MetricsRegistry M;
  M.gauge("sim.host_seconds").set(1.23);
  M.markVolatile("sim.host_seconds");
  M.gauge("sim.virtual_seconds").set(4.0);
  std::string Json = M.snapshotJson();
  EXPECT_EQ(Json.find("host_seconds"), std::string::npos);
  EXPECT_NE(Json.find("virtual_seconds"), std::string::npos);
  std::string All = M.snapshotJson(/*IncludeVolatile=*/true);
  EXPECT_NE(All.find("host_seconds"), std::string::npos);
  std::string Csv = M.snapshotCsv();
  EXPECT_EQ(Csv.find("host_seconds"), std::string::npos);
}

TEST(MetricsRegistryTest, CsvShapeAndClear) {
  MetricsRegistry M;
  M.counter("c").add(3);
  M.histogram("h", {1.0}).observe(0.5);
  std::string Csv = M.snapshotCsv();
  EXPECT_EQ(Csv.rfind("metric,kind,field,value\n", 0), 0u) << Csv;
  EXPECT_NE(Csv.find("c,counter,value,3"), std::string::npos);
  EXPECT_NE(Csv.find("h,histogram,bucket_le_1.0,1"), std::string::npos);
  EXPECT_NE(Csv.find("h,histogram,bucket_overflow,0"), std::string::npos);
  M.clear();
  EXPECT_EQ(M.size(), 0u);
  EXPECT_FALSE(M.has("c"));
}

//===----------------------------------------------------------------------===//
// TelemetryLog + hub
//===----------------------------------------------------------------------===//

TEST(TelemetryTest, RecordersUpdateMetricsAndLogTogether) {
  Telemetry T;
  GovernorDecisionRecord D;
  D.Governor = "GreenWeb-I";
  D.Reason = "predicted";
  D.Config = "A15@1400MHz";
  D.PredictedMs = 12.5;
  D.TargetMs = 16.7;
  T.recordGovernorDecision(D);
  EXPECT_EQ(T.metrics().counter("governor.decisions").value(), 1u);
  ASSERT_EQ(T.log().size(), 1u);
  const TelemetryRecord &R = T.log().records().front();
  EXPECT_EQ(R.Kind, TelemetryEventKind::GovernorDecision);
  EXPECT_EQ(R.stringOr("reason", ""), "predicted");
  EXPECT_DOUBLE_EQ(R.numberOr("predicted_ms", 0.0), 12.5);
}

TEST(TelemetryTest, DisabledHubRecordsNothing) {
  Telemetry T;
  T.setEnabled(false);
  T.recordConfigSwitch({"A7@350MHz", "A15@1800MHz", 1, 1800, 1, 1, 50.0});
  T.recordEnergySample({0.5, 1.0, 3});
  EXPECT_TRUE(T.log().empty());
  EXPECT_EQ(T.metrics().size(), 0u);
}

TEST(TelemetryTest, LogCapacityCountsDrops) {
  Telemetry T;
  T.setLogCapacity(2);
  for (int I = 0; I < 5; ++I)
    T.recordEnergySample({0.1, double(I), 0});
  EXPECT_EQ(T.log().size(), 2u);
  EXPECT_EQ(T.metrics().counter("telemetry.dropped_records").value(), 3u);
  // Metrics keep updating past the cap.
  EXPECT_EQ(T.metrics().counter("hw.energy_samples").value(), 5u);
}

TEST(TelemetryTest, MetricsOnlyModeKeepsLogEmpty) {
  Telemetry T;
  T.setLogCapacity(0);
  T.recordQosViolation({"EBS", 1, "k", 40.0, 16.7});
  EXPECT_TRUE(T.log().empty());
  EXPECT_EQ(T.metrics().counter("qos.violations").value(), 1u);
}

TEST(TelemetryTest, CachedHandlesFeedTheNamedMetrics) {
  Telemetry T;
  T.setLogCapacity(1);
  // Handles are looked up on first use: an idle hub registers nothing.
  EXPECT_EQ(T.metrics().size(), 0u);
  T.recordFrameStage({1, "style", 2.0});
  T.recordFrameStage({1, "layout", 3.0});
  T.recordFrameStage({2, "style", 4.0});
  T.recordFrame(20.0);
  T.recordFrame(5.0);
  T.recordConfigSwitch({"A7@350MHz", "A15@1800MHz", 1, 1800, 1, 1, 50.0});
  GovernorDecisionRecord D;
  T.recordGovernorDecision(D);
  const MetricsRegistry &M = T.metrics();
  ASSERT_NE(M.findHistogram("browser.stage_style_ms"), nullptr);
  EXPECT_EQ(M.findHistogram("browser.stage_style_ms")->summary().count(),
            2u);
  EXPECT_EQ(M.findHistogram("browser.stage_layout_ms")->summary().count(),
            1u);
  EXPECT_EQ(M.findCounter("browser.frames")->value(), 2u);
  EXPECT_DOUBLE_EQ(
      M.findHistogram("browser.frame_latency_ms")->summary().max(), 20.0);
  EXPECT_EQ(M.findCounter("hw.freq_switches")->value(), 1u);
  EXPECT_EQ(M.findCounter("hw.migrations")->value(), 1u);
  EXPECT_EQ(M.findCounter("governor.decisions")->value(), 1u);
  // Five log records (recordFrame adds none): one fit, four dropped.
  EXPECT_EQ(M.findCounter("telemetry.dropped_records")->value(), 4u);
  EXPECT_EQ(T.log().size(), 1u);
}

TEST(TelemetryTest, TakeFlightRecorderDetachesIt) {
  Telemetry T;
  T.setLogCapacity(0);
  T.enableFlightRecorder();
  T.recordFaultEvent({"thermal_throttle", "begin", "cap 800 MHz", 800.0});
  std::string Before = T.flightRecorder()->dumpsJson();

  std::unique_ptr<FlightRecorder> FR = T.takeFlightRecorder();
  ASSERT_NE(FR, nullptr);
  EXPECT_EQ(T.flightRecorder(), nullptr);
  ASSERT_EQ(FR->dumps().size(), 1u);
  EXPECT_EQ(FR->dumpsJson(), Before);
  // Later records reach no ring, and a second take yields nothing.
  T.recordFaultEvent({"thermal_throttle", "end", "", 0.0});
  EXPECT_EQ(FR->recordsObserved(), 1u);
  EXPECT_EQ(T.takeFlightRecorder(), nullptr);
}

TEST(TelemetryTest, JsonlExportIsValidAndEscaped) {
  Telemetry T;
  FeedbackActionRecord F;
  F.Governor = "GreenWeb-U";
  F.Action = "step_up";
  F.ModelKey = "7:\"quoted\\key\"";
  F.NewOffset = 1;
  T.recordFeedbackAction(F);
  T.recordFrameStage({3, "layout", 1.75});
  std::string Jsonl = T.log().toJsonl();
  EXPECT_TRUE(minijson::validJsonl(Jsonl)) << Jsonl;
  EXPECT_NE(Jsonl.find("\"kind\":\"feedback_action\""), std::string::npos);
  EXPECT_NE(Jsonl.find("\"kind\":\"frame_stage\""), std::string::npos);
}

TEST(TelemetryTest, ByKindFiltersInOrder) {
  Telemetry T;
  T.recordEnergySample({0.1, 0.1, 0});
  T.recordFrameStage({1, "style", 1.0});
  T.recordEnergySample({0.2, 0.3, 0});
  auto Samples = T.log().byKind(TelemetryEventKind::EnergySample);
  ASSERT_EQ(Samples.size(), 2u);
  EXPECT_DOUBLE_EQ(Samples[0]->numberOr("watts", 0.0), 0.1);
  EXPECT_DOUBLE_EQ(Samples[1]->numberOr("watts", 0.0), 0.2);
}

//===----------------------------------------------------------------------===//
// Simulator integration
//===----------------------------------------------------------------------===//

TEST(TelemetryTest, SimulatorBindsClockAndCountsEvents) {
  Simulator Sim;
  Telemetry T;
  Sim.setTelemetry(&T);
  EXPECT_EQ(Sim.telemetry(), &T);

  Sim.schedule(Duration::milliseconds(5), [&] {
    T.recordFrameStage({1, "style", 0.5});
  });
  Sim.run();

  // The record carries the virtual time of the firing event.
  ASSERT_EQ(T.log().size(), 1u);
  EXPECT_DOUBLE_EQ(T.log().records().front().Ts.millis(), 5.0);

  EXPECT_GE(T.metrics().counter("sim.events_scheduled").value(), 1u);
  EXPECT_GE(T.metrics().counter("sim.events_fired").value(), 1u);
  EXPECT_DOUBLE_EQ(T.metrics().gauge("sim.virtual_seconds").value(),
                   0.005);
  // Host wall time is volatile: recorded, but not in snapshots.
  EXPECT_TRUE(T.metrics().has("sim.host_seconds"));
  EXPECT_EQ(T.metrics().snapshotJson().find("host_seconds"),
            std::string::npos);
}

TEST(TelemetryTest, UnboundClockPinsAtOrigin) {
  Telemetry T;
  T.recordFrameStage({1, "paint", 1.0});
  EXPECT_EQ(T.log().records().front().Ts, TimePoint::origin());
}
