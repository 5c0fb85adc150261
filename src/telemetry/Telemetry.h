//===- telemetry/Telemetry.h - Telemetry hub --------------------*- C++ -*-===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The telemetry hub: one MetricsRegistry plus one TelemetryLog behind
/// typed recorder methods, bound to the simulator's virtual clock. The
/// hub is *opt-in*: nothing in the system owns one; an experiment or
/// example constructs it, attaches it to a Simulator (which hands the
/// pointer to every producer), and exports after the run. Producers
/// guard every record with a null-pointer + enabled() check, so the
/// disabled cost is one branch.
///
/// Recorders update the canonical metrics *and* append a log record in
/// one call, which keeps producers to a single line per event and
/// guarantees the registry and the log never disagree. Log appends can
/// be capped (setLogCapacity) for long bench sweeps that only want the
/// aggregate metrics; dropped records are themselves counted.
///
//===----------------------------------------------------------------------===//

#ifndef GREENWEB_TELEMETRY_TELEMETRY_H
#define GREENWEB_TELEMETRY_TELEMETRY_H

#include "telemetry/MetricsRegistry.h"
#include "telemetry/SpanTracer.h"
#include "telemetry/TelemetryLog.h"

#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace greenweb {

class DetectorBank;
class FlightRecorder;
struct DetectorConfig;
struct FlightRecorderConfig;

/// A policy's configuration choice. Configurations travel as their
/// display label plus raw core/frequency numbers so the telemetry layer
/// stays below the hardware model in the dependency order.
struct GovernorDecisionRecord {
  std::string Governor;   ///< Policy name ("GreenWeb-I", "Interactive"...)
  std::string Reason;     ///< "predicted", "profile_max", "utilization"...
  std::string Config;     ///< Chosen configuration label ("A15@1800MHz").
  int64_t CoreIsBig = 0;  ///< 1 when the chosen cluster is the big one.
  int64_t FreqMHz = 0;    ///< Chosen frequency.
  int64_t RootId = 0;     ///< Originating input event (0 = none).
  std::string ModelKey;   ///< Per-(element,event) model key, if any.
  double PredictedMs = -1.0; ///< Predicted latency at Config (<0 = n/a).
  double TargetMs = -1.0;    ///< Active QoS target (<0 = n/a).
  int64_t FeedbackOffset = 0;
};

/// A feedback correction on measured latency.
struct FeedbackActionRecord {
  std::string Governor;
  std::string Action; ///< "step_up", "step_down", "recalibrate".
  std::string ModelKey;
  int64_t NewOffset = 0;
  double MeasuredMs = -1.0;
  double PredictedMs = -1.0;
  double TargetMs = -1.0;
};

/// The chip executed a configuration change.
struct ConfigSwitchRecord {
  std::string FromConfig;
  std::string ToConfig;
  int64_t ToCoreIsBig = 0;
  int64_t ToFreqMHz = 0;
  int64_t FreqChanged = 0;
  int64_t Migrated = 0;
  double PenaltyUs = 0.0;
};

/// One pipeline stage of one frame finished.
struct FrameStageRecord {
  int64_t FrameId = 0;
  std::string Stage; ///< "animate","style","layout","paint","composite","present".
  double DurationMs = 0.0;
};

/// A frame missed its active QoS target.
struct QosViolationRecord {
  std::string Governor;
  int64_t RootId = 0;
  std::string ModelKey;
  double LatencyMs = 0.0;
  double TargetMs = 0.0;
  int64_t FrameId = 0;  ///< Frame that missed (0 = unknown).
  std::string QosKind;  ///< "single" or "continuous" ("" = unknown).
};

/// A fault-injection event: a scheduled fault window opening or
/// closing, or one discrete injection landing inside a window.
struct FaultEventRecord {
  std::string Fault;  ///< Family name ("thermal_throttle", ...).
  std::string Phase;  ///< "begin", "end", or "inject".
  std::string Detail; ///< Human-readable parameters or injection context.
  double Value = 0.0; ///< Family-specific magnitude (cap MHz, scale, ...).
};

/// Periodic (DAQ-style) power reading plus co-sampled simulator state.
struct EnergySampleRecord {
  double Watts = 0.0;
  double CumulativeJoules = 0.0;
  int64_t QueueDepth = 0; ///< Simulator event-queue depth at the sample.
};

/// The telemetry hub; see file comment.
class Telemetry {
public:
  using ClockFn = std::function<TimePoint()>;

  /// Constructs with the clock pinned at the origin; attach to a
  /// Simulator (Simulator::setTelemetry) to follow virtual time.
  Telemetry();
  explicit Telemetry(ClockFn Clock);
  ~Telemetry();
  // Non-copyable: the span tracer back-references the hub.
  Telemetry(const Telemetry &) = delete;
  Telemetry &operator=(const Telemetry &) = delete;

  /// Rebinds the timestamp source. Simulator::setTelemetry calls this;
  /// the previous clock must not be dangling while producers record.
  void setClock(ClockFn NewClock) { Clock = std::move(NewClock); }

  /// Master switch: when false every recorder returns immediately.
  bool enabled() const { return Enabled; }
  void setEnabled(bool On) { Enabled = On; }

  /// Caps the log at \p MaxRecords appended records (metrics keep
  /// updating); 0 keeps metrics only. Default: unlimited. Capacity 0
  /// also turns span tracing off — a metrics-only sweep must not grow
  /// an unbounded span vector either.
  void setLogCapacity(size_t MaxRecords) {
    LogCapacity = MaxRecords;
    if (MaxRecords == 0)
      Spans.setTracingEnabled(false);
  }

  /// Current virtual time per the bound clock (origin when unbound).
  TimePoint now() const { return Clock ? Clock() : TimePoint::origin(); }

  MetricsRegistry &metrics() { return Metrics; }
  const MetricsRegistry &metrics() const { return Metrics; }
  TelemetryLog &log() { return Log; }
  const TelemetryLog &log() const { return Log; }
  SpanTracer &spans() { return Spans; }
  const SpanTracer &spans() const { return Spans; }

  /// Force-closes all open spans (SpanTracer::finishAll); call before
  /// exporting so in-flight work reaches the artifacts.
  void flushSpans() { Spans.finishAll(); }

  /// Re-appends another log into this hub with *live* append semantics:
  /// non-Alert records respect this hub's log capacity (drops counted in
  /// telemetry.dropped_records), Alert records keep their capacity
  /// bypass. ParallelRunner uses this for the config-order merge so a
  /// capacity-limited shared hub treats merged records exactly as it
  /// would have treated them recorded directly.
  void mergeLogFrom(const TelemetryLog &Other);

  /// --- Online observability (off by default; see FlightRecorder.h) ---
  ///
  /// Attaches the EWMA/CUSUM anomaly detectors: every record flows
  /// through the bank and resulting Alert records are appended to the
  /// log as first-class events. Alerts bypass the log capacity cap —
  /// they are rare and are exactly what a metrics-only sweep still
  /// wants to keep.
  void enableAnomalyDetectors();
  void enableAnomalyDetectors(const DetectorConfig &C);
  /// Attaches the flight recorder: a ring of recent records snapshotted
  /// into black-box dumps on trigger (QoS burst, watchdog trip, fault
  /// window, detector alert).
  void enableFlightRecorder();
  void enableFlightRecorder(const FlightRecorderConfig &C);
  /// Null when the corresponding enable* was never called.
  DetectorBank *detectors() { return Bank.get(); }
  const DetectorBank *detectors() const { return Bank.get(); }
  FlightRecorder *flightRecorder() { return Recorder.get(); }
  const FlightRecorder *flightRecorder() const { return Recorder.get(); }
  /// Detaches the flight recorder (null if none): records after the
  /// call no longer reach a ring. The fleet keeps a finished run's
  /// recorder this way and formats its dumps only if it writes them.
  std::unique_ptr<FlightRecorder> takeFlightRecorder();

  /// --- Typed recorders (no-ops when disabled) ---
  void recordGovernorDecision(const GovernorDecisionRecord &R);
  void recordFeedbackAction(const FeedbackActionRecord &R);
  void recordConfigSwitch(const ConfigSwitchRecord &R);
  void recordFrameStage(const FrameStageRecord &R);
  void recordQosViolation(const QosViolationRecord &R);
  void recordEnergySample(const EnergySampleRecord &R);
  void recordFaultEvent(const FaultEventRecord &R);
  /// Generic time-series point for an extra trace counter track.
  void recordCounterSample(const std::string &Track, double Value);
  /// A displayed frame: counts browser.frames and observes its worst
  /// input latency in browser.frame_latency_ms (metrics only, no log
  /// record).
  void recordFrame(double MaxLatencyMs);

private:
  friend class SpanTracer;

  /// Appends within the log cap; counts drops otherwise. With the
  /// observability layer attached the record (and any alerts it
  /// provokes) also flows through the recorder ring and detector bank.
  void appendRecord(TelemetryEventKind Kind,
                    std::vector<TelemetryField> Fields);

  /// Slow path of appendRecord when detectors / recorder are attached.
  void observeAndAppend(TelemetryEventKind Kind,
                        std::vector<TelemetryField> Fields);

  /// Mirrors a completed span into the metrics + log (SpanTracer only).
  void recordSpan(const SpanTracer::Span &S, bool Truncated);

  /// Hot-path metric handles, looked up by name on first use and kept:
  /// a hub that never records registers nothing, as before. Registry
  /// entries are map nodes, so the pointers stay valid while the hub
  /// lives (nothing clears a hub's registry).
  Counter &counterOnce(Counter *&Slot, std::string_view Name);
  Gauge &gaugeOnce(Gauge *&Slot, std::string_view Name);
  Histogram &histogramOnce(Histogram *&Slot, std::string_view Name);
  Histogram &stageHistogram(const std::string &Stage);

  ClockFn Clock;
  bool Enabled = true;
  size_t LogCapacity = std::numeric_limits<size_t>::max();
  MetricsRegistry Metrics;
  TelemetryLog Log;
  SpanTracer Spans{this};
  std::unique_ptr<DetectorBank> Bank;
  std::unique_ptr<FlightRecorder> Recorder;
  Counter *AlertsCtr = nullptr; ///< Cached "telemetry.alerts".
  Counter *DroppedCtr = nullptr;
  Counter *DecisionsCtr = nullptr;
  Counter *FreqSwitchesCtr = nullptr;
  Counter *MigrationsCtr = nullptr;
  Gauge *SwitchPenaltyGauge = nullptr;
  Counter *FramesCtr = nullptr;
  Histogram *FrameLatencyHist = nullptr;
  Counter *SpansCtr = nullptr;
  Counter *EnergySamplesCtr = nullptr;
  Gauge *PowerGauge = nullptr;
  Gauge *JoulesGauge = nullptr;
  /// browser.stage_<Stage>_ms by stage name; a handful of stages, so a
  /// linear scan beats building the metric name per record.
  std::vector<std::pair<std::string, Histogram *>> StageHists;
};

} // namespace greenweb

#endif // GREENWEB_TELEMETRY_TELEMETRY_H
