//===- perfbench/gw_perfbench.cpp - Repo benchmark program ----------------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Runs one benchmark workload in this process with one simulation worker
// and prints one JSON result line. Every timing is taken here, around
// calls into the libraries' public entry points:
//
//   fleet_full, fleet_cold  runFleet (plus writing its report)
//   observed_session        runExperiment + writeTelemetryArtifacts
//
//   gw-perfbench --workload=NAME --seed=N --seconds=S --trace=0|1
//                --work=DIR
//
// --trace=0 repeats whole rounds of the workload until S seconds have
// passed and reports the end-to-end metrics; --trace=1 reports per-layer
// metrics from prof::start/prof::collect over the existing
// GW_PROF_SCOPE names, plus a plain pass of the same sessions without a
// telemetry hub. perfbench/README.md describes the inputs, the metrics
// and the checks; run.py builds this program and wraps it.
//
//===----------------------------------------------------------------------===//

#include "greenweb/Features.h"
#include "html/HtmlParser.h"
#include "js/JsParser.h"
#include "profiling/Profiler.h"
#include "support/Json.h"
#include "support/StringUtils.h"
#include "telemetry/FleetReport.h"
#include "telemetry/Telemetry.h"
#include "telemetry/TelemetryLog.h"
#include "workloads/Apps.h"
#include "workloads/Experiment.h"
#include "workloads/FleetPlan.h"
#include "workloads/FleetRunner.h"
#include "workloads/TelemetryArtifacts.h"
#include "workloads/WorkloadAssets.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

using namespace greenweb;
namespace fs = std::filesystem;

namespace {

//===----------------------------------------------------------------------===//
// Small helpers
//===----------------------------------------------------------------------===//

double nowSeconds() {
  using Clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream Buf;
  Buf << In.rdbuf();
  Out = Buf.str();
  return true;
}

bool writeFile(const std::string &Path, const std::string &Text) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  return Out && (Out << Text) && Out.flush();
}

/// Size of \p Path in bytes; 0 when it is missing.
uint64_t fileBytes(const std::string &Path) {
  std::error_code Ec;
  uint64_t N = fs::file_size(Path, Ec);
  return Ec ? 0 : N;
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

/// Nearest-rank percentile of \p V (0 < Q <= 1).
double percentile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t Rank = size_t(std::ceil(Q * double(V.size())));
  return V[std::clamp<size_t>(Rank, 1, V.size()) - 1];
}

uint64_t splitMix64(uint64_t X) {
  X += 0x9E3779B97F4A7C15ull;
  X = (X ^ (X >> 30)) * 0xBF58476D1CE4E5B9ull;
  X = (X ^ (X >> 27)) * 0x94D049BB133111EBull;
  return X ^ (X >> 31);
}

double peakRssMb() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return double(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux.
}

//===----------------------------------------------------------------------===//
// Host-speed reference
//===----------------------------------------------------------------------===//

/// Seconds one reference-kernel sample takes on the reference host
/// (README).
constexpr double RefNominalS = 0.03;

/// Fixed work owned by the benchmark, never by the libraries: sorting
/// and string hashing with allocation. A change to the libraries cannot
/// move it.
double referenceKernelSeconds() {
  double T0 = nowSeconds();
  uint64_t X = 0x5EED;
  std::vector<uint64_t> Keys(1 << 18);
  for (uint64_t &K : Keys)
    K = X = splitMix64(X);
  std::sort(Keys.begin(), Keys.end());
  std::unordered_map<std::string, uint64_t> Counts;
  for (size_t I = 0; I < 25000; ++I)
    Counts[std::to_string(Keys[I] % 1000003)] += I;
  double Elapsed = nowSeconds() - T0;
  // Keep the result observable so the work cannot be optimized away.
  return Counts.size() + Keys[Keys.size() / 2] == 0 ? Elapsed + 1e-12
                                                     : Elapsed;
}

/// The shared host runs everything faster or slower for tens of seconds
/// at a time. HostSpeed samples the reference kernel between timed spans
/// (median of five runs, so one preempted run does not count); rescale()
/// returns RefNominalS / (mean sample before and after the span just
/// measured), which maps the span's wall time onto the reference host.
class HostSpeed {
public:
  HostSpeed() : LastS(sample()) {}

  double rescale() {
    double NowS = sample();
    double Factor = RefNominalS / (0.5 * (LastS + NowS));
    LastS = NowS;
    return Factor;
  }
  double lastKernelS() const { return LastS; }

private:
  static double sample() {
    std::vector<double> Runs;
    for (int I = 0; I < 5; ++I)
      Runs.push_back(referenceKernelSeconds());
    return median(Runs);
  }

  double LastS;
};

/// Collects failed correctness checks; any failure makes the run's
/// "correct" false. Each failure is reported on stderr once.
struct Checks {
  std::vector<std::string> Failures;

  void expect(bool Ok, const std::string &What) {
    if (Ok)
      return;
    if (Failures.size() < 20)
      std::fprintf(stderr, "check failed: %s\n", What.c_str());
    Failures.push_back(What);
  }
  bool ok() const { return Failures.empty(); }
};

//===----------------------------------------------------------------------===//
// Workload inputs
//===----------------------------------------------------------------------===//

enum class WorkloadKind { FleetFull, FleetCold, Observed };

/// The learned-governor model, relative to the repository root.
const char *const ModelPath = "examples/models/predictive.json";

struct Args {
  std::string Workload;
  WorkloadKind Kind = WorkloadKind::FleetFull;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  std::string Work;
};

const std::vector<std::string> FullGovernors = {
    governors::Perf, governors::Interactive, governors::GreenWebI,
    governors::GreenWebU, governors::PredictiveI};
const std::vector<std::string> ObservedApps = {"BBC", "Amazon", "CamanJS"};
const std::vector<std::string> ObservedGovernors = {governors::GreenWebI,
                                                    governors::PredictiveI};

/// Page seed of every observed session (see README on fixed populations).
constexpr uint64_t ObservedPageSeed = 1;

/// fleet_cold's page seeds: a block of 64 starting at a point drawn from
/// the benchmark seed, so distinct benchmark seeds give distinct pages.
uint64_t firstPageSeed(uint64_t Seed) {
  return 1 + splitMix64(Seed) % 1000000;
}

std::string jsonStringList(const std::vector<std::string> &V) {
  std::string Out = "[";
  for (size_t I = 0; I < V.size(); ++I)
    Out += (I ? ",\"" : "\"") + jsonEscape(V[I]) + "\"";
  return Out + "]";
}

std::string seedList(uint64_t First, unsigned Count) {
  std::string Out = "[";
  for (unsigned I = 0; I < Count; ++I)
    Out += formatString(I ? ",%llu" : "%llu",
                        static_cast<unsigned long long>(First + I));
  return Out + "]";
}

/// \p V in an order drawn from \p Seed (Fisher-Yates over splitMix64).
template <typename T> std::vector<T> shuffled(std::vector<T> V, uint64_t Seed) {
  for (size_t I = V.size(); I > 1; --I)
    std::swap(V[I - 1], V[(Seed = splitMix64(Seed)) % I]);
  return V;
}

/// The observed sessions, (app index, governor), in an order drawn from
/// the seed, or in app-major order when \p Seeded is false.
std::vector<std::pair<size_t, std::string>> observedSessions(uint64_t Seed,
                                                             bool Seeded) {
  std::vector<std::pair<size_t, std::string>> Out;
  for (size_t AI = 0; AI < ObservedApps.size(); ++AI)
    for (const std::string &Gov : ObservedGovernors)
      Out.push_back({AI, Gov});
  return Seeded ? shuffled(std::move(Out), Seed) : Out;
}

/// The fleet plan document of a fleet workload (see README). fleet_full
/// simulates one fixed population, pages seeded 1, and the seed orders
/// its governors, which sets the item order, the batch make-up, the fold
/// order and the black boxes written on the way: seed-drawn pages moved
/// its frame-latency p99 by a factor of three between seeds. fleet_cold
/// draws its 64 page seeds from the seed.
std::string fleetPlanText(const Args &A) {
  if (A.Kind == WorkloadKind::FleetFull)
    return "{\"name\":\"perfbench-fleet-full\",\"mode\":\"full\",\"apps\":" +
           jsonStringList(allAppNames()) + ",\"governors\":" +
           jsonStringList(shuffled(FullGovernors, A.Seed)) +
           ",\"seeds\":[1],\"scenarios\":[\"none\",\"chaos\"],"
           "\"replicas\":2,\"baseline_governor\":\"Perf\",\"model\":\"" +
           ModelPath + "\"}\n";
  return "{\"name\":\"perfbench-fleet-cold\",\"mode\":\"micro\",\"apps\":" +
         jsonStringList(allAppNames()) + ",\"governors\":[\"GreenWeb-I\"],"
         "\"seeds\":" + seedList(firstPageSeed(A.Seed), 64) +
         ",\"scenarios\":[\"none\"],\"replicas\":1,"
         "\"micro_repetitions\":1}\n";
}

//===----------------------------------------------------------------------===//
// Set-up: the one-off preparation before the first session
//===----------------------------------------------------------------------===//

/// The hub configuration every workload session runs with: online
/// detectors and flight recorder. Fleets keep no log (capacity 0).
std::unique_ptr<Telemetry> makeSessionHub(bool KeepLog) {
  auto Hub = std::make_unique<Telemetry>();
  if (!KeepLog)
    Hub->setLogCapacity(0);
  Hub->enableAnomalyDetectors();
  Hub->enableFlightRecorder();
  return Hub;
}

struct Prepared {
  FleetPlan Plan;                   ///< Fleets only.
  DecisionTreeModel Model;          ///< When the workload needs a model.
  std::vector<PageAssets> Assets;   ///< Observed only, per ObservedApps.
  std::unique_ptr<Telemetry> Hub;   ///< Built to time its construction.
};

bool loadModel(const std::string &Path, DecisionTreeModel &Out,
               std::string &Error) {
  std::string Text;
  if (!readFile(Path, Text)) {
    Error = "cannot read model " + Path;
    return false;
  }
  return DecisionTreeModel::parse(Text, Out, &Error);
}

/// One set-up: reads and validates the plan (fleets) and the model,
/// builds the observed workload's page assets, and builds a hub.
bool prepare(const Args &A, const std::string &PlanPath, Prepared &Out,
             std::string &Error) {
  if (A.Kind == WorkloadKind::Observed) {
    if (!loadModel(ModelPath, Out.Model, Error))
      return false;
    for (const std::string &App : ObservedApps)
      Out.Assets.push_back(buildPageAssets(App, ObservedPageSeed));
    Out.Hub = makeSessionHub(/*KeepLog=*/true);
    return true;
  }
  std::string Text;
  if (!readFile(PlanPath, Text)) {
    Error = "cannot read plan " + PlanPath;
    return false;
  }
  if (!FleetPlan::parse(Text, Out.Plan, &Error))
    return false;
  if (!Out.Plan.ModelPath.empty() &&
      !loadModel(Out.Plan.ModelPath, Out.Model, Error))
    return false;
  Out.Hub = makeSessionHub(/*KeepLog=*/false);
  return true;
}

/// Seconds of one set-up, from a block of set-ups timed whole: a set-up
/// lasts 10-1500 us, too short to time one at a time.
double timeSetupBlock(const Args &A, const std::string &PlanPath,
                      Checks &C) {
  // About 25 ms per block on the reference host.
  unsigned Reps = A.Kind == WorkloadKind::Observed    ? 16
                  : A.Kind == WorkloadKind::FleetFull ? 200
                                                      : 2000;
  double T0 = nowSeconds();
  for (unsigned R = 0; R < Reps; ++R) {
    Prepared P;
    std::string Error;
    if (!prepare(A, PlanPath, P, Error))
      C.expect(false, "set-up: " + Error);
  }
  return (nowSeconds() - T0) / double(Reps);
}

//===----------------------------------------------------------------------===//
// One round of a workload
//===----------------------------------------------------------------------===//

/// One observed session's paths and results.
struct ObservedSession {
  std::string App, Governor;
  std::string LogPath, TracePath, MetricsPath;
  ExperimentResult Result;
  size_t LogRecords = 0, EnergySamples = 0;
};

struct Round {
  uint64_t Attempted = 0, Failed = 0;
  double WallS = 0.0;          ///< Host seconds of the workload call.
  /// Host seconds of the call's timed parts (fleets: the whole call;
  /// observed: each session, in run order) mapped onto the reference
  /// host.
  std::vector<double> ScaledPartsS;
  double ExportS = 0.0;        ///< Artifact writing outside the sessions.
  uint64_t ArtifactBytes = 0;  ///< Every file the round wrote.
  /// Fleets: black-box files written for devices that later left the
  /// worst-k list, so that no report names them.
  uint64_t OrphanBytes = 0;
  double SimJoules = 0.0;      ///< Summed over completed sessions.
  double FrameP99Ms = 0.0;
  std::string Fingerprint;     ///< Fleets: report; observed: artifacts.
  uint64_t CheckpointBytes = 0;
  std::vector<ObservedSession> Sessions; ///< Observed only.
};

void clearWorkDir(const std::string &Dir) {
  std::error_code Ec;
  for (const auto &E : fs::directory_iterator(Dir, Ec))
    if (E.is_regular_file() && E.path().filename() != "plan.json")
      fs::remove(E.path(), Ec);
}

uint64_t workDirBytes(const std::string &Dir) {
  uint64_t Sum = 0;
  std::error_code Ec;
  for (const auto &E : fs::directory_iterator(Dir, Ec))
    if (E.is_regular_file() && E.path().filename() != "plan.json")
      Sum += fileBytes(E.path().string());
  return Sum;
}

/// Checks a fleet report against properties the fold must have. The
/// paper-shape energy order is the Sec. 7 claim recorded in
/// EXPERIMENTS.md.
void checkFleetReport(const Args &A, const json::Value &R, uint64_t Items,
                      Checks &C) {
  const json::Value *Pop = R.get("population");
  C.expect(Pop != nullptr, "report has a population section");
  if (!Pop)
    return;
  uint64_t Runs = uint64_t(Pop->numberOr("runs", -1));
  C.expect(uint64_t(R.numberOr("items_done", -1)) == Items &&
               uint64_t(R.numberOr("items_total", -1)) == Items &&
               Runs == Items,
           formatString("items_done == items_total == runs == %llu",
                        static_cast<unsigned long long>(Items)));
  for (const char *Key : {"by_app", "by_governor"}) {
    uint64_t Sum = 0;
    if (const json::Value *G = R.get(Key))
      for (const auto &[Name, V] : G->Obj)
        Sum += uint64_t(V.numberOr("runs", 0));
    C.expect(Sum == Runs, std::string("runs summed over ") + Key +
                              " equal the population runs");
  }
  uint64_t HistSum = 0;
  if (const json::Value *H = Pop->get("violation_pct_counts"))
    for (const json::Value &V : H->Arr)
      HistSum += uint64_t(V.Num);
  C.expect(HistSum == Runs, "violation histogram counts sum to runs");

  // Shard joules print with 4 decimals, as does the total: allow half a
  // unit in the last place per printed number.
  double ShardSum = 0.0;
  size_t Shards = 0;
  if (const json::Value *S = R.get("shards"))
    for (const json::Value &V : S->Arr) {
      ShardSum += V.numberOr("joules", 0.0);
      ++Shards;
    }
  double Total = Pop->numberOr("joules_total", -1.0);
  C.expect(std::fabs(ShardSum - Total) <= 0.5e-4 * double(Shards + 1),
           formatString("shard joules %.4f sum to joules_total %.4f",
                        ShardSum, Total));

  const json::Value *Warm = R.get("warm_pool");
  if (A.Kind == WorkloadKind::FleetCold)
    C.expect(Warm && Warm->numberOr("builds", -1) ==
                         Warm->numberOr("requests", -2),
             "fleet_cold: warm-pool builds equal requests");
  if (A.Kind == WorkloadKind::FleetFull) {
    const json::Value *G = R.get("by_governor");
    auto MeanJ = [G](const char *Name) {
      const json::Value *V = G ? G->get(Name) : nullptr;
      return V ? V->numberOr("mean_joules", -1.0) : -1.0;
    };
    double U = MeanJ(governors::GreenWebU), I = MeanJ(governors::GreenWebI),
           In = MeanJ(governors::Interactive), P = MeanJ(governors::Perf);
    C.expect(U > 0 && U <= I && I < In && In < P,
             formatString("mean joules order GreenWeb-U %.4f <= GreenWeb-I "
                          "%.4f < Interactive %.4f < Perf %.4f",
                          U, I, In, P));
  }
}

/// One workload call. With \p Speed, the call's wall time is also mapped
/// onto the reference host (Round::ScaledPartsS); the kernel runs outside the
/// timed spans.
Round runFleetRound(const Args &A, const Prepared &P, Checks &C,
                    HostSpeed *Speed) {
  Round R;
  clearWorkDir(A.Work);
  const uint64_t Items = P.Plan.items();
  R.Attempted = Items;
  FleetRunOptions Opts;
  Opts.Jobs = 1;
  Opts.CheckpointPath = A.Work + "/fleet.ckpt";
  const std::string ReportPath = A.Work + "/report.json";

  FleetRunSummary Summary;
  std::string Error;
  double T0 = nowSeconds();
  bool Ok = runFleet(P.Plan, Opts, Summary, &Error);
  double T1 = nowSeconds();
  bool Wrote = false;
  std::string Report;
  if (Ok) {
    Report = Summary.Report.toJson() + "\n";
    Wrote = writeFile(ReportPath, Report);
  }
  double T2 = nowSeconds();
  R.WallS = T2 - T0;
  R.ExportS = T2 - T1;
  if (Speed)
    R.ScaledPartsS.push_back(R.WallS * Speed->rescale());
  C.expect(Ok, "runFleet: " + Error);
  if (!Ok || !Summary.Complete) {
    R.Failed = Items - (Ok ? Summary.ItemsRun : 0);
    C.expect(Ok && Summary.Complete, "fleet run complete");
    return R;
  }
  R.Fingerprint = Report;

  // Artifacts: the checkpoint, the report and every black box the report
  // names must exist and hold bytes after the run.
  R.CheckpointBytes = fileBytes(Opts.CheckpointPath);
  C.expect(Wrote && fileBytes(ReportPath) == Report.size(),
           "report written in full");
  C.expect(R.CheckpointBytes > 0, "checkpoint written");
  std::optional<json::Value> Doc = json::parse(Report, &Error);
  C.expect(Doc.has_value(), "report parses: " + Error);
  if (!Doc)
    return R;
  uint64_t MissingBoxes = 0, BoxBytes = 0;
  if (const json::Value *W = Doc->get("worst_devices"))
    for (const json::Value &D : W->Arr) {
      std::string Ref = D.stringOr("black_box", "");
      if (Ref.empty())
        continue;
      uint64_t N =
          fileBytes(Opts.CheckpointPath + "." + Ref + ".blackbox.json");
      BoxBytes += N;
      MissingBoxes += N == 0;
    }
  C.expect(MissingBoxes == 0, "every named black box written");
  // A missing artifact fails the whole workload call.
  if (!Wrote || R.CheckpointBytes == 0 || MissingBoxes)
    R.Failed = Items;
  R.ArtifactBytes = workDirBytes(A.Work);
  R.OrphanBytes =
      R.ArtifactBytes - (R.CheckpointBytes + Report.size() + BoxBytes);

  checkFleetReport(A, *Doc, Items, C);
  const json::Value *Pop = Doc->get("population");
  R.SimJoules = Pop ? Pop->numberOr("joules_total", 0.0) : 0.0;
  const json::Value *Lat = Pop ? Pop->get("frame_latency_ms") : nullptr;
  R.FrameP99Ms = Lat ? Lat->numberOr("p99", 0.0) : 0.0;
  return R;
}

ExperimentConfig observedConfig(const Prepared &P, size_t AppIndex,
                                const std::string &Gov) {
  ExperimentConfig Cfg;
  Cfg.AppName = ObservedApps[AppIndex];
  Cfg.Mode = ExperimentMode::Full;
  Cfg.GovernorName = Gov;
  Cfg.Seed = ObservedPageSeed;
  Cfg.Warm = &P.Assets[AppIndex];
  Cfg.Model = &P.Model;
  return Cfg;
}

Round runObservedRound(const Args &A, const Prepared &P, Checks &C,
                       HostSpeed *Speed, bool Seeded) {
  Round R;
  clearWorkDir(A.Work);
  std::vector<double> FrameMs;
  for (const auto &[AI, Gov] : observedSessions(A.Seed, Seeded)) {
    ObservedSession S;
    S.App = ObservedApps[AI];
    S.Governor = Gov;
    std::string Base = A.Work + "/" + S.App + "-" + Gov;
    TelemetryArtifactOptions Out;
    Out.TracePath = S.TracePath = Base + ".trace.json";
    Out.LogPath = S.LogPath = Base + ".events.jsonl";
    Out.MetricsPath = S.MetricsPath = Base + ".metrics.json";
    Out.CommandLine = "gw-perfbench observed_session";
    ++R.Attempted;
    std::string Threw;
    double T0 = nowSeconds();
    try {
      std::unique_ptr<Telemetry> Hub = makeSessionHub(/*KeepLog=*/true);
      ExperimentConfig Cfg = observedConfig(P, AI, Gov);
      Cfg.Tel = Hub.get();
      Cfg.MeterSamplePeriod = Duration::milliseconds(1);
      S.Result = runExperiment(Cfg);
      double E0 = nowSeconds();
      writeTelemetryArtifacts(Out, *Hub);
      R.ExportS += nowSeconds() - E0;
      S.LogRecords = Hub->log().size();
      S.EnergySamples =
          Hub->log().byKind(TelemetryEventKind::EnergySample).size();
    } catch (const std::exception &E) {
      Threw = E.what();
    }
    // Sessions are timed one by one, so the host speed is sampled
    // every session rather than every round.
    double SessionS = nowSeconds() - T0;
    R.WallS += SessionS;
    if (Speed)
      R.ScaledPartsS.push_back(SessionS * Speed->rescale());
    if (!Threw.empty()) {
      C.expect(false, "session " + Base + " threw: " + Threw);
      ++R.Failed;
      continue;
    }
    // writeTelemetryArtifacts reports nothing back, so a missing or
    // empty file is detected here.
    bool Written = fileBytes(S.LogPath) && fileBytes(S.TracePath) &&
                   fileBytes(S.MetricsPath);
    C.expect(Written, "artifacts of " + Base + " written");
    if (!Written) {
      ++R.Failed;
      continue;
    }
    R.SimJoules += S.Result.TotalJoules;
    for (const EventMetrics &E : S.Result.Events)
      for (Duration D : E.FrameLatencies)
        FrameMs.push_back(D.millis());
    R.Sessions.push_back(std::move(S));
  }
  R.ArtifactBytes = workDirBytes(A.Work);
  R.FrameP99Ms = percentile(FrameMs, 0.99);
  return R;
}

/// Fingerprints the observed artifacts by content, in session-name
/// order, so rounds (and the traced against the untraced run) can be
/// compared byte for byte whatever order their sessions ran in.
void fingerprintObserved(Round &R) {
  std::vector<std::string> Lines;
  for (const ObservedSession &S : R.Sessions) {
    std::string Log, Trace, Metrics;
    readFile(S.LogPath, Log);
    readFile(S.TracePath, Trace);
    readFile(S.MetricsPath, Metrics);
    Lines.push_back(formatString(
        "%s|%s|%016llx|%016llx|%016llx\n", S.App.c_str(),
        S.Governor.c_str(), static_cast<unsigned long long>(fleetHash(Log)),
        static_cast<unsigned long long>(fleetHash(Trace)),
        static_cast<unsigned long long>(fleetHash(Metrics))));
  }
  std::sort(Lines.begin(), Lines.end());
  R.Fingerprint.clear();
  for (const std::string &L : Lines)
    R.Fingerprint += L;
}

/// \p Seeded false runs the observed sessions in app-major order.
Round runRound(const Args &A, const Prepared &P, Checks &C,
               HostSpeed *Speed = nullptr, bool Seeded = true) {
  if (A.Kind == WorkloadKind::Observed) {
    Round R = runObservedRound(A, P, C, Speed, Seeded);
    fingerprintObserved(R);
    return R;
  }
  return runFleetRound(A, P, C, Speed);
}

/// Deep checks of one observed round's artifacts: the log and trace
/// parse, the 1 ms energy samples integrate to each session's energy,
/// the sample count matches the measured window, and every governor
/// decision names the requested governor.
void checkObservedArtifacts(const Round &R, Checks &C) {
  for (const ObservedSession &S : R.Sessions) {
    const ExperimentResult &E = S.Result;
    const std::string Name = S.App + "/" + S.Governor;
    C.expect(std::fabs(E.TotalJoules - (E.BigJoules + E.LittleJoules)) <=
                 1e-9 * std::max(1.0, E.TotalJoules),
             Name + ": TotalJoules equals BigJoules + LittleJoules");

    std::ifstream In(S.LogPath, std::ios::binary);
    std::string Line;
    uint64_t Lines = 0, Samples = 0, BadLines = 0, WrongGov = 0;
    double RectJ = 0.0, LastCumJ = -1.0;
    while (std::getline(In, Line)) {
      ++Lines;
      std::optional<json::Value> V = json::parse(Line);
      if (!V || !V->isObject()) {
        ++BadLines;
        continue;
      }
      std::string Kind = V->stringOr("kind", "");
      if (Kind == "energy_sample") {
        // The closing sample marks the end of the window; each periodic
        // sample's watts stand for the millisecond that precedes it.
        ++Samples;
        double W = V->numberOr("watts", 0.0);
        if (Samples <= uint64_t(E.MeasuredSeconds * 1000.0 + 1e-6))
          RectJ += W * 1e-3;
        LastCumJ = V->numberOr("joules", -1.0);
      } else if (Kind == "governor_decision") {
        WrongGov += V->stringOr("governor", "") != S.Governor;
      }
    }
    C.expect(Lines > 1 && BadLines == 0,
             formatString("%s: log parses (%llu bad of %llu lines)",
                          Name.c_str(),
                          static_cast<unsigned long long>(BadLines),
                          static_cast<unsigned long long>(Lines)));
    C.expect(Lines == S.LogRecords + 1,
             Name + ": log holds the meta line plus every hub record");
    C.expect(WrongGov == 0,
             formatString("%s: %llu governor_decision records name another "
                          "governor",
                          Name.c_str(),
                          static_cast<unsigned long long>(WrongGov)));
    uint64_t Expected = uint64_t(E.MeasuredSeconds * 1000.0 + 1e-6) + 1;
    C.expect(Samples == Expected && Samples == S.EnergySamples,
             formatString("%s: %llu energy samples, expected %llu",
                          Name.c_str(),
                          static_cast<unsigned long long>(Samples),
                          static_cast<unsigned long long>(Expected)));
    C.expect(std::fabs(RectJ - E.TotalJoules) <= 0.01 * E.TotalJoules,
             formatString("%s: rectangle-rule energy %.6f J within 1%% of "
                          "TotalJoules %.6f J",
                          Name.c_str(), RectJ, E.TotalJoules));
    C.expect(std::fabs(LastCumJ - E.TotalJoules) <=
                 1e-6 * std::max(1.0, E.TotalJoules),
             Name + ": closing sample's joules equal TotalJoules");

    std::string Text;
    C.expect(readFile(S.TracePath, Text) && json::parse(Text).has_value(),
             Name + ": trace parses");
    C.expect(readFile(S.MetricsPath, Text) && json::parse(Text).has_value(),
             Name + ": metrics snapshot parses");
  }
}

//===----------------------------------------------------------------------===//
// Result line
//===----------------------------------------------------------------------===//

struct Metric {
  std::string Name, Unit;
  double Value = 0.0;
};

void printResult(const Checks &C, uint64_t Attempted, uint64_t Failed,
                 const std::vector<Metric> &Metrics) {
  std::string Out = formatString(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {",
      C.ok() ? "true" : "false", static_cast<unsigned long long>(Attempted),
      static_cast<unsigned long long>(Failed));
  for (size_t I = 0; I < Metrics.size(); ++I)
    Out += formatString("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                        I ? ", " : "", Metrics[I].Name.c_str(),
                        Metrics[I].Value, Metrics[I].Unit.c_str());
  std::printf("%s}}\n", Out.c_str());
  std::fflush(stdout);
}

//===----------------------------------------------------------------------===//
// --trace=0: end-to-end metrics
//===----------------------------------------------------------------------===//

int runEndToEnd(const Args &A, const std::string &PlanPath) {
  Checks C;
  Prepared P;
  std::string Error;
  if (!prepare(A, PlanPath, P, Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }

  // A warm-up round, untimed, fills caches and sets the high-water mark
  // before anything of the benchmark's own allocates: later rounds only
  // add allocator fragmentation, which would tie the figure to how many
  // rounds fit in the run. Its observed sessions run in one fixed order:
  // the peak moved from 106 to 132 MB with the order.
  std::vector<Round> Rounds;
  Rounds.push_back(runRound(A, P, C, nullptr, /*Seeded=*/false));
  double PeakMb = peakRssMb();

  // Set-up blocks run in threes before the first timed round and after
  // every round, each scaled by the reference kernel that just ran, so
  // their median spans the whole run rather than one moment of it.
  HostSpeed Speed;
  std::vector<double> SetupS, SetupRawS;
  auto TimeSetup = [&] {
    for (int B = 0; B < 3; ++B) {
      SetupRawS.push_back(timeSetupBlock(A, PlanPath, C));
      SetupS.push_back(SetupRawS.back() * RefNominalS / Speed.lastKernelS());
    }
  };
  TimeSetup();

  std::vector<double> RawRates;
  double Start = nowSeconds();
  do {
    Rounds.push_back(runRound(A, P, C, &Speed));
    TimeSetup();
    const Round &R = Rounds.back();
    double Done = double(R.Attempted - R.Failed);
    double ScaledS = 0.0;
    for (double S : R.ScaledPartsS)
      ScaledS += S;
    RawRates.push_back(Done / R.WallS);
    std::fprintf(stderr,
                 "round %zu: %llu sessions, wall %.4f s (export %.4f s), "
                 "reference kernel %.4f s, %.2f sessions/s (%.2f unscaled)\n",
                 Rounds.size() - 1,
                 static_cast<unsigned long long>(R.Attempted), R.WallS,
                 R.ExportS, Speed.lastKernelS(), Done / ScaledS,
                 RawRates.back());
  } while (nowSeconds() - Start < A.Seconds);
  std::fprintf(stderr, "set-up %.6g s unscaled; median %.4f sessions/s "
                       "unscaled\n",
               median(SetupRawS), median(RawRates));

  // A round's time is the sum of its parts' median scaled times over the
  // timed rounds: one part for a fleet call, one per observed session, so
  // a session slowed by the host is replaced by its own typical time.
  double MedianRoundS = 0.0;
  for (size_t Part = 0; Part < Rounds.back().ScaledPartsS.size(); ++Part) {
    std::vector<double> Times;
    for (size_t I = 1; I < Rounds.size(); ++I)
      if (Part < Rounds[I].ScaledPartsS.size())
        Times.push_back(Rounds[I].ScaledPartsS[Part]);
    MedianRoundS += median(Times);
  }

  uint64_t Attempted = 0, Failed = 0;
  for (const Round &R : Rounds) {
    Attempted += R.Attempted;
    Failed += R.Failed;
    // Same inputs, same outputs: every round must reproduce the first.
    C.expect(R.Fingerprint == Rounds.front().Fingerprint,
             "round output identical to the first round's");
  }
  const Round &Last = Rounds.back();
  if (A.Kind == WorkloadKind::Observed)
    checkObservedArtifacts(Last, C);
  uint64_t Done = Last.Attempted - Last.Failed;

  printResult(
      C, Attempted, Failed,
      {{"sessions_per_s", "1/s", double(Done) / MedianRoundS},
       {"setup_s", "s", median(SetupS)},
       {"peak_rss_mb", "MB", PeakMb},
       {"artifact_mb", "MB", double(Last.ArtifactBytes) / 1e6},
       {"sim_joules_per_session", "J",
        Done ? Last.SimJoules / double(Done) : 0.0},
       {"sim_frame_p99_ms", "sim_ms", Last.FrameP99Ms}});
  return 0;
}

//===----------------------------------------------------------------------===//
// --trace=1: per-layer metrics
//===----------------------------------------------------------------------===//

std::vector<std::string> splitPath(const std::string &Path) {
  std::vector<std::string> Parts;
  size_t Begin = 0;
  while (true) {
    size_t End = Path.find(';', Begin);
    Parts.push_back(Path.substr(Begin, End - Begin));
    if (End == std::string::npos)
      return Parts;
    Begin = End + 1;
  }
}

struct ScopeSum {
  double InclS = 0.0, SelfS = 0.0;
  uint64_t Count = 0;
};

/// Totals of scope \p Name. Inclusive time and calls count only its
/// outermost occurrences (a recursive scope is not counted twice); self
/// time sums over every occurrence.
ScopeSum scopeSum(const prof::Profile &P, const std::string &Name) {
  ScopeSum S;
  for (const prof::ProfileNode &N : P.Nodes) {
    if (N.Name != Name)
      continue;
    S.SelfS += double(N.SelfNs) * 1e-9;
    std::vector<std::string> Parts = splitPath(N.Path);
    if (std::count(Parts.begin(), Parts.end() - 1, Name) == 0) {
      S.InclS += double(N.InclNs) * 1e-9;
      S.Count += N.Count;
    }
  }
  return S;
}

/// Counts from a plain pass: the workload's sessions without any hub.
struct PlainPass {
  double SessionS = 0.0; ///< Profiled workloads.experiment time.
  uint64_t Frames = 0, FreqSwitches = 0, Migrations = 0, Injections = 0;
  uint64_t Decisions = 0;
  double SimulatedS = 0.0;
};

std::vector<ExperimentConfig> plainConfigs(const Args &A, const Prepared &P,
                                           WarmCache &Cache) {
  std::vector<ExperimentConfig> Out;
  if (A.Kind == WorkloadKind::Observed) {
    for (const auto &[AI, Gov] : observedSessions(A.Seed, /*Seeded=*/true))
      Out.push_back(observedConfig(P, AI, Gov));
    return Out;
  }
  for (uint64_t I = 0; I < P.Plan.items(); ++I) {
    Out.push_back(P.Plan.config(P.Plan.item(I)));
    Out.back().WarmPool = &Cache;
  }
  return Out;
}

PlainPass runPlainPass(const Args &A, const Prepared &P) {
  PlainPass Out;
  WarmCache Cache;
  std::vector<ExperimentConfig> Configs = plainConfigs(A, P, Cache);
  prof::reset();
  prof::start();
  for (const ExperimentConfig &Cfg : Configs) {
    ExperimentResult R = runExperiment(Cfg);
    Out.Frames += R.Frames;
    Out.FreqSwitches += R.FreqSwitches;
    Out.Migrations += R.Migrations;
    Out.Injections += R.Faults.total();
    Out.Decisions +=
        R.RuntimeStats.ProfilingFrames + R.RuntimeStats.PredictedFrames;
    Out.SimulatedS += R.MeasuredSeconds;
  }
  prof::stop();
  Out.SessionS = scopeSum(prof::collect(), "workloads.experiment").InclS;
  prof::reset();
  return Out;
}

/// Times the public HTML and MiniScript parsers on every distinct page
/// source of the workload (median of 3 passes per page).
void timeParsers(const Args &A, const Prepared &P, double &HtmlS,
                 double &JsS) {
  std::vector<std::pair<std::string, uint64_t>> Pages;
  if (A.Kind == WorkloadKind::Observed) {
    for (const std::string &App : ObservedApps)
      Pages.push_back({App, ObservedPageSeed});
  } else {
    for (uint64_t I = 0; I < P.Plan.items(); ++I) {
      FleetPlanItem It = P.Plan.item(I);
      Pages.push_back({It.App, It.Seed});
    }
    std::sort(Pages.begin(), Pages.end());
    Pages.erase(std::unique(Pages.begin(), Pages.end()), Pages.end());
  }
  HtmlS = JsS = 0.0;
  for (const auto &[App, Seed] : Pages) {
    std::string Html = makeApp(App, Seed).Html;
    std::vector<double> H, J;
    for (int Pass = 0; Pass < 3; ++Pass) {
      double T0 = nowSeconds();
      html::ParseResult Doc = html::parseHtml(Html);
      double T1 = nowSeconds();
      for (const std::string &Script : Doc.Doc->ScriptTexts)
        js::parseProgram(Script);
      double T2 = nowSeconds();
      H.push_back(T1 - T0);
      J.push_back(T2 - T1);
    }
    HtmlS += median(H);
    JsS += median(J);
  }
}

/// Per-layer figures of one traced round; see README for each name.
std::map<std::string, double> layerFigures(const prof::Profile &Prof,
                                           const Round &R, double WallS,
                                           Checks &C) {
  std::map<std::string, double> M;
  ScopeSum Session = scopeSum(Prof, "workloads.experiment");
  ScopeSum Builds = scopeSum(Prof, "workloads.build_assets");
  M["workloads.session_s"] = Session.InclS;
  M["workloads.fleet_outside_s"] = WallS - Session.InclS;
  M["workloads.build_assets_s"] = Builds.InclS;
  M["workloads.page_builds"] = double(Builds.Count);
  M["workloads.warm_hit_ratio"] =
      R.Attempted ? 1.0 - double(Builds.Count) / double(R.Attempted) : 0.0;
  M["sim.run_until_self_s"] = scopeSum(Prof, "sim.run_until").SelfS;
  M["sim.start_task_s"] = scopeSum(Prof, "sim.thread.start_task").InclS;
  M["sim.calendar_advance_s"] = scopeSum(Prof, "sim.calendar.advance").InclS;
  M["browser.pipeline_stage_s"] =
      scopeSum(Prof, "browser.pipeline_stage").InclS;
  M["browser.vsync_s"] = scopeSum(Prof, "browser.vsync").InclS;
  M["browser.dispatch_input_s"] =
      scopeSum(Prof, "browser.dispatch_input").InclS;
  M["browser.capture_snapshot_s"] =
      scopeSum(Prof, "browser.capture_snapshot").InclS;
  M["browser.load_snapshot_s"] = scopeSum(Prof, "browser.load_snapshot").InclS;
  ScopeSum Match = scopeSum(Prof, "css.match_indexed");
  M["css.match_indexed_s"] = Match.InclS;
  M["css.match_indexed_calls"] = double(Match.Count);
  M["css.build_index_s"] = scopeSum(Prof, "css.build_index").InclS;
  M["greenweb.on_frame_s"] = scopeSum(Prof, "governor.on_frame").InclS;
  M["greenweb.apply_config_s"] =
      scopeSum(Prof, "governor.apply_config").InclS;
  M["telemetry.export_s"] = R.ExportS;
  M["profiling.unscoped_pct"] =
      Session.InclS > 0 ? 100.0 * Session.SelfS / Session.InclS : 0.0;

  // Reconciliation: self times partition the instrumented time, and the
  // instrumented time (root scopes) fits inside the wall time; what the
  // roots leave uncovered is the unattributed share.
  double RootIncl = 0.0, AllSelf = 0.0;
  std::map<std::string, double> ByModule;
  for (const prof::ProfileNode &N : Prof.Nodes) {
    if (N.Depth == 0)
      RootIncl += double(N.InclNs) * 1e-9;
    AllSelf += double(N.SelfNs) * 1e-9;
    ByModule[N.Name.substr(0, N.Name.find('.'))] += double(N.SelfNs) * 1e-9;
  }
  double Unattributed = WallS - RootIncl;
  std::string Line = "layer self time:";
  for (const auto &[Module, S] : ByModule)
    Line += formatString(" %s %.4f s,", Module.c_str(), S);
  std::fprintf(stderr, "%s unattributed %.4f s, wall %.4f s\n", Line.c_str(),
               Unattributed, WallS);
  C.expect(std::fabs(AllSelf + Unattributed - WallS) <= 0.005 * WallS &&
               Unattributed >= -0.001 * WallS,
           formatString("layer self times %.4f s + unattributed %.4f s "
                        "reconcile to wall %.4f s",
                        AllSelf, Unattributed, WallS));
  return M;
}

int runTraced(const Args &A, const std::string &PlanPath) {
  Checks C;
  Prepared P;
  std::string Error;
  if (!prepare(A, PlanPath, P, Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }

  // One untraced round: the reference output and wall time.
  Round Untraced = runRound(A, P, C);
  uint64_t Attempted = Untraced.Attempted, Failed = Untraced.Failed;
  if (A.Kind == WorkloadKind::Observed)
    checkObservedArtifacts(Untraced, C);
  PlainPass Plain = runPlainPass(A, P);

  // Traced rounds until the time budget is spent; per-layer times are
  // medians over them. The observed workload's page builds happen in
  // set-up, so its traced span covers a set-up as well.
  std::vector<std::map<std::string, double>> PerRound;
  std::vector<double> TracedWalls;
  Round Traced;
  double Start = nowSeconds();
  do {
    prof::reset();
    prof::start();
    double T0 = nowSeconds();
    Prepared TracedPrep;
    if (A.Kind == WorkloadKind::Observed &&
        !prepare(A, PlanPath, TracedPrep, Error))
      C.expect(false, "set-up: " + Error);
    double SetupSpanS = nowSeconds() - T0;
    Traced = runRound(A, A.Kind == WorkloadKind::Observed ? TracedPrep : P,
                      C);
    prof::stop();
    prof::Profile Prof = prof::collect();
    Attempted += Traced.Attempted;
    Failed += Traced.Failed;
    C.expect(Traced.Fingerprint == Untraced.Fingerprint,
             "traced output byte-identical to the untraced run's");
    TracedWalls.push_back(Traced.WallS);
    std::map<std::string, double> M =
        layerFigures(Prof, Traced, SetupSpanS + Traced.WallS, C);
    // The round's own outside-session time excludes the set-up span.
    M["workloads.fleet_outside_s"] -= SetupSpanS;
    PerRound.push_back(std::move(M));
  } while (nowSeconds() - Start < A.Seconds);
  prof::reset();

  std::map<std::string, double> Layers;
  for (const auto &[Name, V] : PerRound.front()) {
    std::vector<double> Vals;
    for (const auto &M : PerRound)
      Vals.push_back(M.at(Name));
    Layers[Name] = median(Vals);
  }
  double HtmlS = 0, JsS = 0;
  timeParsers(A, P, HtmlS, JsS);

  uint64_t LogRecords = 0, EnergySamples = 0, LogBytes = 0, TraceBytes = 0;
  for (const ObservedSession &S : Traced.Sessions) {
    LogRecords += S.LogRecords;
    EnergySamples += S.EnergySamples;
    LogBytes += fileBytes(S.LogPath);
    TraceBytes += fileBytes(S.TracePath);
  }

  std::vector<Metric> Out = {
      {"workloads.session_s", "s", Layers["workloads.session_s"]},
      {"workloads.fleet_outside_s", "s", Layers["workloads.fleet_outside_s"]},
      {"workloads.build_assets_s", "s", Layers["workloads.build_assets_s"]},
      {"workloads.page_builds", "count", Layers["workloads.page_builds"]},
      {"workloads.warm_hit_ratio", "ratio", Layers["workloads.warm_hit_ratio"]},
      {"workloads.checkpoint_mb", "MB", double(Traced.CheckpointBytes) / 1e6},
      {"workloads.orphan_blackbox_mb", "MB", double(Traced.OrphanBytes) / 1e6},
      {"telemetry.hub_cost_s", "s",
       Layers["workloads.session_s"] - Plain.SessionS},
      {"telemetry.export_s", "s", Layers["telemetry.export_s"]},
      {"telemetry.log_records", "count", double(LogRecords)},
      {"telemetry.energy_sample_records", "count", double(EnergySamples)},
      {"telemetry.log_mb", "MB", double(LogBytes) / 1e6},
      {"telemetry.trace_mb", "MB", double(TraceBytes) / 1e6},
      {"sim.run_until_self_s", "s", Layers["sim.run_until_self_s"]},
      {"sim.start_task_s", "s", Layers["sim.start_task_s"]},
      {"sim.calendar_advance_s", "s", Layers["sim.calendar_advance_s"]},
      {"sim.simulated_s", "sim_s", Plain.SimulatedS},
      {"browser.pipeline_stage_s", "s", Layers["browser.pipeline_stage_s"]},
      {"browser.vsync_s", "s", Layers["browser.vsync_s"]},
      {"browser.dispatch_input_s", "s", Layers["browser.dispatch_input_s"]},
      {"browser.frames", "count", double(Plain.Frames)},
      {"browser.capture_snapshot_s", "s", Layers["browser.capture_snapshot_s"]},
      {"browser.load_snapshot_s", "s", Layers["browser.load_snapshot_s"]},
      {"css.match_indexed_s", "s", Layers["css.match_indexed_s"]},
      {"css.match_indexed_calls", "count", Layers["css.match_indexed_calls"]},
      {"css.build_index_s", "s", Layers["css.build_index_s"]},
      {"html.parse_s", "s", HtmlS},
      {"js.parse_s", "s", JsS},
      {"greenweb.on_frame_s", "s", Layers["greenweb.on_frame_s"]},
      {"greenweb.apply_config_s", "s", Layers["greenweb.apply_config_s"]},
      {"greenweb.decisions", "count", double(Plain.Decisions)},
      {"hw.freq_switches", "count", double(Plain.FreqSwitches)},
      {"hw.migrations", "count", double(Plain.Migrations)},
      {"faults.injections", "count", double(Plain.Injections)},
      {"profiling.unscoped_pct", "%", Layers["profiling.unscoped_pct"]},
      {"profiling.overhead_pct", "%",
       100.0 * (median(TracedWalls) / Untraced.WallS - 1.0)},
  };
  printResult(C, Attempted, Failed, Out);
  return 0;
}

//===----------------------------------------------------------------------===//
// main
//===----------------------------------------------------------------------===//

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s --workload=fleet_full|fleet_cold|observed_session "
               "--seed=N --seconds=S --trace=0|1 --work=DIR\n",
               Argv0);
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto Value = [&Arg](const char *Prefix) -> const char * {
      size_t N = std::strlen(Prefix);
      return Arg.compare(0, N, Prefix) == 0 ? Arg.c_str() + N : nullptr;
    };
    if (const char *V = Value("--workload="))
      A.Workload = V;
    else if (const char *V = Value("--seed="))
      A.Seed = std::strtoull(V, nullptr, 10);
    else if (const char *V = Value("--seconds="))
      A.Seconds = std::atof(V);
    else if (const char *V = Value("--trace="))
      A.Trace = std::string(V) == "1";
    else if (const char *V = Value("--work="))
      A.Work = V;
    else {
      std::fprintf(stderr, "error: unknown flag %s\n", Arg.c_str());
      return usage(Argv[0]);
    }
  }
  if (A.Workload == "fleet_full")
    A.Kind = WorkloadKind::FleetFull;
  else if (A.Workload == "fleet_cold")
    A.Kind = WorkloadKind::FleetCold;
  else if (A.Workload == "observed_session")
    A.Kind = WorkloadKind::Observed;
  else
    return usage(Argv[0]);
  if (A.Work.empty() || !(A.Seconds > 0))
    return usage(Argv[0]);

  std::error_code Ec;
  fs::create_directories(A.Work, Ec);
  std::string PlanPath = A.Work + "/plan.json";
  if (A.Kind != WorkloadKind::Observed &&
      !writeFile(PlanPath, fleetPlanText(A))) {
    std::fprintf(stderr, "error: cannot write %s\n", PlanPath.c_str());
    return 1;
  }
  return A.Trace ? runTraced(A, PlanPath) : runEndToEnd(A, PlanPath);
}
