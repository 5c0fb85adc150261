//===- tests/workloads/FleetRunnerTest.cpp - fleet run tests --------------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "workloads/FleetRunner.h"

#include "support/StringUtils.h"
#include "telemetry/FlightRecorder.h"
#include "telemetry/Telemetry.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

using namespace greenweb;

namespace {

FleetPlan smallPlan() {
  FleetPlan Plan;
  Plan.Name = "unit";
  Plan.Mode = ExperimentMode::Micro;
  Plan.Apps = {"BBC", "Todo"};
  Plan.Governors = {governors::Perf, governors::GreenWebI};
  Plan.Seeds = {1};
  Plan.Scenarios = {"none", "thermal"};
  Plan.Replicas = 2;
  Plan.MicroRepetitions = 2;
  Plan.BaselineGovernor = governors::Perf;
  return Plan;
}

/// Chaos runs alert and leave black boxes. With the milder app first,
/// the later BBC batches (batch size 4) push the Todo devices boxed in
/// the first two batches out of the 8-device worst list.
FleetPlan displacingPlan() {
  FleetPlan Plan = smallPlan();
  Plan.Apps = {"Todo", "BBC"};
  Plan.Scenarios = {"none", "chaos"};
  return Plan;
}

std::string tempPath(const char *Name) {
  return testing::TempDir() + "gw_fleet_" + Name;
}

std::string slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

const char BlackBoxSuffix[] = ".blackbox.json";

/// Refs of the black-box files on disk next to checkpoint \p Ckpt.
std::set<std::string> blackBoxesOnDisk(const std::string &Ckpt) {
  namespace fs = std::filesystem;
  fs::path Path(Ckpt);
  std::string Prefix = Path.filename().string() + ".";
  std::string Suffix = BlackBoxSuffix;
  std::set<std::string> Refs;
  for (const fs::directory_entry &E :
       fs::directory_iterator(Path.parent_path())) {
    std::string Name = E.path().filename().string();
    if (Name.size() > Prefix.size() + Suffix.size() &&
        Name.compare(0, Prefix.size(), Prefix) == 0 &&
        Name.compare(Name.size() - Suffix.size(), Suffix.size(), Suffix) == 0)
      Refs.insert(Name.substr(Prefix.size(),
                              Name.size() - Prefix.size() - Suffix.size()));
  }
  return Refs;
}

/// Black-box refs the report's worst-device list names.
std::set<std::string> reportedBlackBoxes(const FleetReport &R) {
  std::set<std::string> Refs;
  for (const FleetWorstDevice &D : R.State.Worst)
    if (!D.BlackBoxRef.empty())
      Refs.insert(D.BlackBoxRef);
  return Refs;
}

/// Removes checkpoint \p Ckpt and every black box next to it.
void removeFleetArtifacts(const std::string &Ckpt) {
  for (const std::string &Ref : blackBoxesOnDisk(Ckpt))
    std::remove((Ckpt + "." + Ref + BlackBoxSuffix).c_str());
  std::remove(Ckpt.c_str());
}

TEST(FleetPlanTest, ExpansionDecodesEveryDimension) {
  FleetPlan Plan = smallPlan();
  EXPECT_EQ(Plan.items(), 2u * 2 * 1 * 2 * 2);
  // App-major nesting: the last dimension (replica) varies fastest.
  FleetPlanItem First = Plan.item(0);
  EXPECT_EQ(First.App, "BBC");
  EXPECT_EQ(First.Governor, governors::Perf);
  EXPECT_EQ(First.Scenario, "none");
  EXPECT_EQ(First.Replica, 0u);
  FleetPlanItem Second = Plan.item(1);
  EXPECT_EQ(Second.Replica, 1u);
  EXPECT_EQ(Second.Scenario, "none");
  FleetPlanItem Last = Plan.item(Plan.items() - 1);
  EXPECT_EQ(Last.App, "Todo");
  EXPECT_EQ(Last.Governor, governors::GreenWebI);
  EXPECT_EQ(Last.Scenario, "thermal");
  EXPECT_EQ(Last.Replica, 1u);

  // Replicas share the page seed but diverge in the fault seed.
  EXPECT_EQ(First.warmKey(), Second.warmKey());
  EXPECT_NE(First.faultSeed(), Second.faultSeed());
}

TEST(FleetPlanTest, ParseValidatesNames) {
  FleetPlan Plan;
  std::string Error;
  EXPECT_FALSE(FleetPlan::parse(
      R"({"apps":["NoSuchApp"],"governors":["Perf"],"seeds":[1]})", Plan,
      &Error));
  EXPECT_NE(Error.find("unknown app"), std::string::npos) << Error;
  EXPECT_FALSE(FleetPlan::parse(
      R"({"apps":["BBC"],"governors":["Turbo"],"seeds":[1]})", Plan,
      &Error));
  EXPECT_NE(Error.find("unknown governor"), std::string::npos) << Error;
  EXPECT_FALSE(FleetPlan::parse(
      R"({"apps":["BBC"],"governors":["Perf"],"seeds":[1],)"
      R"("scenarios":["gremlins"]})",
      Plan, &Error));
  EXPECT_NE(Error.find("unknown fault scenario"), std::string::npos)
      << Error;
  EXPECT_TRUE(FleetPlan::parse(
      R"({"apps":["BBC"],"governors":["Perf","GreenWeb-I"],"seeds":[1],)"
      R"("scenarios":["none","chaos"],"replicas":2})",
      Plan, &Error))
      << Error;
  EXPECT_EQ(Plan.BaselineGovernor, governors::Perf);
  EXPECT_EQ(Plan.items(), 8u);
}

TEST(FleetPlanTest, ParseRejectsOutOfRangeNumbers) {
  struct Case {
    const char *Fields;
    const char *Field;
  };
  const Case Cases[] = {
      {R"("seeds":[1],"replicas":-3)", "'replicas'"},
      {R"("seeds":[1],"replicas":1e18)", "'replicas'"},
      {R"("seeds":[1],"replicas":2.5)", "'replicas'"},
      {R"("seeds":[1],"replicas":0)", "'replicas'"},
      {R"("seeds":[1],"replicas":1e999)", "'replicas'"},
      {R"("seeds":[1],"micro_repetitions":-1)", "'micro_repetitions'"},
      {R"("seeds":[1],"micro_repetitions":4294967296)",
       "'micro_repetitions'"},
      {R"("seeds":[-1])", "'seeds'"},
      {R"("seeds":[1.5])", "'seeds'"},
      {R"("seeds":[1e300])", "'seeds'"},
      {R"("seeds":["7"])", "'seeds'"},
  };
  for (const Case &C : Cases) {
    FleetPlan Plan;
    std::string Error;
    std::string Text =
        std::string(R"({"apps":["BBC"],"governors":["Perf"],)") + C.Fields +
        "}";
    EXPECT_FALSE(FleetPlan::parse(Text, Plan, &Error)) << Text;
    EXPECT_NE(Error.find(std::string("plan field ") + C.Field),
              std::string::npos)
        << Text << ": " << Error;
  }

  // The largest values that still fit are accepted as given.
  FleetPlan Plan;
  std::string Error;
  ASSERT_TRUE(FleetPlan::parse(
      R"({"apps":["BBC"],"governors":["Perf"],"seeds":[0,9007199254740992],)"
      R"("replicas":4294967295,"micro_repetitions":1})",
      Plan, &Error))
      << Error;
  EXPECT_EQ(Plan.Seeds, (std::vector<uint64_t>{0, uint64_t(1) << 53}));
  EXPECT_EQ(Plan.Replicas, 4294967295u);
  EXPECT_EQ(Plan.MicroRepetitions, 1u);
}

TEST(FleetPlanTest, CanonicalJsonHashIsStable) {
  FleetPlan A = smallPlan();
  FleetPlan B = smallPlan();
  EXPECT_EQ(A.toJson(), B.toJson());
  EXPECT_EQ(A.hash(), B.hash());
  B.Seeds = {2};
  EXPECT_NE(A.hash(), B.hash());
}

TEST(FleetRunnerTest, KillAndResumeIsByteIdentical) {
  FleetPlan Plan = smallPlan();
  std::string PathA = tempPath("straight.ckpt");
  std::string PathB = tempPath("resumed.ckpt");
  std::remove(PathA.c_str());
  std::remove(PathB.c_str());

  FleetRunOptions Base;
  Base.Jobs = 2;
  Base.BatchSize = 3; // Uneven batches exercise the tail shard.
  std::string Error;

  // Uninterrupted run.
  FleetRunOptions OptsA = Base;
  OptsA.CheckpointPath = PathA;
  FleetRunSummary A;
  ASSERT_TRUE(runFleet(Plan, OptsA, A, &Error)) << Error;
  ASSERT_TRUE(A.Complete);
  EXPECT_EQ(A.ItemsRun, Plan.items());

  // "Killed" after two batches, then resumed to completion.
  FleetRunOptions OptsB = Base;
  OptsB.CheckpointPath = PathB;
  OptsB.MaxBatches = 2;
  FleetRunSummary B1;
  ASSERT_TRUE(runFleet(Plan, OptsB, B1, &Error)) << Error;
  EXPECT_FALSE(B1.Complete);
  EXPECT_EQ(B1.ItemsRun, 6u);
  OptsB.MaxBatches = 0;
  OptsB.Resume = true;
  FleetRunSummary B2;
  ASSERT_TRUE(runFleet(Plan, OptsB, B2, &Error)) << Error;
  ASSERT_TRUE(B2.Complete);
  EXPECT_EQ(B2.ItemsSkipped, 6u);
  EXPECT_EQ(B2.ItemsRun, Plan.items() - 6u);

  // The whole durable artifact — folded state, bitmap, embedded report
  // — is byte-identical, and so is the derived report document.
  EXPECT_EQ(slurp(PathA), slurp(PathB));
  EXPECT_EQ(A.Report.toJson(), B2.Report.toJson());
  EXPECT_EQ(A.Report.format(), B2.Report.format());
}

TEST(FleetRunnerTest, ResumeRejectsCorruptAndForeignCheckpoints) {
  FleetPlan Plan = smallPlan();
  std::string Path = tempPath("corrupt.ckpt");

  FleetRunOptions Opts;
  Opts.Jobs = 1;
  Opts.BatchSize = 4;
  Opts.CheckpointPath = Path;
  Opts.MaxBatches = 1;
  FleetRunSummary S;
  std::string Error;
  ASSERT_TRUE(runFleet(Plan, Opts, S, &Error)) << Error;

  // Truncate the checkpoint mid-document: load must refuse.
  std::string Text = slurp(Path);
  ASSERT_FALSE(Text.empty());
  {
    std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
    Out << Text.substr(0, Text.size() - 20);
  }
  Opts.Resume = true;
  Opts.MaxBatches = 0;
  EXPECT_FALSE(runFleet(Plan, Opts, S, &Error));
  EXPECT_FALSE(Error.empty());

  // Flip one byte (same length): the checksum must catch it.
  {
    std::string Flipped = Text;
    size_t Pos = Flipped.find("\"plan_name\":\"unit\"");
    ASSERT_NE(Pos, std::string::npos);
    Flipped[Pos + 13] = 'U';
    std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
    Out << Flipped;
  }
  EXPECT_FALSE(runFleet(Plan, Opts, S, &Error));
  EXPECT_NE(Error.find("corrupt"), std::string::npos) << Error;

  // A checkpoint from a different plan is refused by hash.
  {
    std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
    Out << Text;
  }
  FleetPlan Other = Plan;
  Other.Seeds = {5};
  EXPECT_FALSE(runFleet(Other, Opts, S, &Error));
  EXPECT_NE(Error.find("different plan"), std::string::npos) << Error;

  // And resuming a missing file is an error, not a silent fresh start.
  std::remove(Path.c_str());
  EXPECT_FALSE(runFleet(Plan, Opts, S, &Error));
  EXPECT_NE(Error.find("cannot read"), std::string::npos) << Error;
}

TEST(FleetRunnerTest, WarmPoolHitRateReflectsPlanStructure) {
  FleetPlan Plan = smallPlan();
  FleetRunOptions Opts;
  Opts.Jobs = 1;
  Opts.BatchSize = 16;
  FleetRunSummary S;
  std::string Error;
  ASSERT_TRUE(runFleet(Plan, Opts, S, &Error)) << Error;
  // 2 apps x 1 seed = 2 distinct warm keys over 16 runs.
  EXPECT_EQ(S.Report.State.WarmKeys.size(), 2u);
  EXPECT_EQ(S.Report.State.Agg.runs(), Plan.items());
}

TEST(FleetRunnerTest, OnlyReportedBlackBoxesStayOnDisk) {
  FleetPlan Plan = displacingPlan();
  std::string PathA = tempPath("bb_straight.ckpt");
  std::string PathB = tempPath("bb_resumed.ckpt");
  removeFleetArtifacts(PathA);
  removeFleetArtifacts(PathB);

  FleetRunOptions Base;
  Base.Jobs = 2;
  Base.BatchSize = 4;
  std::string Error;

  FleetRunOptions OptsA = Base;
  OptsA.CheckpointPath = PathA;
  FleetRunSummary A;
  ASSERT_TRUE(runFleet(Plan, OptsA, A, &Error)) << Error;
  ASSERT_TRUE(A.Complete);
  std::set<std::string> Named = reportedBlackBoxes(A.Report);
  EXPECT_FALSE(Named.empty());
  EXPECT_EQ(blackBoxesOnDisk(PathA), Named);

  // Killed after two batches: the partial report's black boxes are
  // exactly the ones on disk.
  FleetRunOptions OptsB = Base;
  OptsB.CheckpointPath = PathB;
  OptsB.MaxBatches = 2;
  FleetRunSummary B1;
  ASSERT_TRUE(runFleet(Plan, OptsB, B1, &Error)) << Error;
  ASSERT_FALSE(B1.Complete);
  std::set<std::string> Early = reportedBlackBoxes(B1.Report);
  EXPECT_EQ(blackBoxesOnDisk(PathB), Early);

  OptsB.MaxBatches = 0;
  OptsB.Resume = true;
  FleetRunSummary B2;
  ASSERT_TRUE(runFleet(Plan, OptsB, B2, &Error)) << Error;
  ASSERT_TRUE(B2.Complete);
  EXPECT_EQ(reportedBlackBoxes(B2.Report), Named);
  EXPECT_EQ(blackBoxesOnDisk(PathB), Named);

  // The plan really displaces a black-boxed device after the kill.
  bool Displaced = false;
  for (const std::string &Ref : Early)
    Displaced |= Named.count(Ref) == 0;
  EXPECT_TRUE(Displaced);

  // Straight and resumed black boxes are byte-identical.
  for (const std::string &Ref : Named)
    EXPECT_EQ(slurp(PathA + "." + Ref + BlackBoxSuffix),
              slurp(PathB + "." + Ref + BlackBoxSuffix))
        << Ref;
  removeFleetArtifacts(PathA);
  removeFleetArtifacts(PathB);
}

TEST(FleetRunnerTest, FailedCheckpointKeepsNamedBlackBoxes) {
  // A displaced device's black box is deleted only after a checkpoint
  // that no longer names it is on disk. When that write fails, every
  // black box the previous checkpoint names must still exist, so a
  // resume from it finds them all.
  FleetPlan Plan = displacingPlan();
  std::string Path = tempPath("bb_failed_ckpt.ckpt");
  removeFleetArtifacts(Path);
  FleetRunOptions Opts;
  Opts.Jobs = 2;
  Opts.BatchSize = 4;
  Opts.CheckpointPath = Path;
  Opts.MaxBatches = 2;
  FleetRunSummary S;
  std::string Error;
  ASSERT_TRUE(runFleet(Plan, Opts, S, &Error)) << Error;
  std::set<std::string> Named = reportedBlackBoxes(S.Report);
  ASSERT_FALSE(Named.empty());

  // A directory in place of the checkpoint's temporary file makes the
  // next checkpoint write fail.
  std::string Blocker = Path + ".tmp";
  std::filesystem::create_directories(Blocker);
  Opts.MaxBatches = 0;
  Opts.Resume = true;
  EXPECT_FALSE(runFleet(Plan, Opts, S, &Error));
  std::filesystem::remove_all(Blocker);
  std::set<std::string> OnDisk = blackBoxesOnDisk(Path);
  for (const std::string &Ref : Named)
    EXPECT_EQ(OnDisk.count(Ref), 1u) << Ref;
  removeFleetArtifacts(Path);
}

TEST(FleetRunnerTest, UnwritableBlackBoxFailsTheRun) {
  // A black box the report would name but that cannot be written must
  // fail the run, as a failed checkpoint write does. A directory where
  // each file's temporary sibling should go makes every write fail.
  FleetPlan Plan = smallPlan();
  Plan.Scenarios = {"chaos"};
  std::string Path = tempPath("bb_unwritable.ckpt");
  removeFleetArtifacts(Path);
  std::vector<std::string> Blockers;
  for (uint64_t I = 0; I < Plan.items(); ++I) {
    Blockers.push_back(Path + formatString(".item-%06llu",
                                           static_cast<unsigned long long>(I)) +
                       BlackBoxSuffix + ".tmp");
    std::filesystem::create_directories(Blockers.back());
  }

  FleetRunOptions Opts;
  Opts.Jobs = 1;
  Opts.BatchSize = 4;
  Opts.CheckpointPath = Path;
  FleetRunSummary S;
  std::string Error;
  EXPECT_FALSE(runFleet(Plan, Opts, S, &Error));
  EXPECT_NE(Error.find("blackbox.json.tmp"), std::string::npos) << Error;
  for (const std::string &Blocker : Blockers)
    std::filesystem::remove_all(Blocker);
  removeFleetArtifacts(Path);
}

TEST(FleetRunnerTest, BlackBoxesMatchStandaloneRuns) {
  // Oracle: every black box the fleet writes is the dumpsJson() of the
  // same item run alone, cold, on a fresh hub set up like the fleet's.
  FleetPlan Plan = displacingPlan();
  std::string Path = tempPath("bb_oracle.ckpt");
  removeFleetArtifacts(Path);
  FleetRunOptions Opts;
  Opts.Jobs = 2;
  Opts.BatchSize = 4;
  Opts.CheckpointPath = Path;
  FleetRunSummary S;
  std::string Error;
  ASSERT_TRUE(runFleet(Plan, Opts, S, &Error)) << Error;
  ASSERT_TRUE(S.Complete);

  size_t Checked = 0;
  for (const FleetWorstDevice &D : S.Report.State.Worst) {
    if (D.BlackBoxRef.empty())
      continue;
    Telemetry Hub;
    Hub.setLogCapacity(0);
    Hub.enableAnomalyDetectors();
    Hub.enableFlightRecorder();
    ExperimentConfig Config = Plan.config(Plan.item(D.Item));
    Config.Tel = &Hub;
    runExperiment(Config);
    ASSERT_NE(Hub.flightRecorder(), nullptr);
    EXPECT_EQ(slurp(Path + "." + D.BlackBoxRef + BlackBoxSuffix),
              Hub.flightRecorder()->dumpsJson())
        << D.BlackBoxRef;
    ++Checked;
  }
  EXPECT_GT(Checked, 0u);
  removeFleetArtifacts(Path);
}

TEST(FleetRunnerTest, UnusableModelFailsUpFront) {
  // The Predictive model is parsed once per run; a model that cannot
  // be read or parsed fails the run before any session, naming the
  // file, instead of every session silently falling back.
  FleetPlan Plan = smallPlan();
  Plan.Governors = {governors::Perf, governors::PredictiveI};
  std::string Ckpt = tempPath("bad_model.ckpt");
  removeFleetArtifacts(Ckpt);
  FleetRunOptions Opts;
  Opts.Jobs = 1;
  Opts.CheckpointPath = Ckpt;

  Plan.ModelPath = tempPath("no_such_model.json");
  std::remove(Plan.ModelPath.c_str());
  FleetRunSummary S;
  std::string Error;
  EXPECT_FALSE(runFleet(Plan, Opts, S, &Error));
  EXPECT_NE(Error.find("cannot read model file " + Plan.ModelPath),
            std::string::npos)
      << Error;

  Plan.ModelPath = tempPath("garbage_model.json");
  {
    std::ofstream Out(Plan.ModelPath, std::ios::binary | std::ios::trunc);
    Out << "{\"kind\":\"not_a_model\"}";
  }
  EXPECT_FALSE(runFleet(Plan, Opts, S, &Error));
  EXPECT_NE(Error.find("model file " + Plan.ModelPath), std::string::npos)
      << Error;
  EXPECT_NE(Error.find("kind mismatch"), std::string::npos) << Error;
  EXPECT_EQ(S.ItemsRun, 0u);
  EXPECT_FALSE(std::filesystem::exists(Ckpt));
  std::remove(Plan.ModelPath.c_str());
}

} // namespace
