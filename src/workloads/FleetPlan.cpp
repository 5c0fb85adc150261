//===- workloads/FleetPlan.cpp - Population run plans ----------------------===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "workloads/FleetPlan.h"

#include "faults/FaultPlan.h"
#include "support/Json.h"
#include "support/StringUtils.h"
#include "telemetry/FleetReport.h"
#include "workloads/Apps.h"

#include <algorithm>
#include <cmath>

using namespace greenweb;

std::string FleetPlanItem::warmKey() const {
  return App + formatString("#%llu", static_cast<unsigned long long>(Seed));
}

std::string FleetPlanItem::label() const {
  return formatString("%s|%s|s%llu|%s|r%u", App.c_str(), Governor.c_str(),
                      static_cast<unsigned long long>(Seed),
                      Scenario.c_str(), unsigned(Replica));
}

uint64_t FleetPlan::items() const {
  return uint64_t(Apps.size()) * Governors.size() * Seeds.size() *
         Scenarios.size() * Replicas;
}

FleetPlanItem FleetPlan::item(uint64_t Index) const {
  FleetPlanItem It;
  It.Index = Index;
  uint64_t I = Index;
  It.Replica = uint32_t(I % Replicas);
  I /= Replicas;
  It.Scenario = Scenarios[size_t(I % Scenarios.size())];
  I /= Scenarios.size();
  It.Seed = Seeds[size_t(I % Seeds.size())];
  I /= Seeds.size();
  It.Governor = Governors[size_t(I % Governors.size())];
  I /= Governors.size();
  It.App = Apps[size_t(I)];
  return It;
}

ExperimentConfig FleetPlan::config(const FleetPlanItem &Item) const {
  ExperimentConfig C;
  C.AppName = Item.App;
  C.Mode = Mode;
  C.GovernorName = Item.Governor;
  C.Seed = Item.Seed;
  C.MicroRepetitions = MicroRepetitions;
  if (Item.Scenario == "chaos")
    C.Faults = FaultPlan::chaosPlan(Item.faultSeed());
  else if (Item.Scenario != "none")
    C.Faults = FaultPlan::scenario(Item.Scenario, Item.faultSeed());
  C.ModelPath = ModelPath;
  return C;
}

std::string FleetPlan::toJson() const {
  std::string Out = formatString(
      "{\"kind\":\"fleet_plan\",\"name\":\"%s\",\"mode\":\"%s\","
      "\"apps\":[",
      jsonEscape(Name).c_str(),
      Mode == ExperimentMode::Micro ? "micro" : "full");
  auto Names = [&Out](const std::vector<std::string> &List) {
    for (size_t I = 0; I < List.size(); ++I) {
      if (I)
        Out += ",";
      Out += formatString("\"%s\"", jsonEscape(List[I]).c_str());
    }
  };
  Names(Apps);
  Out += "],\"governors\":[";
  Names(Governors);
  Out += "],\"seeds\":[";
  for (size_t I = 0; I < Seeds.size(); ++I) {
    if (I)
      Out += ",";
    Out += formatString("%llu", static_cast<unsigned long long>(Seeds[I]));
  }
  Out += "],\"scenarios\":[";
  Names(Scenarios);
  Out += formatString("],\"replicas\":%u,\"micro_repetitions\":%u,"
                      "\"baseline_governor\":\"%s\"",
                      unsigned(Replicas), MicroRepetitions,
                      jsonEscape(BaselineGovernor).c_str());
  // Appended only when set: plans without a model keep the exact JSON
  // (and hash) they had before models existed, so old checkpoints
  // still resume.
  if (!ModelPath.empty())
    Out += formatString(",\"model\":\"%s\"", jsonEscape(ModelPath).c_str());
  Out += "}";
  return Out;
}

uint64_t FleetPlan::hash() const { return fleetHash(toJson()); }

namespace {

bool stringList(const json::Value &Doc, const char *Key,
                std::vector<std::string> &Out, std::string *Error) {
  const json::Value *V = Doc.get(Key);
  if (!V)
    return true; // Optional; caller applies defaults.
  if (!V->isArray()) {
    if (Error)
      *Error = formatString("plan field '%s' is not an array", Key);
    return false;
  }
  Out.clear();
  for (const json::Value &E : V->Arr) {
    if (!E.isString()) {
      if (Error)
        *Error = formatString("plan field '%s' holds a non-string", Key);
      return false;
    }
    Out.push_back(E.Str);
  }
  return true;
}

/// Converts a plan number to an integer in [\p Min, \p Max]. A plain
/// cast would turn -3 replicas into 4,294,967,293 and is undefined for
/// values outside the target type, so anything negative, fractional,
/// non-finite or out of range is refused with the field named.
bool integerValue(const json::Value &V, const char *Field, uint64_t Min,
                  uint64_t Max, uint64_t &Out, std::string *Error) {
  if (!V.isNumber() || !std::isfinite(V.Num) ||
      V.Num != std::floor(V.Num) || V.Num < double(Min) ||
      V.Num > double(Max)) {
    if (Error)
      *Error = formatString(
          "plan field '%s' must be an integer in [%llu, %llu], got %s",
          Field, static_cast<unsigned long long>(Min),
          static_cast<unsigned long long>(Max),
          V.isNumber() ? formatString("%.17g", V.Num).c_str()
                       : "a non-number");
    return false;
  }
  Out = uint64_t(V.Num);
  return true;
}

/// Optional integer field: \p Out keeps its default when \p Key is
/// absent.
bool integerField(const json::Value &Doc, const char *Key, uint64_t Min,
                  uint64_t Max, uint64_t &Out, std::string *Error) {
  const json::Value *V = Doc.get(Key);
  return !V || integerValue(*V, Key, Min, Max, Out, Error);
}

/// Seeds travel through JSON doubles, which hold every integer up to
/// 2^53 exactly and no larger range.
constexpr uint64_t MaxSeed = uint64_t(1) << 53;

} // namespace

bool FleetPlan::parse(const std::string &Text, FleetPlan &Out,
                      std::string *Error) {
  auto Fail = [&](const std::string &Msg) {
    if (Error)
      *Error = Msg;
    return false;
  };
  std::string ParseError;
  auto Doc = json::parse(Text, &ParseError);
  if (!Doc || !Doc->isObject())
    return Fail("plan is not a JSON object" +
                (ParseError.empty() ? "" : " (" + ParseError + ")"));

  FleetPlan P;
  P.Name = Doc->stringOr("name", "fleet");
  std::string Mode = Doc->stringOr("mode", "micro");
  if (Mode == "micro")
    P.Mode = ExperimentMode::Micro;
  else if (Mode == "full")
    P.Mode = ExperimentMode::Full;
  else
    return Fail("plan mode must be \"micro\" or \"full\"");

  if (!stringList(*Doc, "apps", P.Apps, Error) ||
      !stringList(*Doc, "governors", P.Governors, Error) ||
      !stringList(*Doc, "scenarios", P.Scenarios, Error))
    return false;
  if (const json::Value *V = Doc->get("seeds")) {
    if (!V->isArray())
      return Fail("plan field 'seeds' is not an array");
    P.Seeds.clear();
    for (const json::Value &E : V->Arr) {
      uint64_t Seed = 0;
      if (!integerValue(E, "seeds", 0, MaxSeed, Seed, Error))
        return false;
      P.Seeds.push_back(Seed);
    }
  }
  uint64_t Replicas = P.Replicas, MicroRepetitions = P.MicroRepetitions;
  if (!integerField(*Doc, "replicas", 1, UINT32_MAX, Replicas, Error) ||
      !integerField(*Doc, "micro_repetitions", 1, UINT32_MAX,
                    MicroRepetitions, Error))
    return false;
  P.Replicas = uint32_t(Replicas);
  P.MicroRepetitions = unsigned(MicroRepetitions);
  P.BaselineGovernor = Doc->stringOr(
      "baseline_governor", P.Governors.empty() ? "" : P.Governors.front());
  P.ModelPath = Doc->stringOr("model", "");

  if (P.Apps.empty() || P.Governors.empty() || P.Seeds.empty())
    return Fail("plan needs non-empty apps, governors, and seeds");
  if (P.Scenarios.empty())
    return Fail("plan needs at least one scenario");

  std::vector<std::string> KnownApps = allAppNames();
  for (const std::string &App : P.Apps)
    if (std::find(KnownApps.begin(), KnownApps.end(), App) ==
        KnownApps.end())
      return Fail("unknown app '" + App + "'");
  for (const std::string &Gov : P.Governors)
    if (!governors::isKnown(Gov))
      return Fail("unknown governor '" + Gov + "'");
  if (P.ModelPath.empty())
    for (const std::string &Gov : P.Governors)
      if (Gov == governors::PredictiveI || Gov == governors::PredictiveU)
        return Fail("plan lists governor '" + Gov +
                    "' but has no \"model\" path");
  std::vector<std::string> KnownScenarios = FaultPlan::scenarioNames();
  for (const std::string &Sc : P.Scenarios)
    if (Sc != "none" && Sc != "chaos" &&
        std::find(KnownScenarios.begin(), KnownScenarios.end(), Sc) ==
            KnownScenarios.end())
      return Fail("unknown fault scenario '" + Sc + "'");
  if (std::find(P.Governors.begin(), P.Governors.end(),
                P.BaselineGovernor) == P.Governors.end())
    return Fail("baseline governor '" + P.BaselineGovernor +
                "' is not in the plan's governor list");
  Out = std::move(P);
  return true;
}
