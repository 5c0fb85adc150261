//===- workloads/FleetRunner.h - Checkpointed population runs ---*- C++ -*-===//
//
// Part of the GreenWeb reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives a FleetPlan to completion in batches over ParallelRunner,
/// folding every finished item into a FleetState and writing a durable
/// FleetCheckpoint at batch boundaries (atomic tmp+rename, so the file
/// on disk is always a complete checkpoint at a boundary). A killed run
/// resumes with Resume=true: fully-done batches are skipped and folding
/// continues from the saved state, finishing with a FleetReport that is
/// byte-identical to the uninterrupted run's — the fold order is item
/// order, the state round-trips exactly, and nothing host-timed ever
/// enters it.
///
/// Each batch runs with per-item private telemetry hubs, the online
/// anomaly detectors, the flight recorder (black-box dumps of worst
/// devices persist next to the checkpoint; only those the checkpoint
/// names stay on disk), and a fleet-wide WarmCache so every (app, seed)
/// page is built once per process. A hub is freed as soon as its run's
/// fold inputs are harvested; only the flight recorder of a run that
/// dumped is kept, and it is serialized only if the device makes the
/// worst-k list. A Predictive model is parsed once per call.
///
//===----------------------------------------------------------------------===//

#ifndef GREENWEB_WORKLOADS_FLEETRUNNER_H
#define GREENWEB_WORKLOADS_FLEETRUNNER_H

#include "telemetry/FleetReport.h"
#include "workloads/FleetPlan.h"

#include <cstdint>
#include <string>

namespace greenweb {

/// Options for runFleet.
struct FleetRunOptions {
  /// Worker threads per batch; 0 = hardware concurrency.
  unsigned Jobs = 0;
  /// Items per batch (the checkpoint granularity). A batch is the unit
  /// of progress: the bitmap only ever shows whole batches done.
  uint64_t BatchSize = 64;
  /// Write the checkpoint every N completed batches (and always when
  /// the run finishes or stops). 1 = after every batch.
  unsigned CheckpointEveryBatches = 1;
  /// Checkpoint file path; empty runs without durability (no resume,
  /// no black-box files).
  std::string CheckpointPath;
  /// Load CheckpointPath and skip completed batches. Missing file is an
  /// error — resuming nothing usually means a typo'd path.
  bool Resume = false;
  /// Stop this invocation after executing N batches (0 = run to
  /// completion). Controlled preemption: the kill-and-resume tests use
  /// it to stop at an exact boundary without process games.
  uint64_t MaxBatches = 0;
  /// Render a live progress meter (stderr, TTY-aware).
  bool Progress = false;
  /// When set, export one labeled feature row per annotated frame
  /// across every executed item into this JSONL file (the gw-train
  /// training-data factory). Rows append in item order, so the table is
  /// deterministic for a fixed plan. Incompatible with Resume — skipped
  /// batches would leave silent holes in the table.
  std::string FeaturesPath;
};

/// What one runFleet invocation did.
struct FleetRunSummary {
  FleetReport Report;
  uint64_t ItemsRun = 0;     ///< Items executed by this invocation.
  uint64_t ItemsSkipped = 0; ///< Items skipped as already checkpointed.
  bool Complete = false;     ///< All plan items are now done.
};

/// Runs (or resumes) \p Plan. Returns false with \p Error set on
/// checkpoint mismatch/corruption, unwritable checkpoint path, an
/// unreadable or unparsable model for the plan's Predictive governors
/// (before any item runs), or a failing run.
bool runFleet(const FleetPlan &Plan, const FleetRunOptions &Opts,
              FleetRunSummary &Out, std::string *Error = nullptr);

} // namespace greenweb

#endif // GREENWEB_WORKLOADS_FLEETRUNNER_H
