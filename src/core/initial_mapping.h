// Initial Mapping (IM) and the frozen baseline.
//
// IM constructs a first valid mapping + schedule using the Heterogeneous
// Critical Path list scheduler (Jorgensen & Madsen, CODES'97): processes are
// taken in partial-critical-path priority order and each is placed on the
// allowed node that finishes it earliest, inserting into slack. The same
// construction, applied to the existing applications on an empty platform,
// produces the frozen baseline that requirement (a) protects.
//
// The paper's Ad-Hoc strategy (AH) is exactly IM: a valid solution that
// optimizes schedule length only and ignores the future (slide 14).
#pragma once

#include <vector>

#include "sched/list_scheduler.h"
#include "sched/mapping.h"
#include "sched/platform_state.h"
#include "sched/schedule.h"

namespace ides {

class SystemModel;

struct FrozenBase {
  /// Platform occupancy with every existing application committed.
  PlatformState state;
  /// Their (frozen) schedule, for display and analysis.
  Schedule schedule;
  /// Node chosen for every existing process.
  MappingSolution mapping;
  /// False if some existing application could not be feasibly scheduled
  /// (the model instance is then unusable).
  bool feasible = false;
};

/// Map and schedule all AppKind::Existing applications, one application at a
/// time in id order — mirroring the incremental history: each was added to
/// the system without touching its predecessors.
FrozenBase freezeExistingApplications(const SystemModel& sys);

/// IM for the current application: HCP over `AppKind::Current` graphs on a
/// copy of the baseline. Returns the outcome; `state` is advanced.
ScheduleOutcome initialMapping(const SystemModel& sys, PlatformState& state);

/// IM over an explicit graph set, committed in the given order (an
/// evaluator built on another movable set, e.g. one increment of a
/// sequence, needs IM over that set).
ScheduleOutcome initialMapping(const SystemModel& sys, PlatformState& state,
                               const std::vector<GraphId>& graphs);

}  // namespace ides
