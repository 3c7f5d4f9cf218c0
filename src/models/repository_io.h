#ifndef AIMAI_MODELS_REPOSITORY_IO_H_
#define AIMAI_MODELS_REPOSITORY_IO_H_

#include <iostream>
#include <memory>

#include "common/serialize.h"
#include "common/status.h"
#include "models/repository.h"
#include "robustness/fault_injector.h"

namespace aimai {

/// Persistence for execution telemetry (§2.3): plans with their estimates
/// and actual statistics, and whole repositories. Lets a long collection
/// run be reused across experiment binaries, and models be trained offsite
/// from shipped telemetry — the paper's cross-database training pipeline.
///
/// Robustness contract (format v2): every repository record is framed as
///   rec <fnv1a64 checksum> <length-prefixed payload>
/// so corruption inside one record is detected (checksum mismatch) or
/// contained (latched parse failure) and the loader skips that record,
/// counts it, and keeps going. Telemetry is redundant by nature — losing a
/// record must never lose the repository.

/// One index definition; also the unit of the continuous-tuning
/// checkpoint's configurations (service/checkpoint).
void SaveIndexDef(TokenWriter* w, const IndexDef& d);
IndexDef LoadIndexDef(TokenReader* r);

void SavePlanNode(TokenWriter* w, const PlanNode& node);
StatusOr<std::unique_ptr<PlanNode>> LoadPlanNode(TokenReader* r);

void SavePhysicalPlan(TokenWriter* w, const PhysicalPlan& plan);
StatusOr<std::unique_ptr<PhysicalPlan>> LoadPhysicalPlan(TokenReader* r);

void SaveExecutedPlan(TokenWriter* w, const ExecutedPlan& plan);
StatusOr<ExecutedPlan> LoadExecutedPlan(TokenReader* r);

/// Saves the whole repository. `faults` (optional) arms the telemetry
/// write path: kTelemetryCorruption flips a payload byte per fired record
/// (after its checksum is computed, so the loader will catch it) and
/// kRepositoryIo fails the save with a retryable error.
Status SaveRepository(std::ostream* out, const ExecutionDataRepository& repo,
                      FaultInjector* faults = nullptr);

/// SaveRepository through the crash-safe path: the serialized bytes are
/// written with WriteFileAtomic (temp file + fsync + rename), so a crash
/// mid-save can never leave a torn repository on disk — `path` holds
/// either the previous save or the complete new one.
Status SaveRepositoryToFile(const std::string& path,
                            const ExecutionDataRepository& repo,
                            FaultInjector* faults = nullptr);

/// Outcome of a repository load. `records_skipped` counts corrupt records
/// that were detected, contained, and dropped.
struct RepositoryLoadStats {
  uint64_t records_expected = 0;
  uint64_t records_loaded = 0;
  uint64_t records_skipped = 0;
  /// The outer framing itself broke: remaining records were unreachable
  /// (they are included in records_skipped).
  bool truncated = false;
};

/// Loads a repository saved by SaveRepository. Returns OK (with per-record
/// skips reported via `stats`) for any corruption contained inside record
/// frames; returns an error Status only when the header is unreadable or
/// `faults` injects a kRepositoryIo failure. Never aborts on bad bytes.
Status LoadRepository(std::istream* in, ExecutionDataRepository* repo,
                      RepositoryLoadStats* stats = nullptr,
                      FaultInjector* faults = nullptr);

}  // namespace aimai

#endif  // AIMAI_MODELS_REPOSITORY_IO_H_
