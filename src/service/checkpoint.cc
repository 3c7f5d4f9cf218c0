#include "service/checkpoint.h"

#include <utility>
#include <vector>

#include "common/serialize.h"

namespace aimai {

namespace {

constexpr const char* kMagic = "aimai-continuous-ckpt";
constexpr int64_t kVersion = 1;

void SaveConfiguration(TokenWriter* w, const Configuration& config) {
  const std::vector<IndexDef> indexes = config.indexes();
  w->WriteUInt(indexes.size());
  for (const IndexDef& def : indexes) SaveIndexDef(w, def);
}

Configuration LoadConfiguration(TokenReader* r) {
  Configuration config;
  const uint64_t n = r->ReadUInt();
  for (uint64_t i = 0; i < n && r->ok(); ++i) config.Add(LoadIndexDef(r));
  return config;
}

void SaveIterationRecord(TokenWriter* w,
                         const ContinuousTuner::IterationRecord& ir) {
  w->WriteInt(ir.iteration);
  w->WriteInt(ir.num_new_indexes);
  w->WriteDouble(ir.measured_cost);
  w->WriteBool(ir.regressed);
  w->WriteBool(ir.failed);
  w->WriteBool(ir.quarantined);
}

ContinuousTuner::IterationRecord LoadIterationRecord(TokenReader* r) {
  ContinuousTuner::IterationRecord ir;
  ir.iteration = static_cast<int>(r->ReadInt());
  ir.num_new_indexes = static_cast<int>(r->ReadInt());
  ir.measured_cost = r->ReadDouble();
  ir.regressed = r->ReadBool();
  ir.failed = r->ReadBool();
  ir.quarantined = r->ReadBool();
  return ir;
}

}  // namespace

Status SaveContinuousCheckpoint(std::ostream* out,
                                const ContinuousCheckpoint& ckpt,
                                const ExecutionDataRepository& repo) {
  if (out == nullptr) return Status::InvalidArgument("null output stream");
  TokenWriter w(out);
  w.WriteTag(kMagic);
  w.WriteInt(kVersion);
  w.WriteString(ckpt.session_name);
  w.WriteString(ckpt.query_name);

  const ContinuousTuner::QueryState& s = ckpt.state;
  w.WriteBool(s.initialized);
  w.WriteBool(s.finished);
  w.WriteInt(s.next_iteration);
  SaveConfiguration(&w, s.current);
  w.WriteDouble(s.initial_cost);
  w.WriteDouble(s.current_cost);
  w.WriteDouble(s.current_est_cost);
  w.WriteBool(s.regress_final);
  w.WriteString(s.last_skipped_fp);
  w.WriteUInt(s.regression_counts.size());
  for (const auto& kv : s.regression_counts) {  // std::map: sorted, stable.
    w.WriteString(kv.first);
    w.WriteInt(kv.second);
  }
  w.WriteUInt(s.quarantined.size());
  for (const std::string& fp : s.quarantined) w.WriteString(fp);
  w.WriteUInt(s.iterations.size());
  for (const auto& ir : s.iterations) SaveIterationRecord(&w, ir);

  if (!out->good()) {
    return Status::Unavailable("checkpoint write failed");
  }
  // The collected execution data rides along in the existing repository
  // format, checksums and all.
  return SaveRepository(out, repo);
}

Status LoadContinuousCheckpoint(std::istream* in, ContinuousCheckpoint* ckpt,
                                ExecutionDataRepository* repo,
                                RepositoryLoadStats* stats) {
  if (in == nullptr || ckpt == nullptr || repo == nullptr) {
    return Status::InvalidArgument("null checkpoint load argument");
  }
  TokenReader r(in);
  r.ExpectTag(kMagic);
  const int64_t version = r.ReadInt();
  if (!r.ok()) {
    return Status::DataLoss("checkpoint header unreadable: " +
                            r.status().message());
  }
  if (version != kVersion) {
    return Status::DataLoss("unsupported checkpoint version " +
                            std::to_string(version));
  }
  ckpt->session_name = r.ReadString();
  ckpt->query_name = r.ReadString();

  ContinuousTuner::QueryState s;
  s.initialized = r.ReadBool();
  s.finished = r.ReadBool();
  s.next_iteration = static_cast<int>(r.ReadInt());
  s.current = LoadConfiguration(&r);
  s.initial_cost = r.ReadDouble();
  s.current_cost = r.ReadDouble();
  s.current_est_cost = r.ReadDouble();
  s.regress_final = r.ReadBool();
  s.last_skipped_fp = r.ReadString();
  const uint64_t num_counts = r.ReadUInt();
  for (uint64_t i = 0; i < num_counts && r.ok(); ++i) {
    std::string fp = r.ReadString();
    const int count = static_cast<int>(r.ReadInt());
    s.regression_counts.emplace(std::move(fp), count);
  }
  const uint64_t num_quarantined = r.ReadUInt();
  for (uint64_t i = 0; i < num_quarantined && r.ok(); ++i) {
    s.quarantined.insert(r.ReadString());
  }
  const uint64_t num_iterations = r.ReadUInt();
  for (uint64_t i = 0; i < num_iterations && r.ok(); ++i) {
    s.iterations.push_back(LoadIterationRecord(&r));
  }
  if (!r.ok()) {
    // Unlike telemetry records, the loop state is not redundant: a corrupt
    // checkpoint must not resume as something else.
    return Status::DataLoss("checkpoint state corrupt: " +
                            r.status().message());
  }
  ckpt->state = std::move(s);
  return LoadRepository(in, repo, stats);
}

}  // namespace aimai
