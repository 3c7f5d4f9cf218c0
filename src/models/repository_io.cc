#include "models/repository_io.h"

#include <sstream>

#include "common/check.h"
#include "obs/obs.h"
#include "robustness/atomic_file.h"

namespace aimai {

namespace {

// v2 added per-record checksummed framing (robustness: skip-and-count).
constexpr int kFormatVersion = 2;

// Structural sanity caps: a corrupt count token must fail the record, not
// drive an unbounded loop or allocation. Generous vs. anything we write.
constexpr uint64_t kMaxListLen = 1ull << 20;
constexpr uint64_t kMaxPlanChildren = 1ull << 10;

void SaveValue(TokenWriter* w, const Value& v) {
  w->WriteInt(static_cast<int>(v.type()));
  switch (v.type()) {
    case DataType::kInt64:
      w->WriteInt(v.as_int());
      break;
    case DataType::kDouble:
      w->WriteDouble(v.as_double());
      break;
    case DataType::kString:
      w->WriteString(v.as_string());
      break;
  }
}

StatusOr<Value> LoadValue(TokenReader* r) {
  const int type_token = static_cast<int>(r->ReadInt());
  AIMAI_RETURN_IF_ERROR(r->status());
  switch (static_cast<DataType>(type_token)) {
    case DataType::kInt64:
      return Value::Int(r->ReadInt());
    case DataType::kDouble:
      return Value::Real(r->ReadDouble());
    case DataType::kString:
      return Value::Str(r->ReadString());
  }
  return Status::DataLoss("bad value type");
}

void SavePredicate(TokenWriter* w, const Predicate& p) {
  w->WriteInt(p.table_id);
  w->WriteInt(p.column_id);
  w->WriteInt(static_cast<int>(p.op));
  SaveValue(w, p.lo);
  SaveValue(w, p.hi);
}

StatusOr<Predicate> LoadPredicate(TokenReader* r) {
  Predicate p;
  p.table_id = static_cast<int>(r->ReadInt());
  p.column_id = static_cast<int>(r->ReadInt());
  p.op = static_cast<CmpOp>(r->ReadInt());
  AIMAI_ASSIGN_OR_RETURN(p.lo, LoadValue(r));
  AIMAI_ASSIGN_OR_RETURN(p.hi, LoadValue(r));
  AIMAI_RETURN_IF_ERROR(r->status());
  return p;
}

void SaveColumnRef(TokenWriter* w, const ColumnRef& c) {
  w->WriteInt(c.table_id);
  w->WriteInt(c.column_id);
}

ColumnRef LoadColumnRef(TokenReader* r) {
  ColumnRef c;
  c.table_id = static_cast<int>(r->ReadInt());
  c.column_id = static_cast<int>(r->ReadInt());
  return c;
}

void SaveStats(TokenWriter* w, const NodeStats& s) {
  w->WriteDouble(s.est_rows);
  w->WriteDouble(s.est_executions);
  w->WriteDouble(s.est_access_rows);
  w->WriteDouble(s.est_bytes);
  w->WriteDouble(s.est_bytes_processed);
  w->WriteDouble(s.est_cost);
  w->WriteDouble(s.est_subtree_cost);
  w->WriteDouble(s.actual_rows);
  w->WriteDouble(s.actual_executions);
  w->WriteDouble(s.actual_access_rows);
  w->WriteDouble(s.actual_cost);
  w->WriteBool(s.executed);
}

NodeStats LoadStats(TokenReader* r) {
  NodeStats s;
  s.est_rows = r->ReadDouble();
  s.est_executions = r->ReadDouble();
  s.est_access_rows = r->ReadDouble();
  s.est_bytes = r->ReadDouble();
  s.est_bytes_processed = r->ReadDouble();
  s.est_cost = r->ReadDouble();
  s.est_subtree_cost = r->ReadDouble();
  s.actual_rows = r->ReadDouble();
  s.actual_executions = r->ReadDouble();
  s.actual_access_rows = r->ReadDouble();
  s.actual_cost = r->ReadDouble();
  s.executed = r->ReadBool();
  return s;
}

Status CheckedCount(TokenReader* r, uint64_t* out, uint64_t cap) {
  *out = r->ReadUInt();
  AIMAI_RETURN_IF_ERROR(r->status());
  if (*out > cap) return Status::DataLoss("implausible element count");
  return Status::Ok();
}

}  // namespace

void SaveIndexDef(TokenWriter* w, const IndexDef& d) {
  w->WriteInt(d.table_id);
  w->WriteIntVector(d.key_columns);
  w->WriteIntVector(d.include_columns);
  w->WriteBool(d.is_columnstore);
}

IndexDef LoadIndexDef(TokenReader* r) {
  IndexDef d;
  d.table_id = static_cast<int>(r->ReadInt());
  d.key_columns = r->ReadIntVector();
  d.include_columns = r->ReadIntVector();
  d.is_columnstore = r->ReadBool();
  return d;
}

void SavePlanNode(TokenWriter* w, const PlanNode& node) {
  w->WriteTag("node");
  w->WriteInt(static_cast<int>(node.op));
  w->WriteInt(static_cast<int>(node.mode));
  w->WriteBool(node.parallel);
  w->WriteInt(node.table_id);
  SaveIndexDef(w, node.index);
  w->WriteUInt(node.seek_preds.size());
  for (const Predicate& p : node.seek_preds) SavePredicate(w, p);
  w->WriteUInt(node.residual_preds.size());
  for (const Predicate& p : node.residual_preds) SavePredicate(w, p);
  SaveColumnRef(w, node.join.left);
  SaveColumnRef(w, node.join.right);
  w->WriteUInt(node.sort_keys.size());
  for (const SortKey& k : node.sort_keys) {
    SaveColumnRef(w, k.col);
    w->WriteBool(k.ascending);
  }
  w->WriteUInt(node.group_by.size());
  for (const ColumnRef& c : node.group_by) SaveColumnRef(w, c);
  w->WriteUInt(node.aggregates.size());
  for (const AggItem& a : node.aggregates) {
    w->WriteInt(static_cast<int>(a.func));
    SaveColumnRef(w, a.col);
  }
  w->WriteInt(node.top_n);
  w->WriteUInt(node.output_columns.size());
  for (const ColumnRef& c : node.output_columns) SaveColumnRef(w, c);
  w->WriteDouble(node.output_width_bytes);
  SaveStats(w, node.stats);
  w->WriteUInt(node.children.size());
  for (const auto& c : node.children) SavePlanNode(w, *c);
}

StatusOr<std::unique_ptr<PlanNode>> LoadPlanNode(TokenReader* r) {
  r->ExpectTag("node");
  AIMAI_RETURN_IF_ERROR(r->status());
  auto node = std::make_unique<PlanNode>();
  node->op = static_cast<PhysOp>(r->ReadInt());
  node->mode = static_cast<ExecMode>(r->ReadInt());
  node->parallel = r->ReadBool();
  node->table_id = static_cast<int>(r->ReadInt());
  node->index = LoadIndexDef(r);
  uint64_t nseek = 0;
  AIMAI_RETURN_IF_ERROR(CheckedCount(r, &nseek, kMaxListLen));
  for (uint64_t i = 0; i < nseek; ++i) {
    AIMAI_ASSIGN_OR_RETURN(Predicate p, LoadPredicate(r));
    node->seek_preds.push_back(std::move(p));
  }
  uint64_t nres = 0;
  AIMAI_RETURN_IF_ERROR(CheckedCount(r, &nres, kMaxListLen));
  for (uint64_t i = 0; i < nres; ++i) {
    AIMAI_ASSIGN_OR_RETURN(Predicate p, LoadPredicate(r));
    node->residual_preds.push_back(std::move(p));
  }
  node->join.left = LoadColumnRef(r);
  node->join.right = LoadColumnRef(r);
  uint64_t nsort = 0;
  AIMAI_RETURN_IF_ERROR(CheckedCount(r, &nsort, kMaxListLen));
  for (uint64_t i = 0; i < nsort; ++i) {
    SortKey k;
    k.col = LoadColumnRef(r);
    k.ascending = r->ReadBool();
    node->sort_keys.push_back(k);
  }
  uint64_t ngroup = 0;
  AIMAI_RETURN_IF_ERROR(CheckedCount(r, &ngroup, kMaxListLen));
  for (uint64_t i = 0; i < ngroup; ++i) {
    node->group_by.push_back(LoadColumnRef(r));
  }
  uint64_t nagg = 0;
  AIMAI_RETURN_IF_ERROR(CheckedCount(r, &nagg, kMaxListLen));
  for (uint64_t i = 0; i < nagg; ++i) {
    AggItem a;
    a.func = static_cast<AggFunc>(r->ReadInt());
    a.col = LoadColumnRef(r);
    node->aggregates.push_back(a);
  }
  node->top_n = r->ReadInt();
  uint64_t nout = 0;
  AIMAI_RETURN_IF_ERROR(CheckedCount(r, &nout, kMaxListLen));
  for (uint64_t i = 0; i < nout; ++i) {
    node->output_columns.push_back(LoadColumnRef(r));
  }
  node->output_width_bytes = r->ReadDouble();
  node->stats = LoadStats(r);
  uint64_t nchildren = 0;
  AIMAI_RETURN_IF_ERROR(CheckedCount(r, &nchildren, kMaxPlanChildren));
  for (uint64_t i = 0; i < nchildren; ++i) {
    AIMAI_ASSIGN_OR_RETURN(std::unique_ptr<PlanNode> child, LoadPlanNode(r));
    node->children.push_back(std::move(child));
  }
  AIMAI_RETURN_IF_ERROR(r->status());
  return node;
}

void SavePhysicalPlan(TokenWriter* w, const PhysicalPlan& plan) {
  w->WriteTag("plan");
  w->WriteInt(plan.degree_of_parallelism);
  w->WriteDouble(plan.est_total_cost);
  w->WriteDouble(plan.actual_total_cost);
  AIMAI_CHECK(plan.root != nullptr);
  SavePlanNode(w, *plan.root);
}

StatusOr<std::unique_ptr<PhysicalPlan>> LoadPhysicalPlan(TokenReader* r) {
  r->ExpectTag("plan");
  AIMAI_RETURN_IF_ERROR(r->status());
  auto plan = std::make_unique<PhysicalPlan>();
  plan->degree_of_parallelism = static_cast<int>(r->ReadInt());
  plan->est_total_cost = r->ReadDouble();
  plan->actual_total_cost = r->ReadDouble();
  AIMAI_ASSIGN_OR_RETURN(plan->root, LoadPlanNode(r));
  return plan;
}

void SaveExecutedPlan(TokenWriter* w, const ExecutedPlan& plan) {
  w->WriteTag("exec");
  w->WriteInt(plan.database_id);
  w->WriteString(plan.db_name);
  w->WriteString(plan.query_name);
  w->WriteUInt(plan.template_hash);
  w->WriteString(plan.config_fp);
  w->WriteDouble(plan.exec_cost);
  w->WriteDouble(plan.est_cost);
  w->WriteUInt(plan.features.values.size());
  for (const auto& channel : plan.features.values) {
    w->WriteDoubleVector(channel);
  }
  w->WriteDouble(plan.features.est_total_cost);
  SavePhysicalPlan(w, *plan.plan);
}

StatusOr<ExecutedPlan> LoadExecutedPlan(TokenReader* r) {
  r->ExpectTag("exec");
  AIMAI_RETURN_IF_ERROR(r->status());
  ExecutedPlan plan;
  plan.database_id = static_cast<int>(r->ReadInt());
  plan.db_name = r->ReadString();
  plan.query_name = r->ReadString();
  plan.template_hash = r->ReadUInt();
  plan.config_fp = r->ReadString();
  plan.exec_cost = r->ReadDouble();
  plan.est_cost = r->ReadDouble();
  uint64_t nchan = 0;
  AIMAI_RETURN_IF_ERROR(CheckedCount(r, &nchan, kMaxListLen));
  for (uint64_t i = 0; i < nchan; ++i) {
    plan.features.values.push_back(r->ReadDoubleVector());
  }
  plan.features.est_total_cost = r->ReadDouble();
  AIMAI_ASSIGN_OR_RETURN(plan.plan, LoadPhysicalPlan(r));
  AIMAI_RETURN_IF_ERROR(r->status());
  return plan;
}

Status SaveRepository(std::ostream* out, const ExecutionDataRepository& repo,
                      FaultInjector* faults) {
  AIMAI_SPAN("repo.save");
  if (faults != nullptr &&
      faults->ShouldFail(FaultPoint::kRepositoryIo)) {
    return Status::Unavailable("injected repository save I/O error");
  }
  TokenWriter w(out);
  w.WriteTag("aimai_repo");
  w.WriteInt(kFormatVersion);
  w.WriteUInt(repo.num_plans());
  for (size_t i = 0; i < repo.num_plans(); ++i) {
    // Frame each record: serialize to a payload buffer, checksum it, then
    // emit "rec <checksum> <payload>". Corruption injected after the
    // checksum is computed is guaranteed detectable on load.
    std::ostringstream payload_stream;
    TokenWriter pw(&payload_stream);
    SaveExecutedPlan(&pw, repo.plan(static_cast<int>(i)));
    std::string payload = payload_stream.str();
    const uint64_t checksum = Fnv1a64(payload);
    if (faults != nullptr && !payload.empty() &&
        faults->ShouldFail(FaultPoint::kTelemetryCorruption)) {
      // XOR with a non-zero mask: the byte always changes, so the
      // checksum always catches it — the skip count stays deterministic.
      payload[checksum % payload.size()] ^= 0x5a;
    }
    w.WriteTag("rec");
    w.WriteUInt(checksum);
    w.WriteString(payload);
  }
  if (out->fail()) {
    return Status::Unavailable("repository save stream failure");
  }
  AIMAI_COUNTER_ADD("repo.records_saved",
                    static_cast<int64_t>(repo.num_plans()));
  return Status::Ok();
}

Status SaveRepositoryToFile(const std::string& path,
                            const ExecutionDataRepository& repo,
                            FaultInjector* faults) {
  std::ostringstream buf;
  AIMAI_RETURN_IF_ERROR(SaveRepository(&buf, repo, faults));
  return WriteFileAtomic(path, buf.str(), faults);
}

Status LoadRepository(std::istream* in, ExecutionDataRepository* repo,
                      RepositoryLoadStats* stats, FaultInjector* faults) {
  AIMAI_SPAN("repo.load");
  RepositoryLoadStats local;
  RepositoryLoadStats* s = stats != nullptr ? stats : &local;
  *s = RepositoryLoadStats();
  if (faults != nullptr &&
      faults->ShouldFail(FaultPoint::kRepositoryIo)) {
    return Status::Unavailable("injected repository load I/O error");
  }
  TokenReader r(in);
  r.ExpectTag("aimai_repo");
  const int version = static_cast<int>(r.ReadInt());
  if (!r.ok()) {
    return Status::DataLoss("unreadable repository header: " +
                            r.status().message());
  }
  if (version != kFormatVersion) {
    return Status::InvalidArgument("unsupported repository format version " +
                                   std::to_string(version));
  }
  const uint64_t n = r.ReadUInt();
  if (!r.ok()) return r.status();
  s->records_expected = n;
  for (uint64_t i = 0; i < n; ++i) {
    r.ExpectTag("rec");
    const uint64_t checksum = r.ReadUInt();
    const std::string payload = r.ReadString();
    if (!r.ok()) {
      // The outer framing itself is gone; nothing past here is reachable.
      s->truncated = true;
      s->records_skipped += n - i;
      break;
    }
    if (Fnv1a64(payload) != checksum) {
      ++s->records_skipped;
      continue;
    }
    std::istringstream payload_stream(payload);
    TokenReader pr(&payload_stream);
    StatusOr<ExecutedPlan> rec = LoadExecutedPlan(&pr);
    if (!rec.ok() || rec->plan == nullptr || rec->plan->root == nullptr) {
      ++s->records_skipped;
      continue;
    }
    repo->Add(std::move(rec).value());
    ++s->records_loaded;
  }
  AIMAI_COUNTER_ADD("repo.records_loaded",
                    static_cast<int64_t>(s->records_loaded));
  AIMAI_COUNTER_ADD("repo.records_skipped",
                    static_cast<int64_t>(s->records_skipped));
  return Status::Ok();
}

}  // namespace aimai
