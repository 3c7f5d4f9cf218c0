#include "traffic/traffic_engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

#include "common/string_util.h"

namespace aimai {

namespace {

/// Greedy search depth per traffic tuning job (small keeps per-job cost
/// bounded; these are interactive-grade jobs, not deep batch tunings).
constexpr int kMaxNewIndexes = 2;

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string SessionName(int i) { return StrFormat("t%d", i); }

/// Session-i stream seed: a golden-ratio multiple keeps neighboring
/// sessions' Mersenne Twister states decorrelated (seed ^ i would differ
/// in one low bit).
uint64_t SessionSeed(uint64_t base, int i) {
  return base ^ (0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(i + 1));
}

double PercentileMs(std::vector<double>* sorted_ms, double q) {
  if (sorted_ms->empty()) return 0.0;
  const size_t idx = static_cast<size_t>(
      q * static_cast<double>(sorted_ms->size() - 1) + 0.5);
  return (*sorted_ms)[std::min(idx, sorted_ms->size() - 1)];
}

}  // namespace

Status TrafficOptions::Validate() const {
  if (sessions < 1) return Status::InvalidArgument("sessions must be >= 1");
  if (duration_s <= 0) {
    return Status::InvalidArgument("duration_s must be > 0");
  }
  AIMAI_RETURN_IF_ERROR(arrival.Validate());
  if (slo_ms < 0) return Status::InvalidArgument("slo_ms must be >= 0");
  if (priority < 1) return Status::InvalidArgument("priority must be >= 1");
  if (databases < 1) {
    return Status::InvalidArgument("databases must be >= 1");
  }
  if (time_compression < 0) {
    return Status::InvalidArgument("time_compression must be >= 0");
  }
  if (runners < 1) return Status::InvalidArgument("runners must be >= 1");
  if (max_queued < 1) {
    return Status::InvalidArgument("max_queued must be >= 1");
  }
  return Status::Ok();
}

double TrafficReport::SloMissRate() const {
  const int64_t outcomes = completed + timed_out;
  if (outcomes == 0) return 0.0;
  return static_cast<double>(slo_miss) / static_cast<double>(outcomes);
}

bool TrafficReport::AccountingBalanced() const {
  if (arrived != admitted + shed + rejected) return false;
  if (admitted != completed + timed_out + failed + cancelled) return false;
  int64_t t_arrived = 0, t_admitted = 0, t_shed = 0, t_rejected = 0;
  for (const auto& [name, t] : tenants) {
    if (t.arrived != t.admitted + t.shed + t.rejected) return false;
    if (t.admitted != t.completed + t.timed_out + t.failed + t.cancelled) {
      return false;
    }
    t_arrived += t.arrived;
    t_admitted += t.admitted;
    t_shed += t.shed;
    t_rejected += t.rejected;
  }
  if (t_arrived != arrived || t_admitted != admitted || t_shed != shed ||
      t_rejected != rejected) {
    return false;
  }
  return admission_matches;
}

TrafficEngine::TrafficEngine(TrafficOptions options)
    : options_(std::move(options)) {
  if (options_.stream.kind.empty()) options_.stream.kind = "synthetic";
}

Status TrafficEngine::EnsurePrepared() {
  if (!generators_.empty()) return Status::Ok();
  AIMAI_RETURN_IF_ERROR(options_.Validate());
  const int databases = std::min(options_.databases, options_.sessions);
  generators_.reserve(static_cast<size_t>(databases));
  for (int k = 0; k < databases; ++k) {
    QueryStreamSpec spec = options_.stream;
    spec.seed = options_.seed + static_cast<uint64_t>(k);
    if (spec.db_name.empty()) {
      spec.db_name = spec.kind + "_db" + std::to_string(k);
    } else {
      spec.db_name += std::to_string(k);
    }
    AIMAI_ASSIGN_OR_RETURN(auto gen, MakePreparedQueryStream(spec));
    generators_.push_back(std::move(gen));
  }
  return Status::Ok();
}

StatusOr<std::vector<TrafficEvent>> TrafficEngine::BuildSchedule() {
  if (schedule_built_) return schedule_;
  AIMAI_RETURN_IF_ERROR(EnsurePrepared());
  AIMAI_ASSIGN_OR_RETURN(
      auto process, MakeArrivalProcess(options_.arrival, options_.duration_s));

  std::vector<TrafficEvent> schedule;
  for (int i = 0; i < options_.sessions; ++i) {
    Rng rng(SessionSeed(options_.seed, i));
    const std::vector<double> arrivals =
        GenerateArrivals(*process, options_.duration_s, &rng);
    if (arrivals.empty()) continue;
    IQueryStreamGenerator* gen =
        generators_[static_cast<size_t>(i) % generators_.size()].get();
    AIMAI_ASSIGN_OR_RETURN(
        auto queries, gen->NextQueryBatch(static_cast<int>(arrivals.size())));
    AIMAI_CHECK(queries.size() == arrivals.size());
    for (size_t a = 0; a < arrivals.size(); ++a) {
      TrafficEvent event;
      event.t_s = arrivals[a];
      event.session = i;
      event.query = std::move(queries[a]);
      schedule.push_back(std::move(event));
    }
  }
  // Time-sorted dispatch order. Per-session order is preserved (each
  // session's arrival times are strictly increasing); cross-session ties
  // break by session id so the order is a pure function of the options.
  std::stable_sort(schedule.begin(), schedule.end(),
                   [](const TrafficEvent& a, const TrafficEvent& b) {
                     if (a.t_s != b.t_s) return a.t_s < b.t_s;
                     return a.session < b.session;
                   });
  schedule_ = std::move(schedule);
  schedule_built_ = true;
  return schedule_;
}

StatusOr<TrafficReport> TrafficEngine::Run() {
  AIMAI_ASSIGN_OR_RETURN(auto schedule, BuildSchedule());

  ServiceOptions sopts;
  sopts.job_runners = options_.runners;
  sopts.max_inflight_jobs = options_.runners;
  sopts.max_queued_jobs = options_.max_queued;
  sopts.max_sessions = options_.sessions + 1;
  if (options_.enforce_slo_deadline && options_.slo_ms > 0) {
    sopts.job_timeout_ms = options_.slo_ms;
    sopts.watchdog_poll_ms = 5;
  }
  // An SLO-timed-out traffic job is dead load: retrying it would spend
  // scarce overload capacity on work whose deadline already passed.
  sopts.job_retry.max_attempts = 1;
  // For the same reason the per-tenant breaker stays effectively off (as
  // in the chaos harness): three SLO timeouts in a row would quarantine
  // the tenant, and its next job would be fast-rejected as kFailed — an
  // overloaded service is not a misbehaving tenant, and a deadline miss
  // must be reported as kTimedOut.
  sopts.session_breaker.failure_threshold = 1 << 20;
  AIMAI_ASSIGN_OR_RETURN(auto service, TuningService::Create(sopts));

  std::vector<Session*> sessions;
  sessions.reserve(static_cast<size_t>(options_.sessions));
  std::vector<const Configuration*> base_configs(
      static_cast<size_t>(options_.sessions));
  for (int i = 0; i < options_.sessions; ++i) {
    const size_t k = static_cast<size_t>(i) % generators_.size();
    BenchmarkDatabase* bdb = generators_[k]->database();
    SessionOptions so;
    so.name = SessionName(i);
    so.priority = options_.priority;
    so.env = bdb->MakeEnv(static_cast<int>(k));
    so.max_new_indexes = kMaxNewIndexes;
    AIMAI_ASSIGN_OR_RETURN(Session * session,
                           service->CreateSession(std::move(so)));
    sessions.push_back(session);
    base_configs[static_cast<size_t>(i)] = &bdb->initial_config();
  }

  // The flash window (when the arrival process has one) buckets events
  // into steady vs. overload phases.
  double flash_lo = -1, flash_hi = -1;
  if (options_.arrival.kind == ArrivalKind::kFlashCrowd) {
    flash_lo = options_.arrival.flash_start_frac * options_.duration_s;
    flash_hi = flash_lo +
               options_.arrival.flash_duration_frac * options_.duration_s;
  }

  TrafficReport report;
  struct Pending {
    std::shared_ptr<TuningJob> job;
    int64_t submit_ms = 0;
    int session = 0;
    bool in_flash = false;
  };
  std::vector<Pending> pending;
  pending.reserve(schedule.size());

  // --- Open-loop dispatch: paced by the schedule, never by completions.
  const auto wall0 = std::chrono::steady_clock::now();
  for (const TrafficEvent& event : schedule) {
    if (options_.time_compression > 0) {
      const auto target =
          wall0 + std::chrono::duration_cast<
                      std::chrono::steady_clock::duration>(
                      std::chrono::duration<double>(
                          event.t_s / options_.time_compression));
      // Behind schedule => no sleep: the backlog bursts out, exactly like
      // queued-up real traffic.
      std::this_thread::sleep_until(target);
    }
    const bool in_flash = flash_lo >= 0 && event.t_s >= flash_lo &&
                          event.t_s < flash_hi;
    TenantTraffic& tenant = report.tenants[SessionName(event.session)];
    TrafficPhaseStats& phase = in_flash ? report.flash : report.steady;
    ++report.arrived;
    ++tenant.arrived;
    ++phase.arrived;

    auto submitted = sessions[static_cast<size_t>(event.session)]->TuneQuery(
        event.query, *base_configs[static_cast<size_t>(event.session)]);
    if (submitted.ok()) {
      ++report.admitted;
      ++tenant.admitted;
      ++phase.admitted;
      Pending p;
      p.job = std::move(*submitted);
      p.submit_ms = NowMs();
      p.session = event.session;
      p.in_flash = in_flash;
      pending.push_back(std::move(p));
    } else if (submitted.status().code() == StatusCode::kResourceExhausted) {
      ++report.shed;
      ++tenant.shed;
      ++phase.shed;
    } else {
      ++report.rejected;
      ++tenant.rejected;
    }
  }

  // --- Settle: open-loop arrivals are done; wait out the backlog.
  for (const Pending& p : pending) p.job->Wait();
  report.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0)
          .count();

  std::vector<double> latencies_ms;
  std::vector<double> steady_ms, flash_ms;
  latencies_ms.reserve(pending.size());
  for (const Pending& p : pending) {
    TenantTraffic& tenant = report.tenants[SessionName(p.session)];
    TrafficPhaseStats& phase = p.in_flash ? report.flash : report.steady;
    const JobPhase terminal = p.job->phase();
    switch (terminal) {
      case JobPhase::kDone: {
        ++report.completed;
        ++tenant.completed;
        ++phase.completed;
        const double ms =
            static_cast<double>(p.job->terminal_ms() - p.submit_ms);
        latencies_ms.push_back(ms);
        (p.in_flash ? flash_ms : steady_ms).push_back(ms);
        if (options_.slo_ms > 0 &&
            ms > static_cast<double>(options_.slo_ms)) {
          ++report.slo_miss;
          ++tenant.slo_miss;
          ++phase.slo_miss;
        }
        if (options_.capture_results) {
          const QueryTuningResult& r = p.job->outputs().query;
          std::string key = r.recommended.Fingerprint();
          if (r.base_plan != nullptr && r.final_plan != nullptr) {
            key += StrFormat("|%.17g|%.17g", r.base_plan->est_total_cost,
                             r.final_plan->est_total_cost);
          }
          report.result_keys.push_back(std::move(key));
        }
        break;
      }
      case JobPhase::kTimedOut:
        ++report.timed_out;
        ++tenant.timed_out;
        ++phase.timed_out;
        // A deadline escalation is an SLO miss by definition.
        ++report.slo_miss;
        ++tenant.slo_miss;
        ++phase.slo_miss;
        break;
      case JobPhase::kCancelled:
        ++report.cancelled;
        ++tenant.cancelled;
        break;
      default:
        ++report.failed;
        ++tenant.failed;
        break;
    }
  }

  std::sort(latencies_ms.begin(), latencies_ms.end());
  std::sort(steady_ms.begin(), steady_ms.end());
  std::sort(flash_ms.begin(), flash_ms.end());
  report.p50_ms = PercentileMs(&latencies_ms, 0.50);
  report.p99_ms = PercentileMs(&latencies_ms, 0.99);
  report.steady.p99_ms = PercentileMs(&steady_ms, 0.99);
  report.flash.p99_ms = PercentileMs(&flash_ms, 0.99);
  if (!latencies_ms.empty()) {
    double sum = 0;
    for (double ms : latencies_ms) sum += ms;
    report.mean_ms = sum / static_cast<double>(latencies_ms.size());
  }
  if (report.wall_s > 0) {
    report.jobs_per_sec =
        static_cast<double>(report.completed) / report.wall_s;
  }

  // Admission cross-check: the controller's per-tenant buckets must say
  // exactly what the engine observed at its submit call sites.
  for (const auto& [name, tenant] : report.tenants) {
    const AdmissionController::TenantCounts counts =
        service->admission().TenantStats(name);
    if (counts.admitted != tenant.admitted || counts.shed != tenant.shed) {
      report.admission_matches = false;
    }
  }

  service->Shutdown();
  return report;
}

}  // namespace aimai
