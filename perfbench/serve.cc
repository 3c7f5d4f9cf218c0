#include "serve.h"

#include <algorithm>
#include <atomic>
#include <thread>

#include "common/string_util.h"
#include "report.h"
#include "service/service.h"
#include "traffic/arrival.h"

namespace perfbench {

namespace {

using aimai::ArrivalKind;
using aimai::ArrivalSpec;
using aimai::Configuration;
using aimai::JobPhase;
using aimai::QuerySpec;
using aimai::Rng;
using aimai::Session;
using aimai::TuningJob;

/// Jobs kept outstanding in the saturating phase.
constexpr size_t kSatQueue = 48;
/// Plan-cache capacity per shard (16 shards): small enough that the fresh
/// queries of many namespaces evict.
constexpr int64_t kCacheShardCapacity = 512;
/// Greedy search depth of each query-level what-if job.
constexpr int kMaxNewIndexes = 5;

enum class Phase { kLo, kHi, kSat };

/// One admitted job as the watcher sees it. The dispatcher fills `job`,
/// `phase`, `due` and `submitted` before publishing the slot; the watcher
/// alone writes the rest until the phase has drained. At completion the
/// watcher keeps the job's result key and drops the handle, so finished
/// jobs (and the plans their results pin) do not pile up in memory.
struct Tracked {
  std::shared_ptr<TuningJob> job;
  Phase phase = Phase::kLo;
  Clock::time_point due, submitted, started, done;
  bool has_start = false;
  bool ok = false;
  std::string key;
};

struct Event {
  double t_s = 0;
  int session = 0;
  QuerySpec query;
};

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

std::string ResultKey(const TuningJob& job) {
  if (job.phase() != JobPhase::kDone) {
    return std::string("FAILED:") + aimai::JobPhaseName(job.phase());
  }
  const aimai::QueryTuningResult& r = job.outputs().query;
  std::string key = r.recommended.Fingerprint();
  if (r.base_plan != nullptr && r.final_plan != nullptr) {
    key += aimai::StrFormat("|%.17g|%.17g", r.base_plan->est_total_cost,
                            r.final_plan->est_total_cost);
  }
  return key;
}

/// Stamps job starts and completions by polling the published jobs every
/// ~20 µs. Polling (rather than TuningJob::terminal_ms, which is whole
/// milliseconds) is what gives sub-50 µs completion stamps.
class Watcher {
 public:
  explicit Watcher(std::vector<Tracked>* items) : items_(items) {
    thread_ = std::thread([this] { Loop(); });
  }
  ~Watcher() { Stop(); }
  Watcher(const Watcher&) = delete;
  Watcher& operator=(const Watcher&) = delete;

  /// Makes slots [0, n) visible to the watcher.
  void Publish(size_t n) { published_.store(n, std::memory_order_release); }
  size_t published() const {
    return published_.load(std::memory_order_acquire);
  }
  size_t completed() const {
    return completed_.load(std::memory_order_acquire);
  }

  /// Blocks until every published job has a completion stamp.
  void WaitDrained() const {
    while (completed() < published()) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

  void Stop() {
    stop_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
  }

  /// Poll-to-poll gaps in µs, and CPU steal sampled every 50 ms (both
  /// valid after Stop).
  const std::vector<double>& gaps_us() const { return gaps_us_; }
  const StealLog& steal() const { return steal_; }

 private:
  void Loop() {
    std::vector<size_t> active;
    size_t seen = 0;
    Clock::time_point last = Clock::now();
    Clock::time_point next_steal_sample = last;
    gaps_us_.reserve(1 << 20);
    while (true) {
      const size_t n = published();
      for (; seen < n; ++seen) active.push_back(seen);
      const Clock::time_point now = Clock::now();
      if (now >= next_steal_sample) {
        steal_.Sample();
        next_steal_sample = now + std::chrono::milliseconds(50);
      }
      if (!active.empty() && gaps_us_.size() < gaps_us_.capacity()) {
        gaps_us_.push_back(
            std::chrono::duration<double, std::micro>(now - last).count());
      }
      last = now;
      for (size_t k = 0; k < active.size();) {
        Tracked& t = (*items_)[active[k]];
        const JobPhase p = t.job->phase();
        if (p == JobPhase::kQueued) {
          ++k;
          continue;
        }
        const Clock::time_point stamp = Clock::now();
        if (!t.has_start) {
          t.started = stamp;
          t.has_start = true;
        }
        if (p == JobPhase::kRunning) {
          ++k;
          continue;
        }
        t.done = stamp;
        t.ok = p == JobPhase::kDone;
        t.key = ResultKey(*t.job);
        t.job.reset();
        completed_.fetch_add(1, std::memory_order_acq_rel);
        active[k] = active.back();
        active.pop_back();
      }
      if (stop_.load(std::memory_order_acquire) && active.empty() &&
          seen == published()) {
        steal_.Sample();
        return;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
  }

  std::vector<Tracked>* items_;
  std::atomic<size_t> published_{0};
  std::atomic<size_t> completed_{0};
  std::atomic<bool> stop_{false};
  std::vector<double> gaps_us_;
  StealLog steal_;
  std::thread thread_;
};

/// Draws `n` fresh queries from a stream (batches may come back short).
std::vector<QuerySpec> DrawQueries(aimai::IQueryStreamGenerator* gen, int n) {
  std::vector<QuerySpec> out;
  while (static_cast<int>(out.size()) < n) {
    auto batch = gen->NextQueryBatch(n - static_cast<int>(out.size()));
    AIMAI_CHECK_MSG(batch.ok(), batch.status().ToString().c_str());
    for (QuerySpec& q : *batch) out.push_back(std::move(q));
  }
  return out;
}

/// Per-session Poisson streams merged into one schedule at `rate` jobs/s
/// in total, over the horizon that yields `jobs` arrivals on average.
std::vector<Event> BuildSchedule(
    const ServeConfig& config, double rate, int jobs, uint64_t seed,
    std::vector<std::unique_ptr<aimai::IQueryStreamGenerator>>* gens) {
  const double duration = static_cast<double>(jobs) / rate;
  ArrivalSpec spec;
  spec.kind = ArrivalKind::kPoisson;
  spec.rate_per_sec = rate / static_cast<double>(config.sessions);
  auto process = aimai::MakeArrivalProcess(spec, duration);
  AIMAI_CHECK_MSG(process.ok(), process.status().ToString().c_str());
  std::vector<Event> schedule;
  for (int i = 0; i < config.sessions; ++i) {
    Rng rng(DeriveSeed(seed, static_cast<uint64_t>(i)));
    const std::vector<double> arrivals =
        aimai::GenerateArrivals(**process, duration, &rng);
    if (arrivals.empty()) continue;
    auto* gen = (*gens)[static_cast<size_t>(i) % gens->size()].get();
    std::vector<QuerySpec> queries =
        DrawQueries(gen, static_cast<int>(arrivals.size()));
    for (size_t a = 0; a < arrivals.size(); ++a) {
      schedule.push_back(Event{arrivals[a], i, std::move(queries[a])});
    }
  }
  std::stable_sort(schedule.begin(), schedule.end(),
                   [](const Event& a, const Event& b) {
                     if (a.t_s != b.t_s) return a.t_s < b.t_s;
                     return a.session < b.session;
                   });
  return schedule;
}

/// Blocks the hypervisor stole more than this share of CPU from are left
/// out of the block statistics below.
constexpr double kMaxBlockSteal = 0.02;

/// Median of the values of the blocks with at most kMaxBlockSteal steal;
/// when fewer than two are, of the least-stolen half (at least two).
double CleanMedian(const std::vector<double>& values,
                   const std::vector<double>& steal) {
  std::vector<size_t> order(values.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return steal[a] < steal[b]; });
  size_t keep = 0;
  while (keep < order.size() && steal[order[keep]] <= kMaxBlockSteal) ++keep;
  if (keep < 2) keep = std::min(order.size(), std::max<size_t>(2, order.size() / 2));
  std::vector<double> kept;
  for (size_t i = 0; i < keep; ++i) kept.push_back(values[order[i]]);
  return Median(std::move(kept));
}

/// One fixed-rate job: when it was due and when it completed.
struct Timed {
  Clock::time_point due, done;
};

/// Latency percentile `q` from due time, robust to stalls: the median over
/// blocks of 1000 consecutive jobs (in dispatch order) of each block's
/// percentile, leaving out blocks during which the hypervisor stole CPU.
double BlockPercentile(const std::vector<Timed>& jobs, double q,
                       const StealLog& steal) {
  constexpr size_t kBlock = 1000;
  auto latencies = [&](size_t from, size_t to) {
    std::vector<double> ms;
    for (size_t i = from; i < to; ++i) {
      ms.push_back(Ms(jobs[i].done - jobs[i].due));
    }
    return ms;
  };
  if (jobs.size() < 2 * kBlock) return Percentile(latencies(0, jobs.size()), q);
  std::vector<double> values, stolen;
  for (size_t b = 0; b + kBlock <= jobs.size(); b += kBlock) {
    values.push_back(Percentile(latencies(b, b + kBlock), q));
    Clock::time_point end = jobs[b].done;
    for (size_t i = b; i < b + kBlock; ++i) end = std::max(end, jobs[i].done);
    stolen.push_back(steal.Between(jobs[b].due, end));
  }
  return CleanMedian(values, stolen);
}

/// Completion rate, robust to stalls: the median over blocks of 2000
/// consecutive completions of each block's completions per second,
/// leaving out blocks during which the hypervisor stole CPU.
double BlockRate(Clock::time_point start, std::vector<Clock::time_point> done,
                 const StealLog& steal) {
  constexpr size_t kBlock = 2000;
  std::sort(done.begin(), done.end());
  auto rate = [](size_t n, Clock::time_point a, Clock::time_point b) {
    const double s = std::chrono::duration<double>(b - a).count();
    return s > 0 ? static_cast<double>(n) / s : 0.0;
  };
  if (done.size() < 2 * kBlock) {
    return done.empty() ? 0.0 : rate(done.size(), start, done.back());
  }
  std::vector<double> rates, stolen;
  for (size_t b = 0; b + kBlock <= done.size(); b += kBlock) {
    const Clock::time_point from = b == 0 ? start : done[b - 1];
    rates.push_back(rate(kBlock, from, done[b + kBlock - 1]));
    stolen.push_back(steal.Between(from, done[b + kBlock - 1]));
  }
  return CleanMedian(rates, stolen);
}

}  // namespace

ServeResult RunServe(
    const ServeConfig& config, uint64_t seed,
    std::vector<std::unique_ptr<aimai::IQueryStreamGenerator>>* generators) {
  ServeResult result;

  // Inputs first: all three phases' arrivals and queries, so the timed
  // phases only dispatch.
  const std::vector<Event> lo = BuildSchedule(
      config, kLoRate, config.jobs_per_rate, DeriveSeed(seed, 1), generators);
  const std::vector<Event> hi = BuildSchedule(
      config, kHiRate, config.jobs_per_rate, DeriveSeed(seed, 2), generators);
  std::vector<Event> sat;
  {
    std::vector<std::vector<QuerySpec>> per_session(
        static_cast<size_t>(config.sessions));
    const int per = (config.sat_jobs + config.sessions - 1) / config.sessions;
    for (int i = 0; i < config.sessions; ++i) {
      per_session[static_cast<size_t>(i)] = DrawQueries(
          (*generators)[static_cast<size_t>(i) % generators->size()].get(),
          per);
    }
    for (int j = 0; j < config.sat_jobs; ++j) {
      const int s = j % config.sessions;
      sat.push_back(Event{0.0, s,
                          per_session[static_cast<size_t>(s)]
                                     [static_cast<size_t>(j / config.sessions)]});
    }
  }

  aimai::ServiceOptions sopts;
  sopts.threads = 1;
  sopts.job_runners = kServeRunners;
  sopts.max_inflight_jobs = kServeRunners;
  // Never shed: the bound covers every job of the largest phase.
  sopts.max_queued_jobs = static_cast<int>(
      std::max({lo.size(), hi.size(), sat.size()}) + 16);
  sopts.max_sessions = config.sessions + 1;
  sopts.cache_shard_capacity = kCacheShardCapacity;
  sopts.job_retry.max_attempts = 1;
  auto service_or = aimai::TuningService::Create(sopts);
  AIMAI_CHECK_MSG(service_or.ok(), service_or.status().ToString().c_str());
  std::unique_ptr<aimai::TuningService> service =
      std::move(service_or).value();

  std::vector<Session*> sessions;
  std::vector<const Configuration*> bases;
  for (int i = 0; i < config.sessions; ++i) {
    const size_t k = static_cast<size_t>(i) % generators->size();
    aimai::BenchmarkDatabase* bdb = (*generators)[k]->database();
    aimai::SessionOptions so;
    so.name = aimai::StrFormat("s%d", i);
    so.env = bdb->MakeEnv(static_cast<int>(k));
    so.max_new_indexes = kMaxNewIndexes;
    auto session = service->CreateSession(std::move(so));
    AIMAI_CHECK_MSG(session.ok(), session.status().ToString().c_str());
    sessions.push_back(*session);
    bases.push_back(&bdb->initial_config());
  }

  std::vector<Tracked> items(lo.size() + hi.size() + sat.size());
  size_t next = 0;
  std::vector<double> lag_ms;
  Watcher watcher(&items);

  auto submit = [&](const Event& ev, Phase phase, Clock::time_point due) {
    ++result.arrived;
    auto job = sessions[static_cast<size_t>(ev.session)]->TuneQuery(
        ev.query, *bases[static_cast<size_t>(ev.session)]);
    const Clock::time_point now = Clock::now();
    if (phase != Phase::kSat) lag_ms.push_back(Ms(now - due));
    if (job.ok()) {
      ++result.admitted;
      Tracked& t = items[next];
      t.job = std::move(*job);
      t.phase = phase;
      t.due = due;
      t.submitted = now;
      watcher.Publish(++next);
    } else if (job.status().code() == aimai::StatusCode::kResourceExhausted) {
      ++result.shed;
    } else {
      ++result.rejected;
    }
  };

  const Clock::time_point wall0 = Clock::now();
  // Saturating phase first (it also warms every session and database):
  // keep kSatQueue jobs outstanding until all are in.
  const Clock::time_point sat0 = Clock::now();
  for (const Event& ev : sat) {
    while (watcher.published() - watcher.completed() >=
           kSatQueue) {
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
    submit(ev, Phase::kSat, Clock::now());
  }
  watcher.WaitDrained();

  for (const auto& [schedule, phase] :
       {std::pair{&lo, Phase::kLo}, std::pair{&hi, Phase::kHi}}) {
    const Clock::time_point t0 =
        Clock::now() + std::chrono::milliseconds(2);
    for (const Event& ev : *schedule) {
      const Clock::time_point due =
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(ev.t_s));
      std::this_thread::sleep_until(due);
      submit(ev, phase, due);
    }
    watcher.WaitDrained();
  }

  watcher.Stop();
  result.wall_s = SecondsSince(wall0);

  std::vector<Timed> lat[2];
  std::vector<double> wait_ms, run_ms;
  Digest digest;
  std::vector<Clock::time_point> sat_done_at;
  for (size_t i = 0; i < next; ++i) {
    const Tracked& t = items[i];
    digest.Add(t.key);
    if (t.ok) {
      ++result.completed;
    } else {
      ++result.failed;
    }
    if (t.phase == Phase::kSat) {
      sat_done_at.push_back(t.done);
      continue;
    }
    lat[t.phase == Phase::kHi ? 1 : 0].push_back(Timed{t.due, t.done});
    wait_ms.push_back(Ms(t.started - t.submitted));
    run_ms.push_back(Ms(t.done - t.started));
  }
  result.digest = digest.Hex();
  result.lo_p50_ms = BlockPercentile(lat[0], 0.50, watcher.steal());
  result.lo_p99_ms = BlockPercentile(lat[0], 0.99, watcher.steal());
  result.hi_p50_ms = BlockPercentile(lat[1], 0.50, watcher.steal());
  result.hi_p99_ms = BlockPercentile(lat[1], 0.99, watcher.steal());
  result.capacity_jps =
      BlockRate(sat0, std::move(sat_done_at), watcher.steal());
  result.gen_lag_p99_ms = Percentile(lag_ms, 0.99);
  result.gen_lag_max_ms =
      lag_ms.empty() ? 0.0 : *std::max_element(lag_ms.begin(), lag_ms.end());
  result.poll_gap_p99_us = Percentile(watcher.gaps_us(), 0.99);
  result.queue_wait_p50_ms = Percentile(wait_ms, 0.50);
  result.queue_wait_p99_ms = Percentile(wait_ms, 0.99);
  result.run_p50_ms = Percentile(run_ms, 0.50);
  result.run_p99_ms = Percentile(run_ms, 0.99);
  result.cache_lookups = service->cache_domain().num_lookups();
  result.cache_hits = service->cache_domain().num_hits();

  // Accounting: the load generator's books against the admission controller's.
  int64_t ctl_admitted = 0, ctl_shed = 0;
  for (const auto& [name, counts] : service->admission().AllTenantStats()) {
    ctl_admitted += counts.admitted;
    ctl_shed += counts.shed;
  }
  result.accounting_ok =
      result.arrived == result.admitted + result.shed + result.rejected &&
      ctl_admitted == result.admitted && ctl_shed == result.shed &&
      result.admitted == result.completed + result.failed;
  service->Shutdown();
  return result;
}

}  // namespace perfbench
