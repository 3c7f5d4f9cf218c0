#ifndef AIMAI_TRAFFIC_ARRIVAL_H_
#define AIMAI_TRAFFIC_ARRIVAL_H_

#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"

namespace aimai {

/// The shapes of open-loop arrival processes the traffic engine drives:
/// arrivals are generated from the process alone — never from job
/// completions — which is what makes overload possible (a closed loop
/// self-throttles; production traffic does not).
enum class ArrivalKind {
  /// Homogeneous Poisson at a constant rate.
  kPoisson,
  /// Sinusoidal day/night modulation around the base rate.
  kDiurnal,
  /// Steady base rate with a multiplicative spike window (the overload
  /// phase the SLO machinery is judged under).
  kFlashCrowd,
};

const char* ArrivalKindName(ArrivalKind kind);
/// Parses "poisson" / "diurnal" / "flash" (CLI flag values).
StatusOr<ArrivalKind> ParseArrivalKind(const std::string& name);

/// Parameters of one session's arrival process. Fractions are of the
/// run's duration so the same spec scales to any horizon.
struct ArrivalSpec {
  ArrivalKind kind = ArrivalKind::kPoisson;
  /// Mean arrivals per second outside any modulation.
  double rate_per_sec = 1.0;
  /// Diurnal: modulation period and relative amplitude in [0, 1]
  /// (rate(t) = rate * (1 + amplitude * sin(2*pi*t / period))).
  double period_s = 60.0;
  double amplitude = 0.8;
  /// Flash crowd: spike window as fractions of the duration, and the
  /// rate multiplier inside it.
  double flash_start_frac = 0.5;
  double flash_duration_frac = 0.2;
  double flash_multiplier = 8.0;

  Status Validate() const;
};

/// A non-homogeneous arrival-rate function over [0, duration). Pure and
/// stateless: all randomness lives in GenerateArrivals' Rng, so the same
/// (spec, duration, seed) triple yields the same arrival times on any
/// machine and thread count.
class ArrivalProcess {
 public:
  virtual ~ArrivalProcess() = default;
  virtual ArrivalKind kind() const = 0;
  /// Instantaneous rate (arrivals/sec) at time `t_s`.
  virtual double RateAt(double t_s) const = 0;
  /// An upper bound on RateAt over the horizon (the thinning envelope).
  virtual double PeakRate() const = 0;
};

/// Builds the process for `spec` over a `duration_s` horizon (the flash
/// window is resolved against it). Validates the spec.
StatusOr<std::unique_ptr<ArrivalProcess>> MakeArrivalProcess(
    const ArrivalSpec& spec, double duration_s);

/// Samples the arrival times in [0, duration_s), sorted ascending, by
/// thinning a homogeneous Poisson process at PeakRate(): candidate gaps
/// are exponential at the peak rate and each candidate survives with
/// probability RateAt(t)/peak. Deterministic given the Rng's state.
std::vector<double> GenerateArrivals(const ArrivalProcess& process,
                                     double duration_s, Rng* rng);

}  // namespace aimai

#endif  // AIMAI_TRAFFIC_ARRIVAL_H_
