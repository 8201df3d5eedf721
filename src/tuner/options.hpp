#pragma once

// TunerOptions + TuneRun — the shared configuration base and the one
// per-run request struct of the tuning stack.
//
// TunerOptions collects the fields every tuner shares (the performance-model
// configuration and the opt-in clstat static pre-filter);
// AutoTunerOptions and IterativeTunerOptions inherit it, so a service can
// configure both tuners through one type. No options struct carries
// per-run state.
//
// TuneRun is the request: everything that may vary per tune() call — the
// seed (or an external RNG), the stage-1 sampler, the observer and the
// telemetry collector. Each tuner has exactly one entry point,
// `tune(Evaluator&, const TuneRun& = {})`; a default TuneRun is
// `TuneRun::with_seed(1)`. The serve layer (src/serve) only issues
// with_seed requests.
//
// The worker-pool size is not part of a run: the pool is process-global and
// shared by every concurrent tune, so a run cannot resize it under the
// others. Results do not depend on it. A caller that wants a pool size calls
// common::set_global_pool_threads before the run (the CLIs' --threads).

#include <cstdint>
#include <memory>

#include "clsim/analyze/checker.hpp"
#include "common/rng.hpp"
#include "common/telemetry/telemetry.hpp"
#include "tuner/model.hpp"
#include "tuner/observer.hpp"

namespace pt::tuner {

class Sampler;

/// Configuration shared by every tuner. Derived option structs add their
/// stage budgets and tuner-specific knobs on top.
struct TunerOptions {
  /// Performance-model configuration (ensemble topology, target transform,
  /// feature encoding).
  AnnPerformanceModel::Options model{};
  /// Opt-in clstat static pre-filter for prediction scans. Must be built
  /// over the evaluated space (same dimension order) and the target device.
  /// See the derived options for each tuner's pruning semantics.
  std::shared_ptr<const clsim::analyze::StaticChecker> static_checker;
};

/// One tune request. Observer and telemetry never change a result: a run
/// with them set is bit-identical to the same run without them.
struct TuneRun {
  /// Seed of the run's generator; ignored when `rng` is set.
  std::uint64_t seed = 1;
  /// External generator for callers that thread one RNG through several
  /// runs (the harness idiom).
  common::Rng* rng = nullptr;
  /// Stage-1 sampler (AutoTuner only; IterativeTuner ignores it).
  /// nullptr = the paper's uniform RandomSampler.
  const Sampler* sampler = nullptr;
  /// Callback sink (nullptr = no callbacks).
  TunerObserver* observer = nullptr;
  /// Telemetry collector installed process-globally for the duration of the
  /// run (see common/telemetry). nullptr leaves the ambient collector —
  /// including "none" — untouched, so a run never *disables* telemetry an
  /// outer scope enabled.
  common::telemetry::Collector* telemetry = nullptr;

  /// A request that only sets the seed (what a served tune uses).
  [[nodiscard]] static TuneRun with_seed(std::uint64_t seed) {
    TuneRun request;
    request.seed = seed;
    return request;
  }

  /// A request threading an external generator (one RNG across several
  /// runs).
  [[nodiscard]] static TuneRun with_rng(common::Rng& rng) {
    TuneRun request;
    request.rng = &rng;
    return request;
  }
};

}  // namespace pt::tuner
