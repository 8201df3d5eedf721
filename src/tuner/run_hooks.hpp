#pragma once

// Per-run plumbing shared by AutoTuner::tune and IterativeTuner::tune:
// observer stages mirrored as telemetry spans, the replay of training
// curves, and the end-of-run reports both results carry. Private to
// src/tuner: no public header includes it.

#include <cstddef>
#include <string>
#include <string_view>

#include "common/log.hpp"
#include "common/telemetry/telemetry.hpp"
#include "ml/ensemble.hpp"
#include "tuner/evaluator.hpp"
#include "tuner/observer.hpp"
#include "tuner/scan.hpp"

namespace pt::tuner {

/// Observer stage + telemetry span in one RAII object, so the two report
/// identical nesting. A null observer records the span only.
class StageScope {
 public:
  StageScope(TunerObserver* observer, std::string_view tuner,
             std::string_view stage)
      : observer_(observer), tuner_(tuner), stage_(stage), span_(stage) {
    if (observer_ != nullptr) observer_->on_stage_begin(tuner, stage);
  }
  ~StageScope() { finish(); }

  StageScope(const StageScope&) = delete;
  StageScope& operator=(const StageScope&) = delete;

  /// Close the stage now (idempotent).
  void finish() {
    if (open_) {
      open_ = false;
      span_.finish();
      if (observer_ != nullptr) observer_->on_stage_end(tuner_, stage_);
    }
  }

 private:
  TunerObserver* observer_;
  std::string_view tuner_;
  std::string_view stage_;
  common::telemetry::Span span_;
  bool open_ = true;
};

/// Delivers the per-member training curves of a fitted ensemble in
/// (member, epoch) order: concurrent training, deterministic callbacks.
inline void replay_epochs(TunerObserver* observer,
                          const ml::BaggingEnsemble& ensemble) {
  if (observer == nullptr) return;
  const auto& curves = ensemble.train_results();
  for (std::size_t member = 0; member < curves.size(); ++member) {
    const ml::TrainResult& tr = curves[member];
    for (std::size_t epoch = 0; epoch < tr.train_loss.size(); ++epoch)
      observer->on_epoch(member, epoch, tr.train_loss[epoch],
                         tr.monitored_loss[epoch]);
  }
}

// End-of-run reporting. `Result` is AutoTuneResult or IterativeTuneResult,
// which name these fields alike.

/// The hit and miss counts of the CachingEvaluator in an evaluator stack
/// (see find_layer), taken when a run starts.
class CacheSnapshot {
 public:
  explicit CacheSnapshot(Evaluator& evaluator)
      : cache_(find_layer<CachingEvaluator>(&evaluator)) {
    if (cache_ != nullptr) {
      hits_ = cache_->hits();
      misses_ = cache_->misses();
    }
  }

  /// Sets result.cache_hits/cache_misses to the lookups since the snapshot,
  /// logs them and gauges tuner.cache.hit_rate. Without a cache layer they
  /// stay 0/0.
  template <class Result>
  void report(std::string_view tuner, const Evaluator& evaluator,
              Result& result) const {
    if (cache_ == nullptr) return;
    result.cache_hits = cache_->hits() - hits_;
    result.cache_misses = cache_->misses() - misses_;
    const auto hits = static_cast<double>(result.cache_hits);
    const auto lookups =
        static_cast<double>(result.cache_hits + result.cache_misses);
    common::log_info(tuner, "[", evaluator.name(), "]: cache ",
                     result.cache_hits, " hits / ", result.cache_misses,
                     " misses (hit rate ",
                     lookups != 0.0 ? 100.0 * hits / lookups : 0.0, "%)");
    if (common::telemetry::enabled() && lookups != 0.0)
      common::telemetry::gauge("tuner.cache.hit_rate", hits / lookups);
  }

 private:
  const CachingEvaluator* cache_;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
};

/// Copies a run's clstat pre-filter tallies into result.static_*, logs them
/// and counts them as tuner.scan.static_*.
template <class Result>
void report_static_prune(std::string_view tuner, const Evaluator& evaluator,
                         const StaticPruneCounters& counters,
                         Result& result) {
  namespace tel = common::telemetry;
  result.static_checked = static_cast<std::size_t>(counters.checked.load());
  result.static_pruned = static_cast<std::size_t>(counters.pruned.load());
  result.static_proved_valid =
      static_cast<std::size_t>(counters.proved_valid.load());
  result.static_unknown = static_cast<std::size_t>(counters.unknown.load());
  const auto pruned = static_cast<double>(result.static_pruned);
  const auto checked = static_cast<double>(result.static_checked);
  common::log_info(tuner, "[", evaluator.name(), "]: static filter pruned ",
                   result.static_pruned, " of ", result.static_checked,
                   " checked (pruned fraction ",
                   checked != 0.0 ? 100.0 * pruned / checked : 0.0,
                   "%; verdicts: ", result.static_proved_valid,
                   " proved valid, ", result.static_pruned,
                   " proved invalid, ", result.static_unknown, " unknown)");
  if (!tel::enabled()) return;
  tel::count("tuner.scan.static_checked", checked);
  tel::count("tuner.scan.static_pruned", pruned);
  tel::count("tuner.scan.static_proved_valid",
             static_cast<double>(result.static_proved_valid));
  tel::count("tuner.scan.static_unknown",
             static_cast<double>(result.static_unknown));
  if (checked != 0.0)
    tel::gauge("tuner.scan.static_pruned_fraction", pruned / checked);
}

/// Per-status rejection counters ("tuner.rejections.CL_...").
inline void count_rejections(const RejectionCounts& rejections) {
  if (!common::telemetry::enabled()) return;
  for (const auto& [status, n] : rejections.sorted())
    common::telemetry::count(
        std::string("tuner.rejections.") + clsim::to_string(status),
        static_cast<double>(n));
}

}  // namespace pt::tuner
