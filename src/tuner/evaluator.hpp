#pragma once

// Evaluator: the auto-tuner's only window onto the world. It measures one
// configuration and reports either a time or "invalid" (the simulated
// driver rejected the configuration) — mirroring how the paper's tuner
// interacts with OpenCL. Decorators add caching and cost accounting.

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "clsim/error.hpp"
#include "tuner/param.hpp"

namespace pt::tuner {

/// Outcome of measuring one configuration.
struct Measurement {
  bool valid = false;
  double time_ms = 0.0;  // kernel execution time (only if valid)
  /// Why the configuration was rejected (meaningful when !valid).
  clsim::Status status = clsim::Status::kSuccess;
  /// Total simulated wall cost of obtaining this measurement, including
  /// compilation and failed launch attempts — what data gathering costs.
  double cost_ms = 0.0;
  /// Raw inner measurements behind this result (> 1 when a robustness
  /// decorator repeated or retried the measurement; see tuner/robust.hpp).
  std::uint32_t attempts = 1;
  /// Transient launch failures absorbed by retry while producing it.
  std::uint32_t transient_faults = 0;
  /// This failure is transient: the launch failed for a reason outside the
  /// configuration, so a retry may succeed. Only a fault injector sets it
  /// (see tuner/robust.hpp); the driver's own rejections, CL_OUT_OF_RESOURCES
  /// included, are properties of the configuration and never carry it.
  bool transient = false;
};

/// Per-status tally of rejected measurements. Call sites that skip invalid
/// measurements record the reason here so "all candidates invalid" failures
/// stay diagnosable (which driver rejection, how often) instead of a bare
/// count.
class RejectionCounts {
 public:
  void note(clsim::Status status);
  void merge(const RejectionCounts& other);

  [[nodiscard]] std::size_t total() const noexcept;
  [[nodiscard]] std::size_t count(clsim::Status status) const noexcept;
  [[nodiscard]] bool empty() const noexcept { return counts_.empty(); }

  /// "CL_OUT_OF_LOCAL_MEMORY x12, CL_INVALID_WORK_GROUP_SIZE x3" —
  /// descending by count (ties broken by status value, so the string is
  /// deterministic).
  [[nodiscard]] std::string to_string() const;

  /// (status, count) pairs in the same order as to_string().
  [[nodiscard]] std::vector<std::pair<clsim::Status, std::size_t>> sorted()
      const;

 private:
  std::vector<std::pair<clsim::Status, std::size_t>> counts_;
};

class Evaluator {
 public:
  virtual ~Evaluator() = default;

  [[nodiscard]] virtual const ParamSpace& space() const = 0;
  [[nodiscard]] virtual std::string name() const = 0;

  /// Measure one configuration (compile + launch in the simulated runtime).
  [[nodiscard]] virtual Measurement measure(const Configuration& config) = 0;

  /// Decorators return the evaluator they wrap, so diagnostics can walk a
  /// stack without knowing its composition (see find_layer). Leaf
  /// evaluators return nullptr.
  [[nodiscard]] virtual Evaluator* inner() noexcept { return nullptr; }
};

/// Outermost layer of type T in a decorator chain, starting at `evaluator`
/// itself and following inner() links; nullptr when absent. How tuners find
/// the CachingEvaluator (for hit/miss reporting) inside an arbitrary stack.
template <typename T>
[[nodiscard]] T* find_layer(Evaluator* evaluator) noexcept {
  for (Evaluator* e = evaluator; e != nullptr; e = e->inner()) {
    if (T* layer = dynamic_cast<T*>(e)) return layer;
  }
  return nullptr;
}

/// Memoizes measurements by configuration index. Exhaustive ground-truth
/// sweeps and repeated tuner runs share one cache.
class CachingEvaluator final : public Evaluator {
 public:
  explicit CachingEvaluator(Evaluator& inner) : inner_(inner) {}

  [[nodiscard]] const ParamSpace& space() const override {
    return inner_.space();
  }
  [[nodiscard]] std::string name() const override { return inner_.name(); }

  [[nodiscard]] Measurement measure(const Configuration& config) override;

  [[nodiscard]] Evaluator* inner() noexcept override { return &inner_; }

  [[nodiscard]] std::size_t cache_size() const noexcept {
    return cache_.size();
  }
  [[nodiscard]] std::size_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::size_t misses() const noexcept { return misses_; }

 private:
  Evaluator& inner_;
  std::unordered_map<std::uint64_t, Measurement> cache_;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
};

/// Counts measurements and accumulates simulated cost; wraps any evaluator.
class CountingEvaluator final : public Evaluator {
 public:
  explicit CountingEvaluator(Evaluator& inner) : inner_(inner) {}

  [[nodiscard]] const ParamSpace& space() const override {
    return inner_.space();
  }
  [[nodiscard]] std::string name() const override { return inner_.name(); }

  [[nodiscard]] Measurement measure(const Configuration& config) override;

  [[nodiscard]] Evaluator* inner() noexcept override { return &inner_; }

  [[nodiscard]] std::size_t total_measurements() const noexcept {
    return total_;
  }
  [[nodiscard]] std::size_t invalid_measurements() const noexcept {
    return invalid_;
  }
  [[nodiscard]] double total_cost_ms() const noexcept { return cost_ms_; }
  /// Why the invalid measurements were rejected, by status.
  [[nodiscard]] const RejectionCounts& rejections() const noexcept {
    return rejections_;
  }

  void reset() noexcept {
    total_ = 0;
    invalid_ = 0;
    cost_ms_ = 0.0;
    rejections_ = RejectionCounts{};
  }

 private:
  Evaluator& inner_;
  std::size_t total_ = 0;
  std::size_t invalid_ = 0;
  double cost_ms_ = 0.0;
  RejectionCounts rejections_;
};

}  // namespace pt::tuner
