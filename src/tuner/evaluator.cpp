#include "tuner/evaluator.hpp"

#include <algorithm>

#include "common/telemetry/telemetry.hpp"

namespace pt::tuner {

void RejectionCounts::note(clsim::Status status) {
  for (auto& [s, n] : counts_) {
    if (s == status) {
      ++n;
      return;
    }
  }
  counts_.emplace_back(status, 1);
}

std::size_t RejectionCounts::total() const noexcept {
  std::size_t sum = 0;
  for (const auto& [status, n] : counts_) sum += n;
  return sum;
}

std::size_t RejectionCounts::count(clsim::Status status) const noexcept {
  for (const auto& [s, n] : counts_) {
    if (s == status) return n;
  }
  return 0;
}

std::vector<std::pair<clsim::Status, std::size_t>> RejectionCounts::sorted()
    const {
  auto out = counts_;
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return static_cast<int>(a.first) < static_cast<int>(b.first);
  });
  return out;
}

std::string RejectionCounts::to_string() const {
  if (counts_.empty()) return "none";
  std::string out;
  for (const auto& [status, n] : sorted()) {
    if (!out.empty()) out += ", ";
    out += clsim::to_string(status);
    out += " x";
    out += std::to_string(n);
  }
  return out;
}

Measurement CachingEvaluator::measure(const Configuration& config) {
  const std::uint64_t key = inner_.space().encode(config);
  const auto it = cache_.find(key);
  if (it != cache_.end()) {
    ++hits_;
    common::telemetry::count("evaluator.cache.hit");
    return it->second;
  }
  ++misses_;
  common::telemetry::count("evaluator.cache.miss");
  const Measurement m = inner_.measure(config);
  cache_.emplace(key, m);
  return m;
}

Measurement CountingEvaluator::measure(const Configuration& config) {
  const Measurement m = inner_.measure(config);
  ++total_;
  if (!m.valid) {
    ++invalid_;
    rejections_.note(m.status);
  }
  cost_ms_ += m.cost_ms;
  return m;
}

}  // namespace pt::tuner
