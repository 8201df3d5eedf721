#pragma once

// Persistence for trained performance models: save a fitted
// AnnPerformanceModel (options, parameter space, feature codec, target
// scaling and the ensemble weights) to a text stream and restore it later —
// so the expensive data-gathering phase can be paid once per device and the
// model reused across runs.

#include <cstddef>
#include <iosfwd>

#include "tuner/model.hpp"

namespace pt::tuner {

/// Longest parameter name save_model writes and load_model reads.
inline constexpr std::size_t kMaxParamNameLength = 128;

/// Write a fitted model. Throws std::logic_error if the model is unfitted,
/// has problem parameters, or a parameter name has whitespace or is longer
/// than kMaxParamNameLength.
void save_model(const AnnPerformanceModel& model, std::ostream& os);

/// Read a model written by save_model. Throws std::runtime_error on a
/// malformed stream.
[[nodiscard]] AnnPerformanceModel load_model(std::istream& is);

}  // namespace pt::tuner
