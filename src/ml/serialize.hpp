#pragma once

// Plain-text (de)serialization of trained models, so examples can persist an
// auto-tuner's performance model and reload it on a later run. The format is
// line-oriented, versioned, and locale-independent (max-precision doubles).

#include <iosfwd>

#include "ml/ensemble.hpp"
#include "ml/member.hpp"

namespace pt::ml {

/// Write a single member as a two-layer network (topology + weights).
void save_mlp(const Member& member, std::ostream& os);

/// Read a network written by save_mlp. Throws std::runtime_error on a
/// malformed stream, an activation other than linear and sigmoid included,
/// and std::invalid_argument for a well-formed network of any shape but the
/// member's (ml/member.hpp). Memory grows only with the values actually
/// read, whatever counts the stream claims.
[[nodiscard]] Member load_mlp(std::istream& is);

/// Write a fitted ensemble (options, scaler, members).
void save_ensemble(const BaggingEnsemble& ensemble, std::ostream& os);

/// Read an ensemble written by save_ensemble. Throws std::runtime_error on
/// a malformed stream and std::invalid_argument when the members are not
/// the ensemble's shape (ml/ensemble.hpp).
[[nodiscard]] BaggingEnsemble load_ensemble(std::istream& is);

}  // namespace pt::ml
