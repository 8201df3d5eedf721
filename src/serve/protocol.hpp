#pragma once

// The tuning-as-a-service wire types (DESIGN.md §9).
//
// A TuneService answers two kinds of requests, both addressed by a TuneKey
// — the (kernel, device, input-size) triple that identifies one tuning
// problem, the same key shape per-GPU tuning caches use:
//
//   kTune    -> find the best configuration for the key (running the
//               two-stage tuner unless the persistent store already holds
//               an entry for the key at the requested seed);
//   kPredict -> evaluate the stored performance model of the key at one
//               configuration, without measuring anything.
//
// Requests carry a client-supplied seed so served results are reproducible
// and bit-identical to a direct AutoTuner::tune(evaluator,
// TuneRun::with_seed(seed)) call with the service's tuner options: the
// store is keyed by (key, seed), and a cache hit returns exactly what the
// original tune returned.

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

#include "tuner/param.hpp"

namespace pt::serve {

/// Address of one tuning problem: which kernel, on which device, at which
/// input size. All three are free-form labels; the service's evaluator
/// factory decides what they mean (see catalog.hpp for the built-in
/// benchmark-registry binding).
struct TuneKey {
  std::string kernel;
  std::string device;
  std::string input;

  [[nodiscard]] bool operator==(const TuneKey& other) const noexcept {
    return kernel == other.kernel && device == other.device &&
           input == other.input;
  }
  [[nodiscard]] bool operator!=(const TuneKey& other) const noexcept {
    return !(*this == other);
  }

  /// "kernel @ device / input" — for logs and error messages.
  [[nodiscard]] std::string to_string() const {
    return kernel + " @ " + device + " / " + input;
  }
};

/// FNV-1a over the three fields with separators, so ("a","bc") and
/// ("ab","c") hash differently.
struct TuneKeyHash {
  [[nodiscard]] std::size_t operator()(const TuneKey& key) const noexcept {
    std::uint64_t h = 1469598103934665603ULL;
    const auto mix = [&h](std::string_view s) {
      for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ULL;
      }
      h ^= 0xffU;  // field separator
      h *= 1099511628211ULL;
    };
    mix(key.kernel);
    mix(key.device);
    mix(key.input);
    return static_cast<std::size_t>(h);
  }
};

enum class RequestKind : std::uint8_t {
  kTune,     // run (or serve from store) a full tune for the key
  kPredict,  // evaluate the key's stored model at request.config
};

enum class ResponseStatus : std::uint8_t {
  kOk,                 // best_config / predicted_ms is valid
  kNotTuned,           // predict for a key+seed with no stored entry
  kRejectedQueueFull,  // admission control: the tenant's queue is full
  kInvalidKey,         // the evaluator factory does not recognise the key
  kNoPrediction,       // the tune ran but found no valid configuration
                       // (the paper's stereo-on-GPU failure mode)
  kShutdown,           // the service stopped before the request ran
};

[[nodiscard]] constexpr std::string_view to_string(
    ResponseStatus status) noexcept {
  switch (status) {
    case ResponseStatus::kOk: return "ok";
    case ResponseStatus::kNotTuned: return "not_tuned";
    case ResponseStatus::kRejectedQueueFull: return "rejected_queue_full";
    case ResponseStatus::kInvalidKey: return "invalid_key";
    case ResponseStatus::kNoPrediction: return "no_prediction";
    case ResponseStatus::kShutdown: return "shutdown";
  }
  return "unknown";
}

/// One client request. Default-constructed it is a tune of an empty key —
/// fill in at least kind, key and seed.
struct TuneRequest {
  RequestKind kind = RequestKind::kTune;
  TuneKey key;
  /// Client-supplied tuner seed. Served tunes run
  /// AutoTuner::tune(evaluator, TuneRun::with_seed(seed)), so equal
  /// (key, seed) requests have bit-identical answers.
  std::uint64_t seed = 1;
  /// kPredict: the configuration to price (values in the key's space
  /// order). Ignored for kTune.
  std::optional<tuner::Configuration> config;
  /// kTune: answer from the persistent store when it holds (key, seed).
  /// false forces a fresh tune (whose result still refreshes the store).
  bool allow_cached = true;
};

/// One service answer. `status == kOk` is the success case; everything else
/// explains in `error` why there is no answer.
struct TuneResponse {
  ResponseStatus status = ResponseStatus::kShutdown;
  TuneKey key;
  std::uint64_t seed = 1;
  /// The answer came from the persistent store, not a fresh tune.
  bool from_cache = false;
  /// This request was merged onto another in-flight tune of the same
  /// (key, seed) instead of running its own.
  bool coalesced = false;
  /// kTune + kOk: the winning configuration and its measured time.
  tuner::Configuration best_config;
  double best_time_ms = 0.0;
  /// kPredict + kOk: the stored model's predicted time for request.config.
  double predicted_ms = 0.0;
  /// Human-readable diagnosis for non-kOk statuses.
  std::string error;
  /// Wall time from admission to completion, as seen by the service.
  double latency_ms = 0.0;
};

}  // namespace pt::serve
