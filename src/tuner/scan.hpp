#pragma once

// Parallel prediction-scan engine: evaluates a fitted ensemble over a flat
// index range in fixed 65536-row chunks dispatched on the global thread
// pool, with per-worker reusable scratch so a full-space scan performs no
// per-chunk allocations once the buffers are warm.
//
// Chunking is defined by the *index range*, never by the pool size, so every
// result is bit-identical regardless of the number of threads.
//
// Two entry points:
//  - scan_predict_range: the dense path; one predicted value per index.
//  - scan_top_m: the streaming selection path; keeps a bounded per-chunk
//    worst-on-top heap of the best m candidates (O(workers * m) memory,
//    O(n log m) time) instead of materializing |space| predictions. An
//    optional validity filter is evaluated lazily — only for candidates that
//    would enter the heap — and a parallel unfiltered top list is kept so
//    callers can top up when the filter rejects too much.
//
// Candidates are ordered by (raw network output, index): the output
// transform (affine with positive scale, optionally exp) is strictly
// increasing, so ranking raw outputs ranks predicted times, and the index
// tie-break makes the order total — merge results cannot depend on chunk
// arrival order.

// The scan has three inference paths, selected by ScanOptions::inference:
//  - kScalarFp64: the fp64 reference — per-chunk Matrix fill and
//    BaggingEnsemble::predict_batch_into.
//  - kBatchedFp32 (default): the SIMD path — per-chunk fp32 row fill and a
//    packed ml::BatchedEnsemble forward. Selection stays *exactly*
//    fp64-identical: each chunk keeps, besides its best-m heap, every
//    candidate whose fp32 output lies within 2 * B of the heap cutoff, and
//    after the merge all candidates within that band of the global fp32
//    cutoff are re-ranked through the fp64 path (whose per-row results are
//    bit-identical to the fp64 scan's chunked results, because every kernel
//    under predict_batch_into accumulates per output element in a row-count
//    independent order). B is the engine's certified bound on
//    |fp32 raw - fp64 raw| over the scanned rows (ml/batched.hpp), so the
//    returned top-M is the one the fp64 scan would return, candidate for
//    candidate, predicted values included — by proof, not by assumption.
//  - kQuantInt8: the quantized tier (ml/quant.hpp) — the same two-tier
//    scheme with a coarser first pass and a wider band, B =
//    ScanOptions::quant_error_bound. That bound is hand-set (checked with
//    2x margin by tests), so int8 is opt-in: its top-M equals the fp64 one
//    whenever |int8 raw - fp64 raw| stays within it.
//
// Pruned top-M (kBatchedFp32 with BatchedScan::radices and an engine that
// has node bounds): each chunk is walked depth first over the space's
// mixed-radix digits, nodes in ascending index order, clipped to the chunk.
// Before descending into a node, the bounds L~ of its children (one digit's
// radix; ml/batched.hpp) are computed as one batch, and a child is skipped
// when L~ - E(k) - B exceeds T, the larger of the unfiltered and filtered
// heap thresholds (cutoff + 2B once a heap is full, +inf before). Every row
// of a skipped child predicts at least L~ - E(k) - B in fp32, so the heaps
// would have rejected it when it was offered; such a rejection changes no
// state, and the filter is consulted only for rows a heap would keep. Leaves
// (the innermost boxes of at least kScanLeafRows rows) are evaluated and
// offered in index order as before, so every TopMScanResult field except
// pruned_rows is the unpruned scan's, at any thread count. Without radices
// or node bounds each chunk is a single leaf.

#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "clsim/analyze/checker.hpp"
#include "ml/batched.hpp"
#include "ml/ensemble.hpp"
#include "tuner/features.hpp"
#include "tuner/param.hpp"

namespace pt::tuner {

/// Rows per scan chunk. Fixed (not derived from the pool size) so results
/// are independent of the number of worker threads.
inline constexpr std::size_t kScanChunkRows = 65536;

/// Smallest leaf of the pruned top-M descent: the innermost digit box with
/// at least this many rows is evaluated row by row.
inline constexpr std::uint64_t kScanLeafRows = 8;

/// Maps a raw network output to a predicted time: y * scale + mean, then
/// exp when `exponentiate` (matches the model's target standardization and
/// optional log-target transform bit for bit). Strictly increasing as long
/// as scale > 0, which scan_top_m requires.
struct OutputTransform {
  double scale = 1.0;
  double mean = 0.0;
  bool exponentiate = false;

  [[nodiscard]] double operator()(double y) const noexcept {
    const double raw = y * scale + mean;
    return exponentiate ? std::exp(raw) : raw;
  }
};

/// One selected configuration: flat index plus its predicted time.
struct ScanCandidate {
  std::uint64_t index = 0;
  double predicted_ms = 0.0;
};

/// Result of scan_top_m. `top` is the best-first filtered selection (equal
/// to `top_unfiltered` when no filter was given); `rejected` counts filter
/// rejections, which only happen for candidates good enough to enter a
/// chunk heap at the moment they were scanned. The last three fields are
/// only non-zero on the reduced-precision paths: `error_bound` is the
/// half-width B of the re-rank band (the fp32 engine's certified bound, or
/// the declared int8 bound), `fp64_reranked` counts candidates sent through
/// the fp64 reference for exact ranking, `near_ties` the subset that sat
/// outside the coarse top-m but within the band (i.e. the ones whose fate
/// fp64 actually decided). `pruned_rows` counts the rows of `scanned` the
/// pruned fp32 scan proved out of reach and never evaluated.
struct TopMScanResult {
  std::vector<ScanCandidate> top;
  std::vector<ScanCandidate> top_unfiltered;
  std::uint64_t scanned = 0;
  std::uint64_t rejected = 0;
  double error_bound = 0.0;
  std::uint64_t fp64_reranked = 0;
  std::uint64_t near_ties = 0;
  std::uint64_t pruned_rows = 0;
};

/// Which inference engine the scan drives.
enum class ScanInference {
  kScalarFp64,   // per-chunk fp64 matrix forward (reference)
  kBatchedFp32,  // packed SIMD fp32 forward, certified fp64 re-rank band
  kQuantInt8,    // s8-weight/u7-activation forward, declared re-rank band
};

[[nodiscard]] constexpr const char* scan_inference_name(
    ScanInference inference) noexcept {
  switch (inference) {
    case ScanInference::kScalarFp64:
      return "fp64";
    case ScanInference::kBatchedFp32:
      return "fp32";
    case ScanInference::kQuantInt8:
      return "int8";
  }
  return "fp64";
}

/// Scan tuning knobs, carried by the model layer (AnnPerformanceModel
/// options) so callers choose an engine without new plumbing at every call
/// site.
struct ScanOptions {
  ScanInference inference = ScanInference::kBatchedFp32;
  /// Assumed upper bound on |int8 raw output - fp64 raw output| for
  /// kQuantInt8, in raw (standardized) output units. Candidates within 2x
  /// this bound of the int8 selection cutoff are re-ranked in fp64.
  /// Deliberately loose — int8 error is dominated by the u7 activation
  /// resolution times the output layer's L1 norm; BENCH_scan.json measures
  /// 0.024–0.037 worst-case on the paper's default ensemble (k = 11,
  /// 1 x 30 sigmoid) over the three Table-2 spaces. Tests verify the
  /// measured error stays under half this bound so it keeps a 2x margin.
  double quant_error_bound = 0.15;
};

/// Validity predicate over flat indices. Called concurrently from worker
/// threads; must be thread-safe (read-only captures are fine).
using ScanFilter = std::function<bool(std::uint64_t)>;

/// Verdict tallies of a clstat static pre-filter built by
/// make_static_scan_filter. Atomic: scan workers bump them concurrently.
/// Queries happen lazily (heap-entry candidates only), so `checked` is a
/// lower bound on the provable configurations in the scanned range; the
/// three verdict counters always sum to it.
struct StaticPruneCounters {
  std::atomic<std::uint64_t> checked{0};
  std::atomic<std::uint64_t> pruned{0};        // kProvedInvalid, rejected
  std::atomic<std::uint64_t> proved_valid{0};  // kProvedValid, kept
  std::atomic<std::uint64_t> unknown{0};       // kUnknown, kept
};

/// Wrap a clstat StaticChecker as a ScanFilter: each queried flat index is
/// decoded through `space` and rejected iff the analyzer proves the
/// configuration invalid — sound, so only configurations that would measure
/// invalid are ever pruned. Verdicts are tallied into `counters`. All three
/// references must outlive the returned filter. A non-empty `next` filter
/// is consulted after a configuration survives the static check (so e.g. a
/// learned validity filter never feature-encodes proven-invalid points).
[[nodiscard]] ScanFilter make_static_scan_filter(
    const ParamSpace& space, const clsim::analyze::StaticChecker& checker,
    StaticPruneCounters& counters, ScanFilter next = {});

/// Fills `x` (reshaped by the callee) with the feature rows for flat
/// indices [lo, hi). Called concurrently from worker threads.
using ScanRowFiller =
    std::function<void(std::uint64_t lo, std::uint64_t hi, ml::Matrix& x)>;

/// fp32 counterpart: writes (hi - lo) feature rows back to back into `rows`
/// (resized by the callee). Called concurrently from worker threads.
using ScanRowFillerF32 = std::function<void(
    std::uint64_t lo, std::uint64_t hi, std::vector<float>& rows)>;

/// The reduced-precision engines and their shared fp32 row filler, passed
/// alongside the fp64 pair when ScanOptions::inference is not kScalarFp64.
/// kBatchedFp32 uses `engine` (certified over the calibration box that
/// contains every row `fill` produces); kQuantInt8 uses `quant`. The fp64
/// filler/ensemble are still required — they are the re-ranking reference.
/// `radices` (RangeEncoder::radices) describe the space the flat indices
/// address, feature d of every row encoding digit d; with them the fp32
/// top-M scan prunes (see the header comment). Empty: no pruning.
struct BatchedScan {
  const ml::BatchedEnsemble* engine = nullptr;
  const ml::QuantizedEnsemble* quant = nullptr;
  ScanRowFillerF32 fill;
  std::vector<std::uint64_t> radices;
};

/// A BatchedScan with shared ownership of the engines it points into, so
/// they outlive the scan even if the cache that built them is reset.
struct ScanEngines {
  std::shared_ptr<const ml::BatchedEnsemble> engine;
  std::shared_ptr<const ml::QuantizedEnsemble> quant;
  BatchedScan batched;
};

/// The engine for `inference` (kBatchedFp32 or kQuantInt8) of `ensemble`
/// from `cache`, certified or calibrated over encoder.calibration(tail),
/// with encoder.fill_f32 (every row ending in `tail`) as the row filler and
/// the encoder's radices. `encoder` must outlive the returned engines.
[[nodiscard]] ScanEngines make_scan_engines(
    const ml::BatchedEnsembleCache& cache, const ml::BaggingEnsemble& ensemble,
    const RangeEncoder& encoder, std::vector<float> tail,
    ScanInference inference);

/// Predicted (transformed) value for every index in [begin, end), in order,
/// through the fp64 reference.
[[nodiscard]] std::vector<double> scan_predict_range(
    const ml::BaggingEnsemble& ensemble, const ScanRowFiller& fill,
    std::uint64_t begin, std::uint64_t end, const OutputTransform& transform);

/// As above, honouring options.inference. The non-fp64 paths compute each
/// prediction at their reduced precision (values may differ from the
/// reference by up to the transform-scaled error bound); throws
/// std::invalid_argument if a reduced-precision inference is requested
/// without the matching BatchedScan engine.
[[nodiscard]] std::vector<double> scan_predict_range(
    const ml::BaggingEnsemble& ensemble, const ScanRowFiller& fill,
    std::uint64_t begin, std::uint64_t end, const OutputTransform& transform,
    const ScanOptions& options, const BatchedScan* batched);

/// Best m candidates over [begin, end) by predicted value (ascending),
/// without materializing the full prediction vector, through the fp64
/// reference. Requires transform.scale > 0. `m` may exceed the range size;
/// the result is then just every (valid) index, ranked.
[[nodiscard]] TopMScanResult scan_top_m(const ml::BaggingEnsemble& ensemble,
                                        const ScanRowFiller& fill,
                                        std::uint64_t begin, std::uint64_t end,
                                        std::size_t m,
                                        const OutputTransform& transform,
                                        const ScanFilter& filter = {});

/// As above, honouring options.inference. On the reduced-precision paths
/// the returned selection (indices *and* predicted values) is identical to
/// the fp64 reference whenever the coarse-pass error stays within the
/// band's bound — always for fp32, whose bound is certified; for int8
/// whenever quant_error_bound holds. Throws
/// std::invalid_argument if a reduced-precision inference is requested
/// without the matching BatchedScan engine.
[[nodiscard]] TopMScanResult scan_top_m(
    const ml::BaggingEnsemble& ensemble, const ScanRowFiller& fill,
    std::uint64_t begin, std::uint64_t end, std::size_t m,
    const OutputTransform& transform, const ScanFilter& filter,
    const ScanOptions& options, const BatchedScan* batched);

}  // namespace pt::tuner
