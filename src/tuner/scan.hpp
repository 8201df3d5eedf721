#pragma once

// Parallel prediction-scan engine: evaluates a fitted ensemble over a flat
// index range in chunks dispatched on the global thread pool, with
// per-worker reusable scratch so a full-space scan performs no per-chunk
// allocations once the buffers are warm.
//
// Chunking is defined by the *index range* (scan_chunk_rows), never by the
// pool size, so every result is bit-identical regardless of the number of
// threads.
//
// Two kinds of entry point:
//  - dense range: one predicted value per index;
//  - top-M: the streaming selection path; keeps a bounded per-chunk
//    worst-on-top heap of the best m candidates (O(n log m) time) instead of
//    materializing |space| predictions. Every chunk's heap and band are held
//    until the merge, so memory is O(chunks * m). An optional validity
//    filter is evaluated lazily — only for candidates that would enter the
//    heap — and the heap keeps only the candidates it passes. A caller that
//    wants the unfiltered ranking too runs a second scan without the filter.
//
// Candidates are ordered by (raw network output, index): the output
// transform (affine with positive scale, optionally exp) is strictly
// increasing, so ranking raw outputs ranks predicted times, and the index
// tie-break makes the order total — merge results cannot depend on chunk
// arrival order.
//
// Each kind runs on two inference paths:
//  - the fp64 reference (reference_range, reference_top_m): per-chunk
//    Matrix fill and BaggingEnsemble::predict_batch_into.
//  - certified fp32 (range, top_m): per-chunk fp32 row fill and the packed
//    ml::BatchedEnsemble forward. The dense range returns the fp32 values.
//    The top-M, which the tuners run, stays *exactly* fp64-identical: each
//    chunk keeps, besides its best-m heap, every candidate whose fp32 output
//    lies within 2 * B of the heap cutoff, and after the merge all
//    candidates within that band of the global fp32 cutoff are re-ranked
//    through the fp64 path (whose per-row results are bit-identical to the
//    fp64 scan's chunked results, because every kernel under
//    predict_batch_into accumulates per output element in a row-count
//    independent order). B is the packed engine's certified bound on
//    |fp32 raw - fp64 raw| over the scanned rows (ml/batched.hpp), so the
//    returned top-M is the one the fp64 scan would return, candidate for
//    candidate, predicted values included — by proof, not by assumption.
//
// Pruned top-M (radices given): each chunk is walked depth first over the
// space's mixed-radix digits, nodes in ascending index order, clipped to the
// chunk. Before descending into a node, the bounds L~ of its children (one
// digit's radix; ml/batched.hpp) are computed as one batch, and a child is
// skipped when L~ - E(k) - B exceeds T, the heap threshold: min(cap,
// cutoff + 2B), the cutoff counting as +inf until the heap is full. Every
// row of a skipped child predicts at least L~ - E(k) - B in fp32, so the
// heap would have rejected it when it was offered; such a rejection changes
// no state, and the filter is consulted only for rows the heap would keep.
// Leaves (the innermost boxes of at least kScanLeafRows rows) are evaluated
// and offered in index order. Without radices each chunk is a single leaf.
//
// The scan runs in two waves. The first is the 4 chunks with the lowest
// node bound over the digit boxes that cover them, scanned with cap = +inf.
// The cap of every other chunk is then the first wave's m-th best fp32
// output + 2B (+inf if the first wave kept fewer than m). That m-th best is
// taken over a subset of the rows, so it is at least G, the m-th best of
// the whole range, and every row of the final re-rank band (fp32 <= G + 2B)
// is still kept. So `top`, `scanned`, `error_bound`, `fp64_reranked` and
// `near_ties` are the unpruned scan's; `pruned_rows` grows, and with a
// filter `rejected` (and a static filter's counters) can fall. Every field
// is the same at any thread count: the first wave depends on the range and
// the model only. Without radices, or with at most 4 chunks, the scan is
// one uncapped wave, so the flat scan is the unpruned reference.

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "clsim/analyze/checker.hpp"
#include "common/math.hpp"
#include "ml/batched.hpp"
#include "ml/ensemble.hpp"
#include "tuner/features.hpp"
#include "tuner/param.hpp"

namespace pt::tuner {

/// The largest and the smallest scan chunk, in rows.
inline constexpr std::uint64_t kScanChunkRows = 65536;
inline constexpr std::uint64_t kScanChunkMinRows = 16384;

/// Rows per chunk of an n-row scan: n / 32 rounded down to a power of two,
/// clamped to [kScanChunkMinRows, kScanChunkRows]. A function of the range
/// size alone, never of the pool size, so results are independent of the
/// number of worker threads.
[[nodiscard]] constexpr std::uint64_t scan_chunk_rows(std::uint64_t n) {
  return std::clamp(std::bit_floor(n / 32), kScanChunkMinRows,
                    kScanChunkRows);
}

/// Smallest leaf of the pruned top-M descent: the innermost digit box with
/// at least this many rows is evaluated row by row.
inline constexpr std::uint64_t kScanLeafRows = 8;

/// Maps a raw network output to a predicted time: y * scale + mean, then
/// exp when `exponentiate` (matches the model's target standardization and
/// optional log-target transform bit for bit). Strictly increasing as long
/// as scale > 0, which the top-M scans require. The multiply-add is a
/// written fma, so a backend without FMA hardware rounds it once too.
struct OutputTransform {
  double scale = 1.0;
  double mean = 0.0;
  bool exponentiate = false;

  [[nodiscard]] double operator()(double y) const noexcept {
    const double raw = std::fma(y, scale, mean);
    return exponentiate ? common::math::exp(raw) : raw;
  }
};

/// One selected configuration: flat index plus its predicted time.
struct ScanCandidate {
  std::uint64_t index = 0;
  double predicted_ms = 0.0;
};

/// Result of a top-M scan. `top` is the best-first selection among the rows
/// the filter passes (all rows when no filter was given); `rejected` counts
/// filter rejections, which only happen for candidates good enough to enter
/// a chunk heap at the moment they were scanned and below the chunk's cap
/// (see "Pruned top-M" above), so it is a lower bound on the rejections a
/// full filter pass would make. The last four fields are
/// zero on the fp64 reference: `error_bound` is the half-width B of the
/// re-rank band (the fp32 engine's certified bound), `fp64_reranked` counts
/// candidates sent through the fp64 reference for exact ranking,
/// `near_ties` the subset that sat outside the fp32 top-m but within the
/// band (i.e. the ones whose fate fp64 actually decided). `pruned_rows`
/// counts the rows of `scanned` the pruned scan proved out of reach and
/// never evaluated.
struct TopMScanResult {
  std::vector<ScanCandidate> top;
  std::uint64_t scanned = 0;
  std::uint64_t rejected = 0;
  double error_bound = 0.0;
  std::uint64_t fp64_reranked = 0;
  std::uint64_t near_ties = 0;
  std::uint64_t pruned_rows = 0;
};

/// Validity predicate over flat indices. Called concurrently from worker
/// threads; must be thread-safe (read-only captures are fine).
using ScanFilter = std::function<bool(std::uint64_t)>;

/// The prediction-scan engine of one fitted ensemble over one space and one
/// problem instance: the shared packed fp32 engine, the fp64 ensemble it
/// was packed from, the encoder that writes each feature row followed by
/// the fixed instance tail (empty for a model without problem parameters),
/// the output transform and the space's radices. It shares ownership of
/// both ensembles and copies the rest, so it stays valid whatever happens
/// to the model that built it. Every entry point is const and safe to call
/// concurrently.
class ScanEngine {
 public:
  /// `batched` must be packed from `ensemble` and certified over
  /// encoder.calibration(tail), the box every scanned row lies in; throws
  /// std::invalid_argument when the ensemble is missing or unfitted or the
  /// box differs. `radices` (RangeEncoder::radices) describe the space the
  /// flat indices address, feature d of every row encoding digit d; with
  /// them top_m prunes. Empty: no pruning.
  ScanEngine(std::shared_ptr<const ml::BaggingEnsemble> ensemble,
             std::shared_ptr<const ml::BatchedEnsemble> batched,
             RangeEncoder encoder, std::vector<double> tail,
             OutputTransform transform, std::vector<std::uint64_t> radices);

  /// The certified fp32 top-M: the best m candidates over [begin, end) by
  /// predicted value (ascending), without materializing the full prediction
  /// vector. Its selection (indices *and* predicted values) is the one
  /// reference_top_m returns. Requires transform.scale > 0. `m` may exceed
  /// the range size; the result is then just every (valid) index, ranked.
  /// Throws std::invalid_argument on a bad range, and on radices that do
  /// not describe it when the scan prunes.
  [[nodiscard]] TopMScanResult top_m(std::uint64_t begin, std::uint64_t end,
                                     std::size_t m,
                                     const ScanFilter& filter = {}) const;

  /// The same selection computed row by row through the fp64 reference.
  [[nodiscard]] TopMScanResult reference_top_m(
      std::uint64_t begin, std::uint64_t end, std::size_t m,
      const ScanFilter& filter = {}) const;

  /// Predicted (transformed) value for every index in [begin, end), in
  /// order, through the fp32 engine: each raw output within error_bound()
  /// of the reference's.
  [[nodiscard]] std::vector<double> range(std::uint64_t begin,
                                          std::uint64_t end) const;

  /// As range(), through the fp64 reference.
  [[nodiscard]] std::vector<double> reference_range(std::uint64_t begin,
                                                    std::uint64_t end) const;

  /// B: the certified bound on |fp32 raw - fp64 raw| over every row the
  /// engine scans.
  [[nodiscard]] double error_bound() const noexcept {
    return batched_->error_bound();
  }
  [[nodiscard]] const ml::BatchedEnsemble& batched() const noexcept {
    return *batched_;
  }

 private:
  std::shared_ptr<const ml::BaggingEnsemble> ensemble_;
  std::shared_ptr<const ml::BatchedEnsemble> batched_;
  RangeEncoder encoder_;
  std::vector<double> tail_;
  std::vector<float> tail_f_;
  OutputTransform transform_;
  std::vector<std::uint64_t> radices_;
};

/// Verdict tallies of a clstat static pre-filter built by
/// make_static_scan_filter. Atomic: scan workers bump them concurrently.
/// Queries happen lazily (heap-entry candidates under the chunk's cap
/// only), so `checked` is a lower bound on the provable configurations in
/// the scanned range; the three verdict counters always sum to it.
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
/// references must outlive the returned filter.
[[nodiscard]] ScanFilter make_static_scan_filter(
    const ParamSpace& space, const clsim::analyze::StaticChecker& checker,
    StaticPruneCounters& counters);

}  // namespace pt::tuner
