#include "tuner/scan.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "common/telemetry/telemetry.hpp"
#include "common/thread_pool.hpp"

namespace pt::tuner {
namespace {

/// Per-chunk working set: the feature matrix, the ensemble's prediction
/// scratch, and the raw-output vector — plus the fp32 equivalents for the
/// batched path. Pooled so each worker reuses one across all the chunks it
/// executes.
struct ChunkScratch {
  ml::Matrix x;
  ml::BaggingEnsemble::PredictScratch ps;
  std::vector<double> preds;
  std::vector<float> xf;
  std::vector<float> predsf;
  ml::BatchedEnsemble::Scratch bs;
  ml::QuantizedEnsemble::Scratch qs;
  // Pruned descent: one node row, a node's children as rows, and the
  // children's bounds per level (a level's bounds outlive its subtree).
  std::vector<float> node_row;
  std::vector<float> node_rows;
  std::vector<std::vector<float>> node_bounds;
};

class ScratchPool {
 public:
  std::unique_ptr<ChunkScratch> acquire() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (free_.empty()) return std::make_unique<ChunkScratch>();
    auto s = std::move(free_.back());
    free_.pop_back();
    return s;
  }

  void release(std::unique_ptr<ChunkScratch> s) {
    std::lock_guard<std::mutex> lock(mutex_);
    free_.push_back(std::move(s));
  }

 private:
  std::mutex mutex_;
  std::vector<std::unique_ptr<ChunkScratch>> free_;
};

struct RawCandidate {
  double raw = 0.0;
  std::uint64_t index = 0;
};

/// Total order: smaller raw output (faster prediction) first, index breaks
/// ties. Totality makes the merged selection independent of chunk order.
bool better(const RawCandidate& a, const RawCandidate& b) {
  if (a.raw != b.raw) return a.raw < b.raw;
  return a.index < b.index;
}

/// Bounded selection heap: keeps the best m candidates seen so far with the
/// worst of them at the front (a max-heap under `better`), so each new
/// candidate is one comparison against the current cutoff.
class BoundedTopM {
 public:
  explicit BoundedTopM(std::size_t m) : m_(m) { heap_.reserve(m); }

  [[nodiscard]] bool would_enter(const RawCandidate& c) const {
    if (m_ == 0) return false;
    if (heap_.size() < m_) return true;
    return better(c, heap_.front());
  }

  void push(const RawCandidate& c) {
    heap_.push_back(c);
    std::push_heap(heap_.begin(), heap_.end(), better);
    if (heap_.size() > m_) {
      std::pop_heap(heap_.begin(), heap_.end(), better);
      heap_.pop_back();
    }
  }

  [[nodiscard]] std::vector<RawCandidate> take() { return std::move(heap_); }

 private:
  std::size_t m_;
  std::vector<RawCandidate> heap_;
};

/// Relaxed selection for the reduced-precision paths: the best-m heap plus
/// an overflow list of every candidate within `slack` (= 2x the engine's
/// error bound) of the heap cutoff. The heap cutoff only improves as the chunk
/// streams, so pruning the overflow against the current cutoff never drops
/// a candidate that the final cutoff would have kept.
class RelaxedTopM {
 public:
  RelaxedTopM(std::size_t m, double slack) : m_(m), slack_(slack) {
    heap_.reserve(m);
  }

  /// True if offer() would retain this candidate (used for lazy filters).
  [[nodiscard]] bool would_keep(const RawCandidate& c) const {
    if (m_ == 0) return false;
    if (heap_.size() < m_) return true;
    return c.raw <= heap_.front().raw + slack_;
  }

  /// would_keep rejects every candidate whose raw output exceeds this (+inf
  /// until the heap is full). It only decreases as candidates stream in.
  [[nodiscard]] double threshold() const {
    if (m_ == 0) return -std::numeric_limits<double>::infinity();
    if (heap_.size() < m_) return std::numeric_limits<double>::infinity();
    return heap_.front().raw + slack_;
  }

  void offer(const RawCandidate& c) {
    if (!would_keep(c)) return;
    if (heap_.size() < m_) {
      heap_.push_back(c);
      std::push_heap(heap_.begin(), heap_.end(), better);
      return;
    }
    if (better(c, heap_.front())) {
      heap_.push_back(c);
      std::push_heap(heap_.begin(), heap_.end(), better);
      std::pop_heap(heap_.begin(), heap_.end(), better);
      const RawCandidate evicted = heap_.back();
      heap_.pop_back();
      if (evicted.raw <= heap_.front().raw + slack_)
        overflow_.push_back(evicted);
    } else {
      overflow_.push_back(c);
    }
    const std::size_t cap = std::max<std::size_t>(4 * m_, 1024);
    if (overflow_.size() > cap) {
      const double bound = heap_.front().raw + slack_;
      std::erase_if(overflow_,
                    [bound](const RawCandidate& o) { return o.raw > bound; });
    }
  }

  /// Heap plus overflow, unordered.
  [[nodiscard]] std::vector<RawCandidate> take() {
    heap_.insert(heap_.end(), overflow_.begin(), overflow_.end());
    overflow_.clear();
    return std::move(heap_);
  }

 private:
  std::size_t m_;
  double slack_;
  std::vector<RawCandidate> heap_;
  std::vector<RawCandidate> overflow_;
};

std::uint64_t chunk_count_for(std::uint64_t n) {
  return (n + kScanChunkRows - 1) / kScanChunkRows;
}

/// The digit boxes the pruned descent walks: a level-k node covers span[k]
/// consecutive indices, its first k digits free; the root is level
/// radix.size() and nodes at level `leaf` are evaluated row by row. The
/// unpruned scan is the single level 0 with the root as its only leaf.
struct DigitBoxes {
  std::vector<std::uint64_t> radix;
  std::vector<std::uint64_t> span;
  std::size_t leaf = 0;

  static DigitBoxes flat(std::uint64_t end) { return {{}, {end}, 0}; }

  static DigitBoxes of(const std::vector<std::uint64_t>& radices,
                       std::uint64_t end, std::size_t width) {
    if (radices.size() > width)
      throw std::invalid_argument(
          "scan_top_m: more radices than the engine has features");
    DigitBoxes boxes{radices, {1}, radices.size()};
    for (std::size_t k = 0; k < radices.size(); ++k) {
      const std::uint64_t below = boxes.span.back();
      if (radices[k] == 0 ||
          below > std::numeric_limits<std::uint64_t>::max() / radices[k])
        throw std::invalid_argument("scan_top_m: bad radices");
      boxes.span.push_back(below * radices[k]);
      if (boxes.leaf == radices.size() && boxes.span.back() >= kScanLeafRows)
        boxes.leaf = k + 1;
    }
    if (boxes.span.back() < end)
      throw std::invalid_argument(
          "scan_top_m: radices do not cover the scanned range");
    return boxes;
  }

  [[nodiscard]] std::size_t root() const { return radix.size(); }
};

std::vector<ScanCandidate> merge_chunks(
    std::vector<std::vector<RawCandidate>>& chunks, std::size_t m,
    const OutputTransform& transform) {
  std::vector<RawCandidate> all;
  for (auto& v : chunks) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end(), better);
  if (all.size() > m) all.resize(m);
  std::vector<ScanCandidate> out;
  out.reserve(all.size());
  for (const auto& c : all)
    out.push_back(ScanCandidate{c.index, transform(c.raw)});
  return out;
}

void require_batched(const ScanOptions& options, const BatchedScan* batched,
                     const char* where) {
  const bool ok =
      options.inference == ScanInference::kScalarFp64 ||
      (batched && batched->fill &&
       (options.inference == ScanInference::kBatchedFp32
            ? batched->engine != nullptr
            : batched->quant != nullptr));
  if (!ok)
    throw std::invalid_argument(
        std::string(where) + ": " + scan_inference_name(options.inference) +
        " inference requested without its engine and fp32 row filler");
}

/// The fp64 reference, the options every engine-less overload runs with.
ScanOptions fp64_options() {
  ScanOptions options;
  options.inference = ScanInference::kScalarFp64;
  return options;
}

void gauge_configs_per_sec(std::uint64_t n,
                           std::chrono::steady_clock::time_point start) {
  if (!common::telemetry::enabled()) return;
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  if (seconds > 0.0)
    common::telemetry::gauge("tuner.scan.configs_per_sec",
                             static_cast<double>(n) / seconds);
}

/// Exact fp64 raw outputs for a set of flat indices: rows are gathered one
/// unit-range fill at a time (the filler only takes contiguous ranges) into
/// per-chunk matrices and sent through batched fp64 predicts on the pool.
/// Bit-identical to what the chunked fp64 scan computes for the same
/// indices, whatever the gathered row count: every kernel under
/// predict_batch_into accumulates per output element in a row-count
/// independent order. Batching matters on the quantized paths, whose wide
/// re-rank bands can hold thousands of survivors.
std::unordered_map<std::uint64_t, double> rerank_fp64(
    const ml::BaggingEnsemble& ensemble, const ScanRowFiller& fill,
    std::vector<std::uint64_t> indices) {
  std::sort(indices.begin(), indices.end());
  indices.erase(std::unique(indices.begin(), indices.end()), indices.end());
  std::unordered_map<std::uint64_t, double> raw64;
  raw64.reserve(indices.size());
  if (indices.empty()) return raw64;
  std::vector<double> preds(indices.size());
  const std::size_t chunks =
      (indices.size() + kScanChunkRows - 1) / kScanChunkRows;
  ScratchPool pool;
  common::global_pool().parallel_for(0, chunks, [&](std::size_t c) {
    auto scratch = pool.acquire();
    const std::size_t lo = c * kScanChunkRows;
    const std::size_t hi = std::min(indices.size(), lo + kScanChunkRows);
    fill(indices[lo], indices[lo] + 1, scratch->x);
    ml::Matrix batch(hi - lo, scratch->x.cols());
    for (std::size_t r = lo; r < hi; ++r) {
      if (r != lo) fill(indices[r], indices[r] + 1, scratch->x);
      const auto src = scratch->x.row(0);
      auto dst = batch.row(r - lo);
      for (std::size_t j = 0; j < src.size(); ++j) dst[j] = src[j];
    }
    ensemble.predict_batch_into(batch, scratch->preds, scratch->ps);
    for (std::size_t r = lo; r < hi; ++r) preds[r] = scratch->preds[r - lo];
    pool.release(std::move(scratch));
  });
  for (std::size_t r = 0; r < indices.size(); ++r)
    raw64.emplace(indices[r], preds[r]);
  return raw64;
}

/// Survivors of the global fp32 cutoff: every candidate within `slack` of
/// the m-th best fp32 output (all of them when fewer than m exist). These
/// are exactly the candidates whose fp64 rank can still reach the top m.
std::vector<RawCandidate> fp32_survivors(
    std::vector<std::vector<RawCandidate>>& chunks, std::size_t m,
    double slack) {
  std::vector<RawCandidate> all;
  for (auto& v : chunks) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end(), better);
  if (all.size() > m) {
    const double bound = all[m - 1].raw + slack;
    const auto first_out = std::find_if(
        all.begin() + static_cast<std::ptrdiff_t>(m), all.end(),
        [bound](const RawCandidate& c) { return c.raw > bound; });
    all.erase(first_out, all.end());
  }
  return all;
}

/// Re-rank survivors by their exact fp64 outputs and emit the final top-m.
std::vector<ScanCandidate> finish_fp64(
    std::vector<RawCandidate>& survivors,
    const std::unordered_map<std::uint64_t, double>& raw64, std::size_t m,
    const OutputTransform& transform) {
  for (RawCandidate& c : survivors) c.raw = raw64.at(c.index);
  std::sort(survivors.begin(), survivors.end(), better);
  if (survivors.size() > m) survivors.resize(m);
  std::vector<ScanCandidate> out;
  out.reserve(survivors.size());
  for (const auto& c : survivors)
    out.push_back(ScanCandidate{c.index, transform(c.raw)});
  return out;
}

}  // namespace

std::vector<double> scan_predict_range(const ml::BaggingEnsemble& ensemble,
                                       const ScanRowFiller& fill,
                                       std::uint64_t begin, std::uint64_t end,
                                       const OutputTransform& transform) {
  return scan_predict_range(ensemble, fill, begin, end, transform,
                            fp64_options(), nullptr);
}

std::vector<double> scan_predict_range(const ml::BaggingEnsemble& ensemble,
                                       const ScanRowFiller& fill,
                                       std::uint64_t begin, std::uint64_t end,
                                       const OutputTransform& transform,
                                       const ScanOptions& options,
                                       const BatchedScan* batched) {
  if (begin > end) throw std::invalid_argument("scan_predict_range: bad range");
  require_batched(options, batched, "scan_predict_range");
  const std::uint64_t n = end - begin;
  std::vector<double> out(static_cast<std::size_t>(n));
  if (n == 0) return out;
  const bool quant = options.inference == ScanInference::kQuantInt8;
  const bool approx = options.inference != ScanInference::kScalarFp64;
  const auto start = std::chrono::steady_clock::now();

  ScratchPool pool;
  common::global_pool().parallel_for(
      0, static_cast<std::size_t>(chunk_count_for(n)), [&](std::size_t c) {
        const common::telemetry::Span span("scan.chunk");
        const std::uint64_t lo = begin + c * kScanChunkRows;
        const std::uint64_t hi = std::min<std::uint64_t>(end, lo + kScanChunkRows);
        auto scratch = pool.acquire();
        const std::size_t offset = static_cast<std::size_t>(lo - begin);
        const std::size_t rows = static_cast<std::size_t>(hi - lo);
        if (approx) {
          batched->fill(lo, hi, scratch->xf);
          if (quant)
            batched->quant->predict_batch_into(scratch->xf.data(), rows,
                                               scratch->predsf, scratch->qs);
          else
            batched->engine->predict_batch_into(scratch->xf.data(), rows,
                                                scratch->predsf, scratch->bs);
          for (std::size_t i = 0; i < rows; ++i)
            out[offset + i] =
                transform(static_cast<double>(scratch->predsf[i]));
        } else {
          fill(lo, hi, scratch->x);
          ensemble.predict_batch_into(scratch->x, scratch->preds, scratch->ps);
          for (std::size_t i = 0; i < scratch->preds.size(); ++i)
            out[offset + i] = transform(scratch->preds[i]);
        }
        pool.release(std::move(scratch));
      });
  gauge_configs_per_sec(n, start);
  return out;
}

TopMScanResult scan_top_m(const ml::BaggingEnsemble& ensemble,
                          const ScanRowFiller& fill, std::uint64_t begin,
                          std::uint64_t end, std::size_t m,
                          const OutputTransform& transform,
                          const ScanFilter& filter) {
  return scan_top_m(ensemble, fill, begin, end, m, transform, filter,
                    fp64_options(), nullptr);
}

TopMScanResult scan_top_m(const ml::BaggingEnsemble& ensemble,
                          const ScanRowFiller& fill, std::uint64_t begin,
                          std::uint64_t end, std::size_t m,
                          const OutputTransform& transform,
                          const ScanFilter& filter, const ScanOptions& options,
                          const BatchedScan* batched) {
  if (begin > end) throw std::invalid_argument("scan_top_m: bad range");
  if (!(transform.scale > 0.0))
    throw std::invalid_argument("scan_top_m: non-positive transform scale");
  require_batched(options, batched, "scan_top_m");
  TopMScanResult result;
  const std::uint64_t n = end - begin;
  result.scanned = n;
  if (n == 0 || m == 0) return result;
  const bool quant = options.inference == ScanInference::kQuantInt8;
  const bool approx = options.inference != ScanInference::kScalarFp64;
  if (approx)
    result.error_bound = quant ? options.quant_error_bound
                               : batched->engine->error_bound();
  const double slack = 2.0 * result.error_bound;
  const auto start = std::chrono::steady_clock::now();

  const std::size_t chunks = static_cast<std::size_t>(chunk_count_for(n));
  std::vector<std::vector<RawCandidate>> chunk_top(chunks);
  std::vector<std::vector<RawCandidate>> chunk_top_unfiltered(chunks);
  std::vector<std::uint64_t> chunk_rejected(chunks, 0);
  std::vector<std::uint64_t> chunk_pruned(chunks, 0);
  const bool prune = approx && !quant && !batched->radices.empty() &&
                     batched->engine->has_node_bounds();
  const DigitBoxes boxes =
      prune ? DigitBoxes::of(batched->radices, end,
                             batched->engine->input_width())
            : DigitBoxes::flat(end);

  ScratchPool pool;
  common::global_pool().parallel_for(0, chunks, [&](std::size_t c) {
    const common::telemetry::Span span("scan.chunk");
    const std::uint64_t lo = begin + c * kScanChunkRows;
    const std::uint64_t hi = std::min<std::uint64_t>(end, lo + kScanChunkRows);
    auto scratch = pool.acquire();
    std::uint64_t rejected = 0;
    if (approx) {
      RelaxedTopM unfiltered(m, slack);
      RelaxedTopM filtered(m, slack);
      // Evaluate rows [a, b) and offer them in index order.
      const auto leaf = [&](std::uint64_t a, std::uint64_t b) {
        const std::size_t rows = static_cast<std::size_t>(b - a);
        batched->fill(a, b, scratch->xf);
        if (quant)
          batched->quant->predict_batch_into(scratch->xf.data(), rows,
                                             scratch->predsf, scratch->qs);
        else
          batched->engine->predict_batch_into(scratch->xf.data(), rows,
                                              scratch->predsf, scratch->bs);
        for (std::size_t i = 0; i < rows; ++i) {
          const RawCandidate cand{static_cast<double>(scratch->predsf[i]),
                                  a + i};
          unfiltered.offer(cand);
          if (filter && filtered.would_keep(cand)) {
            // Lazy filter evaluation: only candidates good enough to be
            // retained pay for the validity check.
            if (filter(cand.index)) {
              filtered.offer(cand);
            } else {
              ++rejected;
            }
          }
        }
      };
      // A row above both thresholds is one neither heap would keep.
      const auto threshold = [&] {
        const double t = unfiltered.threshold();
        return filter ? std::max(t, filtered.threshold()) : t;
      };
      // Offers the rows of the node [node, node + span[level]) inside
      // [lo, hi) in index order, skipping children proved out of reach.
      ChunkScratch& s = *scratch;
      s.node_bounds.resize(std::max(s.node_bounds.size(), boxes.root() + 1));
      std::uint64_t pruned = 0;
      const auto visit = [&](const auto& self, std::size_t level,
                             std::uint64_t node) -> void {
        if (level == boxes.leaf) {
          leaf(std::max(node, lo), std::min(node + boxes.span[level], hi));
          return;
        }
        const std::size_t free = level - 1;
        const std::uint64_t child = boxes.span[free];
        const std::uint64_t first = node < lo ? (lo - node) / child : 0;
        const std::uint64_t last =
            std::min(boxes.radix[free], (hi - node + child - 1) / child);
        // Each child's node row: its fixed features, zeros in the free ones.
        const std::size_t width = batched->engine->input_width();
        s.node_rows.resize(static_cast<std::size_t>(last - first) * width);
        for (std::uint64_t k = first; k < last; ++k) {
          const std::uint64_t index = node + k * child;
          batched->fill(index, index + 1, s.node_row);
          float* row = s.node_rows.data() + (k - first) * width;
          std::fill(row, row + free, 0.0f);
          std::copy_n(s.node_row.begin() + static_cast<std::ptrdiff_t>(free),
                      width - free, row + free);
        }
        std::vector<float>& bounds = s.node_bounds[level];
        batched->engine->node_lower_bounds(
            s.node_rows.data(), static_cast<std::size_t>(last - first), free,
            bounds, s.bs);
        const double margin =
            batched->engine->node_error_bound(free) + result.error_bound;
        for (std::uint64_t k = first; k < last; ++k) {
          const std::uint64_t index = node + k * child;
          if (static_cast<double>(bounds[k - first]) - margin > threshold())
            pruned += std::min(index + child, hi) - std::max(index, lo);
          else
            self(self, free, index);
        }
      };
      visit(visit, boxes.root(), 0);
      chunk_pruned[c] = pruned;
      chunk_top_unfiltered[c] = unfiltered.take();
      if (filter) chunk_top[c] = filtered.take();
    } else {
      fill(lo, hi, scratch->x);
      ensemble.predict_batch_into(scratch->x, scratch->preds, scratch->ps);
      BoundedTopM unfiltered(m);
      BoundedTopM filtered(m);
      for (std::size_t i = 0; i < scratch->preds.size(); ++i) {
        const RawCandidate cand{scratch->preds[i], lo + i};
        if (unfiltered.would_enter(cand)) unfiltered.push(cand);
        if (filter && filtered.would_enter(cand)) {
          // Lazy filter evaluation: only candidates good enough to enter the
          // chunk heap pay for the validity check.
          if (filter(cand.index)) {
            filtered.push(cand);
          } else {
            ++rejected;
          }
        }
      }
      chunk_top_unfiltered[c] = unfiltered.take();
      if (filter) chunk_top[c] = filtered.take();
    }
    chunk_rejected[c] = rejected;
    pool.release(std::move(scratch));
  });

  for (std::uint64_t r : chunk_rejected) result.rejected += r;
  for (std::uint64_t p : chunk_pruned) result.pruned_rows += p;
  if (approx) {
    // Survivors of the coarse-pass cutoff (per selection set), then one
    // exact fp64 evaluation per unique survivor, then the fp64-ordered
    // truncation. The result matches the fp64 path exactly whenever the
    // coarse-pass error stays within error_bound.
    std::vector<RawCandidate> unfiltered_survivors =
        fp32_survivors(chunk_top_unfiltered, m, slack);
    std::vector<RawCandidate> filtered_survivors =
        filter ? fp32_survivors(chunk_top, m, slack)
               : std::vector<RawCandidate>{};
    result.near_ties +=
        unfiltered_survivors.size() -
        std::min<std::size_t>(m, unfiltered_survivors.size());
    result.near_ties += filtered_survivors.size() -
                        std::min<std::size_t>(m, filtered_survivors.size());
    std::vector<std::uint64_t> indices;
    indices.reserve(unfiltered_survivors.size() + filtered_survivors.size());
    for (const auto& c : unfiltered_survivors) indices.push_back(c.index);
    for (const auto& c : filtered_survivors) indices.push_back(c.index);
    const auto raw64 = rerank_fp64(ensemble, fill, std::move(indices));
    result.fp64_reranked = raw64.size();
    result.top_unfiltered = finish_fp64(unfiltered_survivors, raw64, m, transform);
    result.top = filter ? finish_fp64(filtered_survivors, raw64, m, transform)
                        : result.top_unfiltered;
  } else {
    result.top_unfiltered = merge_chunks(chunk_top_unfiltered, m, transform);
    result.top =
        filter ? merge_chunks(chunk_top, m, transform) : result.top_unfiltered;
  }
  gauge_configs_per_sec(n, start);
  if (common::telemetry::enabled()) {
    common::telemetry::count("scan.candidates_scanned",
                             static_cast<double>(result.scanned));
    common::telemetry::count("scan.candidates_filtered",
                             static_cast<double>(result.rejected));
    if (approx) {
      common::telemetry::count("tuner.scan.fp64_rerank",
                               static_cast<double>(result.fp64_reranked));
      common::telemetry::count("tuner.scan.near_ties",
                               static_cast<double>(result.near_ties));
      common::telemetry::count("tuner.scan.pruned_rows",
                               static_cast<double>(result.pruned_rows));
    }
  }
  return result;
}

ScanEngines make_scan_engines(const ml::BatchedEnsembleCache& cache,
                              const ml::BaggingEnsemble& ensemble,
                              const RangeEncoder& encoder,
                              std::vector<float> tail,
                              ScanInference inference) {
  ScanEngines e;
  const ml::QuantCalibration calibration = encoder.calibration(tail);
  if (inference == ScanInference::kBatchedFp32) {
    e.engine = cache.get(ensemble, calibration);
    e.batched.engine = e.engine.get();
  } else {
    e.quant = cache.get_quantized(ensemble, calibration);
    e.batched.quant = e.quant.get();
  }
  e.batched.fill = [&encoder, tail = std::move(tail)](
                       std::uint64_t lo, std::uint64_t hi,
                       std::vector<float>& rows) {
    encoder.fill_f32(lo, hi, rows, tail);
  };
  e.batched.radices = encoder.radices();
  return e;
}

ScanFilter make_static_scan_filter(const ParamSpace& space,
                                   const clsim::analyze::StaticChecker& checker,
                                   StaticPruneCounters& counters,
                                   ScanFilter next) {
  return [&space, &checker, &counters,
          next = std::move(next)](std::uint64_t index) {
    const Configuration config = space.decode(index);
    const clsim::analyze::ConfigVerdict verdict =
        checker.check(std::span<const int>(config.values));
    counters.checked.fetch_add(1, std::memory_order_relaxed);
    switch (verdict.verdict) {
      case clsim::analyze::Verdict::kProvedInvalid:
        counters.pruned.fetch_add(1, std::memory_order_relaxed);
        return false;
      case clsim::analyze::Verdict::kProvedValid:
        counters.proved_valid.fetch_add(1, std::memory_order_relaxed);
        break;
      case clsim::analyze::Verdict::kUnknown:
        counters.unknown.fetch_add(1, std::memory_order_relaxed);
        break;
    }
    return !next || next(index);
  };
}

}  // namespace pt::tuner
