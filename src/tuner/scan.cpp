#include "tuner/scan.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <memory>
#include <mutex>
#include <numeric>
#include <span>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "common/telemetry/telemetry.hpp"
#include "common/thread_pool.hpp"

namespace pt::tuner {
namespace {

/// Per-chunk working set: the feature matrix, the ensemble's prediction
/// scratch, and the raw-output vector — plus the fp32 equivalents for the
/// packed engine. Pooled so each worker reuses one across all the chunks it
/// executes.
struct ChunkScratch {
  ml::Matrix x;
  ml::BaggingEnsemble::PredictScratch ps;
  std::vector<double> preds;
  std::vector<float> xf;
  std::vector<float> predsf;
  ml::BatchedEnsemble::Scratch bs;
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

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Chunks in a pruned top-M scan's first wave. Fixed, so which chunks run
/// uncapped depends on the range and the model only, never on the pool.
constexpr std::size_t kWave = 4;

/// Relaxed selection for the fp32 path: the best-m heap plus an overflow
/// list of every candidate within `slack` (= 2x the engine's error bound)
/// of the heap cutoff, and none above `cap` (a cutoff certified for the
/// whole scan; see top_m). The heap cutoff only improves as the chunk
/// streams, so pruning the overflow against the current cutoff never drops
/// a candidate that the final cutoff would have kept.
class RelaxedTopM {
 public:
  RelaxedTopM(std::size_t m, double slack, double cap)
      : m_(m), slack_(slack), cap_(cap), prune_at_(min_prune_at()) {
    heap_.reserve(m);
  }

  /// True if offer() would retain this candidate (used for lazy filters).
  [[nodiscard]] bool would_keep(const RawCandidate& c) const {
    if (m_ == 0 || c.raw > cap_) return false;
    if (heap_.size() < m_) return true;
    return c.raw <= heap_.front().raw + slack_;
  }

  /// would_keep rejects every candidate whose raw output exceeds this:
  /// min(cap, heap cutoff + slack), the cutoff counting as +inf until the
  /// heap is full. It only decreases as candidates stream in.
  [[nodiscard]] double threshold() const {
    if (m_ == 0) return -kInf;
    if (heap_.size() < m_) return cap_;
    return std::min(cap_, heap_.front().raw + slack_);
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
    if (overflow_.size() > prune_at_) {
      const double bound = heap_.front().raw + slack_;
      std::erase_if(overflow_,
                    [bound](const RawCandidate& o) { return o.raw > bound; });
      // A band wider than the minimum keeps most of the list: wait until
      // it doubles, so the pruning passes stay linear in the chunk's rows.
      prune_at_ = std::max(min_prune_at(), 2 * overflow_.size());
    }
  }

  /// Heap plus overflow, unordered.
  [[nodiscard]] std::vector<RawCandidate> take() {
    heap_.insert(heap_.end(), overflow_.begin(), overflow_.end());
    overflow_.clear();
    return std::move(heap_);
  }

 private:
  [[nodiscard]] std::size_t min_prune_at() const {
    return std::max<std::size_t>(4 * m_, 1024);
  }

  std::size_t m_;
  double slack_;
  double cap_;
  std::size_t prune_at_;  // overflow size that triggers the next pruning
  std::vector<RawCandidate> heap_;
  std::vector<RawCandidate> overflow_;
};

/// What one chunk of a top-M scan hands to the merge.
struct ChunkTop {
  std::vector<RawCandidate> top;
  std::uint64_t rejected = 0;
  std::uint64_t pruned = 0;
};

/// The chunks of [begin, end): chunk c holds the rows
/// [begin + c * rows, begin + (c + 1) * rows) that lie before `end`.
struct ChunkGrid {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  std::uint64_t rows = 0;

  ChunkGrid(std::uint64_t b, std::uint64_t e)
      : begin(b), end(e), rows(scan_chunk_rows(e - b)) {}

  [[nodiscard]] std::size_t count() const {
    return static_cast<std::size_t>((end - begin + rows - 1) / rows);
  }
  [[nodiscard]] std::uint64_t lo(std::size_t c) const {
    return begin + c * rows;
  }
  [[nodiscard]] std::uint64_t hi(std::size_t c) const {
    return std::min(end, lo(c) + rows);
  }
  /// Every chunk, in index order.
  [[nodiscard]] std::vector<std::size_t> all() const {
    std::vector<std::size_t> chunks(count());
    std::iota(chunks.begin(), chunks.end(), std::size_t{0});
    return chunks;
  }
};

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
          "ScanEngine::top_m: more radices than the engine has features");
    DigitBoxes boxes{radices, {1}, radices.size()};
    for (std::size_t k = 0; k < radices.size(); ++k) {
      const std::uint64_t below = boxes.span.back();
      if (radices[k] == 0 ||
          below > std::numeric_limits<std::uint64_t>::max() / radices[k])
        throw std::invalid_argument("ScanEngine::top_m: bad radices");
      boxes.span.push_back(below * radices[k]);
      if (boxes.leaf == radices.size() && boxes.span.back() >= kScanLeafRows)
        boxes.leaf = k + 1;
    }
    if (boxes.span.back() < end)
      throw std::invalid_argument(
          "ScanEngine::top_m: radices do not cover the scanned range");
    return boxes;
  }

  [[nodiscard]] std::size_t root() const { return radix.size(); }
};

/// Writes the row of the digit box that starts at `index` with its first
/// `free` features free to row[0, width): the box's fixed features, zeros
/// in the free ones. `buffer` is the encoder's scratch.
void node_row(const RangeEncoder& encoder, std::span<const float> tail,
              std::uint64_t index, std::size_t free,
              std::vector<float>& buffer, float* row) {
  encoder.fill_f32(index, index + 1, buffer, tail);
  std::fill(row, row + free, 0.0f);
  std::copy(buffer.begin() + static_cast<std::ptrdiff_t>(free), buffer.end(),
            row + free);
}

/// Chunks of a pruned top-M scan in the order it takes them: by key, ties
/// by index. A chunk's key is the lowest L~ over the level-k digit boxes
/// that cover it, k the coarsest level whose boxes fit in a chunk, so a
/// chunk meets at most radix[k] + 1 of them. E(k) + B is the same for every
/// chunk, so L~ alone orders them.
std::vector<std::size_t> chunks_by_bound(const ChunkGrid& grid,
                                         const DigitBoxes& boxes,
                                         const ml::BatchedEnsemble& batched,
                                         const RangeEncoder& encoder,
                                         std::span<const float> tail) {
  std::size_t k = 0;
  while (k < boxes.root() && boxes.span[k + 1] <= grid.rows) ++k;
  const std::uint64_t span = boxes.span[k];
  const std::uint64_t first = grid.begin / span;
  const auto nodes =
      static_cast<std::size_t>((grid.end + span - 1) / span - first);
  const std::size_t width = batched.input_width();
  std::vector<float> rows(nodes * width);
  std::vector<float> buffer;
  for (std::size_t n = 0; n < nodes; ++n)
    node_row(encoder, tail, (first + n) * span, k, buffer,
             rows.data() + n * width);
  std::vector<float> bounds;
  ml::BatchedEnsemble::Scratch scratch;
  batched.node_lower_bounds(rows.data(), nodes, k, bounds, scratch);
  std::vector<float> key(grid.count());
  for (std::size_t c = 0; c < key.size(); ++c)
    key[c] = *std::min_element(
        bounds.begin() + static_cast<std::ptrdiff_t>(grid.lo(c) / span - first),
        bounds.begin() + static_cast<std::ptrdiff_t>(
                             (grid.hi(c) + span - 1) / span - first));
  std::vector<std::size_t> order = grid.all();
  std::stable_sort(order.begin(), order.end(),
                   [&key](std::size_t a, std::size_t b) {
                     return key[a] < key[b];
                   });
  return order;
}

/// Every chunk's candidates, best first.
std::vector<RawCandidate> sorted_union(const std::vector<ChunkTop>& chunks) {
  std::vector<RawCandidate> all;
  for (const ChunkTop& c : chunks)
    all.insert(all.end(), c.top.begin(), c.top.end());
  std::sort(all.begin(), all.end(), better);
  return all;
}

/// The best m of `all` (sorted best first) as predicted times.
std::vector<ScanCandidate> best_m(std::vector<RawCandidate>& all,
                                  std::size_t m,
                                  const OutputTransform& transform) {
  if (all.size() > m) all.resize(m);
  std::vector<ScanCandidate> out;
  out.reserve(all.size());
  for (const auto& c : all)
    out.push_back(ScanCandidate{c.index, transform(c.raw)});
  return out;
}

/// The cap for the chunks after the first wave: the m-th best fp32 output
/// over the first wave's chunk tops plus `slack`, +inf while they hold
/// fewer than m candidates.
double wave_cap(const std::vector<ChunkTop>& chunks,
                std::span<const std::size_t> wave, std::size_t m,
                double slack) {
  std::vector<RawCandidate> tops;
  for (const std::size_t c : wave)
    tops.insert(tops.end(), chunks[c].top.begin(), chunks[c].top.end());
  if (tops.size() < m) return kInf;
  const auto mth = tops.begin() + static_cast<std::ptrdiff_t>(m - 1);
  std::nth_element(tops.begin(), mth, tops.end(), better);
  return mth->raw + slack;
}

/// Survivors of the global fp32 cutoff: every candidate within `slack` of
/// the m-th best fp32 output (all of them when fewer than m exist). These
/// are exactly the candidates whose fp64 rank can still reach the top m.
std::vector<RawCandidate> fp32_survivors(const std::vector<ChunkTop>& chunks,
                                         std::size_t m, double slack) {
  std::vector<RawCandidate> all = sorted_union(chunks);
  if (all.size() > m) {
    const double bound = all[m - 1].raw + slack;
    const auto first_out = std::find_if(
        all.begin() + static_cast<std::ptrdiff_t>(m), all.end(),
        [bound](const RawCandidate& c) { return c.raw > bound; });
    all.erase(first_out, all.end());
  }
  return all;
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

/// Runs `chunk(c, lo, hi, scratch)` on the pool for every chunk c of
/// `chunks`, [lo, hi) its rows in `grid`.
template <typename Chunk>
void for_each_chunk(const ChunkGrid& grid,
                    std::span<const std::size_t> chunks, const Chunk& chunk) {
  ScratchPool pool;
  common::global_pool().parallel_for(0, chunks.size(), [&](std::size_t i) {
    const common::telemetry::Span span("scan.chunk");
    const std::size_t c = chunks[i];
    auto scratch = pool.acquire();
    chunk(c, grid.lo(c), grid.hi(c), *scratch);
    pool.release(std::move(scratch));
  });
}

/// Runs `eval(lo, hi, scratch, out)` over the chunks of [begin, end); each
/// call writes the hi - lo predicted values of its chunk to `out`.
template <typename Eval>
std::vector<double> dense_scan(std::uint64_t begin, std::uint64_t end,
                               const Eval& eval) {
  if (begin > end) throw std::invalid_argument("ScanEngine: bad range");
  const std::uint64_t n = end - begin;
  std::vector<double> out(static_cast<std::size_t>(n));
  if (n == 0) return out;
  const auto start = std::chrono::steady_clock::now();
  const ChunkGrid grid(begin, end);
  for_each_chunk(grid, grid.all(),
                 [&](std::size_t, std::uint64_t lo, std::uint64_t hi,
                     ChunkScratch& s) {
                   eval(lo, hi, s, out.data() + (lo - begin));
                 });
  gauge_configs_per_sec(n, start);
  return out;
}

/// A top-M request's result before the scan: arguments checked, `scanned`
/// set.
TopMScanResult start_top_m(std::uint64_t begin, std::uint64_t end,
                           const OutputTransform& transform) {
  if (begin > end) throw std::invalid_argument("ScanEngine::top_m: bad range");
  if (!(transform.scale > 0.0))
    throw std::invalid_argument(
        "ScanEngine::top_m: non-positive transform scale");
  TopMScanResult result;
  result.scanned = end - begin;
  return result;
}

void count_top_m(const TopMScanResult& result, bool certified,
                 std::chrono::steady_clock::time_point start) {
  gauge_configs_per_sec(result.scanned, start);
  if (!common::telemetry::enabled()) return;
  common::telemetry::count("scan.candidates_scanned",
                           static_cast<double>(result.scanned));
  common::telemetry::count("scan.candidates_filtered",
                           static_cast<double>(result.rejected));
  if (certified) {
    common::telemetry::count("tuner.scan.fp64_rerank",
                             static_cast<double>(result.fp64_reranked));
    common::telemetry::count("tuner.scan.near_ties",
                             static_cast<double>(result.near_ties));
    common::telemetry::count("tuner.scan.pruned_rows",
                             static_cast<double>(result.pruned_rows));
  }
}

/// Exact fp64 raw outputs for a set of flat indices: rows are gathered one
/// unit-range fill at a time into per-chunk matrices and sent through
/// batched fp64 predicts on the pool. Bit-identical to what the chunked
/// fp64 scan computes for the same indices, whatever the gathered row
/// count: every kernel under predict_batch_into accumulates per output
/// element in a row-count independent order.
std::unordered_map<std::uint64_t, double> rerank_fp64(
    const ml::BaggingEnsemble& ensemble, const RangeEncoder& encoder,
    std::span<const double> tail, std::vector<std::uint64_t> indices) {
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
    encoder.fill(indices[lo], indices[lo] + 1, scratch->x, tail);
    ml::Matrix batch(hi - lo, scratch->x.cols());
    for (std::size_t r = lo; r < hi; ++r) {
      if (r != lo) encoder.fill(indices[r], indices[r] + 1, scratch->x, tail);
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

/// Re-rank survivors by their exact fp64 outputs and emit the final top-m.
std::vector<ScanCandidate> finish_fp64(
    std::vector<RawCandidate>& survivors,
    const std::unordered_map<std::uint64_t, double>& raw64, std::size_t m,
    const OutputTransform& transform) {
  for (RawCandidate& c : survivors) c.raw = raw64.at(c.index);
  std::sort(survivors.begin(), survivors.end(), better);
  return best_m(survivors, m, transform);
}

}  // namespace

ScanEngine::ScanEngine(std::shared_ptr<const ml::BaggingEnsemble> ensemble,
                       std::shared_ptr<const ml::BatchedEnsemble> batched,
                       RangeEncoder encoder, std::vector<double> tail,
                       OutputTransform transform,
                       std::vector<std::uint64_t> radices)
    : ensemble_(std::move(ensemble)),
      batched_(std::move(batched)),
      encoder_(std::move(encoder)),
      tail_(std::move(tail)),
      tail_f_(tail_.begin(), tail_.end()),
      transform_(transform),
      radices_(std::move(radices)) {
  if (!ensemble_ || !ensemble_->fitted())
    throw std::invalid_argument("ScanEngine: unfitted ensemble");
  if (!batched_ || !(batched_->calibration() == encoder_.calibration(tail_f_)))
    throw std::invalid_argument(
        "ScanEngine: the fp32 engine is not certified over the scanned box");
}

std::vector<double> ScanEngine::range(std::uint64_t begin,
                                      std::uint64_t end) const {
  return dense_scan(begin, end, [this](std::uint64_t lo, std::uint64_t hi,
                                       ChunkScratch& s, double* out) {
    const auto rows = static_cast<std::size_t>(hi - lo);
    encoder_.fill_f32(lo, hi, s.xf, tail_f_);
    batched_->predict_batch_into(s.xf.data(), rows, s.predsf, s.bs);
    for (std::size_t i = 0; i < rows; ++i)
      out[i] = transform_(static_cast<double>(s.predsf[i]));
  });
}

std::vector<double> ScanEngine::reference_range(std::uint64_t begin,
                                                std::uint64_t end) const {
  return dense_scan(begin, end, [this](std::uint64_t lo, std::uint64_t hi,
                                       ChunkScratch& s, double* out) {
    encoder_.fill(lo, hi, s.x, tail_);
    ensemble_->predict_batch_into(s.x, s.preds, s.ps);
    for (std::size_t i = 0; i < s.preds.size(); ++i)
      out[i] = transform_(s.preds[i]);
  });
}

TopMScanResult ScanEngine::reference_top_m(std::uint64_t begin,
                                           std::uint64_t end, std::size_t m,
                                           const ScanFilter& filter) const {
  TopMScanResult result = start_top_m(begin, end, transform_);
  if (result.scanned == 0 || m == 0) return result;
  const auto start = std::chrono::steady_clock::now();
  const ChunkGrid grid(begin, end);
  std::vector<ChunkTop> chunks(grid.count());
  for_each_chunk(
      grid, grid.all(),
      [&](std::size_t c, std::uint64_t lo, std::uint64_t hi, ChunkScratch& s) {
        ChunkTop& out = chunks[c];
        encoder_.fill(lo, hi, s.x, tail_);
        ensemble_->predict_batch_into(s.x, s.preds, s.ps);
        BoundedTopM heap(m);
        for (std::size_t i = 0; i < s.preds.size(); ++i) {
          const RawCandidate cand{s.preds[i], lo + i};
          if (!heap.would_enter(cand)) continue;
          // Lazy filter evaluation: only candidates good enough to enter
          // the chunk heap pay for the validity check.
          if (filter && !filter(cand.index)) {
            ++out.rejected;
            continue;
          }
          heap.push(cand);
        }
        out.top = heap.take();
      });
  for (const ChunkTop& c : chunks) result.rejected += c.rejected;
  std::vector<RawCandidate> all = sorted_union(chunks);
  result.top = best_m(all, m, transform_);
  count_top_m(result, false, start);
  return result;
}

TopMScanResult ScanEngine::top_m(std::uint64_t begin, std::uint64_t end,
                                 std::size_t m,
                                 const ScanFilter& filter) const {
  TopMScanResult result = start_top_m(begin, end, transform_);
  if (result.scanned == 0 || m == 0) return result;
  result.error_bound = batched_->error_bound();
  const double slack = 2.0 * result.error_bound;
  const auto start = std::chrono::steady_clock::now();
  const std::size_t width = batched_->input_width();
  const DigitBoxes boxes = radices_.empty()
                               ? DigitBoxes::flat(end)
                               : DigitBoxes::of(radices_, end, width);

  const ChunkGrid grid(begin, end);
  std::vector<ChunkTop> chunks(grid.count());
  // Every chunk heap's cap: +inf in the first wave, its cutoff after it.
  double cap = kInf;
  const auto chunk =
      [&](std::size_t c, std::uint64_t lo, std::uint64_t hi, ChunkScratch& s) {
        ChunkTop& out = chunks[c];
        RelaxedTopM heap(m, slack, cap);
        // Evaluate rows [a, b) and offer them in index order.
        const auto leaf = [&](std::uint64_t a, std::uint64_t b) {
          const auto rows = static_cast<std::size_t>(b - a);
          encoder_.fill_f32(a, b, s.xf, tail_f_);
          batched_->predict_batch_into(s.xf.data(), rows, s.predsf, s.bs);
          for (std::size_t i = 0; i < rows; ++i) {
            const RawCandidate cand{static_cast<double>(s.predsf[i]), a + i};
            if (!heap.would_keep(cand)) continue;
            // Lazy filter evaluation: only candidates good enough to be
            // retained pay for the validity check.
            if (filter && !filter(cand.index)) {
              ++out.rejected;
              continue;
            }
            heap.offer(cand);
          }
        };
        // Offers the rows of the node [node, node + span[level]) inside
        // [lo, hi) in index order, skipping children proved out of reach.
        s.node_bounds.resize(std::max(s.node_bounds.size(), boxes.root() + 1));
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
          s.node_rows.resize(static_cast<std::size_t>(last - first) * width);
          for (std::uint64_t k = first; k < last; ++k)
            node_row(encoder_, tail_f_, node + k * child, free, s.node_row,
                     s.node_rows.data() + (k - first) * width);
          std::vector<float>& bounds = s.node_bounds[level];
          batched_->node_lower_bounds(s.node_rows.data(),
                                      static_cast<std::size_t>(last - first),
                                      free, bounds, s.bs);
          const double margin =
              batched_->node_error_bound(free) + result.error_bound;
          for (std::uint64_t k = first; k < last; ++k) {
            const std::uint64_t index = node + k * child;
            if (static_cast<double>(bounds[k - first]) - margin >
                heap.threshold())
              out.pruned += std::min(index + child, hi) - std::max(index, lo);
            else
              self(self, free, index);
          }
        };
        visit(visit, boxes.root(), 0);
        out.top = heap.take();
      };
  // Without radices, or with at most kWave chunks, the scan is one uncapped
  // wave. Otherwise the first kWave chunks by bound go first, and their
  // cutoff caps every other chunk (see the header).
  std::vector<std::size_t> order = grid.all();
  std::size_t wave = order.size();
  if (!radices_.empty() && order.size() > kWave) {
    order = chunks_by_bound(grid, boxes, *batched_, encoder_, tail_f_);
    wave = kWave;
  }
  const std::span<const std::size_t> waves(order);
  for_each_chunk(grid, waves.first(wave), chunk);
  if (wave < order.size()) {
    cap = wave_cap(chunks, waves.first(wave), m, slack);
    for_each_chunk(grid, waves.subspan(wave), chunk);
  }

  for (const ChunkTop& c : chunks) {
    result.rejected += c.rejected;
    result.pruned_rows += c.pruned;
  }
  // Survivors of the fp32 cutoff, then one exact fp64 evaluation per
  // survivor, then the fp64-ordered truncation.
  std::vector<RawCandidate> survivors = fp32_survivors(chunks, m, slack);
  result.near_ties =
      survivors.size() - std::min<std::size_t>(m, survivors.size());
  std::vector<std::uint64_t> indices;
  indices.reserve(survivors.size());
  for (const auto& c : survivors) indices.push_back(c.index);
  const auto raw64 =
      rerank_fp64(*ensemble_, encoder_, tail_, std::move(indices));
  result.fp64_reranked = raw64.size();
  result.top = finish_fp64(survivors, raw64, m, transform_);
  count_top_m(result, true, start);
  return result;
}

ScanFilter make_static_scan_filter(const ParamSpace& space,
                                   const clsim::analyze::StaticChecker& checker,
                                   StaticPruneCounters& counters) {
  return [&space, &checker, &counters](std::uint64_t index) {
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
    return true;
  };
}

}  // namespace pt::tuner
