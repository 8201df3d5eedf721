#pragma once

// TuneService — the multi-tenant tuning daemon (DESIGN.md §9).
//
// A long-lived service that accepts concurrent TuneRequests from named
// tenants, schedules them fairly, and answers:
//
//   * admission control: each tenant has a bounded FIFO queue; a request
//     arriving at a full queue is rejected immediately
//     (kRejectedQueueFull) instead of growing the backlog;
//   * fair scheduling: a round-robin cursor walks the tenants, dispatching
//     one request per visit, so a tenant flooding its queue cannot starve
//     the others — under saturation every tenant drains at the same rate;
//   * coalescing: tune requests for a (key, seed) already being tuned
//     attach to the in-flight run and receive its result (marked
//     `coalesced`), so duplicate work is never executed twice;
//   * caching: completed tunes land in the persistent TunedConfigStore;
//     repeat requests are answered from it (marked `from_cache`) without
//     touching the tuner.
//
// Determinism: a served tune runs
// AutoTuner::tune(evaluator, TuneRun::with_seed(request.seed)) on a fresh
// evaluator from the service's factory, with no observer or per-run
// telemetry collector. Results are therefore bit-identical to a direct
// call with the same options and seed, regardless of service concurrency
// (tests/serve/test_serve.cpp holds this invariant).
//
// Execution: requests run on a ThreadPool owned by the service (its size =
// options.workers). The tuner's internal parallelism (ensemble training,
// prediction scans) continues to use the global pool; the nesting-safe
// parallel_for keeps the two layers deadlock-free.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/thread_pool.hpp"
#include "serve/protocol.hpp"
#include "serve/store.hpp"
#include "tuner/autotuner.hpp"

namespace pt::serve {

/// Resolve a TuneKey to a fresh evaluator. Called once per executed tune
/// (never for cache hits); may be called concurrently. Return nullptr for
/// unknown keys (the request fails with kInvalidKey).
using EvaluatorFactory =
    std::function<std::unique_ptr<tuner::Evaluator>(const TuneKey&)>;

struct TuneServiceOptions {
  /// Concurrent request executions (and the size of the service's pool).
  std::size_t workers = 2;
  /// Bounded per-tenant queue depth; admission control rejects beyond it.
  std::size_t queue_capacity = 64;
  /// Tuner configuration used for every served tune. The seed comes from
  /// each request; options carry no observer or collector, so served runs
  /// are headless.
  tuner::AutoTunerOptions tuner{};
  /// Persistent store configuration (directory, versions; see store.hpp).
  /// The effective model_version is suffixed with the scan's exactness
  /// class, "+scan-exact" (every tune's top-M is the fp64 reference's), so
  /// entries written under another class, such as "+scan-int8", are stale.
  TunedConfigStore::Options store{};
};

/// Monotonic counters, snapshot under the service lock.
struct TuneServiceStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;      // admission-control rejections
  std::uint64_t cache_hits = 0;    // tunes answered from the store
  std::uint64_t cache_misses = 0;  // tunes that had to execute
  std::uint64_t coalesced = 0;     // requests merged onto in-flight tunes
  std::uint64_t tunes_executed = 0;
  std::uint64_t predicts = 0;
  /// Completed (including coalesced/rejected/shutdown) per tenant — the
  /// fairness evidence.
  std::unordered_map<std::string, std::uint64_t> completed_by_tenant;
};

class TuneService {
 public:
  TuneService(TuneServiceOptions options, EvaluatorFactory factory);
  ~TuneService();

  TuneService(const TuneService&) = delete;
  TuneService& operator=(const TuneService&) = delete;

  /// Admit one request for `tenant`. Always returns a future that will be
  /// fulfilled — immediately for rejections (kRejectedQueueFull) and after
  /// shutdown (kShutdown), otherwise when the request completes.
  [[nodiscard]] std::future<TuneResponse> submit(const std::string& tenant,
                                                 TuneRequest request);

  /// Blocking convenience: submit and wait.
  [[nodiscard]] TuneResponse request(const std::string& tenant,
                                     TuneRequest req);

  /// Bump the store's generation labels (device catalog or model format
  /// changed): cached entries stop validating, subsequent tunes re-run.
  void invalidate(std::string model_version, std::string catalog_version);

  [[nodiscard]] TunedConfigStore& store() noexcept { return store_; }
  [[nodiscard]] const TuneServiceOptions& options() const noexcept {
    return options_;
  }
  [[nodiscard]] TuneServiceStats stats() const;

  /// Stop accepting work, fail everything still queued with kShutdown and
  /// drain in-flight executions. Idempotent; the destructor calls it.
  void shutdown();

 private:
  using Clock = std::chrono::steady_clock;

  /// One admitted request waiting in a tenant queue (or attached to an
  /// in-flight execution).
  struct Pending {
    TuneRequest request;
    std::promise<TuneResponse> promise;
    Clock::time_point admitted;
    std::string tenant;
  };

  /// One executing tune and the duplicates riding on it.
  struct InFlight {
    std::vector<Pending> waiters;
  };
  using InFlightKey = std::pair<TuneKey, std::uint64_t>;
  struct InFlightKeyHash {
    [[nodiscard]] std::size_t operator()(
        const InFlightKey& k) const noexcept {
      const std::size_t h = TuneKeyHash{}(k.first);
      return h ^ (std::hash<std::uint64_t>{}(k.second) +
                  0x9e3779b97f4a7c15ULL + (h << 6U) + (h >> 2U));
    }
  };

  /// Dispatch queued requests onto free workers (round-robin over
  /// tenants). Caller must hold mutex_.
  void pump();
  /// Worker-side: execute one request and deliver its result (and its
  /// coalesced waiters').
  void run_job(Pending pending);
  /// The request logic proper; called without the lock.
  [[nodiscard]] TuneResponse execute(const TuneRequest& request);
  [[nodiscard]] TuneResponse execute_tune(const TuneRequest& request);
  [[nodiscard]] TuneResponse execute_predict(const TuneRequest& request);

  /// Fulfill one pending with `response`, stamping its own latency and
  /// tenant bookkeeping. Caller must hold mutex_.
  void deliver(Pending& pending, TuneResponse response);

  TuneServiceOptions options_;
  EvaluatorFactory factory_;
  TunedConfigStore store_;
  tuner::AutoTuner tuner_;

  mutable std::mutex mutex_;
  std::condition_variable idle_cv_;
  bool stopping_ = false;
  std::size_t active_ = 0;
  std::unordered_map<std::string, std::deque<Pending>> queues_;
  std::vector<std::string> tenant_order_;  // round-robin universe
  std::size_t rr_cursor_ = 0;
  std::unordered_map<InFlightKey, InFlight, InFlightKeyHash> in_flight_;
  TuneServiceStats stats_;

  /// Last member: destroyed (joined) first, so workers never outlive the
  /// state above.
  common::ThreadPool pool_;
};

/// A tenant's handle on a service: remembers the tenant name and forwards
/// requests. Cheap to copy; many sessions may share one service.
class Session {
 public:
  Session(TuneService& service, std::string tenant)
      : service_(&service), tenant_(std::move(tenant)) {}

  [[nodiscard]] const std::string& tenant() const noexcept { return tenant_; }

  [[nodiscard]] std::future<TuneResponse> submit(TuneRequest request) {
    return service_->submit(tenant_, std::move(request));
  }
  [[nodiscard]] TuneResponse request(TuneRequest req) {
    return service_->request(tenant_, std::move(req));
  }

  /// Conveniences for the two request kinds.
  [[nodiscard]] TuneResponse tune(TuneKey key, std::uint64_t seed,
                                  bool allow_cached = true) {
    TuneRequest req;
    req.kind = RequestKind::kTune;
    req.key = std::move(key);
    req.seed = seed;
    req.allow_cached = allow_cached;
    return request(std::move(req));
  }
  [[nodiscard]] TuneResponse predict(TuneKey key,
                                     tuner::Configuration config,
                                     std::uint64_t seed) {
    TuneRequest req;
    req.kind = RequestKind::kPredict;
    req.key = std::move(key);
    req.seed = seed;
    req.config = std::move(config);
    return request(std::move(req));
  }

 private:
  TuneService* service_;
  std::string tenant_;
};

}  // namespace pt::serve
