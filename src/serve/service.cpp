#include "serve/service.hpp"

#include <stdexcept>
#include <utility>

#include "common/log.hpp"
#include "common/telemetry/telemetry.hpp"
#include "tuner/options.hpp"

namespace pt::serve {

namespace tel = common::telemetry;

namespace {

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

TuneResponse make_failure(const TuneRequest& request, ResponseStatus status,
                          std::string error) {
  TuneResponse response;
  response.status = status;
  response.key = request.key;
  response.seed = request.seed;
  response.error = std::move(error);
  return response;
}

/// The effective store options: the model version carries "+scan-exact",
/// the class of the certified scan every tune runs (its top-M is the fp64
/// reference's), so entries written under another class, such as
/// "+scan-int8", are stale.
TunedConfigStore::Options exact_scan_store(TunedConfigStore::Options store) {
  store.model_version += "+scan-exact";
  return store;
}

}  // namespace

TuneService::TuneService(TuneServiceOptions options, EvaluatorFactory factory)
    : options_(std::move(options)),
      factory_(std::move(factory)),
      store_(exact_scan_store(options_.store)),
      tuner_(options_.tuner),
      pool_(options_.workers == 0 ? 1 : options_.workers) {
  if (options_.workers == 0) options_.workers = 1;
  if (options_.queue_capacity == 0) options_.queue_capacity = 1;
}

TuneService::~TuneService() { shutdown(); }

std::future<TuneResponse> TuneService::submit(const std::string& tenant,
                                              TuneRequest request) {
  Pending pending;
  pending.request = std::move(request);
  pending.admitted = Clock::now();
  pending.tenant = tenant;
  std::future<TuneResponse> fut = pending.promise.get_future();

  const std::lock_guard<std::mutex> lock(mutex_);
  if (tel::enabled()) tel::count("serve.requests");
  if (stopping_) {
    deliver(pending, make_failure(pending.request, ResponseStatus::kShutdown,
                                  "service stopped"));
    return fut;
  }
  const auto [it, inserted] = queues_.try_emplace(tenant);
  if (inserted) tenant_order_.push_back(tenant);
  if (it->second.size() >= options_.queue_capacity) {
    ++stats_.rejected;
    if (tel::enabled()) tel::count("serve.rejected");
    deliver(pending,
            make_failure(pending.request, ResponseStatus::kRejectedQueueFull,
                         "tenant queue full (" + tenant + ")"));
    return fut;
  }
  ++stats_.submitted;
  it->second.push_back(std::move(pending));
  pump();
  return fut;
}

TuneResponse TuneService::request(const std::string& tenant, TuneRequest req) {
  return submit(tenant, std::move(req)).get();
}

void TuneService::invalidate(std::string model_version,
                             std::string catalog_version) {
  store_.set_versions(std::move(model_version), std::move(catalog_version));
}

TuneServiceStats TuneService::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void TuneService::shutdown() {
  std::unique_lock<std::mutex> lock(mutex_);
  if (!stopping_) {
    stopping_ = true;
    for (auto& [tenant, queue] : queues_) {
      for (Pending& pending : queue)
        deliver(pending,
                make_failure(pending.request, ResponseStatus::kShutdown,
                             "service stopped"));
      queue.clear();
    }
  }
  idle_cv_.wait(lock, [this] { return active_ == 0; });
}

void TuneService::pump() {
  while (!stopping_ && active_ < options_.workers) {
    // Round-robin: starting at the cursor, dispatch the first tenant with
    // queued work; the cursor moves past it so the next dispatch visits
    // the following tenant first.
    Pending next;
    bool found = false;
    const std::size_t n = tenant_order_.size();
    for (std::size_t step = 0; step < n; ++step) {
      const std::size_t i = (rr_cursor_ + step) % n;
      std::deque<Pending>& queue = queues_[tenant_order_[i]];
      if (queue.empty()) continue;
      next = std::move(queue.front());
      queue.pop_front();
      rr_cursor_ = (i + 1) % n;
      found = true;
      break;
    }
    if (!found) return;

    // Coalescing: a tune of a (key, seed) already executing rides on that
    // execution instead of occupying a worker. Cache-bypassing requests
    // (allow_cached == false) demand a fresh run and are never merged.
    if (next.request.kind == RequestKind::kTune && next.request.allow_cached) {
      const InFlightKey key{next.request.key, next.request.seed};
      const auto it = in_flight_.find(key);
      if (it != in_flight_.end()) {
        ++stats_.coalesced;
        if (tel::enabled()) tel::count("serve.coalesced");
        it->second.waiters.push_back(std::move(next));
        continue;
      }
      in_flight_.emplace(key, InFlight{});
    }

    ++active_;
    // Pending is move-only (promise); std::function needs a copyable
    // callable, hence the shared_ptr hop.
    auto carried = std::make_shared<Pending>(std::move(next));
    pool_.submit([this, carried] { run_job(std::move(*carried)); });
  }
}

void TuneService::run_job(Pending pending) {
  TuneResponse response = execute(pending.request);

  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Pending> waiters;
  if (pending.request.kind == RequestKind::kTune &&
      pending.request.allow_cached) {
    const auto it =
        in_flight_.find(InFlightKey{pending.request.key, pending.request.seed});
    if (it != in_flight_.end()) {
      waiters = std::move(it->second.waiters);
      in_flight_.erase(it);
    }
  }
  for (Pending& waiter : waiters) {
    TuneResponse copy = response;
    copy.coalesced = true;
    deliver(waiter, std::move(copy));
  }
  deliver(pending, std::move(response));
  --active_;
  pump();
  if (active_ == 0) idle_cv_.notify_all();
}

void TuneService::deliver(Pending& pending, TuneResponse response) {
  response.latency_ms = ms_since(pending.admitted);
  ++stats_.completed;
  ++stats_.completed_by_tenant[pending.tenant];
  pending.promise.set_value(std::move(response));
}

TuneResponse TuneService::execute(const TuneRequest& request) {
  try {
    return request.kind == RequestKind::kPredict ? execute_predict(request)
                                                 : execute_tune(request);
  } catch (const std::exception& e) {
    return make_failure(request, ResponseStatus::kInvalidKey, e.what());
  }
}

TuneResponse TuneService::execute_tune(const TuneRequest& request) {
  TuneResponse response;
  response.key = request.key;
  response.seed = request.seed;

  if (request.allow_cached) {
    if (auto entry = store_.lookup(request.key, request.seed)) {
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.cache_hits;
      }
      if (tel::enabled()) tel::count("serve.cache.hits");
      response.status = ResponseStatus::kOk;
      response.from_cache = true;
      response.best_config = std::move(entry->best_config);
      response.best_time_ms = entry->best_time_ms;
      return response;
    }
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.cache_misses;
    }
    if (tel::enabled()) tel::count("serve.cache.misses");
  }

  // Building the evaluator is host time in front of the tune, so it gets its
  // own span. For the catalog it is the benchmark's space and program and a
  // replayed timing oracle; the benchmark's inputs wait for a functional
  // run, which a tune never makes.
  tel::Span evaluator_span("serve.evaluator");
  std::unique_ptr<tuner::Evaluator> evaluator =
      factory_ ? factory_(request.key) : nullptr;
  evaluator_span.finish();
  if (evaluator == nullptr)
    return make_failure(request, ResponseStatus::kInvalidKey,
                        "unknown key: " + request.key.to_string());

  {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.tunes_executed;
  }
  if (tel::enabled()) tel::count("serve.tune.runs");
  // The determinism contract (see class comment): fresh evaluator, the
  // service's tuner options, a context that only carries the client seed.
  tel::Span span("serve.tune");
  tuner::AutoTuneResult result =
      tuner_.tune(*evaluator, tuner::TuneRun::with_seed(request.seed));
  span.finish();

  if (!result.success)
    return make_failure(
        request, ResponseStatus::kNoPrediction,
        "no prediction (" + result.stage2_rejections.to_string() + ")");

  response.status = ResponseStatus::kOk;
  response.best_config = result.best_config;
  response.best_time_ms = result.best_time_ms;

  TunedConfigStore::Entry entry;
  entry.key = request.key;
  entry.seed = request.seed;
  entry.best_config = std::move(result.best_config);
  entry.best_time_ms = result.best_time_ms;
  entry.data_gathering_cost_ms = result.data_gathering_cost_ms;
  if (result.model.has_value())
    entry.model = std::make_shared<tuner::AnnPerformanceModel>(
        std::move(*result.model));
  store_.put(std::move(entry));
  return response;
}

TuneResponse TuneService::execute_predict(const TuneRequest& request) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.predicts;
  }
  if (tel::enabled()) tel::count("serve.predicts");

  if (!request.config.has_value())
    return make_failure(request, ResponseStatus::kInvalidKey,
                        "predict without a configuration");
  auto entry = store_.lookup(request.key, request.seed);
  if (!entry)
    return make_failure(
        request, ResponseStatus::kNotTuned,
        "no stored entry for " + request.key.to_string() + " at seed " +
            std::to_string(request.seed));
  if (entry->model == nullptr || !entry->model->fitted())
    return make_failure(request, ResponseStatus::kNotTuned,
                        "stored entry for " + request.key.to_string() +
                            " has no model");

  TuneResponse response;
  response.status = ResponseStatus::kOk;
  response.key = request.key;
  response.seed = request.seed;
  response.from_cache = true;
  response.best_config = entry->best_config;
  response.best_time_ms = entry->best_time_ms;
  response.predicted_ms = entry->model->predict_ms(*request.config);
  return response;
}

}  // namespace pt::serve
