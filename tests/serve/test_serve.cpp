#include "serve/service.hpp"

#include <gtest/gtest.h>

#include <condition_variable>
#include <filesystem>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "archsim/devices.hpp"
#include "common/telemetry/telemetry.hpp"
#include "serve/catalog.hpp"
#include "serve/protocol.hpp"
#include "tuner/autotuner.hpp"
#include "tuner/options.hpp"

#include "../tuner/test_helpers.hpp"

namespace pt::serve {
namespace {

using tuner::testing::BowlEvaluator;
using tuner::testing::TrapEvaluator;

tuner::AutoTunerOptions fast_tuner_options() {
  tuner::AutoTunerOptions o;
  o.training_samples = 60;
  o.second_stage_size = 10;
  o.model.ensemble.k = 3;
  o.model.ensemble.hidden_layers = {
      ml::LayerSpec{12, ml::Activation::kSigmoid}};
  o.model.ensemble.trainer.common.max_epochs = 200;
  return o;
}

/// Test factory: "bowl" and "trap" resolve to the synthetic evaluators for
/// any device/input label; everything else is unknown. Records the order
/// in which tunes actually execute (one factory call per executed tune).
class RecordingFactory {
 public:
  [[nodiscard]] EvaluatorFactory factory() {
    return [this](const TuneKey& key) -> std::unique_ptr<tuner::Evaluator> {
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        calls_.push_back(key);
      }
      if (key.kernel == "bowl") return std::make_unique<BowlEvaluator>();
      if (key.kernel == "trap") return std::make_unique<TrapEvaluator>();
      return nullptr;
    };
  }
  [[nodiscard]] std::vector<TuneKey> calls() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return calls_;
  }

 private:
  mutable std::mutex mutex_;
  std::vector<TuneKey> calls_;
};

TuneKey bowl_key(const std::string& device = "dev0") {
  return TuneKey{"bowl", device, "small"};
}

TuneServiceOptions fast_service_options(std::size_t workers = 2) {
  TuneServiceOptions o;
  o.workers = workers;
  o.queue_capacity = 256;
  o.tuner = fast_tuner_options();
  return o;
}

/// Evaluator whose first measurement blocks until release() — makes "a
/// tune is executing right now" a deterministic state in tests.
class GateState {
 public:
  void wait_measuring() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return measuring_; });
  }
  void release() {
    const std::lock_guard<std::mutex> lock(mutex_);
    released_ = true;
    cv_.notify_all();
  }
  void enter() {
    std::unique_lock<std::mutex> lock(mutex_);
    measuring_ = true;
    cv_.notify_all();
    cv_.wait(lock, [this] { return released_; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool measuring_ = false;
  bool released_ = false;
};

class GatedBowlEvaluator final : public tuner::Evaluator {
 public:
  explicit GatedBowlEvaluator(std::shared_ptr<GateState> gate)
      : gate_(std::move(gate)) {}
  [[nodiscard]] const tuner::ParamSpace& space() const override {
    return inner_.space();
  }
  [[nodiscard]] std::string name() const override { return "gated-bowl"; }
  [[nodiscard]] tuner::Measurement measure(
      const tuner::Configuration& config) override {
    if (!entered_) {
      entered_ = true;
      gate_->enter();
    }
    return inner_.measure(config);
  }

 private:
  std::shared_ptr<GateState> gate_;
  BowlEvaluator inner_;
  bool entered_ = false;
};

// ---------------------------------------------------------------------------
// Determinism: served results are bit-identical to direct tuner calls.

TEST(TuneService, ServedTuneBitIdenticalToDirectCall) {
  RecordingFactory recorder;
  TuneService service(fast_service_options(), recorder.factory());
  Session session(service, "tenant-a");

  const TuneResponse served = session.tune(bowl_key(), /*seed=*/17);
  ASSERT_EQ(served.status, ResponseStatus::kOk);
  EXPECT_FALSE(served.from_cache);

  BowlEvaluator direct_eval;
  const tuner::AutoTuneResult direct =
      tuner::AutoTuner(fast_tuner_options())
          .tune(direct_eval, tuner::TuneRun::with_seed(17));
  ASSERT_TRUE(direct.success);
  EXPECT_EQ(served.best_config.values, direct.best_config.values);
  EXPECT_DOUBLE_EQ(served.best_time_ms, direct.best_time_ms);

  // Different seed: an independent (possibly different) run, also exact.
  const TuneResponse other_seed = session.tune(bowl_key(), 99);
  ASSERT_EQ(other_seed.status, ResponseStatus::kOk);
  BowlEvaluator eval99;
  const tuner::AutoTuneResult direct99 =
      tuner::AutoTuner(fast_tuner_options())
          .tune(eval99, tuner::TuneRun::with_seed(99));
  EXPECT_EQ(other_seed.best_config.values, direct99.best_config.values);
  EXPECT_DOUBLE_EQ(other_seed.best_time_ms, direct99.best_time_ms);
}

TEST(TuneService, RepeatRequestServedFromStoreAndIdentical) {
  RecordingFactory recorder;
  TuneService service(fast_service_options(), recorder.factory());
  Session session(service, "tenant-a");

  const TuneResponse first = session.tune(bowl_key(), 5);
  ASSERT_EQ(first.status, ResponseStatus::kOk);
  const TuneResponse second = session.tune(bowl_key(), 5);
  ASSERT_EQ(second.status, ResponseStatus::kOk);
  EXPECT_TRUE(second.from_cache);
  EXPECT_EQ(second.best_config.values, first.best_config.values);
  EXPECT_DOUBLE_EQ(second.best_time_ms, first.best_time_ms);
  EXPECT_EQ(recorder.calls().size(), 1u);  // one executed tune

  const TuneServiceStats stats = service.stats();
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.tunes_executed, 1u);
}

TEST(TuneService, StoreVersionMarksTheExactScan) {
  // Every served tune runs the certified scan, whose top-M is the fp64
  // reference's, and the store's model version says so ("+scan-exact"): an
  // entry the service wrote answers a fresh service over the same
  // directory, while the same entry written under "+scan-int8", as a
  // service running the former int8 tier stored it, is stale.
  const auto dir = std::filesystem::temp_directory_path() /
                   "pt_serve_test_store_version";
  std::filesystem::remove_all(dir);

  RecordingFactory recorder;
  TuneServiceOptions opts = fast_service_options(1);
  opts.store.directory = dir.string();
  std::optional<TunedConfigStore::Entry> written;
  {
    TuneService service(opts, recorder.factory());
    EXPECT_EQ(service.store().options().model_version, "v1+scan-exact");
    const TuneResponse first = Session(service, "t").tune(bowl_key(), 7);
    ASSERT_EQ(first.status, ResponseStatus::kOk);
    EXPECT_FALSE(first.from_cache);
    written = service.store().lookup(bowl_key(), 7);
    ASSERT_TRUE(written.has_value());
  }
  {
    TuneService service(opts, recorder.factory());
    EXPECT_TRUE(Session(service, "t").tune(bowl_key(), 7).from_cache);
  }
  EXPECT_EQ(recorder.calls().size(), 1u);

  TunedConfigStore::Options int8_store = opts.store;
  int8_store.model_version = "v1+scan-int8";
  TunedConfigStore(int8_store).put(*written);
  {
    TuneService service(opts, recorder.factory());
    const TuneResponse retuned = Session(service, "t").tune(bowl_key(), 7);
    ASSERT_EQ(retuned.status, ResponseStatus::kOk);
    EXPECT_FALSE(retuned.from_cache);
  }
  EXPECT_EQ(recorder.calls().size(), 2u);
  std::filesystem::remove_all(dir);
}

TEST(TuneService, PredictUsesStoredModel) {
  RecordingFactory recorder;
  TuneService service(fast_service_options(), recorder.factory());
  Session session(service, "tenant-a");

  const tuner::Configuration probe{{8, 16, 2}};
  // Predict before any tune: kNotTuned.
  const TuneResponse cold = session.predict(bowl_key(), probe, 5);
  EXPECT_EQ(cold.status, ResponseStatus::kNotTuned);

  const TuneResponse tuned = session.tune(bowl_key(), 5);
  ASSERT_EQ(tuned.status, ResponseStatus::kOk);
  const TuneResponse warm = session.predict(bowl_key(), probe, 5);
  ASSERT_EQ(warm.status, ResponseStatus::kOk);
  EXPECT_TRUE(warm.from_cache);
  EXPECT_GT(warm.predicted_ms, 0.0);
  // And the prediction equals what the store's model says directly.
  const auto entry = service.store().lookup(bowl_key(), 5);
  ASSERT_TRUE(entry.has_value());
  ASSERT_NE(entry->model, nullptr);
  EXPECT_DOUBLE_EQ(warm.predicted_ms, entry->model->predict_ms(probe));
}

TEST(TuneService, EvaluatorSpanOnlyForExecutedTunes) {
  // Building the evaluator is traced beside serve.tune: one serve.evaluator
  // span per executed tune, none for a store hit or a predict.
  common::telemetry::Collector collector;
  const common::telemetry::ScopedCollector scoped(&collector);
  const auto spans_named = [&collector](const std::string& name) {
    std::size_t n = 0;
    for (const auto& span : collector.spans()) n += span.name == name ? 1 : 0;
    return n;
  };
  RecordingFactory recorder;
  TuneService service(fast_service_options(), recorder.factory());
  Session session(service, "tenant-a");

  ASSERT_EQ(session.tune(bowl_key(), 5).status, ResponseStatus::kOk);
  EXPECT_EQ(spans_named("serve.evaluator"), 1u);
  EXPECT_EQ(spans_named("serve.tune"), 1u);

  EXPECT_TRUE(session.tune(bowl_key(), 5).from_cache);
  const TuneResponse predicted =
      session.predict(bowl_key(), tuner::Configuration{{8, 16, 2}}, 5);
  ASSERT_EQ(predicted.status, ResponseStatus::kOk);
  EXPECT_EQ(spans_named("serve.evaluator"), 1u);
  EXPECT_EQ(recorder.calls().size(), 1u);
}

TEST(TuneService, ErrorStatuses) {
  RecordingFactory recorder;
  TuneService service(fast_service_options(), recorder.factory());
  Session session(service, "tenant-a");

  const TuneResponse unknown =
      session.tune(TuneKey{"nope", "dev0", "small"}, 1);
  EXPECT_EQ(unknown.status, ResponseStatus::kInvalidKey);

  // The trap landscape: every stage-2 candidate invalid -> kNoPrediction.
  const TuneResponse trapped =
      session.tune(TuneKey{"trap", "dev0", "small"}, 1);
  EXPECT_EQ(trapped.status, ResponseStatus::kNoPrediction);
  EXPECT_FALSE(trapped.error.empty());

  // Predict without a configuration.
  TuneRequest bad;
  bad.kind = RequestKind::kPredict;
  bad.key = bowl_key();
  const TuneResponse no_config = session.request(bad);
  EXPECT_EQ(no_config.status, ResponseStatus::kInvalidKey);
}

// ---------------------------------------------------------------------------
// Coalescing.

TEST(TuneService, DuplicateInFlightRequestsCoalesce) {
  auto gate = std::make_shared<GateState>();
  RecordingFactory recorder;
  auto record_factory = recorder.factory();
  EvaluatorFactory factory =
      [&record_factory,
       gate](const TuneKey& key) -> std::unique_ptr<tuner::Evaluator> {
    if (key.kernel == "gated") {
      (void)record_factory(TuneKey{"bowl", key.device, key.input});
      return std::make_unique<GatedBowlEvaluator>(gate);
    }
    return record_factory(key);
  };
  TuneService service(fast_service_options(/*workers=*/2), factory);
  Session session(service, "tenant-a");

  const TuneKey key{"gated", "dev0", "small"};
  auto first = session.submit([&] {
    TuneRequest r;
    r.key = key;
    r.seed = 4;
    return r;
  }());
  gate->wait_measuring();  // the tune is now executing

  // Two duplicates while in flight: they must attach, not re-execute.
  auto dup1 = session.submit([&] {
    TuneRequest r;
    r.key = key;
    r.seed = 4;
    return r;
  }());
  auto dup2 = session.submit([&] {
    TuneRequest r;
    r.key = key;
    r.seed = 4;
    return r;
  }());
  // Give the pump a moment to pop the duplicates onto the in-flight entry
  // (they never consume the second worker).
  while (service.stats().coalesced < 2)
    std::this_thread::yield();

  gate->release();
  const TuneResponse a = first.get();
  const TuneResponse b = dup1.get();
  const TuneResponse c = dup2.get();
  ASSERT_EQ(a.status, ResponseStatus::kOk);
  EXPECT_FALSE(a.coalesced);
  EXPECT_TRUE(b.coalesced);
  EXPECT_TRUE(c.coalesced);
  EXPECT_EQ(b.best_config.values, a.best_config.values);
  EXPECT_EQ(c.best_config.values, a.best_config.values);
  EXPECT_DOUBLE_EQ(b.best_time_ms, a.best_time_ms);

  EXPECT_EQ(recorder.calls().size(), 1u);  // the tune executed exactly once
  EXPECT_EQ(service.stats().coalesced, 2u);
}

// ---------------------------------------------------------------------------
// Admission control and fairness.

TEST(TuneService, FullQueueRejectsImmediately) {
  auto gate = std::make_shared<GateState>();
  EvaluatorFactory factory =
      [gate](const TuneKey&) -> std::unique_ptr<tuner::Evaluator> {
    return std::make_unique<GatedBowlEvaluator>(gate);
  };
  TuneServiceOptions options = fast_service_options(/*workers=*/1);
  options.queue_capacity = 2;
  TuneService service(options, factory);
  Session session(service, "tenant-a");

  // Occupy the worker, then fill the queue. Distinct seeds and
  // allow_cached=false keep the requests from coalescing.
  std::vector<std::future<TuneResponse>> pending;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    TuneRequest r;
    r.key = TuneKey{"gated", "dev0", "small"};
    r.seed = seed;
    r.allow_cached = false;
    pending.push_back(session.submit(std::move(r)));
  }
  gate->wait_measuring();  // first executing; queue holds [2, 3]

  TuneRequest overflow;
  overflow.key = TuneKey{"gated", "dev0", "small"};
  overflow.seed = 99;
  overflow.allow_cached = false;
  auto rejected = session.submit(std::move(overflow));
  // The rejection is immediate — no waiting on the gate.
  EXPECT_EQ(rejected.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_EQ(rejected.get().status, ResponseStatus::kRejectedQueueFull);
  EXPECT_EQ(service.stats().rejected, 1u);

  gate->release();
  for (auto& f : pending) (void)f.get();
}

TEST(TuneService, SaturatedQueueDrainsRoundRobinAcrossTenants) {
  auto gate = std::make_shared<GateState>();
  RecordingFactory recorder;
  auto record_factory = recorder.factory();
  EvaluatorFactory factory =
      [&record_factory,
       gate](const TuneKey& key) -> std::unique_ptr<tuner::Evaluator> {
    if (key.kernel == "gate") return std::make_unique<GatedBowlEvaluator>(gate);
    return record_factory(key);
  };
  TuneService service(fast_service_options(/*workers=*/1), factory);

  // Block the single worker so every later submit queues.
  Session blocker(service, "tenant-z");
  TuneRequest gate_request;
  gate_request.key = TuneKey{"gate", "dev0", "small"};
  gate_request.allow_cached = false;
  auto gate_future = blocker.submit(std::move(gate_request));
  gate->wait_measuring();

  // Tenant A floods 4 requests, then tenant B submits 4: FIFO order would
  // serve all of A first; round-robin must alternate.
  std::vector<std::future<TuneResponse>> futures;
  for (const char* tenant : {"tenant-a", "tenant-b"}) {
    const std::string device = tenant;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      TuneRequest r;
      r.key = TuneKey{"bowl", device, "small"};
      r.seed = seed;
      r.allow_cached = false;  // every request must really execute
      futures.push_back(service.submit(tenant, std::move(r)));
    }
  }

  gate->release();
  ASSERT_EQ(gate_future.get().status, ResponseStatus::kOk);
  for (auto& f : futures) ASSERT_EQ(f.get().status, ResponseStatus::kOk);

  // Execution order (after the gate) alternates A, B, A, B, ...
  const std::vector<TuneKey> calls = recorder.calls();
  ASSERT_EQ(calls.size(), 8u);
  for (std::size_t i = 0; i < calls.size(); ++i) {
    const std::string expected = (i % 2 == 0) ? "tenant-a" : "tenant-b";
    EXPECT_EQ(calls[i].device, expected) << "position " << i;
  }

  const TuneServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed_by_tenant.at("tenant-a"), 4u);
  EXPECT_EQ(stats.completed_by_tenant.at("tenant-b"), 4u);
}

// ---------------------------------------------------------------------------
// Invalidation.

TEST(TuneService, InvalidationForcesRetuneWithIdenticalResult) {
  RecordingFactory recorder;
  TuneService service(fast_service_options(), recorder.factory());
  Session session(service, "tenant-a");

  const TuneResponse first = session.tune(bowl_key(), 7);
  ASSERT_EQ(first.status, ResponseStatus::kOk);
  ASSERT_TRUE(session.tune(bowl_key(), 7).from_cache);

  service.invalidate("v2", "catalog-v2");  // e.g. the device roster changed
  const TuneResponse retuned = session.tune(bowl_key(), 7);
  ASSERT_EQ(retuned.status, ResponseStatus::kOk);
  EXPECT_FALSE(retuned.from_cache);
  EXPECT_EQ(recorder.calls().size(), 2u);
  // Same key, same seed, same evaluator family: same answer.
  EXPECT_EQ(retuned.best_config.values, first.best_config.values);
  EXPECT_DOUBLE_EQ(retuned.best_time_ms, first.best_time_ms);
}

// ---------------------------------------------------------------------------
// Shutdown.

TEST(TuneService, ShutdownFailsQueuedAndDrainsRunning) {
  auto gate = std::make_shared<GateState>();
  EvaluatorFactory factory =
      [gate](const TuneKey&) -> std::unique_ptr<tuner::Evaluator> {
    return std::make_unique<GatedBowlEvaluator>(gate);
  };
  TuneService service(fast_service_options(/*workers=*/1), factory);
  Session session(service, "tenant-a");

  std::vector<std::future<TuneResponse>> futures;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    TuneRequest r;
    r.key = TuneKey{"gated", "dev0", "small"};
    r.seed = seed;
    r.allow_cached = false;
    futures.push_back(session.submit(std::move(r)));
  }
  gate->wait_measuring();

  std::thread stopper([&] {
    gate->release();  // let the running tune finish while we shut down
  });
  service.shutdown();
  stopper.join();

  // The running request completed; the queued ones failed with kShutdown.
  const TuneResponse running = futures[0].get();
  EXPECT_EQ(running.status, ResponseStatus::kOk);
  EXPECT_EQ(futures[1].get().status, ResponseStatus::kShutdown);
  EXPECT_EQ(futures[2].get().status, ResponseStatus::kShutdown);

  // Submissions after shutdown fail immediately.
  EXPECT_EQ(session.tune(bowl_key(), 1).status, ResponseStatus::kShutdown);
}

// ---------------------------------------------------------------------------
// Concurrent mixed storm with deterministic replay.

TEST(TuneService, ConcurrentMixedStormIsDeterministic) {
  RecordingFactory recorder;
  TuneServiceOptions options = fast_service_options(/*workers=*/4);
  options.queue_capacity = 4096;
  TuneService service(options, recorder.factory());

  constexpr std::size_t kClients = 4;
  constexpr std::size_t kRequestsPerClient = 40;
  const std::uint64_t seeds[] = {3, 11};

  // Each client thread fires a mix of tunes and predicts for the shared
  // key set, all concurrently.
  std::vector<std::thread> clients;
  std::mutex responses_mutex;
  std::vector<TuneResponse> tune_responses;
  clients.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Session session(service, "client-" + std::to_string(c));
      std::vector<std::future<TuneResponse>> futures;
      for (std::size_t r = 0; r < kRequestsPerClient; ++r) {
        const std::uint64_t seed = seeds[r % 2];
        if (r % 4 == 3) {
          TuneRequest req;
          req.kind = RequestKind::kPredict;
          req.key = bowl_key();
          req.seed = seed;
          req.config = tuner::Configuration{{8, 16, 2}};
          futures.push_back(session.submit(std::move(req)));
        } else {
          TuneRequest req;
          req.key = bowl_key();
          req.seed = seed;
          futures.push_back(session.submit(std::move(req)));
        }
      }
      for (auto& f : futures) {
        TuneResponse response = f.get();
        if (response.status == ResponseStatus::kOk &&
            !response.best_config.values.empty()) {
          const std::lock_guard<std::mutex> lock(responses_mutex);
          tune_responses.push_back(std::move(response));
        }
      }
    });
  }
  for (auto& t : clients) t.join();

  // Replay: every successful tune answer matches the direct tuner run for
  // its seed, bit for bit, regardless of cache/coalesce/thread timing.
  for (const std::uint64_t seed : seeds) {
    BowlEvaluator eval;
    const tuner::AutoTuneResult direct =
        tuner::AutoTuner(fast_tuner_options())
            .tune(eval, tuner::TuneRun::with_seed(seed));
    ASSERT_TRUE(direct.success);
    for (const TuneResponse& response : tune_responses) {
      if (response.seed != seed || response.predicted_ms != 0.0) continue;
      EXPECT_EQ(response.best_config.values, direct.best_config.values);
      EXPECT_DOUBLE_EQ(response.best_time_ms, direct.best_time_ms);
    }
  }

  // At most one execution per (key, seed): everything else was served from
  // the store or coalesced onto an in-flight run.
  EXPECT_LE(recorder.calls().size(), 2u);
  const TuneServiceStats stats = service.stats();
  EXPECT_EQ(stats.completed, kClients * kRequestsPerClient);
  EXPECT_GE(stats.cache_hits + stats.coalesced,
            stats.completed - stats.predicts - 2);
}

// ---------------------------------------------------------------------------
// The catalog resolves a key's device by its exact name.

TEST(BenchmarkCatalog, ExactDeviceNameResolvesAfterALongerOne) {
  const auto model = std::make_shared<const archsim::TimingModel>();
  clsim::DeviceInfo longer = archsim::nvidia_k40_info();
  longer.name = "Nvidia K40c";
  const BenchmarkCatalog catalog(clsim::Platform(
      "two K40s", {archsim::make_device(longer, model),
                   archsim::make_device(archsim::nvidia_k40_info(), model)}));
  const auto k40 = catalog.make_evaluator({"convolution", "Nvidia K40", "small"});
  ASSERT_NE(k40, nullptr);
  EXPECT_EQ(k40->name(), "convolution@Nvidia K40");
  const auto k40c =
      catalog.make_evaluator({"convolution", "Nvidia K40c", "small"});
  ASSERT_NE(k40c, nullptr);
  EXPECT_EQ(k40c->name(), "convolution@Nvidia K40c");
  EXPECT_EQ(catalog.make_evaluator({"convolution", "Nvidia K4", "small"}),
            nullptr);
}

}  // namespace
}  // namespace pt::serve
