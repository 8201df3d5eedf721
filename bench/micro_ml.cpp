// google-benchmark micro-benchmarks for the ML substrate: the matrix kernel,
// the network's forward pass, the fused training epoch, ensemble training
// and bulk prediction — the operations whose throughput bounds the tuner's
// "orders of magnitude faster than running the benchmarks" prediction scan
// (paper section 5.3).

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/simd.hpp"
#include "ml/batched.hpp"
#include "ml/ensemble.hpp"
#include "ml/member_epoch.hpp"
#include "ml/mlp.hpp"
#include "ml/trainer.hpp"

namespace {

using namespace pt;

ml::Matrix random_matrix(std::size_t rows, std::size_t cols,
                         common::Rng& rng) {
  ml::Matrix m(rows, cols);
  for (auto& v : m.flat()) v = rng.uniform(-1.0, 1.0);
  return m;
}

void BM_Matmul(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  common::Rng rng(1);
  const ml::Matrix a = random_matrix(n, n, rng);
  const ml::Matrix b = random_matrix(n, n, rng);
  ml::Matrix c;
  for (auto _ : state) {
    ml::matmul(a, b, c);
    benchmark::DoNotOptimize(c.flat().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n *
                          n * n * 2);
}
BENCHMARK(BM_Matmul)->Arg(32)->Arg(64)->Arg(128);

void BM_MlpForwardBatch(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  common::Rng rng(2);
  ml::Mlp net(9, {ml::LayerSpec{30, ml::Activation::kSigmoid},
                  ml::LayerSpec{1, ml::Activation::kLinear}});
  net.init_weights(rng);
  const ml::Matrix x = random_matrix(batch, 9, rng);
  for (auto _ : state) {
    const ml::Matrix y = net.forward_batch(x);
    benchmark::DoNotOptimize(y.flat().data());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) * batch);
}
BENCHMARK(BM_MlpForwardBatch)->Arg(256)->Arg(4096)->Arg(65536);

// --- One training epoch at paper geometry ----------------------------------
// 9 features, 30 sigmoid hidden units, 1,818 samples of which the trainer's
// 15% validation split holds out 273: 1,545 training rows.

constexpr std::size_t kPaperFeatures = 9;
constexpr std::size_t kPaperHidden = 30;
constexpr std::size_t kPaperTrainRows = 1545;
constexpr std::size_t kPaperValidationRows = 273;

ml::Mlp paper_member(common::Rng& rng) {
  ml::Mlp net(kPaperFeatures,
              {ml::LayerSpec{kPaperHidden, ml::Activation::kSigmoid},
               ml::LayerSpec{1, ml::Activation::kLinear}});
  net.init_weights(rng);
  for (auto& b : net.biases(0)) b = rng.uniform(-0.5, 0.5);
  return net;
}

/// The fused epoch over the 1,545 training rows: forward pass, loss and
/// all four gradients.
void BM_MemberEpoch(benchmark::State& state) {
  common::Rng rng(3);
  const ml::MemberParams params(paper_member(rng));
  const ml::Matrix x = random_matrix(kPaperTrainRows, kPaperFeatures, rng);
  const ml::Matrix t = random_matrix(kPaperTrainRows, 1, rng);
  std::vector<double> grads;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ml::member_epoch(params, x, t, grads));
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kPaperTrainRows));
}
BENCHMARK(BM_MemberEpoch);

/// The epoch's validation loss over the 273 held-out rows.
void BM_MemberValidationLoss(benchmark::State& state) {
  common::Rng rng(3);
  const ml::MemberParams params(paper_member(rng));
  const ml::Matrix x =
      random_matrix(kPaperValidationRows, kPaperFeatures, rng);
  const ml::Matrix t = random_matrix(kPaperValidationRows, 1, rng);
  for (auto _ : state)
    benchmark::DoNotOptimize(ml::member_loss(params, x, t));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kPaperValidationRows));
}
BENCHMARK(BM_MemberValidationLoss);

/// Whole RpropTrainer epochs (fused epoch, Rprop update, validation loss,
/// early-stopping bookkeeping): 50 epochs per iteration, patience off, so
/// items per second are epochs per second.
void BM_RpropEpoch(benchmark::State& state) {
  constexpr std::size_t kEpochs = 50;
  common::Rng rng(3);
  ml::Dataset data;
  data.x = random_matrix(kPaperTrainRows + kPaperValidationRows,
                         kPaperFeatures, rng);
  data.y = random_matrix(data.x.rows(), 1, rng);
  const ml::Mlp initial = paper_member(rng);
  ml::RpropTrainer::Options options;
  options.common.max_epochs = kEpochs;
  options.common.patience = 0;
  const ml::RpropTrainer trainer(options);
  for (auto _ : state) {
    ml::Mlp net = initial;
    common::Rng split_rng(4);
    benchmark::DoNotOptimize(trainer.train(net, data, split_rng).epochs);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kEpochs));
}
BENCHMARK(BM_RpropEpoch)->Unit(benchmark::kMillisecond);

void BM_EnsembleTrain(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  common::Rng rng(4);
  ml::Dataset data;
  data.x = random_matrix(n, 9, rng);
  data.y = ml::Matrix(n, 1);
  for (std::size_t i = 0; i < n; ++i) {
    double acc = 0.0;
    for (std::size_t c = 0; c < 9; ++c) acc += data.x(i, c);
    data.y(i, 0) = acc;
  }
  ml::BaggingEnsemble::Options opts;
  opts.k = 3;
  opts.trainer.common.max_epochs = 100;
  for (auto _ : state) {
    ml::BaggingEnsemble ensemble(opts);
    ensemble.fit(data, rng);
    benchmark::DoNotOptimize(ensemble.member_count());
  }
}
BENCHMARK(BM_EnsembleTrain)->Arg(500)->Unit(benchmark::kMillisecond);

void BM_EnsemblePredictBatch(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  common::Rng rng(5);
  ml::Dataset data;
  data.x = random_matrix(400, 9, rng);
  data.y = random_matrix(400, 1, rng);
  ml::BaggingEnsemble::Options opts;
  opts.k = 11;  // paper's ensemble size
  opts.trainer.common.max_epochs = 30;
  ml::BaggingEnsemble ensemble(opts);
  ensemble.fit(data, rng);
  const ml::Matrix query = random_matrix(n, 9, rng);
  for (auto _ : state) {
    const auto out = ensemble.predict_batch(query);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_EnsemblePredictBatch)->Arg(65536);

// --- fp32 SIMD substrate ---------------------------------------------------

std::vector<float> random_floats(std::size_t n, common::Rng& rng) {
  std::vector<float> x(n);
  for (auto& v : x) v = static_cast<float>(rng.uniform(-8.0, 8.0));
  return x;
}

void BM_SimdExp(benchmark::State& state) {
  common::Rng rng(6);
  const auto x = random_floats(65536, rng);
  std::vector<float> y(x.size());
  for (auto _ : state) {
    for (std::size_t i = 0; i < x.size(); i += common::simd::kWidth) {
      common::simd::exp(common::simd::VecF::load(x.data() + i))
          .store(y.data() + i);
    }
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(x.size()));
}
BENCHMARK(BM_SimdExp);

void BM_StdExpBaseline(benchmark::State& state) {
  common::Rng rng(6);
  const auto x = random_floats(65536, rng);
  std::vector<float> y(x.size());
  for (auto _ : state) {
    for (std::size_t i = 0; i < x.size(); ++i) y[i] = std::exp(x[i]);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(x.size()));
}
BENCHMARK(BM_StdExpBaseline);

// --- fp64 exp of the training path ----------------------------------------

/// The exps of one paper-geometry epoch: (1,545 training + 273 validation
/// rows) x 30 sigmoid hidden units = 54,540 pre-activations.
std::vector<double> exp_pass_inputs() {
  common::Rng rng(6);
  std::vector<double> x(1818 * 30);
  for (auto& v : x) v = rng.uniform(-30.0, 30.0);
  return x;
}

void BM_ExpD(benchmark::State& state) {
  const auto x = exp_pass_inputs();
  std::vector<double> y(x.size());
  for (auto _ : state) {
    for (std::size_t i = 0; i < x.size(); i += common::simd::kWidthD) {
      common::simd::exp(common::simd::VecD::load(x.data() + i))
          .store(y.data() + i);
    }
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(x.size()));
}
BENCHMARK(BM_ExpD);

/// The same pass through libm's scalar exp, as the training path ran it
/// before common::math::exp.
void BM_StdExpDBaseline(benchmark::State& state) {
  const auto x = exp_pass_inputs();
  std::vector<double> y(x.size());
  for (auto _ : state) {
    for (std::size_t i = 0; i < x.size(); ++i) y[i] = std::exp(x[i]);
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(x.size()));
}
BENCHMARK(BM_StdExpDBaseline);

void BM_BatchedMlpForward(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  common::Rng rng(7);
  ml::Mlp net(9, {ml::LayerSpec{30, ml::Activation::kSigmoid},
                  ml::LayerSpec{1, ml::Activation::kLinear}});
  net.init_weights(rng);
  const ml::BatchedMlp batched(net);
  const auto x = random_floats(batch * 9, rng);
  std::vector<float> out(batch);
  for (auto _ : state) {
    batched.forward_column0(x.data(), batch, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_BatchedMlpForward)->Arg(256)->Arg(4096)->Arg(65536);

/// The trained ensemble the batched bench packs (the paper's k = 11), with
/// the [-8, 8] box random_floats draws from as its certification box.
ml::BaggingEnsemble bench_ensemble(common::Rng& rng) {
  ml::Dataset data;
  data.x = random_matrix(400, 9, rng);
  data.y = random_matrix(400, 1, rng);
  ml::BaggingEnsemble::Options opts;
  opts.k = 11;  // paper's ensemble size
  opts.trainer.common.max_epochs = 30;
  ml::BaggingEnsemble ensemble(opts);
  ensemble.fit(data, rng);
  return ensemble;
}

ml::CertificationBox bench_calibration() {
  ml::CertificationBox calib;
  calib.lo.assign(9, -8.0F);
  calib.hi.assign(9, 8.0F);
  return calib;
}

void BM_BatchedEnsemblePredict(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  common::Rng rng(8);
  const ml::BaggingEnsemble ensemble = bench_ensemble(rng);
  const ml::BatchedEnsemble engine(ensemble, bench_calibration());
  const auto x = random_floats(n * 9, rng);
  std::vector<float> out;
  ml::BatchedEnsemble::Scratch scratch;
  for (auto _ : state) {
    engine.predict_batch_into(x.data(), n, out, scratch);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_BatchedEnsemblePredict)->Arg(65536);

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): google-benchmark rejects unknown
// flags, so translate our ctest-facing `--smoke` into a tiny min-time run.
int main(int argc, char** argv) {
  std::vector<char*> args;
  bool smoke = false;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      args.push_back(argv[i]);
    }
  }
  std::string min_time = "--benchmark_min_time=0.01";
  if (smoke) args.push_back(min_time.data());
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
