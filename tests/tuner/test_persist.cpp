#include "tuner/persist.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <string>

#include "../common/endless_token.hpp"
#include "test_helpers.hpp"

namespace pt::tuner {
namespace {

using testing::BowlEvaluator;
using testing::small_space;

AnnPerformanceModel trained_model(std::uint64_t seed,
                                  bool log_targets = true,
                                  FeatureEncoding encoding =
                                      FeatureEncoding::kLog2) {
  AnnPerformanceModel::Options opts;
  opts.ensemble.k = 3;
  opts.ensemble.hidden_layers = {ml::LayerSpec{10, ml::Activation::kSigmoid}};
  opts.ensemble.trainer.common.max_epochs = 200;
  opts.log_targets = log_targets;
  opts.encoding = encoding;

  BowlEvaluator eval;
  common::Rng rng(seed);
  std::vector<TrainingSample> samples;
  for (int i = 0; i < 140; ++i) {
    const Configuration c = eval.space().random(rng);
    samples.push_back({c, eval.measure(c).time_ms});
  }
  AnnPerformanceModel model(opts);
  model.fit(eval.space(), samples, rng);
  return model;
}

TEST(Persist, RoundTripPreservesPredictionsExactly) {
  const AnnPerformanceModel model = trained_model(1);
  std::stringstream ss;
  save_model(model, ss);
  const AnnPerformanceModel loaded = load_model(ss);

  const ParamSpace space = small_space();
  for (std::uint64_t i = 0; i < space.size(); i += 5) {
    const Configuration c = space.decode(i);
    EXPECT_DOUBLE_EQ(loaded.predict_ms(c), model.predict_ms(c));
  }
}

TEST(Persist, RoundTripPreservesSpaceAndOptions) {
  const AnnPerformanceModel model = trained_model(2, false,
                                                  FeatureEncoding::kRaw);
  std::stringstream ss;
  save_model(model, ss);
  const AnnPerformanceModel loaded = load_model(ss);
  EXPECT_EQ(loaded.space().size(), model.space().size());
  EXPECT_EQ(loaded.space().parameter(0).name, "A");
  EXPECT_FALSE(loaded.options().log_targets);
  EXPECT_EQ(loaded.options().encoding, FeatureEncoding::kRaw);
  EXPECT_DOUBLE_EQ(loaded.target_mean(), model.target_mean());
  EXPECT_DOUBLE_EQ(loaded.target_scale(), model.target_scale());
}

TEST(Persist, RangePredictionWorksAfterLoad) {
  const AnnPerformanceModel model = trained_model(3);
  std::stringstream ss;
  save_model(model, ss);
  const AnnPerformanceModel loaded = load_model(ss);
  const auto a = model.scan_engine().reference_range(0, 64);
  const auto b = loaded.scan_engine().reference_range(0, 64);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(a[i], b[i]);
}

TEST(Persist, RandomSpacesAndOptionsRoundTripBitExactly) {
  // Property-style: random parameter spaces and model options, reloaded
  // predictions compared with EXPECT_EQ (bit-exact, not approximately).
  common::Rng rng(77);
  for (int trial = 0; trial < 5; ++trial) {
    ParamSpace space;
    const std::size_t params = 2 + rng.below(2);
    for (std::size_t p = 0; p < params; ++p) {
      std::vector<int> values;
      const std::size_t count = 2 + rng.below(4);
      const std::size_t shift = rng.below(3);  // random but distinct powers
      for (std::size_t v = 0; v < count; ++v)
        values.push_back(1 << (v + shift));
      std::string name = "p";  // built with += : the operator+ temporary
      name += std::to_string(p);  // trips a GCC 12 -Wrestrict false positive
      space.add(name, values);
    }

    AnnPerformanceModel::Options opts;
    opts.ensemble.k = 2 + rng.below(2);
    opts.ensemble.hidden_layers = {
        ml::LayerSpec{6 + rng.below(5), ml::Activation::kSigmoid}};
    opts.ensemble.trainer.common.max_epochs = 80;
    opts.log_targets = rng.bernoulli(0.5);
    opts.encoding = rng.bernoulli(0.5) ? FeatureEncoding::kLog2
                                       : FeatureEncoding::kRaw;

    std::vector<TrainingSample> samples;
    for (int i = 0; i < 50; ++i) {
      const Configuration c = space.random(rng);
      double t = 1.0;
      for (const int v : c.values) t += 0.1 * static_cast<double>(v);
      samples.push_back({c, t});
    }
    AnnPerformanceModel model(opts);
    model.fit(space, samples, rng);

    std::stringstream ss;
    save_model(model, ss);
    const AnnPerformanceModel loaded = load_model(ss);
    ASSERT_EQ(loaded.space().size(), space.size());
    EXPECT_EQ(loaded.options().log_targets, opts.log_targets);
    EXPECT_EQ(loaded.options().encoding, opts.encoding);
    for (std::uint64_t i = 0; i < space.size(); ++i)
      EXPECT_EQ(loaded.predict_ms(space.decode(i)),
                model.predict_ms(space.decode(i)))
          << "trial " << trial << " config " << i;
  }
}

TEST(Persist, UnfittedModelRefusesToSave) {
  const AnnPerformanceModel model;
  std::stringstream ss;
  EXPECT_THROW(save_model(model, ss), std::logic_error);
}

TEST(Persist, ModelWithProblemParametersRefusesToSave) {
  AnnPerformanceModel::Options opts;
  opts.ensemble.k = 2;
  opts.ensemble.trainer.common.max_epochs = 20;
  BowlEvaluator eval;
  common::Rng rng(9);
  std::vector<TrainingSample> samples;
  for (int i = 0; i < 40; ++i) {
    const Configuration c = eval.space().random(rng);
    samples.push_back({c, eval.measure(c).time_ms, ProblemInstance{{64.0}}});
  }
  AnnPerformanceModel model(opts);
  model.fit(eval.space(), samples, rng);
  std::stringstream ss;
  EXPECT_THROW(save_model(model, ss), std::logic_error);
  EXPECT_TRUE(ss.str().empty());
}

TEST(Persist, RejectsBadMagic) {
  std::stringstream ss("wrong-header 1 2 3");
  EXPECT_THROW((void)load_model(ss), std::runtime_error);
}

TEST(Persist, RejectsTruncatedStream) {
  const AnnPerformanceModel model = trained_model(4);
  std::stringstream ss;
  save_model(model, ss);
  std::string text = ss.str();
  text.resize(text.size() / 3);
  std::stringstream truncated(text);
  EXPECT_THROW((void)load_model(truncated), std::runtime_error);
}

/// A saved model's text with the scale on its "target <mean> <scale>" line
/// replaced.
std::string with_target_scale(const AnnPerformanceModel& model,
                              const std::string& scale) {
  std::stringstream ss;
  save_model(model, ss);
  std::string text = ss.str();
  const std::size_t line = text.find("\ntarget ");
  const std::size_t scale_at = text.find(' ', line + 8) + 1;
  const std::size_t end = text.find('\n', scale_at);
  text.replace(scale_at, end - scale_at, scale);
  return text;
}

TEST(Persist, RestoreRejectsBadTargetTransform) {
  const AnnPerformanceModel model = trained_model(6);
  const auto restore = [&](double mean, double scale) {
    return AnnPerformanceModel::restore(model.options(), model.space(), mean,
                                        scale, model.ensemble());
  };
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double scale : {0.0, -1.0, inf, -inf, nan})
    EXPECT_THROW((void)restore(0.5, scale), std::invalid_argument) << scale;
  for (const double mean : {inf, -inf, nan})
    EXPECT_THROW((void)restore(mean, 2.0), std::invalid_argument) << mean;
  const AnnPerformanceModel restored = restore(-0.5, 2.0);
  EXPECT_EQ(restored.target_mean(), -0.5);
  EXPECT_EQ(restored.target_scale(), 2.0);
}

TEST(Persist, LoadRejectsNonPositiveTargetScale) {
  const AnnPerformanceModel model = trained_model(7);
  std::stringstream intact(with_target_scale(
      model, std::to_string(model.target_scale())));
  EXPECT_NO_THROW((void)load_model(intact));
  for (const char* scale : {"0", "-1"}) {
    std::stringstream edited(with_target_scale(model, scale));
    EXPECT_THROW((void)load_model(edited), std::invalid_argument) << scale;
  }
}

// A count the stream claims but does not hold fails as a malformed stream,
// with no allocation sized by the claim.
TEST(Persist, HugeClaimedCountsFailAsMalformedStreams) {
  const std::string head =
      "portatune-perf-model-v1\nlog_targets 1\nencoding log2\n"
      "target 0.5 2\n";
  const std::string huge = "1099511627776";  // 2^40
  for (const std::string& text :
       {head + "space " + huge + "\nparam A 2 1 2\n",
        head + "space 1\nparam A " + huge + " 1 2 4\n"}) {
    std::stringstream ss(text);
    EXPECT_THROW((void)load_model(ss), std::runtime_error) << text;
  }
}

// An endless token where a keyword, the encoding or a parameter name
// belongs fails after a bounded read, not after reading the whole token.
TEST(Persist, EndlessTokensFailAfterABoundedRead) {
  const std::string head = "portatune-perf-model-v1\nlog_targets 1\n";
  for (const std::string& prefix :
       {std::string(), head, head + "encoding ",
        head + "encoding log2\ntarget 0.5 2\nspace 1\nparam "}) {
    hostile::EndlessTokenBuf buf(prefix);
    std::istream is(&buf);
    EXPECT_THROW((void)load_model(is), std::runtime_error) << prefix;
    EXPECT_LE(buf.consumed(), buf.prefix_size() + kMaxParamNameLength + 1)
        << prefix;
  }
}

// Names up to kMaxParamNameLength round-trip; save_model refuses a longer
// one, which load_model would reject.
TEST(Persist, ParameterNamesRoundTripUpToTheLengthLimit) {
  const AnnPerformanceModel model = trained_model(9);
  const auto with_first_name = [&model](std::size_t length) {
    ParamSpace space;
    for (std::size_t d = 0; d < model.space().dimension_count(); ++d) {
      const TuningParameter& p = model.space().parameter(d);
      space.add(d == 0 ? std::string(length, 'A') : p.name, p.values);
    }
    return AnnPerformanceModel::restore(model.options(), space,
                                        model.target_mean(),
                                        model.target_scale(),
                                        model.ensemble());
  };
  std::stringstream at_limit;
  save_model(with_first_name(kMaxParamNameLength), at_limit);
  EXPECT_EQ(load_model(at_limit).space().parameter(0).name,
            std::string(kMaxParamNameLength, 'A'));
  std::stringstream over;
  EXPECT_THROW(save_model(with_first_name(kMaxParamNameLength + 1), over),
               std::logic_error);
}

TEST(Persist, ParameterValuesOutsideIntAreRejected) {
  const AnnPerformanceModel model = trained_model(8);
  std::stringstream ss;
  save_model(model, ss);
  const std::string text = ss.str();
  const std::string first = "\nparam A 8 1 ";  // small_space's A values
  const std::size_t at = text.find(first);
  ASSERT_NE(at, std::string::npos);
  for (const char* value : {"4294967298", "-2147483649"}) {
    std::string edited = text;
    edited.replace(at + first.size() - 2, 1, value);  // 2^32 + 2 wraps to 2
    std::stringstream is(edited);
    EXPECT_THROW((void)load_model(is), std::runtime_error) << value;
  }
}

TEST(Persist, RestoreValidatesWidths) {
  const AnnPerformanceModel model = trained_model(5);
  // A space whose dimensionality does not match the ensemble.
  ParamSpace wrong;
  wrong.add("X", {1, 2});
  EXPECT_THROW((void)AnnPerformanceModel::restore(
                   model.options(), wrong, 0.0, 1.0,
                   ml::BaggingEnsemble(model.options().ensemble)),
               std::invalid_argument);
}

}  // namespace
}  // namespace pt::tuner
