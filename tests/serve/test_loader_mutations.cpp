// Seeded mutation harness for the three text loaders: ml::load_ensemble,
// tuner::load_model and TunedConfigStore::load_entry. The valid inputs are
// generated here: a fitted ensemble, a fitted performance model, and a tuned
// entry with and without its model. Each is mutated by byte flips,
// truncations and rewritten integer tokens (oversized, negative or zero
// counts). Every mutant must either fail with std::runtime_error or
// std::invalid_argument, or load to an object whose re-save loads back to
// the same bytes. The sanitize preset runs it under ASan/UBSan too, so a
// mutant must not reach a memory error either.

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "ml/ensemble.hpp"
#include "ml/serialize.hpp"
#include "serve/store.hpp"
#include "tuner/persist.hpp"

#include "../tuner/test_helpers.hpp"

namespace pt::serve {
namespace {

/// A loader under test: parse the stream, then save what was parsed.
using LoadAndSave = std::function<std::string(std::istream&)>;

std::string ensemble_text() {
  common::Rng rng(41);
  ml::Dataset data{ml::Matrix(40, 3), ml::Matrix(40, 1)};
  for (auto& v : data.x.flat()) v = rng.uniform(-2.0, 2.0);
  for (auto& v : data.y.flat()) v = rng.uniform(-1.0, 1.0);
  ml::BaggingEnsemble::Options options;
  options.k = 3;
  options.hidden_layers = {ml::LayerSpec{5, ml::Activation::kSigmoid}};
  options.trainer.common.max_epochs = 30;
  ml::BaggingEnsemble ensemble(options);
  ensemble.fit(data, rng);
  std::ostringstream os;
  ml::save_ensemble(ensemble, os);
  return os.str();
}

std::shared_ptr<const tuner::AnnPerformanceModel> fitted_model() {
  tuner::AnnPerformanceModel::Options options;
  options.ensemble.k = 2;
  options.ensemble.hidden_layers = {
      ml::LayerSpec{4, ml::Activation::kSigmoid}};
  options.ensemble.trainer.common.max_epochs = 30;
  tuner::testing::BowlEvaluator eval;
  common::Rng rng(43);
  std::vector<tuner::TrainingSample> samples;
  for (int i = 0; i < 40; ++i) {
    const tuner::Configuration c = eval.space().random(rng);
    samples.push_back({c, eval.measure(c).time_ms});
  }
  auto model = std::make_shared<tuner::AnnPerformanceModel>(options);
  model->fit(eval.space(), samples, rng);
  return model;
}

std::string entry_text(bool with_model) {
  TunedConfigStore::Entry entry;
  entry.key = TuneKey{"bowl", "AMD Radeon HD 7970", "small"};
  entry.seed = 17;
  entry.model_version = "v1";
  entry.catalog_version = "c1";
  entry.model = fitted_model();
  entry.best_config = entry.model->space().decode(5);
  entry.best_time_ms = 1.25;
  entry.data_gathering_cost_ms = 30.5;
  std::ostringstream os;
  TunedConfigStore::save_entry(entry, with_model, os);
  return os.str();
}

/// Byte flips (a random byte, a character the format uses, or one flipped
/// bit), truncations at random points and at every line end, and every
/// whole integer token rewritten to an oversized, negative or zero count.
std::vector<std::string> mutants(const std::string& valid,
                                 common::Rng& rng) {
  std::vector<std::string> out;
  const std::string palette = "0123456789-+.eE \n\tx";
  for (int i = 0; i < 200; ++i) {
    std::string m = valid;
    const std::size_t at = rng.below(m.size());
    switch (rng.below(3)) {
      case 0: m[at] = static_cast<char>(rng.below(256)); break;
      case 1: m[at] = palette[rng.below(palette.size())]; break;
      default: m[at] = static_cast<char>(m[at] ^ (1 << rng.below(8))); break;
    }
    if (m != valid) out.push_back(std::move(m));
  }
  for (int i = 0; i < 40; ++i) out.push_back(valid.substr(0, rng.below(valid.size())));
  for (std::size_t at = 0; at < valid.size(); ++at)
    if (valid[at] == '\n') out.push_back(valid.substr(0, at));

  const std::vector<std::string> counts = {
      "0",           "-1",
      "-9223372036854775808", "1099511627776",
      "4294967297",  "18446744073709551615",
      "18446744073709551616", "99999999999999999999999"};
  const auto digit = [](char c) {
    return std::isdigit(static_cast<unsigned char>(c)) != 0;
  };
  const auto space = [](char c) {
    return std::isspace(static_cast<unsigned char>(c)) != 0;
  };
  for (std::size_t begin = 0; begin < valid.size();) {
    std::size_t end = begin;
    while (end < valid.size() && digit(valid[end])) ++end;
    const bool whole = end > begin && (begin == 0 || space(valid[begin - 1])) &&
                       (end == valid.size() || space(valid[end]));
    if (whole)
      for (const std::string& c : counts)
        out.push_back(valid.substr(0, begin) + c + valid.substr(end));
    begin = end > begin ? end : begin + 1;
  }
  return out;
}

void check_format(const std::string& name, const std::string& valid,
                  const LoadAndSave& load_and_save, std::uint64_t seed) {
  {  // the unmutated input round-trips
    std::istringstream is(valid);
    ASSERT_EQ(load_and_save(is), valid) << name;
  }
  common::Rng rng(seed);
  std::size_t rejected = 0;
  std::size_t loaded = 0;
  const std::vector<std::string> inputs = mutants(valid, rng);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    std::string saved;
    try {
      std::istringstream is(inputs[i]);
      saved = load_and_save(is);
    } catch (const std::runtime_error&) {
      ++rejected;
      continue;
    } catch (const std::invalid_argument&) {
      ++rejected;
      continue;
    } catch (const std::exception& e) {
      ADD_FAILURE() << name << " mutant " << i << " threw " << e.what()
                    << "\n" << inputs[i];
      continue;
    }
    ++loaded;
    std::string resaved;
    try {
      std::istringstream is(saved);
      resaved = load_and_save(is);
    } catch (const std::exception& e) {
      ADD_FAILURE() << name << " mutant " << i << ": its re-save does not load: "
                    << e.what() << "\n" << saved;
      continue;
    }
    EXPECT_EQ(resaved, saved) << name << " mutant " << i;
  }
  // Both outcomes occur: a mutated digit of a weight still loads.
  EXPECT_GT(rejected, 0u) << name;
  EXPECT_GT(loaded, 0u) << name;
}

TEST(LoaderMutations, EnsembleRejectsOrRoundTrips) {
  check_format("ensemble", ensemble_text(),
               [](std::istream& is) {
                 std::ostringstream os;
                 ml::save_ensemble(ml::load_ensemble(is), os);
                 return os.str();
               },
               1);
}

TEST(LoaderMutations, PerformanceModelRejectsOrRoundTrips) {
  std::ostringstream valid;
  tuner::save_model(*fitted_model(), valid);
  check_format("model", valid.str(),
               [](std::istream& is) {
                 std::ostringstream os;
                 tuner::save_model(tuner::load_model(is), os);
                 return os.str();
               },
               2);
}

TEST(LoaderMutations, TunedEntryRejectsOrRoundTrips) {
  const LoadAndSave load_and_save = [](std::istream& is) {
    std::ostringstream os;
    TunedConfigStore::save_entry(TunedConfigStore::load_entry(is),
                                 /*persist_model=*/true, os);
    return os.str();
  };
  check_format("entry with model", entry_text(true), load_and_save, 3);
  check_format("entry without model", entry_text(false), load_and_save, 4);
}

}  // namespace
}  // namespace pt::serve
