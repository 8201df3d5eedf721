#include "serve/store.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>

#include "serve/service.hpp"
#include "tuner/autotuner.hpp"
#include "tuner/options.hpp"

#include "../common/endless_token.hpp"
#include "../tuner/test_helpers.hpp"

namespace pt::serve {
namespace {

using tuner::testing::BowlEvaluator;

/// A real tuned entry (with a trained model) to round-trip.
TunedConfigStore::Entry make_entry() {
  tuner::AutoTunerOptions options;
  options.training_samples = 60;
  options.second_stage_size = 10;
  options.model.ensemble.k = 3;
  options.model.ensemble.hidden_layers = {
      ml::LayerSpec{12, ml::Activation::kSigmoid}};
  options.model.ensemble.trainer.common.max_epochs = 200;
  BowlEvaluator eval;
  tuner::AutoTuneResult result =
      tuner::AutoTuner(options).tune(eval, tuner::TuneRun::with_seed(17));
  EXPECT_TRUE(result.success);

  TunedConfigStore::Entry entry;
  entry.key = TuneKey{"bowl", "AMD Radeon HD 7970", "small"};
  entry.seed = 17;
  entry.best_config = result.best_config;
  entry.best_time_ms = result.best_time_ms;
  entry.data_gathering_cost_ms = result.data_gathering_cost_ms;
  if (result.model.has_value())
    entry.model = std::make_shared<tuner::AnnPerformanceModel>(
        std::move(*result.model));
  return entry;
}

std::string fresh_dir(const std::string& name) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("pt_store_test_" + name);
  std::filesystem::remove_all(dir);
  return dir.string();
}

/// `text` with every occurrence of `from` replaced by `to`.
std::string replaced(std::string text, const std::string& from,
                     const std::string& to) {
  for (std::size_t at = text.find(from); at != std::string::npos;
       at = text.find(from, at + to.size()))
    text.replace(at, from.size(), to);
  return text;
}

/// Tunes one key into a fresh store directory; then, for i < `edits`,
/// writes edit(stored text, i) over the entry, and a fresh service must
/// treat it as a miss and tune again.
template <typename Edit>
void expect_edited_entries_retune(const std::string& name, int edits,
                                  const Edit& edit) {
  const std::string dir = fresh_dir(name);
  TuneServiceOptions options;
  options.workers = 1;
  options.tuner.training_samples = 60;
  options.tuner.second_stage_size = 10;
  options.tuner.model.ensemble.k = 3;
  options.tuner.model.ensemble.hidden_layers = {
      ml::LayerSpec{12, ml::Activation::kSigmoid}};
  options.tuner.model.ensemble.trainer.common.max_epochs = 200;
  options.store.directory = dir;
  std::atomic<std::size_t> tunes{0};
  const EvaluatorFactory factory = [&tunes](const TuneKey& /*key*/) {
    ++tunes;
    return std::make_unique<BowlEvaluator>();
  };
  const TuneKey key{"bowl", "dev0", "small"};
  const auto path =
      std::filesystem::path(dir) / TunedConfigStore::entry_filename(key, 7);
  {
    TuneService service(options, factory);
    ASSERT_EQ(Session(service, "t").tune(key, 7).status, ResponseStatus::kOk);
  }
  for (int i = 0; i < edits; ++i) {
    std::stringstream text;
    text << std::ifstream(path).rdbuf();
    const std::string edited = edit(text.str(), i);
    ASSERT_NE(edited, text.str()) << i;
    std::ofstream(path) << edited;

    TuneService service(options, factory);
    EXPECT_FALSE(service.store().lookup(key, 7).has_value()) << i;
    const TuneResponse retuned = Session(service, "t").tune(key, 7);
    ASSERT_EQ(retuned.status, ResponseStatus::kOk);
    EXPECT_FALSE(retuned.from_cache) << i;
  }
  EXPECT_EQ(tunes.load(), static_cast<std::size_t>(edits) + 1);
  std::filesystem::remove_all(dir);
}

TEST(TunedConfigStore, EntryStreamRoundTripPreservesEverything) {
  const TunedConfigStore::Entry entry = make_entry();
  std::stringstream stream;
  TunedConfigStore::save_entry(entry, /*persist_model=*/true, stream);
  const TunedConfigStore::Entry loaded = TunedConfigStore::load_entry(stream);

  EXPECT_EQ(loaded.key, entry.key);  // device name contains spaces
  EXPECT_EQ(loaded.seed, entry.seed);
  EXPECT_EQ(loaded.best_config.values, entry.best_config.values);
  EXPECT_DOUBLE_EQ(loaded.best_time_ms, entry.best_time_ms);
  EXPECT_DOUBLE_EQ(loaded.data_gathering_cost_ms,
                   entry.data_gathering_cost_ms);
  ASSERT_NE(loaded.model, nullptr);
  // The reloaded model is the same function as the original.
  const tuner::Configuration probe{{8, 16, 2}};
  EXPECT_DOUBLE_EQ(loaded.model->predict_ms(probe),
                   entry.model->predict_ms(probe));
}

TEST(TunedConfigStore, FilenamesAreSanitizedAndCollisionResistant) {
  const TuneKey spaced{"conv/2d", "AMD Radeon HD 7970", "small"};
  const TuneKey folded{"conv_2d", "AMD_Radeon_HD_7970", "small"};
  const std::string a = TunedConfigStore::entry_filename(spaced, 1);
  const std::string b = TunedConfigStore::entry_filename(folded, 1);
  EXPECT_EQ(a.find(' '), std::string::npos);
  EXPECT_EQ(a.find('/'), std::string::npos);
  // Same sanitized stem, different exact keys: the hash suffix separates.
  EXPECT_NE(a, b);
  EXPECT_NE(TunedConfigStore::entry_filename(spaced, 1),
            TunedConfigStore::entry_filename(spaced, 2));
}

TEST(TunedConfigStore, MemoryOnlyStorePutLookup) {
  TunedConfigStore store(TunedConfigStore::Options{});  // no directory
  const TunedConfigStore::Entry entry = make_entry();
  EXPECT_FALSE(store.lookup(entry.key, entry.seed).has_value());
  store.put(entry);
  EXPECT_EQ(store.size(), 1u);
  const auto hit = store.lookup(entry.key, entry.seed);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->best_config.values, entry.best_config.values);
  EXPECT_FALSE(store.lookup(entry.key, entry.seed + 1).has_value());
  TuneKey other = entry.key;
  other.device = "Nvidia K40";
  EXPECT_FALSE(store.lookup(other, entry.seed).has_value());
}

TEST(TunedConfigStore, DiskRoundTripAcrossStoreInstances) {
  const std::string dir = fresh_dir("disk");
  const TunedConfigStore::Entry entry = make_entry();

  TunedConfigStore::Options options;
  options.directory = dir;
  {
    TunedConfigStore writer(options);
    writer.put(entry);
  }
  // A second store over the same directory starts warm.
  TunedConfigStore reader(options);
  EXPECT_EQ(reader.size(), 0u);
  const auto hit = reader.lookup(entry.key, entry.seed);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->best_config.values, entry.best_config.values);
  EXPECT_DOUBLE_EQ(hit->best_time_ms, entry.best_time_ms);
  ASSERT_NE(hit->model, nullptr);
  const tuner::Configuration probe{{8, 16, 2}};
  EXPECT_DOUBLE_EQ(hit->model->predict_ms(probe),
                   entry.model->predict_ms(probe));
  EXPECT_EQ(reader.size(), 1u);  // promoted into memory

  std::filesystem::remove_all(dir);
}

TEST(TunedConfigStore, PersistModelsOffStoresConfigOnly) {
  const std::string dir = fresh_dir("nomodel");
  TunedConfigStore::Options options;
  options.directory = dir;
  options.persist_models = false;
  {
    TunedConfigStore writer(options);
    writer.put(make_entry());
  }
  TunedConfigStore reader(options);
  const auto hit =
      reader.lookup(TuneKey{"bowl", "AMD Radeon HD 7970", "small"}, 17);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->model, nullptr);
  EXPECT_GT(hit->best_time_ms, 0.0);
  std::filesystem::remove_all(dir);
}

TEST(TunedConfigStore, VersionBumpInvalidatesMemoryAndDisk) {
  const std::string dir = fresh_dir("versions");
  TunedConfigStore::Options options;
  options.directory = dir;
  options.model_version = "model-a";
  options.catalog_version = "catalog-a";
  TunedConfigStore store(options);
  const TunedConfigStore::Entry entry = make_entry();
  store.put(entry);
  ASSERT_TRUE(store.lookup(entry.key, entry.seed).has_value());

  // Catalog bump: memory cleared, on-disk entry stale.
  store.set_versions("model-a", "catalog-b");
  EXPECT_EQ(store.size(), 0u);
  EXPECT_FALSE(store.lookup(entry.key, entry.seed).has_value());

  // Same-version re-put validates again; then a model bump invalidates.
  store.put(entry);
  ASSERT_TRUE(store.lookup(entry.key, entry.seed).has_value());
  store.set_versions("model-b", "catalog-b");
  EXPECT_FALSE(store.lookup(entry.key, entry.seed).has_value());

  // Rolling back to the versions the file was written under revalidates
  // it (invalidation deletes nothing): the last put stamped the entry
  // model-a/catalog-b.
  store.set_versions("model-a", "catalog-b");
  EXPECT_TRUE(store.lookup(entry.key, entry.seed).has_value());

  // A fresh store under the bumped versions misses the old entries too.
  TunedConfigStore::Options bumped = options;
  bumped.catalog_version = "catalog-c";
  TunedConfigStore fresh(bumped);
  EXPECT_FALSE(fresh.lookup(entry.key, entry.seed).has_value());

  std::filesystem::remove_all(dir);
}

TEST(TunedConfigStore, CorruptFileIsAMissNotACrash) {
  const std::string dir = fresh_dir("corrupt");
  TunedConfigStore::Options options;
  options.directory = dir;
  TunedConfigStore store(options);
  const TuneKey key{"bowl", "Nvidia K40", "small"};
  std::filesystem::create_directories(dir);
  {
    std::ofstream os(std::filesystem::path(dir) /
                     TunedConfigStore::entry_filename(key, 3));
    os << "not a tuned entry\n";
  }
  EXPECT_FALSE(store.lookup(key, 3).has_value());
  std::filesystem::remove_all(dir);
}

TEST(TunedConfigStore, BadTargetScaleIsAMissAndTheTuneRunsAgain) {
  // A model whose target scale is not > 0 would predict a constant (0) or
  // reversed (-1) order; restore rejects it, so the entry is a miss.
  expect_edited_entries_retune("bad_scale", 2, [](std::string text, int i) {
    const std::size_t line = text.find("\ntarget ");
    if (line == std::string::npos) return text;
    const std::size_t scale_at = text.find(' ', line + 8) + 1;
    text.replace(scale_at, text.find('\n', scale_at) - scale_at,
                 i == 0 ? "0" : "-1");
    return text;
  });
}

TEST(TunedConfigStore, ModelOfAnotherShapeIsAMissAndTheTuneRunsAgain) {
  // The stored model's members edited to a tanh hidden layer, or to two
  // hidden layers: load_model refuses both, so the entry is a miss.
  expect_edited_entries_retune(
      "bad_shape", 2, [](const std::string& text, int i) {
        if (i == 0) return replaced(text, "layer 12 sigmoid", "layer 12 tanh");
        std::string deep = replaced(text, "layers 2", "layers 3");
        deep = replaced(deep, "layer 1 linear",
                        "layer 1 sigmoid\nlayer 1 linear");
        return replaced(deep, "biases 1\n",
                        "biases 1\n0.5 \nweights 2\n0.25 \nbiases 2\n");
      });
}

// A length or count the file claims but does not hold fails as a malformed
// entry, with no allocation sized by the claim.
TEST(TunedConfigStore, HugeClaimedCountsFailAsMalformedEntries) {
  const std::string huge = "1099511627776";  // 2^40
  const std::string head = "portatune-tuned-entry-v1\nkey ";
  const std::string key = "4 bowl 4 dev0 5 small\nseed 7\nversions 2 v1 2 c1\n";
  for (const std::string& text :
       {head + huge + " bowl 4 dev0 5 small\n",
        head + key + "config " + huge + " 1 2 3\n"}) {
    std::stringstream ss(text);
    EXPECT_THROW((void)TunedConfigStore::load_entry(ss), std::runtime_error)
        << text;
  }
}

// An endless token where the magic or a keyword belongs fails after a
// bounded read, not after reading the whole token.
TEST(TunedConfigStore, EndlessTokensFailAfterABoundedRead) {
  for (const std::string& prefix :
       {std::string(), std::string("portatune-tuned-entry-v1\n")}) {
    hostile::EndlessTokenBuf buf(prefix);
    std::istream is(&buf);
    EXPECT_THROW((void)TunedConfigStore::load_entry(is), std::runtime_error)
        << prefix;
    EXPECT_LE(buf.consumed(), buf.prefix_size() + 64) << prefix;
  }
}

/// The file an entry is written to, and its write-then-rename .tmp file.
std::filesystem::path entry_file(const std::string& dir,
                                 const TunedConfigStore::Entry& entry) {
  return std::filesystem::path(dir) /
         TunedConfigStore::entry_filename(entry.key, entry.seed);
}
std::filesystem::path tmp_file(const std::filesystem::path& entry_path) {
  return entry_path.string() + ".tmp";
}

// A non-empty directory where the entry goes makes the rename fail: the
// .tmp file is removed, memory still answers, and a fresh store (which
// finds a directory it cannot parse) misses without throwing.
TEST(TunedConfigStore, FailedPublishLeavesNoTmpFileBehind) {
  const std::string dir = fresh_dir("publish_fails");
  TunedConfigStore::Options options;
  options.directory = dir;
  const TunedConfigStore::Entry entry = make_entry();
  const std::filesystem::path path = entry_file(dir, entry);
  std::filesystem::create_directories(path / "occupied");

  TunedConfigStore store(options);
  store.put(entry);
  EXPECT_FALSE(std::filesystem::exists(tmp_file(path)));
  const auto hit = store.lookup(entry.key, entry.seed);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->best_config.values, entry.best_config.values);

  TunedConfigStore fresh(options);
  std::optional<TunedConfigStore::Entry> miss;
  EXPECT_NO_THROW(miss = fresh.lookup(entry.key, entry.seed));
  EXPECT_FALSE(miss.has_value());
  std::filesystem::remove_all(dir);
}

/// Writes an entry to a fresh directory, lets `block` stop the next write
/// of its key through the .tmp path, and puts a newer entry: no .tmp file
/// is left, the writer's memory holds the newer entry, and a fresh store
/// still serves the one on disk.
template <typename Block>
void expect_failed_write_keeps_disk_entry(const std::string& name,
                                          const Block& block) {
  const std::string dir = fresh_dir(name);
  TunedConfigStore::Options options;
  options.directory = dir;
  options.persist_models = false;
  const TunedConfigStore::Entry entry = make_entry();
  TunedConfigStore(options).put(entry);
  const std::filesystem::path path = entry_file(dir, entry);
  ASSERT_TRUE(std::filesystem::is_regular_file(path));
  block(tmp_file(path));

  TunedConfigStore::Entry newer = entry;
  newer.best_time_ms = 2.0 * entry.best_time_ms;
  TunedConfigStore writer(options);
  writer.put(newer);
  const std::filesystem::path tmp = tmp_file(path);
  EXPECT_FALSE(std::filesystem::is_symlink(tmp) ||
               std::filesystem::is_regular_file(tmp))
      << "a .tmp file was left behind";
  const auto in_memory = writer.lookup(entry.key, entry.seed);
  ASSERT_TRUE(in_memory.has_value());
  EXPECT_EQ(in_memory->best_time_ms, newer.best_time_ms);

  // The earlier entry file is still in place (not replaced by what the
  // failed write left, such as a link to the full device).
  ASSERT_TRUE(std::filesystem::is_regular_file(
      std::filesystem::symlink_status(path)));
  const auto on_disk = TunedConfigStore(options).lookup(entry.key, entry.seed);
  ASSERT_TRUE(on_disk.has_value());
  EXPECT_EQ(on_disk->best_time_ms, entry.best_time_ms);
  std::filesystem::remove_all(dir);
}

// The .tmp path is a directory, so the entry file cannot be opened.
TEST(TunedConfigStore, UnopenableTmpFileKeepsTheEarlierDiskEntry) {
  expect_failed_write_keeps_disk_entry(
      "tmp_is_dir", [](const std::filesystem::path& tmp) {
        std::filesystem::create_directories(tmp);
      });
}

// The .tmp path leads to a device that fails every write with ENOSPC, as a
// full disk does: the short file is neither published nor left behind.
TEST(TunedConfigStore, ShortWriteKeepsTheEarlierDiskEntry) {
  const std::filesystem::path full = "/dev/full";
  if (!std::filesystem::exists(full))
    GTEST_SKIP() << "no /dev/full to simulate a full disk";
  expect_failed_write_keeps_disk_entry(
      "short_write", [&full](const std::filesystem::path& tmp) {
        std::filesystem::create_symlink(full, tmp);
      });
}

}  // namespace
}  // namespace pt::serve
