#include "serve/store.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "common/log.hpp"
#include "common/telemetry/telemetry.hpp"
#include "tuner/persist.hpp"

namespace pt::serve {

namespace tel = common::telemetry;

namespace {

constexpr const char* kMagic = "portatune-tuned-entry-v1";

void expect_token(std::istream& is, const std::string& expected) {
  std::string token;
  if (!(is >> token) || token != expected)
    throw std::runtime_error("tuned entry load: expected '" + expected +
                             "', got '" + token + "'");
}

/// Length-prefixed string: "<len> <bytes>". Key fields (device names like
/// "AMD Radeon HD 7970") contain spaces, so token reads won't do.
void write_string(std::ostream& os, const std::string& s) {
  os << s.size() << ' ' << s;
}

std::string read_string(std::istream& is) {
  std::size_t len = 0;
  if (!(is >> len)) throw std::runtime_error("tuned entry load: bad length");
  if (is.get() != ' ')
    throw std::runtime_error("tuned entry load: missing separator");
  // Read in bounded pieces: a corrupt length costs no more memory than the
  // bytes that are really there.
  constexpr std::size_t kPiece = 4096;
  std::string s;
  char piece[kPiece];
  while (s.size() < len) {
    const std::size_t n = std::min(kPiece, len - s.size());
    if (!is.read(piece, static_cast<std::streamsize>(n)))
      throw std::runtime_error("tuned entry load: truncated string");
    s.append(piece, n);
  }
  return s;
}

double read_double(std::istream& is) {
  double v = 0.0;
  if (!(is >> v)) throw std::runtime_error("tuned entry load: bad double");
  return v;
}

std::uint64_t read_u64(std::istream& is) {
  std::uint64_t v = 0;
  if (!(is >> v)) throw std::runtime_error("tuned entry load: bad integer");
  return v;
}

/// Keep [A-Za-z0-9._-], fold everything else (spaces, slashes) to '_'.
std::string sanitize(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    const bool keep = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '.' || c == '-' ||
                      c == '_';
    out.push_back(keep ? c : '_');
  }
  return out;
}

}  // namespace

TunedConfigStore::TunedConfigStore(Options options)
    : options_(std::move(options)) {}

std::string TunedConfigStore::entry_filename(const TuneKey& key,
                                             std::uint64_t seed) {
  // Exact-key hash suffix: sanitization may collapse distinct keys
  // ("a/b" and "a_b") onto one stem.
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](const std::string& s) {
    for (const char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ULL;
    }
    h ^= 0xffU;
    h *= 1099511628211ULL;
  };
  mix(key.kernel);
  mix(key.device);
  mix(key.input);
  h ^= seed;
  h *= 1099511628211ULL;

  std::ostringstream name;
  name << sanitize(key.kernel) << '-' << sanitize(key.device) << '-'
       << sanitize(key.input) << '-' << seed << '-' << std::hex << h
       << ".tune";
  return name.str();
}

void TunedConfigStore::save_entry(const Entry& entry, bool persist_model,
                                  std::ostream& os) {
  const auto old_precision = os.precision();
  os.precision(std::numeric_limits<double>::max_digits10);

  os << kMagic << '\n';
  os << "key ";
  write_string(os, entry.key.kernel);
  os << ' ';
  write_string(os, entry.key.device);
  os << ' ';
  write_string(os, entry.key.input);
  os << '\n';
  os << "seed " << entry.seed << '\n';
  os << "versions ";
  write_string(os, entry.model_version);
  os << ' ';
  write_string(os, entry.catalog_version);
  os << '\n';
  os << "config " << entry.best_config.values.size();
  for (const int v : entry.best_config.values) os << ' ' << v;
  os << '\n';
  os << "best_time_ms " << entry.best_time_ms << '\n';
  os << "data_gathering_cost_ms " << entry.data_gathering_cost_ms << '\n';
  const bool with_model =
      persist_model && entry.model != nullptr && entry.model->fitted();
  os << "model " << (with_model ? 1 : 0) << '\n';
  if (with_model) tuner::save_model(*entry.model, os);

  os.precision(old_precision);
}

TunedConfigStore::Entry TunedConfigStore::load_entry(std::istream& is) {
  std::string magic;
  if (!(is >> magic) || magic != kMagic)
    throw std::runtime_error("tuned entry load: bad magic '" + magic + "'");

  Entry entry;
  expect_token(is, "key");
  if (is.get() != ' ')
    throw std::runtime_error("tuned entry load: missing separator");
  entry.key.kernel = read_string(is);
  if (is.get() != ' ')
    throw std::runtime_error("tuned entry load: missing separator");
  entry.key.device = read_string(is);
  if (is.get() != ' ')
    throw std::runtime_error("tuned entry load: missing separator");
  entry.key.input = read_string(is);

  expect_token(is, "seed");
  entry.seed = read_u64(is);

  expect_token(is, "versions");
  if (is.get() != ' ')
    throw std::runtime_error("tuned entry load: missing separator");
  entry.model_version = read_string(is);
  if (is.get() != ' ')
    throw std::runtime_error("tuned entry load: missing separator");
  entry.catalog_version = read_string(is);

  expect_token(is, "config");
  const std::uint64_t n = read_u64(is);
  for (std::uint64_t i = 0; i < n; ++i) {
    int v = 0;
    if (!(is >> v)) throw std::runtime_error("tuned entry load: bad value");
    entry.best_config.values.push_back(v);
  }

  expect_token(is, "best_time_ms");
  entry.best_time_ms = read_double(is);
  expect_token(is, "data_gathering_cost_ms");
  entry.data_gathering_cost_ms = read_double(is);

  expect_token(is, "model");
  const std::uint64_t with_model = read_u64(is);
  if (with_model != 0)
    entry.model = std::make_shared<tuner::AnnPerformanceModel>(
        tuner::load_model(is));
  return entry;
}

std::string TunedConfigStore::entry_path(const TuneKey& key,
                                         std::uint64_t seed) const {
  return (std::filesystem::path(options_.directory) /
          entry_filename(key, seed))
      .string();
}

std::optional<TunedConfigStore::Entry> TunedConfigStore::load_from_disk(
    const TuneKey& key, std::uint64_t seed) const {
  const std::string path = entry_path(key, seed);
  std::ifstream is(path);
  if (!is) return std::nullopt;
  try {
    Entry entry = load_entry(is);
    if (entry.key != key || entry.seed != seed) {
      common::log_warn("tuned store: ", path, " holds a different key (",
                       entry.key.to_string(), "); ignoring");
      return std::nullopt;
    }
    if (entry.model_version != options_.model_version ||
        entry.catalog_version != options_.catalog_version) {
      if (tel::enabled()) tel::count("serve.store.stale");
      return std::nullopt;  // stale generation — treat as a miss
    }
    return entry;
  } catch (const std::exception& e) {
    common::log_warn("tuned store: failed to load ", path, ": ", e.what());
    return std::nullopt;
  }
}

void TunedConfigStore::write_to_disk(const Entry& entry) const {
  std::error_code ec;
  std::filesystem::create_directories(options_.directory, ec);
  if (ec) {
    common::log_warn("tuned store: cannot create ", options_.directory, ": ",
                     ec.message());
    return;
  }
  const std::string path = entry_path(entry.key, entry.seed);
  // Write-then-rename so a concurrent reader never sees a half entry. Only
  // a file whose every byte reached the disk is published: a short write
  // (a full disk) must not replace a good entry. The .tmp file goes when
  // either step fails.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp);
    if (!os) {
      common::log_warn("tuned store: cannot write ", tmp);
      return;
    }
    save_entry(entry, options_.persist_models, os);
    os.close();
    if (!os) {
      common::log_warn("tuned store: short write to ", tmp);
      std::filesystem::remove(tmp, ec);
      return;
    }
  }
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    common::log_warn("tuned store: cannot publish ", path, ": ",
                     ec.message());
    std::filesystem::remove(tmp, ec);
  }
}

std::optional<TunedConfigStore::Entry> TunedConfigStore::lookup(
    const TuneKey& key, std::uint64_t seed) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = memory_.find(MemoryKey{key, seed});
  if (it != memory_.end()) return it->second;
  if (options_.directory.empty()) return std::nullopt;
  auto loaded = load_from_disk(key, seed);
  if (loaded) memory_.emplace(MemoryKey{key, seed}, *loaded);
  return loaded;
}

void TunedConfigStore::put(Entry entry) {
  const std::lock_guard<std::mutex> lock(mutex_);
  entry.model_version = options_.model_version;
  entry.catalog_version = options_.catalog_version;
  if (!options_.directory.empty()) write_to_disk(entry);
  memory_.insert_or_assign(MemoryKey{entry.key, entry.seed},
                           std::move(entry));
}

void TunedConfigStore::set_versions(std::string model_version,
                                    std::string catalog_version) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (options_.model_version == model_version &&
      options_.catalog_version == catalog_version)
    return;
  options_.model_version = std::move(model_version);
  options_.catalog_version = std::move(catalog_version);
  memory_.clear();
  if (tel::enabled()) tel::count("serve.store.invalidations");
  common::log_info("tuned store: invalidated (model=", options_.model_version,
                   ", catalog=", options_.catalog_version, ")");
}

std::size_t TunedConfigStore::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return memory_.size();
}

}  // namespace pt::serve
