#include "ml/dataset.hpp"

#include <numeric>
#include <stdexcept>

namespace pt::ml {

Dataset Dataset::subset(std::span<const std::size_t> indices) const {
  return Dataset{x.gather_rows(indices), y.gather_rows(indices)};
}

void Dataset::validate() const {
  if (x.rows() != y.rows())
    throw std::invalid_argument("Dataset: x/y row count mismatch");
}

Split train_validation_split(const Dataset& data, double train_fraction,
                             common::Rng& rng) {
  if (train_fraction <= 0.0 || train_fraction > 1.0)
    throw std::invalid_argument("train_validation_split: bad fraction");
  data.validate();
  std::vector<std::size_t> perm(data.size());
  std::iota(perm.begin(), perm.end(), std::size_t{0});
  rng.shuffle(perm);
  const auto n_train = static_cast<std::size_t>(
      static_cast<double>(data.size()) * train_fraction + 0.5);
  const std::span<const std::size_t> all(perm);
  Split s;
  s.train = data.subset(all.subspan(0, n_train));
  s.validation = data.subset(all.subspan(n_train));
  return s;
}

std::vector<std::vector<std::size_t>> kfold_indices(std::size_t n,
                                                    std::size_t k,
                                                    common::Rng& rng) {
  if (k == 0 || k > n)
    throw std::invalid_argument("kfold_indices: need 1 <= k <= n");
  std::vector<std::size_t> perm(n);
  std::iota(perm.begin(), perm.end(), std::size_t{0});
  rng.shuffle(perm);
  std::vector<std::vector<std::size_t>> folds(k);
  const std::size_t base = n / k;
  const std::size_t extra = n % k;
  std::size_t pos = 0;
  for (std::size_t f = 0; f < k; ++f) {
    const std::size_t len = base + (f < extra ? 1 : 0);
    folds[f].assign(perm.begin() + static_cast<std::ptrdiff_t>(pos),
                    perm.begin() + static_cast<std::ptrdiff_t>(pos + len));
    pos += len;
  }
  return folds;
}

}  // namespace pt::ml
