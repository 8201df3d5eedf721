#pragma once

// Hostile input for the loaders' token reads: a stream buffer that serves a
// prefix, then a long run of non-whitespace bytes (one endless token), and
// counts the bytes its reader took. A bounded token read stops a few
// characters into the run; an unbounded one reads all of it.

#include <cstddef>
#include <streambuf>
#include <string>
#include <utility>

namespace pt::hostile {

class EndlessTokenBuf final : public std::streambuf {
 public:
  static constexpr std::size_t kRun = std::size_t{1} << 20;  // 1 MiB

  explicit EndlessTokenBuf(std::string prefix = {})
      : prefix_(std::move(prefix)), size_(prefix_.size() + kRun) {}

  /// Bytes taken from the stream so far.
  [[nodiscard]] std::size_t consumed() const noexcept { return pos_; }
  [[nodiscard]] std::size_t prefix_size() const noexcept {
    return prefix_.size();
  }

 protected:
  int_type underflow() override {
    if (pos_ >= size_) return traits_type::eof();
    return traits_type::to_int_type(pos_ < prefix_.size() ? prefix_[pos_]
                                                          : 'x');
  }
  int_type uflow() override {
    const int_type c = underflow();
    if (!traits_type::eq_int_type(c, traits_type::eof())) ++pos_;
    return c;
  }

 private:
  std::string prefix_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace pt::hostile
