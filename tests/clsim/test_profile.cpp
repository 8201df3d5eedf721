#include "clsim/kernel_profile.hpp"

#include <gtest/gtest.h>

namespace pt::clsim {
namespace {

TEST(Profile, UsesSpace) {
  KernelProfile p;
  MemoryStream s;
  s.space = MemorySpace::kConstant;
  p.streams.push_back(s);
  EXPECT_TRUE(p.uses_space(MemorySpace::kConstant));
  EXPECT_FALSE(p.uses_space(MemorySpace::kLocal));
}

TEST(Fnv1a, KnownVectorAndSensitivity) {
  // FNV-1a of the empty string is the offset basis.
  EXPECT_EQ(fnv1a("", 0), 0xcbf29ce484222325ULL);
  EXPECT_NE(fnv1a("a", 1), fnv1a("b", 1));
  const char data[] = "hello";
  EXPECT_EQ(fnv1a(data, 5), fnv1a("hello", 5));
}

TEST(Fingerprint, DistinguishesConfigurations) {
  const auto a = fingerprint_values({1, 2, 3});
  const auto b = fingerprint_values({1, 2, 4});
  const auto c = fingerprint_values({3, 2, 1});
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a, fingerprint_values({1, 2, 3}));  // deterministic
}

TEST(Fingerprint, SeedSeparatesKernels) {
  const auto conv = fingerprint_values({1, 2}, fnv1a("convolution", 11));
  const auto stereo = fingerprint_values({1, 2}, fnv1a("stereo", 6));
  EXPECT_NE(conv, stereo);
}

TEST(AccessPattern, Names) {
  EXPECT_STREQ(to_string(AccessPattern::kCoalesced), "coalesced");
  EXPECT_STREQ(to_string(AccessPattern::kStrided), "strided");
  EXPECT_STREQ(to_string(AccessPattern::kBroadcast), "broadcast");
  EXPECT_STREQ(to_string(AccessPattern::kTiled2D), "tiled2d");
  EXPECT_STREQ(to_string(AccessPattern::kRandom), "random");
}

}  // namespace
}  // namespace pt::clsim
