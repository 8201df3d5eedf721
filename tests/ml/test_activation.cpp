#include "ml/activation.hpp"

#include <gtest/gtest.h>

namespace pt::ml {
namespace {

TEST(Activation, StringRoundTrip) {
  for (Activation act : {Activation::kLinear, Activation::kSigmoid})
    EXPECT_EQ(activation_from_string(to_string(act)), act);
  for (const char* name : {"bogus", "tanh", "relu"})
    EXPECT_THROW((void)activation_from_string(name), std::invalid_argument)
        << name;
}

}  // namespace
}  // namespace pt::ml
