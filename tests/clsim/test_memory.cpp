#include "clsim/memory.hpp"

#include <gtest/gtest.h>

#include <cstdint>

namespace pt::clsim {
namespace {

TEST(Buffer, SizeAndTypedView) {
  Buffer b(16);
  EXPECT_EQ(b.size_bytes(), 16u);
  EXPECT_EQ(b.as<float>().size(), 4u);
  EXPECT_EQ(b.as<double>().size(), 2u);
}

TEST(Buffer, TypedViewRejectsMisalignedSize) {
  Buffer b(10);
  EXPECT_THROW((void)b.as<double>(), std::invalid_argument);
}

struct alignas(64) OverAligned {
  unsigned char bytes[64];
};

TEST(Buffer, TypedViewEnforcesAlignment) {
  // Buffer storage comes from operator new (default 16B alignment), so an
  // alignas(64) view is only legal when the allocation happens to land on a
  // 64B boundary. The guard must uphold exactly that invariant: either throw
  // or hand out a correctly aligned span — never an under-aligned one.
  for (int i = 0; i < 32; ++i) {
    Buffer b(sizeof(OverAligned));
    try {
      auto view = b.as<OverAligned>();
      EXPECT_EQ(
          reinterpret_cast<std::uintptr_t>(view.data()) % alignof(OverAligned),
          0u);
    } catch (const std::invalid_argument&) {
      // Rejected as under-aligned: the guard fired, which is the point.
    }
  }
}

TEST(Buffer, StorageKeyStableAcrossHandleCopies) {
  Buffer a(8);
  Buffer b = a;
  EXPECT_EQ(a.storage_key(), b.storage_key());
  const Buffer c(8);
  EXPECT_NE(a.storage_key(), c.storage_key());
}

TEST(Buffer, HandleSemanticsShareStorage) {
  Buffer a(4 * sizeof(float));
  Buffer b = a;  // copy of the handle, same storage
  a.as<float>()[0] = 42.0f;
  EXPECT_EQ(b.as<float>()[0], 42.0f);
}

TEST(Buffer, ZeroInitialized) {
  Buffer b(8 * sizeof(float));
  for (float v : b.as<const float>()) EXPECT_EQ(v, 0.0f);
}

TEST(Image2D, DimensionsAndChannels) {
  Image2D img(4, 3, 2);
  EXPECT_EQ(img.width(), 4u);
  EXPECT_EQ(img.height(), 3u);
  EXPECT_EQ(img.channels(), 2u);
  EXPECT_EQ(img.size_bytes(), 4u * 3u * 2u * sizeof(float));
  EXPECT_THROW(Image2D(0, 3), std::invalid_argument);
}

TEST(Image2D, AtReadsAndWrites) {
  Image2D img(3, 2);
  img.at(2, 1) = 7.0f;
  EXPECT_EQ(img.at(2, 1), 7.0f);
  EXPECT_THROW((void)img.at(3, 0), std::out_of_range);
  EXPECT_THROW((void)img.at(0, 2), std::out_of_range);
}

TEST(Image2D, SampleClampsToEdge) {
  Image2D img(2, 2);
  img.at(0, 0) = 1.0f;
  img.at(1, 0) = 2.0f;
  img.at(0, 1) = 3.0f;
  img.at(1, 1) = 4.0f;
  EXPECT_EQ(img.sample(-5, -5), 1.0f);
  EXPECT_EQ(img.sample(10, 0), 2.0f);
  EXPECT_EQ(img.sample(-1, 10), 3.0f);
  EXPECT_EQ(img.sample(10, 10), 4.0f);
  EXPECT_EQ(img.sample(0, 0), 1.0f);
}

TEST(Image2D, MultiChannelSample) {
  Image2D img(2, 1, 2);
  img.at(1, 0, 0) = 5.0f;
  img.at(1, 0, 1) = 6.0f;
  EXPECT_EQ(img.sample(1, 0, 0), 5.0f);
  EXPECT_EQ(img.sample(1, 0, 1), 6.0f);
}

TEST(Image3D, DimensionsAndAt) {
  Image3D vol(2, 3, 4);
  EXPECT_EQ(vol.width(), 2u);
  EXPECT_EQ(vol.height(), 3u);
  EXPECT_EQ(vol.depth(), 4u);
  vol.at(1, 2, 3) = 9.0f;
  EXPECT_EQ(vol.at(1, 2, 3), 9.0f);
  EXPECT_THROW((void)vol.at(2, 0, 0), std::out_of_range);
  EXPECT_THROW(Image3D(1, 0, 1), std::invalid_argument);
}

TEST(Image3D, SampleClampsAllAxes) {
  Image3D vol(2, 2, 2);
  vol.at(0, 0, 0) = 1.0f;
  vol.at(1, 1, 1) = 8.0f;
  EXPECT_EQ(vol.sample(-3, -3, -3), 1.0f);
  EXPECT_EQ(vol.sample(9, 9, 9), 8.0f);
}

TEST(Image2D, DataSpanSharedByHandleCopies) {
  Image2D img(2, 2);
  Image2D copy = img;
  copy.data()[0] = 11.0f;
  EXPECT_EQ(img.at(0, 0), 11.0f);
}

}  // namespace
}  // namespace pt::clsim
