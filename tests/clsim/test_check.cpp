// clcheck sanitizer tests: every defect class the checker exists to catch is
// seeded into a small kernel and must be flagged with precise diagnostics
// (kind, work-item, resource, byte offset); clean kernels must stay clean;
// and CheckMode::kOff must be bit-identical to an uninstrumented run.

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "clsim/clsim.hpp"
#include "test_helpers.hpp"

namespace pt::clsim {
namespace {

using testing::make_test_device;

/// Run `body` over the range under the sanitizer and return the findings.
check::CheckReport run_checked(const NDRange& global, const NDRange& local,
                               std::size_t local_mem_bytes,
                               const KernelBody& body) {
  check::CheckReport report;
  check::LaunchCheckState launch("seeded", &report);
  NDRangeExecutor exec;
  exec.run(global, local, local_mem_bytes, body, &launch);
  return report;
}

TEST(Check, OutOfBoundsReadFlaggedWithOffsets) {
  Buffer in(4 * sizeof(float));
  float sink = 0.0f;
  auto body = [&](WorkItemCtx& ctx) -> WorkItemTask {
    const auto view = ctx.view<const float>(in, "input");
    sink = view[10];  // past the 4-element view
    co_return;
  };
  const auto report = run_checked(NDRange(1), NDRange(1), 0, body);
  ASSERT_EQ(report.count(check::FindingKind::kOutOfBounds), 1u);
  ASSERT_EQ(report.findings().size(), 1u);
  const auto& f = report.findings().front();
  EXPECT_EQ(f.kernel, "seeded");
  EXPECT_EQ(f.resource, "input");
  EXPECT_EQ(f.byte_offset, 10 * sizeof(float));
  EXPECT_EQ(f.bytes, sizeof(float));
  EXPECT_FALSE(f.is_write);
  EXPECT_EQ(f.global_id[0], 0u);
  // The read was redirected to the zeroed sink, not to stray host memory.
  EXPECT_EQ(sink, 0.0f);
}

TEST(Check, OutOfBoundsWriteFlaggedAndContained) {
  Buffer out(4 * sizeof(float));
  auto body = [&out](WorkItemCtx& ctx) -> WorkItemTask {
    auto view = ctx.view<float>(out, "output");
    view[99] = 7.0f;  // contained by the sink
    view[1] = 2.0f;   // in bounds, must land
    co_return;
  };
  const auto report = run_checked(NDRange(1), NDRange(1), 0, body);
  ASSERT_EQ(report.count(check::FindingKind::kOutOfBounds), 1u);
  const auto& f = report.findings().front();
  EXPECT_TRUE(f.is_write);
  EXPECT_EQ(f.byte_offset, 99 * sizeof(float));
  const auto view = out.as<const float>();
  EXPECT_EQ(view[1], 2.0f);
  for (const std::size_t i : {0u, 2u, 3u}) EXPECT_EQ(view[i], 0.0f);
}

TEST(Check, UninitializedLocalReadFlagged) {
  float sink = 0.0f;
  auto body = [&sink](WorkItemCtx& ctx) -> WorkItemTask {
    auto scratch = ctx.local_view<float>(4, "scratch");
    sink = scratch[2];  // nobody wrote the arena
    co_return;
  };
  const auto report =
      run_checked(NDRange(1), NDRange(1), 4 * sizeof(float), body);
  ASSERT_EQ(report.count(check::FindingKind::kUninitializedRead), 1u);
  EXPECT_EQ(report.findings().front().resource, "scratch");
}

TEST(Check, UnsynchronizedLocalWriteRaceFlagged) {
  // Every item writes scratch[0] in the same barrier epoch.
  auto body = [](WorkItemCtx& ctx) -> WorkItemTask {
    auto scratch = ctx.local_view<float>(1, "scratch");
    scratch[0] = static_cast<float>(ctx.local_id(0));
    co_return;
  };
  const auto report = run_checked(NDRange(4), NDRange(4), sizeof(float), body);
  EXPECT_GE(report.count(check::FindingKind::kLocalRace), 1u);
  const auto& f = report.findings().front();
  EXPECT_EQ(f.kind, check::FindingKind::kLocalRace);
  EXPECT_NE(f.message.find("not separated by a barrier"), std::string::npos);
}

TEST(Check, BarrierSeparatedLocalAccessesAreClean) {
  // Write-barrier-read across items: the canonical clean pattern.
  Buffer out(4 * sizeof(float));
  auto body = [&out](WorkItemCtx& ctx) -> WorkItemTask {
    auto scratch = ctx.local_view<float>(4, "scratch");
    const std::size_t lid = ctx.local_id(0);
    scratch[lid] = static_cast<float>(lid);
    co_await ctx.barrier();
    auto view = ctx.view<float>(out, "out");
    view[lid] = scratch[(lid + 1) % 4];
    co_return;
  };
  const auto report =
      run_checked(NDRange(4), NDRange(4), 4 * sizeof(float), body);
  EXPECT_TRUE(report.clean()) << report.summary();
  const auto view = out.as<const float>();
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_EQ(view[i], static_cast<float>((i + 1) % 4));
}

TEST(Check, CrossGroupGlobalWriteRaceFlagged) {
  // Four single-item groups all write out[0]: racy across groups.
  Buffer out(sizeof(float));
  auto body = [&out](WorkItemCtx& ctx) -> WorkItemTask {
    auto view = ctx.view<float>(out, "out");
    view[0] = static_cast<float>(ctx.group_id(0));
    co_return;
  };
  const auto report = run_checked(NDRange(4), NDRange(1), 0, body);
  EXPECT_GE(report.count(check::FindingKind::kGlobalRace), 1u);
}

TEST(Check, DisjointGlobalWritesAreClean) {
  Buffer out(8 * sizeof(float));
  auto body = [&out](WorkItemCtx& ctx) -> WorkItemTask {
    auto view = ctx.view<float>(out, "out");
    view[ctx.global_id(0)] = 1.0f;
    co_return;
  };
  const auto report = run_checked(NDRange(8), NDRange(2), 0, body);
  EXPECT_TRUE(report.clean()) << report.summary();
}

TEST(Check, DivergentBarrierReportedWithStuckSet) {
  // Item 0 waits at a barrier the others never reach. Unchecked this throws
  // kInvalidOperation; checked it becomes a finding naming the stuck item.
  auto body = [](WorkItemCtx& ctx) -> WorkItemTask {
    if (ctx.local_id(0) == 0) co_await ctx.barrier();
    co_return;
  };
  const auto report = run_checked(NDRange(4), NDRange(4), 0, body);
  ASSERT_EQ(report.count(check::FindingKind::kBarrierDivergence), 1u);
  const auto& f = report.findings().front();
  EXPECT_NE(f.message.find("1 of 4"), std::string::npos) << f.message;
  EXPECT_NE(f.message.find("stuck"), std::string::npos) << f.message;

  NDRangeExecutor exec;
  EXPECT_THROW(exec.run(NDRange(4), NDRange(4), 0, body), ClException);
}

TEST(Check, DivergentLocalAllocSequenceFlagged) {
  // Items allocate different sizes at the same allocation index, so their
  // "distinct" spans silently alias in the shared arena.
  auto body = [](WorkItemCtx& ctx) -> WorkItemTask {
    if (ctx.local_id(0) == 0) {
      auto a = ctx.local_view<float>(2, "a");
      a[0] = 1.0f;
    } else {
      auto b = ctx.local_view<float>(6, "b");
      b[5] = 2.0f;
    }
    co_return;
  };
  const auto report =
      run_checked(NDRange(2), NDRange(2), 6 * sizeof(float), body);
  EXPECT_GE(report.count(check::FindingKind::kDivergentLocalAlloc), 1u);
}

TEST(Check, DivergentLocalAllocCountFlagged) {
  // Item 0 allocates twice, the rest once: caught by the end-of-group count
  // comparison even though each individual record matches the canonical one.
  auto body = [](WorkItemCtx& ctx) -> WorkItemTask {
    auto a = ctx.local_view<float>(2, "a");
    a[ctx.local_id(0)] = 1.0f;
    if (ctx.local_id(0) == 0) {
      auto b = ctx.local_view<float>(2, "b");
      b[0] = 2.0f;
    }
    co_return;
  };
  const auto report =
      run_checked(NDRange(2), NDRange(2), 4 * sizeof(float), body);
  ASSERT_GE(report.count(check::FindingKind::kDivergentLocalAlloc), 1u);
}

TEST(Check, ReadModifyWriteAccumulatesCorrectly) {
  Buffer out(2 * sizeof(float));
  auto body = [&out](WorkItemCtx& ctx) -> WorkItemTask {
    auto view = ctx.view<float>(out, "out");
    for (int i = 0; i < 3; ++i) view[ctx.global_id(0)] += 1.0f;
    co_return;
  };
  const auto report = run_checked(NDRange(2), NDRange(1), 0, body);
  EXPECT_TRUE(report.clean()) << report.summary();
  for (float v : out.as<const float>()) EXPECT_EQ(v, 3.0f);
}

TEST(Check, ReportCapsStoredFindingsButKeepsCounting) {
  Buffer in(sizeof(float));
  float acc = 0.0f;
  auto body = [&](WorkItemCtx& ctx) -> WorkItemTask {
    const auto view = ctx.view<const float>(in, "input");
    for (std::size_t i = 0; i < 100; ++i) acc += view[ctx.global_id(0) + 5 + i];
    co_return;
  };
  const auto report = run_checked(NDRange(1), NDRange(1), 0, body);
  EXPECT_EQ(report.count(check::FindingKind::kOutOfBounds), 100u);
  EXPECT_EQ(report.findings().size(), check::CheckReport::kMaxStoredFindings);
  EXPECT_NE(report.summary().find("more suppressed"), std::string::npos);
}

Kernel tile_sum_kernel(const Device& dev, Buffer in, Buffer out) {
  // A representative local-memory kernel: stage, barrier, reduce.
  CompiledKernel ck;
  ck.name = "tile_sum";
  ck.profile.local_mem_bytes_per_group = 4 * sizeof(float);
  ck.body = [in, out](WorkItemCtx& ctx) -> WorkItemTask {
    auto src = ctx.view<const float>(in, "in");
    auto dst = ctx.view<float>(out, "out");
    auto tile = ctx.local_view<float>(4, "tile");
    const std::size_t lid = ctx.local_id(0);
    tile[lid] = src[ctx.global_id(0)];
    co_await ctx.barrier();
    float sum = 0.0f;
    for (std::size_t i = 0; i < 4; ++i) sum += tile[i];
    dst[ctx.global_id(0)] = sum + src[ctx.global_id(0)];
    co_return;
  };
  return Kernel(dev, std::move(ck));
}

TEST(Check, QueueCheckModeOffIsBitIdentical) {
  const Device dev = make_test_device();
  Buffer in(8 * sizeof(float));
  {
    auto view = in.as<float>();
    for (std::size_t i = 0; i < view.size(); ++i)
      view[i] = 0.37f * static_cast<float>(i + 1);
  }

  Buffer out_plain(8 * sizeof(float));
  Buffer out_checked(8 * sizeof(float));

  CommandQueue plain(dev);  // default: CheckMode::kOff
  plain.enqueue_nd_range(tile_sum_kernel(dev, in, out_plain), NDRange(8),
                         NDRange(4));
  EXPECT_TRUE(plain.check_report().clean());

  CommandQueue checked(dev, {ExecMode::kFunctional, nullptr, CheckMode::kOn});
  checked.enqueue_nd_range(tile_sum_kernel(dev, in, out_checked), NDRange(8),
                           NDRange(4));
  EXPECT_TRUE(checked.check_report().clean())
      << checked.check_report().summary();

  // Byte-for-byte identical outputs with the sanitizer on and off.
  const auto plain_bytes = out_plain.as<const unsigned char>();
  const auto checked_bytes = out_checked.as<const unsigned char>();
  const std::vector<unsigned char> a(plain_bytes.begin(), plain_bytes.end());
  const std::vector<unsigned char> b(checked_bytes.begin(),
                                     checked_bytes.end());
  EXPECT_EQ(a, b);
}

TEST(Check, QueueAccumulatesReport) {
  const Device dev = make_test_device();
  Buffer out(2 * sizeof(float));
  CompiledKernel ck;
  ck.name = "oob";
  ck.body = [out](WorkItemCtx& ctx) -> WorkItemTask {
    auto view = ctx.view<float>(out, "out");
    view[ctx.global_id(0) + 2] = 1.0f;  // one OOB write per item
    co_return;
  };
  CommandQueue queue(dev, {ExecMode::kFunctional, nullptr, CheckMode::kOn});
  const Kernel kernel(dev, std::move(ck));
  queue.enqueue_nd_range(kernel, NDRange(2), NDRange(1));
  EXPECT_EQ(queue.check_report().count(check::FindingKind::kOutOfBounds), 2u);
  queue.enqueue_nd_range(kernel, NDRange(2), NDRange(1));
  EXPECT_EQ(queue.check_report().count(check::FindingKind::kOutOfBounds), 4u);
}

TEST(Check, SharedBufferViewsShareOneShadow) {
  // Two handles to one storage: a write through one view and a same-epoch
  // write through the other must be recognized as the same resource.
  Buffer a(sizeof(float));
  Buffer b = a;  // handle copy, same storage
  auto body = [a, b](WorkItemCtx& ctx) -> WorkItemTask {
    if (ctx.global_id(0) == 0) {
      auto view = ctx.view<float>(a, "a");
      view[0] = 1.0f;
    } else {
      auto view = ctx.view<float>(b, "b");
      view[0] = 2.0f;
    }
    co_return;
  };
  const auto report = run_checked(NDRange(2), NDRange(1), 0, body);
  EXPECT_GE(report.count(check::FindingKind::kGlobalRace), 1u);
}

}  // namespace
}  // namespace pt::clsim
