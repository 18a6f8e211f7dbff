#include "gpusim/kernel.h"

#include <gtest/gtest.h>

#include <thread>
#include <utility>
#include <vector>

#include "common/check.h"

namespace fsbb::gpusim {
namespace {

TEST(Kernel, EveryThreadRunsExactlyOnce) {
  SimDevice dev(DeviceSpec::tesla_c2050());
  auto out = dev.alloc<std::int32_t>(1024, MemSpace::kGlobal);
  const auto view = out.mut_view();
  const LaunchConfig config{4, 256};
  const KernelRun run = dev.launch(config, [&](ThreadCtx& ctx) {
    ctx.st(view, static_cast<std::size_t>(ctx.global_idx()),
           static_cast<std::int32_t>(ctx.global_idx()));
  });
  EXPECT_EQ(run.threads_executed, 1024);
  EXPECT_EQ(run.threads_logical, 1024);
  EXPECT_EQ(run.blocks_executed, 4);
  EXPECT_DOUBLE_EQ(run.sample_fraction(), 1.0);
  for (int i = 0; i < 1024; ++i) {
    EXPECT_EQ(out.host_span()[static_cast<std::size_t>(i)], i);
  }
}

TEST(Kernel, CountersAreExact) {
  SimDevice dev(DeviceSpec::tesla_c2050());
  auto in = dev.alloc<std::int32_t>(256, MemSpace::kShared);
  auto out = dev.alloc<std::int32_t>(256, MemSpace::kGlobal);
  const auto in_view = in.view();
  const auto out_view = out.mut_view();
  const LaunchConfig config{2, 128};
  const KernelRun run = dev.launch(config, [&](ThreadCtx& ctx) {
    const auto i = static_cast<std::size_t>(ctx.global_idx());
    const std::int32_t v = ctx.ld(in_view, i);   // 1 shared load
    ctx.st(out_view, i, v + 1);                  // 1 global store
    ctx.add_ops(3);
  });
  EXPECT_EQ(run.counters.of(MemSpace::kShared).loads, 256u);
  EXPECT_EQ(run.counters.of(MemSpace::kGlobal).stores, 256u);
  EXPECT_EQ(run.counters.of(MemSpace::kGlobal).loads, 0u);
  EXPECT_EQ(run.counters.arithmetic_ops, 256u * 3u);
  EXPECT_DOUBLE_EQ(run.per_thread(MemSpace::kShared), 1.0);
  EXPECT_DOUBLE_EQ(run.per_thread_ops(), 3.0);
}

TEST(Kernel, ThreadGeometryIsCorrect) {
  SimDevice dev(DeviceSpec::tesla_c2050());
  std::vector<std::atomic<int>> block_hits(8);
  const LaunchConfig config{8, 64};
  dev.launch(config, [&](ThreadCtx& ctx) {
    EXPECT_GE(ctx.thread_idx(), 0);
    EXPECT_LT(ctx.thread_idx(), 64);
    EXPECT_EQ(ctx.block_dim(), 64);
    EXPECT_EQ(ctx.global_idx(),
              static_cast<std::int64_t>(ctx.block_idx()) * 64 + ctx.thread_idx());
    block_hits[static_cast<std::size_t>(ctx.block_idx())].fetch_add(1);
  });
  for (const auto& h : block_hits) EXPECT_EQ(h.load(), 64);
}

TEST(Kernel, ProloguePerBlock) {
  SimDevice dev(DeviceSpec::tesla_c2050());
  const LaunchConfig config{6, 32};
  const KernelRun run = dev.launch(
      config, [](ThreadCtx&) {},
      [](int /*block*/, AccessCounters& counters) {
        counters.add_load(MemSpace::kGlobal, 100);
        counters.add_store(MemSpace::kShared, 100);
      });
  EXPECT_EQ(run.counters.of(MemSpace::kGlobal).loads, 600u);
  EXPECT_EQ(run.counters.of(MemSpace::kShared).stores, 600u);
}

TEST(Kernel, SampledLaunchRunsAPrefixOfBlocks) {
  SimDevice dev(DeviceSpec::tesla_c2050());
  auto out = dev.alloc<std::int32_t>(10 * 256, MemSpace::kGlobal);
  const auto view = out.mut_view();
  const LaunchConfig config{10, 256};
  const KernelRun run = dev.launch_sampled(config, /*max_threads=*/512,
                                           [&](ThreadCtx& ctx) {
    ctx.st(view, static_cast<std::size_t>(ctx.global_idx()), 1);
  });
  EXPECT_EQ(run.blocks_executed, 2);
  EXPECT_EQ(run.threads_executed, 512);
  EXPECT_EQ(run.threads_logical, 2560);
  EXPECT_NEAR(run.sample_fraction(), 0.2, 1e-12);
  // Non-sampled region untouched.
  EXPECT_EQ(out.host_span()[511], 1);
  EXPECT_EQ(out.host_span()[512], 0);
}

TEST(Kernel, SampledLaunchAlwaysRunsAtLeastOneBlock) {
  SimDevice dev(DeviceSpec::tesla_c2050());
  const LaunchConfig config{4, 256};
  const KernelRun run =
      dev.launch_sampled(config, /*max_threads=*/10, [](ThreadCtx&) {});
  EXPECT_EQ(run.blocks_executed, 1);
}

/// Every KernelRun field that a launch's scheduling could disturb.
std::vector<std::uint64_t> run_fields(const KernelRun& run) {
  std::vector<std::uint64_t> f;
  for (const SpaceCounters& s : run.counters.space) {
    f.push_back(s.loads);
    f.push_back(s.stores);
  }
  f.push_back(run.counters.arithmetic_ops);
  f.push_back(run.work_units_sum);
  f.push_back(run.work_units_warp_max);
  f.push_back(static_cast<std::uint64_t>(run.threads_executed));
  f.push_back(static_cast<std::uint64_t>(run.blocks_executed));
  return f;
}

TEST(Kernel, DeterministicAcrossPoolSizes) {
  // Eight blocks, and one 1024-thread block whose 32 warps run
  // concurrently: lane work varies within every warp, so the divergence
  // maximum is only exact if each warp's lanes stay together.
  for (const LaunchConfig config :
       {LaunchConfig{8, 256}, LaunchConfig{1, 1024}}) {
    auto run_with = [&](std::size_t host_threads) {
      ThreadPool pool(host_threads);
      SimDevice dev(DeviceSpec::tesla_c2050(), &pool);
      auto out = dev.alloc<std::int64_t>(
          static_cast<std::size_t>(config.total_threads()), MemSpace::kGlobal);
      const auto view = out.mut_view();
      const KernelRun run = dev.launch(
          config,
          [&](ThreadCtx& ctx) {
            const auto i = static_cast<std::size_t>(ctx.global_idx());
            ctx.add_ops(i * 7 % 61);
            ctx.add_loads(MemSpace::kShared, i % 5);
            ctx.st(view, i, static_cast<std::int64_t>(i * i % 977));
          },
          [](int block, AccessCounters& counters) {
            counters.add_load(MemSpace::kGlobal,
                              static_cast<std::uint64_t>(block) + 3);
          });
      return std::make_pair(std::vector<std::int64_t>(out.host_span().begin(),
                                                      out.host_span().end()),
                            run_fields(run));
    };
    const auto one = run_with(1);
    const auto seven = run_with(7);
    EXPECT_EQ(one.first, seven.first) << config.grid_blocks;
    EXPECT_EQ(one.second, seven.second) << config.grid_blocks;
  }
}

TEST(Kernel, LaunchInOrderVisitsLanesInGlobalOrder) {
  ThreadPool pool(3);
  SimDevice dev(DeviceSpec::tesla_c2050(), &pool);
  const LaunchConfig config{3, 96};
  const auto caller = std::this_thread::get_id();
  // Plain captures, no synchronization: launch_in_order runs every lane
  // and prologue on the calling thread. -1 - b marks block b's prologue.
  std::vector<std::int64_t> visits;
  bool off_thread = false;
  auto body = [&](ThreadCtx& ctx) {
    off_thread |= std::this_thread::get_id() != caller;
    visits.push_back(ctx.global_idx());
    ctx.add_ops(static_cast<std::uint64_t>(ctx.thread_idx() % 7));
  };
  auto prologue = [&](int block, AccessCounters& counters) {
    off_thread |= std::this_thread::get_id() != caller;
    visits.push_back(-1 - block);
    counters.add_load(MemSpace::kGlobal, 10);
  };
  const KernelRun in_order = dev.launch_in_order(config, body, prologue);
  EXPECT_FALSE(off_thread);

  std::vector<std::int64_t> expected;
  for (int b = 0; b < config.grid_blocks; ++b) {
    expected.push_back(-1 - b);
    for (int t = 0; t < config.block_threads; ++t) {
      expected.push_back(static_cast<std::int64_t>(b) * config.block_threads +
                         t);
    }
  }
  EXPECT_EQ(visits, expected);

  // Same counters as the concurrent launch of the same grid.
  const KernelRun concurrent = dev.launch(
      config,
      [](ThreadCtx& ctx) {
        ctx.add_ops(static_cast<std::uint64_t>(ctx.thread_idx() % 7));
      },
      [](int, AccessCounters& counters) {
        counters.add_load(MemSpace::kGlobal, 10);
      });
  EXPECT_EQ(run_fields(in_order), run_fields(concurrent));
}

TEST(Kernel, InvalidConfigsThrow) {
  SimDevice dev(DeviceSpec::tesla_c2050());
  EXPECT_THROW(dev.launch(LaunchConfig{0, 256}, [](ThreadCtx&) {}),
               CheckFailure);
  EXPECT_THROW(dev.launch(LaunchConfig{1, 4096}, [](ThreadCtx&) {}),
               CheckFailure);
}

}  // namespace
}  // namespace fsbb::gpusim
