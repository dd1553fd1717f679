// Per-thread kernel scratch arena: alignment, steady-state capacity, chunk
// release at thread exit, and profile_alloc accounting of chunk growth.
//
// Each test runs its arena traffic on a fresh std::thread so it starts from
// an empty thread-local arena regardless of what ran before in the process.

#include <gtest/gtest.h>

#include <sys/mman.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "ncnas/obs/profiler.hpp"
#include "ncnas/tensor/arena.hpp"
#include "ncnas/tensor/kernel_config.hpp"
#include "ncnas/tensor/ops.hpp"
#include "ncnas/tensor/rng.hpp"

namespace {

using ncnas::tensor::detail::Arena;
using ncnas::tensor::detail::ArenaScope;

template <typename Fn>
void on_fresh_thread(Fn&& fn) {
  std::thread t(std::forward<Fn>(fn));
  t.join();
}

/// True when the page holding `p` is mapped in this process.
bool page_mapped(const void* p) {
  const auto page = static_cast<std::uintptr_t>(::sysconf(_SC_PAGESIZE));
  auto* base = reinterpret_cast<void*>(reinterpret_cast<std::uintptr_t>(p) & ~(page - 1));
  unsigned char vec = 0;
  return ::mincore(base, 1, &vec) == 0;
}

const ncnas::obs::FlatProfileEntry* find_entry(
    const std::vector<ncnas::obs::FlatProfileEntry>& flat, const std::string& name) {
  for (const auto& e : flat) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

TEST(Arena, AllocationsAre64ByteAligned) {
  on_fresh_thread([] {
    ArenaScope scope;
    // Odd sizes inside one chunk, then sizes that force new chunks.
    for (const std::size_t n : {1u, 3u, 17u, 100u, 1000u, 70'000u, 1u, 300'000u, 5u}) {
      const float* p = scope.alloc(n);
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 64, 0u) << "n=" << n;
    }
  });
}

TEST(Arena, CapacityStopsGrowingOnceWarm) {
  on_fresh_thread([] {
    Arena& arena = Arena::local();
    const auto pass = [] {
      ArenaScope outer;
      (void)outer.alloc(5'000);
      {
        ArenaScope inner;
        (void)inner.alloc(90'000);
        (void)inner.alloc(40'000);
      }
      (void)outer.alloc(200'000);
    };
    pass();
    const std::size_t warm = arena.capacity_floats();
    EXPECT_GT(warm, 0u);
    for (int i = 0; i < 5; ++i) pass();
    EXPECT_EQ(arena.capacity_floats(), warm);

    // The same holds for the blocked gemm's pack panels.
    ncnas::tensor::KernelConfigGuard guard(ncnas::tensor::KernelConfig::serial());
    ncnas::tensor::Rng rng(3);
    ncnas::tensor::Tensor a({192, 160}), b({160, 224}), c({192, 224});
    for (float& v : a.flat()) v = static_cast<float>(rng.normal());
    for (float& v : b.flat()) v = static_cast<float>(rng.normal());
    ncnas::tensor::gemm(a, b, c);
    ncnas::tensor::gemm_nt(a, ncnas::tensor::Tensor({224, 160}, 0.5f), c);
    const std::size_t after_gemm = arena.capacity_floats();
    for (int i = 0; i < 5; ++i) {
      ncnas::tensor::gemm(a, b, c);
      ncnas::tensor::gemm_nt(a, ncnas::tensor::Tensor({224, 160}, 0.5f), c);
    }
    EXPECT_EQ(arena.capacity_floats(), after_gemm);
  });
}

TEST(Arena, ChunksAreUnmappedWhenTheThreadExits) {
  // The first allocation after a growth starts at its chunk's base, so these
  // three pointers are the bases of the thread's three chunks.
  std::array<const float*, 3> bases{};
  std::array<bool, 3> mapped_while_alive{};
  std::size_t chunks_grown = 0;
  on_fresh_thread([&] {
    Arena& arena = Arena::local();
    ArenaScope scope;
    std::size_t capacity = arena.capacity_floats();
    const std::size_t sizes[] = {10, 100'000, 400'000};
    for (std::size_t i = 0; i < bases.size(); ++i) {
      bases[i] = scope.alloc(sizes[i]);
      if (arena.capacity_floats() > capacity) ++chunks_grown;
      capacity = arena.capacity_floats();
      mapped_while_alive[i] = page_mapped(bases[i]);
    }
  });
  // Count the chunks that are still mapped, with nothing allocated between
  // the join above and these probes.
  std::size_t still_mapped = 0;
  for (const float* p : bases) still_mapped += page_mapped(p) ? 1 : 0;

  EXPECT_EQ(chunks_grown, 3u);
  for (std::size_t i = 0; i < bases.size(); ++i) EXPECT_TRUE(mapped_while_alive[i]) << i;
  EXPECT_EQ(still_mapped, 0u);
}

TEST(Arena, ChunkGrowthIsAccountedThroughProfileAlloc) {
  ncnas::obs::Profiler prof;
  {
    ncnas::obs::ProfilerInstallGuard install(&prof);
    on_fresh_thread([] {
      const auto pass = [] {
        ArenaScope scope;
        (void)scope.alloc(10);       // grows the first 64 Ki-float chunk
        (void)scope.alloc(100'000);  // grows a doubled 128 Ki-float chunk
      };
      {
        NCNAS_PROF_SCOPE("cold");
        pass();
      }
      {
        NCNAS_PROF_SCOPE("warm");
        pass();
      }
    });
  }
  const std::vector<ncnas::obs::FlatProfileEntry> flat = prof.snapshot().flat();
  const ncnas::obs::FlatProfileEntry* cold = find_entry(flat, "cold");
  ASSERT_NE(cold, nullptr);
  EXPECT_EQ(cold->alloc_count, 2u);
  EXPECT_EQ(cold->alloc_bytes, sizeof(float) * (64u * 1024 + 128u * 1024));
  const ncnas::obs::FlatProfileEntry* warm = find_entry(flat, "warm");
  ASSERT_NE(warm, nullptr);
  EXPECT_EQ(warm->alloc_count, 0u);
  EXPECT_EQ(warm->alloc_bytes, 0u);
}

}  // namespace
