#include "noc/sim_cache.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "noc/simulator.hpp"
#include "noc/topology.hpp"

namespace ls::noc {
namespace {

std::vector<Message> burst_a() {
  return {{0, 5, 4096, 0}, {1, 6, 2048, 0}, {2, 7, 8192, 0}};
}

std::vector<Message> burst_b() {
  return {{0, 5, 4096, 0}, {1, 6, 2048, 0}, {2, 7, 8193, 0}};  // one byte off
}

TEST(NocRunCache, HitReturnsIdenticalStats) {
  MeshNocSimulator sim(MeshTopology::for_cores(16), NocConfig{});
  NocRunCache& cache = NocRunCache::instance();
  cache.clear();

  const NocStats direct = sim.run(burst_a());
  const NocStats miss = cache.run(sim, burst_a());
  EXPECT_EQ(miss, direct);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.size(), 1u);

  const NocStats hit = cache.run(sim, burst_a());
  EXPECT_EQ(hit, direct);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(NocRunCache, DistinctBurstsDoNotCollide) {
  MeshNocSimulator sim(MeshTopology::for_cores(16), NocConfig{});
  NocRunCache& cache = NocRunCache::instance();
  cache.clear();

  const NocStats a = cache.run(sim, burst_a());
  const NocStats b = cache.run(sim, burst_b());
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_NE(a.total_flits, 0u);
  EXPECT_EQ(a, sim.run(burst_a()));
  EXPECT_EQ(b, sim.run(burst_b()));
}

TEST(NocRunCache, StreamEpochPartitionsMemoSpace) {
  MeshNocSimulator sim(MeshTopology::for_cores(16), NocConfig{});
  NocRunCache& cache = NocRunCache::instance();
  cache.clear();

  // Same burst under two epochs: separate memo entries (a stream-context-
  // dependent refinement of burst stats must never be served a single-pass
  // memo), but today identical stats.
  const NocStats epoch0 = cache.run(sim, burst_a(), 200'000'000ull, 0);
  const NocStats epoch1 = cache.run(sim, burst_a(), 200'000'000ull, 1);
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(epoch0, epoch1);

  // Re-querying each epoch hits its own entry.
  cache.run(sim, burst_a(), 200'000'000ull, 1);
  cache.run(sim, burst_a(), 200'000'000ull, 0);
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(NocRunCache, KeyIncludesTopologyAndConfig) {
  NocRunCache& cache = NocRunCache::instance();
  cache.clear();

  MeshNocSimulator mesh16(MeshTopology::for_cores(16), NocConfig{});
  MeshNocSimulator mesh64(MeshTopology::for_cores(64), NocConfig{});
  NocConfig slow;
  slow.router_latency = 5;
  MeshNocSimulator mesh16_slow(MeshTopology::for_cores(16), slow);

  cache.run(mesh16, burst_a());
  cache.run(mesh64, burst_a());
  cache.run(mesh16_slow, burst_a());
  EXPECT_EQ(cache.misses(), 3u);
  EXPECT_EQ(cache.size(), 3u);
}

TEST(NocRunCache, PlacementPermutedBurstsKeySeparately) {
  // Tuned schedules permute message endpoints through a core placement;
  // the cache key covers the ordered (src, dst, bytes) sequence, so a
  // permuted burst must never be served the identity burst's entry (the
  // stats differ — hop counts change with the placement).
  MeshNocSimulator sim(MeshTopology::for_cores(16), NocConfig{});
  NocRunCache& cache = NocRunCache::instance();
  cache.clear();

  const std::vector<Message> identity = burst_a();
  std::vector<Message> permuted = identity;
  for (Message& m : permuted) {  // placement: core i -> core 15 - i
    m.src = 15 - m.src;
    m.dst = 15 - m.dst;
  }

  const NocStats a = cache.run(sim, identity);
  const NocStats b = cache.run(sim, permuted);
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(a, sim.run(identity));
  EXPECT_EQ(b, sim.run(permuted));

  // Re-querying each burst hits its own entry and stays byte-identical.
  EXPECT_EQ(cache.run(sim, identity), a);
  EXPECT_EQ(cache.run(sim, permuted), b);
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(NocRunCache, ThrowingBurstIsNotMemoized) {
  MeshNocSimulator sim(MeshTopology::for_cores(16), NocConfig{});
  NocRunCache& cache = NocRunCache::instance();
  cache.clear();
  const std::vector<Message> bad = {{0, 99, 64, 0}};  // off the mesh
  EXPECT_THROW(cache.run(sim, bad), std::out_of_range);
  EXPECT_EQ(cache.size(), 0u);
  // The failed entry was dropped, so the next lookup simulates again.
  EXPECT_THROW(cache.run(sim, bad), std::out_of_range);
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.hits(), 0u);
}

TEST(NocRunCache, ClearResetsCountersAndEntries) {
  MeshNocSimulator sim(MeshTopology::for_cores(16), NocConfig{});
  NocRunCache& cache = NocRunCache::instance();
  cache.clear();
  cache.run(sim, burst_a());
  cache.run(sim, burst_a());
  EXPECT_GT(cache.size() + cache.hits() + cache.misses(), 0u);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
}

}  // namespace
}  // namespace ls::noc
