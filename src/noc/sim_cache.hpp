#pragma once
// Memoizing cache in front of MeshNocSimulator::run.
//
// Core-count sweeps (E5/E7) and the hybrid/ablation benches re-simulate
// byte-identical layer-transition bursts many times: the baseline net's
// traffic is simulated once per variant it is compared against, and
// repeated CmpSystem runs over the same trained net repeat every burst.
// A burst's NocStats depend only on (mesh shape, NocConfig, max_cycles,
// message sequence), and MeshNocSimulator::run is a pure function of
// those, so the result can be memoized process-wide.
//
// Key notes (see DESIGN.md "Performance architecture"):
//  * Keys compare the *ordered* message sequence, not just the multiset —
//    packet ids, VC assignment, and injection order follow message order,
//    so two orderings of the same multiset can drain differently. Hashing
//    uses a sorted canonical form so equal multisets share a bucket, but
//    equality is exact; a hit therefore always returns the byte-identical
//    stats the simulator itself would produce. That makes the cache
//    correctness-neutral by construction.
//  * The memo map only grows: a cold run, or a sweep over unbounded
//    distinct bursts, calls clear(). Timing the simulator itself calls
//    MeshNocSimulator::run directly (as bench_noc_micro does), which never
//    consults the cache.
//
// Thread-safe: CmpSystem dispatches per-layer bursts onto the shared pool
// and all of them may consult the cache concurrently. Misses are
// single-flight: the first lookup of a key owns its simulation (run
// outside the lock), and concurrent lookups of the same key wait for that
// result and count as hits. So identical bursts dispatched at once are
// simulated once, and hit/miss counts do not depend on thread timing.

#include <cstdint>
#include <vector>

#include "noc/simulator.hpp"

namespace ls::noc {

class NocRunCache {
 public:
  /// Process-wide cache.
  static NocRunCache& instance();

  /// Memoized equivalent of `sim.run(messages, max_cycles)`. If the owning
  /// simulation throws, every waiter on that key gets the exception and
  /// the entry is dropped, so a later lookup simulates again.
  ///
  /// `stream_epoch` partitions the memo space: entries recorded under one
  /// epoch are invisible to every other. Epoch 0 is the shared single-pass
  /// space every plain run_inference uses. The streaming engine
  /// (ls::sim::CmpSystem::run_stream) keys its bursts by the caller-chosen
  /// epoch so a stream-context-dependent refinement of burst stats (e.g.
  /// charging residual-drain contention between overlapped requests) can
  /// never be served a single-pass memo, and vice versa; today the stats
  /// are context-independent, so epoch 0 deliberately shares entries with
  /// the single-pass space.
  NocStats run(const MeshNocSimulator& sim,
               const std::vector<Message>& messages,
               std::uint64_t max_cycles = 200'000'000ull,
               std::uint64_t stream_epoch = 0);

  /// Drops all memoized bursts (and resets hit/miss counters).
  void clear();

  std::size_t size() const;
  std::uint64_t hits() const;
  std::uint64_t misses() const;

  NocRunCache(const NocRunCache&) = delete;
  NocRunCache& operator=(const NocRunCache&) = delete;

 private:
  NocRunCache();
  ~NocRunCache();
  struct Impl;
  Impl* impl_;
};

}  // namespace ls::noc
