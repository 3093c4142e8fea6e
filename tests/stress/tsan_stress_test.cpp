// Thread-sanitizer stress suite (ctest label `stress`; CI runs it under
// -DLS_SAN=thread). Hammers every cross-thread seam the fast paths share:
//
//   * concurrent *external* parallel_for callers — the pool runs one job at
//     a time and overflow callers fall back to inline serial execution, so
//     results must stay bit-identical to a serial run;
//   * concurrent NocRunCache lookups on hot and cold keys, including the
//     single-flight miss path (one simulation per cold key, a throwing
//     simulation reaching every waiter);
//   * whole CmpSystem::run_inference calls racing on two threads (pool
//     dispatch + burst cache + obs counters all exercised at once);
//   * concurrent block-sparse forwards on per-thread layers over the shared
//     pool;
//   * concurrent conv backwards (per-sample partials folded on the caller)
//     on per-thread layers while the pool runs another layer's backward;
//   * concurrent data-parallel training runs (replica fan-out + serial
//     reduction) contending for the shared pool;
//   * concurrent streamed executions each accumulating a private
//     StreamTimeline and attributing blame over it.
//
// The suite also runs (and must pass) unsanitized — the assertions pin the
// determinism contract the sanitizer jobs then prove race-free.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/traffic.hpp"
#include "data/dataset.hpp"
#include "nn/conv2d.hpp"
#include "nn/fc.hpp"
#include "nn/model_zoo.hpp"
#include "noc/sim_cache.hpp"
#include "noc/simulator.hpp"
#include "noc/topology.hpp"
#include "prof/attribution.hpp"
#include "sched/schedule.hpp"
#include "sim/system.hpp"
#include "tensor/tensor.hpp"
#include "train/data_parallel.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace ls {
namespace {

using tensor::Shape;
using tensor::Tensor;

TEST(TsanStress, ConcurrentExternalParallelFor) {
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kItems = 2048;
  constexpr std::size_t kRounds = 8;

  std::vector<std::vector<double>> results(kThreads,
                                           std::vector<double>(kItems, 0.0));
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &results] {
      for (std::size_t round = 0; round < kRounds; ++round) {
        util::parallel_for(0, kItems, [&](std::size_t i) {
          results[t][i] = static_cast<double>(i) * 1.5 + 1.0;
        });
      }
    });
  }
  for (auto& th : threads) th.join();

  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t i = 0; i < kItems; ++i) {
      ASSERT_EQ(results[t][i], static_cast<double>(i) * 1.5 + 1.0)
          << "thread " << t << " item " << i;
    }
  }
}

TEST(TsanStress, ConcurrentNocRunCache) {
  noc::NocRunCache::instance().clear();
  const auto topo = noc::MeshTopology::for_cores(16);
  const noc::MeshNocSimulator sim(topo, noc::NocConfig{});

  // A few distinct bursts: every thread sweeps all of them repeatedly, so
  // the cache sees racing cold misses and hot hits on the same keys.
  std::vector<std::vector<noc::Message>> bursts;
  for (std::size_t b = 0; b < 4; ++b) {
    std::vector<noc::Message> msgs;
    for (std::size_t s = 0; s < 8; ++s) {
      msgs.push_back({s, (s + 3 + b) % 16, 64 * (b + 1) + 32 * s, 0});
    }
    bursts.push_back(std::move(msgs));
  }
  std::vector<noc::NocStats> expected;
  expected.reserve(bursts.size());
  for (const auto& msgs : bursts) expected.push_back(sim.run(msgs));

  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kRounds = 16;
  std::vector<std::thread> threads;
  std::vector<int> ok(kThreads, 0);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &bursts, &expected, &sim, &ok] {
      bool all_match = true;
      for (std::size_t round = 0; round < kRounds; ++round) {
        for (std::size_t b = 0; b < bursts.size(); ++b) {
          const noc::NocStats got =
              noc::NocRunCache::instance().run(sim, bursts[b]);
          all_match = all_match && got == expected[b];
        }
      }
      ok[t] = all_match;
    });
  }
  for (auto& th : threads) th.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(ok[t]) << "thread " << t << " saw a mismatched cached stat";
  }
}

// Single-flight misses: K threads released at once on one cold burst
// simulate it exactly once; every other lookup waits for that result and
// counts as a hit, whatever the thread timing.
TEST(TsanStress, ConcurrentColdLookupsSimulateOnce) {
  noc::NocRunCache& cache = noc::NocRunCache::instance();
  cache.clear();
  const noc::MeshNocSimulator sim(noc::MeshTopology::for_cores(16),
                                  noc::NocConfig{});
  std::vector<noc::Message> burst;
  for (std::size_t s = 0; s < 16; ++s) {
    for (std::size_t d = 0; d < 16; ++d) {
      if (s != d) burst.push_back({s, d, 4096, 0});
    }
  }
  const noc::NocStats expected = sim.run(burst);

  constexpr std::size_t kThreads = 8;
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  std::vector<int> ok(kThreads, 0);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &go, &cache, &sim, &burst, &expected, &ok] {
      while (!go.load()) std::this_thread::yield();
      ok[t] = cache.run(sim, burst) == expected;
    });
  }
  go.store(true);
  for (auto& th : threads) th.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(ok[t]) << "thread " << t << " saw a mismatched stat";
  }
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), kThreads - 1);
  EXPECT_EQ(cache.size(), 1u);
  cache.clear();
}

// A burst whose simulation throws is never memoized: the owner and every
// waiter get the exception, and the entry is dropped.
TEST(TsanStress, ConcurrentThrowingLookupsAllThrow) {
  noc::NocRunCache& cache = noc::NocRunCache::instance();
  cache.clear();
  const noc::MeshNocSimulator sim(noc::MeshTopology::for_cores(16),
                                  noc::NocConfig{});
  const std::vector<noc::Message> bad = {{0, 99, 64, 0}};  // off the mesh

  constexpr std::size_t kThreads = 8;
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  std::vector<int> threw(kThreads, 0);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &go, &cache, &sim, &bad, &threw] {
      while (!go.load()) std::this_thread::yield();
      try {
        cache.run(sim, bad);
      } catch (const std::out_of_range&) {
        threw[t] = 1;
      }
    });
  }
  go.store(true);
  for (auto& th : threads) th.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(threw[t]) << "thread " << t << " did not see the exception";
  }
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.hits() + cache.misses(), kThreads);
  cache.clear();
}

TEST(TsanStress, ConcurrentSystemRuns) {
  noc::NocRunCache::instance().clear();
  sim::SystemConfig cfg;
  cfg.cores = 16;
  const sim::CmpSystem system(cfg);
  const nn::NetSpec spec = nn::lenet_expt_spec();
  const auto traffic =
      core::traffic_dense(spec, system.topology(), cfg.bytes_per_value);

  const sim::InferenceResult serial = system.run_inference(spec, traffic);

  constexpr std::size_t kThreads = 3;
  constexpr std::size_t kRounds = 4;
  std::vector<std::thread> threads;
  std::vector<int> ok(kThreads, 0);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &system, &spec, &traffic, &serial, &ok] {
      bool all_match = true;
      for (std::size_t round = 0; round < kRounds; ++round) {
        const sim::InferenceResult r = system.run_inference(spec, traffic);
        all_match = all_match && r.total_cycles == serial.total_cycles &&
                    r.compute_cycles == serial.compute_cycles &&
                    r.comm_cycles == serial.comm_cycles &&
                    r.traffic_bytes == serial.traffic_bytes;
      }
      ok[t] = all_match;
    });
  }
  for (auto& th : threads) th.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(ok[t]) << "thread " << t << " diverged from the serial run";
  }
}

TEST(TsanStress, ConcurrentSparseForwards) {
  // One armed FC per thread (BlockSparsity::map is per-layer and not
  // thread-safe by contract); the racing surface is the shared pool the
  // sparse GEMMs fan out on.
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kRounds = 8;
  const Tensor in(Shape{4, 64}, 0.25f);

  std::vector<std::unique_ptr<nn::FullyConnected>> layers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    util::Rng rng(100 + t);
    auto fc = std::make_unique<nn::FullyConnected>("fc_stress", 64, 32, rng,
                                                   /*bias=*/false);
    fc->set_sparsity_partition(/*parts=*/4, /*in_units=*/8);
    // Prune block (p=0, c=0): rows 0..8 x cols 0..16 of the {32, 64} weight.
    for (std::size_t oc = 0; oc < 8; ++oc) {
      for (std::size_t k = 0; k < 16; ++k) {
        fc->weight().value.at2(oc, k) = 0.0f;
      }
    }
    fc->weight().bump();
    layers.push_back(std::move(fc));
  }

  std::vector<Tensor> first(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    first[t] = layers[t]->forward(in, false);
  }

  std::vector<std::thread> threads;
  std::vector<int> ok(kThreads, 0);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &layers, &in, &first, &ok] {
      bool all_match = true;
      for (std::size_t round = 0; round < kRounds; ++round) {
        const Tensor out = layers[t]->forward(in, false);
        bool same = out.shape() == first[t].shape();
        for (std::size_t i = 0; same && i < out.numel(); ++i) {
          same = out[i] == first[t][i];
        }
        all_match = all_match && same;
      }
      ok[t] = all_match;
    });
  }
  for (auto& th : threads) th.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(ok[t]) << "thread " << t << " sparse forward diverged";
  }
}

TEST(TsanStress, ConcurrentConvBackward) {
  // Conv backward fans (sample, group) tasks out over the pool: each task
  // writes its sample's gradient partial into the caller's slab, then the
  // caller folds the partials. Two external threads train their own layers
  // while the pool runs a third layer's backward; every gradient must stay
  // byte-identical to an uncontended run.
  constexpr std::size_t kLayers = 3;
  constexpr std::size_t kRounds = 6;
  util::ThreadPool::set_num_threads(4);
  nn::Conv2DConfig cfg;
  cfg.in_channels = 4;
  cfg.out_channels = 16;
  cfg.kernel = 3;
  cfg.pad = 1;
  util::Rng rng_in(31);
  const Tensor in = Tensor::uniform(Shape{11, 4, 10, 10}, -1.f, 1.f, rng_in);
  const Tensor grad_out =
      Tensor::uniform(Shape{11, 16, 10, 10}, -1.f, 1.f, rng_in);

  std::vector<std::unique_ptr<nn::Conv2D>> layers;
  for (std::size_t l = 0; l < kLayers; ++l) {
    util::Rng rng(200 + l);
    layers.push_back(std::make_unique<nn::Conv2D>("conv_stress", cfg, rng));
  }
  // One training step: fresh gradients, forward, backward.
  auto step = [&](nn::Conv2D& conv) {
    conv.weight().grad.zero();
    conv.bias().grad.zero();
    conv.forward(in, /*training=*/true);
    return conv.backward(grad_out);
  };
  auto same = [](const Tensor& a, const Tensor& b) {
    return a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
  };
  std::vector<Tensor> first_din(kLayers), first_dw(kLayers);
  for (std::size_t l = 0; l < kLayers; ++l) {
    first_din[l] = step(*layers[l]);
    first_dw[l] = layers[l]->weight().grad;
  }

  std::vector<int> ok(kLayers, 0);
  auto train = [&](std::size_t l) {
    bool all_match = true;
    for (std::size_t round = 0; round < kRounds; ++round) {
      const Tensor din = step(*layers[l]);
      all_match = all_match && same(din, first_din[l]) &&
                  same(layers[l]->weight().grad, first_dw[l]);
    }
    ok[l] = all_match;
  };
  std::vector<std::thread> threads;
  for (std::size_t l = 0; l + 1 < kLayers; ++l) threads.emplace_back(train, l);
  train(kLayers - 1);
  for (auto& th : threads) th.join();
  util::ThreadPool::set_num_threads(0);
  for (std::size_t l = 0; l < kLayers; ++l) {
    EXPECT_TRUE(ok[l]) << "layer " << l << " conv backward diverged";
  }
}

TEST(TsanStress, ConcurrentDataParallelTraining) {
  // PR 8 seam: each caller's replicas fan their shards out over the shared
  // pool while the reduction and optimizer step stay caller-serial. Racing
  // whole training runs hammers pool handoff on both sides; the trained
  // weights must still be byte-identical to an uncontended run.
  constexpr std::size_t kThreads = 3;

  nn::NetSpec spec;
  spec.name = "stress_tiny";
  spec.dataset = "stress_tiny";
  spec.input = {1, 8, 8};
  spec.layers = {nn::LayerSpec::conv("c1", 4, 3, 1, 1),
                 nn::LayerSpec::relu("r0"), nn::LayerSpec::flatten("flat"),
                 nn::LayerSpec::fc("fc1", 16), nn::LayerSpec::relu("r1"),
                 nn::LayerSpec::fc("fc2", 4)};

  data::SyntheticSpec syn;
  syn.num_classes = 4;
  syn.channels = 1;
  syn.height = 8;
  syn.width = 8;
  syn.samples = 48;
  syn.seed = 5;
  syn.sample_seed = 1;
  const data::Dataset train_set = data::make_synthetic(syn);
  syn.sample_seed = 2;
  const data::Dataset test_set = data::make_synthetic(syn);

  train::TrainConfig cfg;
  cfg.epochs = 1;
  cfg.batch_size = 16;
  cfg.replicas = 2;

  const auto run_once = [&] {
    util::Rng rng(3);
    nn::Network net = nn::build_network(spec, rng);
    train::train_classifier_parallel(spec, net, train_set, test_set, cfg);
    std::vector<float> flat;
    for (nn::Param* p : net.params()) {
      flat.insert(flat.end(), p->value.data(),
                  p->value.data() + p->value.numel());
    }
    return flat;
  };
  const std::vector<float> reference = run_once();

  std::vector<std::thread> threads;
  std::vector<int> ok(kThreads, 0);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &run_once, &reference, &ok] {
      const std::vector<float> got = run_once();
      ok[t] = got.size() == reference.size() &&
              std::memcmp(got.data(), reference.data(),
                          got.size() * sizeof(float)) == 0;
    });
  }
  for (auto& th : threads) th.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(ok[t]) << "thread " << t
                       << " trained different bytes under contention";
  }
}

TEST(TsanStress, ConcurrentStreamTimelineAttribution) {
  // PR 7 seam: run_stream appends to a caller-owned StreamTimeline while
  // the shared CmpSystem (pool, burst cache) is raced by other streams.
  // Every private timeline must attribute to the same makespan and blame
  // split as an uncontended run.
  noc::NocRunCache::instance().clear();
  sim::SystemConfig cfg;
  cfg.cores = 16;
  const sim::CmpSystem system(cfg);
  const nn::NetSpec spec = nn::lenet_expt_spec();
  const auto traffic =
      core::traffic_dense(spec, system.topology(), cfg.bytes_per_value);
  const sched::Schedule schedule = system.build_schedule(spec, traffic);

  constexpr std::size_t kRequests = 6;
  sim::StreamTimeline ref_tl;
  system.run_stream(schedule, kRequests, 0, &ref_tl);
  const prof::StreamAttribution ref = prof::attribute_stream(schedule, ref_tl);

  constexpr std::size_t kThreads = 3;
  constexpr std::size_t kRounds = 4;
  std::vector<std::thread> threads;
  std::vector<int> ok(kThreads, 0);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &system, &schedule, &ref, &ok] {
      bool all_match = true;
      for (std::size_t round = 0; round < kRounds; ++round) {
        sim::StreamTimeline tl;
        system.run_stream(schedule, kRequests, 0, &tl);
        const prof::StreamAttribution a =
            prof::attribute_stream(schedule, tl);
        all_match = all_match && a.makespan_cycles == ref.makespan_cycles &&
                    a.blame.total() == ref.blame.total() &&
                    a.blame.compute_cycles == ref.blame.compute_cycles &&
                    a.blame.noc_cycles == ref.blame.noc_cycles &&
                    a.critical_chain == ref.critical_chain;
      }
      ok[t] = all_match;
    });
  }
  for (auto& th : threads) th.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(ok[t]) << "thread " << t
                       << " attribution diverged under contention";
  }
}

}  // namespace
}  // namespace ls
