// Section 5 (text): "these achieve a fast per-record processing time".
//
// google-benchmark timing of the per-record update cost of every summary in
// the library, on the paper's Uniform workload. Complements the space
// figures: the paper reports that processing rate was nearly identical
// across datasets and practical throughout.
#include <benchmark/benchmark.h>

#include "bench/workload.h"
#include "src/core/correlated_f0.h"
#include "src/core/correlated_fk.h"
#include "src/core/correlated_heavy_hitters.h"
#include "src/core/exact_correlated.h"
#include "src/quantile/gk_quantile.h"
#include "src/sketch/ams_f2.h"
#include "src/stream/generators.h"

namespace {

using namespace castream;

constexpr uint64_t kYRange = 1000000;

CorrelatedSketchOptions F2Opts(double eps) {
  return bench::F2BenchOpts(eps, kYRange);
}

void BM_CorrelatedF2Insert(benchmark::State& state) {
  const double eps = static_cast<double>(state.range(0)) / 100.0;
  auto sketch = MakeCorrelatedF2(F2Opts(eps), 1);
  UniformGenerator gen(500000, kYRange, 2);
  for (auto _ : state) {
    Tuple t = gen.Next();
    sketch.Insert(t.x, t.y);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CorrelatedF2Insert)->Arg(15)->Arg(20)->Arg(25);

void BM_CorrelatedF2InsertBatched(benchmark::State& state) {
  // The same per-tuple router as BM_CorrelatedF2Insert, entered in
  // 4096-tuple InsertBatch calls (the shape a shard thread ingests).
  // InsertBatch borrows the buffer (span), so clear() keeps its capacity and
  // the timed loop never re-allocates.
  auto sketch = MakeCorrelatedF2(F2Opts(0.20), 3);
  UniformGenerator gen(500000, kYRange, 4);
  std::vector<Tuple> batch;
  batch.reserve(4096);
  for (auto _ : state) {
    batch.push_back(gen.Next());
    if (batch.size() == 4096) {
      sketch.InsertBatch(batch);
      batch.clear();
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CorrelatedF2InsertBatched);

void BM_CorrelatedF0InsertBatched(benchmark::State& state) {
  CorrelatedF0Options opts;
  opts.eps = 0.1;
  opts.x_domain = 1000000;
  opts.repetitions_override = 1;
  CorrelatedF0Sketch sketch(opts, 15);
  UniformGenerator gen(1000000, kYRange, 16);
  std::vector<Tuple> batch;
  batch.reserve(4096);
  for (auto _ : state) {
    batch.push_back(gen.Next());
    if (batch.size() == 4096) {
      sketch.InsertBatch(batch);
      batch.clear();
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CorrelatedF0InsertBatched);

void BM_CorrelatedHeavyHittersInsertBatched(benchmark::State& state) {
  CorrelatedF2HeavyHitters hh(F2Opts(0.25), 0.05, 17);
  UniformGenerator gen(500000, kYRange, 18);
  std::vector<Tuple> batch;
  batch.reserve(4096);
  for (auto _ : state) {
    batch.push_back(gen.Next());
    if (batch.size() == 4096) {
      hh.InsertBatch(batch);
      batch.clear();
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CorrelatedHeavyHittersInsertBatched);

void BM_CorrelatedF0Insert(benchmark::State& state) {
  CorrelatedF0Options opts;
  opts.eps = static_cast<double>(state.range(0)) / 100.0;
  opts.x_domain = 1000000;
  opts.repetitions_override = 1;
  CorrelatedF0Sketch sketch(opts, 5);
  UniformGenerator gen(1000000, kYRange, 6);
  for (auto _ : state) {
    Tuple t = gen.Next();
    sketch.Insert(t.x, t.y);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CorrelatedF0Insert)->Arg(10)->Arg(20);

void BM_CorrelatedHeavyHittersInsert(benchmark::State& state) {
  CorrelatedF2HeavyHitters hh(F2Opts(0.25), 0.05, 7);
  UniformGenerator gen(500000, kYRange, 8);
  for (auto _ : state) {
    Tuple t = gen.Next();
    hh.Insert(t.x, t.y);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CorrelatedHeavyHittersInsert);

void BM_WholeStreamAmsInsert(benchmark::State& state) {
  // Baseline: a single whole-stream AMS update (the building block cost).
  AmsF2SketchFactory factory(SketchDims{4, 1024}, 9);
  AmsF2Sketch sketch = factory.Create();
  UniformGenerator gen(500000, kYRange, 10);
  for (auto _ : state) {
    Tuple t = gen.Next();
    sketch.Insert(t.x);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WholeStreamAmsInsert);

void BM_ExactBaselineInsert(benchmark::State& state) {
  // The linear-storage baseline's insert path (an append).
  ExactCorrelatedAggregate exact(AggregateKind::kF2);
  UniformGenerator gen(500000, kYRange, 11);
  for (auto _ : state) {
    Tuple t = gen.Next();
    exact.Insert(t.x, t.y);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ExactBaselineInsert)->Iterations(2000000);

void BM_GkQuantileInsert(benchmark::State& state) {
  // The whole-stream y-quantile summary used by the drill-down workflow.
  GkQuantileSummary gk(0.01);
  UniformGenerator gen(500000, kYRange, 12);
  for (auto _ : state) {
    gk.Insert(gen.Next().y);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GkQuantileInsert);

void BM_CorrelatedF2Query(benchmark::State& state) {
  auto sketch = MakeCorrelatedF2(F2Opts(0.20), 13);
  UniformGenerator gen(500000, kYRange, 14);
  for (int i = 0; i < 200000; ++i) {
    Tuple t = gen.Next();
    sketch.Insert(t.x, t.y);
  }
  bench::CutoffWalk walk;
  for (auto _ : state) {
    auto r = sketch.Query(walk.Next(kYRange));
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_CorrelatedF2Query);

}  // namespace

BENCHMARK_MAIN();
