// Microbenchmarks of the FFT substrate (radix-2, Bluestein, batched rFFT)
// and of the MDC transform: one forward + inverse pair per iteration, the
// cf64 FftPlan pair against the fp32 BandDft pair, single-threaded, at the
// benchmark workloads' shapes, the paper's, and the crossover shape.
#include <benchmark/benchmark.h>

#include "tlrwse/common/rng.hpp"
#include "tlrwse/fft/band_dft.hpp"
#include "tlrwse/fft/fft.hpp"

namespace {

using namespace tlrwse;

void BM_FftPow2(benchmark::State& bst) {
  const auto n = static_cast<index_t>(bst.range(0));
  fft::FftPlan plan(n);
  Rng rng(1);
  std::vector<cf64> x(static_cast<std::size_t>(n));
  fill_normal(rng, x.data(), x.size());
  for (auto _ : bst) {
    plan.forward(std::span<cf64>(x));
    benchmark::DoNotOptimize(x.data());
  }
  bst.SetItemsProcessed(static_cast<int64_t>(bst.iterations()) * n);
}
BENCHMARK(BM_FftPow2)->Arg(256)->Arg(1024)->Arg(4096);

void BM_FftBluestein(benchmark::State& bst) {
  const auto n = static_cast<index_t>(bst.range(0));
  fft::FftPlan plan(n);
  Rng rng(2);
  std::vector<cf64> x(static_cast<std::size_t>(n));
  fill_normal(rng, x.data(), x.size());
  for (auto _ : bst) {
    plan.forward(std::span<cf64>(x));
    benchmark::DoNotOptimize(x.data());
  }
  bst.SetItemsProcessed(static_cast<int64_t>(bst.iterations()) * n);
}
// 1125 = the paper's 4.5 s at 4 ms sampling; 230 and 997 stress odd sizes.
BENCHMARK(BM_FftBluestein)->Arg(230)->Arg(997)->Arg(1125);

void BM_RfftBatch(benchmark::State& bst) {
  const index_t nt = 256;
  const auto ntraces = static_cast<index_t>(bst.range(0));
  Rng rng(3);
  std::vector<float> page(static_cast<std::size_t>(nt * ntraces));
  for (auto& v : page) v = static_cast<float>(rng.normal());
  std::vector<cf32> freq(static_cast<std::size_t>((nt / 2 + 1) * ntraces));
  for (auto _ : bst) {
    fft::rfft_batch(std::span<const float>(page), nt, ntraces,
                    std::span<cf32>(freq));
    benchmark::DoNotOptimize(freq.data());
  }
  bst.SetItemsProcessed(static_cast<int64_t>(bst.iterations()) * nt * ntraces);
}
BENCHMARK(BM_RfftBatch)->Arg(64)->Arg(512);

// MDC transform shapes: {nt, retained bins, input traces, output traces}.
// serve_mixed survey A; cluster_sharded; mdd_dram; the paper (nt = 1125,
// 230 bins) with 256 traces each way; and nt = 1024 with every bin kept,
// where the full-length FFT wins.
void mdc_shapes(benchmark::internal::Benchmark* b) {
  b->ArgNames({"nt", "nq", "nin", "nout"});
  b->Args({256, 27, 40, 80});
  b->Args({256, 27, 330, 660});
  b->Args({256, 93, 2030, 2030});
  b->Args({1125, 230, 256, 256});
  b->Args({1024, 511, 64, 64});
}

struct PairShape {
  index_t nt, nq, nin, nout;
  std::vector<index_t> bins;  // evenly spread over (0, nt/2)
  std::vector<float> in;
  std::vector<float> out;

  explicit PairShape(const benchmark::State& bst)
      : nt(bst.range(0)), nq(bst.range(1)), nin(bst.range(2)),
        nout(bst.range(3)) {
    for (index_t q = 0; q < nq; ++q) {
      bins.push_back(1 + q * (nt / 2 - 2) / std::max<index_t>(nq - 1, 1));
    }
    Rng rng(4);
    in.resize(static_cast<std::size_t>(nt * nin));
    for (auto& v : in) v = static_cast<float>(rng.normal());
    out.resize(static_cast<std::size_t>(nt * nout));
  }
  void count(benchmark::State& bst) const {
    bst.SetItemsProcessed(static_cast<int64_t>(bst.iterations()) * nt *
                          (nin + nout));
  }
};

void BM_FftPlanPair(benchmark::State& bst) {
  PairShape s(bst);
  const fft::FftPlan plan(s.nt);
  fft::BatchWorkspace ws;
  const index_t nf = s.nt / 2 + 1;
  std::vector<cf32> spec(static_cast<std::size_t>(nf * std::max(s.nin, s.nout)));
  for (auto _ : bst) {
    fft::rfft_batch(plan, s.in, s.nin,
                    std::span<cf32>(spec.data(), static_cast<std::size_t>(nf * s.nin)),
                    ws);
    fft::irfft_batch(plan,
                     std::span<const cf32>(spec.data(),
                                           static_cast<std::size_t>(nf * s.nout)),
                     s.nout, s.out, ws);
    benchmark::DoNotOptimize(s.out.data());
    benchmark::ClobberMemory();
  }
  s.count(bst);
}
BENCHMARK(BM_FftPlanPair)->Apply(mdc_shapes)->Unit(benchmark::kMillisecond);

void BM_BandDft(benchmark::State& bst) {
  PairShape s(bst);
  const fft::BandDft dft(s.nt, s.bins);
  std::vector<cf32> band(
      static_cast<std::size_t>(dft.ldq() * std::max(s.nin, s.nout)));
  const auto rows = [&](index_t traces) {
    return static_cast<std::size_t>(dft.ldq() * traces);
  };
  for (auto _ : bst) {
    dft.forward(s.in, s.nin, std::span<cf32>(band.data(), rows(s.nin)), 1);
    dft.inverse(std::span<const cf32>(band.data(), rows(s.nout)), s.nout,
                s.out, 1);
    benchmark::DoNotOptimize(s.out.data());
    benchmark::ClobberMemory();
  }
  s.count(bst);
}
BENCHMARK(BM_BandDft)->Apply(mdc_shapes)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
