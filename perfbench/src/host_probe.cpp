// Host ceilings: a STREAM-style triad over arrays of at least four times
// the LLC, and a register-resident FMA peak. Each is the best of several
// runs in this process, as STREAM reports it: on a host shared with other
// tenants a median can fall below what a later layer achieves, and then it
// is no ceiling. Every GB/s and GFLOP/s the ladder reports is a share of a
// ceiling measured on the same host in the same run. Both use
// every core, whatever team size the workload runs with. This file
// is built for the host's own ISA (-march=native) so the FMA loop reaches
// the widest vectors the machine has.
#include <immintrin.h>
#include <omp.h>

#include <algorithm>
#include <cstddef>
#include <cstdlib>
#include <memory>
#include <vector>

#include "bench.hpp"

namespace pb {

namespace {

using v16 = float __attribute__((vector_size(64)));

// Triad a = b + s * c. Where the ISA has them, the stores are
// non-temporal (as STREAM builds usually make them), so the traffic is
// exactly two reads and one write per element; otherwise the write also
// costs a write-allocate read. Returns the seconds and the bytes moved.
double triad_once(double* a, const double* b, const double* c,
                  std::size_t n, double s, double* bytes) {
  const double t0 = now_s();
#if defined(__AVX512F__)
  const __m512d sv = _mm512_set1_pd(s);
#pragma omp parallel for schedule(static) num_threads(omp_get_num_procs())
  for (std::size_t i = 0; i < n; i += 8) {
    _mm512_stream_pd(a + i, _mm512_fmadd_pd(sv, _mm512_load_pd(c + i),
                                            _mm512_load_pd(b + i)));
  }
  _mm_sfence();
  *bytes = 3.0 * 8.0 * static_cast<double>(n);
#elif defined(__AVX__)
  const __m256d sv = _mm256_set1_pd(s);
#pragma omp parallel for schedule(static) num_threads(omp_get_num_procs())
  for (std::size_t i = 0; i < n; i += 4) {
    _mm256_stream_pd(a + i, _mm256_add_pd(_mm256_load_pd(b + i),
                                          _mm256_mul_pd(sv, _mm256_load_pd(c + i))));
  }
  _mm_sfence();
  *bytes = 3.0 * 8.0 * static_cast<double>(n);
#else
#pragma omp parallel for schedule(static) num_threads(omp_get_num_procs())
  for (std::size_t i = 0; i < n; ++i) a[i] = b[i] + s * c[i];
  *bytes = 4.0 * 8.0 * static_cast<double>(n);
#endif
  return now_s() - t0;
}

double fma_once(long iters, float m, float* sink) {
  const int threads = omp_get_num_procs();
  const double t0 = now_s();
#pragma omp parallel num_threads(threads)
  {
    v16 acc[16];
    const float seed = static_cast<float>(omp_get_thread_num() + 1) * 1e-3f;
    for (int k = 0; k < 16; ++k) acc[k] = v16{} + seed * static_cast<float>(k);
    const v16 mv = v16{} + m;
    const v16 cv = v16{} + 1e-7f;
    for (long it = 0; it < iters; ++it) {
#pragma GCC unroll 16
      for (int k = 0; k < 16; ++k) acc[k] = acc[k] * mv + cv;
    }
    v16 sum = acc[0];
    for (int k = 1; k < 16; ++k) sum += acc[k];
    float s = 0.0f;
    for (int l = 0; l < 16; ++l) s += sum[l];
#pragma omp critical
    *sink += s;
  }
  const double dt = now_s() - t0;
  return static_cast<double>(threads) * static_cast<double>(iters) * 16.0 *
         16.0 * 2.0 / dt * 1e-9;
}

}  // namespace

HostCeilings probe_host(bool smoke) {
  HostCeilings h;
  const std::size_t llc = llc_bytes();
  h.llc_mb = static_cast<double>(llc) / (1024.0 * 1024.0);
  // Three arrays whose total is at least 4x the LLC (smoke: 1x).
  const std::size_t n =
      ((smoke ? 1 : 4) * llc / (3 * sizeof(double)) + 4096) / 8 * 8;
  h.triad_array_mb = 3.0 * static_cast<double>(n * sizeof(double)) /
                     (1024.0 * 1024.0);
  {
    const auto alloc = [n] {
      return std::unique_ptr<double[], decltype(&std::free)>(
          static_cast<double*>(std::aligned_alloc(64, n * sizeof(double))),
          &std::free);
    };
    auto a = alloc();
    auto b = alloc();
    auto c = alloc();
#pragma omp parallel for schedule(static) num_threads(omp_get_num_procs())
    for (std::size_t i = 0; i < n; ++i) {
      a[i] = 0.0;
      b[i] = 1.0 + static_cast<double>(i % 7);
      c[i] = 0.5;
    }
    std::vector<double> gbps;
    const int reps = smoke ? 3 : 9;
    for (int r = 0; r < reps + 1; ++r) {
      double bytes = 0.0;
      const double dt = triad_once(a.get(), b.get(), c.get(), n, 1.5, &bytes);
      if (r > 0) gbps.push_back(bytes / dt * 1e-9);
    }
    h.triad_gbps = *std::max_element(gbps.begin(), gbps.end());
  }
  float sink = 0.0f;
  std::vector<double> gflops;
  const long iters = smoke ? 200000 : 4000000;
  for (int r = 0; r < (smoke ? 3 : 5); ++r) {
    gflops.push_back(fma_once(iters, 0.999999f, &sink));
  }
  h.fma_gflops = *std::max_element(gflops.begin(), gflops.end()) +
                 (sink == 12345.0f ? 1e-12 : 0.0);
  return h;
}

void flush_llc() {
  static std::vector<char> buf;
  if (buf.empty()) buf.assign(2 * llc_bytes(), 1);
  const std::size_t n = buf.size();
  char* p = buf.data();
#pragma omp parallel for schedule(static) num_threads(omp_get_num_procs())
  for (std::size_t i = 0; i < n; i += 64) p[i] = static_cast<char>(p[i] + 1);
}

}  // namespace pb
