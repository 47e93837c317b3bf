// Runtime-primitive microbenchmarks (google-benchmark): the per-operation
// costs behind every kernel — task spawn, finish variants, remote spawn,
// blocking at, remote atomics alone and contended. Run inside a live
// 4-place runtime; the main activity at place 0 drives the benchmark loop.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "runtime/api.h"
#include "runtime/team.h"

using namespace apgas;

namespace {

void BM_LocalFinishAsync(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    finish(Pragma::kLocal, [&] {
      for (int i = 0; i < n; ++i) async([] {});
    });
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_LocalFinishAsync)->Arg(1)->Arg(16)->Arg(256);

void BM_AutoFinishLocalOnly(benchmark::State& state) {
  for (auto _ : state) {
    finish([] { async([] {}); });
  }
}
BENCHMARK(BM_AutoFinishLocalOnly);

void BM_FinishAsyncRemote(benchmark::State& state) {
  for (auto _ : state) {
    finish(Pragma::kAsync, [] { asyncAt(1, [] {}); });
  }
}
BENCHMARK(BM_FinishAsyncRemote);

void BM_DefaultFinishRemote(benchmark::State& state) {
  for (auto _ : state) {
    finish(Pragma::kDefault, [] { asyncAt(1, [] {}); });
  }
}
BENCHMARK(BM_DefaultFinishRemote);

void BM_FinishSpmdFanout(benchmark::State& state) {
  for (auto _ : state) {
    finish(Pragma::kSpmd, [] {
      for (int p = 1; p < num_places(); ++p) asyncAt(p, [] {});
    });
  }
}
BENCHMARK(BM_FinishSpmdFanout);

void BM_BlockingAtRoundTrip(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(at(1, [] { return 42; }));
  }
}
BENCHMARK(BM_BlockingAtRoundTrip);

void BM_GupsRemoteXor(benchmark::State& state) {
  auto& space = Runtime::get().congruent();
  static auto word = space.alloc<std::uint64_t>(1);
  auto* addr = space.at_place(1, word);
  auto& tr = Runtime::get().transport();
  for (auto _ : state) {
    tr.remote_xor64(0, 1, addr, 0x1234);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GupsRemoteXor);

// Contended GUPS, the RandomAccess access pattern: thread i initiates as
// place i and XORs random words of a table spread over all four places, so
// every place updates every other place at once. One-sided ops that write a
// line shared between places (a lock, a global counter) serialize here.
void BM_GupsRemoteXorContended(benchmark::State& state) {
  constexpr int kLog2PerPlace = 16;
  constexpr std::uint64_t kPerPlace = std::uint64_t{1} << kLog2PerPlace;
  auto& space = Runtime::get().congruent();
  static const auto table = space.alloc<std::uint64_t>(kPerPlace);
  const int places = num_places();
  std::vector<std::uint64_t*> words;
  for (int q = 0; q < places; ++q) words.push_back(space.at_place(q, table));
  auto& tr = Runtime::get().transport();
  const int src = state.thread_index() % places;
  const std::uint64_t mask =
      kPerPlace * static_cast<std::uint64_t>(places) - 1;
  std::uint64_t ran =
      0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(src + 1);
  for (auto _ : state) {
    ran ^= ran << 13;
    ran ^= ran >> 7;
    ran ^= ran << 17;
    const std::uint64_t idx = ran & mask;
    const auto dst = static_cast<int>(idx >> kLog2PerPlace);
    tr.remote_xor64(src, dst, words[static_cast<std::size_t>(dst)] +
                                  (idx & (kPerPlace - 1)), ran);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GupsRemoteXorContended)->Threads(4)->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  Config cfg;
  cfg.places = 4;
  cfg.places_per_node = 4;
  Runtime::run(cfg, [&] {
    // The benchmark loop runs inside the place-0 main activity so that the
    // APGAS API is usable from benchmark bodies.
    benchmark::RunSpecifiedBenchmarks();
  });
  benchmark::Shutdown();
  return 0;
}
