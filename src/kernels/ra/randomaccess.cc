#include "kernels/ra/randomaccess.h"

#include <cassert>
#include <chrono>

#include "kernels/util/hpcc_rng.h"
#include "runtime/dist_rail.h"
#include "runtime/place_group.h"
#include "runtime/team.h"

namespace kernels {

namespace {

struct Shared {
  apgas::Congruent<std::uint64_t> table;
  std::uint64_t per_place = 0;
  std::uint64_t total = 0;
  std::uint64_t updates_per_place = 0;
  int log2_per_place = 0;
};

void do_updates(const Shared& sh) {
  using namespace apgas;
  const int p = here();
  // Each place generates its slice of the global update stream via the
  // HPCC jump-ahead, then fires one-sided XORs at whoever owns the index.
  std::uint64_t ran = hpcc_starts(
      static_cast<std::int64_t>(sh.updates_per_place) * p);
  std::vector<GlobalRail<std::uint64_t>> rails(
      static_cast<std::size_t>(num_places()));
  for (int q = 0; q < num_places(); ++q) {
    rails[static_cast<std::size_t>(q)] = global_rail(sh.table, q);
  }
  for (std::uint64_t i = 0; i < sh.updates_per_place; ++i) {
    ran = hpcc_next(ran);
    const std::uint64_t idx = ran & (sh.total - 1);
    const int owner = static_cast<int>(idx >> sh.log2_per_place);
    const std::uint64_t offset = idx & (sh.per_place - 1);
    remote_xor(rails[static_cast<std::size_t>(owner)], offset, ran);
  }
}

}  // namespace

RaResult randomaccess_run(const RaParams& params) {
  using namespace apgas;
  const int places = num_places();
  assert((places & (places - 1)) == 0 &&
         "RandomAccess requires a power-of-two place count (paper §5.2)");

  Shared sh;
  sh.log2_per_place = params.log2_table_per_place;
  sh.per_place = std::uint64_t{1} << params.log2_table_per_place;
  sh.total = sh.per_place * static_cast<std::uint64_t>(places);
  sh.updates_per_place = sh.per_place *
                         static_cast<std::uint64_t>(params.updates_per_entry);
  sh.table = Runtime::get().congruent().alloc<std::uint64_t>(
      static_cast<std::size_t>(sh.per_place));

  // Initialize table[i] = global index i, everywhere.
  PlaceGroup::world().broadcast([&sh] {
    auto* mine = Runtime::get().congruent().at_place(here(), sh.table);
    const std::uint64_t base =
        static_cast<std::uint64_t>(here()) * sh.per_place;
    for (std::uint64_t i = 0; i < sh.per_place; ++i) mine[i] = base + i;
  });

  const auto t0 = std::chrono::steady_clock::now();
  PlaceGroup::world().broadcast([&sh] {
    Team team = Team::world();
    team.barrier();
    do_updates(sh);
    team.barrier();
  });
  const auto t1 = std::chrono::steady_clock::now();

  // HPCC verification: replay the identical update stream — XOR cancels —
  // and count entries that did not return to their initial value.
  PlaceGroup::world().broadcast([&sh] {
    Team team = Team::world();
    team.barrier();
    do_updates(sh);
    team.barrier();
  });
  std::uint64_t errors = 0;
  for (int q = 0; q < places; ++q) {
    const auto* t = Runtime::get().congruent().at_place(q, sh.table);
    const std::uint64_t base = static_cast<std::uint64_t>(q) * sh.per_place;
    for (std::uint64_t i = 0; i < sh.per_place; ++i) {
      if (t[i] != base + i) ++errors;
    }
  }

  RaResult result;
  result.seconds = std::chrono::duration<double>(t1 - t0).count();
  result.updates = sh.updates_per_place * static_cast<std::uint64_t>(places);
  result.gups = static_cast<double>(result.updates) / result.seconds / 1e9;
  result.gups_per_place = result.gups / places;
  result.error_fraction =
      static_cast<double>(errors) / static_cast<double>(sh.total);
  result.verified = result.error_fraction < 0.01;
  return result;
}

}  // namespace kernels
