// team_socket_probe: end-to-end Team collectives across place processes.
//
// Driven by test_launcher under apgas_launch (which arms APGAS_BACKEND=socket
// and APGAS_PLACES before exec); also runs standalone on the in-process
// backend. Every place runs the same frame task: one
// barrier -> allreduce -> bcast round on the world team of each of the two
// modes, bumping the "team_probe.ok" counter per verified round. kNative
// downgrades to the emulated algorithms across processes (effective_mode).
// The supervisor checks the aggregated counter equals places * 2 and prints
// "verified".
#include <cinttypes>
#include <cstdio>

#include "runtime/api.h"
#include "runtime/metrics.h"
#include "runtime/task_registry.h"
#include "runtime/team.h"

namespace {

using namespace apgas;

void probe_task(x10rt::ByteBuffer&) {
  for (TeamMode mode : {TeamMode::kEmulated, TeamMode::kNative}) {
    Team t = Team::world(mode);
    t.barrier();
    double v = 1.0 + t.rank();
    t.allreduce(&v, 1, ReduceOp::kSum);
    const double want = t.size() * (t.size() + 1) / 2.0;
    std::uint64_t word = t.rank() == 0 ? 77u : 0u;
    t.bcast(0, &word, 1);
    if (v == want && word == 77u) {
      Runtime::get().metrics().counter("team_probe.ok").fetch_add(
          1, std::memory_order_relaxed);
    }
  }
}
// Pre-main registration: every place process agrees on the id.
const int kProbeTask = register_task_fn(&probe_task);

}  // namespace

int main() {
  using namespace apgas;
  const Config cfg = Config::from_env();
  Runtime::run(cfg, [] {
    finish(Pragma::kSpmd, [] {
      for (int p = 0; p < num_places(); ++p) {
        asyncAtFrame(p, kProbeTask);
      }
    });
  });

  const auto& m = last_run_metrics();
  const auto it = m.find("team_probe.ok");
  const std::uint64_t ok = it == m.end() ? 0 : it->second;
  const auto want = static_cast<std::uint64_t>(cfg.places) * 2;
  std::printf("team_socket_probe: %" PRIu64 "/%" PRIu64
              " mode-rounds ok across %d place(s)\n",
              ok, want, cfg.places);
  if (ok != want) {
    std::fprintf(stderr, "team_socket_probe: FAILED (%" PRIu64 " != %" PRIu64
                         ")\n",
                 ok, want);
    return 1;
  }
  std::printf("verified\n");
  return 0;
}
