#include "kernels/stream/stream.h"

#include <chrono>
#include <cmath>
#include <mutex>
#include <vector>

#include "runtime/api.h"
#include "runtime/place_group.h"
#include "runtime/team.h"

namespace kernels {

namespace {

using TimePoint = std::chrono::steady_clock::time_point;

/// Global span across places: earliest start to latest finish. Immune to
/// the late-thread-scheduling artifact when places oversubscribe cores.
double span_seconds(const std::vector<TimePoint>& starts,
                    const std::vector<TimePoint>& stops) {
  TimePoint first = starts[0];
  TimePoint last = stops[0];
  for (std::size_t p = 1; p < starts.size(); ++p) {
    first = std::min(first, starts[p]);
    last = std::max(last, stops[p]);
  }
  return std::chrono::duration<double>(last - first).count();
}

}  // namespace

StreamResult stream_run(const StreamParams& params) {
  using namespace apgas;
  const std::size_t n = params.elements_per_place;
  const double alpha = params.alpha;
  const int iters = params.iterations;
  const bool congruent = params.use_congruent;
  // Op order matches classic STREAM: Copy, Scale, Add, Triad.
  const int num_ops = params.full_suite ? 4 : 1;

  // Allocated before the SPMD region so every place sees the same offsets.
  Congruent<double> ca{}, cb{}, cc{};
  if (congruent) {
    auto& space = Runtime::get().congruent();
    ca = space.alloc<double>(n);
    cb = space.alloc<double>(n);
    cc = space.alloc<double>(n);
  }

  const auto places = static_cast<std::size_t>(num_places());
  std::vector<std::vector<TimePoint>> starts(4, std::vector<TimePoint>(places));
  std::vector<std::vector<TimePoint>> stops(4, std::vector<TimePoint>(places));
  std::vector<char> place_ok(places, 0);
  std::mutex mu;

  PlaceGroup::world().broadcast([&] {
    auto& space = Runtime::get().congruent();
    std::vector<double> heap_a, heap_b, heap_c;
    double* a;
    double* b;
    double* c;
    if (congruent) {
      a = space.at_place(here(), ca);
      b = space.at_place(here(), cb);
      c = space.at_place(here(), cc);
    } else {
      heap_a.resize(n);
      heap_b.resize(n);
      heap_c.resize(n);
      a = heap_a.data();
      b = heap_b.data();
      c = heap_c.data();
    }
    // b[i] = 1 + i % 7 and c[i] = 2 + i % 3, from running residues.
    int mod7 = 0;
    int mod3 = 0;
    for (std::size_t i = 0; i < n; ++i) {
      a[i] = 0.0;
      b[i] = 1.0 + mod7;
      c[i] = 2.0 + mod3;
      if (++mod7 == 7) mod7 = 0;
      if (++mod3 == 3) mod3 = 0;
    }

    Team team = Team::world();
    bool ok = true;
    for (int op = 0; op < num_ops; ++op) {
      // The paper runs Triad; full_suite adds the other three STREAM ops.
      const int which = params.full_suite ? op : 3;
      team.barrier();
      const auto t0 = std::chrono::steady_clock::now();
      for (int it = 0; it < iters; ++it) {
        switch (which) {
          case 0:  // Copy: a = c
            for (std::size_t i = 0; i < n; ++i) a[i] = c[i];
            break;
          case 1:  // Scale: a = alpha * c
            for (std::size_t i = 0; i < n; ++i) a[i] = alpha * c[i];
            break;
          case 2:  // Add: a = b + c
            for (std::size_t i = 0; i < n; ++i) a[i] = b[i] + c[i];
            break;
          default:  // Triad: a = b + alpha * c
            for (std::size_t i = 0; i < n; ++i) a[i] = b[i] + alpha * c[i];
        }
      }
      const auto t1 = std::chrono::steady_clock::now();
      for (std::size_t i = 0; i < n; i += n / 64 + 1) {
        double expect = 0;
        switch (which) {
          case 0: expect = c[i]; break;
          case 1: expect = alpha * c[i]; break;
          case 2: expect = b[i] + c[i]; break;
          default: expect = b[i] + alpha * c[i];
        }
        if (std::abs(a[i] - expect) > 1e-12) ok = false;
      }
      std::scoped_lock lock(mu);
      starts[static_cast<std::size_t>(op)][static_cast<std::size_t>(here())] = t0;
      stops[static_cast<std::size_t>(op)][static_cast<std::size_t>(here())] = t1;
    }
    std::scoped_lock lock(mu);
    place_ok[static_cast<std::size_t>(here())] = ok ? 1 : 0;
  });

  StreamResult result;
  result.verified = true;
  for (char ok : place_ok) {
    if (!ok) result.verified = false;
  }
  auto gbs = [&](int op, double bytes_per_elem) {
    const double secs = span_seconds(starts[static_cast<std::size_t>(op)],
                                     stops[static_cast<std::size_t>(op)]);
    return bytes_per_elem * static_cast<double>(n) * iters * num_places() /
           secs / 1e9;
  };
  if (params.full_suite) {
    result.copy_gbs = gbs(0, 2.0 * sizeof(double));
    result.scale_gbs = gbs(1, 2.0 * sizeof(double));
    result.add_gbs = gbs(2, 3.0 * sizeof(double));
    result.seconds = span_seconds(starts[3], stops[3]);
    result.gb_per_sec_total = gbs(3, 3.0 * sizeof(double));
  } else {
    result.seconds = span_seconds(starts[0], stops[0]);
    result.gb_per_sec_total = gbs(0, 3.0 * sizeof(double));
  }
  result.gb_per_sec_per_place = result.gb_per_sec_total / num_places();
  return result;
}

}  // namespace kernels
