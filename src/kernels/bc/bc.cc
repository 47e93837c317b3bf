#include "kernels/bc/bc.h"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <random>

#include "runtime/api.h"
#include "runtime/place_group.h"
#include "runtime/team.h"

namespace kernels {

std::int64_t brandes_source(const CsrGraph& g, std::int32_t source,
                            std::vector<double>& centrality) {
  const auto v = static_cast<std::size_t>(g.num_vertices);
  std::vector<std::int64_t> sigma(v, 0);
  std::vector<std::int32_t> dist(v, -1);
  std::vector<double> delta(v, 0.0);
  std::vector<std::int32_t> order;
  order.reserve(v);

  sigma[static_cast<std::size_t>(source)] = 1;
  dist[static_cast<std::size_t>(source)] = 0;
  order.push_back(source);
  std::int64_t edges = 0;

  // Forward BFS: shortest-path counts.
  for (std::size_t head = 0; head < order.size(); ++head) {
    const std::int32_t u = order[head];
    const auto lo = static_cast<std::size_t>(g.offsets[static_cast<std::size_t>(u)]);
    const auto hi = static_cast<std::size_t>(g.offsets[static_cast<std::size_t>(u) + 1]);
    edges += static_cast<std::int64_t>(hi - lo);
    for (std::size_t e = lo; e < hi; ++e) {
      const std::int32_t w = g.adjacency[e];
      if (dist[static_cast<std::size_t>(w)] < 0) {
        dist[static_cast<std::size_t>(w)] = dist[static_cast<std::size_t>(u)] + 1;
        order.push_back(w);
      }
      if (dist[static_cast<std::size_t>(w)] ==
          dist[static_cast<std::size_t>(u)] + 1) {
        sigma[static_cast<std::size_t>(w)] += sigma[static_cast<std::size_t>(u)];
      }
    }
  }

  // Backward dependency accumulation.
  for (std::size_t i = order.size(); i-- > 1;) {
    const std::int32_t w = order[i];
    const auto lo = static_cast<std::size_t>(g.offsets[static_cast<std::size_t>(w)]);
    const auto hi = static_cast<std::size_t>(g.offsets[static_cast<std::size_t>(w) + 1]);
    for (std::size_t e = lo; e < hi; ++e) {
      const std::int32_t u = g.adjacency[e];
      if (dist[static_cast<std::size_t>(u)] + 1 ==
          dist[static_cast<std::size_t>(w)]) {
        delta[static_cast<std::size_t>(u)] +=
            static_cast<double>(sigma[static_cast<std::size_t>(u)]) /
            static_cast<double>(sigma[static_cast<std::size_t>(w)]) *
            (1.0 + delta[static_cast<std::size_t>(w)]);
      }
    }
    centrality[static_cast<std::size_t>(w)] += delta[static_cast<std::size_t>(w)];
  }
  return edges;
}

std::vector<double> bc_reference(const CsrGraph& g) {
  std::vector<double> centrality(static_cast<std::size_t>(g.num_vertices), 0.0);
  for (std::int32_t s = 0; s < g.num_vertices; ++s) {
    brandes_source(g, s, centrality);
  }
  return centrality;
}

namespace {

/// GLB work bag: intervals over the permuted source list; processing one
/// unit runs Brandes for one source into this place's accumulator.
class BcBag {
 public:
  struct Shared {
    const CsrGraph* graph = nullptr;
    const std::vector<std::int32_t>* sources = nullptr;
    std::vector<std::vector<double>>* acc = nullptr;  // per place
    std::vector<std::int64_t>* edges = nullptr;       // per place
  };

  BcBag() = default;
  BcBag(std::shared_ptr<Shared> sh, std::int64_t lo, std::int64_t hi)
      : shared_(std::move(sh)) {
    if (lo < hi) ranges_.emplace_back(lo, hi);
  }

  std::size_t process(std::size_t n) {
    std::size_t done = 0;
    const int p = apgas::here();
    while (done < n && !ranges_.empty()) {
      auto& [lo, hi] = ranges_.back();
      const std::int32_t src = (*shared_->sources)[static_cast<std::size_t>(lo)];
      (*shared_->edges)[static_cast<std::size_t>(p)] += brandes_source(
          *shared_->graph, src, (*shared_->acc)[static_cast<std::size_t>(p)]);
      if (++lo >= hi) ranges_.pop_back();
      ++done;
    }
    return done;
  }

  BcBag split() {
    BcBag stolen;
    stolen.shared_ = shared_;
    for (auto& [lo, hi] : ranges_) {
      const std::int64_t len = hi - lo;
      if (len < 2) continue;
      const std::int64_t take = len / 2;
      stolen.ranges_.emplace_back(hi - take, hi);
      hi -= take;
    }
    return stolen;
  }

  void merge(BcBag&& other) {
    if (!shared_) shared_ = other.shared_;
    ranges_.insert(ranges_.end(), other.ranges_.begin(), other.ranges_.end());
    other.ranges_.clear();
  }

  [[nodiscard]] bool empty() const { return ranges_.empty(); }
  [[nodiscard]] std::size_t size() const {
    std::size_t total = 0;
    for (const auto& [lo, hi] : ranges_) total += static_cast<std::size_t>(hi - lo);
    return total;
  }

  // Ser hooks: only the interval list has a wire form. The Shared block is
  // pointers into bc_run's stack — the shared-memory accumulator model the
  // kernel is built on — so a deserialized bag re-attaches the process-local
  // block instead. That keeps in-process GLB frames working; BC-over-GLB
  // stays a single-process workload by design (docs/transport.md).
  inline static std::shared_ptr<Shared> process_shared;

  void ser_put(x10rt::ByteBuffer& b) const {
    x10rt::Ser<decltype(ranges_)>::put(b, ranges_);
  }
  static BcBag ser_get(x10rt::ByteBuffer& b) {
    BcBag bag;
    bag.ranges_ = x10rt::Ser<decltype(ranges_)>::get(b);
    bag.shared_ = process_shared;
    return bag;
  }

 private:
  std::shared_ptr<Shared> shared_;
  std::vector<std::pair<std::int64_t, std::int64_t>> ranges_;
};

}  // namespace

std::vector<std::int32_t> bc_sources(const BcParams& params,
                                     std::int64_t num_vertices) {
  // Random source permutation (the paper randomizes the partition to
  // mitigate per-vertex cost imbalance).
  std::vector<std::int32_t> sources(static_cast<std::size_t>(num_vertices));
  std::iota(sources.begin(), sources.end(), 0);
  std::mt19937_64 rng(params.perm_seed);
  std::shuffle(sources.begin(), sources.end(), rng);
  if (params.sources >= 0 && params.sources < num_vertices) {
    sources.resize(static_cast<std::size_t>(params.sources));
  }
  return sources;
}

BcResult bc_run(const BcParams& params) {
  using namespace apgas;
  const int places = num_places();

  // The paper replicates the graph in every place; sharing one read-only
  // copy in-process models that (DESIGN.md §2).
  const CsrGraph graph = rmat_generate(params.graph);
  const std::int64_t v = graph.num_vertices;
  const std::vector<std::int32_t> sources = bc_sources(params, v);
  const auto nsources = static_cast<std::int64_t>(sources.size());

  std::vector<std::vector<double>> acc(
      static_cast<std::size_t>(places),
      std::vector<double>(static_cast<std::size_t>(v), 0.0));
  std::vector<std::int64_t> edges(static_cast<std::size_t>(places), 0);

  const auto t0 = std::chrono::steady_clock::now();
  if (params.use_glb) {
    auto shared = std::make_shared<BcBag::Shared>();
    shared->graph = &graph;
    shared->sources = &sources;
    shared->acc = &acc;
    shared->edges = &edges;
    BcBag::process_shared = shared;  // re-attach point for deserialized bags
    glb::Glb<BcBag> balancer(params.glb);
    balancer.run(BcBag(shared, 0, nsources));
    BcBag::process_shared.reset();
  } else {
    // Static partition: place p owns an equal chunk of the permuted list.
    const std::int64_t chunk = (nsources + places - 1) / places;
    PlaceGroup::world().broadcast([&] {
      const int p = here();
      const std::int64_t lo = p * chunk;
      const std::int64_t hi = std::min<std::int64_t>(nsources, lo + chunk);
      for (std::int64_t i = lo; i < hi; ++i) {
        edges[static_cast<std::size_t>(p)] += brandes_source(
            graph, sources[static_cast<std::size_t>(i)],
            acc[static_cast<std::size_t>(p)]);
      }
    });
  }
  const auto t1 = std::chrono::steady_clock::now();

  BcResult result;
  result.seconds = std::chrono::duration<double>(t1 - t0).count();
  result.centrality.assign(static_cast<std::size_t>(v), 0.0);
  for (int p = 0; p < places; ++p) {
    result.edges_traversed += edges[static_cast<std::size_t>(p)];
    for (std::int64_t i = 0; i < v; ++i) {
      result.centrality[static_cast<std::size_t>(i)] +=
          acc[static_cast<std::size_t>(p)][static_cast<std::size_t>(i)];
    }
  }
  result.medges_per_sec =
      static_cast<double>(result.edges_traversed) / result.seconds / 1e6;
  result.medges_per_sec_per_place = result.medges_per_sec / places;
  result.verified = result.edges_traversed > 0;
  return result;
}

}  // namespace kernels
