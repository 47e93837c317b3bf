// Betweenness Centrality (paper §7): Brandes' algorithm on an undirected
// R-MAT graph, the graph replicated at every place and the source vertices
// randomly partitioned across places (per-source computations are local and
// independent). The paper later rebuilt this on GLB [43]; both variants are
// provided so the bench can compare static partitioning against dynamic
// balancing, including the imbalance the paper attributes to variable
// per-source cost.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "glb/glb.h"
#include "kernels/util/rmat.h"

namespace kernels {

struct BcParams {
  RmatParams graph;
  std::int64_t sources = -1;  ///< number of sources (-1 = all vertices)
  bool use_glb = false;       ///< dynamic (GLB [43]) vs static partitioning
  glb::GlbConfig glb;
  std::uint64_t perm_seed = 0xbcbcULL;  ///< source permutation (paper: random
                                        ///< partition mitigates imbalance)
};

struct BcResult {
  double seconds = 0;
  std::int64_t edges_traversed = 0;
  double medges_per_sec = 0;
  double medges_per_sec_per_place = 0;
  std::vector<double> centrality;  ///< summed over all places
  /// True when the run traversed at least one edge. A liveness check only:
  /// the centralities are not compared here, because recomputing them costs
  /// as much as the run. Callers that check them (bench_bc, perfbench)
  /// compare `centrality` with brandes_source over bc_sources().
  bool verified = false;
};

BcResult bc_run(const BcParams& params);

/// The sources bc_run processes on a graph of `num_vertices` vertices: the
/// first params.sources (all when -1) of a random permutation seeded by
/// params.perm_seed, in the order the static partition deals them out.
std::vector<std::int32_t> bc_sources(const BcParams& params,
                                     std::int64_t num_vertices);

/// Brandes' dependency accumulation for one source; adds into `centrality`
/// and returns the number of edges traversed.
std::int64_t brandes_source(const CsrGraph& g, std::int32_t source,
                            std::vector<double>& centrality);

/// Reference O(V^3)-ish centrality via per-source BFS path counting, for
/// tiny graphs in tests.
std::vector<double> bc_reference(const CsrGraph& g);

}  // namespace kernels
