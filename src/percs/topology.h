// Machine model of the Power 775 (PERCS) two-level direct-connect topology
// (paper §4, [2]).
//
// Hierarchy: 32 cores per octant (host), 8 octants per drawer, 4 drawers per
// supernode. Links: "LL" between octants of one drawer (24 GB/s each way),
// "LR" between octants of different drawers in one supernode (5 GB/s), and
// eight parallel "D" links between every pair of supernodes (80 GB/s
// combined). Direct-striped routing: intra-supernode traffic takes one L
// link; inter-supernode traffic takes L-D-L (at most three hops).
#pragma once

#include <cassert>

namespace percs {

enum class LinkType {
  kSameOctant,  // no network traversal
  kLL,          // L-local: same drawer
  kLR,          // L-remote: same supernode, different drawer
  kD,           // inter-supernode
};

struct MachineShape {
  int cores_per_octant = 32;
  int octants_per_drawer = 8;
  int drawers_per_supernode = 4;
  int supernodes = 56;  // full Hurcules configuration

  [[nodiscard]] int octants_per_supernode() const {
    return octants_per_drawer * drawers_per_supernode;
  }
  [[nodiscard]] int total_octants() const {
    return octants_per_supernode() * supernodes;
  }
  [[nodiscard]] int total_cores() const {
    return total_octants() * cores_per_octant;
  }
};

struct Coord {
  int supernode = 0;
  int drawer = 0;           // within the supernode
  int octant = 0;           // within the drawer
  int core = 0;             // within the octant

  friend bool operator==(const Coord&, const Coord&) = default;
};

/// Link peak bandwidths in GB/s per direction (paper §4).
struct LinkBandwidth {
  double ll = 24.0;
  double lr = 5.0;
  double d_combined = 80.0;  // eight parallel D links, spread traffic
};

class Machine {
 public:
  explicit Machine(MachineShape shape = {}) : shape_(shape) {}

  [[nodiscard]] const MachineShape& shape() const { return shape_; }

  /// Decomposes a global core (= place) index into machine coordinates,
  /// filling octants in core order as the paper's runs do (groups of 32).
  [[nodiscard]] Coord coord_of_core(long core) const;

  /// Global octant index of a core.
  [[nodiscard]] int octant_of_core(long core) const {
    return static_cast<int>(core / shape_.cores_per_octant);
  }

  /// Link class used between two octants under direct routing.
  [[nodiscard]] LinkType link(int octant_a, int octant_b) const;

  /// Number of network hops between two octants (0, 1, or 3: L-D-L).
  [[nodiscard]] int hops(int octant_a, int octant_b) const;

  /// Global index of the hierarchy domain containing `core` at `level`:
  /// level 0 = octant, 1 = drawer, 2 = supernode. Cores sharing the domain
  /// index at level L communicate without crossing a level-L+1 link (LL
  /// within a drawer, LR within a supernode, D across supernodes).
  [[nodiscard]] int domain_of_core(long core, int level) const;

  /// Smallest hierarchy level whose domain contains both cores: 0 = same
  /// octant (shared memory, no network), 1 = same drawer (LL), 2 = same
  /// supernode (LR), 3 = different supernodes (D links). The
  /// nearest-common-ancestor query of the two-level PERCS tree.
  [[nodiscard]] int common_level(long core_a, long core_b) const;

 private:
  MachineShape shape_;
};

/// Coord-level variant of Machine::common_level for already-decomposed
/// coordinates (0 octant / 1 drawer / 2 supernode / 3 machine).
[[nodiscard]] int common_level(const Coord& a, const Coord& b);

}  // namespace percs
