#pragma once
// Chain-of-trees construction (Rasch et al., the ATF / pyATF / KTT / BaCO
// method the paper compares against).
//
// Method (paper §1/§3): parameters are grouped by interdependence — two
// parameters belong to the same group if they co-occur in any constraint's
// scope (transitively; computed with a union-find over constraint scopes).
// For each group a search tree over the group's parameters (in declaration
// order, matching ATF's "constraints only reference previously defined
// parameters" convention) encodes all valid intra-group combinations; a
// constraint is checked at the tree depth where its scope completes.  The
// trees are then linked into a chain: the full search space is the cross
// product of the per-group valid combinations, which this implementation
// materializes into the common SolutionSet representation.
//
// The tree is built with explicit heap nodes (parent/child links) to model
// the allocation behaviour of the real data structure; this is what makes
// the method shine on very sparse spaces (tiny trees) and lag on dense ones
// (the tree degenerates into the full product, as Fig. 3 shows for pyATF).
//
// The ATF-vs-pyATF performance split is modelled by the evaluation mode of
// the constraints in the Problem (compiled specific constraints vs
// interpreted Function constraints); see tuner/pipeline.hpp.  Like the
// originals it models, the construction is sequential.

#include "tunespace/solver/solver.hpp"

namespace tunespace::solver {

/// Chain-of-trees solver.
class ChainOfTrees : public Solver {
 public:
  /// `display_name` lets benchmarks register the same algorithm twice
  /// ("ATF" with compiled constraints, "pyATF" with interpreted ones).
  ///
  /// `model_interpreter_overhead` reproduces the Python-implementation data
  /// flow of pyATF: the tree descent threads a name-keyed configuration
  /// dictionary through every node (rebuilt per visited node, as the Python
  /// version does with its per-node dict handling), instead of touching a
  /// dense value array.  Combined with interpreted constraint evaluation
  /// this models the ATF-vs-pyATF performance split of Figs. 3 and 5.
  explicit ChainOfTrees(std::string display_name = "chain-of-trees",
                        bool model_interpreter_overhead = false)
      : name_(std::move(display_name)),
        interpreter_overhead_(model_interpreter_overhead ||
                              name_ == "pyATF") {}

  std::string name() const override { return name_; }
  SolveResult solve(csp::Problem& problem) const override;

  /// Per-group statistics from the last tree build (exposed for tests and
  /// the ablation bench).
  struct GroupInfo {
    std::vector<std::size_t> variables;  ///< global indices, declaration order
    std::size_t tree_nodes = 0;          ///< nodes in the group's tree
    std::size_t combinations = 0;        ///< valid leaf count
  };

  /// Compute interdependence groups for a problem (also used by tests).
  static std::vector<std::vector<std::size_t>> interdependence_groups(
      const csp::Problem& problem);

 private:
  std::string name_;
  bool interpreter_overhead_;
};

}  // namespace tunespace::solver
