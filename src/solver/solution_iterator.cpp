#include "tunespace/solver/solution_iterator.hpp"

#include "backtracking_core.hpp"

namespace tunespace::solver {

struct SolutionIterator::Impl {
  detail::SearchPlan plan;
  std::unique_ptr<detail::BacktrackingEngine> engine;
  SolveStats stats;  // preprocessing effort (unused further, kept for symmetry)
};

SolutionIterator::SolutionIterator(csp::Problem& problem, OptimizedOptions options)
    : impl_(std::make_unique<Impl>()), problem_(&problem) {
  impl_->plan = detail::build_plan(problem, options, impl_->stats);
  impl_->engine =
      std::make_unique<detail::BacktrackingEngine>(impl_->plan, impl_->plan.order);
}

SolutionIterator::~SolutionIterator() = default;
SolutionIterator::SolutionIterator(SolutionIterator&&) noexcept = default;
SolutionIterator& SolutionIterator::operator=(SolutionIterator&&) noexcept = default;

const std::vector<std::uint32_t>* SolutionIterator::next() {
  if (!impl_->engine->next()) return nullptr;
  ++count_;
  return &impl_->engine->row();
}

std::optional<csp::Config> SolutionIterator::next_config() {
  const std::vector<std::uint32_t>* row = next();
  if (!row) return std::nullopt;
  csp::Config config;
  config.reserve(row->size());
  for (std::size_t v = 0; v < row->size(); ++v) {
    config.push_back(problem_->domain(v)[(*row)[v]]);
  }
  return config;
}

}  // namespace tunespace::solver
