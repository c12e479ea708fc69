#include "tunespace/tuner/runner.hpp"

#include <algorithm>

namespace tunespace::tuner {

double TuningRun::best_at(double time) const {
  // Contract: a point exactly at `time` is included (<=, not <); with an
  // empty trajectory or `time` before the first improvement the answer is 0.
  double best = 0;
  for (const auto& pt : trajectory) {
    if (pt.time_seconds > time) break;
    best = pt.best_gflops;
  }
  return best;
}

std::vector<ParetoPoint> TuningRun::pareto() const {
  std::vector<ParetoPoint> sorted = front;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [this](const ParetoPoint& a, const ParetoPoint& b) {
                     const double sa = objectives.scalarize(a.measurement);
                     const double sb = objectives.scalarize(b.measurement);
                     if (sa != sb) return sa > sb;
                     return a.row < b.row;
                   });
  return sorted;
}

}  // namespace tunespace::tuner
