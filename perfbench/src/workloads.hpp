#pragma once
// The benchmark's workloads.  Each runs its set-up kSetupRepetitions times,
// then a closed loop for Options::seconds, checks every output, and fills a
// Report: the end-to-end metrics untraced, the per-layer metrics traced.

#include "common.hpp"

namespace perfbench {

/// `construct`: cold SearchSpace builds of the Table 2 and synthetic specs.
Report run_construct(const Options& options);
/// `tune`: closed-loop run_session over prebuilt spaces.
Report run_tune(const Options& options);
/// `service`: 2 frame + 2 HTTP/1.1 clients against an in-process server.
Report run_service(const Options& options);

}  // namespace perfbench
