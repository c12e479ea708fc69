// Tests for RNG, timers, table/format helpers and the parallel_for task loop.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "tunespace/util/rng.hpp"
#include "tunespace/util/table.hpp"
#include "tunespace/util/timer.hpp"
#include "util/parallel_for.hpp"

using namespace tunespace::util;

TEST(RngTest, DeterministicForSeed) {
  Rng a(1), b(1), c(2);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
  bool differs = false;
  Rng a2(1);
  for (int i = 0; i < 100; ++i) differs |= (a2() != c());
  EXPECT_TRUE(differs);
}

TEST(RngTest, UniformIntBoundsInclusive) {
  Rng rng(5);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all values hit
}

TEST(RngTest, UniformRealInRange) {
  Rng rng(6);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(2.0, 3.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 3.0);
  }
}

TEST(RngTest, NormalMoments) {
  Rng rng(7);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(RngTest, SampleIndicesDistinct) {
  Rng rng(8);
  auto idx = rng.sample_indices(100, 30);
  EXPECT_EQ(idx.size(), 30u);
  std::set<std::size_t> unique(idx.begin(), idx.end());
  EXPECT_EQ(unique.size(), 30u);
  for (auto i : idx) EXPECT_LT(i, 100u);
}

TEST(RngTest, SampleIndicesMakesTheDenseShufflesDraws) {
  // The dense partial Fisher-Yates sample_indices must reproduce: same
  // picks in the same order, and the same generator state afterwards.
  const auto dense = [](Rng& rng, std::size_t n, std::size_t k) {
    std::vector<std::size_t> idx(n);
    for (std::size_t i = 0; i < n; ++i) idx[i] = i;
    for (std::size_t i = 0; i < k; ++i) std::swap(idx[i], idx[i + rng.index(n - i)]);
    idx.resize(k);
    return idx;
  };
  for (std::size_t n : {1u, 7u, 1000u, 389208u}) {
    for (std::size_t k : {std::size_t{0}, std::size_t{1}, n / 2, n}) {
      Rng a(n * 31 + k), b(n * 31 + k);
      EXPECT_EQ(a.sample_indices(n, k), dense(b, n, k)) << "n " << n << " k " << k;
      EXPECT_EQ(a(), b()) << "n " << n << " k " << k;
    }
  }
}

TEST(RngTest, ShufflePermutes) {
  Rng rng(9);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto orig = v;
  rng.shuffle(v);
  auto sorted = v;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, orig);
}

TEST(RngTest, SplitIndependentStreams) {
  Rng a(10);
  Rng b = a.split();
  EXPECT_NE(a(), b());
}

TEST(VirtualClockTest, Advances) {
  VirtualClock clock;
  EXPECT_EQ(clock.now(), 0.0);
  clock.advance(1.5);
  clock.advance(2.5);
  EXPECT_DOUBLE_EQ(clock.now(), 4.0);
  clock.reset();
  EXPECT_EQ(clock.now(), 0.0);
}

TEST(WallTimerTest, MeasuresElapsed) {
  WallTimer t;
  double x = 0;
  for (int i = 0; i < 100000; ++i) x += i;
  (void)x;
  EXPECT_GT(t.seconds(), 0.0);
}

TEST(TableTest, AlignedRender) {
  Table t({"name", "value"});
  t.add_row({"short", "1"});
  t.add_row({"a-much-longer-name", "23456"});
  const std::string s = t.str();
  EXPECT_NE(s.find("| name "), std::string::npos);
  EXPECT_NE(s.find("a-much-longer-name"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(TableTest, CsvQuoting) {
  Table t({"a", "b"});
  t.add_row({"with,comma", "with\"quote"});
  std::ostringstream ss;
  t.print_csv(ss);
  EXPECT_NE(ss.str().find("\"with,comma\""), std::string::npos);
  EXPECT_NE(ss.str().find("\"with\"\"quote\""), std::string::npos);
}

TEST(FormatTest, FmtSeconds) {
  EXPECT_EQ(fmt_seconds(0.0000005), "0.5 us");
  EXPECT_EQ(fmt_seconds(0.005), "5 ms");
  EXPECT_EQ(fmt_seconds(2.5), "2.5 s");
  EXPECT_EQ(fmt_seconds(7200.0), "2 h");
}

TEST(FormatTest, FmtCount) {
  EXPECT_EQ(fmt_count(0), "0");
  EXPECT_EQ(fmt_count(999), "999");
  EXPECT_EQ(fmt_count(1000), "1,000");
  EXPECT_EQ(fmt_count(2415919104ULL), "2,415,919,104");
}

TEST(FormatTest, FmtDouble) {
  EXPECT_EQ(fmt_double(3.14159, 3), "3.14");
  EXPECT_EQ(fmt_double(1000000.0, 4), "1e+06");
}

TEST(FormatTest, Sparkline) {
  const std::string s = sparkline({0, 1, 2, 3, 4, 5, 6, 7});
  EXPECT_FALSE(s.empty());
  EXPECT_TRUE(sparkline({}).empty());
  // Constant input renders at the lowest level without crashing.
  EXPECT_FALSE(sparkline({2, 2, 2}).empty());
}

// --- parallel_for -------------------------------------------------------------

TEST(ParallelForTest, EveryIndexRunsExactlyOnce) {
  for (std::size_t count : {0u, 1u, 2u, 3u, 7u, 64u, 1000u}) {
    for (std::size_t workers : {0u, 1u, 2u, 3u, 4u, 8u, 16u}) {
      std::vector<std::atomic<int>> runs(count);
      const std::size_t used = parallel_for(
          count, workers, [&](std::size_t, std::size_t i) { runs[i].fetch_add(1); });
      EXPECT_EQ(used, std::min(std::max<std::size_t>(workers, 1), count))
          << count << " indices, " << workers << " workers";
      for (std::size_t i = 0; i < count; ++i) {
        EXPECT_EQ(runs[i].load(), 1) << "index " << i << " of " << count << ", "
                                     << workers << " workers";
      }
    }
  }
}

TEST(ParallelForTest, WorkerIdsStayBelowTheReturnedCount) {
  for (std::size_t workers : {1u, 2u, 4u, 8u}) {
    std::vector<std::size_t> worker_of(200);
    const std::size_t used = parallel_for(
        worker_of.size(), workers,
        [&](std::size_t w, std::size_t i) { worker_of[i] = w; });
    EXPECT_EQ(used, workers);
    for (std::size_t w : worker_of) EXPECT_LT(w, used);
  }
}

TEST(ParallelForTest, OneWorkerRunsOnTheCallingThread) {
  const std::thread::id caller = std::this_thread::get_id();
  // One worker requested, and more workers requested than indices exist.
  for (auto [count, workers] : {std::pair<std::size_t, std::size_t>{5, 1}, {1, 8}}) {
    std::vector<std::thread::id> ran_on(count);
    const std::size_t used =
        parallel_for(count, workers, [&](std::size_t w, std::size_t i) {
          EXPECT_EQ(w, 0u);
          ran_on[i] = std::this_thread::get_id();
        });
    EXPECT_EQ(used, 1u);
    for (const std::thread::id& id : ran_on) EXPECT_EQ(id, caller);
  }
}

TEST(ParallelForTest, ExceptionStopsNewIndicesInline) {
  std::vector<std::size_t> started;
  EXPECT_THROW(parallel_for(100, 1,
                            [&](std::size_t, std::size_t i) {
                              started.push_back(i);
                              if (i == 5) throw std::runtime_error("index 5");
                            }),
               std::runtime_error);
  EXPECT_EQ(started, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5}));
}

// Index 0 throws while other workers are mid-index.  Its worker must start
// no further index, and the exception must reach the caller only after the
// indices in flight on the other workers have finished and their threads
// joined.
TEST(ParallelForTest, ExceptionArrivesAfterEveryThreadJoined) {
  constexpr std::size_t kWorkers = 4;
  constexpr std::size_t kCount = 1000;
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> thrown{false};
  std::atomic<int> in_flight{0};
  std::atomic<std::size_t> others_started{0};
  std::atomic<std::size_t> thrower{kWorkers};
  std::vector<std::vector<std::size_t>> started(kWorkers);  // per worker
  bool caught = false;
  try {
    parallel_for(kCount, kWorkers, [&](std::size_t w, std::size_t i) {
      started[w].push_back(i);
      ++in_flight;
      if (i == 0) {
        thrower = w;
        while (others_started == 0) std::this_thread::yield();
        thrown = true;
        --in_flight;
        throw std::runtime_error("index 0");
      }
      ++others_started;
      while (!thrown) std::this_thread::yield();
      // Indices on started threads outlast the calling thread's, so an
      // exception rethrown before the join would find them still running.
      if (std::this_thread::get_id() != caller) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
      --in_flight;
    });
  } catch (const std::runtime_error& e) {
    caught = true;
    EXPECT_STREQ(e.what(), "index 0");
    EXPECT_EQ(in_flight, 0);  // nothing still running
  }
  ASSERT_TRUE(caught);
  ASSERT_LT(thrower, kWorkers);
  EXPECT_EQ(started[thrower], (std::vector<std::size_t>{0}));
  std::size_t total = 0;
  for (const auto& indices : started) total += indices.size();
  EXPECT_LT(total, kCount);
}
