#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "baseline_oracle.hpp"
#include "gen/didactic.hpp"
#include "gen/random_arch.hpp"
#include "lte/receiver.hpp"
#include "model/desc.hpp"
#include "study/study.hpp"
#include "trace/instants.hpp"
#include "trace/usage.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

/// The threading layer (docs/DESIGN.md §11): util::ThreadPool semantics,
/// and the determinism contract of both parallelism levers — a
/// thread-parallel study matrix must be bit-identical to the serial one,
/// and parallel per-group batch drains must reproduce the event-driven
/// baseline with the one-thread drain's work, run after run.

namespace maxev {
namespace {

using study::Backend;
using study::Report;
using study::RunConfig;
using study::Scenario;
using study::StudyOptions;

// ------------------------------------------------------------- ThreadPool

TEST(ThreadPoolTest, RunsEveryIndexExactlyOnce) {
  util::ThreadPool pool(3);
  EXPECT_EQ(pool.worker_count(), 3u);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(kN, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPoolTest, ZeroAndOneIndexDegenerate) {
  util::ThreadPool pool(2);
  int calls = 0;
  pool.parallel_for(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.parallel_for(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPoolTest, ClampsZeroWorkersToOne) {
  util::ThreadPool pool(0);
  EXPECT_EQ(pool.worker_count(), 1u);
  std::atomic<int> calls{0};
  pool.parallel_for(8, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 8);
}

TEST(ThreadPoolTest, LowestIndexExceptionWins) {
  util::ThreadPool pool(4);
  // Several indices throw; completion order is scheduling noise, but the
  // rethrown exception must always be index 3's.
  for (int round = 0; round < 20; ++round) {
    try {
      pool.parallel_for(64, [&](std::size_t i) {
        if (i == 3 || i == 40 || i == 63)
          throw std::runtime_error("idx " + std::to_string(i));
      });
      FAIL() << "parallel_for swallowed the exceptions";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "idx 3");
    }
  }
}

TEST(ThreadPoolTest, ExceptionDoesNotAbandonOtherIndices) {
  util::ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(32);
  EXPECT_THROW(pool.parallel_for(32,
                                 [&](std::size_t i) {
                                   hits[i].fetch_add(1);
                                   if (i == 0) throw std::runtime_error("x");
                                 }),
               std::runtime_error);
  // Every index still ran (the barrier completes before rethrowing).
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPoolTest, NestedParallelForCompletes) {
  // A pool task fanning out again must not deadlock even when every worker
  // is occupied by the outer level: the nested caller claims and runs its
  // own indices.
  util::ThreadPool pool(2);
  std::atomic<int> inner{0};
  pool.parallel_for(8, [&](std::size_t) {
    pool.parallel_for(8, [&](std::size_t) { inner.fetch_add(1); });
  });
  EXPECT_EQ(inner.load(), 64);
}

TEST(ThreadPoolTest, SubmitRunsAndPropagatesExceptions) {
  util::ThreadPool pool(2);
  auto ok = pool.submit([] {});
  auto bad = pool.submit([] { throw std::runtime_error("task failed"); });
  EXPECT_NO_THROW(ok.get());
  EXPECT_THROW(bad.get(), std::runtime_error);
}

TEST(ThreadPoolTest, ShutdownDrainsOutstandingTasks) {
  std::atomic<int> ran{0};
  std::vector<std::future<void>> futures;
  {
    util::ThreadPool pool(2);
    for (int i = 0; i < 16; ++i)
      futures.push_back(pool.submit([&] { ran.fetch_add(1); }));
    // Destructor joins: every submitted task ran before it returns.
  }
  EXPECT_EQ(ran.load(), 16);
  for (auto& f : futures) EXPECT_NO_THROW(f.get());
}

TEST(ThreadPoolTest, ResolveMapsKnobToWorkerCount) {
  EXPECT_EQ(util::ThreadPool::resolve(1), 1u);
  EXPECT_EQ(util::ThreadPool::resolve(7), 7u);
  EXPECT_GE(util::ThreadPool::resolve(0), 1u);  // 0 = hardware concurrency
}

// ------------------------------------------------- determinism: the matrix

/// Blank the wall-clock-dependent fields; everything else in a report must
/// be bit-identical across thread counts and repeated runs.
Report blank_walls(Report rep) {
  for (study::Cell& c : rep.cells) {
    c.metrics.wall_seconds = 0.0;
    c.speedup_vs_reference = c.is_reference ? 1.0 : 0.0;
  }
  return rep;
}

/// A small but representative matrix: a solo didactic scenario plus a
/// composed two-sub-batch scenario, against baseline + equivalent.
study::Study matrix_study() {
  study::Study st;
  gen::DidacticConfig cfg;
  cfg.tokens = 20;
  st.add(Scenario("didactic", gen::make_didactic(cfg)));

  gen::DidacticConfig ca;
  ca.tokens = 15;
  gen::DidacticConfig cb;
  cb.tokens = 25;
  const auto a = model::share(gen::make_didactic(ca));
  const auto b = model::share(gen::make_didactic(cb));
  std::vector<Scenario> parts;
  parts.emplace_back("a0", a);
  parts.emplace_back("b0", b);
  parts.emplace_back("a1", a);
  parts.emplace_back("b1", b);
  st.add(study::compose("mix22", parts));

  st.add(Backend::baseline());
  st.add(Backend::equivalent());
  return st;
}

TEST(ParallelStudyTest, RepeatedRunsMatchSerialByteForByte) {
  const study::Study st = matrix_study();
  StudyOptions opts;
  const Report ref = blank_walls(st.run(opts));
  const std::string ref_json = ref.to_json();

  for (const int threads : {2, 8}) {
    opts.threads = threads;
    opts.group_threads = threads;
    for (int round = 0; round < 3; ++round) {
      const Report rep = blank_walls(st.run(opts));
      EXPECT_EQ(rep.to_json(), ref_json)
          << "threads=" << threads << " round=" << round;
    }
  }
}

TEST(ParallelStudyTest, PerCellKernelStatsAreIndependent) {
  // Each cell's counters come from that cell's own kernel; a parallel
  // measure phase must not leak or aggregate counts across cells.
  const study::Study st = matrix_study();
  StudyOptions opts;
  const Report serial = st.run(opts);
  opts.threads = 8;
  const Report parallel = st.run(opts);
  ASSERT_EQ(serial.cells.size(), parallel.cells.size());
  for (std::size_t i = 0; i < serial.cells.size(); ++i) {
    const study::Cell& s = serial.cells[i];
    const study::Cell& p = parallel.cells[i];
    EXPECT_EQ(s.scenario, p.scenario);
    EXPECT_EQ(s.backend, p.backend);
    EXPECT_EQ(s.metrics.kernel_events, p.metrics.kernel_events) << s.scenario;
    EXPECT_EQ(s.metrics.resumes, p.metrics.resumes) << s.scenario;
    EXPECT_EQ(s.metrics.relation_events, p.metrics.relation_events)
        << s.scenario;
    EXPECT_EQ(s.metrics.instances_computed, p.metrics.instances_computed)
        << s.scenario;
    EXPECT_EQ(s.metrics.arc_terms, p.metrics.arc_terms) << s.scenario;
    EXPECT_EQ(s.metrics.sim_end, p.metrics.sim_end) << s.scenario;
  }
}

TEST(ParallelStudyTest, OptionErrorsIdenticalAtAnyThreadCount) {
  gen::DidacticConfig cfg;
  cfg.tokens = 25;
  study::Study st;
  st.add(Scenario("didactic", gen::make_didactic(cfg)));
  st.add(Backend::baseline());
  for (const int threads : {1, 8}) {
    StudyOptions opts;
    opts.threads = threads;
    opts.repetitions = -1;  // invalid: must throw identically at any setting
    EXPECT_THROW((void)st.run(opts), Error) << "threads=" << threads;
    opts.repetitions = 1;
    EXPECT_TRUE(st.run(opts).cells[0].metrics.completed)
        << "threads=" << threads;
  }
}

// ------------------------------------- determinism: per-group batch drains

/// The carrier-aggregation workload: 4+4 LTE receivers of two carrier
/// variants — two equal-structure sub-batches in one kernel.
Scenario lte_4p4() {
  lte::ReceiverConfig c1;
  c1.symbols = 2 * lte::kSymbolsPerSubframe;
  c1.seed = 7;
  lte::ReceiverConfig c2;
  c2.symbols = 3 * lte::kSymbolsPerSubframe;
  c2.seed = 8;
  c2.dsp_ops_per_second = 9e9;
  const auto rx1 = model::share(lte::make_receiver(c1));
  const auto rx2 = model::share(lte::make_receiver(c2));
  std::vector<Scenario> parts;
  for (int i = 0; i < 4; ++i) {
    parts.emplace_back("cc0rx" + std::to_string(i), rx1);
    parts.emplace_back("cc1rx" + std::to_string(i), rx2);
  }
  return study::compose("ca44", parts);
}

// Every run is checked against the event-driven baseline, and the threaded
// drains must do exactly the work of the one-thread drain
// (expect_batched_matches_baseline).

TEST(ParallelDrainTest, LteFourPlusFourMatchesSerial) {
  const Scenario mixed = lte_4p4();
  ASSERT_EQ(mixed.batch_groups().size(), 2u);
  expect_batched_matches_baseline(mixed, "ca44", {1, 2, 4, 8});
}

TEST(ParallelDrainTest, RepeatedRunsAreStable) {
  // The stress round: the parallel drain re-run N times must keep
  // producing the baseline traces (a scheduling-order sensitivity would
  // show up as flaky inequality here, and as a race under the TSan CI job).
  const Scenario mixed = lte_4p4();
  for (int round = 0; round < 5; ++round)
    expect_batched_matches_baseline(mixed, "round " + std::to_string(round),
                                    {1, 4});
}

TEST(ParallelDrainTest, RandomArchGroupsMatchSerial) {
  gen::RandomArchConfig cfg;
  cfg.tokens = 25;
  cfg.multi_rate_producer_probability = 0.4;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const auto a = model::share(gen::make_random_architecture(seed, cfg));
    const auto b =
        model::share(gen::make_random_architecture(seed + 100, cfg));
    std::vector<Scenario> parts;
    parts.emplace_back("a0", a);
    parts.emplace_back("b0", b);
    parts.emplace_back("a1", a);
    parts.emplace_back("b1", b);
    const Scenario mixed = study::compose("rmix", parts);
    expect_batched_matches_baseline(mixed, "seed " + std::to_string(seed),
                                    {1, 2});
  }
}

TEST(ParallelDrainTest, SingleGroupDrainsOnTheCallingThread) {
  // A homogeneous composition has one sub-batch: threads > 1 starts no
  // pool (nothing to overlap) and must still be exact.
  gen::DidacticConfig cfg;
  cfg.tokens = 30;
  const auto d = model::share(gen::make_didactic(cfg));
  std::vector<Scenario> parts;
  parts.emplace_back("i0", d);
  parts.emplace_back("i1", d);
  parts.emplace_back("i2", d);
  const Scenario homo = study::compose("homo3", parts);
  ASSERT_EQ(homo.batch_groups().size(), 1u);
  expect_batched_matches_baseline(homo, "homo3", {1, 8});
}

// ------------------------------------------------- both levers stacked

TEST(ParallelStudyTest, MatrixAndGroupThreadsCompose) {
  // threads (cells) on top of group_threads (drains inside each composed
  // cell): the nested fan-out exercises ThreadPool reentrancy on real
  // work, and the report must still match the all-serial bytes.
  study::Study st;
  st.add(lte_4p4());
  st.add(Backend::baseline());
  st.add(Backend::equivalent());

  StudyOptions opts;
  const std::string ref_json = blank_walls(st.run(opts)).to_json();
  opts.threads = 4;
  opts.group_threads = 4;
  const std::string par_json = blank_walls(st.run(opts)).to_json();
  EXPECT_EQ(par_json, ref_json);
}

}  // namespace
}  // namespace maxev
