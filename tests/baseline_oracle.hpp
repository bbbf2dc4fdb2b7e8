#pragma once

#include <gtest/gtest.h>

#include <initializer_list>
#include <memory>
#include <string>
#include <utility>

#include "study/study.hpp"

/// \file baseline_oracle.hpp
/// The differential check shared by the batched-drain sweeps
/// (test_ops.cpp, test_batch_engine.cpp, test_parallel.cpp): a composed
/// scenario's batched equivalent run against the event-driven baseline,
/// the independent oracle of the paper's accuracy claim.

namespace maxev {

/// Run the batched equivalent model of \p composed with the per-group
/// drain at each of \p threads (the first is the reference; 1 by
/// default). Every run must reproduce the baseline's instants in both
/// directions and its sorted usage bit for bit, and every later run must do
/// exactly the work of the first one (instances, arc terms, relation
/// events, kernel events).
inline void expect_batched_matches_baseline(
    const study::Scenario& composed, const std::string& ctx,
    std::initializer_list<int> threads_list = {1, 2, 8}) {
  auto baseline = study::Backend::baseline().instantiate(composed);
  ASSERT_TRUE(baseline->run().completed) << ctx;
  trace::UsageTraceSet baseline_usage = baseline->usage();
  baseline_usage.sort_all();

  std::unique_ptr<study::Model> serial;
  for (const int threads : threads_list) {
    const std::string at = ctx + " t" + std::to_string(threads);
    study::RunConfig rc;  // batch_composed defaults to true
    rc.threads = threads;
    auto eq = study::Backend::equivalent().instantiate(composed, rc);
    ASSERT_TRUE(eq->run().completed) << at;

    EXPECT_EQ(trace::compare_instants(baseline->instants(), eq->instants()),
              std::nullopt)
        << at;
    EXPECT_EQ(trace::compare_instants(eq->instants(), baseline->instants()),
              std::nullopt)
        << at;
    trace::UsageTraceSet usage = eq->usage();
    usage.sort_all();
    EXPECT_EQ(trace::compare_usage(baseline_usage, usage), std::nullopt) << at;

    if (serial == nullptr) {
      serial = std::move(eq);
      continue;
    }
    EXPECT_EQ(serial->end_time(), eq->end_time()) << at;
    EXPECT_EQ(serial->relation_events(), eq->relation_events()) << at;
    EXPECT_EQ(serial->instances_computed(), eq->instances_computed()) << at;
    EXPECT_EQ(serial->arc_terms_evaluated(), eq->arc_terms_evaluated()) << at;
    EXPECT_EQ(serial->kernel_stats().events_scheduled,
              eq->kernel_stats().events_scheduled)
        << at;
    EXPECT_EQ(serial->kernel_stats().resumes, eq->kernel_stats().resumes)
        << at;
    EXPECT_EQ(serial->kernel_stats().inline_resumes,
              eq->kernel_stats().inline_resumes)
        << at;
  }
}

}  // namespace maxev
