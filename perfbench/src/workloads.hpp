#pragma once

#include <string>

#include "harness.hpp"

/// \file workloads.hpp
/// The four benchmark workloads. Every workload emits the same metric
/// names; a layer a workload never reaches reports 0, so "this layer is
/// bypassed here" is a measured fact, not a missing row.

namespace perf {

struct Outcome {
  Metrics metrics;
  Gate gate;
  std::string summary;  ///< one line on how much was measured
};

/// lte-varying, lte-steady or carriers-batch.
void run_model_workload(const RunOptions& o, Tracer& tracer, Outcome& out);
/// serve-stream.
void run_serve_workload(const RunOptions& o, Tracer& tracer, Outcome& out);

/// Zero the serve/util metrics on workloads that never reach them.
void set_bypassed_serve(Metrics& m);

}  // namespace perf
