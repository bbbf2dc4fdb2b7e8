/// \file main.cpp
/// maxev_perf: runs one benchmark workload in this process and prints one
/// JSON document with every metric (name, value, unit), the correctness
/// gate's tallies and the host fingerprint.
///
///   maxev_perf --workload <lte-varying|lte-steady|carriers-batch|serve-stream>
///              --seed <n> --seconds <s> [--trace 0|1] [--trace-out <path>]
///              [--smoke] [--inject-mismatch] [--source-id <id>]
///
/// Exit code 0 when every run matched the baseline reference, 3 when the
/// gate failed (the document is still printed), 2 on bad arguments, 1 when
/// a workload threw.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#if __has_include(<malloc.h>)
#include <malloc.h>
#endif

#include "util/json.hpp"
#include "workloads.hpp"

namespace {

using perf::RunOptions;

bool parse(int argc, char** argv, RunOptions& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (a == "--smoke") {
      o.smoke = true;
    } else if (a == "--inject-mismatch") {
      o.inject_mismatch = true;
    } else if (a == "--workload" || a == "--seed" || a == "--seconds" ||
               a == "--trace" || a == "--trace-out" || a == "--source-id") {
      const char* v = value();
      if (v == nullptr) return false;
      if (a == "--workload") o.workload = v;
      if (a == "--seed") o.seed = std::strtoull(v, nullptr, 10);
      if (a == "--seconds") o.seconds = std::strtod(v, nullptr);
      if (a == "--trace") o.trace = std::string(v) == "1";
      if (a == "--trace-out") o.trace_out = v;
      if (a == "--source-id") o.source_id = v;
    } else {
      return false;
    }
  }
  return o.workload == "lte-varying" || o.workload == "lte-steady" ||
         o.workload == "carriers-batch" || o.workload == "serve-stream";
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions o;
  if (!parse(argc, argv, o)) {
    std::fprintf(stderr,
                 "usage: %s --workload <lte-varying|lte-steady|carriers-batch|"
                 "serve-stream> --seed <n> --seconds <s> [--trace 0|1] "
                 "[--trace-out <path>] [--smoke] [--inject-mismatch] "
                 "[--source-id <id>]\n",
                 argv[0]);
    return 2;
  }
#if defined(M_TRIM_THRESHOLD) && defined(M_MMAP_THRESHOLD)
  // Keep freed trace buffers in the heap instead of returning them to the
  // kernel: otherwise every rep first-touches fresh zeroed pages, and the
  // page-fault cost (large and erratic on a virtualized host) would be
  // billed to the backend under test. The untimed warm-up reps fill the
  // heap, so the timed reps reuse it.
  mallopt(M_TRIM_THRESHOLD, 512 << 20);
  mallopt(M_MMAP_THRESHOLD, 512 << 20);
#endif
  try {
    const perf::Host host = perf::fingerprint(o.source_id);
    perf::Tracer tracer(o.workload);
    tracer.set_enabled(o.trace);
    perf::Outcome out;
    {
      auto root = tracer.span("workload");
      if (o.workload == "serve-stream")
        perf::run_serve_workload(o, tracer, out);
      else
        perf::run_model_workload(o, tracer, out);
    }

    perf::Metrics& m = out.metrics;
    const perf::Gate& g = out.gate;
    m.set("peak_rss_mb", perf::peak_rss_mb(), "MB");
    m.set("gate.trace_mismatches", static_cast<double>(g.trace_mismatches),
          "count");
    m.set("gate.adaptive_max_error_ps",
          static_cast<double>(g.adaptive_max_error_ps), "ps");
    m.set("gate.failed_share",
          g.attempted == 0 ? 1.0
                           : static_cast<double>(g.failed) /
                                 static_cast<double>(g.attempted),
          "ratio");
    m.set("host.calibration_ns_per_op", host.calibration_ns_per_op, "ns");
    if (o.trace && !o.trace_out.empty()) tracer.write_chrome(o.trace_out);

    const bool correct = g.attempted > 0 && g.failed == 0 &&
                         g.trace_mismatches == 0 &&
                         g.adaptive_max_error_ps == 0;
    maxev::JsonWriter w;
    w.begin_object();
    w.field("workload", o.workload);
    w.field("seed", o.seed);
    w.field("correct", correct);
    w.field("attempted", g.attempted);
    w.field("failed", g.failed);
    w.key("failure_reasons").begin_array();
    for (const std::string& r : g.reasons) w.value(r);
    w.end_array();
    w.field("summary", out.summary);
    w.key("host").begin_object();
    w.field("cpu", host.cpu);
    w.field("hardware_threads", static_cast<std::uint64_t>(host.threads));
    w.field("compiler", host.compiler);
    w.field("build_type", host.build_type);
    w.field("source_id", host.source_id);
    w.field("calibration_ns_per_op", host.calibration_ns_per_op);
    w.end_object();
    w.key("metrics").begin_object();
    for (const auto& [name, v] : m.all()) {
      w.key(name).begin_object();
      w.field("value", v.value);
      w.field("unit", v.unit);
      w.end_object();
    }
    w.end_object();
    if (o.trace) {
      w.field("layer_table", tracer.layer_table());
      w.field("trace_file", o.trace_out);
    }
    w.end_object();
    std::printf("%s\n", w.str().c_str());
    return correct ? 0 : 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "maxev_perf: %s\n", e.what());
    return 1;
  }
}
