#!/usr/bin/env python3
"""maxev benchmark: build, run one workload (or all four), check, report.

Usage, from the root of a source tree:

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S]
                             [--trace 0|1] [--smoke] [--inject-mismatch]

Builds perfbench/ (and with it the library, from src/) in the directory
named by $CARGO_TARGET_DIR, else .bench_build, then runs the maxev_perf
program once per workload, each in its own process. It prints the host
fingerprint, every metric by name and unit, and as its last line one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are BENCHMARK.json's end_to_end ones; with --trace 1 its per_layer
ones, the span table, the tracing overhead, and a Chrome trace-event file
under <build dir>/traces/.

Without --workload every workload runs in turn and the last line holds
one such object per workload. The exit code is 0 only when every run's
outputs matched the event-driven baseline bit for bit.
"""

import argparse
import fcntl
import hashlib
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configure once, then (re)build maxev_perf; returns its path."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(out, "Makefile")):
            subprocess.run(
                ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                check=True, stdout=sys.stderr, stderr=sys.stderr)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        subprocess.run(
            ["cmake", "--build", out, "--target", "maxev_perf", "-j", jobs],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, "maxev_perf")


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        sha = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return "git-" + sha.stdout.strip()[:12]
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(d, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree-" + h.hexdigest()[:12]


def run_workload(binary, spec, args, workload, sid):
    """Run one workload; returns (result object, raw document)."""
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--source-id", sid]
    trace_file = None
    if args.trace:
        os.makedirs(os.path.join(build_dir(), "traces"), exist_ok=True)
        trace_file = os.path.join(
            build_dir(), "traces", f"{workload}-seed{args.seed}.trace.json")
        cmd += ["--trace-out", trace_file]
    if args.smoke:
        cmd.append("--smoke")
    if args.inject_mismatch:
        cmd.append("--inject-mismatch")
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode not in (0, 3) or not proc.stdout.strip():
        raise RuntimeError(
            f"{workload}: maxev_perf exited {proc.returncode} without a result")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = doc["metrics"].get(m["name"])
        if got is None:
            raise RuntimeError(f"{workload}: metric {m['name']} not emitted")
        if got["unit"] != m["unit"]:
            raise RuntimeError(f"{workload}: metric {m['name']} in "
                               f"{got['unit']}, expected {m['unit']}")
        if not math.isfinite(got["value"]):
            raise RuntimeError(f"{workload}: metric {m['name']} not finite")
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    if trace_file is not None:
        with open(trace_file) as f:
            events = json.load(f)["traceEvents"]
        if not events:
            raise RuntimeError(f"{workload}: empty trace-event file")
    correct = bool(doc["correct"]) and doc["attempted"] >= 1
    result = {"correct": correct, "attempted": doc["attempted"],
              "failed": doc["failed"], "metrics": metrics}
    return result, doc


def report(spec, args, doc):
    """Human-readable block: host, gate, every metric with its unit."""
    host = doc["host"]
    print(f"== {doc['workload']} (seed {doc['seed']}) ==")
    print(f"host: {host['cpu']}; {host['hardware_threads']} hardware threads; "
          f"{host['compiler']}; {host['build_type']}; {host['source_id']}; "
          f"calibration {host['calibration_ns_per_op']:.4f} ns/op")
    print(f"measured: {doc['summary']}")
    print(f"gate: correct={doc['correct']} attempted={doc['attempted']} "
          f"failed={doc['failed']}")
    for why in doc["failure_reasons"]:
        print(f"  FAILED: {why}")
    gated = {m["name"] for m in spec["end_to_end"]}
    rows = sorted(doc["metrics"].items(),
                  key=lambda kv: (kv[0] not in gated, kv[0]))
    for name, m in rows:
        tag = "e2e " if name in gated else "    "
        print(f"  {tag}{name:42s} {m['value']:>16.6g} {m['unit']}")
    if args.trace:
        overhead = doc["metrics"]["bench.tracing_overhead"]["value"]
        print(f"tracing overhead: {100 * overhead:+.2f}% (traced against "
              f"untraced end-to-end, interleaved reps of one run)")
        print(f"trace-event file (open in ui.perfetto.dev): {doc['trace_file']}")
        print(doc["layer_table"], end="")


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=names)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs: every path in a few seconds")
    p.add_argument("--inject-mismatch", action="store_true",
                   help="perturb the reference by 1 ps; the gate must fail")
    args = p.parse_args()

    try:
        binary = build()
        sid = source_id()
        results = {}
        for w in [args.workload] if args.workload else names:
            result, doc = run_workload(binary, spec, args, w, sid)
            report(spec, args, doc)
            results[w] = result
    except (OSError, RuntimeError, subprocess.SubprocessError,
            json.JSONDecodeError, KeyError) as e:
        log(f"run.py: {e}")
        return 1

    ok = all(r["correct"] for r in results.values())
    if args.workload:
        print(json.dumps(results[args.workload]))
    else:
        print(json.dumps(results))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
