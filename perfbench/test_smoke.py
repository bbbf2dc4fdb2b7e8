#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

Usage, from the root of a source tree:

    python3 perfbench/test_smoke.py

Runs every workload at tiny size (run.py --smoke, 1 s budget) untraced and
traced, and checks that:

  * the last line of stdout parses as the result object, with exactly the
    keys correct/attempted/failed/metrics, and correct is true;
  * every end_to_end (untraced) or per_layer (traced) metric named in
    BENCHMARK.json is emitted with its unit and a finite value, and every
    end_to_end value is non-zero;
  * the traced run writes a trace-event file that parses as JSON and
    states its tracing overhead;
  * the gate is live: with --inject-mismatch (reference moved by 1 ps) the
    run reports correct=false, counts failures and exits non-zero.

Exit code 0 when every check passes.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

failures = []


def check(cond, msg):
    if not cond:
        failures.append(msg)
        print(f"FAIL: {msg}", flush=True)


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--smoke", *extra]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)


def result_of(proc, label):
    lines = proc.stdout.strip().splitlines()
    check(bool(lines), f"{label}: no output")
    if not lines:
        return None
    try:
        res = json.loads(lines[-1])
    except json.JSONDecodeError:
        check(False, f"{label}: last line is not JSON: {lines[-1][:200]}")
        return None
    check(sorted(res) == ["attempted", "correct", "failed", "metrics"],
          f"{label}: result keys {sorted(res)}")
    return res


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for w in (x["name"] for x in spec["workloads"]):
        for trace in (0, 1):
            label = f"{w} trace={trace}"
            proc = run(w, trace)
            check(proc.returncode == 0,
                  f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
            res = result_of(proc, label)
            if res is None:
                continue
            check(res["correct"] is True and res["failed"] == 0,
                  f"{label}: gate failed")
            check(res["attempted"] >= 1, f"{label}: nothing attempted")
            wanted = spec["per_layer"] if trace else spec["end_to_end"]
            for m in wanted:
                got = res["metrics"].get(m["name"])
                check(got is not None, f"{label}: {m['name']} missing")
                if got is None:
                    continue
                check(got["unit"] == m["unit"],
                      f"{label}: {m['name']} unit {got['unit']}")
                check(isinstance(got["value"], (int, float))
                      and math.isfinite(got["value"]),
                      f"{label}: {m['name']} value {got['value']}")
                if not trace:
                    check(got["value"] != 0, f"{label}: {m['name']} is 0")
            if trace:
                check("tracing overhead:" in proc.stdout,
                      f"{label}: no tracing overhead line")
                path = os.path.join(
                    ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                    "traces", f"{w}-seed7.trace.json")
                try:
                    with open(path) as f:
                        events = json.load(f)["traceEvents"]
                    check(any(e["name"] == "study::Model::run"
                              or e["name"].startswith("serve::Server::handle")
                              for e in events),
                          f"{label}: trace file lacks the run spans")
                except (OSError, ValueError, KeyError) as e:
                    check(False, f"{label}: trace file {path}: {e}")
        label = f"{w} inject-mismatch"
        proc = run(w, 0, "--inject-mismatch")
        check(proc.returncode != 0, f"{label}: exit 0 despite the mismatch")
        res = result_of(proc, label)
        if res is not None:
            check(res["correct"] is False and res["failed"] > 0,
                  f"{label}: gate did not fire ({res['failed']} failed)")
        print(f"{w}: checked", flush=True)
    if failures:
        print(f"test_smoke: {len(failures)} failure(s)")
        return 1
    print("test_smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
