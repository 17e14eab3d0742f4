#!/usr/bin/env python3
"""Build and run the wall-clock benchmark.

Run from the root of a checkout:

    python3 wallbench/run.py --workload batch_andp --seed 1 --seconds 10 --trace 0

Workloads: batch_andp, batch_orp, serve_mixed (see BENCHMARK.json for why
each exists). The first run configures and builds the runtime library and
the driver from source into $CARGO_TARGET_DIR (default .bench_build);
later runs only rebuild what changed. The driver's last stdout line is one
JSON object with "correct", "attempted", "failed" and "metrics".

Other modes:
    --self-test          checks the benchmark itself: seeded streams are
                         byte-identical, raw-sample percentiles are ordered,
                         every pool query has a reference answer that agrees
                         with its closed form, and the metric names match
                         BENCHMARK.json.
    --write-reference    regenerates wallbench/reference.tsv.
    --calibrate          prints per-query wall times of every pool entry.

Traced runs (--trace 1) also write their span file and a result record
under .bench_out/.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
REFERENCE = os.path.join(BENCH_DIR, "reference.tsv")


def fail(msg):
    print("wallbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    """Configures and builds the driver; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("runtime sources (src/) not found next to wallbench/")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "wallbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))
    binary = os.path.join(build_dir, "wallbench")
    if not os.path.isfile(binary):
        fail("build produced no driver binary")
    return binary


def metric_names():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ([m["name"] for m in spec["end_to_end"]],
            [m["name"] for m in spec["per_layer"]])


def run(cmd):
    """Runs the driver, passing its output through; returns (code, last line)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    last = ""
    try:
        for line in proc.stdout:
            sys.stdout.write(line)
            if line.strip():
                last = line.strip()
        proc.wait()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    sys.stdout.flush()
    return proc.returncode, last


def self_test(binary):
    code, _ = run([binary, "--self-test", "--reference", REFERENCE])
    e2e, layer = metric_names()
    # A short traced and untraced run of each workload must report exactly
    # the metrics BENCHMARK.json declares.
    for workload in ("batch_andp", "batch_orp", "serve_mixed"):
        for trace, want in (("0", e2e), ("1", layer)):
            c, last = run([binary, "--workload", workload, "--seed", "1",
                           "--seconds", "1", "--trace", trace,
                           "--reference", REFERENCE, "--out-dir", out_dir()])
            got = sorted(json.loads(last)["metrics"]) if c == 0 else []
            if got != sorted(want):
                print("FAIL: %s --trace %s reports %s, BENCHMARK.json says %s"
                      % (workload, trace, sorted(set(got) ^ set(want)),
                         "the other set"))
                code = 1
    print("self-test (with BENCHMARK.json): %s" % ("ok" if code == 0 else "FAILED"))
    return code


def out_dir():
    path = os.path.abspath(".bench_out")
    os.makedirs(path, exist_ok=True)
    return path


def main():
    # Turn SIGTERM into SystemExit so run() stops the driver before exiting.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--write-reference", action="store_true")
    ap.add_argument("--calibrate", action="store_true")
    args = ap.parse_args()

    binary = build()
    if args.self_test:
        return self_test(binary)
    if args.write_reference:
        return run([binary, "--write-reference", REFERENCE])[0]
    if args.calibrate:
        return run([binary, "--calibrate"])[0]
    if args.workload is None or args.seed is None or args.seconds is None:
        fail("--workload, --seed and --seconds are required")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--reference", REFERENCE, "--out-dir", out_dir()]
    return run(cmd)[0]


if __name__ == "__main__":
    sys.exit(main())
