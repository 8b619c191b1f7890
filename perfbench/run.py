#!/usr/bin/env python3
"""Builds and runs the CAStream benchmark for one workload.

Run from the repository root:

    python3 perfbench/run.py --workload f2_uniform_ingest --seed 1 \
        --seconds 20 --trace 0

The harness (perfbench/castream_perfbench.cc) is built in Release into
.bench_build/perfbench, together with the castream library from the
repository's own CMakeLists.txt. Build output goes to stderr. Stdout carries
`# context`, `# samples` and `# errors` lines, then, as its last line, one
JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
A traced run also writes its spans to .bench_build/trace/.
"""
import argparse
import json
import os
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")
TRACE_DIR = os.path.join(".bench_build", "trace")
BINARY = os.path.join(BUILD_DIR, "castream_perfbench")
HARNESS_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(here):
    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")):
        fail("run from the root of a CAStream checkout (no CMakeLists.txt "
             "or src/ here)")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", here, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "--target", "castream_perfbench",
         "-j", jobs],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))
    with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as cache:
        for line in cache:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.strip().split("=", 1)[1]
                if build_type != "Release":
                    fail("refusing a %s build; the benchmark measures "
                         "Release only" % build_type)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    build(here)

    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(TRACE_DIR, exist_ok=True)
        command += ["--trace-out", os.path.join(
            TRACE_DIR, "%s-%d.jsonl" % (args.workload, args.seed))]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("harness exceeded %d s" % HARNESS_TIMEOUT_S)
    if done.returncode != 0:
        fail("harness exited with code %d" % done.returncode)
    lines = [l for l in done.stdout.splitlines() if l.strip()]
    if not lines:
        fail("harness printed no result")
    report = json.loads(lines[-1])

    print("# context " + json.dumps(report["context"], sort_keys=True))
    print("# samples " + json.dumps(report["samples"], sort_keys=True))
    if report["errors"]:
        print("# errors " + json.dumps(report["errors"]))
    result = {key: report[key]
              for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
