#!/usr/bin/env python3
"""Host-throughput benchmark of the mixtlb simulator.

Builds the simulator and the perfbench binary from source (CMake, into
$CARGO_TARGET_DIR or .bench_build), then runs one workload:

    python3 perfbench/run.py --workload gups-walk --seed 1 --seconds 10 --trace 0

--trace 0 reports the end-to-end metrics of the untraced run; --trace 1
adds a traced rebuild of the same stack and reports the per-layer
metrics. Without --workload every workload runs in turn. The last line
of stdout is one JSON object with the keys correct, attempted, failed
and metrics. The quietest host calibration level so far is kept in the
build directory (calibration_floor). See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["stream-hot", "gups-walk", "virt-nested", "multi-lifecycle"]
# The perfbench binary must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configure (once) and build the perfbench binary; return its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources not found at %s" % os.path.join(ROOT, "src"))
    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", "4"])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("build step failed: " + " ".join(step))
    return os.path.join(build_dir, "perfbench")


def run_workload(exe, workload, seed, seconds, trace):
    """Run one workload; return its parsed result line."""
    # The quietest host speed seen by earlier runs in this build tree.
    floor_file = os.path.join(os.path.dirname(exe), "calibration_floor")
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--calibration-file", floor_file]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as timeout:
        sys.stdout.write(timeout.stdout or "")
        print("perfbench: %s timed out after %d s" % (workload, RUN_TIMEOUT_S))
        return None
    lines = proc.stdout.splitlines()
    sys.stdout.write("\n".join(lines[:-1]) + "\n" if lines else "")
    if proc.returncode != 0 and not lines:
        # An oracle mismatch or audit failure exits the binary outright.
        print("perfbench: %s exited with code %d" % (workload, proc.returncode))
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        print("perfbench: %s printed no result line" % workload)
        return None
    if proc.returncode != 0:
        result["correct"] = False
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    exe = build()
    workloads = [args.workload] if args.workload else WORKLOADS
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in workloads:
        result = run_workload(exe, workload, args.seed, args.seconds,
                              args.trace)
        if result is None:
            # Nothing completed that can be vouched for.
            correct, attempted, failed = False, attempted + 1, failed + 1
            continue
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for name, metric in result["metrics"].items():
            key = name if len(workloads) == 1 else workload + "." + name
            metrics[key] = metric
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
