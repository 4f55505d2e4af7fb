#!/usr/bin/env python3
"""Build and run the turbfno benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
library and the benchmark from source into the build directory
($CARGO_TARGET_DIR, else .bench_build); later runs rebuild incrementally.
Each run first executes the benchmark's own unit tests, then the workload.
An untraced run (--trace 0) then sets the workload up again in
SETUP_PROCESSES - 1 fresh processes and reports as setup_s the median of
all the cold set-ups, the measured run's own included. A traced run
(--trace 1) writes its spans to .bench_out/. The last line of standard
output is the result object; its metric names and units are checked against
BENCHMARK.json. Exit code 0 only when the build, the self-test, every
correctness check and that comparison pass.
"""
import argparse
import json
import os
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 800
# Time allowed for a step that does no measured work (self-test, set-up).
STEP_TIMEOUT_S = 60
# Cold set-ups, each in its own process, behind one setup_s.
SETUP_PROCESSES = 5


def run(cmd, timeout, capture=False):
    """Run cmd in its own process group; on timeout kill the whole group
    and wait for it, so no compiler or benchmark process outlives us."""
    proc = subprocess.Popen(
        cmd,
        stdout=subprocess.PIPE if capture else sys.stderr,
        stderr=sys.stderr,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit("perfbench: %s timed out after %d s" % (cmd[0], timeout))
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return proc.returncode, out


def build(build_dir):
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        code, _ = run(["cmake", "-S", HERE, "-B", build_dir,
                       "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
        if code != 0:
            sys.exit("perfbench: configure failed")
    code, _ = run(["cmake", "--build", build_dir, "-j", jobs, "--target",
                   "perfbench", "perfbench_selftest"], BUILD_TIMEOUT_S)
    if code != 0:
        sys.exit("perfbench: build failed")


def check_result(line, spec, trace):
    """The result line must carry exactly the metrics BENCHMARK.json lists
    for this mode, with the same units."""
    try:
        result = json.loads(line)
    except ValueError:
        return "result line is not JSON: %r" % line[:200]
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return "result keys are %s" % sorted(result)
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if wanted != got:
        missing = sorted(set(wanted) - set(got))
        extra = sorted(set(got) - set(wanted))
        units = sorted(k for k in set(wanted) & set(got)
                       if wanted[k] != got[k])
        return "metrics differ from BENCHMARK.json: missing %s, extra %s, " \
               "unit mismatch %s" % (missing, extra, units)
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "workloads.json")) as f:
        workloads = json.load(f)
    if args.workload not in workloads["workloads"]:
        sys.exit("perfbench: unknown workload %r" % args.workload)
    if not 0 < args.seconds <= 600:
        sys.exit("perfbench: --seconds must be in (0, 600]")

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build(build_dir)
    code, _ = run([os.path.join(build_dir, "perfbench_selftest")],
                  STEP_TIMEOUT_S)
    if code != 0:
        sys.exit("perfbench: self-test failed")

    trace_dir = ".bench_out"
    os.makedirs(trace_dir, exist_ok=True)
    program = os.path.join(build_dir, "perfbench")
    workload = ["--workload", args.workload, "--seed", str(args.seed)]
    # The measured seconds, the checks after them (a few seconds), and for
    # serve_open up to 60 s more for the sessions still running.
    run_timeout = 2 * args.seconds + 120
    code, out = run([program] + workload +
                    ["--seconds", repr(args.seconds),
                     "--trace", str(args.trace), "--trace-dir", trace_dir],
                    run_timeout, capture=True)

    lines = out.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    problem = check_result(lines[-1], spec, args.trace) if lines[-1] else \
        "no result line"
    if problem is not None:
        sys.stdout.flush()
        sys.exit("perfbench: " + problem)
    result = json.loads(lines[-1])
    if not args.trace:
        setups = [result["metrics"]["setup_s"]["value"]]
        for _ in range(SETUP_PROCESSES - 1):
            setup_code, setup_out = run(
                [program] + workload + ["--setup-only", "1"],
                STEP_TIMEOUT_S, capture=True)
            if setup_code != 0:
                sys.exit("perfbench: set-up-only run failed")
            last = json.loads(setup_out.rstrip("\n").split("\n")[-1])
            setups.append(last["metrics"]["setup_s"]["value"])
        print("cold set-ups (s): " + " ".join(repr(v) for v in setups))
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
    print(json.dumps(result), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
