#!/usr/bin/env python3
"""Build and run the repo benchmark from the root of a checkout.

    python3 cobench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 cobench/run.py --self-test

The first form builds cobench/cobench.exe from source with dune (the repo's
libraries included), runs it, and relays its output; the last line is the
JSON result. The second runs every workload of BENCHMARK.json for well under
a second, traced and untraced, and checks that the output names every metric
with its unit and passes the correctness gate.

Exits non-zero without printing a result if the checkout cannot build the
benchmark (for instance when the repo's sources are missing).
"""

import json
import os
import shutil
import subprocess
import sys

EXE = os.path.join("_build", "default", "cobench", "cobench.exe")
BUILD_TIMEOUT_S = 900
RUN_TIMEOUT_S = 170


def die(msg):
    print("cobench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    for needed in ("dune-project", os.path.join("lib", "transport")):
        if not os.path.exists(needed):
            die("not at the root of a repo checkout (missing %s)" % needed)
    dune = shutil.which("dune")
    if dune is None:
        die("dune not found on PATH")
    try:
        proc = subprocess.run(
            [dune, "build", "--root", ".", "./cobench/cobench.exe"],
            stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("build timed out")
    if proc.returncode != 0 or not os.path.exists(EXE):
        die("build failed")


def run(args, timeout=RUN_TIMEOUT_S):
    """Run the benchmark binary; return (stdout, parsed result line)."""
    try:
        proc = subprocess.run([EXE] + args, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        die("run exceeded %d s" % timeout)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        die("benchmark exited with code %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(proc.stdout)
        die("last output line is not a JSON result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        die("result line has unexpected keys: %s" % sorted(result))
    return proc.stdout, result


def check_trace_file(tag, out):
    """The traced run's span file is Chrome trace-event JSON with a named
    track per layer and at least one span."""
    paths = [line.split()[1] for line in out.splitlines()
             if line.startswith("trace: ")]
    if not paths:
        return ["%s: no span file reported" % tag]
    try:
        with open(paths[0]) as f:
            events = json.load(f)["traceEvents"]
    except (OSError, ValueError, KeyError) as e:
        return ["%s: span file unreadable (%s)" % (tag, e)]
    tracks = {e["args"]["name"] for e in events if e.get("name") == "thread_name"}
    spans = [e for e in events if e.get("ph") == "X"]
    if tracks != {"transport", "pdu", "core", "obs", "loadgen"} or not spans:
        return ["%s: span file has tracks %s and %d spans"
                % (tag, sorted(tracks), len(spans))]
    return []


def self_test():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            before = len(problems)
            out, result = run(["--workload", w["name"], "--seed", "7",
                               "--seconds", "0.5", "--trace", str(trace),
                               "--out", os.path.join("cobench", "out")])
            tag = "%s trace=%d" % (w["name"], trace)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != wanted[trace]:
                diff = set(got.items()) ^ set(wanted[trace].items())
                problems.append("%s: metrics differ from BENCHMARK.json in %s"
                                % (tag, sorted(diff)))
            for name, unit in wanted[trace].items():
                if not any(line.split()[:1] == [name] and
                           line.split()[-1] == unit
                           for line in out.splitlines()):
                    problems.append("%s: %s [%s] not printed" % (tag, name, unit))
            if trace == 1:
                problems += check_trace_file(tag, out)
            if not result["correct"] or result["failed"] != 0:
                problems.append("%s: correctness gate failed" % tag)
            if trace == 0 and result["metrics"]["delivered_frac"]["value"] != 1:
                problems.append("%s: delivered_frac != 1" % tag)
            print("self-test %-28s %s"
                  % (tag, "ok" if len(problems) == before else "FAIL"))
    for p in problems:
        print("self-test: " + p)
    sys.exit(1 if problems else 0)


def main():
    argv = sys.argv[1:]
    if argv == ["--self-test"]:
        build()
        self_test()
    build()
    out, _ = run(argv)
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
