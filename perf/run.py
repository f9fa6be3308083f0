#!/usr/bin/env python3
"""Build levnet_perf and run the benchmark (see perf/README.md).

One workload, the form BENCHMARK.json's command takes; the last line of
stdout is the run's JSON result:

    python3 perf/run.py --workload star-erew --seed 1 --seconds 10 --trace 0

Every workload in its own process, results collected into
build-perf/results.json (or --out) for perf/compare.py:

    python3 perf/run.py --seed 1 [--trace] [--repeat N] [--out FILE]

The build lands in build-perf/ at the repository root. A traced run also
leaves build-perf/trace-<workload>-s<seed>.json (Chrome trace of the
spans, checked here) and build-perf/layers-<workload>-s<seed>.json (time
per span name, total and self). The exit code is 0 only when every run
was correct.
"""

import argparse
import collections
import json
import pathlib
import subprocess
import sys

PERF = pathlib.Path(__file__).resolve().parent
ROOT = PERF.parent
BUILD = ROOT / "build-perf"
BINARY = BUILD / "levnet_perf"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
RUN_TIMEOUT_S = 170
MIN_COVERAGE = 0.95  # child spans must cover this share of a trial/request
TOLERANCE_US = 0.01  # trace timestamps are rounded to ns


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures build-perf/ once, then brings levnet_perf up to date."""
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(PERF), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "levnet_perf",
                  "-j", "4"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            log("run.py: build step failed:", " ".join(step))
            sys.exit(2)


def check_trace(path):
    """Validates the span tree; returns (problems, summary)."""
    events = json.loads(path.read_text())["traceEvents"]
    by_span = {e["args"]["span"]: e for e in events}
    children = collections.defaultdict(list)
    roots = set()
    problems = []
    for e in events:
        span, parent, ident = (e["args"][k] for k in ("span", "parent", "id"))
        if e["dur"] < 0:
            problems.append(f"span {span} ({e['name']}) ends before it starts")
        if parent == -1:
            if (e["name"], ident) in roots:
                problems.append(f"root {e['name']} id {ident} appears twice")
            roots.add((e["name"], ident))
            continue
        up = by_span.get(parent)
        if up is None or parent >= span:
            problems.append(f"span {span} ({e['name']}) has no parent {parent}")
            continue
        if up["args"]["id"] != ident:
            problems.append(f"span {span} id {ident} differs from its "
                            f"parent's {up['args']['id']}")
        if (e["ts"] < up["ts"] - TOLERANCE_US or e["ts"] + e["dur"] >
                up["ts"] + up["dur"] + TOLERANCE_US):
            problems.append(f"span {span} ({e['name']}) leaves its parent")
        children[parent].append(e)

    coverage = []
    names = collections.defaultdict(lambda: [0, 0.0, 0.0])
    for e in events:
        span = e["args"]["span"]
        covered = sum(c["dur"] for c in children[span])
        entry = names[e["name"]]
        entry[0] += 1
        entry[1] += e["dur"]
        entry[2] += e["dur"] - covered
        if e["args"]["parent"] == -1 and e["name"] in ("trial", "request"):
            coverage.append(covered / e["dur"] if e["dur"] > 0 else 1.0)
    if not coverage:
        problems.append("no trial or request spans")
    elif min(coverage) < MIN_COVERAGE:
        problems.append(f"child spans cover only {min(coverage):.1%} of a "
                        f"trial or request span")
    summary = {
        "spans": len(events),
        "min_child_coverage": min(coverage) if coverage else 0.0,
        "layers": {name: {"count": count, "total_ms": t / 1e3,
                          "self_ms": s / 1e3}
                   for name, (count, t, s) in sorted(names.items())},
    }
    return problems, summary


def run_workload(name, seed, seconds, trace):
    """Runs one workload in its own levnet_perf process; returns its result
    object, or None when the process produced none."""
    cmd = [str(BINARY), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds)]
    if trace:
        cmd += ["--trace", str(BUILD)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run.py: {name} did not finish within {RUN_TIMEOUT_S} s")
        return None
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log(f"run.py: {name} exited {proc.returncode} without a result")
        return None
    if proc.returncode != 0:
        result["correct"] = False

    expected = {m["name"] for m in
                BENCHMARK["per_layer" if trace else "end_to_end"]}
    if set(result["metrics"]) != expected:
        log(f"run.py: {name} metrics differ from BENCHMARK.json:",
            sorted(set(result["metrics"]) ^ expected))
        result["correct"] = False
    if trace:
        path = BUILD / f"trace-{name}-s{seed}.json"
        problems, summary = check_trace(path)
        for problem in problems:
            log(f"run.py: {name} trace: {problem}")
        if problems:
            result["correct"] = False
        summary.update(workload=name, seed=seed, metrics=result["metrics"])
        layers = BUILD / f"layers-{name}-s{seed}.json"
        layers.write_text(json.dumps(summary, indent=2) + "\n")
        log(f"run.py: {name} trace: {summary['spans']} spans, child "
            f"coverage >= {summary['min_child_coverage']:.1%}; {layers}")
    return result


def print_metrics(name, result):
    status = "ok" if result["correct"] else "FAILED"
    print(f"{name}: {status}, {result['failed']} of {result['attempted']} "
          f"attempts failed")
    for metric, entry in result["metrics"].items():
        print(f"  {metric:28s} {entry['value']:>16.6g} {entry['unit']}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all, into --out)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int,
                        default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=[0, 1],
                        help="per-layer metrics and a checked span trace")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload (all-workloads mode)")
    parser.add_argument("--out", type=pathlib.Path,
                        default=BUILD / "results.json")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1 or args.repeat < 1:
        parser.error("--seed must be >= 0, --seconds and --repeat >= 1")

    build()
    if args.workload is not None:
        result = run_workload(args.workload, args.seed, args.seconds,
                              args.trace)
        if result is None:
            return 1
        print_metrics(args.workload, result)
        print(json.dumps(result))
        return 0 if result["correct"] else 1

    runs = {name: [] for name in WORKLOADS}
    for _ in range(args.repeat):
        for name in WORKLOADS:
            result = run_workload(name, args.seed, args.seconds, args.trace)
            if result is None:
                return 1
            print_metrics(name, result)
            runs[name].append(result)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(
        {"seed": args.seed, "seconds": args.seconds,
         "trace": bool(args.trace), "runs": runs}, indent=1) + "\n")
    print(f"results: {args.out}")
    return 0 if all(r["correct"] for rs in runs.values() for r in rs) else 1


if __name__ == "__main__":
    sys.exit(main())
