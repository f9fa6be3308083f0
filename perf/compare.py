#!/usr/bin/env python3
"""Compare two benchmark result files, metric by metric (see README.md).

    python3 perf/compare.py BASE.json CANDIDATE.json
    python3 perf/compare.py --self-test

Both files come from `perf/run.py --seed S --repeat N --out FILE`. For
each (end-to-end metric, workload) pair the verdict uses the bound that
BENCHMARK.json fixes for the metric:

    worse       the candidate's median is worse than the base's by more
                than the bound
    better      it is better by more than the bound
    same        the medians differ by no more than the bound
    unresolved  either side's spread (interquartile range over median)
                is wider than the bound, and not every candidate run
                beats every base run

A workload with a failed or incorrect run on either side is reported as
FAILED. Exit code 1 when anything is worse or failed, else 0.
"""

import argparse
import json
import pathlib
import statistics
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent


def spread(values):
    """Interquartile range as a share of the median (0 for one value)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(base, cand, better, bound):
    """Classifies candidate runs against base runs; returns (verdict,
    signed change of the median, where positive means worse)."""
    mb, mc = statistics.median(base), statistics.median(cand)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (mc - mb) / mb
    all_better = all(sign * (c - b) < 0 for c in cand for b in base)
    if max(spread(base), spread(cand)) > bound and not all_better:
        return "unresolved", worse_by
    if worse_by > bound:
        return "worse", worse_by
    if worse_by < -bound:
        return "better", worse_by
    return "same", worse_by


def compare(base, cand, metrics):
    """Yields one row per (workload, metric) both result sets hold."""
    for workload in base["runs"]:
        if workload not in cand["runs"]:
            yield workload, None, "missing in candidate", None
            continue
        runs_b, runs_c = base["runs"][workload], cand["runs"][workload]
        if not all(r["correct"] and r["failed"] == 0
                   for r in runs_b + runs_c):
            yield workload, None, "FAILED", None
            continue
        for metric in metrics:
            name = metric["name"]
            if not all(name in r["metrics"] for r in runs_b + runs_c):
                continue
            b = [r["metrics"][name]["value"] for r in runs_b]
            c = [r["metrics"][name]["value"] for r in runs_c]
            result, change = verdict(b, c, metric["better"], metric["bound"])
            yield workload, metric, result, (b, c, change)


def report(base, cand, metrics, out=sys.stdout):
    """Prints the comparison table; returns the process exit code."""
    bad = False
    print(f"{'workload':15} {'metric':24} {'base':>12} {'candidate':>12} "
          f"{'change':>8} {'spread b/c':>13} {'bound':>6}  verdict", file=out)
    for workload, metric, result, data in compare(base, cand, metrics):
        if metric is None:
            print(f"{workload:15} {result}", file=out)
            bad = True
            continue
        b, c, change = data
        bad = bad or result == "worse"
        print(f"{workload:15} {metric['name']:24} "
              f"{statistics.median(b):12.5g} {statistics.median(c):12.5g} "
              f"{change:+8.1%} {spread(b):6.1%}/{spread(c):<6.1%} "
              f"{metric['bound']:6.0%}  {result}", file=out)
    return 1 if bad else 0


def self_test():
    metrics = [{"name": "ops", "unit": "1/s", "better": "higher",
                "bound": 0.10},
               {"name": "lat", "unit": "ms", "better": "lower",
                "bound": 0.10}]

    def runs(ops, lat, correct=True):
        return [{"correct": correct, "attempted": 1, "failed": 0,
                 "metrics": {"ops": {"value": o, "unit": "1/s"},
                             "lat": {"value": v, "unit": "ms"}}}
                for o, v in zip(ops, lat)]

    base = {"runs": {"w": runs([100, 101, 99], [10.0, 10.1, 9.9])}}
    cases = [
        ("same", runs([102, 100, 101], [10.2, 10.0, 9.8]),
         {"ops": "same", "lat": "same"}),
        ("slower", runs([80, 81, 79], [13.0, 13.1, 12.9]),
         {"ops": "worse", "lat": "worse"}),
        ("faster", runs([130, 131, 129], [8.0, 8.1, 7.9]),
         {"ops": "better", "lat": "better"}),
        ("noisy", runs([60, 100, 140], [6.0, 10.0, 14.0]),
         {"ops": "unresolved", "lat": "unresolved"}),
        ("noisy but every run faster", runs([150, 200, 250], [5.0, 7.0, 9.0]),
         {"ops": "better", "lat": "better"}),
    ]
    checks = 0
    for label, cand_runs, expected in cases:
        cand = {"runs": {"w": cand_runs}}
        got = {m["name"]: r for _, m, r, _ in compare(base, cand, metrics)}
        assert got == expected, (label, got, expected)
        checks += 1

    failed = {"runs": {"w": runs([100, 100], [10.0, 10.0], correct=False)}}
    rows = list(compare(base, failed, metrics))
    assert [r[2] for r in rows] == ["FAILED"], rows
    rows = list(compare(base, {"runs": {}}, metrics))
    assert [r[2] for r in rows] == ["missing in candidate"], rows
    checks += 2

    # The file path end to end: a regression exits 1, a rerun exits 0.
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, doc in enumerate((base, {"runs": {"w": cases[1][1]}}, base)):
            path = pathlib.Path(tmp) / f"r{i}.json"
            path.write_text(json.dumps(doc))
            paths.append(path)
        with open(pathlib.Path(tmp) / "out.txt", "w") as sink:
            assert main([str(paths[0]), str(paths[1])], metrics, sink) == 1
            assert main([str(paths[0]), str(paths[2])], metrics, sink) == 0
        checks += 2
    assert spread([5.0]) == 0.0
    checks += 1
    print(f"compare.py self-test: {checks} checks passed")
    return 0


def main(argv=None, metrics=None, out=sys.stdout):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", nargs="?", type=pathlib.Path)
    parser.add_argument("candidate", nargs="?", type=pathlib.Path)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if args.self_test:
        return self_test()
    if args.base is None or args.candidate is None:
        parser.error("needs BASE.json and CANDIDATE.json")
    if metrics is None:
        metrics = json.loads(
            (ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    base = json.loads(args.base.read_text())
    cand = json.loads(args.candidate.read_text())
    return report(base, cand, metrics, out)


if __name__ == "__main__":
    sys.exit(main())
