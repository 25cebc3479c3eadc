"""Run the benchmark in pairs on two source trees and compare their end-to-end metrics.

    python3 tools/bench_pairs.py PARENT CHANGE [--pairs 10] [-- BENCH_ARGS...]

Each pair runs ``bench/run.py BENCH_ARGS``, with the Python that runs this
script, once in PARENT and once in CHANGE, one run at a time, alternating
which tree runs first (the parent in the first pair).  Each run's last line
of standard output is its JSON summary.
For every metric of the summaries (``workload.metric`` when the run covers
several workloads) it prints the parent's and the change's median, the
parent's interquartile range, how many pairs the change won (by ``better`` in
BENCHMARK.json), and the change's median relative to the parent's next to the
metric's ``bound``, flagged WORSE where it lies beyond it.  It is flagged GAIN
where the change won at least nine pairs in ten and its median is better than
the parent's by more than the parent's interquartile range.  Otherwise it is
flagged UNRESOLVED where the parent's interquartile range is wider than the
bound (relative to the parent's median), unless every run of the change is
better than every run of the parent: runs that spread that far can hide a
regression inside the bound.  The failed jobs of every run come first.  It
reads only ``bench/`` and ``BENCHMARK.json`` of the trees, and PARENT's
BENCHMARK.json for ``better`` and ``bound``.  Before the pairs it says on
standard error whether the two trees run the same benchmark: whether their
``bench/`` files (bytecode aside) and BENCHMARK.json are byte-identical,
naming each file that is not.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_bench(tree: Path, bench_args) -> dict:
    """The JSON summary of one ``bench/run.py`` run in tree."""
    proc = subprocess.run([sys.executable, "bench/run.py", *bench_args], cwd=tree,
                          capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"bench/run.py in {tree} exited with {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def harness_files(tree: Path) -> dict:
    """Relative path -> bytes of each file of tree's benchmark, ``__pycache__`` aside."""
    paths = [tree / "BENCHMARK.json", *(tree / "bench").rglob("*")]
    return {path.relative_to(tree).as_posix(): path.read_bytes() for path in paths
            if path.is_file() and "__pycache__" not in path.parts}


def harness_report(parent: Path, change: Path) -> str:
    """One line: whether both trees run the same benchmark, naming each file that differs."""
    before, after = harness_files(parent), harness_files(change)
    differ = sorted(name for name in before.keys() | after.keys()
                    if before.get(name) != after.get(name))
    if not differ:
        return "harness: bench/ and BENCHMARK.json are byte-identical in both trees"
    return (f"harness differs between the trees in {', '.join(differ)}; "
            f"better and bound are PARENT's")


def metric_facts(benchmark: dict) -> dict:
    """metric name -> (better, bound or None), from BENCHMARK.json."""
    return {m["name"]: (m["better"], m.get("bound"))
            for m in benchmark["end_to_end"] + benchmark["per_layer"]}


def iqr(values) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def compare(parent_runs, change_runs, benchmark) -> list:
    """The report lines for paired summaries of both trees."""
    facts = metric_facts(benchmark)
    workloads = {w["name"] for w in benchmark["workloads"]}
    lines = [f"{'metric':28s} {'parent':>10s} {'change':>10s} {'parent IQR':>10s} "
             f"{'won':>6s} {'change/parent':>13s} {'bound':>6s}"]
    for key in parent_runs[0]["metrics"]:
        prefix, _, rest = key.partition(".")
        better, bound = facts.get(rest if prefix in workloads else key, ("lower", None))
        before = [run["metrics"][key]["value"] for run in parent_runs]
        after = [run["metrics"][key]["value"] for run in change_runs]
        sign = 1.0 if better == "lower" else -1.0
        won = sum(sign * a < sign * b for a, b in zip(after, before))
        mid_before, mid_after = statistics.median(before), statistics.median(after)
        rel = mid_after / mid_before - 1.0 if mid_before else float("nan")
        spread = iqr(before)
        if bound is not None and sign * rel > bound:
            verdict = "  WORSE"
        elif 10 * won >= 9 * len(before) and sign * (mid_before - mid_after) > spread:
            verdict = "  GAIN"
        elif (bound is not None and spread > bound * abs(mid_before)
              and max(sign * a for a in after) >= min(sign * b for b in before)):
            verdict = "  UNRESOLVED"
        else:
            verdict = ""
        lines.append(f"{key:28s} {mid_before:10.4g} {mid_after:10.4g} {spread:10.3g} "
                     f"{won:>3d}/{len(before):<2d} {rel:+13.1%} "
                     f"{'-' if bound is None else f'{bound:.0%}':>6s}{verdict}")
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    bench_args = argv[argv.index("--") + 1:] if "--" in argv else []
    own = argv[:argv.index("--")] if "--" in argv else argv
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(own)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    benchmark = json.loads((args.parent / "BENCHMARK.json").read_text())
    print(harness_report(args.parent, args.change), file=sys.stderr, flush=True)
    runs = {"parent": [], "change": []}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_bench(getattr(args, side), bench_args))
        print(f"pair {pair + 1}: " + ", ".join(
            f"{side} failed={runs[side][-1]['failed']}" for side in order), flush=True)
    print("\n".join(compare(runs["parent"], runs["change"], benchmark)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
