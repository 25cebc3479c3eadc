"""Smoke tests of tools/code_lines.py, the code-line count of ``src/``, and of
tools/bench_pairs.py, the paired benchmark comparison."""

import importlib.util
import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

FIXTURE = textwrap.dedent('''\
    """Module docstring,
    two lines."""

    import math  # a comment after code


    # a comment line
    class Thing:
        """Class docstring."""

        def area(self, r):
            """Function docstring,

            three lines."""
            text = """a string,
            not a docstring"""
            return (math.pi
                    * r * r)
    ''')


def test_counts_code_lines_only(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "mod.py").write_text(FIXTURE)
    (package / "empty.py").write_text("# nothing but a comment\n")
    proc = subprocess.run([sys.executable, str(TOOL), str(tmp_path)],
                          capture_output=True, text=True, check=True)
    # import, class, def, the two lines of text = ..., the two of return
    assert proc.stdout.splitlines() == [
        "     0  pkg/empty.py",
        "     7  pkg/mod.py",
        "     7  total",
    ]


PAIRS_TOOL = TOOL.parent / "bench_pairs.py"

# a bench/run.py that logs its tree and arguments, then prints a fixed summary
STUB = textwrap.dedent('''\
    import json, sys
    from pathlib import Path
    with open(sys.argv[-1], "a") as log:
        log.write(f"{Path.cwd().name} {' '.join(sys.argv[1:-1])}\\n")
    print("# workload=all seed=0")
    print(json.dumps({"correct": True, "attempted": 24, "failed": FAILED, "metrics": {
        "solve.wall_s": {"value": WALL, "unit": "s"},
        "solve.peak_rss_mb": {"value": RSS, "unit": "MB"}}}))
    ''')


def stub_tree(root, name, failed, wall, rss):
    tree = root / name
    (tree / "bench").mkdir(parents=True)
    (tree / "bench" / "run.py").write_text(
        STUB.replace("FAILED", str(failed)).replace("WALL", str(wall)).replace("RSS", str(rss)))
    (tree / "BENCHMARK.json").write_text(json.dumps({
        "workloads": [{"name": "solve"}],
        "end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.25},
                       {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}],
        "per_layer": [],
    }))
    return tree


def test_bench_pairs_alternates_and_compares(tmp_path):
    parent = stub_tree(tmp_path, "parent", failed=0, wall=2.0, rss=19.0)
    change = stub_tree(tmp_path, "change", failed=1, wall=1.5, rss=20.0)
    log = tmp_path / "runs.log"
    proc = subprocess.run([sys.executable, str(PAIRS_TOOL), str(parent), str(change),
                           "--pairs", "3", "--", "--seconds", "3", str(log)],
                          capture_output=True, text=True, check=True)
    assert log.read_text().splitlines() == [
        "parent --seconds 3", "change --seconds 3",
        "change --seconds 3", "parent --seconds 3",
        "parent --seconds 3", "change --seconds 3",
    ]
    lines = proc.stdout.splitlines()
    assert lines[:3] == [
        "pair 1: parent failed=0, change failed=1",
        "pair 2: change failed=1, parent failed=0",
        "pair 3: parent failed=0, change failed=1",
    ]
    # every pair won, by more than the parent's interquartile range of 0
    assert lines[4].split() == ["solve.wall_s", "2", "1.5", "0", "3/3", "-25.0%", "25%", "GAIN"]
    # 20 MB against 19 is 5.3 % more, inside the 10 % bound, and no pair won
    assert lines[5].split() == ["solve.peak_rss_mb", "19", "20", "0", "0/3", "+5.3%", "10%"]


def test_bench_pairs_says_when_both_trees_run_the_same_benchmark(tmp_path):
    parent = stub_tree(tmp_path, "parent", failed=0, wall=2.0, rss=19.0)
    change = stub_tree(tmp_path, "change", failed=0, wall=2.0, rss=19.0)
    (change / "bench" / "__pycache__").mkdir()  # bytecode is not the benchmark
    (change / "bench" / "__pycache__" / "run.cpython-311.pyc").write_bytes(b"\0")
    proc = subprocess.run([sys.executable, str(PAIRS_TOOL), str(parent), str(change),
                           "--pairs", "1", "--", str(tmp_path / "runs.log")],
                          capture_output=True, text=True, check=True)
    assert proc.stderr == "harness: bench/ and BENCHMARK.json are byte-identical in both trees\n"


def test_bench_pairs_names_each_harness_file_that_differs(tmp_path):
    parent = stub_tree(tmp_path, "parent", failed=0, wall=2.0, rss=19.0)
    change = stub_tree(tmp_path, "change", failed=0, wall=1.5, rss=19.0)
    (change / "bench" / "extra.py").write_text("")  # in one tree only
    benchmark = json.loads((parent / "BENCHMARK.json").read_text())
    benchmark["end_to_end"][0]["bound"] = 0.5
    (change / "BENCHMARK.json").write_text(json.dumps(benchmark))
    proc = subprocess.run([sys.executable, str(PAIRS_TOOL), str(parent), str(change),
                           "--pairs", "1", "--", str(tmp_path / "runs.log")],
                          capture_output=True, text=True, check=True)
    assert proc.stderr == ("harness differs between the trees in BENCHMARK.json, "
                           "bench/extra.py, bench/run.py; better and bound are PARENT's\n")
    # the report itself reads PARENT's bound of 25 %
    assert proc.stdout.splitlines()[2].split()[-2:] == ["25%", "GAIN"]


def load_pairs_tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", PAIRS_TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def summaries(values):
    return [{"metrics": {"check.wall_s": {"value": value, "unit": "s"}}} for value in values]


BENCHMARK = {"workloads": [{"name": "check"}],
             "end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.25}], "per_layer": []}
# parent: median 0.16 s, interquartile range 0.007 s (statistics.quantiles, exclusive)
PARENT = [0.150, 0.155, 0.157, 0.158, 0.159, 0.161, 0.162, 0.163, 0.165, 0.170]


@pytest.mark.parametrize("change,verdict", [
    # nine pairs of ten won, the median 0.03 s better: a gain
    ([0.120, 0.125, 0.127, 0.128, 0.129, 0.131, 0.132, 0.133, 0.135, 0.171], ["GAIN"]),
    # every pair won, but the median only 0.005 s better, inside the parent's spread
    ([value - 0.005 for value in PARENT], []),
    # the median 0.03 s better, but three pairs lost
    ([0.120, 0.125, 0.127, 0.128, 0.129, 0.131, 0.132, 0.164, 0.166, 0.171], []),
], ids=["gain", "inside-iqr", "seven-of-ten"])
def test_bench_pairs_gain_needs_nine_in_ten_and_more_than_the_iqr(change, verdict):
    tool = load_pairs_tool()
    assert tool.iqr(PARENT) == pytest.approx(0.007)
    line = tool.compare(summaries(PARENT), summaries(change), BENCHMARK)[1].split()
    assert line[7:] == verdict


# parent: median 1.9 s, interquartile range 1.1 s, wider than 25 % of the median
WIDE = [1.0, 1.2, 1.4, 1.6, 1.8, 2.0, 2.2, 2.4, 2.6, 2.8]


@pytest.mark.parametrize("change,verdict", [
    # the same runs: no worse, but a spread that wide could hide a 25 % regression
    (WIDE, ["UNRESOLVED"]),
    # 10 % slower in the median, inside the bound, and as unresolved
    ([value * 1.1 for value in WIDE], ["UNRESOLVED"]),
    # every run better than every parent run, though not by more than the spread
    ([0.90, 0.91, 0.92, 0.93, 0.94, 0.95, 0.96, 0.97, 0.98, 0.99], []),
], ids=["same", "slower-inside-bound", "every-run-better"])
def test_bench_pairs_spread_wider_than_the_bound_is_unresolved(change, verdict):
    tool = load_pairs_tool()
    assert tool.iqr(WIDE) == pytest.approx(1.1)
    line = tool.compare(summaries(WIDE), summaries(change), BENCHMARK)[1].split()
    assert line[7:] == verdict
