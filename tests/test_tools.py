"""Smoke tests of tools/code_lines.py, the code-line count of ``src/``, and of
tools/bench_pairs.py, the paired benchmark comparison."""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

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
    assert lines[4].split() == ["solve.wall_s", "2", "1.5", "0", "3/3", "-25.0%", "25%"]
    # 20 MB against 19 is 5.3 % more, inside the 10 % bound, and no pair won
    assert lines[5].split() == ["solve.peak_rss_mb", "19", "20", "0", "0/3", "+5.3%", "10%"]
