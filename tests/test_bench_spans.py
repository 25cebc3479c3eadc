"""The traced benchmark still finds every function it wraps.

bench/spans.py replaces package functions by name (``SPANNED`` and the
wavefunction factories), and bench/test_bench.py is not part of this suite.
So a renamed or inlined function would only break the traced benchmark run.
These tests run the span recorder on five commands, on ``check`` alone, on
``specfun`` alone and on one truncation-checked solve, in a fresh interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import affineosc

BENCH = Path(__file__).resolve().parent.parent / "bench"

TRACED_SCRIPT = """
import json, sys
bench, out, argvs = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
sys.path.insert(0, bench)
import spans
from affineosc import analytic, cli, core, interp, numeric, specfun
modules = {"analytic": analytic, "cli": cli, "core": core, "interp": interp,
           "numeric": numeric, "specfun": specfun}
missing = [f"{m}.{a}" for m, a in spans.SPANNED if not hasattr(modules[m], a)]
missing += [f"analytic.{a}" for a in spans.WAVEFUNCTION_FACTORIES if not hasattr(analytic, a)]
recorder = spans.Recorder("guard")
spans.instrument(recorder)
rcs = [cli.main(argv) for argv in argvs]
with open(out, "w") as handle:
    violations = spans.nesting_violations(recorder.spans)
    json.dump({"missing": missing, "rcs": rcs, "violations": violations,
               "names": sorted({span[0] for span in recorder.spans}),
               "counts": dict(recorder.counts)}, handle)
"""

SOLVE_SCRIPT = """
import json, sys
bench, out = sys.argv[1], sys.argv[2]
sys.path.insert(0, bench)
import spans
from affineosc import numeric
recorder = spans.Recorder("guard")
spans.instrument(recorder)
numeric.solve(numeric.ProblemSpec("hext1", b=2.0), 4, numeric.GridPolicy(check_truncation=True))
with open(out, "w") as handle:
    json.dump({"violations": spans.nesting_violations(recorder.spans),
               "spans": [[name, None if parent is None else recorder.spans[parent][0]]
                         for name, _, _, parent, _ in recorder.spans]}, handle)
"""

SPECFUN_ARGV = ["specfun", "--fn", "laguerre", "--n", "3", "--points", "0,1"]
ARGVS = [
    ["spectrum", "--levels", "2", "--samples", "4", "--out", "spectrum.csv"],
    ["sweep", "--b-values", "0,1", "--levels", "1", "--out", "sweep.csv"],
    ["coupled", "--g", "0.6", "--count", "5", "--out", "coupled.csv"],
    SPECFUN_ARGV,
    ["check"],
]


def run_traced(tmp_path, script, *args):
    """What script, run in a fresh interpreter, dumps as JSON."""
    src = os.path.dirname(os.path.dirname(affineosc.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = tmp_path / "trace.json"
    proc = subprocess.run(
        [sys.executable, "-c", script, str(BENCH), str(out), *args],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(out.read_text())


def trace(tmp_path, argvs):
    """The traced run of argvs in a fresh interpreter, as TRACED_SCRIPT dumps it."""
    result = run_traced(tmp_path, TRACED_SCRIPT, json.dumps(argvs))
    assert result["missing"] == []
    assert result["rcs"] == [0] * len(argvs)
    return result


def test_traced_commands_record_every_layer(tmp_path):
    result = trace(tmp_path, ARGVS)
    expected = {"numeric.eigvals", "numeric.eigvec", "analytic.eigen",
                "cli.parse", "cli.render", "cli.write"}
    assert expected <= set(result["names"]), sorted(expected - set(result["names"]))
    assert result["violations"] == []


def test_traced_check_records_analytic_layer(tmp_path):
    # check builds its eigenpairs from analytic.BRANCHES: the wavefunction
    # evaluations still count as analytic.eigen, the energies as branch_energy calls
    result = trace(tmp_path, [["check"]])
    assert "analytic.eigen" in result["names"]
    assert result["counts"].get("analytic.branch_energy", 0) > 0
    assert result["violations"] == []


def test_truncation_resolve_is_a_nested_solve_span(tmp_path):
    # the re-solve on the 1.5x wider domain must stay a call of numeric.solve
    # itself: the recorder names that nested span numeric.truncation_resolve,
    # the per-layer metric numeric.truncation_resolve_s
    result = run_traced(tmp_path, SOLVE_SCRIPT)
    spans = result["spans"]
    assert spans.count(["numeric.solve", None]) == 1
    assert spans.count(["numeric.truncation_resolve", "numeric.solve"]) == 1
    assert [name for name, _ in spans].count("numeric.eigvals") == 6
    assert result["violations"] == []


def test_traced_specfun_records_its_polynomials(tmp_path):
    # cli.SPECFUN looks each function up on the specfun module at call time,
    # so the recorder's wrappers see the calls (check alone also makes them)
    result = trace(tmp_path, [SPECFUN_ARGV])
    assert "specfun.poly" in result["names"]
    assert result["violations"] == []
