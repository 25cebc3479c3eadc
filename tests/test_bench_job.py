"""The library calls of the benchmark's job script keep working.

bench/job.py reaches ``numeric.solve`` and ``interp.truncated_sweep`` directly
and reads their levels itself, so a change to the result shape would first show
up as a failed benchmark job.  These tests run its two library jobs instead.
"""

import importlib.util
import math
from pathlib import Path

import pytest

JOB_SCRIPT = Path(__file__).resolve().parent.parent / "bench" / "job.py"


@pytest.fixture(scope="module")
def job():
    spec = importlib.util.spec_from_file_location("bench_job", JOB_SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("cmd,opts,count", [
    ("hext1_truncation", {"b": 2.0, "k": 4}, 1),
    ("truncated_sweep", {"b": 5.0, "orders": [0, 1, 2, 3, 4], "k": 4}, 6),
])
def test_library_job_spectra(job, cmd, opts, count):
    rc, spectra = job.run({"cmd": cmd, "opts": opts})
    assert rc == 0
    assert len(spectra) == count
    for energies in spectra:
        assert len(energies) == opts["k"]
        assert all(math.isfinite(e) for e in energies)
        assert all(a < b for a, b in zip(energies, energies[1:]))
