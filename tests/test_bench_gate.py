"""The benchmark's correctness gate still accepts what the package writes.

bench/run.py starts every job as a fresh bench/job.py process and checks its
output with bench/gate.py, whose references never call the package.  A change
that moves an output past the gate, or breaks a job outright, would otherwise
only show as a failed benchmark run.  This test runs one job of each class
through ``run.run_job`` in a fresh interpreter: spectrum at k = 4 in CSV with
samples and in JSON without, and at k = 20 in JSON with samples; the default
sweep; both library jobs; the largest coupled job in each format; and check.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import affineosc

BENCH = Path(__file__).resolve().parent.parent / "bench"

# the job ids at seed 0, by workload
JOBS = {
    "solve": ["j00", "j01", "j15", "j20", "j22", "j23"],
    "coupled": ["j22", "j23"],
    "check": ["j00"],
}

GATE_SCRIPT = """
import json, sys
from pathlib import Path
bench, workdir, wanted = sys.argv[1], Path(sys.argv[2]), json.loads(sys.argv[3])
sys.path.insert(0, bench)
import run
samples = []
for workload, ids in wanted.items():
    jobs = {job["id"]: job for job in run.make_jobs(workload, 0)}
    where = workdir / workload  # job ids repeat across workloads
    where.mkdir()
    for job_id in ids:
        sample = run.run_job(jobs[job_id], where, False, run.JOB_TIMEOUT)
        samples.append([workload, job_id, sample["ok"], sample["reason"]])
print(json.dumps(samples))
"""


def test_one_job_of_each_class_passes_the_gate(tmp_path):
    src = os.path.dirname(os.path.dirname(affineosc.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", GATE_SCRIPT, str(BENCH), str(tmp_path), json.dumps(JOBS)],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    samples = json.loads(proc.stdout)
    assert [(workload, job_id) for workload, job_id, _, _ in samples] == [
        (workload, job_id) for workload, ids in JOBS.items() for job_id in ids
    ]
    failed = [f"{workload} {job_id}: {reason}"
              for workload, job_id, ok, reason in samples if not ok]
    assert not failed, "\n".join(failed)
