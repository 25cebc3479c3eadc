"""One benchmark job, run in a fresh interpreter by run.py.

Usage: job.py JOB_JSON REPORT_PATH TRACE

Imports affineosc first, so that the time from process spawn until the import
returns is the user's set-up cost, then runs the job in the current directory
and writes its timestamps (time.monotonic, which is system-wide on Linux) to
REPORT_PATH.  With TRACE=1 the package's functions are wrapped by spans.py
before the job starts, and the spans go into the report as well.
"""

import sys
import time

import affineosc  # noqa: F401  (the timed import)

IMPORTED = time.monotonic()

import json  # noqa: E402

from affineosc import cli, interp, numeric  # noqa: E402
from affineosc.core import PhysicalParams  # noqa: E402


def run(job):
    """(exit code, spectra for the gate or None): the timed work of one job."""
    cmd, opts = job["cmd"], job["opts"]
    if cmd == "truncated_sweep":
        result = interp.truncated_sweep(PhysicalParams(), opts["b"], opts["orders"], opts["k"])
        spectra = [result.exact, *result.energies.values()]
    elif cmd == "hext1_truncation":
        spec = numeric.ProblemSpec(kind="hext1", params=PhysicalParams(), b=opts["b"])
        policy = numeric.GridPolicy(check_truncation=True)
        spectra = [[e for _, _, e, _ in numeric.solve(spec, opts["k"], policy).levels]]
    else:
        return cli.main(job["argv"]), None
    return 0, spectra


def main() -> int:
    job = json.loads(sys.argv[1])
    report_path, traced = sys.argv[2], sys.argv[3] == "1"
    recorder = None
    if traced:
        import spans

        recorder = spans.Recorder(job["id"])
        spans.instrument(recorder)
    start = time.monotonic()
    rc, spectra = run(job)
    end = time.monotonic()
    if spectra is not None:
        with open(job["out"], "w") as handle:
            json.dump({"spectra": spectra}, handle)
    report = {"imported": IMPORTED, "start": start, "end": end, "rc": rc}
    if recorder is not None:
        report["trace"] = recorder.dump()
    with open(report_path, "w") as handle:
        json.dump(report, handle)
    return rc


if __name__ == "__main__":
    sys.exit(main())
