"""affineosc benchmark: seeded CLI and library jobs, one fresh process each.

Usage:
    python3 bench/run.py [--workload solve|coupled|check|all] [--seed N]
                         [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package is imported from src/.
One client runs the workload's job list in a closed loop, one job process at
a time, until --seconds have been measured (at least one pass, and at least
MIN_JOBS jobs so that the tail percentile has ten samples beyond it).  Every
job's output goes through gate.py.  With --trace 0 the end-to-end metrics of
BENCHMARK.json are printed, with --trace 1 the per-layer ones.  The last line
of standard output is a JSON summary; the full record of the run (metrics,
per-job samples, environment) is written under .bench_run/results/.

See bench/README.md for the workloads, the metrics and why each exists.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import gate
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"
JOB_SCRIPT = BENCH / "job.py"

MIN_JOBS = 11          # the tail percentile needs ten samples beyond it
JOB_TIMEOUT = 120.0    # seconds; a job that takes longer is killed and fails
RUN_DEADLINE = 165.0   # seconds; no job starts later than this into a run
BLAS_THREADS = "1"     # kept at or below nproc
IMPORT_PROBES = 3
LEVEL4_REPEATS = 3

SPECTRUM_KINDS = ("eqintro", "eqo1", "eqo2", "hext1", "truncated")
COUPLED_COUNTS = (10, 15, 23, 35, 53, 81, 123, 187, 285, 433, 658, 1000)  # log-spaced
CHECK_NAMES = (
    "frame_round_trip", "hamiltonian_equivalence", "affine_identity", "bracket_table",
    "laguerre_1f1_identity", "hermite_parity", "laguerre_orthogonality", "equal_spacing",
    "orthonormality", "node_counts", "numeric_vs_analytic", "convergence_order",
    "variational_shift", "hext1_b0_matches_eqintro",
)

END_TO_END = {
    "wall_s": "s", "job_s.p50": "s", "job_s.tail": "s", "setup_s": "s", "peak_rss_mb": "MB",
}
IMPORT_LAYER = ("import.numpy_s", "import.scipy_linalg_s",
                "import.scipy_integrate_s", "import.affineosc_s")

IMPORT_PROBE = """
import json, time
t = [time.monotonic()]
import numpy; t.append(time.monotonic())
import scipy.linalg; t.append(time.monotonic())
import scipy.integrate; t.append(time.monotonic())
import affineosc; t.append(time.monotonic())
print(json.dumps([b - a for a, b in zip(t, t[1:])]))
"""

VERSION_PROBE = """
import json, platform, numpy, scipy, affineosc.cli
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "scipy": scipy.__version__, "affineosc": affineosc.__version__}))
"""


# ---------------------------------------------------------------- job lists

def _draw(rng, lo, hi, digits=6):
    return round(rng.uniform(lo, hi), digits)


def _cli_job(idx, cmd, opts, to_file=False):
    """A CLI job writing to a CSV file (so companions appear) or to stdout."""
    job_id = f"j{idx:02d}"
    out = f"{job_id}.csv" if to_file else None
    argv = [cmd]
    for key, value in opts.items():
        flag = "--" + key.replace("_", "-")
        argv += [flag, ",".join(map(repr, value)) if isinstance(value, list) else str(value)]
    if out:
        argv += ["--out", out]
    return {"id": job_id, "cmd": cmd, "opts": opts, "argv": argv, "out": out}


def solve_jobs(rng):
    jobs = []
    # Three level-4 jobs per kind keep the per-job medians inside one block of
    # similar jobs, whatever b and order the seed draws for the costlier ones.
    for levels, repeats in ((4, LEVEL4_REPEATS), (20, 1)):
        for _ in range(repeats):
            for kind in SPECTRUM_KINDS:
                opts = {"kind": kind, "levels": levels}
                if kind in ("eqo1", "eqo2"):
                    opts["g"] = _draw(rng, 0.1, 0.9)
                if kind in ("hext1", "truncated"):
                    opts["b"] = _draw(rng, 0.5, 10.0)
                if kind == "truncated":
                    opts["order"] = rng.randint(0, 4)
                if len(jobs) % 3 == 0:
                    opts["samples"] = rng.randint(16, 128)
                opts["format"] = ("csv", "json")[len(jobs) % 2]
                jobs.append(_cli_job(len(jobs), "spectrum", opts, opts["format"] == "csv"))
    jobs.append(_cli_job(len(jobs), "sweep", {}, to_file=True))
    b_values = [0.0] + sorted(_draw(rng, 0.5, 10.0, 3) for _ in range(3))
    jobs.append(_cli_job(len(jobs), "sweep", {"b_values": b_values, "levels": 4, "format": "json"}))
    for cmd, opts in (
        ("truncated_sweep", {"b": _draw(rng, 0.5, 10.0), "orders": [0, 1, 2, 3, 4], "k": 4}),
        ("hext1_truncation", {"b": _draw(rng, 0.5, 10.0), "k": 4}),
    ):
        job_id = f"j{len(jobs):02d}"
        jobs.append({"id": job_id, "cmd": cmd, "opts": opts, "out": f"{job_id}.json"})
    return jobs


def coupled_jobs(rng):
    jobs = []
    for count in COUPLED_COUNTS:
        for fmt in ("csv", "json"):
            opts = {"g": _draw(rng, 0.1, 0.9), "count": count, "format": fmt}
            jobs.append(_cli_job(len(jobs), "coupled", opts, fmt == "csv"))
    return jobs


def check_jobs(rng):
    # the suite seeds its own generators, so the job has no seeded input
    return [_cli_job(0, "check", {})]


WORKLOADS = {"solve": solve_jobs, "coupled": coupled_jobs, "check": check_jobs}


def make_jobs(workload: str, seed: int):
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))


# ---------------------------------------------------------------- processes

def child_env():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def _spawn(argv, cwd, stdout, stderr, timeout):
    """Run argv to completion: (exit code, spawn time, exit time, ru_maxrss in MB)."""
    t0 = time.monotonic()
    proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=stdout, stderr=stderr)
    # the child stays unreaped until wait4 returns, so the kill cannot hit a reused pid
    timer = threading.Timer(timeout, os.kill, (proc.pid, signal.SIGKILL))
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    t1 = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, t0, t1, usage.ru_maxrss / 1024.0


def probe(script: str):
    """Run a short Python snippet in a fresh child and parse its JSON output."""
    out = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=child_env(),
                         capture_output=True, text=True, timeout=JOB_TIMEOUT)
    if out.returncode != 0:
        raise RuntimeError(f"probe failed: {out.stderr.strip()[-500:]}")
    return json.loads(out.stdout)


def run_job(job, workdir: Path, traced: bool, timeout: float):
    report = workdir / f"{job['id']}.timing.json"
    report.unlink(missing_ok=True)  # left by the untraced run of the same job
    argv = [sys.executable, str(JOB_SCRIPT), json.dumps(job), str(report), "1" if traced else "0"]
    with open(workdir / f"{job['id']}.stdout", "w") as out, \
            open(workdir / f"{job['id']}.stderr", "w") as err:
        rc, t0, t1, rss_mb = _spawn(argv, workdir, out, err, timeout)
    sample = {"id": job["id"], "rc": rc, "job_s": t1 - t0, "rss_mb": rss_mb}
    try:
        times = json.loads(report.read_text())
        sample["setup_s"] = times["imported"] - t0
        sample["work_s"] = times["end"] - times["start"]
        sample["trace"] = times.get("trace")
    except (OSError, ValueError):  # the job died before writing its report
        pass
    ok, reason, rel_err = gate.check(job, workdir, rc)
    if ok and "work_s" not in sample:
        ok, reason = False, "no timing report"
    if not ok and rc != 0:
        reason += ": " + (workdir / f"{job['id']}.stderr").read_text().strip()[-300:]
    sample.update(ok=ok, reason=reason, rel_err=rel_err)
    return sample


def run_pass(jobs, workdir: Path, modes, deadline: float):
    """One closed-loop pass per mode: each job starts after the previous one exits.

    With modes (False, True) every job runs untraced and then traced, so that
    a drift in machine speed hits both sides of trace.overhead alike.  A
    pass's wall time is the sum of its jobs' spawn-to-exit times; the gating
    between jobs is not counted.
    """
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    samples = {traced: [] for traced in modes}
    for job in jobs:
        for traced in modes:
            left = deadline - time.monotonic()
            if left <= 0:
                samples[traced].append({"id": job["id"], "ok": False,
                                        "reason": "not started before the run deadline"})
                continue
            samples[traced].append(run_job(job, workdir, traced, min(JOB_TIMEOUT, left)))
    shutil.rmtree(workdir, ignore_errors=True)
    return [{"wall_s": sum(s.get("job_s", 0.0) for s in done), "traced": traced, "samples": done}
            for traced, done in samples.items()]


# ---------------------------------------------------------------- metrics

def tail(values):
    """Highest nearest-rank percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond).  With ten or fewer samples
    no percentile qualifies and the minimum is returned with its count.
    """
    ordered = sorted(values)
    rank = max(1, len(ordered) - 10)
    return ordered[rank - 1], 100.0 * rank / len(ordered), len(ordered) - rank


def end_to_end(passes):
    samples = [s for p in passes for s in p["samples"] if "work_s" in s]
    if not samples:
        raise RuntimeError("no job produced a timing report")
    job_s = [s["job_s"] for s in samples]
    value, pct, beyond = tail(job_s)
    metrics = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "job_s.p50": statistics.median(job_s),
        "job_s.tail": value,
        "setup_s": statistics.median(s["setup_s"] for s in samples),
        # mean over the jobs of a pass, median over passes: a median over
        # the jobs of one pass would flip between job classes as the seed
        # changes which job sits in the middle
        "work_s": statistics.median(
            statistics.mean(timed) for p in passes
            if (timed := [s["work_s"] for s in p["samples"] if "work_s" in s])
        ),
        "peak_rss_mb": statistics.median(
            max(s.get("rss_mb", 0.0) for s in p["samples"]) for p in passes
        ),
    }
    notes = {"job_s.tail": f"p{pct:.0f} of {len(job_s)} jobs, {beyond} beyond"}
    return metrics, notes


def per_layer(passes, import_probes):
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    per_pass = [
        spans.layer_totals([s["trace"] for s in p["samples"] if s.get("trace")], CHECK_NAMES)
        for p in traced
    ]
    metrics = {name: statistics.median(vals) for name, vals in zip(IMPORT_LAYER, zip(*import_probes))}
    for name in per_pass[0]:
        metrics[name] = statistics.median(totals[name] for totals in per_pass)
    metrics["trace.overhead"] = (statistics.median(p["wall_s"] for p in traced)
                                 / statistics.median(p["wall_s"] for p in plain))
    return metrics


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name == "cli.out_bytes":
        return "bytes"
    if name == "trace.overhead":
        return "ratio"
    return "count"


# ---------------------------------------------------------------- entry point

def measure(workload: str, seed: int, seconds: float, trace: bool, min_jobs: int = MIN_JOBS,
            jobs=None):
    """Run one workload; returns the record that run.py prints and stores."""
    jobs = jobs if jobs is not None else make_jobs(workload, seed)
    started = time.monotonic()
    deadline = started + RUN_DEADLINE
    env = probe(VERSION_PROBE)  # also warms the bytecode cache and the page cache
    import_probes = [probe(IMPORT_PROBE) for _ in range(IMPORT_PROBES)] if trace else []
    workdir = RUN_DIR / f"work-{os.getpid()}"

    passes = []
    modes = (False, True) if trace else (False,)
    while True:
        passes.extend(run_pass(jobs, workdir, modes, deadline))
        elapsed = time.monotonic() - started
        per_pass = elapsed / (len(passes) / len(modes))
        done = sum(len(p["samples"]) for p in passes if not p["traced"])
        if time.monotonic() > deadline - per_pass:
            break
        if (trace or done >= min_jobs) and elapsed + per_pass > seconds:
            break
    shutil.rmtree(workdir, ignore_errors=True)

    samples = [s for p in passes for s in p["samples"]]
    failed = [s for s in samples if not s["ok"]]
    rel_errs = [s["rel_err"] for s in samples if s.get("rel_err") is not None]
    if trace:
        metrics, notes = per_layer(passes, import_probes), {}
        units = {name: layer_unit(name) for name in metrics}
    else:
        metrics, notes = end_to_end(passes)
        units = dict(END_TO_END)
    extra = {"fail_frac": (len(failed) / len(samples), "1")}
    if "work_s" in metrics:  # printed, but too unsteady on coupled for a bound (see README)
        extra["work_s"] = (metrics.pop("work_s"), "s")
    if rel_errs:
        extra["max_rel_err"] = (max(rel_errs), "1")
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "attempted": len(samples), "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
        "extra": {name: {"value": v, "unit": u} for name, (v, u) in extra.items()},
        "notes": notes,
        "failures": [{"id": s["id"], "reason": s["reason"]} for s in failed],
        "passes": [{"wall_s": p["wall_s"], "traced": p["traced"],
                    "samples": [{k: v for k, v in s.items() if k != "trace"} for s in p["samples"]]}
                   for p in passes],
        "jobs": jobs,
        "environment": {**env, "nproc": os.cpu_count(),
                        "affinity": len(os.sched_getaffinity(0)),
                        "cpu_model": cpu_model(), "platform": platform.platform(),
                        "blas_threads": BLAS_THREADS},
    }


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def report_lines(record):
    """Human-readable lines: every metric by name, value and unit."""
    lines = [f"# workload={record['workload']} seed={record['seed']} trace={record['trace']} "
             f"attempted={record['attempted']} failed={record['failed']}"]
    for name, metric in {**record["metrics"], **record["extra"]}.items():
        note = record["notes"].get(name)
        lines.append(f"{name:32s} {metric['value']:<22.10g} {metric['unit']}"
                     + (f"  ({note})" if note else ""))
    for failure in record["failures"]:
        lines.append(f"FAILED {failure['id']}: {failure['reason']}")
    env = record["environment"]
    lines.append(f"# python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
                 f"nproc {env['nproc']}, cpu {env['cpu_model']}, BLAS threads {env['blas_threads']}")
    return lines


def summary(records):
    metrics = {}
    for record in records:
        prefix = f"{record['workload']}." if len(records) > 1 else ""
        metrics.update({prefix + name: m for name, m in record["metrics"].items()})
    failed = sum(r["failed"] for r in records)
    return {"correct": failed == 0, "attempted": sum(r["attempted"] for r in records),
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "affineosc" / "__init__.py").is_file():
        print(f"error: {SRC / 'affineosc'} not found; run from an affineosc source checkout",
              file=sys.stderr)
        return 2

    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    for workload in workloads:
        record = measure(workload, args.seed, args.seconds, bool(args.trace))
        records.append(record)
        results = RUN_DIR / "results"
        results.mkdir(parents=True, exist_ok=True)
        path = results / f"{workload}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(record, indent=1))
        print("\n".join(report_lines(record)), flush=True)
    print(json.dumps(summary(records)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
