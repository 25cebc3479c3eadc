"""Correctness gate: every job's output is checked against references that
live here and never call the package.

The closed forms are the ones in PAPER.md, with m = omega = hbar = 1 (the
CLI defaults; no job passes --m, --omega or --hbar).  They are written with
the same operation order as the package, so that the coupled enumeration can
be compared digit for digit with the 15-significant-digit output.
"""

from __future__ import annotations

import heapq
import json
import math
from pathlib import Path

M = OMEGA = HBAR = 1.0
REL_TOL = 1e-6  # the README bound on the closed-form kinds
CLOSED_FORM_KINDS = ("eqintro", "eqo1", "eqo2")
DEFAULT_SWEEP_B = [0.0, 1.0, 2.0, 5.0, 10.0, 20.0]
DEFAULT_SWEEP_LEVELS = 4


class GateError(Exception):
    """A job's output is missing, malformed or wrong."""


def closed_form(kind: str, n: int, g: float = 0.0) -> float:
    ratio = g / (M * OMEGA**2)
    if kind == "eqintro":
        return 2.0 * (n + 1) * HBAR * OMEGA
    if kind == "eqo1":
        return (n + 1) * HBAR * OMEGA * math.sqrt(1.0 + ratio)
    if kind == "eqo2":
        return (n + 0.5) * 0.5 * HBAR * OMEGA * math.sqrt(1.0 - ratio)
    raise ValueError(f"no closed form for {kind!r}")


def composite_levels(g: float, count: int):
    """The count lowest (n1, n2, E) by a heap merge of the two ladders, keyed on (E, n1, n2)."""

    def energy(n1, n2):
        return closed_form("eqo1", n1, g) + closed_form("eqo2", n2, g)

    heap = [(energy(0, 0), 0, 0)]
    seen = {(0, 0)}
    levels = []
    while len(levels) < count:
        e, n1, n2 = heapq.heappop(heap)
        levels.append((n1, n2, e))
        for nxt in ((n1 + 1, n2), (n1, n2 + 1)):
            if nxt not in seen:
                seen.add(nxt)
                heapq.heappush(heap, (energy(*nxt), *nxt))
    return levels


def _fmt(x: float) -> str:
    return format(float(x), ".14e")


def _read(path: Path) -> str:
    if not path.is_file():
        raise GateError(f"missing output {path.name}")
    return path.read_text()


def _csv(path: Path, header):
    lines = _read(path).splitlines()
    if not lines or lines[0] != ",".join(header):
        raise GateError(f"{path.name}: header is not {','.join(header)}")
    rows = [line.split(",") for line in lines[1:]]
    if any(len(row) != len(header) for row in rows):
        raise GateError(f"{path.name}: ragged row")
    return rows


def _json(path: Path):
    try:
        return json.loads(_read(path))
    except json.JSONDecodeError as exc:
        raise GateError(f"{path.name}: invalid JSON ({exc})") from None


def _finite(values, what):
    values = [float(v) for v in values]
    if not all(math.isfinite(v) for v in values):
        raise GateError(f"{what}: non-finite value")
    return values


def _ascending(values, what):
    if any(b <= a for a, b in zip(values, values[1:])):
        raise GateError(f"{what}: energies are not ascending")


def _companion(name: str, tag: str) -> str:
    stem, ext = name.rsplit(".", 1)
    return f"{stem}_{tag}.{ext}"


def _output(job, workdir: Path) -> Path:
    return workdir / (job["out"] or f"{job['id']}.stdout")


def _spectrum(job, workdir):
    opts = job["opts"]
    kind, levels, samples = opts["kind"], opts["levels"], opts.get("samples", 0)
    path = _output(job, workdir)
    if opts["format"] == "csv":
        rows = _csv(path, ["n", "energy_analytic", "energy_numeric", "abs_diff"])
        ns = [int(r[0]) for r in rows]
        energies = _finite([r[2] for r in rows], path.name)
        if samples:
            wf = _csv(workdir / _companion(job["out"], "wavefunctions"), ["n", "x", "value"])
            if len(wf) != levels * samples:
                raise GateError(f"{len(wf)} wavefunction rows, expected {levels * samples}")
            _finite([v for r in wf for v in r[1:]], "wavefunctions")
    else:
        doc = _json(path)
        ns = [lv["n"] for lv in doc["levels"]]
        energies = _finite([lv["energy_numeric"] for lv in doc["levels"]], path.name)
        if samples:
            wf = doc["wavefunctions"]
            if len(wf) != levels or any(len(w["samples"]) != samples for w in wf):
                raise GateError("wavefunction samples do not match --samples")
            _finite([v for w in wf for pair in w["samples"] for v in pair], "wavefunctions")
    if ns != list(range(levels)):
        raise GateError(f"levels {ns}, expected 0..{levels - 1}")
    if kind not in CLOSED_FORM_KINDS:
        _ascending(energies, kind)
        return None
    worst = 0.0
    for n, e in enumerate(energies):
        ref = closed_form(kind, n, opts.get("g", 0.0))
        worst = max(worst, abs(e - ref) / abs(ref))
    if worst > REL_TOL:
        raise GateError(f"{kind}: relative error {worst:.3e} exceeds {REL_TOL:g}")
    return worst


def _sweep(job, workdir):
    opts = job["opts"]
    b_values = opts.get("b_values", DEFAULT_SWEEP_B)
    levels = opts.get("levels", DEFAULT_SWEEP_LEVELS)
    path = _output(job, workdir)
    if opts.get("format", "csv") == "csv":
        rows = [(float(r[0]), int(r[1]), *_finite(r[2:], path.name))
                for r in _csv(path, ["b", "n", "energy", "dev_half", "dev_full"])]
    else:
        rows = [(r["b"], r["n"], *_finite([r["energy"], r["dev_half"], r["dev_full"]], path.name))
                for r in _json(path)["rows"]]
    expected = [(b, n) for b in b_values for n in range(levels)]
    if [(b, n) for b, n, *_ in rows] != expected:
        raise GateError("sweep rows do not cover the requested b values and levels")
    worst = 0.0
    for b, n, energy, _, _ in rows:
        if b == 0.0:
            ref = closed_form("eqintro", n)
            worst = max(worst, abs(energy - ref) / ref)
    if worst > REL_TOL:
        raise GateError(f"b = 0 rows: relative error {worst:.3e} exceeds {REL_TOL:g}")
    for n in range(levels):
        dev_full = [row[4] for row in rows if row[1] == n]
        if any(b > a for a, b in zip(dev_full, dev_full[1:])):
            raise GateError(f"dev_full increases with b for n = {n}")
    return worst


def _coupled(job, workdir):
    opts = job["opts"]
    g, count = opts["g"], opts["count"]
    expected = [(n1, n2, _fmt(e)) for n1, n2, e in composite_levels(g, count)]
    expected_branches = [
        (branch, n, _fmt(closed_form(kind, n, g)))
        for branch, kind in (("coupled_y1", "eqo1"), ("coupled_y2", "eqo2"))
        for n in range(count)
    ]
    path = _output(job, workdir)
    if opts["format"] == "csv":
        rows = [(int(a), int(b), e) for a, b, e in _csv(path, ["n1", "n2", "energy"])]
        branches = [(b, int(n), e) for b, n, e in
                    _csv(workdir / _companion(job["out"], "branches"), ["branch", "n", "energy"])]
    else:
        doc = _json(path)
        rows = [(r["n1"], r["n2"], _fmt(r["energy"])) for r in doc["composite"]]
        branches = [(r["branch"], r["n"], _fmt(r["energy"])) for r in doc["branches"]]
    if rows != expected:
        raise GateError("composite rows differ from the exact enumeration")
    if branches != expected_branches:
        raise GateError("branch ladders differ from the closed forms")
    return None


def _check(job, workdir):
    lines = _read(_output(job, workdir)).splitlines()
    if not lines:
        raise GateError("check printed nothing")
    failed = [line for line in lines if not line.startswith("[PASS]")]
    if failed:
        raise GateError(f"check line not passed: {failed[0]}")
    return None


def _library(job, workdir):
    k = job["opts"]["k"]
    for spectrum in _json(workdir / job["out"])["spectra"]:
        energies = _finite(spectrum, job["cmd"])
        if len(energies) != k:
            raise GateError(f"{job['cmd']}: {len(energies)} levels, expected {k}")
        _ascending(energies, job["cmd"])
    return None


GATES = {
    "spectrum": _spectrum,
    "sweep": _sweep,
    "coupled": _coupled,
    "check": _check,
    "truncated_sweep": _library,
    "hext1_truncation": _library,
}


def check(job, workdir: Path, rc: int):
    """(ok, reason, worst relative error against a closed form or None)."""
    if rc != 0:
        return False, f"exit code {rc}", None
    try:
        return True, "", GATES[job["cmd"]](job, workdir)
    except GateError as exc:
        return False, str(exc), None
    except (KeyError, TypeError, ValueError) as exc:
        return False, f"unparsable output ({type(exc).__name__}: {exc})", None
