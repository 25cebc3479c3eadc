"""Span recorder for the traced benchmark run.

Inside a job process, ``instrument`` replaces public functions of the
affineosc modules with wrappers that record one span per call.  A wrapper is
installed at the name its caller looks up (a module attribute read at call
time, or an entry of ``checks.ALL_CHECKS``), so nothing in the package itself
changes.  Spans stay in memory and are written out once, when the job ends.

In the benchmark process, ``layer_totals`` folds the spans of one pass into
the per-layer metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

# (module, attribute) -> span name.  One name may cover several functions.
SPANNED = {
    ("cli", "config_from_args"): "cli.parse",
    ("cli", "render_csv"): "cli.render",
    ("cli", "render_json"): "cli.render",
    ("cli", "_write"): "cli.write",
    ("numeric", "solve"): "numeric.solve",
    ("interp", "solve"): "numeric.solve",
    ("numeric", "assemble"): "numeric.assemble",
    ("numeric", "lowest_eigenvalues"): "numeric.eigvals",
    ("numeric", "eigenvector"): "numeric.eigvec",
    ("interp", "b_sweep"): "interp.b_sweep",
    ("interp", "truncated_sweep"): "interp.truncated_sweep",
    ("analytic", "composite_spectrum"): "analytic.composite",
    ("analytic", "half_ho_eigen"): "analytic.eigen",
    ("analytic", "coupled_y1_eigen"): "analytic.eigen",
    ("analytic", "coupled_y2_eigen"): "analytic.eigen",
    ("analytic", "confluent_1f1_neg"): "specfun.poly",
    ("analytic", "hermite"): "specfun.poly",
    ("specfun", "confluent_1f1_neg"): "specfun.poly",
    ("specfun", "hermite"): "specfun.poly",
    ("specfun", "laguerre_assoc"): "specfun.poly",
    ("specfun", "integrate_halfline"): "specfun.quad",
    ("core", "to_normal"): "core.frame",
    ("core", "from_normal"): "core.frame",
    ("core", "hamiltonian_original"): "core.hamiltonian",
    ("core", "hamiltonian_normal"): "core.hamiltonian",
    ("core", "hamiltonian_affine"): "core.hamiltonian",
    ("core", "poisson_bracket"): "core.bracket",
}

# The closures these factories return are the analytic wavefunctions; their
# evaluations count as analytic.eigen time.
WAVEFUNCTION_FACTORIES = ("_halfline_wavefunction", "_hermite_wavefunction")

CHECK_PREFIX = "check_"


class Recorder:
    """Spans of one job: [name, start, end, parent index, job id]."""

    def __init__(self, job_id: str):
        self.job_id = job_id
        self.spans = []
        self.counts = Counter()
        self._open = []

    def wrap(self, name, fn, tally=None):
        """fn with a span per call; ``tally(counts, *args)`` adds work counts."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._open[-1] if self._open else None
            span_name = name
            if name == "numeric.solve" and parent is not None and self.spans[parent][0] == name:
                span_name = "numeric.truncation_resolve"
            record = [span_name, time.perf_counter(), None, parent, self.job_id]
            self._open.append(len(self.spans))
            self.spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._open.pop()
                if tally is not None:
                    tally(self.counts, *args, **kwargs)

        return wrapper

    def count(self, name, fn):
        """fn with a call counter only (for calls too cheap and many to span)."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}


def _eigvals_tally(counts, matrix, k, *_, **__):
    counts["numeric.eigvals_nk"] += matrix.n * k


def _write_tally(counts, text, *_, **__):
    counts["cli.out_bytes"] += len(text.encode())


TALLIES = {"numeric.eigvals": _eigvals_tally, "cli.write": _write_tally}


def instrument(recorder: Recorder):
    """Install the wrappers into the imported affineosc modules."""
    from affineosc import analytic, checks, cli, core, interp, numeric, specfun

    modules = {
        "analytic": analytic, "cli": cli, "core": core, "interp": interp,
        "numeric": numeric, "specfun": specfun,
    }
    for (module_name, attr), span_name in SPANNED.items():
        module = modules[module_name]
        traced = recorder.wrap(span_name, getattr(module, attr), TALLIES.get(span_name))
        setattr(module, attr, traced)

    for factory_name in WAVEFUNCTION_FACTORIES:
        factory = getattr(analytic, factory_name)

        def traced_factory(*args, _factory=factory):
            return recorder.wrap("analytic.eigen", _factory(*args))

        setattr(analytic, factory_name, traced_factory)

    analytic.branch_energy = recorder.count("analytic.branch_energy", analytic.branch_energy)

    checks.ALL_CHECKS[:] = [
        recorder.wrap("checks." + check.__name__[len(CHECK_PREFIX):], check)
        for check in checks.ALL_CHECKS
    ]


def _covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans):
    """Per span: duration minus the time its child spans cover."""
    children = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    return [
        (end - start) - _covered(children[idx])
        for idx, (_, start, end, _, _) in enumerate(spans)
    ]


def nesting_violations(spans):
    """Spans that do not lie inside their parent's interval."""
    bad = []
    for name, start, end, parent, _ in spans:
        if end is None or end < start:
            bad.append(name)
        elif parent is not None:
            _, p_start, p_end, _, _ = spans[parent]
            if not p_start <= start <= end <= p_end:
                bad.append(name)
    return bad


def layer_totals(dumps, check_names):
    """Per-layer metric values for one pass, from the dumps of its jobs."""
    total = Counter()
    self_total = Counter()
    calls = Counter()
    counts = Counter()
    for dump in dumps:
        spans = dump["spans"]
        for (name, start, end, _, _), own in zip(spans, self_times(spans)):
            total[name] += end - start
            self_total[name] += own
            calls[name] += 1
        counts.update(dump["counts"])

    metrics = {
        "cli.parse_s": total["cli.parse"],
        "cli.render_s": total["cli.render"],
        "cli.write_s": total["cli.write"],
        "cli.out_bytes": counts["cli.out_bytes"],
        "numeric.solve_s": total["numeric.solve"],
        "numeric.solve.self_s": self_total["numeric.solve"],
        "numeric.assemble_s": total["numeric.assemble"],
        "numeric.eigvals_s": total["numeric.eigvals"],
        "numeric.eigvals_calls": calls["numeric.eigvals"],
        "numeric.eigvals_nk": counts["numeric.eigvals_nk"],
        "numeric.eigvec_s": total["numeric.eigvec"],
        "numeric.eigvec_calls": calls["numeric.eigvec"],
        "numeric.truncation_resolve_s": total["numeric.truncation_resolve"],
        "interp.b_sweep_s": total["interp.b_sweep"],
        "interp.b_sweep.self_s": self_total["interp.b_sweep"],
        "interp.truncated_sweep_s": total["interp.truncated_sweep"],
        "analytic.composite_s": total["analytic.composite"],
        "analytic.composite_calls": calls["analytic.composite"],
        "analytic.branch_energy_calls": counts["analytic.branch_energy"],
        "analytic.eigen_s": total["analytic.eigen"],
        "specfun.quad_s": total["specfun.quad"],
        "specfun.quad_calls": calls["specfun.quad"],
        "specfun.poly_s": total["specfun.poly"],
        "specfun.poly_calls": calls["specfun.poly"],
        "core.frame_s": total["core.frame"],
        "core.hamiltonian_s": total["core.hamiltonian"],
        "core.bracket_s": total["core.bracket"],
    }
    for name in check_names:
        metrics[f"checks.{name}_s"] = total[f"checks.{name}"]
    return metrics
