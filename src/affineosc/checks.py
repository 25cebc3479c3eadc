"""Self-contained invariant suite, runnable from the command line.

Each check returns (name, passed, detail).  The suite covers the classical
layer (frame round trips, Hamiltonian equivalence, Poisson bracket table),
the special functions, the analytic eigenpairs and the agreement between the
finite-difference solver and the closed forms.
"""

from __future__ import annotations

import math
from typing import Callable, List, Tuple

import numpy as np

from . import analytic, core, numeric, specfun

CheckResult = Tuple[str, bool, str]


def _random_original_points(rng, count):
    pts = []
    for _ in range(count):
        q1, q2 = rng.uniform(0.1, 4.0, size=2)
        p1, p2 = rng.uniform(-4.0, 4.0, size=2)
        pts.append(core.PhaseSpacePoint(q1, q2, p1, p2, frame=core.ORIGINAL))
    return pts


def check_frame_round_trip() -> CheckResult:
    rng = np.random.default_rng(0)
    worst = 0.0
    for pt in _random_original_points(rng, 1000):
        back = core.from_normal(core.to_normal(pt))
        worst = max(
            worst,
            abs(back.q1 - pt.q1),
            abs(back.q2 - pt.q2),
            abs(back.p1 - pt.p1),
            abs(back.p2 - pt.p2),
        )
    # the halving in from_normal is exact, but the sums in to_normal each
    # round once, so the round trip is only machine-precision accurate
    return ("frame round trip", worst <= 1e-14, f"max deviation {worst:.3e}")


def check_hamiltonian_equivalence() -> CheckResult:
    rng = np.random.default_rng(1)
    params = core.PhysicalParams(g=0.6)
    worst = 0.0
    for pt in _random_original_points(rng, 1000):
        h1 = core.hamiltonian_original(pt, params)
        h2 = core.hamiltonian_normal(core.to_normal(pt), params)
        worst = max(worst, abs(h1 - h2) / max(1.0, abs(h1)))
    return ("Hamiltonian equivalence under frame change", worst <= 1e-12,
            f"max relative deviation {worst:.3e}")


def check_affine_identity() -> CheckResult:
    rng = np.random.default_rng(2)
    params = core.PhysicalParams(g=0.6)
    worst = 0.0
    for pt in _random_original_points(rng, 1000):
        nm = core.to_normal(pt)
        if nm.q1 <= 0:
            continue
        d = core.dilation(nm.q1, nm.p1).d
        h_aff = core.hamiltonian_affine(nm.q1, d, nm.q2, nm.p2, params)
        h_nrm = core.hamiltonian_normal(nm, params)
        worst = max(worst, abs(h_aff - h_nrm) / max(1.0, abs(h_nrm)))
    return ("affine kinetic term matches canonical one", worst <= 1e-12,
            f"max relative deviation {worst:.3e}")


def check_bracket_table() -> CheckResult:
    pt = core.PhaseSpacePoint(0.9, 0.6, 0.4, -1.3, frame=core.ORIGINAL)
    step = 1e-5
    tol = 10 * step**2

    def y1(p):
        return p.q1 + p.q2

    def y2(p):
        return p.q1 - p.q2

    def py1(p):
        return p.p1 + p.p2

    def py2(p):
        return p.p1 - p.p2

    def dy1(p):
        return (p.p1 + p.p2) * (p.q1 + p.q2)

    cases = [
        (lambda p: p.q1, lambda p: p.p1, 1.0),
        (lambda p: p.q2, lambda p: p.p2, 1.0),
        (y1, py1, 2.0),
        (y2, py2, 2.0),
        (y1, dy1, 2.0 * (pt.q1 + pt.q2)),
        (y1, py2, 0.0),
        (y2, py1, 0.0),
    ]
    worst = 0.0
    for f, g, expected in cases:
        got = core.poisson_bracket(f, g, pt, step_scale=step)
        worst = max(worst, abs(got - expected))
    return ("Poisson bracket table", worst <= tol,
            f"max deviation {worst:.3e} (tolerance {tol:.1e})")


def check_laguerre_1f1_identity() -> CheckResult:
    rng = np.random.default_rng(3)
    worst = 0.0
    for n in range(21):
        for z in rng.uniform(0.0, 50.0, size=10):
            lhs = specfun.confluent_1f1_neg(n, 2.0, z)
            rhs = specfun.laguerre_assoc(n, 1.0, z) / (n + 1)
            worst = max(worst, abs(lhs - rhs) / max(1e-30, abs(rhs)))
    return ("Laguerre / confluent-series identity", worst <= 1e-12,
            f"max relative deviation {worst:.3e}")


def check_hermite_parity() -> CheckResult:
    rng = np.random.default_rng(4)
    worst = 0.0
    for n in range(31):
        for x in rng.uniform(0.0, 3.0, size=10):
            a = specfun.hermite(n, x)
            b = specfun.hermite(n, -x)
            worst = max(worst, abs(b - (-1.0) ** n * a) / max(1.0, abs(a)))
    return ("Hermite parity", worst <= 1e-12, f"max relative deviation {worst:.3e}")


def check_laguerre_orthogonality() -> CheckResult:
    worst = 0.0
    for mdeg in range(9):
        for ndeg in range(mdeg, 9):
            val = specfun.integrate_halfline(
                lambda t: math.exp(-t)
                * t
                * specfun.laguerre_assoc(mdeg, 1.0, t)
                * specfun.laguerre_assoc(ndeg, 1.0, t),
                lower=0.0,
                decay_scale=16.0,
                tol=1e-10,
            )
            expected = (ndeg + 1.0) if mdeg == ndeg else 0.0
            worst = max(worst, abs(val - expected))
    return ("Laguerre orthogonality", worst <= 1e-8, f"max deviation {worst:.3e}")


def _branch_pairs(params, count=6):
    return {
        analytic.HALF_HO: [analytic.half_ho_eigen(n, params) for n in range(count)],
        analytic.COUPLED_Y1: [
            analytic.coupled_y1_eigen(n, params) for n in range(count)
        ],
        analytic.COUPLED_Y2: [
            analytic.coupled_y2_eigen(n, params) for n in range(count)
        ],
    }


def check_equal_spacing() -> CheckResult:
    params = core.PhysicalParams(g=0.6)
    hw = params.hbar * params.omega
    expected = {
        analytic.HALF_HO: 2.0 * hw,
        analytic.COUPLED_Y1: hw * math.sqrt(1.0 + params.g_ratio),
        analytic.COUPLED_Y2: 0.5 * hw * math.sqrt(1.0 - params.g_ratio),
    }
    worst = 0.0
    for branch, pairs in _branch_pairs(params, count=10).items():
        for lo, hi in zip(pairs, pairs[1:]):
            worst = max(worst, abs((hi.energy - lo.energy) - expected[branch]))
    return ("equal level spacing per branch", worst <= 1e-12,
            f"max spacing deviation {worst:.3e}")


def gram_matrix(pairs, lower, decay_scale):
    """Overlap matrix of analytic eigenfunctions by half-line quadrature."""
    size = len(pairs)
    gram = np.zeros((size, size))
    for i in range(size):
        for j in range(i, size):
            gram[i, j] = gram[j, i] = specfun.integrate_halfline(
                lambda t: pairs[i].wavefunction(t) * pairs[j].wavefunction(t),
                lower=lower,
                decay_scale=decay_scale,
                tol=1e-10,
            )
    return gram


def check_orthonormality() -> CheckResult:
    params = core.PhysicalParams(g=0.6)
    worst = 0.0
    for branch, pairs in _branch_pairs(params, count=6).items():
        if branch == analytic.COUPLED_Y2:
            scale = 1.0 / math.sqrt(params.alpha2)
            lower, decay = -12.0 * scale, 4.0 * scale
        else:
            alpha = params.alpha1 if branch == analytic.COUPLED_Y1 else (
                params.m * params.omega / params.hbar
            )
            lower, decay = 0.0, 1.6 / math.sqrt(alpha)
        gram = gram_matrix(pairs, lower, decay)
        worst = max(worst, float(np.max(np.abs(gram - np.eye(len(pairs))))))
    return ("branch orthonormality (Gram matrix)", worst <= 1e-8,
            f"max Gram deviation {worst:.3e}")


def check_node_counts() -> CheckResult:
    params = core.PhysicalParams(g=0.6)
    ok = True
    detail = []
    for branch, pairs in _branch_pairs(params, count=9).items():
        if branch == analytic.COUPLED_Y2:
            xs = np.linspace(-10.0, 10.0, 20001)
        else:
            xs = np.linspace(1e-4, 10.0, 20001)
        for pair in pairs:
            nodes = numeric.sign_changes(pair.wavefunction(xs))
            if nodes != pair.n:
                ok = False
                detail.append(f"{branch} n={pair.n} -> {nodes} nodes")
    return ("interior node counts", ok, "; ".join(detail) or "all match")


def check_numeric_vs_analytic() -> CheckResult:
    params = core.PhysicalParams(g=0.6)
    worst = 0.0
    for kind, facts in numeric.KIND_FACTS.items():
        if facts.branch is None:
            continue
        result = numeric.solve(numeric.ProblemSpec(kind=kind, params=params), k=4)
        for n, _, energy, _ in result.levels:
            ref = analytic.branch_energy(facts.branch, n, params)
            worst = max(worst, abs(energy - ref) / abs(ref))
    return ("numeric spectra match closed forms", worst <= 1e-6,
            f"max relative deviation {worst:.3e}")


def check_convergence_order() -> CheckResult:
    params = core.PhysicalParams(g=0.6)
    specs = [
        numeric.ProblemSpec(kind="eqintro", params=params),
        numeric.ProblemSpec(kind="eqo1", params=params),
        numeric.ProblemSpec(kind="eqo2", params=params),
        numeric.ProblemSpec(kind="hext1", params=params, b=1.0),
        numeric.ProblemSpec(kind="truncated", params=params, b=5.0, order=4),
    ]
    ratios = []
    for spec in specs:
        ratios.extend(convergence_ratios(spec, k=2, n_base=600))
    ok = all(3.6 <= r <= 4.4 for r in ratios)
    return ("finite-difference convergence order", ok,
            "ratios " + ", ".join(f"{r:.2f}" for r in ratios))


def convergence_ratios(spec, k, n_base):
    """(E_h - E*) / (E_h/2 - E*) on three nested grids; ~4 for an O(h^2) scheme."""
    domain = numeric.default_domain(spec, k)
    grids = [numeric.Grid(domain[0], domain[1], n_base)]
    grids.append(grids[0].refined())
    grids.append(grids[1].refined())
    lams = [numeric.lowest_eigenvalues(numeric.assemble(spec, g), k) for g in grids]
    ratios = []
    for idx in range(k):
        star = (4.0 * lams[2][idx] - lams[1][idx]) / 3.0
        ratios.append((lams[0][idx] - star) / (lams[1][idx] - star))
    return ratios


def check_variational_shift() -> CheckResult:
    params = core.PhysicalParams()
    spec = numeric.ProblemSpec(kind="eqintro", params=params)
    grid = numeric.Grid(0.0, 9.0, 1200)
    matrix = numeric.assemble(spec, grid)
    shifted = numeric.TridiagonalMatrix(diag=matrix.diag + 1.0, off=matrix.off)
    lam = numeric.lowest_eigenvalues(matrix, 3)
    lam_shift = numeric.lowest_eigenvalues(shifted, 3)
    worst = max(abs((ls - l) - 1.0) for l, ls in zip(lam, lam_shift))
    increasing = all(b > a for a, b in zip(lam, lam[1:]))
    return ("variational monotonicity (V + 1 shifts spectrum by 1)",
            worst <= 1e-10 and increasing,
            f"max shift deviation {worst:.3e}")


def check_hext1_b0_matches_eqintro() -> CheckResult:
    params = core.PhysicalParams()
    r1 = numeric.solve(numeric.ProblemSpec(kind="eqintro", params=params), k=3)
    r2 = numeric.solve(numeric.ProblemSpec(kind="hext1", params=params, b=0.0), k=3)
    worst = max(
        abs(e1 - e2)
        for (_, _, e1, _), (_, _, e2, _) in zip(r1.levels, r2.levels)
    )
    return ("moving-endpoint problem at b=0 equals half-line problem",
            worst <= 1e-8, f"max deviation {worst:.3e}")


ALL_CHECKS: List[Callable[[], CheckResult]] = [
    check_frame_round_trip,
    check_hamiltonian_equivalence,
    check_affine_identity,
    check_bracket_table,
    check_laguerre_1f1_identity,
    check_hermite_parity,
    check_laguerre_orthogonality,
    check_equal_spacing,
    check_orthonormality,
    check_node_counts,
    check_numeric_vs_analytic,
    check_convergence_order,
    check_variational_shift,
    check_hext1_b0_matches_eqintro,
]


def run_all(report=print) -> bool:
    """Run every check; emit one line per property; True iff all passed."""
    all_ok = True
    for check in ALL_CHECKS:
        name, ok, detail = check()
        all_ok = all_ok and ok
        report(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return all_ok
