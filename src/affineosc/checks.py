"""Self-contained invariant suite, runnable from the command line.

Each check returns (name, passed, detail).  The suite covers the classical
layer (frame round trips, Hamiltonian equivalence, Poisson bracket table),
the special functions, the analytic eigenpairs and the agreement between the
finite-volume solver and the closed forms.  The seeded checks draw their
inputs as floats from ``random.Random(seed)``, so only the quadrature, Gram
matrix and node-count checks load numpy.
"""

from __future__ import annotations

import math
import random
from typing import Callable, List, Tuple

from . import analytic, core, numeric, specfun

CheckResult = Tuple[str, bool, str]


def _random_original_points(rng: random.Random, count):
    pts = []
    for _ in range(count):
        q1, q2 = rng.uniform(0.1, 4.0), rng.uniform(0.1, 4.0)
        p1, p2 = rng.uniform(-4.0, 4.0), rng.uniform(-4.0, 4.0)
        pts.append(core.PhaseSpacePoint(q1, q2, p1, p2, frame=core.ORIGINAL))
    return pts


def check_frame_round_trip() -> CheckResult:
    worst = 0.0
    for pt in _random_original_points(random.Random(0), 1000):
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
    params = core.PhysicalParams(g=0.6)
    worst = 0.0
    for pt in _random_original_points(random.Random(1), 1000):
        h1 = core.hamiltonian_original(pt, params)
        h2 = core.hamiltonian_normal(core.to_normal(pt), params)
        worst = max(worst, abs(h1 - h2) / max(1.0, abs(h1)))
    return ("Hamiltonian equivalence under frame change", worst <= 1e-12,
            f"max relative deviation {worst:.3e}")


def check_affine_identity() -> CheckResult:
    params = core.PhysicalParams(g=0.6)
    worst = 0.0
    for pt in _random_original_points(random.Random(2), 1000):
        nm = core.to_normal(pt)
        if nm.q1 <= 0:
            continue
        d = core.dilation(nm.q1, nm.p1)
        h_aff = core.hamiltonian_affine(nm.q1, d, nm.q2, nm.p2, params)
        h_nrm = core.hamiltonian_normal(nm, params)
        worst = max(worst, abs(h_aff - h_nrm) / max(1.0, abs(h_nrm)))
    return ("affine kinetic term matches canonical one", worst <= 1e-12,
            f"max relative deviation {worst:.3e}")


def check_bracket_table() -> CheckResult:
    pt = core.PhaseSpacePoint(0.9, 0.6, 0.4, -1.3, frame=core.ORIGINAL)
    tol = 10 * core.BRACKET_STEP**2

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
        got = core.poisson_bracket(f, g, pt)
        worst = max(worst, abs(got - expected))
    return ("Poisson bracket table", worst <= tol,
            f"max deviation {worst:.3e} (tolerance {tol:.1e})")


def check_laguerre_1f1_identity() -> CheckResult:
    rng = random.Random(3)
    worst = 0.0
    for n in range(21):
        for _ in range(10):
            z = rng.uniform(0.0, 50.0)
            lhs = specfun.confluent_1f1_neg(n, 2.0, z)
            rhs = specfun.laguerre_assoc(n, 1.0, z) / (n + 1)
            worst = max(worst, abs(lhs - rhs) / max(1e-30, abs(rhs)))
    return ("Laguerre / confluent-series identity", worst <= 1e-12,
            f"max relative deviation {worst:.3e}")


def check_hermite_parity() -> CheckResult:
    rng = random.Random(4)
    worst = 0.0
    for n in range(31):
        for _ in range(10):
            x = rng.uniform(0.0, 3.0)
            a = specfun.hermite(n, x)
            b = specfun.hermite(n, -x)
            worst = max(worst, abs(b - (-1.0) ** n * a) / max(1.0, abs(a)))
    return ("Hermite parity", worst <= 1e-12, f"max relative deviation {worst:.3e}")


def check_laguerre_orthogonality() -> CheckResult:
    import numpy as np  # here and in the other array code: the seeded checks need none

    worst = 0.0
    for mdeg in range(9):
        for ndeg in range(mdeg, 9):
            val = specfun.integrate_halfline(
                lambda t: np.exp(-t) * t * specfun.laguerre_assoc(mdeg, 1.0, t)
                * specfun.laguerre_assoc(ndeg, 1.0, t),
                lower=0.0,
                decay_scale=16.0,
            )
            expected = (ndeg + 1.0) if mdeg == ndeg else 0.0
            worst = max(worst, abs(val - expected))
    return ("Laguerre orthogonality", worst <= 1e-8, f"max deviation {worst:.3e}")


def _branch_pairs(params, count):
    """The lowest count eigenpairs of every branch, by branch."""
    # looked up per call, so that wrappers installed on the analytic module see the calls
    eigen = {
        analytic.HALF_HO: analytic.half_ho_eigen,
        analytic.COUPLED_Y1: analytic.coupled_y1_eigen,
        analytic.COUPLED_Y2: analytic.coupled_y2_eigen,
    }
    return {b: [eigen[b](n, params) for n in range(count)] for b in analytic.BRANCHES}


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


def gram_matrix(pairs):
    """Overlap matrix of eigenfunctions of one branch by quadrature on its domain."""
    import numpy as np

    record = analytic.BRANCHES[pairs[0].branch]
    alpha = record.alpha(pairs[0].params)
    if record.halfline:
        lower, decay_scale = 0.0, 1.6 / math.sqrt(alpha)
    else:
        scale = 1.0 / math.sqrt(alpha)
        lower, decay_scale = -12.0 * scale, 4.0 * scale
    size = len(pairs)
    gram = np.zeros((size, size))
    for i in range(size):
        for j in range(i, size):
            gram[i, j] = gram[j, i] = specfun.integrate_halfline(
                lambda t: pairs[i].wavefunction(t) * pairs[j].wavefunction(t),
                lower=lower,
                decay_scale=decay_scale,
            )
    return gram


def check_orthonormality() -> CheckResult:
    import numpy as np

    params = core.PhysicalParams(g=0.6)
    worst = 0.0
    for pairs in _branch_pairs(params, count=6).values():
        gram = gram_matrix(pairs)
        worst = max(worst, float(np.max(np.abs(gram - np.eye(len(pairs))))))
    return ("branch orthonormality (Gram matrix)", worst <= 1e-8,
            f"max Gram deviation {worst:.3e}")


def check_node_counts() -> CheckResult:
    import numpy as np

    params = core.PhysicalParams(g=0.6)
    ok = True
    detail = []
    for branch, pairs in _branch_pairs(params, count=9).items():
        xs = np.linspace(1e-4 if analytic.BRANCHES[branch].halfline else -10.0, 10.0, 20001)
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
        for level in result.levels:
            ref = analytic.branch_energy(facts.branch, level.n, params)
            worst = max(worst, abs(level.energy - ref) / abs(ref))
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
        ratios.extend(convergence_ratios(spec))
    ok = all(3.6 <= r <= 4.4 for r in ratios)
    return ("finite-volume convergence order", ok,
            "ratios " + ", ".join(f"{r:.2f}" for r in ratios))


def convergence_ratios(spec):
    """(E_h - E*) / (E_h/2 - E*) of two levels on grids of 600, 1200 and 2400 cells.

    E* is the Richardson value (4 E_h/4 - E_h/2) / 3 of the two finer grids.
    A ratio near 4 shows the error's leading term is h^2 with no h^2 log h
    beside it, which the Romberg value of ``numeric.solve`` relies on.
    """
    k = 2
    domain = numeric.default_domain(spec, k)
    grids = [numeric.Grid(domain[0], domain[1], 600)]
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
    shifted = numeric.TridiagonalMatrix(diag=[d + 1.0 for d in matrix.diag], off=matrix.off)
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
    worst = max(abs(l1.energy - l2.energy) for l1, l2 in zip(r1.levels, r2.levels))
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


def run_all() -> bool:
    """Run every check; print one line per property; True iff all passed."""
    all_ok = True
    for check in ALL_CHECKS:
        name, ok, detail = check()
        all_ok = all_ok and ok
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return all_ok
