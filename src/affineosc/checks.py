"""Self-contained invariant suite, runnable from the command line.

Each check returns (name, passed, detail).  The suite covers the classical
layer (frame round trips, Hamiltonian equivalence, Poisson bracket table),
the special functions, the analytic eigenpairs and the agreement between the
finite-volume solver and the closed forms.  The seeded checks draw their
inputs as floats from ``random.Random(seed)``, the integrals are sums over
Gauss rules whose nodes come from the solver's own LAPACK bisection and whose
weights from the Christoffel function (Gram matrices exact to 1e-12 at 200
levels), and no check loads numpy.
"""

from __future__ import annotations

import math
import operator
import random
from array import array
from typing import Callable, Iterable, List, Tuple

from . import analytic, core, numeric, specfun

CheckResult = Tuple[str, bool, str]
COUPLING = core.PhysicalParams(g=0.6)  # every check of the coupled pair runs at this g


def _within(name: str, bound: float, label: str, deviations: Iterable[float]) -> CheckResult:
    """The result of a check that passes iff its largest deviation is at most bound.

    Its detail reads "<label> <largest>".  The largest of none is 0.0, and of
    any that hold a NaN it is NaN (``max`` alone skips a NaN unless it comes
    first), so a NaN fails, as an infinity does.  The deviations are read in
    one pass, and none is kept.
    """
    deviations = iter(deviations)
    worst = next(deviations, 0.0)
    for deviation in deviations:
        if deviation > worst or math.isnan(deviation):  # a NaN stays: nothing exceeds it
            worst = deviation
    return (name, worst <= bound, f"{label} {worst:.3e}")


def _random_original_points(rng: random.Random, count):
    pts = []
    for _ in range(count):
        q1, q2 = rng.uniform(0.1, 4.0), rng.uniform(0.1, 4.0)
        p1, p2 = rng.uniform(-4.0, 4.0), rng.uniform(-4.0, 4.0)
        pts.append(core.PhaseSpacePoint(q1, q2, p1, p2, frame=core.ORIGINAL))
    return pts


def check_frame_round_trip() -> CheckResult:
    pts = _random_original_points(random.Random(0), 1000)
    # the halving in from_normal is exact, but the sums in to_normal each
    # round once, so the round trip is only machine-precision accurate
    return _within("frame round trip", 1e-14, "max deviation", (  # over q1, q2, p1, p2
        abs(b - a) for pt in pts for a, b in zip(pt[:4], core.from_normal(core.to_normal(pt)))))


def check_hamiltonian_equivalence() -> CheckResult:
    deviations = []
    for pt in _random_original_points(random.Random(1), 1000):
        h1 = core.hamiltonian_original(pt, COUPLING)
        h2 = core.hamiltonian_normal(core.to_normal(pt), COUPLING)
        deviations.append(abs(h1 - h2) / max(1.0, abs(h1)))
    return _within("Hamiltonian equivalence under frame change", 1e-12,
                   "max relative deviation", deviations)


def check_affine_identity() -> CheckResult:
    deviations = []
    for pt in _random_original_points(random.Random(2), 1000):
        nm = core.to_normal(pt)  # y1 = x1 + x2 >= 0.2, so the affine term is defined
        d = core.dilation(nm.q1, nm.p1)
        h_aff = core.hamiltonian_affine(nm.q1, d, nm.q2, nm.p2, COUPLING)
        h_nrm = core.hamiltonian_normal(nm, COUPLING)
        deviations.append(abs(h_aff - h_nrm) / max(1.0, abs(h_nrm)))
    return _within("affine kinetic term matches canonical one", 1e-12,
                   "max relative deviation", deviations)


def check_bracket_table() -> CheckResult:
    pt = core.PhaseSpacePoint(0.9, 0.6, 0.4, -1.3, frame=core.ORIGINAL)
    tol = 10 * core.BRACKET_STEP**2

    def normal(field):  # a normal-mode coordinate, through core's own map at each call
        coordinate = operator.attrgetter(field)
        return lambda p: coordinate(core.to_normal(p))

    y1, y2, py1, py2 = map(normal, ("q1", "q2", "p1", "p2"))

    def dy1(p):
        return core.dilation(y1(p), py1(p))

    cases = [
        (lambda p: p.q1, lambda p: p.p1, 1.0),
        (lambda p: p.q2, lambda p: p.p2, 1.0),
        (y1, py1, 2.0),
        (y2, py2, 2.0),
        (y1, dy1, 2.0 * (pt.q1 + pt.q2)),
        (y1, py2, 0.0),
        (y2, py1, 0.0),
    ]
    name, ok, detail = _within("Poisson bracket table", tol, "max deviation", (
        abs(core.poisson_bracket(f, g, pt) - expected) for f, g, expected in cases))
    return (name, ok, f"{detail} (tolerance {tol:.1e})")


def check_laguerre_1f1_identity() -> CheckResult:
    rng = random.Random(3)
    deviations = []
    for n in range(21):
        for _ in range(10):
            z = rng.uniform(0.0, 50.0)
            lhs = specfun.confluent_1f1_neg(n, 2.0, z)
            rhs = specfun.laguerre_assoc(n, 1.0, z) / (n + 1)
            deviations.append(abs(lhs - rhs) / max(1e-30, abs(rhs)))
    return _within("Laguerre / confluent-series identity", 1e-12, "max relative deviation",
                   deviations)


def check_hermite_parity() -> CheckResult:
    rng = random.Random(4)
    deviations = []
    for n in range(31):
        for _ in range(10):
            x = rng.uniform(0.0, 3.0)
            a = specfun.hermite(n, x)
            b = specfun.hermite(n, -x)
            deviations.append(abs(b - (-1.0) ** n * a) / max(1.0, abs(a)))
    return _within("Hermite parity", 1e-12, "max relative deviation", deviations)


def _gauss_rule(size, halfline):
    """Gauss rule for t exp(-t) on t > 0 (halfline) or exp(-t^2), as (node, weight) pairs.

    The weights include exp(t) (halfline) or exp(t^2): each pair is (t, w exp(t)) or
    (t, w exp(t^2)), so no weight underflows at the outer nodes, and a product of
    wavefunctions, which carries the envelope itself, is summed against it as it is.
    """
    # Golub & Welsch, Math. Comp. 23, 221 (1969): the nodes are the eigenvalues of the
    # textbook Jacobi matrix (DLMF 18.9), and each weight is the Christoffel function
    # mu0 / sum_k p_k(t)^2 of its recurrence with p_0 = 1 (Gautschi 2004, sec. 3.1), not
    # specfun's, so that laguerre_assoc is checked independently
    ks = range(size)
    if halfline:
        diag, squares, mu0 = [2.0 * k + 2.0 for k in ks], [k * (k + 1.0) for k in ks[1:]], 1.0
    else:
        diag, squares, mu0 = [0.0] * size, [k / 2.0 for k in ks[1:]], math.sqrt(math.pi)
    off = [math.sqrt(b) for b in squares]
    rule = []
    for t in numeric.lowest_eigenvalues(numeric.TridiagonalMatrix(diag, off), size):
        # the envelope's root enters once per step, as in analytic's wavefunctions: p_k
        # carries f^(k+1) and the sum f^(2 size) = exp(-t) or exp(-t^2) once the loop ends
        f = math.exp(-(t if halfline else t * t) / (2.0 * size))
        prev, p, total = 0.0, f, f * f
        for a, below, above in zip(diag, [0.0] + off, off):
            prev, p = p, ((t - a) * f * p - below * f * f * prev) / above
            total = total * f * f + p * p
        rule.append((t, mu0 / total))
    return rule


def _gram(rule, rows):
    """Sums over the (node, weight) rule of every product of two rows of values at its nodes."""
    # each row weighted once: the products are still (w * a) * b, in the same order
    weighted = [[w * a for (_, w), a in zip(rule, row)] for row in rows]
    return [[math.fsum(map(operator.mul, wrow, col)) for col in rows] for wrow in weighted]


def check_laguerre_orthogonality() -> CheckResult:
    # exact up to degree 17, the products reach 16; exp(-t) takes the weight's factor back out
    rule = [(t, w * math.exp(-t)) for t, w in _gauss_rule(9, halfline=True)]
    gram = _gram(rule, [[specfun.laguerre_assoc(d, 1.0, t) for t, _ in rule] for d in range(9)])
    return _within("Laguerre orthogonality", 1e-8, "max deviation", (
        abs(value - (i + 1.0) * (i == j))
        for i, row in enumerate(gram) for j, value in enumerate(row)))


def _branch_pairs(params, count):
    """The lowest count eigenpairs of every branch, by branch."""
    return {b: [analytic._eigen(b, n, params) for n in range(count)] for b in analytic.BRANCHES}


def check_equal_spacing() -> CheckResult:
    hw = COUPLING.hbar * COUPLING.omega
    expected = {
        analytic.HALF_HO: 2.0 * hw,
        analytic.COUPLED_Y1: hw * math.sqrt(1.0 + COUPLING.g_ratio),
        analytic.COUPLED_Y2: 0.5 * hw * math.sqrt(1.0 - COUPLING.g_ratio),
    }
    return _within("equal level spacing per branch", 1e-12, "max spacing deviation", (
        abs((hi.energy - lo.energy) - expected[branch])
        for branch, pairs in _branch_pairs(COUPLING, count=10).items()
        for lo, hi in zip(pairs, pairs[1:])))


def _levels_at(pair, xs):
    """Levels 0..pair.n of pair's branch at the points xs, one ``array('d')`` per level.

    One recurrence pass per point (``pair.wavefunction(x, levels)``) gives every level.
    """
    levels = [array("d") for _ in range(pair.n + 1)]
    for x in xs:
        pair.wavefunction(x, levels)
    return levels


def gram_matrix(pairs):
    """Overlap matrix of eigenfunctions of one branch, as a list of rows."""
    top = max(pairs, key=operator.attrgetter("n"))
    record = analytic.BRANCHES[top.branch]
    root = math.sqrt(record.alpha(top.params))
    rule = _gauss_rule(top.n + 1, record.halfline)  # exact: each product is of degree <= 2 top
    if record.halfline:  # dx = dz / (2 sqrt(alpha z)) over the weight z exp(-z)
        points = [(math.sqrt(z) / root, w / (2.0 * root * z**1.5)) for z, w in rule]
    else:  # dy = ds / sqrt(alpha) over the weight exp(-s^2)
        points = [(s / root, w / root) for s, w in rule]
    levels = _levels_at(top, [x for x, _ in points])
    return _gram(points, [levels[pair.n] for pair in pairs])


def check_orthonormality() -> CheckResult:
    return _within("branch orthonormality (Gram matrix)", 1e-8, "max Gram deviation", (
        abs(value - (i == j)) for pairs in _branch_pairs(COUPLING, count=6).values()
        for i, row in enumerate(gram_matrix(pairs)) for j, value in enumerate(row)))


def check_node_counts() -> CheckResult:
    """Sign changes of levels 0-8, sampled in s = sqrt(alpha) x out past level 8's turning point.

    Each branch is sampled once, and one recurrence pass per sample gives all nine levels.
    """
    top = 8
    detail = []
    for branch, record in analytic.BRANCHES.items():
        # eigenvalue t^2: the zeros lie inside s = t, at least pi / t apart (Sturm)
        turn = math.sqrt(4.0 * (top + 1) if record.halfline else 2.0 * top + 1.0)
        # out to 5 past s = t, where all are below NODE_FLOOR, in steps growing as j^2
        # from 0 to pi / 16t, so that a zero near the half line's s = 0 shows too
        m = math.ceil(32 * (turn + 5.0) * turn / math.pi)
        unit = (turn + 5.0) / (m * m * math.sqrt(record.alpha(COUPLING)))
        xs = [unit * j * abs(j) for j in range(0 if record.halfline else -m, m + 1)]
        for n, samples in enumerate(_levels_at(analytic._eigen(branch, top, COUPLING), xs)):
            # sign_changes drops a NaN sample, so a level with one fails here
            if not all(map(math.isfinite, samples)):
                detail.append(f"{branch} n={n} -> non-finite samples")
            elif (nodes := numeric.sign_changes(samples)) != n:
                detail.append(f"{branch} n={n} -> {nodes} nodes")
    return ("interior node counts", not detail, "; ".join(detail) or "all match")


def check_numeric_vs_analytic() -> CheckResult:
    deviations = []
    for kind, facts in numeric.KIND_FACTS.items():
        if facts.branch is None:
            continue
        result = numeric.solve(numeric.ProblemSpec(kind=kind, params=COUPLING), k=4)
        for level in result.levels:
            ref = analytic.branch_energy(facts.branch, level.n, COUPLING)
            deviations.append(abs(level.energy - ref) / abs(ref))
    return _within("numeric spectra match closed forms", 1e-6, "max relative deviation",
                   deviations)


def check_convergence_order() -> CheckResult:
    specs = [
        numeric.ProblemSpec(kind="eqintro", params=COUPLING),
        numeric.ProblemSpec(kind="eqo1", params=COUPLING),
        numeric.ProblemSpec(kind="eqo2", params=COUPLING),
        numeric.ProblemSpec(kind="hext1", params=COUPLING, b=1.0),
        numeric.ProblemSpec(kind="truncated", params=COUPLING, b=5.0, order=4),
    ]
    ratios = []
    for spec in specs:
        ratios.extend(convergence_ratios(spec))
    ok = all(3.6 <= r <= 4.4 for r in ratios)
    return ("finite-volume convergence order", ok,
            "ratios " + ", ".join(f"{r:.2f}" for r in ratios))


def convergence_ratios(spec):
    """(E_h - E*) / (E_h/2 - E*) of the two lowest levels on the grids ``numeric.solve`` uses.

    The three grids are solve(spec, 2)'s own, of N, 2N and 4N cells at its
    default spacing, and E* is the Richardson value (4 E_h/4 - E_h/2) / 3 of
    the two finer ones.  A ratio near 4 shows the error's leading term is h^2
    with no h^2 log h beside it, which the Romberg value of ``solve`` relies on.
    """
    ratios = []
    for l1, l2, l4 in zip(*numeric.solve(spec, 2).grid_lams):
        star = (4.0 * l4 - l2) / 3.0
        ratios.append((l1 - star) / (l2 - star))
    return ratios


def check_variational_shift() -> CheckResult:
    params = core.PhysicalParams()
    spec = numeric.ProblemSpec(kind="eqintro", params=params)
    grid = numeric.Grid(0.0, 9.0, 1200)
    matrix = numeric.assemble(spec, grid)
    s = matrix.scale  # V + 1 on the unscaled entries; dividing by a power of two is exact
    shifted = numeric.TridiagonalMatrix([d / s + 1.0 for d in matrix.diag],
                                        [o / s for o in matrix.off])
    lam = numeric.lowest_eigenvalues(matrix, 3)
    lam_shift = numeric.lowest_eigenvalues(shifted, 3)
    name, ok, detail = _within("variational monotonicity (V + 1 shifts spectrum by 1)", 1e-10,
                               "max shift deviation", (
                                   abs((ls - l) - 1.0) for l, ls in zip(lam, lam_shift)))
    return (name, ok and all(b > a for a, b in zip(lam, lam[1:])), detail)


def check_hext1_b0_matches_eqintro() -> CheckResult:
    params = core.PhysicalParams()
    r1 = numeric.solve(numeric.ProblemSpec(kind="eqintro", params=params), k=3)
    r2 = numeric.solve(numeric.ProblemSpec(kind="hext1", params=params, b=0.0), k=3)
    return _within("moving-endpoint problem at b=0 equals half-line problem", 1e-8,
                   "max deviation", (
                       abs(l1.energy - l2.energy) for l1, l2 in zip(r1.levels, r2.levels)))


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
