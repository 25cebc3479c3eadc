"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines.
"""

import math

import numpy as np
import pytest

from affineosc import analytic, checks, core, interp, numeric, specfun
from affineosc.core import PhysicalParams
from affineosc.numeric import ProblemSpec
from oracles import brute_force_composite

UNIT = PhysicalParams()


def report(name, ok, detail=""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_halfline_ladder():
    result = numeric.solve(ProblemSpec(kind="eqintro"), 4)
    energies = [level.energy for level in result.levels]
    worst_rel = max(
        abs(e - 2.0 * (n + 1)) / (2.0 * (n + 1)) for n, e in enumerate(energies)
    )
    worst_gap = max(abs((b - a) - 2.0) for a, b in zip(energies, energies[1:]))
    ok = worst_rel <= 1e-6 and worst_gap <= 1e-6
    report("1 half-line ladder 2(n+1)", ok,
           f"worst rel {worst_rel:.2e}, worst spacing dev {worst_gap:.2e}")


@pytest.mark.parametrize("g", [0.2, 0.6, 0.9])
def test_criterion_2_stiff_branch(g):
    params = PhysicalParams(g=g)
    result = numeric.solve(ProblemSpec(kind="eqo1", params=params), 4)
    worst = 0.0
    for level in result.levels:
        expected = (level.n + 1) * math.sqrt(1.0 + g)
        worst = max(worst, abs(level.energy - expected) / expected)
    report(f"2 stiff branch g={g}", worst <= 1e-6, f"worst rel {worst:.2e}")


@pytest.mark.parametrize("g", [0.2, 0.6, 0.9])
def test_criterion_3_soft_branch(g):
    params = PhysicalParams(g=g)
    result = numeric.solve(ProblemSpec(kind="eqo2", params=params), 4)
    worst = 0.0
    for level in result.levels:
        expected = (level.n + 0.5) * 0.5 * math.sqrt(1.0 - g)
        worst = max(worst, abs(level.energy - expected) / expected)
    report(f"3 soft branch g={g}", worst <= 1e-6, f"worst rel {worst:.2e}")


def test_criterion_4_composite_spectrum():
    params = PhysicalParams(g=0.6)
    got = [(lv.n1, lv.n2, lv.energy) for lv in analytic.composite_spectrum(params, 20)]
    expected = brute_force_composite(
        lambda n1: analytic.branch_energy(analytic.COUPLED_Y1, n1, params),
        lambda n2: analytic.branch_energy(analytic.COUPLED_Y2, n2, params),
        n_max=40,
        count=20,
    )
    ok = got == expected
    report("4 composite spectrum vs brute force", ok,
           f"{len(got)} levels, exact order match: {ok}")


def test_criterion_5_endpoint_sweep():
    r_intro = numeric.solve(ProblemSpec(kind="eqintro"), 4)
    r_b0 = numeric.solve(ProblemSpec(kind="hext1", b=0.0), 4)
    b0_dev = max(abs(l1.energy - l2.energy) for l1, l2 in zip(r_intro.levels, r_b0.levels))
    sweep = interp.b_sweep(UNIT, [1.0, 2.0, 5.0, 10.0, 20.0], 1)
    devs = [row.dev_full for row in sweep.rows]
    decreasing = all(b < a for a, b in zip(devs, devs[1:]))
    factor_ok = devs[-1] <= devs[0] / 10.0
    ok = b0_dev <= 1e-8 and decreasing and factor_ok
    report("5 moving-endpoint limits", ok,
           f"b=0 dev {b0_dev:.2e}, dev_full {['%.3e' % d for d in devs]}")


@pytest.mark.parametrize("b", [5.0, 10.0])
def test_criterion_6_order0_shift(b):
    result = numeric.solve(ProblemSpec(kind="truncated", b=b, order=0), 4)
    worst = 0.0
    for level in result.levels:
        expected = (level.n + 0.5) + 3.0 / (8.0 * b**2)
        worst = max(worst, abs(level.energy - expected) / expected)
    report(f"6 order-0 shift identity b={b}", worst <= 1e-6, f"worst rel {worst:.2e}")


def test_criterion_7_special_function_identities():
    rng = np.random.default_rng(2024)
    worst_ident = 0.0
    for n in range(21):
        for z in rng.uniform(0.0, 50.0, size=100):
            lhs = specfun.confluent_1f1_neg(n, 2.0, z)
            rhs = specfun.laguerre_assoc(n, 1.0, z) / (n + 1)
            worst_ident = max(
                worst_ident, abs(lhs - rhs) / max(1e-12, abs(lhs), abs(rhs))
            )
    worst_herm = 0.0
    for n in range(1, 30):
        for x in rng.uniform(-4.0, 4.0, size=20):
            rec = 2 * x * specfun.hermite(n, x) - 2 * n * specfun.hermite(n - 1, x)
            val = specfun.hermite(n + 1, x)
            worst_herm = max(worst_herm, abs(val - rec) / max(1.0, abs(val)))
            par = specfun.hermite(n, -x) - (-1.0) ** n * specfun.hermite(n, x)
            worst_herm = max(worst_herm, abs(par) / max(1.0, abs(specfun.hermite(n, x))))
    ok = worst_ident <= 1e-12 and worst_herm <= 1e-12
    report("7 special-function identities", ok,
           f"identity {worst_ident:.2e}, Hermite suites {worst_herm:.2e}")


def test_criterion_8_structural_suites():
    params = PhysicalParams(g=0.6)

    _, gram_ok, gram_detail = checks.check_orthonormality()
    _, ham_ok, ham_detail = checks.check_hamiltonian_equivalence()
    _, bracket_ok, bracket_detail = checks.check_bracket_table()

    specs = [
        ProblemSpec(kind="eqintro"),
        ProblemSpec(kind="eqo1", params=params),
        ProblemSpec(kind="eqo2", params=params),
        ProblemSpec(kind="hext1", params=params, b=1.0),
        ProblemSpec(kind="truncated", params=params, b=5.0, order=4),
    ]
    ratios = []
    for spec in specs:
        ratios.extend(checks.convergence_ratios(spec))
    ratio_ok = all(3.6 <= r <= 4.4 for r in ratios)

    ok = gram_ok and ham_ok and bracket_ok and ratio_ok
    report("8 structural suites", ok,
           f"gram[{gram_detail}] ham[{ham_detail}] bracket[{bracket_detail}] "
           f"ratios {['%.2f' % r for r in ratios]}")
