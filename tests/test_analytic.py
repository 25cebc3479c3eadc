import hashlib
import math
import struct

import numpy as np
import pytest

from affineosc import analytic, checks
from affineosc.analytic import (
    composite_spectrum,
    coupled_y1_eigen,
    coupled_y2_eigen,
    half_ho_eigen,
)
from affineosc.core import PhysicalParams
from affineosc.numeric import sign_changes
from oracles import (
    branch_energy_chain, brute_force_composite, halfline_function_log, hermite_function_log,
)
from test_checks import levels_mapped

UNIT = PhysicalParams()
COUPLED = PhysicalParams(g=0.6)
# sha256 of TestWavefunctions.test_values_pinned's values, recorded before the
# recurrences' per-step constants were hoisted out of their loops
WAVEFUNCTION_BITS_SHA256 = "400e7f22410d1161424b859aa6277ce57b4cf1591a82c7134e7349a9b383d96b"


class TestEnergies:
    def test_half_ho_ladder(self):
        assert half_ho_eigen(0, UNIT).energy == 2.0
        assert half_ho_eigen(3, UNIT).energy == 8.0

    def test_half_ho_scales_with_hbar_omega(self):
        p = PhysicalParams(omega=2.0, hbar=3.0)
        assert half_ho_eigen(1, p).energy == pytest.approx(2 * 2 * 2.0 * 3.0, rel=1e-15)

    def test_coupled_y1(self):
        assert coupled_y1_eigen(0, COUPLED).energy == pytest.approx(
            math.sqrt(1.6), rel=1e-15
        )
        assert coupled_y1_eigen(2, COUPLED).energy == pytest.approx(
            3 * math.sqrt(1.6), rel=1e-15
        )

    def test_coupled_y2(self):
        assert coupled_y2_eigen(0, COUPLED).energy == pytest.approx(
            0.25 * math.sqrt(0.4), rel=1e-15
        )

    def test_equal_spacing(self):
        gaps = {
            analytic.HALF_HO: 2.0,
            analytic.COUPLED_Y1: math.sqrt(1.6),
            analytic.COUPLED_Y2: 0.5 * math.sqrt(0.4),
        }
        builders = {
            analytic.HALF_HO: lambda n: half_ho_eigen(n, COUPLED),
            analytic.COUPLED_Y1: lambda n: coupled_y1_eigen(n, COUPLED),
            analytic.COUPLED_Y2: lambda n: coupled_y2_eigen(n, COUPLED),
        }
        for branch, gap in gaps.items():
            energies = [builders[branch](n).energy for n in range(8)]
            for lo, hi in zip(energies, energies[1:]):
                assert hi - lo == pytest.approx(gap, rel=1e-13)

    def test_small_coupling_limits(self):
        p = PhysicalParams(g=1e-8)
        for n in range(4):
            assert coupled_y1_eigen(n, p).energy == pytest.approx(n + 1.0, rel=1e-7)
            assert coupled_y2_eigen(n, p).energy == pytest.approx(
                (n + 0.5) / 2.0, rel=1e-7
            )

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            half_ho_eigen(-1, UNIT)

    def test_coupling_gate(self):
        for builder in (coupled_y1_eigen, coupled_y2_eigen):
            with pytest.raises(ValueError):
                builder(0, PhysicalParams(g=0.0))
            with pytest.raises(ValueError):
                builder(0, PhysicalParams(g=-0.2))


class TestBranches:
    @pytest.mark.parametrize("params", [
        UNIT, COUPLED, PhysicalParams(m=2.0, omega=1.5, hbar=0.5, g=1.8),
        PhysicalParams(m=0.3, omega=7.0, hbar=1e-3, g=-5.0),
        PhysicalParams(omega=1e100, hbar=1e-90),
    ])
    def test_energy_table_matches_former_chain_bit_for_bit(self, params):
        for branch in analytic.BRANCHES:
            for n in (0, 1, 7, 999):
                assert analytic.branch_energy(branch, n, params) == branch_energy_chain(
                    branch, n, params
                ), (branch, n)
        with pytest.raises(ValueError, match="unknown branch 'eqo3'"):
            analytic.branch_energy("eqo3", 0, params)

    def test_alpha_scales(self):
        p = PhysicalParams(m=2.0, omega=1.5, hbar=0.5, g=1.8)  # g / (m omega^2) = 0.4
        alpha = {branch: record.alpha(p) for branch, record in analytic.BRANCHES.items()}
        assert alpha[analytic.HALF_HO] == pytest.approx(6.0, rel=1e-15)
        assert alpha[analytic.COUPLED_Y1] == pytest.approx(6.0 * math.sqrt(1.4), rel=1e-15)
        assert alpha[analytic.COUPLED_Y2] == pytest.approx(6.0 * math.sqrt(0.6), rel=1e-15)


class TestWavefunctions:
    def test_half_ho_vanishes_at_origin(self):
        for n in range(6):
            pair = half_ho_eigen(n, UNIT)
            assert pair.wavefunction(0.0) == 0.0
            assert pair.wavefunction(-1.0) == 0.0

    def test_half_ho_ground_state_value(self):
        pair = half_ho_eigen(0, UNIT)
        expected = math.sqrt(2.0) * math.exp(-0.5)
        assert pair.wavefunction(1.0) == pytest.approx(expected, rel=1e-14)

    def test_y2_parity(self):
        for n in range(6):
            pair = coupled_y2_eigen(n, COUPLED)
            for y in (0.4, 1.3, 2.2):
                assert pair.wavefunction(-y) == pytest.approx(
                    (-1.0) ** n * pair.wavefunction(y), rel=1e-12, abs=1e-13
                )

    def test_y2_odd_states_vanish_at_origin(self):
        assert coupled_y2_eigen(1, COUPLED).wavefunction(0.0) == 0.0
        assert coupled_y2_eigen(3, COUPLED).wavefunction(0.0) == 0.0

    # the norm is the 1x1 Gram matrix of check_orthonormality
    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_half_ho_normalized(self, n):
        norm = checks.gram_matrix([half_ho_eigen(n, UNIT)])[0][0]
        assert norm == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("n", [0, 1])
    def test_y2_normalized(self, n):
        norm = checks.gram_matrix([coupled_y2_eigen(n, COUPLED)])[0][0]
        assert norm == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("pair,x", [
        (coupled_y2_eigen(200, COUPLED), np.array([50.0])),
        (half_ho_eigen(40, UNIT), 1e5),
        (half_ho_eigen(40, UNIT), np.array([1e200, 1e5, -1.0])),
        (half_ho_eigen(3, UNIT), math.inf),
        (half_ho_eigen(3, UNIT), -math.inf),
        (coupled_y1_eigen(3, COUPLED), math.inf),
        (coupled_y1_eigen(3, COUPLED), -math.inf),
        (coupled_y2_eigen(3, COUPLED), math.inf),
        (coupled_y2_eigen(3, COUPLED), -math.inf),
    ], ids=["y2-200", "half-40", "half-40-array", "half-3-inf", "half-3-neg-inf",
            "y1-3-inf", "y1-3-neg-inf", "y2-3-inf", "y2-3-neg-inf"])
    def test_zero_far_in_the_tail(self, pair, x):
        # the polynomial overflows where exp(-alpha x^2 / 2) has underflowed to 0;
        # at +-inf a float's mask is False, and inf * False would be nan
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = pair.wavefunction(x)
        assert np.array_equal(value, np.zeros_like(x))
        assert type(value) is type(x)

    # the norm from 40-node Gauss-Legendre panels, independent of checks' Gauss rules
    @pytest.mark.parametrize("pair,top,oracle,points", [
        (coupled_y2_eigen(200, COUPLED), 60.0, hermite_function_log,
         [0.3, 12.7, 25.9, 31.0, 40.0, 46.7]),
        (half_ho_eigen(400, UNIT), 3.0 * math.sqrt(1602.0), halfline_function_log,
         [1.0, 20.0, 38.0, 39.5, 41.0]),
        (half_ho_eigen(500, UNIT), 3.0 * math.sqrt(2002.0), halfline_function_log,
         [1.0, 20.0, 38.0, 38.3, 41.0, 44.0, 46.0]),
    ], ids=["y2-200", "half-400", "half-500"])
    def test_finite_and_normalized_at_large_n(self, pair, top, oracle, points):
        record = analytic.BRANCHES[pair.branch]
        lower = 0.0 if record.halfline else -top
        xs = np.linspace(0.01 if record.halfline else 0.0, top, 20001)
        assert np.all(np.isfinite(pair.wavefunction(xs)))
        assert gl_norm(pair.wavefunction, lower, top, panels=400) == pytest.approx(1.0, abs=1e-8)
        alpha = record.alpha(pair.params)
        expected = [oracle(pair.n, alpha, x) for x in points]
        assert pair.wavefunction(np.array(points)) == pytest.approx(expected, rel=0, abs=1e-11)

    @pytest.mark.parametrize("builder", [half_ho_eigen, coupled_y1_eigen, coupled_y2_eigen],
                             ids=lambda builder: builder.__name__)
    def test_gram_identity_to_level_200(self, builder):
        # a 201-node rule, whose outer weights exp(-t) would underflow but for the folding
        gram = checks.gram_matrix([builder(n, COUPLED) for n in range(201)])
        assert len(gram) == 201 and all(len(row) == 201 for row in gram)
        assert np.max(np.abs(np.array(gram) - np.eye(201))) <= 1e-10

    def test_values_pinned(self):
        # levels 0-40 of every branch at fixed floats and on one float64 array:
        # how the recurrences are arranged must not change a bit of any value
        points = [-2.5, -0.3, 0.0, 1e-3, 0.4, 1.0, 2.2, 4.5, 7.0, 12.0]
        xs = np.linspace(-3.0, 9.0, 241)
        digest = hashlib.sha256()
        for builder in (half_ho_eigen, coupled_y1_eigen, coupled_y2_eigen):
            for n in range(41):
                phi = builder(n, COUPLED).wavefunction
                digest.update(struct.pack("<10d", *[phi(x) for x in points]))
                digest.update(phi(xs).tobytes())
        assert digest.hexdigest() == WAVEFUNCTION_BITS_SHA256

    def test_node_counts(self):
        xs_half = np.linspace(1e-4, 9.0, 30001)
        xs_full = np.linspace(-9.0, 9.0, 30001)
        for n in range(9):
            assert sign_changes(half_ho_eigen(n, UNIT).wavefunction(xs_half)) == n
            assert sign_changes(coupled_y1_eigen(n, COUPLED).wavefunction(xs_half)) == n
            assert sign_changes(coupled_y2_eigen(n, COUPLED).wavefunction(xs_full)) == n


@pytest.mark.parametrize("halfline", [True, False], ids=["half", "full"])
@pytest.mark.parametrize("s0", [-1.0, 0.01, 0.05, 0.2, 1.0, 2.5, 4.0, 6.0, 7.0])
def test_node_count_check_sees_an_extra_zero(monkeypatch, halfline, s0):
    # every level of one family times (x - x0), x0 = s0 natural lengths: the
    # check's float samples see the extra zero on exactly the levels the former
    # 20001-point grids saw it on (not where x0 is off the domain or in the tail);
    # levels_mapped puts the zero into the check's passes and the per-level calls alike
    factory = "_halfline_wavefunction" if halfline else "_hermite_wavefunction"
    monkeypatch.setattr(analytic, factory, levels_mapped(
        getattr(analytic, factory), lambda k, alpha, x, value: value * (x - s0 / math.sqrt(alpha))))
    _, ok, detail = checks.check_node_counts()
    former = np.linspace(1e-4 if halfline else -10.0, 10.0, 20001)
    seen = [f"{pair.branch} n={pair.n}" for pairs in checks._branch_pairs(COUPLED, 9).values()
            for pair in pairs if analytic.BRANCHES[pair.branch].halfline == halfline
            and sign_changes(pair.wavefunction(former)) != pair.n]
    assert ([] if ok else [entry.partition(" ->")[0] for entry in detail.split("; ")]) == seen
    if 0 < s0 < 5:  # inside every level's domain and above its NODE_FLOOR
        assert len(seen) == (18 if halfline else 9)


FAMILIES = {branch: analytic._halfline_wavefunction if record.halfline
            else analytic._hermite_wavefunction for branch, record in analytic.BRANCHES.items()}
# the largest gap between a level of the pass and the same level alone, in units
# of that level's peak on the grid below: at top = 200 the half line's gap reads
# 2.4e-13, near x = 0, where the level alone is itself up to 4.1e-13 from its
# exact value (test_pass_near_the_origin_at_top_200); the Hermite levels match
# bit for bit, since their recurrence does not depend on the top level
PASS_GAP = {8: 1e-13, 200: 5e-13}


def bits(value):
    return np.asarray(value, dtype=float).tobytes()


@pytest.mark.parametrize("top", [8, 200])
@pytest.mark.parametrize("branch", list(analytic.BRANCHES))
def test_one_pass_gives_every_level(branch, top):
    # phi_top(x, levels) hands level k to levels[k]: every level within PASS_GAP of
    # the level's own wavefunction, the top one bit for bit, for floats and for arrays
    record, family = analytic.BRANCHES[branch], FAMILIES[branch]
    alpha = record.alpha(COUPLED)
    reach = (math.sqrt(4.0 * (top + 1) if record.halfline else 2.0 * top + 1.0) + 5.0)
    xs = np.linspace(-0.2 * reach if record.halfline else -reach, reach, 1001) / math.sqrt(alpha)
    floats = [float(x) for x in xs[::50]] + [math.inf, -math.inf]
    phi = family(top, alpha)
    on_array, on_floats = [[] for _ in range(top + 1)], [[] for _ in range(top + 1)]
    assert bits(phi(xs, on_array)) == bits(phi(xs))
    assert bits([phi(x, on_floats) for x in floats]) == bits([phi(x) for x in floats])
    for k in range(top + 1):
        alone = family(k, alpha)
        expected = alone(xs)
        assert len(on_array[k]) == 1 and len(on_floats[k]) == len(floats)
        assert all(type(value) is float for value in on_floats[k])
        gap = PASS_GAP[top] * np.max(np.abs(expected))
        assert np.max(np.abs(on_array[k][0] - expected)) <= gap, k
        if not record.halfline:
            assert bits(on_array[k][0]) == bits(expected)
        assert np.max(np.abs(np.array(on_floats[k]) - [alone(x) for x in floats])) <= gap, k
    assert bits(on_array[top][0]) == bits(phi(xs))
    assert bits(on_floats[top]) == bits([phi(x) for x in floats])


@pytest.mark.parametrize("n", [166, 179, 199])
def test_pass_near_the_origin_at_top_200(n):
    # where PASS_GAP is widest, both ways sit within 5e-13 of the exact value
    levels = [[] for _ in range(201)]
    for x in (0.0667097875150313, 0.10006468127254695, 0.1334195750300626):
        analytic._halfline_wavefunction(200, 1.0)(x, levels)
        exact = halfline_function_log(n, 1.0, x)
        assert abs(levels[n][-1] - exact) <= 5e-13
        assert abs(analytic._halfline_wavefunction(n, 1.0)(x) - exact) <= 5e-13


def gl_norm(phi, lower, upper, panels):
    """Integral of phi^2 over [lower, upper] by 40-node Gauss-Legendre rules on equal panels."""
    nodes, weights = np.polynomial.legendre.leggauss(40)
    edges = np.linspace(lower, upper, panels + 1)
    half = 0.5 * np.diff(edges)[:, None]
    xs = edges[:-1, None] + half * (nodes + 1.0)
    return float(np.sum(half * weights * phi(xs.ravel()).reshape(xs.shape) ** 2))


def ode_residual(pair, xs, h):
    """Residual of the stationary ODE for an analytic eigenpair, central FD."""
    p = pair.params
    phi = pair.wavefunction
    lap = (phi(xs + h) - 2.0 * phi(xs) + phi(xs - h)) / h**2
    if pair.branch == analytic.HALF_HO:
        v = 0.75 / xs**2 + (p.m * p.omega / p.hbar) ** 2 * xs**2
        lam = 2.0 * p.m * pair.energy / p.hbar**2
    elif pair.branch == analytic.COUPLED_Y1:
        # mass 2m, stiffness (m omega^2 + g)/2 from the normal-mode Hamiltonian
        v = 0.75 / xs**2 + p.m * (p.m * p.omega**2 + p.g) / p.hbar**2 * xs**2
        lam = 4.0 * p.m * pair.energy / p.hbar**2
    else:
        v = p.m * (p.m * p.omega**2 - p.g) / p.hbar**2 * xs**2
        lam = 4.0 * p.m * pair.energy / p.hbar**2
    return np.max(np.abs(-lap + v * phi(xs) - lam * phi(xs)))


class TestOdeResiduals:
    @pytest.mark.parametrize("builder,xs", [
        (lambda n: half_ho_eigen(n, UNIT), np.linspace(0.5, 3.0, 40)),
        (lambda n: coupled_y1_eigen(n, COUPLED), np.linspace(0.5, 3.0, 40)),
        (lambda n: coupled_y2_eigen(n, COUPLED), np.linspace(-3.0, 3.0, 40)),
    ])
    def test_residual_second_order(self, builder, xs):
        for n in (0, 2):
            pair = builder(n)
            r_h = ode_residual(pair, xs, 1e-3)
            r_h2 = ode_residual(pair, xs, 5e-4)
            # O(h^2) decay: halving the stencil shrinks the residual ~4x
            assert r_h / r_h2 == pytest.approx(4.0, rel=0.1)
            assert r_h < 1e-4


class TestCompositeSpectrum:
    def test_ground_level(self):
        levels = composite_spectrum(COUPLED, 1)
        assert levels[0].n1 == 0 and levels[0].n2 == 0
        expected = math.sqrt(1.6) + 0.25 * math.sqrt(0.4)
        assert levels[0].energy == pytest.approx(expected, rel=1e-15)
        assert levels[0].energy == pytest.approx(1.4230250, abs=1e-7)

    def test_matches_brute_force_enumeration(self):
        got = composite_spectrum(COUPLED, 50)
        expected = brute_force_composite(
            lambda n1: (n1 + 1) * math.sqrt(1.6),
            lambda n2: (n2 + 0.5) * 0.5 * math.sqrt(0.4),
            n_max=20,
            count=50,
        )
        assert [(lv.n1, lv.n2, lv.energy) for lv in got] == expected

    def test_energy_is_exact_branch_sum(self):
        for lv in composite_spectrum(COUPLED, 25):
            total = (
                coupled_y1_eigen(lv.n1, COUPLED).energy
                + coupled_y2_eigen(lv.n2, COUPLED).energy
            )
            assert lv.energy == total

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            composite_spectrum(COUPLED, 0)
        with pytest.raises(ValueError):
            composite_spectrum(PhysicalParams(g=0.0), 5)


def _ladder(branch, params):
    return lambda n: analytic.branch_energy(branch, n, params)


class TestCompositeMerge:
    """The ladder merge against an exhaustive count x count sort."""

    @pytest.mark.parametrize("count", [1, 2, 7, 300])
    @pytest.mark.parametrize("ratio", [0.2, 0.6, 0.9])  # 0.6: gap ratio 4, many ties
    @pytest.mark.parametrize("m,omega,hbar", [(1.0, 1.0, 1.0), (2.0, 0.7, 1.3)])
    def test_matches_brute_force(self, count, ratio, m, omega, hbar):
        params = PhysicalParams(m=m, omega=omega, hbar=hbar, g=ratio * m * omega**2)
        got = composite_spectrum(params, count)
        expected = brute_force_composite(
            _ladder(analytic.COUPLED_Y1, params),
            _ladder(analytic.COUPLED_Y2, params),
            n_max=count - 1,
            count=count,
        )
        assert [(lv.n1, lv.n2, lv.energy) for lv in got] == expected

    def test_ties_are_exercised(self):
        energies = [lv.energy for lv in composite_spectrum(COUPLED, 300)]
        assert sum(a == b for a, b in zip(energies, energies[1:])) > 100

    @pytest.mark.parametrize("count", [1, 7, 300])
    def test_ladders_evaluated_linearly(self, count, monkeypatch):
        calls = []
        branch_energy = analytic.branch_energy

        def counted(*args):
            calls.append(args)
            return branch_energy(*args)

        monkeypatch.setattr(analytic, "branch_energy", counted)
        composite_spectrum(COUPLED, count)
        assert 0 < len(calls) <= 2 * count
