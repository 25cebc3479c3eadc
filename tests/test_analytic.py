import math

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
from oracles import brute_force_composite, halfline_function_log, hermite_function_log

UNIT = PhysicalParams()
COUPLED = PhysicalParams(g=0.6)


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

    # the norm is the 1x1 Gram matrix of check_orthonormality, on its domains
    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_half_ho_normalized(self, n):
        norm = checks.gram_matrix([half_ho_eigen(n, UNIT)])[0, 0]
        assert norm == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("n", [0, 1])
    def test_y2_normalized(self, n):
        norm = checks.gram_matrix([coupled_y2_eigen(n, COUPLED)])[0, 0]
        assert norm == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("pair,x", [
        (coupled_y2_eigen(200, COUPLED), np.array([50.0])),
        (half_ho_eigen(40, UNIT), 1e5),
        (half_ho_eigen(40, UNIT), np.array([1e200, 1e5, -1.0])),
    ], ids=["y2-200", "half-40", "half-40-array"])
    def test_zero_far_in_the_tail(self, pair, x):
        # the polynomial overflows where exp(-alpha x^2 / 2) has underflowed to 0
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = pair.wavefunction(x)
        assert np.array_equal(value, np.zeros_like(x))
        assert type(value) is type(x)

    # gram_matrix's one 320-node window is sized for check's low levels: at
    # these n it raises QuadratureError, so the norm uses 40-node panels
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

    def test_node_counts(self):
        xs_half = np.linspace(1e-4, 9.0, 30001)
        xs_full = np.linspace(-9.0, 9.0, 30001)
        for n in range(9):
            assert sign_changes(half_ho_eigen(n, UNIT).wavefunction(xs_half)) == n
            assert sign_changes(coupled_y1_eigen(n, COUPLED).wavefunction(xs_half)) == n
            assert sign_changes(coupled_y2_eigen(n, COUPLED).wavefunction(xs_full)) == n


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
