import math

import numpy as np
import pytest

from affineosc import core
from affineosc.core import (
    DomainError,
    FrameError,
    PhaseSpacePoint,
    PhysicalParams,
    dilation,
    from_normal,
    hamiltonian_affine,
    hamiltonian_normal,
    hamiltonian_original,
    poisson_bracket,
    to_normal,
)


def random_points(seed, count):
    rng = np.random.default_rng(seed)
    return [
        PhaseSpacePoint(
            q1=rng.uniform(0.0, 5.0),
            q2=rng.uniform(0.0, 5.0),
            p1=rng.uniform(-5.0, 5.0),
            p2=rng.uniform(-5.0, 5.0),
        )
        for _ in range(count)
    ]


class TestPhysicalParams:
    def test_defaults(self):
        p = PhysicalParams()
        assert (p.m, p.omega, p.hbar, p.g) == (1.0, 1.0, 1.0, 0.0)

    @pytest.mark.parametrize("kwargs", [
        {"m": 0.0}, {"m": -1.0}, {"omega": 0.0}, {"hbar": -0.5},
        {"g": 1.0}, {"g": -1.0}, {"g": 2.5},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            PhysicalParams(**kwargs)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["m", "omega", "hbar", "g"])
    def test_non_finite_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            PhysicalParams(**{name: value})

    def test_coupling_bound_scales_with_m_omega(self):
        PhysicalParams(m=2.0, omega=3.0, g=17.9)
        with pytest.raises(ValueError):
            PhysicalParams(m=2.0, omega=3.0, g=18.0)

    def test_alpha_scales(self):
        p = PhysicalParams(g=0.6)
        assert p.alpha1 == pytest.approx(math.sqrt(1.6), rel=1e-15)
        assert p.alpha2 == pytest.approx(math.sqrt(0.4), rel=1e-15)

    def test_quantum_coupling_gate(self):
        PhysicalParams(g=0.5).require_quantum_coupling()
        with pytest.raises(ValueError):
            PhysicalParams(g=0.0).require_quantum_coupling()
        with pytest.raises(ValueError):
            PhysicalParams(g=-0.3).require_quantum_coupling()


class TestFrames:
    def test_to_normal_example(self):
        pt = to_normal(PhaseSpacePoint(1.0, 2.0, 3.0, 4.0))
        assert (pt.q1, pt.q2, pt.p1, pt.p2) == (3.0, -1.0, 7.0, -1.0)
        assert pt.frame == core.NORMAL

    def test_to_normal_zero(self):
        pt = to_normal(PhaseSpacePoint(0.0, 0.0, 0.0, 0.0))
        assert (pt.q1, pt.q2, pt.p1, pt.p2) == (0.0, 0.0, 0.0, 0.0)

    def test_from_normal_example(self):
        pt = from_normal(PhaseSpacePoint(3.0, -1.0, 7.0, -1.0, frame=core.NORMAL))
        assert (pt.q1, pt.q2, pt.p1, pt.p2) == (1.0, 2.0, 3.0, 4.0)
        assert pt.frame == core.ORIGINAL

    def test_from_normal_boundary_accepted(self):
        pt = from_normal(PhaseSpacePoint(2.0, 2.0, 0.0, 0.0, frame=core.NORMAL))
        assert (pt.q1, pt.q2) == (2.0, 0.0)

    def test_from_normal_rejects_negative_preimage(self):
        with pytest.raises(DomainError):
            from_normal(PhaseSpacePoint(1.0, 2.0, 0.0, 0.0, frame=core.NORMAL))

    def test_negative_original_positions_rejected(self):
        with pytest.raises(DomainError):
            PhaseSpacePoint(-0.1, 1.0, 0.0, 0.0)

    def test_negative_normal_y1_rejected(self):
        with pytest.raises(DomainError):
            PhaseSpacePoint(-0.1, 1.0, 0.0, 0.0, frame=core.NORMAL)

    def test_frame_mismatch_rejected(self):
        original = PhaseSpacePoint(1.0, 1.0, 0.0, 0.0)
        with pytest.raises(FrameError):
            from_normal(original)
        with pytest.raises(FrameError):
            to_normal(to_normal(original))

    def test_round_trip_machine_precision(self):
        for pt in random_points(7, 1000):
            back = from_normal(to_normal(pt))
            for name in ("q1", "q2", "p1", "p2"):
                assert getattr(back, name) == pytest.approx(
                    getattr(pt, name), rel=1e-14, abs=1e-14
                )


class TestHamiltonians:
    params = PhysicalParams(g=0.6)

    def test_original_example(self):
        pt = PhaseSpacePoint(1.0, 1.0, 0.0, 0.0)
        assert hamiltonian_original(pt, self.params) == pytest.approx(1.6, rel=1e-15)

    def test_original_zero(self):
        assert hamiltonian_original(PhaseSpacePoint(0, 0, 0, 0), self.params) == 0.0

    def test_normal_example(self):
        pt = PhaseSpacePoint(2.0, 0.0, 0.0, 0.0, frame=core.NORMAL)
        assert hamiltonian_normal(pt, self.params) == pytest.approx(1.6, rel=1e-15)

    def test_normal_zero(self):
        pt = PhaseSpacePoint(0, 0, 0, 0, frame=core.NORMAL)
        assert hamiltonian_normal(pt, self.params) == 0.0

    def test_frame_mismatch(self):
        with pytest.raises(FrameError):
            hamiltonian_original(PhaseSpacePoint(1, 1, 0, 0, frame=core.NORMAL), self.params)
        with pytest.raises(FrameError):
            hamiltonian_normal(PhaseSpacePoint(1, 1, 0, 0), self.params)

    def test_equivalence_on_random_points(self):
        for pt in random_points(11, 1000):
            h1 = hamiltonian_original(pt, self.params)
            h2 = hamiltonian_normal(to_normal(pt), self.params)
            assert h2 == pytest.approx(h1, rel=1e-12, abs=1e-12)


class TestDilation:
    params = PhysicalParams(g=0.6)

    def test_examples(self):
        assert dilation(2.0, 3.0).d == 6.0
        assert dilation(0.0, 5.0).d == 0.0

    def test_affine_example(self):
        value = hamiltonian_affine(1.0, 2.0, 0.0, 0.0, PhysicalParams(g=0.6))
        assert value == pytest.approx(1.0 + 0.25 * 1.6, rel=1e-15)

    def test_affine_singular_point_rejected(self):
        with pytest.raises(DomainError):
            hamiltonian_affine(0.0, 1.0, 0.0, 0.0, self.params)
        with pytest.raises(DomainError):
            hamiltonian_affine(-1.0, 1.0, 0.0, 0.0, self.params)

    def test_affine_matches_normal_on_random_points(self):
        for pt in random_points(13, 1000):
            nm = to_normal(pt)
            if nm.q1 <= 0:
                continue
            d = dilation(nm.q1, nm.p1).d
            h_aff = hamiltonian_affine(nm.q1, d, nm.q2, nm.p2, self.params)
            h_nrm = hamiltonian_normal(nm, self.params)
            assert h_aff == pytest.approx(h_nrm, rel=1e-12, abs=1e-12)


class TestPoissonBracket:
    point = PhaseSpacePoint(1.0, 0.5, 0.3, -0.8)

    @staticmethod
    def y1(p):
        return p.q1 + p.q2

    @staticmethod
    def py1(p):
        return p.p1 + p.p2

    def test_canonical_pair(self):
        got = poisson_bracket(lambda p: p.q1, lambda p: p.p1, self.point)
        assert got == pytest.approx(1.0, abs=1e-8)

    def test_normal_pair_carries_factor_two(self):
        got = poisson_bracket(self.y1, self.py1, self.point)
        assert got == pytest.approx(2.0, abs=1e-8)

    def test_dilation_bracket(self):
        pt = PhaseSpacePoint(1.0, 0.5, 0.3, -0.8)  # y1 = 1.5
        got = poisson_bracket(
            self.y1, lambda p: (p.p1 + p.p2) * (p.q1 + p.q2), pt
        )
        assert got == pytest.approx(3.0, abs=1e-7)

    def test_cross_brackets_vanish(self):
        y2 = lambda p: p.q1 - p.q2
        py2 = lambda p: p.p1 - p.p2
        assert poisson_bracket(self.y1, py2, self.point) == pytest.approx(0.0, abs=1e-8)
        assert poisson_bracket(y2, self.py1, self.point) == pytest.approx(0.0, abs=1e-8)

    def test_antisymmetry(self):
        got = poisson_bracket(self.py1, self.y1, self.point)
        assert got == pytest.approx(-2.0, abs=1e-8)

    def test_stencil_out_of_domain(self):
        near_edge = PhaseSpacePoint(1e-7, 1.0, 0.0, 0.0)
        with pytest.raises(DomainError):
            poisson_bracket(lambda p: p.q1, lambda p: p.p1, near_edge)

    def test_requires_original_frame(self):
        with pytest.raises(FrameError):
            poisson_bracket(
                lambda p: p.q1, lambda p: p.p1,
                PhaseSpacePoint(1, 0, 0, 0, frame=core.NORMAL),
            )
