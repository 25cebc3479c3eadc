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
    require_int,
    require_real,
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

    def test_coordinates_kept_as_floats(self):
        for pt in (PhaseSpacePoint(1, 2, -3, 4), to_normal(PhaseSpacePoint(1, 2, -3, 4)),
                   from_normal(PhaseSpacePoint(3, 1, 0, 0, frame=core.NORMAL))):
            assert {type(v) for v in pt[:4]} == {float}

    @pytest.mark.parametrize("field", ["q1", "q2", "p1", "p2"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, "1", True, 10**400],
                             ids=["nan", "inf", "str", "bool", "huge"])
    def test_coordinates_checked_before_the_frame(self, field, value):
        coords = {"q1": 1.0, "q2": 2.0, "p1": 0.0, "p2": 0.0, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be "):
            PhaseSpacePoint(**coords, frame="no such frame")

    @pytest.mark.parametrize("mapping,frame,coords", [
        (to_normal, core.ORIGINAL, (1e308, 1e308, 0.0, 0.0)),
        (to_normal, core.ORIGINAL, (0.0, 0.0, -1e308, 1e308)),
    ])
    def test_overflow_rejected(self, mapping, frame, coords):
        with pytest.raises(ValueError, match="image overflows"):
            mapping(PhaseSpacePoint(*coords, frame=frame))

    @pytest.mark.parametrize("image,preimage", [
        ((1e308, 1e308, 0.0, 0.0), (1e308, 0.0, 0.0, 0.0)),
        ((1.0, 0.0, 1e308, -1e308), (0.5, 0.5, 0.0, 1e308)),
    ], ids=["position-sum", "momentum-difference"])
    def test_from_normal_halves_before_it_adds(self, image, preimage):
        # each is to_normal's image of preimage; (q1 + q2) / 2 and (p1 - p2) / 2
        # would overflow before they halve
        assert to_normal(PhaseSpacePoint(*preimage))[:4] == image
        assert from_normal(PhaseSpacePoint(*image, frame=core.NORMAL))[:4] == preimage

    def test_round_trip_at_the_float_limit(self):
        pt = PhaseSpacePoint(1e308, 0.0, 0.0, 0.0)
        assert from_normal(to_normal(pt)) == pt

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
        assert dilation(2.0, 3.0) == 6.0
        assert dilation(0.0, 5.0) == 0.0

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
            d = dilation(nm.q1, nm.p1)
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


class TestRequireInt:
    @pytest.mark.parametrize("value,least,most", [(0, 0, None), (7, 1, None), (4, 0, 4),
                                                  (16, 16, 16)])
    def test_returns_an_int_in_range(self, value, least, most):
        assert require_int("k", value, least, most) is value

    @pytest.mark.parametrize("value,least,most,message", [
        (True, 0, None, "k must be an integer, got True"),
        (2.0, 0, None, "k must be an integer, got 2.0"),
        (np.int64(3), 0, None, f"k must be an integer, got {np.int64(3)!r}"),
        ("3", 0, None, "k must be an integer, got '3'"),
        (None, 1, 9, "k must be an integer, got None"),
        (-1, 0, None, "k must be at least 0, got -1"),
        (0, 1, None, "k must be at least 1, got 0"),
        (5, 0, 4, "k must be in 0..4, got 5"),
        (0, 1, 4, "k must be in 1..4, got 0"),
    ])
    def test_message(self, value, least, most, message):
        with pytest.raises(ValueError) as caught:
            require_int("k", value, least, most)
        assert str(caught.value) == message


class TestRequireReal:
    @pytest.mark.parametrize("value,bounds", [
        (2, {}), (-2.5, {}), (np.float64(0.5), {"above": 0}), (-0.5, {"above": -1}),
        (0, {"least": 0}), (-0.0, {"least": 0}), (math.inf, {"finite": False}),
    ])
    def test_returns_a_float(self, value, bounds):
        result = require_real("x", value, **bounds)
        assert type(result) is float and result == value

    def test_nan_passes_only_unchecked(self):
        assert math.isnan(require_real("x", math.nan, finite=False))

    @pytest.mark.parametrize("value,bounds,message", [
        (True, {}, "x must be a number, got True"),
        ("1.5", {}, "x must be a number, got '1.5'"),
        (None, {"finite": False}, "x must be a number, got None"),
        (np.int64(3), {}, f"x must be a number, got {np.int64(3)!r}"),
        ("y" * 60, {}, "x must be a number, got '" + "y" * 39),
        (10**400, {}, "x must be within float range"),
        (-10**400, {"finite": False}, "x must be within float range"),
        (math.nan, {}, "x must be finite, got nan"),
        (-math.inf, {"least": 0}, "x must be finite, got -inf"),
        (0, {"above": 0}, "x must be positive, got 0.0"),
        (-1, {"above": -1}, "x must be greater than -1, got -1.0"),
        (-1e-300, {"least": 0}, "x must be at least 0, got -1e-300"),
    ])
    def test_message(self, value, bounds, message):
        with pytest.raises(ValueError) as caught:
            require_real("x", value, **bounds)
        assert str(caught.value) == message

    def test_physical_params_kept_as_floats(self):
        params = PhysicalParams(m=2, omega=3, hbar=1, g=0)
        assert params == (2.0, 3.0, 1.0, 0.0)
        assert {type(v) for v in params} == {float}
