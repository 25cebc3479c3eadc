import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

import affineosc
from affineosc import checks, specfun
from affineosc.specfun import (
    QuadratureError,
    confluent_1f1_neg,
    hermite,
    integrate_halfline,
    laguerre_assoc,
)
from oracles import (
    binom,
    f1_numpy,
    f1_rational,
    hermite_numpy,
    hermite_rational,
    laguerre_numpy,
    laguerre_rational,
)


class TestConfluent:
    def test_degree_zero_is_one(self):
        assert confluent_1f1_neg(0, 2.0, 1.7) == 1.0

    def test_degree_one_zero_crossing(self):
        # 1 - z/b vanishes at z = b
        assert confluent_1f1_neg(1, 2.0, 2.0) == pytest.approx(0.0, abs=1e-15)

    def test_degree_two_example(self):
        assert confluent_1f1_neg(2, 2.0, 1.0) == pytest.approx(1.0 / 6.0, rel=1e-14)
        assert laguerre_assoc(2, 1.0, 1.0) / 3.0 == pytest.approx(1.0 / 6.0, rel=1e-14)

    def test_matches_rational_oracle(self):
        rng = np.random.default_rng(42)
        for n in range(21):
            for _ in range(5):
                z = Fraction(int(rng.integers(0, 5000)), 100)
                expected = float(f1_rational(n, 2, z))
                got = confluent_1f1_neg(n, 2.0, float(z))
                assert got == pytest.approx(expected, rel=1e-13, abs=1e-13)

    def test_vectorized(self):
        z = np.array([0.0, 1.0, 2.0])
        np.testing.assert_allclose(
            confluent_1f1_neg(1, 2.0, z), 1.0 - z / 2.0, rtol=1e-15
        )

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            confluent_1f1_neg(-1, 2.0, 1.0)
        with pytest.raises(ValueError):
            confluent_1f1_neg(2, 0.0, 1.0)


@pytest.mark.parametrize("call,message", [
    (lambda p: confluent_1f1_neg(2, p, 1.0), r"^b_param must be finite, got "),
    (lambda p: laguerre_assoc(2, p, 1.0), r"^alpha must be finite, got "),
], ids=["1f1", "laguerre"])
@pytest.mark.parametrize("param", [math.nan, math.inf, -math.inf])
def test_non_finite_parameter_rejected(call, message, param):
    with pytest.raises(ValueError, match=message):
        call(param)


class TestHermite:
    def test_low_orders(self):
        assert hermite(0, 12.3) == 1.0
        assert hermite(1, 3.5) == 7.0
        assert hermite(3, 2.0) == 40.0  # 8x^3 - 12x at x=2

    def test_matches_rational_oracle(self):
        rng = np.random.default_rng(43)
        for n in range(31):
            x = Fraction(int(rng.integers(-300, 300)), 100)
            expected = float(hermite_rational(n, x))
            got = hermite(n, float(x))
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_parity(self):
        rng = np.random.default_rng(44)
        for n in range(31):
            for x in rng.uniform(0.0, 4.0, size=5):
                assert hermite(n, -x) == pytest.approx(
                    (-1.0) ** n * hermite(n, x), rel=1e-12, abs=1e-12
                )

    def test_recurrence_holds(self):
        for n in range(1, 31):
            for x in (0.3, 1.1, 2.7):
                lhs = hermite(n + 1, x)
                rhs = 2 * x * hermite(n, x) - 2 * n * hermite(n - 1, x)
                assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_high_degree_finite(self):
        assert math.isfinite(hermite(64, 1.0))


class TestLaguerre:
    def test_low_orders(self):
        assert laguerre_assoc(0, 1.0, 5.0) == 1.0
        # L_2^(1)(z) = z^2/2 - 3z + 3
        assert laguerre_assoc(2, 1.0, 1.0) == pytest.approx(0.5, rel=1e-14)

    def test_matches_rational_oracle(self):
        rng = np.random.default_rng(45)
        for n in range(21):
            z = Fraction(int(rng.integers(0, 3000)), 100)
            expected = float(laguerre_rational(n, 1, z))
            got = laguerre_assoc(n, 1.0, float(z))
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_confluent_identity_spot(self):
        # both sides against the rational oracle at n=3, alpha=1, z=0.7
        z = Fraction(7, 10)
        lhs = laguerre_assoc(3, 1.0, 0.7) / binom(4, 3)
        rhs = confluent_1f1_neg(3, 2.0, 0.7)
        exact = float(laguerre_rational(3, 1, z) / binom(4, 3))
        assert lhs == pytest.approx(rhs, rel=1e-13)
        assert lhs == pytest.approx(exact, rel=1e-13)
        assert float(f1_rational(3, 2, z)) == pytest.approx(exact, rel=1e-15)

    def test_confluent_identity_sweep(self):
        rng = np.random.default_rng(46)
        for n in range(21):
            for z in rng.uniform(0.0, 50.0, size=5):
                lhs = confluent_1f1_neg(n, 2.0, z)
                rhs = laguerre_assoc(n, 1.0, z) / (n + 1)
                assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            laguerre_assoc(2, -1.0, 1.0)


# each special function with a parameter, and its earlier numpy evaluation
RECURRENCES = {
    "1f1 b=2": (lambda n, x: confluent_1f1_neg(n, 2.0, x), lambda n, x: f1_numpy(n, 2.0, x)),
    "1f1 b=0.5": (lambda n, x: confluent_1f1_neg(n, 0.5, x), lambda n, x: f1_numpy(n, 0.5, x)),
    "hermite": (hermite, hermite_numpy),
    "laguerre a=1": (lambda n, x: laguerre_assoc(n, 1.0, x),
                     lambda n, x: laguerre_numpy(n, 1.0, x)),
    "laguerre a=-0.5": (lambda n, x: laguerre_assoc(n, -0.5, x),
                        lambda n, x: laguerre_numpy(n, -0.5, x)),
}
EDGE_POINTS = [0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 2.5, -2.5, 37.0, -37.0,
               1e200, -1e200, math.inf, -math.inf, math.nan]
_rng = np.random.default_rng(15)
RANDOM_POINTS = (_rng.uniform(-40.0, 40.0, 6).tolist()
                 + (_rng.standard_normal(6) * 10.0 ** _rng.integers(-8, 9, 6)).tolist())
POINTS = EDGE_POINTS + RANDOM_POINTS
DEGREES = list(range(65)) + [10000]
CANONICAL_NAN = np.uint64(0x7FF8000000000000)


def bits(values):
    """The float64 bit patterns of values, with every nan given one pattern."""
    values = np.asarray(values, dtype=np.float64)
    return np.where(np.isnan(values), CANONICAL_NAN, values.view(np.uint64)).tolist()


class TestAgainstNumpyRecurrences:
    """The plain-arithmetic recurrences give the bits of the numpy ones they replaced."""

    @pytest.mark.parametrize("name", RECURRENCES)
    def test_float_arguments(self, name):
        fn, reference = RECURRENCES[name]
        for n in DEGREES:
            # the numpy reference, elementwise on one array, as it ran on each 0-d array
            expected = bits(reference(n, np.array(POINTS)))
            got = [fn(n, x) for x in POINTS]
            assert {type(v) for v in got} == {float}, (name, n)
            assert bits(got) == expected, (name, n)
        assert bits([reference(n, x) for n in (0, 3, 64) for x in POINTS]) == bits(
            [fn(n, x) for n in (0, 3, 64) for x in POINTS])

    @pytest.mark.parametrize("name", RECURRENCES)
    def test_float64_arguments(self, name):
        fn, reference = RECURRENCES[name]
        for n in DEGREES:
            expected = bits(reference(n, np.array(POINTS)))
            with np.errstate(all="ignore"):  # numpy scalars warn where they overflow
                got = [fn(n, np.float64(x)) for x in POINTS]
            assert {type(v) for v in got} == {np.float64}, (name, n)
            assert bits(got) == expected, (name, n)

    @pytest.mark.parametrize("name", RECURRENCES)
    def test_array_arguments(self, name):
        fn, reference = RECURRENCES[name]
        for shape in ((len(POINTS),), (3, len(POINTS) // 3)):
            xs = np.array(POINTS).reshape(shape)
            for n in DEGREES:
                with np.errstate(all="ignore"):  # arrays warn where they overflow
                    got = fn(n, xs)
                assert type(got) is np.ndarray and got.dtype == np.float64, (name, n)
                assert got.shape == shape, (name, n)
                assert bits(got) == bits(reference(n, xs)), (name, n)

    def test_int_argument_gives_float(self):
        for value in (hermite(0, 2), hermite(3, 2), confluent_1f1_neg(2, 2, 1),
                      laguerre_assoc(2, 1, 1)):
            assert type(value) is float
        assert hermite(3, 2) == 40.0

    def test_list_argument_is_type_error(self):
        for call in (lambda: hermite(2, [1.0, 2.0]), lambda: confluent_1f1_neg(2, 2.0, [1.0]),
                     lambda: laguerre_assoc(0, 1.0, [1.0])):
            with pytest.raises(TypeError):
                call()

    def test_float_overflow_warns_nothing(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = [hermite(3, 1e200), hermite(64, -1e300), hermite(5, math.inf),
                      confluent_1f1_neg(40, 2.0, 1e200), confluent_1f1_neg(3, 2.0, -math.inf),
                      laguerre_assoc(40, 1.0, -1e300), laguerre_assoc(3, 1.0, math.nan)]
        assert not any(math.isfinite(v) for v in values), values

    def test_array_overflow_warns(self):
        with pytest.warns(RuntimeWarning, match="overflow"):
            hermite(3, np.array([1e200]))


class TestHalflineQuadrature:
    def test_gaussian(self):
        value = integrate_halfline(lambda x: np.exp(-x * x), 0.0, 1.0)
        assert value == pytest.approx(math.sqrt(math.pi) / 2.0, abs=1e-10)

    def test_cubic_moment(self):
        value = integrate_halfline(lambda x: x**3 * np.exp(-x * x), 0.0, 1.0)
        assert value == pytest.approx(0.5, abs=1e-10)

    def test_zero_function(self):
        assert integrate_halfline(lambda x: 0.0, 0.0, 1.0) == 0.0

    def test_nonzero_lower_limit(self):
        value = integrate_halfline(lambda x: np.exp(-x * x), 1.0, 1.0)
        expected = math.sqrt(math.pi) / 2.0 * math.erfc(1.0)
        assert value == pytest.approx(expected, abs=1e-10)

    def test_laguerre_orthogonality(self):
        _, ok, detail = checks.check_laguerre_orthogonality()
        assert ok, detail

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            integrate_halfline(lambda x: 0.0, 0.0, -1.0)

    @pytest.mark.parametrize("scale", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_decay_scale_must_be_finite_and_positive(self, scale):
        # NaN used to pass the former ``decay_scale <= 0`` test and return nan
        def f(x):
            raise AssertionError("f called")

        with pytest.raises(ValueError, match="^decay_scale must be (finite|positive), got"):
            integrate_halfline(f, 0.0, scale)

    def test_failure_raises_quadrature_error(self):
        with pytest.raises(
            QuadratureError,
            match=r"^quadrature error estimate \d\.\d{3}e[-+]\d+ exceeds tolerance 1\.000e-10$",
        ):
            integrate_halfline(lambda x: np.sin(1e4 * x) * np.exp(-x * x), 0.0, 1.0)

    def test_rules_computed_once_per_process(self, monkeypatch):
        calls = []

        def counting_leggauss(n):
            calls.append(n)
            return leggauss(n)

        # _legendre_pair imports leggauss on its first call, from this module
        monkeypatch.setattr("numpy.polynomial.legendre.leggauss", counting_leggauss)
        specfun._legendre_pair.cache_clear()
        assert checks.check_laguerre_orthogonality()[1]
        assert checks.check_orthonormality()[1]
        assert len(calls) <= 2


NO_INTEGRATE_SCRIPT = """
import math, sys
import numpy as np
import affineosc
from affineosc import cli, specfun
assert specfun._legendre_pair.cache_info().currsize == 0, "rules built by import affineosc"
assert cli.main(["coupled", "--g", "0.6", "--count", "5"]) == 0
assert cli.main(["check"]) == 0
value = specfun.integrate_halfline(lambda x: np.exp(-x * x) * (1.0 + x), 0.5, 1.0)
exact = math.sqrt(math.pi) / 2.0 * math.erfc(0.5) + math.exp(-0.25) / 2.0
assert abs(value - exact) <= 1e-10, value
assert "scipy.integrate" not in sys.modules
"""


def test_scipy_integrate_never_loaded():
    src = os.path.dirname(os.path.dirname(affineosc.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", NO_INTEGRATE_SCRIPT], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("n1,n2,energy\n0,0,")
