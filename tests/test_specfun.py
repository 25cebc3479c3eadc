import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import affineosc
from affineosc.specfun import (
    QuadratureError,
    confluent_1f1_neg,
    hermite,
    integrate_halfline,
    laguerre_assoc,
)
from oracles import binom, f1_rational, hermite_rational, laguerre_rational


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


class TestHalflineQuadrature:
    def test_gaussian(self):
        value = integrate_halfline(lambda x: math.exp(-x * x), 0.0, 1.0, tol=1e-10)
        assert value == pytest.approx(math.sqrt(math.pi) / 2.0, abs=1e-10)

    def test_cubic_moment(self):
        value = integrate_halfline(lambda x: x**3 * math.exp(-x * x), 0.0, 1.0, tol=1e-10)
        assert value == pytest.approx(0.5, abs=1e-10)

    def test_zero_function(self):
        assert integrate_halfline(lambda x: 0.0, 0.0, 1.0, tol=1e-10) == 0.0

    def test_nonzero_lower_limit(self):
        value = integrate_halfline(lambda x: math.exp(-x * x), 1.0, 1.0, tol=1e-10)
        expected = math.sqrt(math.pi) / 2.0 * math.erfc(1.0)
        assert value == pytest.approx(expected, abs=1e-10)

    def test_laguerre_orthogonality(self):
        for m in range(9):
            for n in range(m, 9):
                value = integrate_halfline(
                    lambda t: math.exp(-t) * t
                    * laguerre_assoc(m, 1.0, t) * laguerre_assoc(n, 1.0, t),
                    0.0,
                    16.0,
                    tol=1e-10,
                )
                expected = float(n + 1) if m == n else 0.0
                assert value == pytest.approx(expected, abs=1e-8)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            integrate_halfline(lambda x: 0.0, 0.0, -1.0)
        with pytest.raises(ValueError):
            integrate_halfline(lambda x: 0.0, 0.0, 1.0, tol=0.0)

    @pytest.mark.filterwarnings("ignore")  # scipy warns before the error is raised
    def test_failure_raises_quadrature_error(self):
        with pytest.raises(
            QuadratureError,
            match=r"^quadrature error estimate \d\.\d{3}e[-+]\d+ exceeds tolerance 1\.000e-10$",
        ):
            integrate_halfline(lambda x: math.sin(1e4 * x) * math.exp(-x * x), 0.0, 1.0)


LAZY_IMPORT_SCRIPT = """
import math, sys
import affineosc
assert "scipy.integrate" not in sys.modules, "loaded by import affineosc"
from affineosc import cli, specfun
assert cli.main(["coupled", "--g", "0.6", "--count", "5"]) == 0
assert "scipy.integrate" not in sys.modules, "loaded by the coupled command"
f = lambda x: math.exp(-x * x) * (1.0 + x)
value = specfun.integrate_halfline(f, 0.5, 1.0, tol=1e-10)
from scipy import integrate
cutoff = 0.5 + math.sqrt(math.log(100.0 / 1e-10)) + 1.0
assert value == integrate.quad(f, 0.5, cutoff, epsabs=1e-10, epsrel=0.0, limit=200)[0]
"""


def test_scipy_integrate_loaded_only_by_quadrature():
    src = os.path.dirname(os.path.dirname(affineosc.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", LAZY_IMPORT_SCRIPT], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("n1,n2,energy\n0,0,")
