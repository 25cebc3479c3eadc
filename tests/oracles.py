"""Independent test oracles, kept deliberately naive and exact.

Rational-arithmetic evaluation of the polynomial special functions and of
the large-n eigenfunctions built on them (in logs), the
earlier numpy evaluation of the same recurrences (the bit-for-bit reference
for the plain-arithmetic ones), brute-force enumeration of composite levels,
and a Rayleigh-Ritz solve of the moving-endpoint problem.  Nothing here shares
code with the package implementations.
"""

import math
from fractions import Fraction

import numpy as np
from numpy.polynomial.laguerre import laggauss
from scipy.special import eval_genlaguerre, gammaln


def f1_rational(n: int, b_param: int, z: Fraction) -> Fraction:
    """Term-by-term sum of the terminating confluent series, exact rationals."""
    z = Fraction(z)
    term = Fraction(1)
    total = Fraction(1)
    for k in range(n):
        term *= Fraction(k - n, (b_param + k) * (k + 1)) * z
        total += term
    return total


def hermite_rational(n: int, x: Fraction) -> Fraction:
    """H_n from the explicit recurrence, exact rationals."""
    x = Fraction(x)
    h_prev, h = Fraction(1), 2 * x
    if n == 0:
        return h_prev
    for k in range(1, n):
        h, h_prev = 2 * x * h - 2 * k * h_prev, h
    return h


def laguerre_rational(n: int, alpha: int, z: Fraction) -> Fraction:
    """L_n^(alpha) from the explicit recurrence, exact rationals."""
    z = Fraction(z)
    l_prev = Fraction(1)
    if n == 0:
        return l_prev
    l_cur = 1 + alpha - z
    for k in range(1, n):
        l_cur, l_prev = ((2 * k + 1 + alpha - z) * l_cur - (k + alpha) * l_prev) / (k + 1), l_cur
    return l_cur


def _signed_exp(poly: Fraction, log_factor: float) -> float:
    """poly * exp(log_factor), with log|poly| taken from the exact rational."""
    if poly == 0:
        return 0.0
    log_abs = math.log(abs(poly.numerator)) - math.log(poly.denominator)
    return (1.0 if poly > 0 else -1.0) * math.exp(log_abs + log_factor)


def hermite_function_log(n: int, alpha: float, y: float) -> float:
    """Normalized oscillator eigenfunction at y: exact H_n(s), its norm and envelope in logs."""
    s = math.sqrt(alpha) * y
    log_norm = 0.25 * math.log(alpha / math.pi) - 0.5 * (n * math.log(2.0) + math.lgamma(n + 1))
    return _signed_exp(hermite_rational(n, Fraction(s)), log_norm - 0.5 * s * s)


def halfline_function_log(n: int, alpha: float, x: float) -> float:
    """sqrt(2/(n+1)) alpha x^(3/2) exp(-z/2) L_n^(1)(z), z = alpha x^2 > 0, in logs."""
    z = alpha * x * x
    log_factor = 0.5 * math.log(2.0 / (n + 1)) + math.log(alpha) + 1.5 * math.log(x) - 0.5 * z
    return _signed_exp(laguerre_rational(n, 1, Fraction(z)), log_factor)


def _numpy_result(value):
    return value if value.ndim else float(value)


def f1_numpy(n: int, b_param: float, z):
    """1F1(-n, b_param, z) by the degree recurrence on float64 arrays, overflow silenced."""
    with np.errstate(over="ignore", invalid="ignore"):
        z = np.asarray(z, dtype=float)
        f_prev = np.ones_like(z)
        if n == 0:
            return _numpy_result(f_prev)
        f_cur = 1.0 - z / b_param
        for k in range(1, n):
            f_cur, f_prev = (
                ((2 * k + b_param - z) * f_cur - k * f_prev) / (k + b_param),
                f_cur,
            )
        return _numpy_result(f_cur)


def hermite_numpy(n: int, x):
    """H_n by its recurrence on float64 arrays, overflow silenced."""
    with np.errstate(over="ignore", invalid="ignore"):
        x = np.asarray(x, dtype=float)
        h_prev = np.ones_like(x)
        if n == 0:
            return _numpy_result(h_prev)
        h = 2.0 * x
        for k in range(1, n):
            h, h_prev = 2.0 * x * h - 2.0 * k * h_prev, h
        return _numpy_result(h)


def laguerre_numpy(n: int, alpha: float, z):
    """L_n^(alpha) by its recurrence on float64 arrays, overflow silenced."""
    with np.errstate(over="ignore", invalid="ignore"):
        z = np.asarray(z, dtype=float)
        l_prev = np.ones_like(z)
        if n == 0:
            return _numpy_result(l_prev)
        l_cur = 1.0 + alpha - z
        for k in range(1, n):
            l_cur, l_prev = (
                ((2 * k + 1 + alpha - z) * l_cur - (k + alpha) * l_prev) / (k + 1),
                l_cur,
            )
        return _numpy_result(l_cur)


def binom(n: int, k: int) -> int:
    out = 1
    for i in range(k):
        out = out * (n - i) // (i + 1)
    return out


def brute_force_composite(e_y1, e_y2, n_max: int, count: int):
    """All (n1, n2, E) with n1, n2 <= n_max, sorted by (E, n1, n2), first count."""
    levels = [
        (n1, n2, e_y1(n1) + e_y2(n2))
        for n1 in range(n_max + 1)
        for n2 in range(n_max + 1)
    ]
    levels.sort(key=lambda t: (t[2], t[0], t[1]))
    return levels[:count]


def hext1_ritz(b: float, size: int = 100, beta: float = 10.0):
    """Ritz values of -d^2/dx^2 + 3/(4 (x + b)^2) + x^2 on x > -b, ascending.

    The operator of the ``hext1`` kind at unit parameters (energies are half
    these values).  The basis is f_n = t^(3/2) e^(-t/2) L_n^(3)(t) / sqrt(Gamma(n + 4)/n!),
    n < size, with t = beta (x + b): complete on the half line, orthonormal in
    t, and with the x^(3/2) behaviour at the barrier built in.  So the
    problem is beta^2 K + V with K_mn the integral of f_m' f_n' + 3/(4 t^2) f_m f_n
    (the kinetic term by parts; L_n^(3)' = -L_(n-1)^(4)) and V_mn that of
    (t/beta - b)^2 f_m f_n.  Every integrand is a polynomial of degree at
    most 2 size + 3 times e^(-t), which Gauss-Laguerre with size + 10 nodes
    integrates exactly.  Ritz values are upper bounds of the exact eigenvalues
    (MacDonald, Phys. Rev. 43, 830 (1933)).
    """
    t, w = laggauss(size + 10)
    n = np.arange(size)[:, None]
    norm = np.exp(0.5 * (gammaln(n + 1) - gammaln(n + 4)))
    root = norm * np.sqrt(w) * t**1.5  # the weight e^(-t) split between both factors
    lag = eval_genlaguerre(n, 3, t)
    dlag = np.where(n > 0, -eval_genlaguerre(np.maximum(n - 1, 0), 4, t), 0.0)
    f = root * lag
    df = root * ((1.5 / t - 0.5) * lag + dlag)
    kinetic = df @ df.T + (f * (0.75 / t**2)) @ f.T
    potential = (f * (t / beta - b) ** 2) @ f.T
    return np.linalg.eigvalsh(beta**2 * kinetic + potential)
