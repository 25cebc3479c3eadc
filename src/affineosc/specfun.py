"""Polynomial special functions and half-line quadrature.

The closed-form eigenfunctions need the terminating confluent hypergeometric
series 1F1(-n, b, z), physicists' Hermite polynomials and associated Laguerre
polynomials.  All three are evaluated by three-term recurrences so they stay
exact (to rounding) up to degree 64 without overflowing intermediate factorials.
The recurrences are plain arithmetic, run unchanged on a float and on a numpy
array, so evaluating them at floats loads no numpy.  ``integrate_halfline``
loads numpy and has no caller: the benchmark's span recorder only wraps it by
name (``SPANNED`` in bench/spans.py), so it is deleted when the benchmark is
next changed, together with that entry (ROADMAP item 3).
"""

from __future__ import annotations

import functools
import math


class QuadratureError(RuntimeError):
    """Half-line quadrature failed to reach the requested tolerance."""


def _check_degree(n: int) -> int:
    if n != int(n) or n < 0:
        raise ValueError(f"polynomial degree must be a nonnegative integer, got {n}")
    return int(n)


def confluent_1f1_neg(n: int, b_param: float, z):
    """Terminating confluent hypergeometric polynomial 1F1(-n, b_param, z).

    Evaluated with the contiguous three-term recurrence in the degree,
    f_{k+1} = ((2k + b - z) f_k - k f_{k-1}) / (k + b),
    which avoids the catastrophic cancellation of the naive alternating
    term-by-term sum for moderate z.  z is a float (or an int), a numpy float64
    or a float ndarray, and the value has its type (a float for an int) and
    shape.  A large or non-finite float z overflows to inf or nan silently; an
    array warns as numpy arithmetic does.
    """
    n = _check_degree(n)
    if b_param <= 0:
        raise ValueError(f"b_param must be positive, got {b_param}")
    f_prev = z**0.0  # 1.0, or ones of z's shape
    if n == 0:
        return f_prev
    f_cur = 1.0 - z / b_param
    for k in range(1, n):
        f_cur, f_prev = (
            ((2 * k + b_param - z) * f_cur - k * f_prev) / (k + b_param),
            f_cur,
        )
    return f_cur


def hermite(n: int, x):
    """Physicists' Hermite polynomial H_n via H_{k+1} = 2x H_k - 2k H_{k-1}.

    x and the value are typed as in ``confluent_1f1_neg``.
    """
    n = _check_degree(n)
    h_prev = x**0.0
    if n == 0:
        return h_prev
    h = 2.0 * x
    for k in range(1, n):
        h, h_prev = 2.0 * x * h - 2.0 * k * h_prev, h
    return h


def laguerre_assoc(n: int, alpha: float, z):
    """Associated Laguerre polynomial L_n^(alpha) by three-term recurrence.

    Related to the terminating confluent series by
    1F1(-n, alpha+1, z) = L_n^(alpha)(z) / binom(n + alpha, n).
    z and the value are typed as in ``confluent_1f1_neg``.
    """
    n = _check_degree(n)
    if alpha <= -1:
        raise ValueError(f"alpha must exceed -1, got {alpha}")
    l_prev = z**0.0
    if n == 0:
        return l_prev
    l_cur = 1.0 + alpha - z
    for k in range(1, n):
        l_cur, l_prev = (
            ((2 * k + 1 + alpha - z) * l_cur - (k + alpha) * l_prev) / (k + 1),
            l_cur,
        )
    return l_cur


QUAD_NODES = 160  # n of the n- and 2n-node Gauss-Legendre pair
QUAD_TOL = 1e-10  # absolute error integrate_halfline must reach


@functools.cache
def _legendre_pair():
    """Nodes of both rules, mapped to [0, 2], in one array; one weight row per rule."""
    import numpy as np  # here and below, not at the top: only quadrature needs numpy
    from numpy.polynomial.legendre import leggauss

    (xn, wn), (x2n, w2n) = leggauss(QUAD_NODES), leggauss(2 * QUAD_NODES)
    return np.r_[xn, x2n] + 1.0, np.array([np.r_[wn, 0.0 * w2n], np.r_[0.0 * wn, w2n]])


def integrate_halfline(f, lower: float, decay_scale: float) -> float:
    """Integrate f over [lower, inf) assuming a Gaussian envelope.

    decay_scale is the Gaussian length s of the envelope exp(-((x-lower)/s)^2);
    the domain ends where that envelope drops below QUAD_TOL/100.  f is called
    once, on an array of nodes, and may return an array or a scalar.  The value is
    the 2n-node Gauss-Legendre sum and its distance from the n-node sum the error.
    """
    import numpy as np

    if decay_scale <= 0:
        raise ValueError(f"decay_scale must be positive, got {decay_scale}")
    tol = QUAD_TOL
    # envelope exp(-(u/s)^2) <= tol/100  =>  u >= s*sqrt(log(100/tol))
    cutoff = lower + decay_scale * math.sqrt(math.log(100.0 / tol)) + decay_scale
    nodes, weights = _legendre_pair()
    half = 0.5 * (cutoff - lower)
    coarse, value = half * np.sum(weights * f(lower + half * nodes), axis=1)
    if (err := abs(value - coarse)) > 10 * tol:
        raise QuadratureError(f"quadrature error estimate {err:.3e} exceeds tolerance {tol:.3e}")
    return float(value)
