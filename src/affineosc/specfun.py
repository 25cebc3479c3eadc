"""Polynomial special functions and half-line quadrature.

The closed-form eigenfunctions need the terminating confluent hypergeometric
series 1F1(-n, b, z), physicists' Hermite polynomials and associated Laguerre
polynomials.  All three are evaluated by three-term recurrences so they stay
exact (to rounding) up to degree 64 without overflowing intermediate factorials.
"""

from __future__ import annotations

import functools
import math

from ._lazy import lazy_import

np = lazy_import("numpy")


class QuadratureError(RuntimeError):
    """Half-line quadrature failed to reach the requested tolerance."""


def _quiet_overflow(fn):
    """fn run under np.errstate, entered at call time so that defining fn loads no numpy.

    Large or non-finite arguments overflow the recurrences to inf or nan, which
    is the value reported; numpy's overflow warnings would only add stderr noise.
    """

    @functools.wraps(fn)
    def quiet(*args, **kwargs):
        with np.errstate(over="ignore", invalid="ignore"):
            return fn(*args, **kwargs)

    return quiet


def _check_degree(n: int) -> int:
    if n != int(n) or n < 0:
        raise ValueError(f"polynomial degree must be a nonnegative integer, got {n}")
    return int(n)


@_quiet_overflow
def confluent_1f1_neg(n: int, b_param: float, z):
    """Terminating confluent hypergeometric polynomial 1F1(-n, b_param, z).

    Evaluated with the contiguous three-term recurrence in the degree,
    f_{k+1} = ((2k + b - z) f_k - k f_{k-1}) / (k + b),
    which avoids the catastrophic cancellation of the naive alternating
    term-by-term sum for moderate z.
    """
    n = _check_degree(n)
    if b_param <= 0:
        raise ValueError(f"b_param must be positive, got {b_param}")
    z = np.asarray(z, dtype=float)
    f_prev = np.ones_like(z)
    if n == 0:
        return f_prev if f_prev.ndim else float(f_prev)
    f_cur = 1.0 - z / b_param
    for k in range(1, n):
        f_cur, f_prev = (
            ((2 * k + b_param - z) * f_cur - k * f_prev) / (k + b_param),
            f_cur,
        )
    return f_cur if f_cur.ndim else float(f_cur)


@_quiet_overflow
def hermite(n: int, x):
    """Physicists' Hermite polynomial H_n via H_{k+1} = 2x H_k - 2k H_{k-1}."""
    n = _check_degree(n)
    x = np.asarray(x, dtype=float)
    h_prev = np.ones_like(x)
    if n == 0:
        return h_prev if h_prev.ndim else float(h_prev)
    h = 2.0 * x
    for k in range(1, n):
        h, h_prev = 2.0 * x * h - 2.0 * k * h_prev, h
    return h if h.ndim else float(h)


@_quiet_overflow
def laguerre_assoc(n: int, alpha: float, z):
    """Associated Laguerre polynomial L_n^(alpha) by three-term recurrence.

    Related to the terminating confluent series by
    1F1(-n, alpha+1, z) = L_n^(alpha)(z) / binom(n + alpha, n).
    """
    n = _check_degree(n)
    if alpha <= -1:
        raise ValueError(f"alpha must exceed -1, got {alpha}")
    z = np.asarray(z, dtype=float)
    l_prev = np.ones_like(z)
    if n == 0:
        return l_prev if l_prev.ndim else float(l_prev)
    l_cur = 1.0 + alpha - z
    for k in range(1, n):
        l_cur, l_prev = (
            ((2 * k + 1 + alpha - z) * l_cur - (k + alpha) * l_prev) / (k + 1),
            l_cur,
        )
    return l_cur if l_cur.ndim else float(l_cur)


QUAD_NODES = 160  # n of the n- and 2n-node Gauss-Legendre pair
QUAD_TOL = 1e-10  # absolute error integrate_halfline must reach


@functools.cache
def _legendre_pair():
    """Nodes of both rules, mapped to [0, 2], in one array; one weight row per rule."""
    from numpy.polynomial.legendre import leggauss  # imported here: only quadrature needs it

    (xn, wn), (x2n, w2n) = leggauss(QUAD_NODES), leggauss(2 * QUAD_NODES)
    return np.r_[xn, x2n] + 1.0, np.array([np.r_[wn, 0.0 * w2n], np.r_[0.0 * wn, w2n]])


def integrate_halfline(f, lower: float, decay_scale: float) -> float:
    """Integrate f over [lower, inf) assuming a Gaussian envelope.

    decay_scale is the Gaussian length s of the envelope exp(-((x-lower)/s)^2);
    the domain ends where that envelope drops below QUAD_TOL/100.  f is called
    once, on an array of nodes, and may return an array or a scalar.  The value is
    the 2n-node Gauss-Legendre sum and its distance from the n-node sum the error.
    """
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
