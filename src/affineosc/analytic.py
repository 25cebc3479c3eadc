"""Closed-form eigenpairs for the solved oscillator problems.

Three branches:

* ``half_ho``   — single oscillator on the half line; E_n = 2(n+1) hbar omega,
  eigenfunctions x^(3/2) exp(-alpha x^2 / 2) 1F1(-n, 2, alpha x^2) with
  alpha = m omega / hbar.
* ``coupled_y1`` — stiff normal mode of the coupled pair, same shape with
  alpha1 = (m omega / hbar) sqrt(1 + g/(m omega^2)); E_n = (n+1) hbar omega
  sqrt(1 + g/(m omega^2)).
* ``coupled_y2`` — soft normal mode, a full-line oscillator with
  alpha2 = (m omega / hbar) sqrt(1 - g/(m omega^2)); E_n = (n + 1/2)
  (hbar omega / 2) sqrt(1 - g/(m omega^2)).

Quantum numbers start at n = 0 for every branch (the n = 0 state is a valid
normalized ground state in all three families).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, List

import numpy as np

from .core import PhysicalParams
from .specfun import confluent_1f1_neg, hermite

HALF_HO = "half_ho"
COUPLED_Y1 = "coupled_y1"
COUPLED_Y2 = "coupled_y2"


@dataclass(frozen=True)
class EigenPair:
    """One bound state: quantum number, energy and an evaluable wavefunction."""

    n: int
    energy: float
    branch: str
    params: PhysicalParams
    wavefunction: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class CompositeLevel:
    """A two-mode level E = E_y1(n1) + E_y2(n2)."""

    n1: int
    n2: int
    energy: float


def _check_n(n: int) -> int:
    if n != int(n) or n < 0:
        raise ValueError(f"quantum number must be a nonnegative integer, got {n}")
    return int(n)


def _halfline_wavefunction(n: int, alpha: float):
    """Normalized x^(3/2)-type eigenfunction with scale alpha, zero for x <= 0."""

    def phi(x):
        x = np.asarray(x, dtype=float)
        pos = x > 0
        xp = np.where(pos, x, 1.0)
        val = (
            math.sqrt(2.0 * (n + 1))
            * alpha
            * xp**1.5
            * np.exp(-0.5 * alpha * xp**2)
            * np.asarray(confluent_1f1_neg(n, 2.0, alpha * xp**2))
        )
        out = np.where(pos, val, 0.0)
        return out if out.ndim else float(out)

    return phi


def _hermite_wavefunction(n: int, alpha: float):
    """Standard normalized oscillator eigenfunction with scale alpha."""
    log_norm = 0.25 * math.log(alpha / math.pi) - 0.5 * (
        n * math.log(2.0) + math.lgamma(n + 1)
    )
    norm = math.exp(log_norm)

    def phi(y):
        y = np.asarray(y, dtype=float)
        s = math.sqrt(alpha) * y
        val = norm * np.exp(-0.5 * alpha * y**2) * np.asarray(hermite(n, s))
        return val if val.ndim else float(val)

    return phi


def _pair(branch: str, n: int, params: PhysicalParams, wavefunction) -> EigenPair:
    """Level n of a branch, with its energy from branch_energy."""
    return EigenPair(n, branch_energy(branch, n, params), branch, params, wavefunction)


def half_ho_eigen(n: int, params: PhysicalParams) -> EigenPair:
    """Half harmonic oscillator level: E_n = 2(n+1) hbar omega."""
    n = _check_n(n)
    alpha = params.m * params.omega / params.hbar
    return _pair(HALF_HO, n, params, _halfline_wavefunction(n, alpha))


def coupled_y1_eigen(n: int, params: PhysicalParams) -> EigenPair:
    """Stiff-mode level: E_n = (n+1) hbar omega sqrt(1 + g/(m omega^2))."""
    n = _check_n(n)
    params.require_quantum_coupling()
    return _pair(COUPLED_Y1, n, params, _halfline_wavefunction(n, params.alpha1))


def coupled_y2_eigen(n: int, params: PhysicalParams) -> EigenPair:
    """Soft-mode level: E_n = (n + 1/2) (hbar omega / 2) sqrt(1 - g/(m omega^2))."""
    n = _check_n(n)
    params.require_quantum_coupling()
    return _pair(COUPLED_Y2, n, params, _hermite_wavefunction(n, params.alpha2))


def branch_energy(branch: str, n: int, params: PhysicalParams) -> float:
    """Energy formula of a branch without building the wavefunction."""
    if branch == HALF_HO:
        return 2.0 * (n + 1) * params.hbar * params.omega
    if branch == COUPLED_Y1:
        return (n + 1) * params.hbar * params.omega * math.sqrt(1.0 + params.g_ratio)
    if branch == COUPLED_Y2:
        return (n + 0.5) * 0.5 * params.hbar * params.omega * math.sqrt(
            1.0 - params.g_ratio
        )
    raise ValueError(f"unknown branch {branch!r}")


def composite_spectrum(params: PhysicalParams, count: int) -> List[CompositeLevel]:
    """The ``count`` lowest two-mode levels E_y1(n1) + E_y2(n2), ascending.

    Ties are broken lexicographically in (n1, n2).  Each row n1 of the grid is
    ascending in n2, so a heap holding the next unvisited level of every row
    pops the levels in (E, n1, n2) order: a k-way merge of the two ladders.
    Neither index of the first ``count`` levels can reach ``count``, so each
    ladder is evaluated ``count`` times and the cost is O(count log count)
    time and O(count) memory.
    """
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    params.require_quantum_coupling()
    e1 = [branch_energy(COUPLED_Y1, n, params) for n in range(count)]
    e2 = [branch_energy(COUPLED_Y2, n, params) for n in range(count)]
    heap = [(e + e2[0], n1, 0) for n1, e in enumerate(e1)]  # sorted, so a heap
    levels = []
    for _ in range(count):
        energy, n1, n2 = heapq.heappop(heap)
        levels.append(CompositeLevel(n1=n1, n2=n2, energy=energy))
        if n2 + 1 < count:
            heapq.heappush(heap, (e1[n1] + e2[n2 + 1], n1, n2 + 1))
    return levels


def eval_wavefunction(pair: EigenPair, x):
    """Pointwise wavefunction value; half-line branches are zero for x <= 0."""
    return pair.wavefunction(x)
