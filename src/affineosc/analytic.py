"""Closed-form eigenpairs for the solved oscillator problems.

Three branches, each the well alpha^2 x^2 (r = g/(m omega^2)):

* ``half_ho``    — single oscillator on the half line, alpha = m omega / hbar;
  E_n = 2(n+1) hbar omega.
* ``coupled_y1`` — stiff normal mode of the coupled pair, on the half line,
  alpha = (m omega / hbar) sqrt(1 + r); E_n = (n+1) hbar omega sqrt(1 + r).
* ``coupled_y2`` — soft normal mode, on the full line, alpha = (m omega / hbar)
  sqrt(1 - r); E_n = (n + 1/2) (hbar omega / 2) sqrt(1 - r).

Half-line eigenfunctions are x^(3/2) exp(-alpha x^2 / 2) 1F1(-n, 2, alpha x^2),
full-line ones Hermite functions; quantum numbers start at n = 0 in all three.
Both are evaluated by the recurrences of the normalized functions, on the
functions' values rather than the polynomials', so they stay finite at large n.
``BRANCHES`` holds each branch's alpha, family and mass, read here and by the
solver in ``numeric``.  ``branch_energy`` keeps the paper's formulas as
written: they are the reference the solver is checked against.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, List, NamedTuple

from .core import PhysicalParams
# re-exported: bench/spans.py wraps these names of this module
from .specfun import confluent_1f1_neg, hermite

HALF_HO = "half_ho"
COUPLED_Y1 = "coupled_y1"
COUPLED_Y2 = "coupled_y2"


class Branch(NamedTuple):
    """A branch's well alpha^2 x^2, eigenfunction family and mass."""

    alpha: Callable[[PhysicalParams], float]  # inverse-square length scale
    halfline: bool  # x > 0 behind the 3/(4x^2) barrier, x^(3/2) 1F1; else Hermite
    normal_mode: bool  # coupled normal mode: mass 2m, needs 0 < g < m omega^2


BRANCHES = {
    HALF_HO: Branch(lambda p: p.m * p.omega / p.hbar, halfline=True, normal_mode=False),
    COUPLED_Y1: Branch(lambda p: (p.m * p.omega / p.hbar) * math.sqrt(1.0 + p.g_ratio),
                       halfline=True, normal_mode=True),
    COUPLED_Y2: Branch(lambda p: (p.m * p.omega / p.hbar) * math.sqrt(1.0 - p.g_ratio),
                       halfline=False, normal_mode=True),
}


class EigenPair(NamedTuple):
    """One bound state: quantum number, energy and an evaluable wavefunction."""

    n: int
    energy: float
    branch: str
    params: PhysicalParams
    wavefunction: Callable  # phi(x) for a float or a numpy array of x


class CompositeLevel(NamedTuple):
    """A two-mode level E = E_y1(n1) + E_y2(n2)."""

    n1: int
    n2: int
    energy: float


def _halfline_wavefunction(n: int, alpha: float):
    """Normalized x^(3/2)-type eigenfunction with scale alpha, zero for x <= 0.

    phi_n = sqrt(2) alpha x^(3/2) exp(-z/2) l_n(z) with z = alpha x^2 and
    l_k = L_k^(1)(z) / sqrt(k + 1) the normalized Laguerre polynomials, whose
    recurrence l_{k+1} = ((2k + 2 - z) l_k - sqrt(k (k+1)) l_{k-1}) / sqrt((k+1)(k+2))
    runs on the function's values.  exp(-z/2) underflows beyond z = 1490,
    inside the turning point z = 4(n + 1) once n > 370, so the envelope enters
    as n + 1 factors exp(-z/(2n + 2)), one per step; where one factor
    underflows, the value is 0.
    """

    def phi(x):
        import numpy as np  # here, not in the factory: building an EigenPair loads no numpy

        x = np.asarray(x, dtype=float)
        with np.errstate(over="ignore"):
            factor = np.exp(-0.5 * alpha * x * x / (n + 1))
        x = np.where((x > 0) & (factor > 0.0), x, 0.0)  # where x = 0 gives the value 0
        z = alpha * x * x
        factor = np.exp(-0.5 * z / (n + 1))
        psi_prev, psi = 0.0, math.sqrt(2.0) * alpha * x**1.5 * factor
        for k in range(n):
            psi, psi_prev = (
                ((2 * k + 2 - z) * factor * psi - math.sqrt(k * (k + 1)) * factor**2 * psi_prev)
                / math.sqrt((k + 1) * (k + 2)),
                psi,
            )
        return psi if psi.ndim else float(psi)

    return phi


def _hermite_wavefunction(n: int, alpha: float):
    """Normalized oscillator eigenfunction with scale alpha.

    The normalized Hermite functions' recurrence
    psi_{k+1} = sqrt(2/(k+1)) s psi_k - sqrt(k/(k+1)) psi_{k-1}, s = sqrt(alpha) y,
    runs on the function's values from psi_0 = (alpha/pi)^(1/4) exp(-s^2/2),
    so no step overflows; where exp(-s^2/2) underflows, the value is 0.
    """
    root, start = math.sqrt(alpha), (alpha / math.pi) ** 0.25

    def phi(y):
        import numpy as np

        s = root * np.asarray(y, dtype=float)
        with np.errstate(over="ignore"):
            envelope = np.exp(-0.5 * s * s)
        live = envelope > 0.0
        s, psi, psi_prev = np.where(live, s, 0.0), np.where(live, start * envelope, 0.0), 0.0
        for k in range(n):
            psi, psi_prev = (
                math.sqrt(2.0 / (k + 1)) * s * psi - math.sqrt(k / (k + 1)) * psi_prev,
                psi,
            )
        return psi if psi.ndim else float(psi)

    return phi


def _eigen(branch: str, n: int, params: PhysicalParams) -> EigenPair:
    """Level n of a branch: energy from branch_energy, wavefunction from BRANCHES."""
    if n != int(n) or n < 0:
        raise ValueError(f"quantum number must be a nonnegative integer, got {n}")
    n = int(n)
    record = BRANCHES[branch]
    if record.normal_mode:
        params.require_quantum_coupling()
    family = _halfline_wavefunction if record.halfline else _hermite_wavefunction
    wavefunction = family(n, record.alpha(params))
    return EigenPair(n, branch_energy(branch, n, params), branch, params, wavefunction)


def half_ho_eigen(n: int, params: PhysicalParams) -> EigenPair:
    """Half harmonic oscillator level: E_n = 2(n+1) hbar omega."""
    return _eigen(HALF_HO, n, params)


def coupled_y1_eigen(n: int, params: PhysicalParams) -> EigenPair:
    """Stiff-mode level: E_n = (n+1) hbar omega sqrt(1 + g/(m omega^2))."""
    return _eigen(COUPLED_Y1, n, params)


def coupled_y2_eigen(n: int, params: PhysicalParams) -> EigenPair:
    """Soft-mode level: E_n = (n + 1/2) (hbar omega / 2) sqrt(1 - g/(m omega^2))."""
    return _eigen(COUPLED_Y2, n, params)


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
