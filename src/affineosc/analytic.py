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
functions' values rather than the polynomials', so they stay finite at large n,
in plain arithmetic that gives a float for a float and an array for a float64 array.
One pass of level n's recurrence at a point also hands over levels 0..n-1.
``BRANCHES`` holds each branch's alpha, energy E_n, family and mass, read here
and by the solver in ``numeric``.  The energies keep the paper's formulas as
written: they are the reference the solver is checked against.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, List, NamedTuple

from .core import PhysicalParams, require_int
# re-exported: bench/spans.py wraps these names of this module
from .specfun import confluent_1f1_neg, hermite

HALF_HO = "half_ho"
COUPLED_Y1 = "coupled_y1"
COUPLED_Y2 = "coupled_y2"

UNDERFLOW = 746.0  # exp(-t) is 0 in float64 for t beyond about 745.13


class Branch(NamedTuple):
    """A branch's well alpha^2 x^2, energy ladder, eigenfunction family and mass."""

    alpha: Callable[[PhysicalParams], float]  # inverse-square length scale
    energy: Callable[[int, PhysicalParams], float]  # E_n, the paper's formula
    halfline: bool  # x > 0 behind the 3/(4x^2) barrier, x^(3/2) 1F1; else Hermite
    normal_mode: bool  # coupled normal mode: mass 2m, needs 0 < g < m omega^2


BRANCHES = {
    HALF_HO: Branch(
        alpha=lambda p: p.m * p.omega / p.hbar,
        energy=lambda n, p: 2.0 * (n + 1) * p.hbar * p.omega,
        halfline=True, normal_mode=False,
    ),
    COUPLED_Y1: Branch(
        alpha=lambda p: (p.m * p.omega / p.hbar) * math.sqrt(1.0 + p.g_ratio),
        energy=lambda n, p: (n + 1) * p.hbar * p.omega * math.sqrt(1.0 + p.g_ratio),
        halfline=True, normal_mode=True,
    ),
    COUPLED_Y2: Branch(
        alpha=lambda p: (p.m * p.omega / p.hbar) * math.sqrt(1.0 - p.g_ratio),
        energy=lambda n, p: (n + 0.5) * 0.5 * p.hbar * p.omega * math.sqrt(1.0 - p.g_ratio),
        halfline=False, normal_mode=True,
    ),
}


class EigenPair(NamedTuple):
    """One bound state: quantum number, energy and an evaluable wavefunction."""

    n: int
    energy: float
    branch: str
    params: PhysicalParams
    # phi(x) for a float x, 0 at +-inf; or for a float64 ndarray of finite x (inf gives nan).
    # phi(x, levels) also appends phi_k(x) to levels[k] for k = 0..n, from the same pass
    wavefunction: Callable


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
    underflows, the value is 0.  phi(x, levels), given n + 1 lists or arrays,
    also appends each level k <= n to levels[k] as the pass reaches it, with
    the n - k factors it still lacks, so one pass gives all n + 1 levels.
    """
    cut = math.sqrt(2.0 * UNDERFLOW * (n + 1) / alpha)  # beyond it one factor is 0
    scale = math.sqrt(2.0) * alpha
    steps = [(k, 2 * k + 2, math.sqrt(k * (k + 1)), math.sqrt((k + 1) * (k + 2)))
             for k in range(n)]

    def phi(x, levels=()):
        live = (x > 0) & (x < cut)  # x = 0 gives the value 0, and z cannot overflow
        x = 0.0 if live is False else x * live  # a float mask: no inf * False = nan
        z = alpha * x * x
        factor = math.e ** (-0.5 * z / (n + 1))
        factor2 = factor**2
        psi_prev, psi = 0.0, scale * x**1.5 * factor
        for k, diag, lower, upper in steps:
            if levels:
                levels[k].append(psi * factor ** (n - k))
            psi, psi_prev = ((diag - z) * factor * psi - lower * factor2 * psi_prev) / upper, psi
        if levels:
            levels[n].append(psi)
        return psi

    return phi


def _hermite_wavefunction(n: int, alpha: float):
    """Normalized oscillator eigenfunction with scale alpha.

    The normalized Hermite functions' recurrence
    psi_{k+1} = sqrt(2/(k+1)) s psi_k - sqrt(k/(k+1)) psi_{k-1}, s = sqrt(alpha) y,
    runs on the function's values from psi_0 = (alpha/pi)^(1/4) exp(-s^2/2),
    so no step overflows; where exp(-s^2/2) underflows, the value is 0.
    phi(y, levels), given n + 1 lists or arrays, also appends each level k <= n
    to levels[k] as the pass reaches it.
    """
    root, start = math.sqrt(alpha), (alpha / math.pi) ** 0.25
    cut = math.sqrt(2.0 * UNDERFLOW / alpha)  # beyond it exp(-s^2/2) is 0
    steps = [(k, math.sqrt(2.0 / (k + 1)), math.sqrt(k / (k + 1))) for k in range(n)]

    def phi(y, levels=()):
        live = abs(y) < cut
        s = 0.0 if live is False else root * (y * live)  # a float mask: no inf * False
        psi, psi_prev = start * math.e ** (-0.5 * s * s) * live, 0.0
        for k, up, down in steps:
            if levels:
                levels[k].append(psi)
            psi, psi_prev = up * s * psi - down * psi_prev, psi
        if levels:
            levels[n].append(psi)
        return psi

    return phi


def _eigen(branch: str, n: int, params: PhysicalParams) -> EigenPair:
    """Level n of a branch: energy from branch_energy, wavefunction from BRANCHES.

    branch_energy checks n first (``core.require_int``: an int, at least 0),
    before the wavefunction's recurrence is set up.
    """
    energy = branch_energy(branch, n, params)
    record = BRANCHES[branch]
    if record.normal_mode:
        params.require_quantum_coupling()
    family = _halfline_wavefunction if record.halfline else _hermite_wavefunction
    return EigenPair(n, energy, branch, params, family(n, record.alpha(params)))


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
    """Energy of a branch's level n, without building the wavefunction.

    n is checked by ``core.require_int`` (an int, at least 0).
    """
    if branch not in BRANCHES:
        raise ValueError(f"unknown branch {branch!r}")
    require_int("quantum number", n)
    return BRANCHES[branch].energy(n, params)


def composite_spectrum(params: PhysicalParams, count: int) -> List[CompositeLevel]:
    """The ``count`` lowest two-mode levels E_y1(n1) + E_y2(n2), ascending.

    Ties are broken lexicographically in (n1, n2).  Each row n1 of the grid is
    ascending in n2, so a heap holding the next unvisited level of every row
    pops the levels in (E, n1, n2) order: a k-way merge of the two ladders.
    Neither index of the first ``count`` levels can reach ``count``, so each
    ladder is evaluated ``count`` times and the cost is O(count log count)
    time and O(count) memory.  count is checked by ``core.require_int`` (an
    int, at least 1) before any level is evaluated.
    """
    require_int("count", count, least=1)
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
