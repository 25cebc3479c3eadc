"""Finite-difference eigensolver for the stationary oscillator ODEs.

Each problem is reduced to the operator -d^2/dx^2 + V(x) with Dirichlet zeros
at both grid endpoints, discretized by the 3-point stencil on a uniform grid.
The lowest eigenvalues of the resulting symmetric tridiagonal matrix come from
LAPACK bisection (?stebz, via scipy.linalg.eigh_tridiagonal), each eigenvector
from LAPACK inverse iteration (?stein, which starts from its own fixed
pseudo-random vector), and energies are improved by Richardson extrapolation
over a node-nested grid pair (h, h/2).

For the singular kinds the boundary node sits one spacing away from the
singularity; the physical solutions vanish there like (distance)^(3/2), so a
homogeneous Dirichlet condition at the singular endpoint is correct and V is
never evaluated at the singular point itself.

Problem kinds and their energy maps (lambda is the discrete operator
eigenvalue):

* ``eqintro``   half-line oscillator with 3/(4 x^2) barrier; E = lambda hbar^2 / (2m)
* ``eqo1``      stiff normal mode, barrier + (m/hbar^2)(m omega^2 + g) y^2; E = lambda hbar^2 / (4m)
* ``eqo2``      soft normal mode, pure quadratic well; E = lambda hbar^2 / (4m)
* ``hext1``     barrier shifted to x = -b, quadratic well centered at 0; E = lambda hbar^2 / (2m)
* ``truncated`` hext1 with the barrier replaced by its |x/b| < 1 power series; E = lambda hbar^2 / (2m)

``KIND_FACTS`` holds these facts as one ``KindFacts`` record per kind; the
solver and the command line branch on the record, never on the kind name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Tuple

import numpy as np
from scipy.linalg import LinAlgError, eigh_tridiagonal
from scipy.linalg.lapack import dstein

from .analytic import COUPLED_Y1, COUPLED_Y2, HALF_HO
from .core import DomainError, PhysicalParams


@dataclass(frozen=True)
class KindFacts:
    """Everything the solver and the command line need to know about a kind."""

    branch: Optional[str] = None  # closed-form branch in ``analytic``
    # normal mode "y1" or "y2": fixes the confinement alpha^2, the energy scale
    # hbar^2 / (4m) and the need for 0 < g < m omega^2
    mode: Optional[str] = None
    # 3/(4(x+b)^2) barrier, singular at x = -b (b = 0 unless takes_b); the
    # domain starts there.  Without a barrier the domain is symmetric.
    barrier: bool = False
    takes_b: bool = False  # needs an endpoint offset b >= 0
    series: bool = False  # hext1's barrier replaced by its power series in x/b


KIND_FACTS = {
    "eqintro": KindFacts(branch=HALF_HO, barrier=True),
    "eqo1": KindFacts(branch=COUPLED_Y1, mode="y1", barrier=True),
    "eqo2": KindFacts(branch=COUPLED_Y2, mode="y2"),
    "hext1": KindFacts(barrier=True, takes_b=True),
    "truncated": KindFacts(takes_b=True, series=True),
}
KINDS = tuple(KIND_FACTS)


class ConvergenceError(RuntimeError):
    """A numeric stage (LAPACK eigenvalues or eigenvectors, truncation check) failed."""


@dataclass(frozen=True)
class Grid:
    """Uniform grid with Dirichlet zeros at both endpoints; nodes are interior."""

    x_min: float
    x_max: float
    n: int

    def __post_init__(self):
        if not self.x_min < self.x_max:
            raise ValueError(f"need x_min < x_max, got [{self.x_min}, {self.x_max}]")
        if self.n < 16:
            raise ValueError(f"need at least 16 interior points, got {self.n}")

    @property
    def h(self) -> float:
        return (self.x_max - self.x_min) / (self.n + 1)

    @property
    def nodes(self) -> np.ndarray:
        return self.x_min + self.h * np.arange(1, self.n + 1)

    def refined(self) -> "Grid":
        """Node-nested half-spacing grid (N -> 2N + 1)."""
        return Grid(self.x_min, self.x_max, 2 * self.n + 1)


@dataclass(frozen=True)
class ProblemSpec:
    """Which stationary ODE to solve, with its fixed energy scaling."""

    kind: str
    params: PhysicalParams = field(default_factory=PhysicalParams)
    b: Optional[float] = None
    order: Optional[int] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown problem kind {self.kind!r}")
        facts = self.facts
        if facts.takes_b:
            if self.b is None or not 0 <= self.b < math.inf:
                raise ValueError(f"kind {self.kind!r} needs a finite b >= 0, got {self.b}")
        elif self.b is not None:
            raise ValueError(f"kind {self.kind!r} does not take b")
        if facts.series:
            if self.b == 0:
                raise ValueError(f"kind {self.kind!r} needs b > 0")
            if self.order is None or not 0 <= self.order <= 4:
                raise ValueError(f"kind {self.kind!r} needs an expansion order in 0..4")
        elif self.order is not None:
            raise ValueError(f"kind {self.kind!r} does not take an expansion order")
        if facts.mode is not None:
            self.params.require_quantum_coupling()
        try:
            scales = [self.energy_scale, self.quad_coeff]
            if facts.takes_b and self.b:
                # the barrier 0.75/b^2 and the coefficients (j+1)/b^j of its series
                scales.append(0.75 / self.b**2)
                if facts.series:
                    scales += [(j + 1) / self.b**j for j in range(self.order + 1)]
        except (OverflowError, ZeroDivisionError):  # from float ** and underflowed powers
            scales = [math.inf]
        if not all(0.0 < s < math.inf for s in scales):
            p = self.params
            raise ValueError(
                f"kind {self.kind!r}: m = {p.m}, omega = {p.omega}, hbar = {p.hbar} and "
                f"b = {self.b} put the energy and length scales or the barrier out of "
                f"float range"
            )

    @property
    def facts(self) -> KindFacts:
        return KIND_FACTS[self.kind]

    @property
    def energy_scale(self) -> float:
        """Factor mapping a discrete eigenvalue lambda to a physical energy."""
        p = self.params
        return p.hbar**2 / ((2.0 if self.facts.mode is None else 4.0) * p.m)

    @property
    def quad_coeff(self) -> float:
        """Coefficient of the quadratic confinement term in the operator potential."""
        p = self.params
        mode = self.facts.mode
        if mode is None:
            return (p.m * p.omega / p.hbar) ** 2
        return (p.alpha1 if mode == "y1" else p.alpha2) ** 2

    @property
    def singular_point(self) -> Optional[float]:
        """Position of the barrier's singularity, None when there is none."""
        if not self.facts.barrier:
            return None
        return -self.b if self.facts.takes_b else 0.0


@dataclass(frozen=True)
class TridiagonalMatrix:
    """Symmetric tridiagonal matrix (diagonal plus one off-diagonal band)."""

    diag: np.ndarray
    off: np.ndarray

    def __post_init__(self):
        if len(self.off) != len(self.diag) - 1:
            raise ValueError("off-diagonal must be one shorter than the diagonal")

    @property
    def n(self) -> int:
        return len(self.diag)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        out = self.diag * v
        out[:-1] += self.off * v[1:]
        out[1:] += self.off * v[:-1]
        return out


@dataclass(frozen=True)
class EigenResult:
    """Solved levels on a grid: (n, lambda, E, normalized samples)."""

    levels: List[Tuple[int, float, float, np.ndarray]]
    grid: Grid


def potential_of(spec: ProblemSpec) -> Callable[[np.ndarray], np.ndarray]:
    """Operator potential V(x) for the given problem kind.

    Raises DomainError when evaluated at the singular point (x = 0 for the
    half-line kinds, x = -b for hext1).
    """
    c = spec.quad_coeff
    sing = spec.singular_point
    series = spec.facts.series
    if series:
        b = spec.b
        coeffs = [(-1.0) ** j * (j + 1) / b**j for j in range(spec.order + 1)]

    def v(x):
        x = np.asarray(x, dtype=float)
        if series:
            terms = sum(cj * x**j for j, cj in enumerate(coeffs))
            return 0.75 / b**2 * terms + c * x**2
        if sing is None:
            return c * x**2
        if np.any(x == sing):
            raise DomainError(f"potential is singular at x = {sing}")
        return 0.75 / (x - sing) ** 2 + c * x**2

    return v


def assemble(spec: ProblemSpec, grid: Grid) -> TridiagonalMatrix:
    """3-point discretization of -d^2/dx^2 + V on the grid's interior nodes."""
    _check_domain(spec, grid)
    h = grid.h
    v = potential_of(spec)(grid.nodes)
    diag = 2.0 / h**2 + v
    off = np.full(grid.n - 1, -1.0 / h**2)
    return TridiagonalMatrix(diag=diag, off=off)


def _check_domain(spec: ProblemSpec, grid: Grid):
    sing = spec.singular_point
    if sing is not None:
        # the singular point must coincide with the lower grid endpoint (the
        # Dirichlet zero) or lie outside the domain entirely
        if grid.x_min < sing:
            raise DomainError(
                f"grid lower end {grid.x_min} lies beyond the singular point {sing}"
            )
    elif not math.isclose(-grid.x_min, grid.x_max):
        raise DomainError(f"kind {spec.kind!r} expects a symmetric domain")


EIGENVALUE_TOL = 1e-12  # absolute width of the ?stebz bisection bracket


def lowest_eigenvalues(matrix: TridiagonalMatrix, k: int):
    """The k smallest eigenvalues by LAPACK bisection (?stebz), ascending.

    Each eigenvalue is bracketed to an absolute width of EIGENVALUE_TOL times
    min(1, max|diag|), whatever its magnitude.  NaN or infinite entries raise
    ValueError; a LAPACK failure raises ConvergenceError.
    """
    n = matrix.n
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}, got {k}")
    try:
        lams = eigh_tridiagonal(
            matrix.diag,
            matrix.off,
            eigvals_only=True,
            select="i",
            select_range=(0, k - 1),
            lapack_driver="stebz",
            tol=EIGENVALUE_TOL * min(1.0, np.max(np.abs(matrix.diag))),
        )
    except LinAlgError as exc:
        raise ConvergenceError(f"LAPACK ?stebz failed: {exc}") from exc
    return lams.tolist()


def eigenvector(matrix: TridiagonalMatrix, lam: float, h: float) -> np.ndarray:
    """Eigenvector for the eigenvalue lam by LAPACK inverse iteration (?stein).

    Normalized so that h * sum(v^2) = 1 (trapezoid rule with Dirichlet zeros
    at both ends) and the first sample of nontrivial magnitude is positive.
    """
    n = matrix.n
    if n == 1:  # f2py rejects the empty off-diagonal
        return np.array([1.0 / math.sqrt(h)])
    # ?stein returns NaN for entries near 1e146: scale them into [0.5, 1) by a
    # power of two, which is exact.  It also perturbs LU pivots below eps*|T|;
    # shifting lam by 1e-13 keeps them clear (samples 7e-12 from the exact
    # stiff Laplacian ones, against 6e-11 unshifted).
    factor = math.ldexp(1.0, -math.frexp(np.max(np.abs(matrix.diag)))[1])
    # the whole matrix as one unreduced block: iblock = 1 for lam, block ends at n
    z, info = dstein(
        matrix.diag * factor, matrix.off * factor, [lam * factor + 1e-13],
        np.ones(n, dtype=np.int32), np.full(n, n, dtype=np.int32),
    )
    v = z[:, 0]
    if info > 0 or not np.all(np.isfinite(v)):
        raise ConvergenceError(f"LAPACK ?stein did not converge for lambda={lam}")
    v /= math.sqrt(h) * np.linalg.norm(v)
    lead = np.flatnonzero(np.abs(v) > 1e-8 * np.max(np.abs(v)))[0]
    if v[lead] < 0:
        v = -v
    return v


@dataclass(frozen=True)
class GridPolicy:
    """Coarse node count and domain for solve() (None: sized from the problem).

    Energies are always extrapolated over the grid pair, eigenvectors are ?stein
    ones on the fine grid; check_truncation re-solves on a 1.5x wider domain.
    """

    n: Optional[int] = None
    domain: Optional[Tuple[float, float]] = None
    check_truncation: bool = False
    truncation_tol: float = 1e-8

    def __post_init__(self):
        if self.domain is not None and not all(map(math.isfinite, self.domain)):
            raise ValueError(f"grid domain must be finite, got {self.domain}")
        if not math.isfinite(self.truncation_tol):
            raise ValueError(f"truncation_tol must be finite, got {self.truncation_tol}")


def default_domain(spec: ProblemSpec, k: int) -> Tuple[float, float]:
    """Domain wide enough that V at the cut exceeds 3x the k-th eigenvalue."""
    c = spec.quad_coeff
    sqrt_c = math.sqrt(c)
    if spec.facts.barrier:
        lam_est = 4.0 * (k + 2) * sqrt_c  # half-line ladder, with headroom
    else:
        lam_est = (2 * (k + 2) + 1) * sqrt_c
    if spec.b:
        lam_est += 0.75 / spec.b**2
    return _cut_domain(spec, math.sqrt(3.0 * lam_est / c))


def _cut_domain(spec: ProblemSpec, x_cut: float) -> Tuple[float, float]:
    """The kind's domain with upper end x_cut."""
    sing = spec.singular_point
    if sing is not None:
        return (sing + 0.0, x_cut)  # +0.0 avoids -0.0 when b == 0
    if spec.facts.series and spec.order >= 1:
        # odd truncation orders are unbounded below for large |x|; stay inside
        # the validity region |x/b| < 1 of the expansion
        x_cut = min(x_cut, 0.9 * spec.b)
    return (-x_cut, x_cut)


MAX_COARSE_N = 2**20  # coarse grid nodes; the fine grid has 2N + 1


def _capped(spec: ProblemSpec, n: int) -> int:
    """n, unless a coarse grid of n nodes is larger than MAX_COARSE_N."""
    if n > MAX_COARSE_N:
        raise ValueError(
            f"kind {spec.kind!r} at b = {spec.b} needs a coarse grid of N = {n} "
            f"nodes, more than the limit of {MAX_COARSE_N}"
        )
    return n


def _auto_n(spec: ProblemSpec, domain: Tuple[float, float]) -> int:
    # a spacing of 0.004 in the well's natural length 1/sqrt(sqrt(c))
    natural = spec.quad_coeff**0.25
    n = int(math.ceil((domain[1] - domain[0]) * natural / 0.004)) - 1
    return max(n, 200)


def solve(spec: ProblemSpec, k: int, policy: Optional[GridPolicy] = None) -> EigenResult:
    """Lowest k levels of a problem, Richardson-extrapolated over (h, h/2).

    Energies come from the extrapolated eigenvalues E = scale * (4 lambda_{h/2}
    - lambda_h) / 3; wavefunction samples are taken on the fine grid.  With
    policy.check_truncation the solve is repeated on a 1.5x wider domain and a
    shift beyond policy.truncation_tol raises ConvergenceError.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    policy = policy or GridPolicy()
    domain = policy.domain or default_domain(spec, k)
    coarse = Grid(domain[0], domain[1], _capped(spec, policy.n or _auto_n(spec, domain)))
    fine = coarse.refined()
    if policy.check_truncation:
        wide = _cut_domain(spec, domain[1] * 1.5)
        # match the grid spacing, not the point count, so the comparison
        # isolates the domain-truncation bias from the discretization error
        wide_n = _capped(spec, int(round((wide[1] - wide[0]) / coarse.h)) - 1)
        wide_policy = replace(policy, n=wide_n, domain=wide, check_truncation=False)

    matrix = assemble(spec, fine)
    lam_fine = lowest_eigenvalues(matrix, k)
    lam_coarse = lowest_eigenvalues(assemble(spec, coarse), k)
    lam_best = [(4.0 * lf - lc) / 3.0 for lf, lc in zip(lam_fine, lam_coarse)]

    if policy.check_truncation:
        wide_result = solve(spec, k, wide_policy)
        for (_, _, e_wide, _), lam in zip(wide_result.levels, lam_best):
            e = spec.energy_scale * lam
            if abs(e_wide - e) > policy.truncation_tol * max(1.0, abs(e)):
                raise ConvergenceError(
                    f"energies shift by {abs(e_wide - e):.3e} when the domain is "
                    f"extended 1.5x; domain {domain} is too small"
                )

    levels = []
    for idx, (lam, lam_raw) in enumerate(zip(lam_best, lam_fine)):
        samples = eigenvector(matrix, lam_raw, h=fine.h)
        levels.append((idx, lam, spec.energy_scale * lam, samples))
    return EigenResult(levels=levels, grid=fine)


def sign_changes(samples: np.ndarray, rel_floor: float = 1e-6) -> int:
    """Count sign changes of a sampled eigenfunction, ignoring noise-level values."""
    floor = rel_floor * np.max(np.abs(samples))
    signs = np.sign(samples[np.abs(samples) > floor])
    return int(np.count_nonzero(np.diff(signs)))


def commutator_residual(grid: Grid, f, params=None, bracket_factor: float = 1.0):
    """Grid check of the position/dilation and position/momentum commutators.

    The operators are discretized as multiplication by x, p = -i hbar_eff D_h
    (central difference) and d = -i hbar_eff (x D_h + 1/2), with hbar_eff =
    bracket_factor * hbar.  Returns the max over interior nodes of the
    residuals |[x,d]f - i hbar_eff x f| and |[x,p]f - i hbar_eff f|; both decay
    as O(h^2) for smooth f vanishing near the ends.
    """
    hbar = (params.hbar if params is not None else 1.0) * bracket_factor
    x = grid.nodes
    h = grid.h
    fx = np.asarray(f(x), dtype=complex)
    peak = float(np.max(np.abs(fx)))
    if peak > 0 and max(abs(fx[0]), abs(fx[-1])) > 1e-6 * peak:
        raise DomainError("test function must vanish near both grid ends")

    def d_h(u):
        # Dirichlet zero padding beyond both endpoints
        padded = np.concatenate(([0.0], u, [0.0]))
        return (padded[2:] - padded[:-2]) / (2.0 * h)

    def op_p(u):
        return -1j * hbar * d_h(u)

    def op_d(u):
        return -1j * hbar * (x * d_h(u) + 0.5 * u)

    res_xd = x * op_d(fx) - op_d(x * fx) - 1j * hbar * x * fx
    res_xp = x * op_p(fx) - op_p(x * fx) - 1j * hbar * fx
    interior = slice(1, -1)
    return float(
        max(np.max(np.abs(res_xd[interior])), np.max(np.abs(res_xp[interior])))
    )
