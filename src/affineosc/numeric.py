"""Finite-difference eigensolver for the stationary oscillator ODEs.

Each problem is reduced to the operator -d^2/dx^2 + V(x) with Dirichlet zeros
at both grid endpoints, discretized by the 3-point stencil on a uniform grid.
The lowest eigenvalues of the resulting symmetric tridiagonal matrix come from
LAPACK bisection (?stebz, via scipy.linalg.eigh_tridiagonal), eigenvectors from
inverse iteration, and energies are improved by Richardson extrapolation over
a node-nested grid pair (h, h/2).

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np
from scipy.linalg import LinAlgError, eigh_tridiagonal, solve_banded

from .core import DomainError, PhysicalParams

KINDS = ("eqintro", "eqo1", "eqo2", "hext1", "truncated")
_HALFLINE_KINDS = ("eqintro", "eqo1")
_SYMMETRIC_KINDS = ("eqo2", "truncated")


class ConvergenceError(RuntimeError):
    """A numeric stage (LAPACK eigenvalues, inverse iteration, truncation check) failed."""


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
        if self.kind in ("hext1", "truncated"):
            if self.b is None or self.b < 0:
                raise ValueError(f"kind {self.kind!r} needs an endpoint offset b >= 0")
        elif self.b is not None:
            raise ValueError(f"kind {self.kind!r} does not take b")
        if self.kind == "truncated":
            if self.b == 0:
                raise ValueError("truncated kind needs b > 0")
            if self.order is None or not 0 <= self.order <= 4:
                raise ValueError("truncated kind needs an expansion order in 0..4")
        elif self.order is not None:
            raise ValueError(f"kind {self.kind!r} does not take an expansion order")
        if self.kind in ("eqo1", "eqo2"):
            self.params.require_quantum_coupling()

    @property
    def energy_scale(self) -> float:
        """Factor mapping a discrete eigenvalue lambda to a physical energy."""
        p = self.params
        if self.kind in ("eqo1", "eqo2"):
            return p.hbar**2 / (4.0 * p.m)
        return p.hbar**2 / (2.0 * p.m)

    @property
    def quad_coeff(self) -> float:
        """Coefficient of the quadratic confinement term in the operator potential."""
        p = self.params
        if self.kind == "eqo1":
            return p.alpha1**2
        if self.kind == "eqo2":
            return p.alpha2**2
        return (p.m * p.omega / p.hbar) ** 2

    @property
    def singular_point(self) -> Optional[float]:
        if self.kind in _HALFLINE_KINDS:
            return 0.0
        if self.kind == "hext1":
            return -self.b
        return None


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

    problem: ProblemSpec
    levels: List[Tuple[int, float, float, np.ndarray]]
    grid: Grid
    extrapolated: bool


def potential_of(spec: ProblemSpec) -> Callable[[np.ndarray], np.ndarray]:
    """Operator potential V(x) for the given problem kind.

    Raises DomainError when evaluated at the singular point (x = 0 for the
    half-line kinds, x = -b for hext1).
    """
    p = spec.params
    c = spec.quad_coeff
    sing = spec.singular_point

    def check_singular(x):
        if sing is not None and np.any(x == sing):
            raise DomainError(f"potential is singular at x = {sing}")

    if spec.kind in ("eqintro", "eqo1"):

        def v(x):
            x = np.asarray(x, dtype=float)
            check_singular(x)
            return 0.75 / x**2 + c * x**2

    elif spec.kind == "eqo2":

        def v(x):
            x = np.asarray(x, dtype=float)
            return c * x**2

    elif spec.kind == "hext1":
        b = spec.b

        def v(x):
            x = np.asarray(x, dtype=float)
            check_singular(x)
            return 0.75 / (x + b) ** 2 + c * x**2

    else:  # truncated
        b, order = spec.b, spec.order
        coeffs = [(-1.0) ** j * (j + 1) / b**j for j in range(order + 1)]

        def v(x):
            x = np.asarray(x, dtype=float)
            series = sum(cj * x**j for j, cj in enumerate(coeffs))
            return 0.75 / b**2 * series + c * x**2

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
    if spec.kind in _SYMMETRIC_KINDS and not math.isclose(-grid.x_min, grid.x_max):
        raise DomainError(f"kind {spec.kind!r} expects a symmetric domain")


def lowest_eigenvalues(matrix: TridiagonalMatrix, k: int, rel_tol: float = 1e-12):
    """The k smallest eigenvalues by LAPACK bisection (?stebz), ascending.

    rel_tol is handed to ?stebz as its absolute interval width, so every
    eigenvalue is bracketed to within rel_tol * max(1, |lambda|).  NaN or
    infinite entries raise ValueError; a LAPACK failure raises
    ConvergenceError.
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
            tol=rel_tol,
        )
    except LinAlgError as exc:
        raise ConvergenceError(f"LAPACK ?stebz failed: {exc}") from exc
    return lams.tolist()


def eigenvector(
    matrix: TridiagonalMatrix,
    lam: float,
    h: float = 1.0,
    max_iter: int = 50,
    residual_tol: float = 1e-8,
) -> np.ndarray:
    """Inverse-iteration eigenvector for an isolated eigenvalue lam.

    Normalized so that h * sum(v^2) = 1 (trapezoid rule with Dirichlet zeros
    at both ends) and the first sample of nontrivial magnitude is positive.
    """
    n = matrix.n
    scale = max(1.0, float(np.max(np.abs(matrix.diag))))
    shift = lam + 1e-12 * scale  # keep the shifted matrix safely nonsingular
    ab = np.zeros((3, n))
    ab[0, 1:] = matrix.off
    ab[1, :] = matrix.diag - shift
    ab[2, :-1] = matrix.off

    rng = np.random.default_rng(12345)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    for _ in range(max_iter):
        v = solve_banded((1, 1), ab, v, check_finite=False)
        v /= np.linalg.norm(v)
        residual = np.linalg.norm(matrix.matvec(v) - lam * v)
        if residual <= residual_tol:
            break
    else:
        raise ConvergenceError(
            f"inverse iteration stalled at residual {residual:.3e} for lambda={lam}"
        )
    v /= math.sqrt(h) * np.linalg.norm(v)
    lead = np.flatnonzero(np.abs(v) > 1e-8 * np.max(np.abs(v)))[0]
    if v[lead] < 0:
        v = -v
    return v


@dataclass(frozen=True)
class GridPolicy:
    """Resolution policy for solve(): grid size, domain and extrapolation."""

    n: Optional[int] = None
    domain: Optional[Tuple[float, float]] = None
    extrapolate: bool = True
    target_h: float = 0.004  # in natural lengths of the confining well
    check_truncation: bool = False
    truncation_tol: float = 1e-8


def default_domain(spec: ProblemSpec, k: int) -> Tuple[float, float]:
    """Domain wide enough that V at the cut exceeds 3x the k-th eigenvalue."""
    c = spec.quad_coeff
    sqrt_c = math.sqrt(c)
    if spec.kind in _HALFLINE_KINDS or spec.kind == "hext1":
        lam_est = 4.0 * (k + 2) * sqrt_c  # half-line ladder, with headroom
    else:
        lam_est = (2 * (k + 2) + 1) * sqrt_c
    if spec.kind in ("hext1", "truncated"):
        lam_est += 0.75 / spec.b**2 if spec.b else 0.0
    x_cut = math.sqrt(3.0 * lam_est / c)
    if spec.kind in _HALFLINE_KINDS:
        return (0.0, x_cut)
    if spec.kind == "hext1":
        return (-spec.b + 0.0, x_cut)  # +0.0 avoids -0.0 when b == 0
    if spec.kind == "truncated" and spec.order and spec.order >= 1:
        # odd truncation orders are unbounded below for large |x|; stay inside
        # the validity region |x/b| < 1 of the expansion
        x_cut = min(x_cut, 0.9 * spec.b)
    return (-x_cut, x_cut)


def _auto_n(spec: ProblemSpec, domain: Tuple[float, float], target_h: float) -> int:
    # target_h is measured in the well's natural length 1/sqrt(sqrt(c))
    natural = spec.quad_coeff**0.25
    n = int(math.ceil((domain[1] - domain[0]) * natural / target_h)) - 1
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
    n = policy.n or _auto_n(spec, domain, policy.target_h)
    coarse = Grid(domain[0], domain[1], n)
    fine = coarse.refined()

    matrix = assemble(spec, fine)
    lam_fine = lowest_eigenvalues(matrix, k)
    if policy.extrapolate:
        lam_coarse = lowest_eigenvalues(assemble(spec, coarse), k)
        lam_best = [(4.0 * lf - lc) / 3.0 for lf, lc in zip(lam_fine, lam_coarse)]
    else:
        lam_best = list(lam_fine)

    if policy.check_truncation:
        wide = _widen(spec, domain, 1.5)
        # match the grid spacing, not the point count, so the comparison
        # isolates the domain-truncation bias from the discretization error
        wide_n = int(round((wide[1] - wide[0]) / coarse.h)) - 1
        wide_policy = GridPolicy(
            n=wide_n,
            domain=wide,
            extrapolate=policy.extrapolate,
            target_h=policy.target_h,
        )
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
    return EigenResult(
        problem=spec, levels=levels, grid=fine, extrapolated=policy.extrapolate
    )


def _widen(spec: ProblemSpec, domain: Tuple[float, float], factor: float):
    if spec.kind in _HALFLINE_KINDS:
        return (0.0, domain[1] * factor)
    if spec.kind == "hext1":
        return (-spec.b, domain[1] * factor)
    hi = domain[1] * factor
    if spec.kind == "truncated" and spec.order and spec.order >= 1:
        hi = min(hi, 0.9 * spec.b)
    return (-hi, hi)


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
