"""Finite-volume eigensolver for the stationary oscillator ODEs.

Each problem is the operator -d^2/dx^2 + V(x) with Dirichlet zeros at both
ends of its domain, discretized on uniform cell-centred grids by ``assemble``
into a symmetric tridiagonal matrix.  ``solve`` takes the lowest eigenvalues
on three nested grids by LAPACK bisection (?stebz) and reports their Romberg
value, with a per-level error estimate; an eigenvector is computed only on
request, from the finest-grid matrix, by LAPACK inverse iteration (?stein,
which starts from its own fixed pseudo-random vector).  Both read the bands
a ``TridiagonalMatrix`` was prescaled into when built (CBLAS ``dscal`` and
``idamax``), never a copy.  All four are called through ctypes, as the C
entry points of the OpenBLAS that scipy bundles, with ``scipy.linalg.lapack``
and ``scipy.linalg.blas`` as the fallback (see ``_lapack``).  Matrix rows,
cell centres and eigenvectors are ``array('d')`` or lists built in plain
Python, so neither a solve nor an eigenvector loads numpy; only the scipy
fallback does.  Importing this module loads neither numpy nor LAPACK.

Problem kinds and their energy maps (lambda is the discrete operator
eigenvalue):

* ``eqintro``   half-line oscillator with 3/(4 x^2) barrier; E = lambda hbar^2 / (2m)
* ``eqo1``      stiff normal mode, barrier + (m/hbar^2)(m omega^2 + g) y^2; E = lambda hbar^2 / (4m)
* ``eqo2``      soft normal mode, pure quadratic well; E = lambda hbar^2 / (4m)
* ``hext1``     barrier shifted to x = -b, quadratic well centered at 0; E = lambda hbar^2 / (2m)
* ``truncated`` hext1 with the barrier replaced by its |x/b| < 1 power series; E = lambda hbar^2 / (2m)

``KIND_FACTS`` holds these facts as one ``KindFacts`` record per kind, and the
kind's well and mass come from its branch's ``analytic.BRANCHES`` record (half_ho
for hext1 and truncated).  The code branches on records, never on kind names.
"""

from __future__ import annotations

import functools
import importlib.util
import math
import os
from array import array
from collections import namedtuple
from itertools import islice
from typing import Callable, Iterable, List, NamedTuple, Optional, Tuple

from .analytic import BRANCHES, COUPLED_Y1, COUPLED_Y2, HALF_HO, Branch
from .core import DomainError, PhysicalParams


class _Lapack(NamedTuple):
    """The LAPACK and BLAS routines the solver calls, with where they come from."""

    dstebz: Callable
    dstein: Callable
    dscal: Callable  # (alpha, x): x *= alpha in place
    idamax: Callable  # x -> the first index of the largest |x_i|, from 0
    source: str  # the OpenBLAS file, or "scipy.linalg.lapack"


def _openblas_path() -> str:
    """The OpenBLAS bundled in a scipy wheel, the library its LAPACK extension runs on."""
    import glob

    scipy_dir = os.path.dirname(importlib.util.find_spec("scipy").origin)
    libs = glob.escape(os.path.join(os.path.dirname(scipy_dir), "scipy.libs"))
    # the LP64 build (32-bit integers); the ILP64 one is libscipy_openblas64_-*
    return next(glob.iglob(os.path.join(libs, "libscipy_openblas-*.so")))


def _lapacke(path: str) -> _Lapack:
    """?stebz and ?stein (LAPACKE), dscal and idamax (CBLAS) from the library at path."""
    import ctypes  # here, not at the top: paths that solve nothing never pay its import
    import mmap

    lib = ctypes.CDLL(path)
    c_int, c_double = ctypes.c_int, ctypes.c_double
    double_p, int_p = ctypes.POINTER(c_double), ctypes.POINTER(c_int)
    stebz = lib.scipy_LAPACKE_dstebz
    stebz.argtypes = [ctypes.c_char, ctypes.c_char, c_int, c_double, c_double, c_int, c_int,
                      c_double, double_p, double_p, int_p, int_p, double_p, int_p, int_p]
    stebz.restype = c_int
    stein = lib.scipy_LAPACKE_dstein
    stein.argtypes = [c_int, c_int, double_p, double_p, c_int, double_p, int_p, int_p, double_p,
                      c_int, int_p]
    stein.restype = c_int
    scal = lib.scipy_cblas_dscal
    scal.argtypes = [c_int, c_double, double_p, c_int]
    scal.restype = None
    iamax = lib.scipy_cblas_idamax
    iamax.argtypes = [c_int, double_p, c_int]
    iamax.restype = ctypes.c_size_t  # CBLAS_INDEX, counted from 0

    def doubles(values, count):
        """The first count entries of a float64 buffer, shared, not copied."""
        fmt = memoryview(values).format
        if fmt != "d":
            raise TypeError(f"LAPACK needs float64 entries, got buffer format {fmt!r}")
        return (c_double * count).from_buffer(values)

    def dstebz(diag, off, k, tol):
        n = len(diag)
        m, nsplit = c_int(), c_int()
        # w, iblock and isplit in one anonymous mapping: ?stebz writes about k of
        # their n entries, and the pages it does not touch never become resident
        out = mmap.mmap(-1, 16 * n)
        w = (c_double * n).from_buffer(out)
        iblock, isplit = (c_int * n).from_buffer(out, 8 * n), (c_int * n).from_buffer(out, 12 * n)
        # range "I": eigenvalues 1..k (vl, vu unused); order "E": ascending over the whole matrix
        info = stebz(b"I", b"E", n, 0.0, 1.0, 1, k, tol, doubles(diag, n), doubles(off, n - 1),
                     m, nsplit, w, iblock, isplit)
        return w[:m.value], info

    def dstein(diag, off, lam):
        n = len(diag)
        # ?stein reads one eigenvalue, but LAPACKE checks n entries of w for NaN
        w, z = (c_double * n)(lam), array("d", bytes(8 * n))
        # the whole matrix as one unreduced block: iblock = 1 for lam, the block ends at n;
        # z is n x 1, column-major (layout 102)
        info = stein(102, n, doubles(diag, n), doubles(off, n - 1), 1, w, c_int(1), c_int(n),
                     doubles(z, n), n, c_int())
        return z, info

    def dscal(alpha, x):
        scal(len(x), alpha, doubles(x, len(x)), 1)

    def idamax(x):
        return iamax(len(x), doubles(x, len(x)), 1)

    return _Lapack(dstebz, dstein, dscal, idamax, path)


def _scipy_lapack() -> _Lapack:
    """The same routines through scipy's f2py wrappers, which reject an empty off-diagonal."""
    import numpy as np
    from scipy.linalg import blas, lapack

    def padded(off):  # a 1x1 matrix's empty band; LAPACK reads no off-diagonal at N = 1
        return off if len(off) else [0.0]

    def dstebz(diag, off, k, tol):
        m, w, _, _, info = lapack.dstebz(diag, padded(off), 2, 0.0, 1.0, 1, k, tol, "E")
        return w[:m].tolist(), info

    def dstein(diag, off, lam):
        n = len(diag)
        z, info = lapack.dstein(
            diag, padded(off), [lam], np.ones(n, dtype=np.int32), np.full(n, n, dtype=np.int32)
        )
        return array("d", z[:, 0].tobytes()), info

    def dscal(alpha, x):
        blas.dscal(alpha, np.frombuffer(x))  # a view of x, scaled in place

    return _Lapack(dstebz, dstein, dscal, blas.idamax, "scipy.linalg.lapack")


@functools.cache
def _lapack() -> _Lapack:
    """LAPACK and BLAS, bound when the first matrix is built.

    Binding scipy's bundled OpenBLAS through ctypes takes about 6 ms (about
    3 ms to open the file, 2 ms to import ctypes) and needs no numpy;
    ``import scipy.linalg`` would cost about 0.3 s on top of numpy.  The file
    is private to scipy wheels, so where it is missing or lacks the LAPACKE
    symbols (a build from source, another platform) this falls back to the
    public ``scipy.linalg.lapack``.  Both run the same LAPACK code.
    """
    try:
        return _lapacke(_openblas_path())
    # no such file (StopIteration), a file ctypes cannot open (OSError), no
    # LAPACKE symbols in it or no scipy at all (AttributeError)
    except (StopIteration, OSError, AttributeError):
        return _scipy_lapack()


def dstebz(diag, off, k, tol):
    """(the k lowest eigenvalues ascending, info) by LAPACK ?stebz.

    diag and off are float64 buffers.  A module attribute, so tests can replace it.
    """
    return _lapack().dstebz(diag, off, k, tol)


def dstein(diag, off, lam):
    """(eigenvector for lam, info) by LAPACK ?stein.

    diag and off are float64 buffers.  A module attribute, so tests can replace it.
    """
    return _lapack().dstein(diag, off, lam)


class KindFacts(NamedTuple):
    """Everything the solver and the command line need to know about a kind."""

    branch: Optional[str] = None  # closed-form branch in ``analytic``
    # 3/(4(x+b)^2) barrier, singular at x = -b (b = 0 unless takes_b); the
    # domain starts there.  Without a barrier the domain is symmetric.
    barrier: bool = False
    takes_b: bool = False  # needs an endpoint offset b >= 0
    series: bool = False  # hext1's barrier replaced by its power series in x/b


KIND_FACTS = {
    "eqintro": KindFacts(branch=HALF_HO, barrier=True),
    "eqo1": KindFacts(branch=COUPLED_Y1, barrier=True),
    "eqo2": KindFacts(branch=COUPLED_Y2),
    "hext1": KindFacts(barrier=True, takes_b=True),
    "truncated": KindFacts(takes_b=True, series=True),
}
KINDS = tuple(KIND_FACTS)


class ConvergenceError(RuntimeError):
    """A numeric stage (LAPACK eigenvalues or eigenvectors, truncation check) failed."""


class Grid(namedtuple("Grid", "x_min x_max n")):
    """Uniform cell-centred grid: n cells of width h between the two Dirichlet faces.

    The unknowns sit at the cell centres ("nodes"), x_min + (i + 1/2) h for i in 0..n-1.
    """

    __slots__ = ()

    def __new__(cls, x_min: float, x_max: float, n: int):
        if not x_min < x_max:
            raise ValueError(f"need x_min < x_max, got [{x_min}, {x_max}]")
        if n < 16:
            raise ValueError(f"need at least 16 cells, got {n}")
        return super().__new__(cls, x_min, x_max, n)

    @property
    def h(self) -> float:
        return (self.x_max - self.x_min) / self.n

    def nodes_at(self, indices: Iterable[int]) -> List[float]:
        """Centres x_min + h*(i + 1/2) of the cells numbered i in 0..n-1."""
        x_min, h = self.x_min, self.h
        return [x_min + h * (i + 0.5) for i in indices]

    @property
    def nodes(self) -> List[float]:
        return self.nodes_at(range(self.n))

    def refined(self) -> "Grid":
        """The grid with every cell split in two (N -> 2N, h -> h/2)."""
        return Grid(self.x_min, self.x_max, 2 * self.n)


class ProblemSpec(namedtuple("ProblemSpec", "kind params b order")):
    """Which stationary ODE to solve, with its fixed energy scaling."""

    __slots__ = ()

    def __new__(cls, kind: str, params: Optional[PhysicalParams] = None,
                b: Optional[float] = None, order: Optional[int] = None):
        if kind not in KINDS:
            raise ValueError(f"unknown problem kind {kind!r}")
        self = super().__new__(cls, kind, PhysicalParams() if params is None else params, b, order)
        facts = self.facts
        if facts.takes_b:
            if self.b is None or not 0 <= self.b < math.inf:
                raise ValueError(f"kind {self.kind!r} needs a finite b >= 0, got {self.b}")
        elif self.b is not None:
            raise ValueError(f"kind {self.kind!r} does not take b")
        if facts.series:
            if self.b == 0:
                raise ValueError(f"kind {self.kind!r} needs b > 0")
            # an int: neither a bool nor a float that equals one
            if type(self.order) is not int or self.order not in range(5):
                raise ValueError(f"kind {self.kind!r} needs an expansion order in 0..4")
        elif self.order is not None:
            raise ValueError(f"kind {self.kind!r} does not take an expansion order")
        if self.well.normal_mode:
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
        return self

    @property
    def facts(self) -> KindFacts:
        return KIND_FACTS[self.kind]

    @property
    def well(self) -> Branch:
        """The closed-form branch whose well and mass the kind has."""
        return BRANCHES[self.facts.branch or HALF_HO]

    @property
    def energy_scale(self) -> float:
        """Factor mapping a discrete eigenvalue lambda to a physical energy."""
        p = self.params
        return p.hbar**2 / ((4.0 if self.well.normal_mode else 2.0) * p.m)

    @property
    def quad_coeff(self) -> float:
        """Coefficient of the quadratic confinement term in the operator potential."""
        return self.well.alpha(self.params) ** 2

    @property
    def singular_point(self) -> Optional[float]:
        """Position of the barrier's singularity, None when there is none."""
        if not self.facts.barrier:
            return None
        return -self.b if self.facts.takes_b else 0.0


class TridiagonalMatrix(namedtuple("TridiagonalMatrix", "diag off scale")):
    """Symmetric tridiagonal matrix (diag, off) / scale, prescaled for LAPACK.

    The array('d') bands are stored times scale, the power of two that puts
    their largest |entry| in [0.5, 1) (1 if all are 0; 2^1023 if it is below
    2^-1024), so the division is exact.  Unscaled, ?stebz overflows near 1e154
    (it squares the off-diagonal) and ?stein returns NaN near 1e146.  The
    constructor scales copies of its float sequences; ``assemble`` hands over
    the bands it built, scaled in place.  Both reject a NaN or infinite entry
    with ValueError (``_prescale``), so every matrix the eigensolvers are
    handed is finite.
    """

    __slots__ = ()

    def __new__(cls, diag: Iterable[float], off: Iterable[float]):
        diag, off = array("d", diag), array("d", off)
        if len(off) != len(diag) - 1:
            raise ValueError("off-diagonal must be one shorter than the diagonal")
        return cls._make((diag, off, _prescale(diag, off)))

    @property
    def n(self) -> int:
        return len(self.diag)


def _all_finite(values) -> bool:
    # a finite sum proves every entry finite; only an overflowing sum needs the entry-wise test
    return math.isfinite(sum(values)) or all(map(math.isfinite, values))


def _prescale(diag: array, off: array) -> float:
    """Scale both bands in place (CBLAS dscal) to TridiagonalMatrix's invariant; its scale.

    Raises ValueError for a NaN or infinite entry: every matrix is finite once built.
    """
    if not (_all_finite(diag) and _all_finite(off)):
        raise ValueError("matrix entries must be finite, got NaN or infinity")
    blas = _lapack()
    # an empty band has no largest entry for idamax (and scipy's idamax and dscal reject it)
    bands = (diag, off) if off else (diag,)
    scale = math.ldexp(1.0, min(1023, -math.frexp(max(abs(b[blas.idamax(b)]) for b in bands))[1]))
    for band in bands:
        blas.dscal(scale, band)
    return scale


class Level(NamedTuple):
    """One solved level.  bench/job.py unpacks it by position: four fields, energy third."""

    n: int
    lam: float  # Romberg-extrapolated operator eigenvalue
    energy: float
    lam_fine: float  # finest-grid eigenvalue, the one ``eigenvector`` takes


class EigenResult(NamedTuple):
    """Solved levels with the finest grid and its matrix.

    err_est holds, per level, the distance in energy between the Romberg value
    and the two-grid Richardson value of the two finer grids: an estimate of
    the discretization error, not of the domain cut.
    """

    levels: List[Level]
    grid: Grid
    matrix: TridiagonalMatrix
    err_est: List[float]


def potential_of(spec: ProblemSpec) -> Callable[[float], float]:
    """Operator potential V(x) at one point x for the given problem kind.

    Raises DomainError when evaluated at the singular point (x = 0 for the
    half-line kinds, x = -b for hext1).  Squares are products (x * x), as
    numpy's squaring of arrays is; higher series powers use float ``**``.
    """
    c = spec.quad_coeff
    sing = spec.singular_point

    if spec.facts.series:
        b = spec.b
        barrier = 0.75 / b**2
        coeffs = list(enumerate((-1.0) ** j * (j + 1) / b**j for j in range(spec.order + 1)))

        def v(x):
            terms = 0
            for j, cj in coeffs:
                terms += cj * (x * x if j == 2 else x**j)
            return barrier * terms + c * (x * x)

    elif sing is None:

        def v(x):
            return c * (x * x)

    else:

        def v(x):
            s = x - sing
            try:
                return 0.75 / (s * s) + c * (x * x)
            except ZeroDivisionError:
                raise DomainError(f"potential is singular at x = {sing}") from None

    return v


ROW_BLOCK = 2**9  # matrix rows assemble builds per pass


def assemble(spec: ProblemSpec, grid: Grid) -> TridiagonalMatrix:
    """Finite volumes for -d^2/dx^2 + V on the grid's cells, as one symmetric matrix.

    Cells exchange the flux F_f (u_i - u_j) across each face f; the outer faces
    are Dirichlet zeros through ghost cells (u = -u_i beyond, so their flux
    counts twice).  Without a barrier F = 1/h^2: the 3-point stencil on the
    centres.  At the barrier psi = s^(3/2) u turns -psi'' + 3/(4 s^2) psi into
    -(s^3 u')'/s^3, s the distance to the singular point: face f carries
    t_f^3/h^2 and cell i the weight w_i = ((t_i + 1)^4 - t_i^4)/4, in units
    t = s/h so that no power of h is taken, and only the well quad_coeff x^2
    is evaluated at the centres.  A face at s = 0 carries no flux.  The problem
    A u = lambda W u is symmetrized as W^(-1/2) A W^(-1/2), whose eigenvectors
    sqrt(w_i) u_i approximate psi at the centres.
    """
    _check_domain(spec, grid)
    n, h, x_min = grid.n, grid.h, grid.x_min
    if spec.facts.barrier:
        first = (x_min - spec.singular_point) / h  # the lower face, in units of h
        c = spec.quad_coeff
    else:
        v = potential_of(spec)
    scale = 1.0 / (h * h)
    # Rows are built ROW_BLOCK at a time in lists, which Python iterates faster
    # than array('d'), and appended to the two bands: beside the matrix, any
    # grid needs only one block's lists.
    diag, off = array("d"), array("d")
    for lo in range(0, n, ROW_BLOCK):
        hi = min(lo + ROW_BLOCK, n)
        cells = min(hi + 1, n) - lo  # with the next block's first, for the off entry across
        centres = grid.nodes_at(range(lo, hi))
        if spec.facts.barrier:
            faces = [first + i for i in range(lo, hi + 1)]
            flux = [t * t * t for t in faces]
            # ((t + 1)^4 - t^4) / 4 over cell [t, t + 1], in Horner form: positive terms only
            weight = [((t + 1.5) * t + 1.0) * t + 0.25 for t in islice(faces, cells)]
            well = [c * (x * x) for x in centres]
        else:
            flux, weight, well = [1.0] * (hi - lo + 1), [1.0] * cells, list(map(v, centres))
        if lo == 0:
            flux[0] *= 2.0
        if hi == n:
            flux[-1] *= 2.0
        diag.extend([(f0 + f1) / w * scale + p for f0, f1, w, p
                     in zip(flux, islice(flux, 1, None), weight, well)])
        root = list(map(math.sqrt, weight))
        off.extend([-f / (r0 * r1) * scale
                    for f, r0, r1 in zip(islice(flux, 1, None), root, islice(root, 1, None))])
    return TridiagonalMatrix._make((diag, off, _prescale(diag, off)))  # the bands, not copies


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

    One ?stebz call on the stored bands, 1x1 too, for eigenvalues 1..k in
    ascending order.  Each is bracketed to an absolute width of EIGENVALUE_TOL
    times min(1, max|diag|), whatever its magnitude.  The bands are finite, as
    every built matrix is, so they are not scanned; a k outside 1..n raises
    ValueError and a nonzero LAPACK info ConvergenceError.
    """
    if not 1 <= k <= matrix.n:
        raise ValueError(f"k must be in 1..{matrix.n}, got {k}")
    diag, scale = matrix.diag, matrix.scale
    # EIGENVALUE_TOL * min(1, max|diag|), scaled like the bands
    tol = EIGENVALUE_TOL * min(scale, abs(diag[_lapack().idamax(diag)]))
    values, info = dstebz(diag, matrix.off, k, tol)
    if info != 0:
        raise ConvergenceError(f"LAPACK ?stebz failed (info={info})")
    return [v / scale for v in values]


def eigenvector(matrix: TridiagonalMatrix, lam: float, h: float) -> array:
    """Eigenvector for the eigenvalue lam by LAPACK inverse iteration (?stein).

    Normalized so that h * sum(v^2) = 1 (the midpoint rule on the cells) and
    the first sample of nontrivial magnitude is positive.  Returned as
    ``array('d')``; ``numpy.asarray`` views it without a copy.  The sum of
    squares is ``math.fsum``, correctly rounded, so the samples do not depend
    on how a threaded BLAS would split a dot product.  Apart from the squares
    and the division by the norm, every pass over all n entries runs in C
    (BLAS or ``fsum``), without numpy, and holds no list of n floats.  A 1x1
    matrix goes through ?stein like any other: its vector is 1 / sqrt(h).
    """
    # the stored bands, not copies.  ?stein perturbs LU pivots below eps*|T|;
    # shifting the scaled lam by 1e-13 keeps them clear (samples 7e-12 from the
    # exact stiff Laplacian ones, against 6e-11 unshifted)
    v, info = dstein(matrix.diag, matrix.off, lam * matrix.scale + 1e-13)
    # a NaN or infinite entry makes the norm non-finite
    norm = math.sqrt(h) * math.sqrt(math.fsum(x * x for x in v)) if info == 0 else math.nan
    if not math.isfinite(norm):
        raise ConvergenceError(f"LAPACK ?stein did not converge for lambda={lam}")
    floor = 1e-8 * abs(v[_lapack().idamax(v)])
    if next(x for x in v if abs(x) > floor) < 0:
        norm = -norm
    return array("d", (x / norm for x in v))


class GridPolicy(namedtuple("GridPolicy", "n domain check_truncation")):
    """Coarsest cell count and domain for solve() (None: sized from the problem).

    Energies are always extrapolated over the three nested grids of N, 2N and
    4N cells; check_truncation re-solves on a 1.5x wider domain.
    """

    __slots__ = ()

    def __new__(cls, n: Optional[int] = None, domain: Optional[Tuple[float, float]] = None,
                check_truncation: bool = False):
        if domain is not None and not all(map(math.isfinite, domain)):
            raise ValueError(f"grid domain must be finite, got {domain}")
        return super().__new__(cls, n, domain, check_truncation)


TRUNCATION_TOL = 1e-8  # relative energy shift the 1.5x wider re-solve may show


def default_domain(spec: ProblemSpec, k: int) -> Tuple[float, float]:
    """Domain wide enough that V at the cut exceeds 3x an eigenvalue above the k-th."""
    c = spec.quad_coeff
    sqrt_c = math.sqrt(c)
    if spec.facts.barrier:
        lam_est = 4.0 * (k + 2) * sqrt_c  # half-line ladder, level k + 1
    else:
        # full-line ladder, level k + 4: about the margin above the top level
        # that the half line's level k + 1 leaves, as its levels are half as
        # far apart
        lam_est = (2 * (k + 4) + 1) * sqrt_c
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


MAX_COARSE_N = 2**19  # coarsest grid cells; the finest grid has 4N = 2^21 rows at the cap


def _capped(spec: ProblemSpec, n: int) -> int:
    """n, unless a coarsest grid of n cells is larger than MAX_COARSE_N."""
    if n > MAX_COARSE_N:
        at_b = f" at b = {spec.b}" if spec.facts.takes_b else ""
        raise ValueError(
            f"kind {spec.kind!r}{at_b} needs a coarse grid of N = {n:.6g} "
            f"cells, more than the limit of {MAX_COARSE_N}"
        )
    return n


# The coarsest spacing, in natural lengths 1/c^(1/4) of the well: SPACING at
# k = 4, shrinking as 1/sqrt(k + 2) so that the top level's lambda h^2, and
# with it its error, stays put, but never below MIN_SPACING, so that the
# largest runs cost no more than they did on the former fixed grid.  A grid
# has at least MIN_CELLS cells.
SPACING = 0.05
MIN_SPACING = 0.0105
MIN_CELLS = 64


def _auto_n(spec: ProblemSpec, domain: Tuple[float, float], k: int) -> int:
    h = max(SPACING * math.sqrt(6.0 / (k + 2)), MIN_SPACING)
    n = int(math.ceil((domain[1] - domain[0]) * spec.quad_coeff**0.25 / h))
    return max(n, MIN_CELLS)


def coarse_grid(spec: ProblemSpec, k: int, policy: Optional[GridPolicy] = None) -> Grid:
    """The coarsest grid of solve(spec, k, policy); refined twice, it gives the other two.

    The one check of solve's inputs, run before any matrix is built.  It
    raises ValueError, in this order, for k < 1, for a coarse grid over
    MAX_COARSE_N cells, for k above its cell count (the coarsest grid has the
    fewest rows), and, with policy.check_truncation, for a 1.5x wider grid
    over MAX_COARSE_N cells.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    policy = policy or GridPolicy()
    domain = policy.domain or default_domain(spec, k)
    coarse = Grid(domain[0], domain[1], _capped(spec, policy.n or _auto_n(spec, domain, k)))
    if k > coarse.n:
        raise ValueError(f"k must be in 1..{coarse.n}, got {k}")
    if policy.check_truncation:
        _capped(spec, _wide_policy(spec, coarse).n)
    return coarse


def _wide_policy(spec: ProblemSpec, coarse: Grid) -> GridPolicy:
    """The policy of check_truncation's re-solve: a 1.5x wider domain at coarse's spacing."""
    wide = _cut_domain(spec, coarse.x_max * 1.5)
    # match the grid spacing, not the cell count, so the comparison
    # isolates the domain-truncation bias from the discretization error
    return GridPolicy(n=int(round((wide[1] - wide[0]) / coarse.h)), domain=wide)


def solve(spec: ProblemSpec, k: int, policy: Optional[GridPolicy] = None) -> EigenResult:
    """Lowest k levels of a problem, Romberg-extrapolated over three nested grids.

    The grids have N, 2N and 4N cells (spacings h, h/2, h/4), and the energies
    come from E = scale * (64 lambda_{h/4} - 20 lambda_{h/2} + lambda_h) / 45,
    which cancels the h^2 and h^4 terms of the error.  err_est is the distance
    of each E from the two-grid Richardson value scale * (4 lambda_{h/4} -
    lambda_{h/2}) / 3.  With policy.check_truncation the solve is repeated on
    a 1.5x wider domain and a relative shift beyond TRUNCATION_TOL raises
    ConvergenceError.  Its inputs are checked by ``coarse_grid`` alone (and by
    the ProblemSpec, GridPolicy and Grid they make), before any matrix.
    """
    policy = policy or GridPolicy()
    coarse = coarse_grid(spec, k, policy)
    fine = coarse.refined()
    finest = fine.refined()
    matrix = assemble(spec, finest)
    lams = [lowest_eigenvalues(matrix, k)]
    lams += [lowest_eigenvalues(assemble(spec, grid), k) for grid in (fine, coarse)]
    scale = spec.energy_scale
    levels, err_est = [], []
    for n, (l4, l2, l1) in enumerate(zip(*lams)):
        lam = (64.0 * l4 - 20.0 * l2 + l1) / 45.0
        levels.append(Level(n, lam, scale * lam, l4))
        err_est.append(scale * abs(lam - (4.0 * l4 - l2) / 3.0))

    # a call of solve itself, which the traced benchmark records as numeric.truncation_resolve
    if policy.check_truncation:
        for level, wide_level in zip(levels, solve(spec, k, _wide_policy(spec, coarse)).levels):
            shift = abs(wide_level.energy - level.energy)
            if shift > TRUNCATION_TOL * max(1.0, abs(level.energy)):
                raise ConvergenceError(
                    f"energies shift by {shift:.3e} when the domain is "
                    f"extended 1.5x; domain ({coarse.x_min}, {coarse.x_max}) is too small"
                )
    return EigenResult(levels=levels, grid=finest, matrix=matrix, err_est=err_est)


NODE_FLOOR = 1e-6  # samples below this fraction of the peak are noise for sign_changes


def sign_changes(samples) -> int:
    """Count sign changes of a sampled eigenfunction, ignoring noise-level values."""
    floor = NODE_FLOOR * max(map(abs, samples))
    signs = [x > 0 for x in samples if abs(x) > floor]
    return sum(a != b for a, b in zip(signs, signs[1:]))
