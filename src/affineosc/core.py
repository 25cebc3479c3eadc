"""Classical phase-space layer for the coupled half-oscillator system.

Positions live on the half line (x1, x2 >= 0).  The normal-mode change of
variables y1 = x1 + x2, y2 = x1 - x2 decouples the Hamiltonian; the affine
substitution trades p_y1 for the dilation d_y1 = p_y1 * y1 on the y1 > 0
branch.  Everything here is a pure function of immutable inputs.
"""

from __future__ import annotations

import math
from collections import namedtuple


class FrameError(ValueError):
    """A phase-space point was passed to an operation expecting the other frame."""


class DomainError(ValueError):
    """Coordinates left the admissible configuration space."""


def require_int(name: str, value, least: int = 0, most=None) -> int:
    """value, if it is an int (not a bool, a float or a numpy integer) in least..most.

    The one check of every count the package takes (levels, cells, level
    numbers, degrees, orders), run before any work.  Otherwise it raises
    ValueError: "<name> must be an integer, got <repr>" (the repr cut at 40
    characters), "<name> must be at least <least>, got <value>", or with an
    upper bound most, "<name> must be in <least>..<most>, got <value>".
    """
    if type(value) is not int:  # neither a bool nor a float that equals one
        raise ValueError(f"{name} must be an integer, got {value!r:.40}")
    if most is None and value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")
    if most is not None and not least <= value <= most:
        raise ValueError(f"{name} must be in {least}..{most}, got {value}")
    return value


def require_real(name: str, value, above=None, least=None, finite=True) -> float:
    """float(value), if it is an int or a float (not a bool), finite and in range.

    The one check of every real number the package takes (m, omega, hbar, g,
    b, grid ends, h, lam and the special functions' parameters), run before
    any work.  The bounds its callers use are value > above (0 or -1) and
    value >= least (0).  Otherwise it raises ValueError: "<name> must be a
    number, got <repr>" (cut as in ``require_int``), "<name> must be within
    float range" for an int too large for a float, "<name> must be finite,
    got <value>" (unless finite is false), "<name> must be positive, got
    <value>" (above 0), "<name> must be greater than <above>, got <value>" or
    "<name> must be at least <least>, got <value>".
    """
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValueError(f"{name} must be a number, got {value!r:.40}")
    try:
        value = float(value)
    except OverflowError:
        raise ValueError(f"{name} must be within float range") from None
    if finite and not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    if above is not None and not value > above:
        raise ValueError(f"{name} must be {'positive' if above == 0 else f'greater than {above}'}"
                         f", got {value}")
    if least is not None and not value >= least:
        raise ValueError(f"{name} must be at least {least}, got {value}")
    return value


class PhysicalParams(namedtuple("PhysicalParams", "m omega hbar g")):
    """Mass, angular frequency, reduced Planck constant and coupling.

    Each is checked by ``require_real`` (m, omega and hbar positive) and kept
    as a float.  The coupling must satisfy |g| < m*omega**2; the quantum
    branch formulas additionally need 0 < g < m*omega**2 and check that at
    the point of use.
    """

    __slots__ = ()

    def __new__(cls, m: float = 1.0, omega: float = 1.0, hbar: float = 1.0, g: float = 0.0):
        m, omega, hbar = (require_real(name, value, above=0)
                          for name, value in (("m", m), ("omega", omega), ("hbar", hbar)))
        g = require_real("g", g)
        try:
            stiffness = m * omega**2
        except OverflowError:
            stiffness = math.inf
        if stiffness == math.inf:
            raise ValueError(f"m*omega^2 overflows for m = {m}, omega = {omega}")
        if abs(g) >= stiffness:
            raise ValueError(
                f"coupling must satisfy |g| < m*omega^2 = {stiffness}, got g = {g}"
            )
        return super().__new__(cls, m, omega, hbar, g)

    @property
    def g_ratio(self) -> float:
        """Dimensionless coupling g / (m omega^2), in (-1, 1)."""
        return self.g / (self.m * self.omega**2)

    def require_quantum_coupling(self):
        """The decoupled quantum solutions assume 0 < g < m*omega^2."""
        if not 0.0 < self.g < self.m * self.omega**2:
            raise ValueError(
                f"quantum branch formulas need 0 < g < m*omega^2, got g = {self.g}"
            )


ORIGINAL = "original"
NORMAL = "normal"


class PhaseSpacePoint(namedtuple("PhaseSpacePoint", "q1 q2 p1 p2 frame")):
    """A classical state, tagged with the frame its fields live in.

    frame == "original": fields mean (x1, x2, p_x1, p_x2), x1 >= 0 and x2 >= 0.
    frame == "normal":   fields mean (y1, y2, p_y1, p_y2), y1 >= 0.

    Each coordinate is checked by ``require_real`` (finite, named by its
    field) and kept as a float, before the frame and sign rules.  The maps
    between the frames build their results with ``_make``: their sign rules
    hold by construction, and a coordinate that overflows raises ValueError.
    """

    __slots__ = ()

    def __new__(cls, q1: float, q2: float, p1: float, p2: float, frame: str = ORIGINAL):
        q1, q2, p1, p2 = map(require_real, cls._fields[:4], (q1, q2, p1, p2))
        if frame not in (ORIGINAL, NORMAL):
            raise FrameError(f"unknown frame {frame!r}")
        if frame == ORIGINAL and (q1 < 0 or q2 < 0):
            raise DomainError(f"original-frame positions must be nonnegative, got ({q1}, {q2})")
        if frame == NORMAL and q1 < 0:
            raise DomainError(f"normal-frame y1 must be nonnegative, got {q1}")
        return super().__new__(cls, q1, q2, p1, p2, frame)


def _mapped(frame: str, *coords: float) -> PhaseSpacePoint:
    """The image of a checked point under a frame map, which needs only a finite check."""
    if not all(map(math.isfinite, coords)):
        raise ValueError(f"{frame}-frame image overflows, got {coords}")
    return PhaseSpacePoint._make((*coords, frame))


def to_normal(point: PhaseSpacePoint) -> PhaseSpacePoint:
    """Map (x1, x2, p_x1, p_x2) to the decoupling coordinates (sum/difference)."""
    if point.frame != ORIGINAL:
        raise FrameError("to_normal expects an original-frame point")
    q1, q2, p1, p2, _ = point
    return _mapped(NORMAL, q1 + q2, q1 - q2, p1 + p2, p1 - p2)


def from_normal(point: PhaseSpacePoint) -> PhaseSpacePoint:
    """Exact linear inverse of to_normal; rejects images outside the quarter plane.

    Each coordinate is halved before the sum, so the preimage of every image
    of ``to_normal`` is finite; halving is exact in the normal range.
    """
    if point.frame != NORMAL:
        raise FrameError("from_normal expects a normal-frame point")
    q1, q2, p1, p2 = (coordinate / 2.0 for coordinate in point[:4])
    x1, x2 = q1 + q2, q1 - q2
    if x1 < 0 or x2 < 0:
        raise DomainError(f"preimage ({x1}, {x2}) leaves the positive quadrant")
    return _mapped(ORIGINAL, x1, x2, p1 + p2, p1 - p2)


def hamiltonian_original(point: PhaseSpacePoint, params: PhysicalParams) -> float:
    """Two half-line oscillators with bilinear coupling g*x1*x2."""
    if point.frame != ORIGINAL:
        raise FrameError("hamiltonian_original expects an original-frame point")
    m, w, g = params.m, params.omega, params.g
    return (
        point.p1**2 / (2 * m)
        + point.p2**2 / (2 * m)
        + 0.5 * m * w**2 * point.q1**2
        + 0.5 * m * w**2 * point.q2**2
        + g * point.q1 * point.q2
    )


def hamiltonian_normal(point: PhaseSpacePoint, params: PhysicalParams) -> float:
    """Decoupled form: two independent oscillators with stiffness m*omega^2 +/- g."""
    if point.frame != NORMAL:
        raise FrameError("hamiltonian_normal expects a normal-frame point")
    m, w, g = params.m, params.omega, params.g
    return (
        point.p1**2 / (4 * m)
        + point.p2**2 / (4 * m)
        + 0.25 * (m * w**2 + g) * point.q1**2
        + 0.25 * (m * w**2 - g) * point.q2**2
    )


def dilation(q: float, p: float) -> float:
    """d = p * q, the affine partner of q; both are checked by ``require_real``."""
    q, p = require_real("q", q), require_real("p", p)
    return p * q


def hamiltonian_affine(
    y1: float, d_y1: float, y2: float, p_y2: float, params: PhysicalParams
) -> float:
    """Decoupled Hamiltonian with the y1 kinetic term written via the dilation.

    Classically d * y^-2 * d = p^2, so this agrees with hamiltonian_normal
    whenever d_y1 = p_y1 * y1; the y1 <= 0 region is excluded because of the
    explicit y1**-2.  Each coordinate is checked by ``require_real`` first.
    """
    y1, d_y1, y2, p_y2 = map(require_real, ("y1", "d_y1", "y2", "p_y2"), (y1, d_y1, y2, p_y2))
    if y1 <= 0:
        raise DomainError(f"y1 must be positive for the affine Hamiltonian, got {y1}")
    m, w, g = params.m, params.omega, params.g
    return (
        d_y1**2 / (4 * m * y1**2)
        + p_y2**2 / (4 * m)
        + 0.25 * (m * w**2 + g) * y1**2
        + 0.25 * (m * w**2 - g) * y2**2
    )


BRACKET_STEP = 1e-5  # relative central-difference step of poisson_bracket


def poisson_bracket(f, g, point: PhaseSpacePoint) -> float:
    """Numeric Poisson bracket {f, g} in the original canonical coordinates.

    f and g take a PhaseSpacePoint (original frame) and return a scalar.
    Partial derivatives use central differences with per-coordinate step
    BRACKET_STEP * max(1, |coordinate|), so exact brackets of polynomial
    coordinate functions are recovered to O(BRACKET_STEP^2).
    """
    if point.frame != ORIGINAL:
        raise FrameError("poisson_bracket works in original canonical coordinates")

    def step(value):
        return BRACKET_STEP * max(1.0, abs(value))

    h_q1, h_q2 = step(point.q1), step(point.q2)
    if point.q1 - h_q1 < 0 or point.q2 - h_q2 < 0:
        raise DomainError(
            "point too close to the half-line boundary for the central stencil"
        )

    def d_dq(func, field, h):
        hi = func(point._replace(**{field: getattr(point, field) + h}))
        lo = func(point._replace(**{field: getattr(point, field) - h}))
        return (hi - lo) / (2 * h)

    total = 0.0
    for q_field, p_field, h_q in (("q1", "p1", h_q1), ("q2", "p2", h_q2)):
        h_p = step(getattr(point, p_field))
        total += d_dq(f, q_field, h_q) * d_dq(g, p_field, h_p)
        total -= d_dq(f, p_field, h_p) * d_dq(g, q_field, h_q)
    return total
