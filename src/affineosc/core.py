"""Classical phase-space layer for the coupled half-oscillator system.

Positions live on the half line (x1, x2 >= 0).  The normal-mode change of
variables y1 = x1 + x2, y2 = x1 - x2 decouples the Hamiltonian; the affine
substitution trades p_y1 for the dilation d_y1 = p_y1 * y1 on the y1 > 0
branch.  Everything here is a pure function of immutable inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace


class FrameError(ValueError):
    """A phase-space point was passed to an operation expecting the other frame."""


class DomainError(ValueError):
    """Coordinates left the admissible configuration space."""


@dataclass(frozen=True)
class PhysicalParams:
    """Mass, angular frequency, reduced Planck constant and coupling.

    The coupling must satisfy |g| < m*omega**2; the quantum branch formulas
    additionally need 0 < g < m*omega**2 and check that at the point of use.
    """

    m: float = 1.0
    omega: float = 1.0
    hbar: float = 1.0
    g: float = 0.0

    def __post_init__(self):
        for name in ("m", "omega", "hbar", "g"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            if name != "g" and value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
        try:
            stiffness = self.m * self.omega**2
        except OverflowError:
            stiffness = math.inf
        if stiffness == math.inf:
            raise ValueError(
                f"m*omega^2 overflows for m = {self.m}, omega = {self.omega}"
            )
        if abs(self.g) >= stiffness:
            raise ValueError(
                f"coupling must satisfy |g| < m*omega^2 = {stiffness}, got g = {self.g}"
            )

    @property
    def g_ratio(self) -> float:
        """Dimensionless coupling g / (m omega^2), in (-1, 1)."""
        return self.g / (self.m * self.omega**2)

    @property
    def alpha1(self) -> float:
        """Inverse-square length scale of the stiff (y1) mode."""
        return (self.m * self.omega / self.hbar) * math.sqrt(1.0 + self.g_ratio)

    @property
    def alpha2(self) -> float:
        """Inverse-square length scale of the soft (y2) mode."""
        return (self.m * self.omega / self.hbar) * math.sqrt(1.0 - self.g_ratio)

    def require_quantum_coupling(self):
        """The decoupled quantum solutions assume 0 < g < m*omega^2."""
        if not 0.0 < self.g < self.m * self.omega**2:
            raise ValueError(
                f"quantum branch formulas need 0 < g < m*omega^2, got g = {self.g}"
            )


ORIGINAL = "original"
NORMAL = "normal"


@dataclass(frozen=True)
class PhaseSpacePoint:
    """A classical state, tagged with the frame its fields live in.

    frame == "original": fields mean (x1, x2, p_x1, p_x2), x1 >= 0 and x2 >= 0.
    frame == "normal":   fields mean (y1, y2, p_y1, p_y2), y1 >= 0.
    """

    q1: float
    q2: float
    p1: float
    p2: float
    frame: str = ORIGINAL

    def __post_init__(self):
        if self.frame not in (ORIGINAL, NORMAL):
            raise FrameError(f"unknown frame {self.frame!r}")
        if self.frame == ORIGINAL and (self.q1 < 0 or self.q2 < 0):
            raise DomainError(
                f"original-frame positions must be nonnegative, got ({self.q1}, {self.q2})"
            )
        if self.frame == NORMAL and self.q1 < 0:
            raise DomainError(f"normal-frame y1 must be nonnegative, got {self.q1}")


@dataclass(frozen=True)
class DilationValue:
    """The affine variable d = p*q for the point it was computed from."""

    d: float


def to_normal(point: PhaseSpacePoint) -> PhaseSpacePoint:
    """Map (x1, x2, p_x1, p_x2) to the decoupling coordinates (sum/difference)."""
    if point.frame != ORIGINAL:
        raise FrameError("to_normal expects an original-frame point")
    return PhaseSpacePoint(
        q1=point.q1 + point.q2,
        q2=point.q1 - point.q2,
        p1=point.p1 + point.p2,
        p2=point.p1 - point.p2,
        frame=NORMAL,
    )


def from_normal(point: PhaseSpacePoint) -> PhaseSpacePoint:
    """Exact linear inverse of to_normal; rejects images outside the quarter plane."""
    if point.frame != NORMAL:
        raise FrameError("from_normal expects a normal-frame point")
    x1 = (point.q1 + point.q2) / 2.0
    x2 = (point.q1 - point.q2) / 2.0
    if x1 < 0 or x2 < 0:
        raise DomainError(
            f"preimage ({x1}, {x2}) leaves the positive quadrant"
        )
    return PhaseSpacePoint(
        q1=x1,
        q2=x2,
        p1=(point.p1 + point.p2) / 2.0,
        p2=(point.p1 - point.p2) / 2.0,
        frame=ORIGINAL,
    )


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


def dilation(q: float, p: float) -> DilationValue:
    """d = p * q, the affine partner of q."""
    return DilationValue(d=p * q)


def hamiltonian_affine(
    y1: float, d_y1: float, y2: float, p_y2: float, params: PhysicalParams
) -> float:
    """Decoupled Hamiltonian with the y1 kinetic term written via the dilation.

    Classically d * y^-2 * d = p^2, so this agrees with hamiltonian_normal
    whenever d_y1 = p_y1 * y1; the y1 <= 0 region is excluded because of the
    explicit y1**-2.
    """
    if y1 <= 0:
        raise DomainError(f"affine Hamiltonian needs y1 > 0, got {y1}")
    m, w, g = params.m, params.omega, params.g
    return (
        d_y1**2 / (4 * m * y1**2)
        + p_y2**2 / (4 * m)
        + 0.25 * (m * w**2 + g) * y1**2
        + 0.25 * (m * w**2 - g) * y2**2
    )


def poisson_bracket(f, g, point: PhaseSpacePoint, step_scale: float = 1e-5) -> float:
    """Numeric Poisson bracket {f, g} in the original canonical coordinates.

    f and g take a PhaseSpacePoint (original frame) and return a scalar.
    Partial derivatives use central differences with per-coordinate step
    step_scale * max(1, |coordinate|), so exact brackets of polynomial
    coordinate functions are recovered to O(step^2).
    """
    if point.frame != ORIGINAL:
        raise FrameError("poisson_bracket works in original canonical coordinates")

    def step(value):
        return step_scale * max(1.0, abs(value))

    h_q1, h_q2 = step(point.q1), step(point.q2)
    if point.q1 - h_q1 < 0 or point.q2 - h_q2 < 0:
        raise DomainError(
            "point too close to the half-line boundary for the central stencil"
        )

    def d_dq(func, field, h):
        hi = func(replace(point, **{field: getattr(point, field) + h}))
        lo = func(replace(point, **{field: getattr(point, field) - h}))
        return (hi - lo) / (2 * h)

    total = 0.0
    for q_field, p_field, h_q in (("q1", "p1", h_q1), ("q2", "p2", h_q2)):
        h_p = step(getattr(point, p_field))
        total += d_dq(f, q_field, h_q) * d_dq(g, p_field, h_p)
        total -= d_dq(f, p_field, h_p) * d_dq(g, q_field, h_q)
    return total
