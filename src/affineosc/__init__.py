"""Spectral toolkit for half-line and coupled oscillator problems.

Closed-form eigenpairs for the half harmonic oscillator and the decoupled
normal modes of two coupled half-line oscillators, a finite-volume
Sturm-Liouville eigensolver for the corresponding singular ODEs, and the
moving-endpoint interpolation between the half-line and full-line spectra.
"""

__version__ = "0.1.0"

from .analytic import (
    COUPLED_Y1,
    COUPLED_Y2,
    HALF_HO,
    CompositeLevel,
    EigenPair,
    composite_spectrum,
    coupled_y1_eigen,
    coupled_y2_eigen,
    half_ho_eigen,
)
from .core import (
    DomainError,
    FrameError,
    PhaseSpacePoint,
    PhysicalParams,
    dilation,
    from_normal,
    hamiltonian_affine,
    hamiltonian_normal,
    hamiltonian_original,
    poisson_bracket,
    to_normal,
)
from .interp import SweepResult, SweepRow, TruncatedSweepResult, b_sweep, truncated_sweep
from .numeric import (
    ConvergenceError,
    EigenResult,
    Grid,
    GridPolicy,
    Level,
    ProblemSpec,
    TridiagonalMatrix,
    assemble,
    eigenvector,
    lowest_eigenvalues,
    potential_of,
    solve,
)
from .specfun import (
    QuadratureError,
    confluent_1f1_neg,
    hermite,
    integrate_halfline,
    laguerre_assoc,
)

__all__ = [
    "__version__",
    "PhysicalParams", "PhaseSpacePoint",
    "FrameError", "DomainError",
    "to_normal", "from_normal", "dilation",
    "hamiltonian_original", "hamiltonian_normal", "hamiltonian_affine",
    "poisson_bracket",
    "confluent_1f1_neg", "hermite", "laguerre_assoc", "integrate_halfline",
    "QuadratureError",
    "EigenPair", "CompositeLevel", "HALF_HO", "COUPLED_Y1", "COUPLED_Y2",
    "half_ho_eigen", "coupled_y1_eigen", "coupled_y2_eigen",
    "composite_spectrum",
    "Grid", "GridPolicy", "ProblemSpec", "TridiagonalMatrix", "EigenResult", "Level",
    "ConvergenceError", "potential_of", "assemble", "lowest_eigenvalues",
    "eigenvector", "solve",
    "SweepRow", "SweepResult", "TruncatedSweepResult", "b_sweep", "truncated_sweep",
]
