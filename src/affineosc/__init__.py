"""Spectral toolkit for half-line and coupled oscillator problems.

Closed-form eigenpairs for the half harmonic oscillator and the decoupled
normal modes of two coupled half-line oscillators, a finite-volume
Sturm-Liouville eigensolver for the corresponding singular ODEs, and the
moving-endpoint interpolation between the half-line and full-line spectra.

Import the module that holds a name; the package itself loads none of them:

    from affineosc import numeric
    numeric.solve(numeric.ProblemSpec(kind="eqintro"), 4)

``core`` holds the physical parameters, phase-space frames and Hamiltonians;
``specfun`` the special functions; ``analytic`` the closed-form eigenpairs;
``numeric`` the eigensolver; ``interp`` the moving-endpoint sweeps; ``checks``
the invariant suite; ``cli`` the ``affineosc`` command.
"""

__version__ = "0.1.0"
