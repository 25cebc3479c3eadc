"""Interpolation study between the half-line and full-line oscillators.

The hard boundary of the half-line problem sits at x = -b while the well stays
centered at x = 0.  At b = 0 the spectrum is the half-line ladder
2(n+1) hbar omega; as b grows it approaches the full-line ladder
(n + 1/2) hbar omega.  b_sweep tabulates the computed levels together with
their deviations from both reference ladders; truncated_sweep compares the
exact boundary term 3/(4(x+b)^2) against its power-series truncations.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .core import PhysicalParams
from .numeric import GridPolicy, ProblemSpec, coarse_grid, solve


class SweepRow(NamedTuple):
    b: float
    n: int
    energy: float
    dev_half: float  # |E - 2(n+1) hbar omega|
    dev_full: float  # |E - (n+1/2) hbar omega|
    err_est: float  # the level's discretization error estimate, from solve


class SweepResult(NamedTuple):
    rows: List[SweepRow]
    grid_meta: Dict[float, Tuple[int, float, float]]  # b -> (N, x_min, x_max)


class TruncatedSweepResult(NamedTuple):
    b: float
    energies: Dict[int, List[float]]  # expansion order -> spectrum
    exact: List[float]  # hext1 spectrum at the same b
    note = (
        "power-series potential is only valid for |x/b| < 1; solve domains for "
        "order >= 1 are clipped to |x| <= 0.9 b"
    )


def b_sweep(
    params: PhysicalParams,
    b_values: Sequence[float],
    k: int,
    policy: Optional[GridPolicy] = None,
) -> SweepResult:
    """Solve the moving-endpoint problem for each b and tabulate deviations."""
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    b_values = list(b_values)
    # strictly ascending: no b twice (0 == -0), and a negative b fails before any solve
    if any(lo >= hi for lo, hi in zip(b_values, b_values[1:])):
        raise ValueError("b values must be strictly ascending")

    specs = [ProblemSpec(kind="hext1", params=params, b=b) for b in b_values]
    for spec in specs:  # every b and its grid cap checked before the first solve
        coarse_grid(spec, k, policy)
    hw = params.hbar * params.omega
    rows: List[SweepRow] = []
    grid_meta: Dict[float, Tuple[int, float, float]] = {}
    for b, spec in zip(b_values, specs):
        result = solve(spec, k, policy)
        grid = result.grid
        grid_meta[b] = (grid.n, grid.x_min, grid.x_max)
        for level, err_est in zip(result.levels, result.err_est):
            n, energy = level.n, level.energy
            rows.append(SweepRow(b, n, energy, dev_half=abs(energy - 2.0 * (n + 1) * hw),
                                 dev_full=abs(energy - (n + 0.5) * hw), err_est=err_est))
    return SweepResult(rows=rows, grid_meta=grid_meta)


def truncated_sweep(
    params: PhysicalParams,
    b: float,
    orders: Sequence[int],
    k: int,
) -> TruncatedSweepResult:
    """Spectra of the series-truncated potential per order, next to the exact one."""
    # every spec before the first solve: ProblemSpec checks b and each order
    specs = {order: ProblemSpec(kind="truncated", params=params, b=b, order=order)
             for order in orders}
    exact_spec = ProblemSpec(kind="hext1", params=params, b=b)
    exact = [level.energy for level in solve(exact_spec, k).levels]
    energies = {order: [level.energy for level in solve(spec, k).levels]
                for order, spec in specs.items()}
    return TruncatedSweepResult(b=b, energies=energies, exact=exact)
