"""Interpolation study between the half-line and full-line oscillators.

The hard boundary of the half-line problem sits at x = -b while the well stays
centered at x = 0.  At b = 0 the spectrum is the half-line ladder
2(n+1) hbar omega; as b grows it approaches the full-line ladder
(n + 1/2) hbar omega.  b_sweep tabulates the computed levels together with
their deviations from both reference ladders; truncated_sweep compares the
exact boundary term 3/(4(x+b)^2) against its power-series truncations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .core import PhysicalParams
from .numeric import GridPolicy, ProblemSpec, solve


@dataclass(frozen=True)
class SweepRow:
    b: float
    n: int
    energy: float
    dev_half: float  # |E - 2(n+1) hbar omega|
    dev_full: float  # |E - (n+1/2) hbar omega|


@dataclass(frozen=True)
class SweepResult:
    rows: List[SweepRow]
    grid_meta: Dict[float, Tuple[int, float, float]]  # b -> (N, x_min, x_max)


@dataclass(frozen=True)
class TruncatedSweepResult:
    b: float
    energies: Dict[int, List[float]]  # expansion order -> spectrum
    exact: List[float]  # hext1 spectrum at the same b
    note: str = (
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
    if any(b < 0 for b in b_values):
        raise ValueError("b values must be nonnegative")
    if sorted(b_values) != b_values:
        raise ValueError("b values must be ascending")

    hw = params.hbar * params.omega
    rows: List[SweepRow] = []
    grid_meta: Dict[float, Tuple[int, float, float]] = {}
    for b in b_values:
        spec = ProblemSpec(kind="hext1", params=params, b=b)
        result = solve(spec, k, policy)
        grid = result.grid
        grid_meta[b] = (grid.n, grid.x_min, grid.x_max)
        for n, _, energy, _ in result.levels:
            rows.append(
                SweepRow(
                    b=b,
                    n=n,
                    energy=energy,
                    dev_half=abs(energy - 2.0 * (n + 1) * hw),
                    dev_full=abs(energy - (n + 0.5) * hw),
                )
            )
    return SweepResult(rows=rows, grid_meta=grid_meta)


def truncated_sweep(
    params: PhysicalParams,
    b: float,
    orders: Sequence[int],
    k: int,
    policy: Optional[GridPolicy] = None,
) -> TruncatedSweepResult:
    """Spectra of the series-truncated potential per order, next to the exact one."""
    if b <= 0:
        raise ValueError(f"truncated sweep needs b > 0, got {b}")
    orders = list(orders)
    if any(o not in range(5) for o in orders):
        raise ValueError(f"orders must lie in 0..4, got {orders}")

    exact_spec = ProblemSpec(kind="hext1", params=params, b=b)
    exact = [e for _, _, e, _ in solve(exact_spec, k, policy).levels]

    energies: Dict[int, List[float]] = {}
    for order in orders:
        spec = ProblemSpec(kind="truncated", params=params, b=b, order=order)
        energies[order] = [e for _, _, e, _ in solve(spec, k, policy).levels]
    return TruncatedSweepResult(b=b, energies=energies, exact=exact)
