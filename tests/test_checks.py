"""Every check of ``affineosc check`` fails when a value it compares is NaN.

Each case replaces one module attribute the check reaches, so that one value
it compares turns NaN, and the check must report FAIL with ``nan`` in its
detail (node counts name the level instead).  ``max`` skips a NaN unless it
comes first, so a check that keeps its own ``max`` would pass most of these.
The convergence check also fails on an h^2 log h error term, and it reads
its ratios from ``numeric.solve``'s own grids.
"""

import math
from unittest import mock

import pytest

from affineosc import analytic, checks, core, numeric, specfun
from affineosc.cli import main


def nan_where(function, when):
    """function, with NaN in place of its value wherever when(*args) holds."""
    return lambda *args: math.nan if when(*args) else function(*args)


def q1_nan(from_normal):
    """from_normal, with NaN in place of each result's q1."""
    return lambda pt: from_normal(pt)._replace(q1=math.nan)


def last_eigenvalue_nan(calls=None):
    """lowest_eigenvalues with its last value NaN: on every call, or only on those numbered."""
    original, seen = numeric.lowest_eigenvalues, []

    def lowest(matrix, k):
        values = original(matrix, k)
        seen.append(None)
        if calls is None or len(seen) in calls:
            values[-1] = math.nan
        return values

    return lowest


def levels_mapped(factory, change):
    """factory, whose wavefunctions pass each level's value through change(k, alpha, x, value).

    Both ways to evaluate are mapped: phi(x), the top level alone, and
    phi(x, levels), every level of the one recurrence pass.
    """

    def mapped(n, alpha):
        phi = factory(n, alpha)

        def mapped_phi(x, levels=()):
            own = [[] for _ in levels]
            value = change(n, alpha, x, phi(x, own))
            for k, (sink, (psi,)) in enumerate(zip(levels, own)):
                sink.append(change(k, alpha, x, psi))
            return value

        return mapped_phi

    return mapped


def halfline_level_nan(level, where):
    """_halfline_wavefunction whose given level is NaN wherever where(x) holds."""
    return levels_mapped(analytic._halfline_wavefunction, lambda k, alpha, x, value: (
        math.nan if k == level and where(x) else value))


# check -> (module, attribute, replacement factory, what the detail must show); each
# factory runs before its patch, so it wraps the original attribute
INJECTIONS = {
    "frame_round_trip": (core, "from_normal", lambda: q1_nan(core.from_normal), "nan"),
    "hamiltonian_equivalence": (core, "hamiltonian_normal", lambda: lambda *a: math.nan, "nan"),
    "affine_identity": (core, "hamiltonian_normal", lambda: lambda *a: math.nan, "nan"),
    "bracket_table": (core, "poisson_bracket", lambda: lambda *a: math.nan, "nan"),
    "laguerre_1f1_identity": (specfun, "laguerre_assoc", lambda: nan_where(
        specfun.laguerre_assoc, lambda n, a, x: n == 5), "nan"),
    "hermite_parity": (specfun, "hermite", lambda: nan_where(
        specfun.hermite, lambda n, x: x < 0), "nan"),
    "laguerre_orthogonality": (specfun, "laguerre_assoc", lambda: nan_where(
        specfun.laguerre_assoc, lambda n, a, x: n == 5), "nan"),
    "equal_spacing": (analytic, "branch_energy", lambda: nan_where(
        analytic.branch_energy, lambda branch, n, params: n == 2), "nan"),
    "orthonormality": (analytic, "_halfline_wavefunction", lambda: halfline_level_nan(
        3, lambda x: True), "nan"),
    "node_counts": (analytic, "_halfline_wavefunction", lambda: halfline_level_nan(
        0, lambda x: x > 1), "half_ho n=0"),
    "numeric_vs_analytic": (analytic, "branch_energy", lambda: nan_where(
        analytic.branch_energy, lambda branch, n, params: n == 2), "nan"),
    "convergence_order": (numeric, "lowest_eigenvalues", last_eigenvalue_nan, "nan"),
    # only the shifted spectrum: the unshifted one stays increasing
    "variational_shift": (numeric, "lowest_eigenvalues", lambda: last_eigenvalue_nan({2}),
                          "nan"),
    "hext1_b0_matches_eqintro": (numeric, "lowest_eigenvalues", last_eigenvalue_nan, "nan"),
}


def test_every_check_has_an_injection():
    assert [f"check_{name}" for name in INJECTIONS] == [c.__name__ for c in checks.ALL_CHECKS]


@pytest.mark.parametrize("name", INJECTIONS)
def test_nan_fails_its_check(name):
    module, attribute, replacement, shown = INJECTIONS[name]
    check = getattr(checks, f"check_{name}")
    assert check()[1], "the check fails without an injection"
    with mock.patch.object(module, attribute, replacement()):
        _, ok, detail = check()
    assert not ok and shown in detail, detail


def test_check_command_exits_2_on_one_failure(capsys):
    with mock.patch.object(core, "poisson_bracket", lambda *a: math.nan):
        assert main(["check"]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(checks.ALL_CHECKS)
    assert [line for line in lines if line.startswith("[FAIL]")] == [
        "[FAIL] Poisson bracket table: max deviation nan (tolerance 1.0e-09)"]


@pytest.mark.parametrize("attribute,wrong", [
    # y1 = x1 + 1.01 x2: {y1, p_y1} = 2.01, and {y1, d_y1} is off as much
    ("to_normal", lambda to_normal: lambda pt: to_normal(pt)._replace(q1=pt.q1 + 1.01 * pt.q2)),
    ("dilation", lambda dilation: lambda q, p: 1.01 * dilation(q, p)),
], ids=["to_normal", "dilation"])
def test_bracket_table_checks_core_own_maps(attribute, wrong):
    with mock.patch.object(core, attribute, wrong(getattr(core, attribute))):
        _, ok, detail = checks.check_bracket_table()
    assert not ok, detail


def h2_log_h_shifted(c):
    """numeric.assemble, with c h^2 ln h added to every diagonal entry: an h^2 log h error."""
    original = numeric.assemble

    def shifted(spec, grid):
        matrix = original(spec, grid)
        s, h = matrix.scale, grid.h  # unscaled exactly, as check_variational_shift does
        return numeric.TridiagonalMatrix([d / s + c * h * h * math.log(h) for d in matrix.diag],
                                         [o / s for o in matrix.off])

    return shifted


@pytest.mark.parametrize("c", [0.1, 1.0])
def test_convergence_check_sees_an_h2_log_h_term(c):
    with mock.patch.object(numeric, "assemble", h2_log_h_shifted(c)):
        _, ok, detail = checks.check_convergence_order()
    assert not ok, detail


CONVERGENCE_SPECS = [
    numeric.ProblemSpec(kind="eqintro"),
    numeric.ProblemSpec(kind="eqo2", params=core.PhysicalParams(g=0.6)),
    numeric.ProblemSpec(kind="hext1", b=1.0),
    numeric.ProblemSpec(kind="truncated", b=5.0, order=4),
]


@pytest.mark.parametrize("spec", CONVERGENCE_SPECS, ids=lambda spec: spec.kind)
def test_convergence_ratios_come_from_solves_grids(spec):
    coarse, fine, finest = numeric.solve(spec, 2).grid_lams
    expected = [(l1 - (4.0 * l4 - l2) / 3.0) / (l2 - (4.0 * l4 - l2) / 3.0)
                for l1, l2, l4 in zip(coarse, fine, finest)]
    assert checks.convergence_ratios(spec) == expected


def test_convergence_check_builds_matrices_only_inside_solve():
    depth, calls = [0], []
    solve, assemble, lowest = numeric.solve, numeric.assemble, numeric.lowest_eigenvalues

    def counted_solve(*args):
        depth[0] += 1
        try:
            return solve(*args)
        finally:
            depth[0] -= 1

    def recorded(name, function):
        return lambda *args: calls.append((name, depth[0])) or function(*args)

    with mock.patch.object(numeric, "solve", counted_solve), \
            mock.patch.object(numeric, "assemble", recorded("assemble", assemble)), \
            mock.patch.object(numeric, "lowest_eigenvalues", recorded("eigvals", lowest)):
        assert checks.check_convergence_order()[1]
    # five specs, three grids each
    assert sorted(calls) == [("assemble", 1)] * 15 + [("eigvals", 1)] * 15
