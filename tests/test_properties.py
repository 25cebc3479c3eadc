"""Property tests: fuzzed ``coupled``, ``specfun``, ``spectrum`` and ``sweep`` command lines.

Whatever the flag values, the command must end with a documented exit code,
JSON output must parse, a failure must be reported on exactly one stderr
line, and a success must raise no warning and write nothing to stderr but,
for ``spectrum`` and ``sweep``, the one line that flags an error estimate
above ``cli.ERR_EST_WARN``.  Flag text that does not parse, an unknown flag
and a missing subcommand are validation errors.  And ``numeric.solve`` checks
its inputs in ``coarse_grid`` alone, before it builds a matrix; where that gate
passes with ``check_truncation``, the re-solve's domain reaches 1.5x as far out
at the same spacing.  Every public entry point that takes a count (levels,
cells, a level number, a degree, an expansion order) accepts an int in range
and gives the result it always gave, and refuses anything else with
``core.require_int``'s ValueError before LAPACK is bound or called; and so
does every one that takes a real number (m, omega, hbar, g, b, grid ends, h,
lam, the special functions' parameters, phase-space coordinates and the
command line's floats) with
``core.require_real``'s, for a bool, a string, None, an int beyond float
range, NaN, an infinity or a number below its bound.  The one
comparison of ``affineosc check`` is the largest deviation against its bound,
and it fails on a NaN or an infinity wherever it sits.
"""

import argparse
import contextlib
import functools
import io
import json
import math
import warnings
from typing import Callable, NamedTuple, Optional
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affineosc import analytic, checks, core, interp, numeric, specfun
from affineosc.analytic import COUPLED_Y1, COUPLED_Y2, HALF_HO, CompositeLevel
from affineosc.cli import COMMANDS, SPECFUN_NAMES, RunConfig, build_parser, main
from affineosc.core import PhaseSpacePoint, PhysicalParams
from affineosc.numeric import KIND_FACTS, KINDS, MAX_COARSE_N, GridPolicy, ProblemSpec
from oracles import branch_energy_chain, f1_numpy, hermite_numpy, laguerre_numpy

FUZZ = settings(max_examples=60, deadline=None, derandomize=True, database=None)

any_float = st.floats(allow_nan=True, allow_infinity=True)
# Absent flags and values in range are drawn often enough that about a third
# of the coupled runs get past validation: m, omega >= 1 admit every g in (0, 1).
scale = st.one_of(st.none(), st.floats(1.0, 20.0), any_float)


def absent_or(valid):
    return st.one_of(st.none(), valid)


def flag_group(valid, invalid):
    """Flag values from one dict of strategies, or from the other.

    The solver runs draw their flags in three such groups (physics, problem,
    grid), each in range most of the time, so that a good share of the runs
    get past validation and into the eigensolver.  Hypothesis favours small
    integers, so i == 0 comes up more often than one time in six.
    """
    return st.integers(0, 5).flatmap(
        lambda i: st.fixed_dictionaries(valid if i else invalid)
    )


# m, omega >= 1 admit every g in (0, 1)
physics = flag_group(
    {"m": absent_or(st.floats(1.0, 4.0)), "omega": absent_or(st.floats(1.0, 4.0)),
     "hbar": absent_or(st.floats(1.0, 4.0)), "g": st.floats(0.01, 0.99)},
    {"m": scale, "omega": scale, "hbar": scale, "g": st.one_of(st.floats(0.01, 0.99), any_float)},
)
# b up to 20 keeps the auto-sized grid small; the huge values of any_float
# reach the grid cap, and so do the two grid sizes above it
offset = st.floats(0.0, 20.0)
grid = flag_group(
    {"levels": absent_or(st.integers(1, 5)), "grid-n": absent_or(st.integers(16, 2000))},
    {"levels": st.sampled_from([None, 0, -1, 1001, 3]),
     "grid-n": st.sampled_from([None, 0, 15, MAX_COARSE_N + 1, 10**9])},
)


def _flags(**values):
    """``--name=value`` for each value that is not None; '=' keeps '-inf' a value."""
    argv = []
    for name, value in values.items():
        if value is None:
            continue
        if isinstance(value, list):
            value = ",".join(map(repr, value))
        argv.append(f"--{name}={value!r}" if isinstance(value, float) else f"--{name}={value}")
    return argv


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # the exit code of a process that runs main
                code = exc.code
    return code, out.getvalue(), err.getvalue()


def check_contract(argv, fmt):
    code, out, err = run_cli(argv)
    assert code in (0, 1, 2, 3)
    if code == 0:
        assert err == "" or (err.startswith("warning: ") and err.count("\n") == 1), err
        assert err == "" or argv[0] in ("spectrum", "sweep"), err
        if fmt == "json":
            json.loads(out)
    else:
        assert err.endswith("\n") and err.count("\n") == 1, err


@FUZZ
@given(
    m=scale,
    omega=scale,
    hbar=scale,
    g=st.one_of(st.floats(0.01, 0.99), any_float),
    count=st.integers(-2, 2000),
    fmt=st.sampled_from(["csv", "json"]),
)
def test_coupled_contract(m, omega, hbar, g, count, fmt):
    argv = ["coupled", *_flags(m=m, omega=omega, hbar=hbar, g=g, count=count, format=fmt)]
    check_contract(argv, fmt)


@FUZZ
@given(
    fn=st.sampled_from(SPECFUN_NAMES),
    n=st.integers(-2, 64),
    param=st.one_of(st.none(), st.floats(0.05, 20.0), any_float),
    points=st.lists(any_float, max_size=5),
    fmt=st.sampled_from(["csv", "json"]),
)
def test_specfun_contract(fn, n, param, points, fmt):
    argv = ["specfun", *_flags(fn=fn, n=n, param=param, points=points, format=fmt)]
    check_contract(argv, fmt)


@FUZZ
@given(
    kind=st.sampled_from(KINDS),
    physics=physics,
    problem=flag_group(
        {"b": absent_or(offset), "order": absent_or(st.integers(0, 4))},
        {"b": st.one_of(offset, any_float), "order": st.integers(-1, 5)},
    ),
    grid=grid,
    samples=absent_or(st.integers(-1, 40)),
    fmt=st.sampled_from(["csv", "json"]),
)
def test_spectrum_contract(kind, physics, problem, grid, samples, fmt):
    argv = ["spectrum", *_flags(kind=kind, **physics, **problem, **grid, samples=samples,
                                format=fmt)]
    check_contract(argv, fmt)


@FUZZ
@given(
    physics=physics,
    b_values=flag_group(
        {"b-values": absent_or(st.lists(offset, max_size=3).map(sorted))},
        {"b-values": st.lists(st.one_of(offset, any_float), max_size=3)},
    ),
    grid=grid,
    fmt=st.sampled_from(["csv", "json"]),
)
def test_sweep_contract(physics, b_values, grid, fmt):
    argv = ["sweep", *_flags(**physics, **b_values, **grid, format=fmt)]
    check_contract(argv, fmt)


def value_flags(command):
    """(flag, choices) for each flag of command that takes a value other than a path."""
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return [(a.option_strings[0], a.choices) for a in sub.choices[command]._actions
            if a.nargs is None and a.option_strings[0] not in ("--config", "--out")]


def is_number(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


def malformed(choices):
    """Flag text that no converter accepts: outside the choices, or holding a
    comma-separated part that is no number, so that no draw starts a solve."""
    if choices:
        return st.text().filter(lambda text: text not in choices)
    return st.text().filter(
        lambda text: any(part.strip() and not is_number(part) for part in text.split(","))
    )


def bad_value(command):
    return st.sampled_from(value_flags(command)).flatmap(
        lambda flag: malformed(flag[1]).map(lambda text: [command, f"{flag[0]}={text}"])
    )


# no flag of any subcommand starts with --x, so no abbreviation matches these
unknown_flag = st.tuples(st.sampled_from(list(COMMANDS)), st.text()).map(
    lambda drawn: [drawn[0], "--x-" + drawn[1], "1"]
)
no_command = st.one_of(
    st.just([]),
    st.text().filter(lambda text: text not in COMMANDS and not text.startswith("-")).map(
        lambda text: [text]
    ),
)


@FUZZ
# check takes no value flag, and sampled_from rejects an empty list
@given(argv=st.one_of(*[bad_value(c) for c in COMMANDS if value_flags(c)], unknown_flag,
                      no_command))
def test_malformed_command_line_is_one_line_validation_error(argv):
    code, out, err = run_cli(argv)
    assert (code, out) == (1, ""), argv
    assert err.startswith("validation error:") and err.count("\n") == 1, err
    assert err.endswith("\n")


class Assembled(Exception):
    """Raised in place of ``numeric.assemble``: the solve got past its input checks."""


@FUZZ
@given(
    kind=st.sampled_from(KINDS),
    # up to the grid cap: at b = 3e4 hext1's coarse grid is over it, and the
    # 1.5x wider one of check_truncation is from about b = 1.7e4
    b=st.floats(math.log(0.5), math.log(3e4)).map(math.exp),
    order=st.integers(0, 4),
    k=st.integers(-2, 60),
    # small grids too, where k can exceed N
    n=st.one_of(st.none(), st.integers(16, 64), st.integers(16, 2000),
                st.just(MAX_COARSE_N - 1), st.just(MAX_COARSE_N + 1)),
    check_truncation=st.booleans(),
)
def test_solve_checks_its_inputs_in_coarse_grid(kind, b, order, k, n, check_truncation):
    facts = KIND_FACTS[kind]
    spec = ProblemSpec(kind, PhysicalParams(g=0.6), b=b if facts.takes_b else None,
                       order=order if facts.series else None)
    policy = GridPolicy(n=n, check_truncation=check_truncation)
    try:
        numeric.coarse_grid(spec, k, policy)
        gate = None
    except ValueError as exc:
        gate = str(exc)
    with mock.patch.object(numeric, "assemble", side_effect=Assembled):
        with pytest.raises((ValueError, Assembled)) as caught:
            numeric.solve(spec, k, policy)
    # the same ValueError as coarse_grid, or none before the first matrix
    assert (str(caught.value) if caught.type is ValueError else None) == gate


@FUZZ
@given(
    kind=st.sampled_from(KINDS),
    b=st.floats(math.log(0.5), math.log(3e4)).map(math.exp),
    order=st.integers(0, 4),
    k=st.integers(-2, 60),
)
def test_truncation_resolve_is_one_and_a_half_times_out(kind, b, order, k):
    facts = KIND_FACTS[kind]
    spec = ProblemSpec(kind, PhysicalParams(g=0.6), b=b if facts.takes_b else None,
                       order=order if facts.series else None)
    policy = GridPolicy(check_truncation=True)
    try:
        numeric.coarse_grid(spec, k, policy)
    except ValueError:
        return
    grids = []
    # grids only: no matrix is built, and every grid gives the same eigenvalues
    with mock.patch.object(numeric, "assemble", side_effect=lambda spec, grid: grids.append(grid)), \
            mock.patch.object(numeric, "lowest_eigenvalues", side_effect=lambda m, k: [1.0] * k):
        numeric.solve(spec, k, policy)
    # finest, fine and coarse grid of the solve, then of the re-solve
    assert len(grids) == 6
    finest, wide = grids[0], grids[3]
    assert wide.x_max == 1.5 * finest.x_max and wide.x_min <= finest.x_min
    # the same spacing, up to rounding the wide domain to whole coarse cells
    assert abs(wide.h - finest.h) <= 2.0 * finest.h / wide.n * (1.0 + 1e-12)
    assert wide.n >= finest.n


class Count(NamedTuple):
    """A public entry point that takes a count, as a function of that count alone."""

    name: str  # the count's name in require_int's messages
    least: int
    most: Optional[int]
    call: Callable  # count -> result
    expected: Callable  # a valid count -> the result, computed another way
    none_is_default: bool = False  # None is valid: "size it for me"

    def valid(self, count) -> bool:
        if count is None:
            return self.none_is_default
        return type(count) is int and self.least <= count and (self.most is None
                                                               or count <= self.most)


PARAMS = PhysicalParams(g=0.6)
EQINTRO = ProblemSpec("eqintro", PARAMS)
HEXT1 = ProblemSpec("hext1", PARAMS, b=0.0)
# 32 cells: the solves stay cheap, and k from 33 up is refused against the grid
SMALL = GridPolicy(n=32, domain=(0.0, 12.0))
LAPLACIAN_N = 40


@functools.cache
def laplacian():
    """The matrix tridiag(-1, 2, -1) of order LAPLACIAN_N, built once, outside any sentinel."""
    return numeric.TridiagonalMatrix([2.0] * LAPLACIAN_N, [-1.0] * (LAPLACIAN_N - 1))


def solved_lams(spec, k, policy):
    """lowest_eigenvalues on the finest grid of solve(spec, k, policy), called directly."""
    finest = numeric.coarse_grid(spec, k, policy).refined().refined()
    return numeric.lowest_eigenvalues(numeric.assemble(spec, finest), k)


def default_coarse_grid(n):
    """eqintro's coarse grid at k = 4 with n cells; None is its auto size, 170 cells."""
    return (*numeric.default_domain(EQINTRO, 4), 170 if n is None else n)


def composite_brute_force(k):
    e1 = [branch_energy_chain(COUPLED_Y1, n, PARAMS) for n in range(k)]
    e2 = [branch_energy_chain(COUPLED_Y2, n, PARAMS) for n in range(k)]
    merged = sorted((a + b, n1, n2) for n1, a in enumerate(e1) for n2, b in enumerate(e2))
    return [CompositeLevel(n1, n2, energy) for energy, n1, n2 in merged[:k]]


def on_small_grids(spec, k):
    """solve on 64 coarse cells of the kind's domain for k = 1: cheap for every k up to 60."""
    return numeric.solve(spec, k, GridPolicy(n=64, domain=numeric.default_domain(spec, 1)))


def energies(spec, k):
    return [level.energy for level in on_small_grids(spec, k).levels]


def truncated_sweep_k(k):
    """truncated_sweep's (energies, exact) at k, its solves on small grids; it checks k first."""
    with mock.patch.object(interp, "solve", on_small_grids):
        return interp.truncated_sweep(PARAMS, 1.0, [0], k)[1:]


def eigen_case(function, branch):
    return Count("quantum number", 0, None, lambda n: function(n, PARAMS)[:3],
                 lambda n: (n, branch_energy_chain(branch, n, PARAMS), branch))


COUNTS = {
    "solve": Count("levels", 1, SMALL.n, lambda k: [lv.lam_fine for lv in numeric.solve(
        EQINTRO, k, SMALL).levels], lambda k: solved_lams(EQINTRO, k, SMALL)),
    "coarse_grid-policy-n": Count("cell count", 16, None, lambda n: numeric.coarse_grid(
        EQINTRO, 4, GridPolicy(n=n)), default_coarse_grid, none_is_default=True),
    "Grid": Count("cell count", 16, None, lambda n: numeric.Grid(0.0, 1.0, n),
                  lambda n: (0.0, 1.0, n)),
    "ProblemSpec-order": Count("order", 0, 4, lambda order: ProblemSpec(
        "truncated", b=1.0, order=order), lambda order: ("truncated", PhysicalParams(), 1.0, order)),
    "lowest_eigenvalues": Count("k", 1, LAPLACIAN_N, lambda k: numeric.lowest_eigenvalues(
        laplacian(), k), lambda k: pytest.approx([2.0 - 2.0 * math.cos(j * math.pi / (
            LAPLACIAN_N + 1)) for j in range(1, k + 1)], rel=0, abs=1e-11)),
    "half_ho_eigen": eigen_case(analytic.half_ho_eigen, HALF_HO),
    "coupled_y1_eigen": eigen_case(analytic.coupled_y1_eigen, COUPLED_Y1),
    "coupled_y2_eigen": eigen_case(analytic.coupled_y2_eigen, COUPLED_Y2),
    **{f"branch_energy-{branch}": Count(
        "quantum number", 0, None, functools.partial(analytic.branch_energy, branch,
                                                     params=PARAMS),
        functools.partial(branch_energy_chain, branch, params=PARAMS))
       for branch in (HALF_HO, COUPLED_Y1, COUPLED_Y2)},
    "composite_spectrum": Count("count", 1, None, lambda count: analytic.composite_spectrum(
        PARAMS, count), composite_brute_force),
    "hermite": Count("polynomial degree", 0, None, lambda n: specfun.hermite(n, 0.7),
                     lambda n: hermite_numpy(n, 0.7)),
    "confluent_1f1_neg": Count("polynomial degree", 0, None, lambda n: specfun.confluent_1f1_neg(
        n, 2.0, 0.7), lambda n: f1_numpy(n, 2.0, 0.7)),
    "laguerre_assoc": Count("polynomial degree", 0, None, lambda n: specfun.laguerre_assoc(
        n, 1.0, 0.7), lambda n: laguerre_numpy(n, 1.0, 0.7)),
    "b_sweep": Count("levels", 1, SMALL.n, lambda k: [row.energy for row in interp.b_sweep(
        PARAMS, [0.0], k, SMALL).rows], lambda k: [lv.energy for lv in numeric.solve(
            HEXT1, k, SMALL).levels]),
    "truncated_sweep-k": Count("levels", 1, None, truncated_sweep_k, lambda k: (
        {0: energies(ProblemSpec("truncated", PARAMS, b=1.0, order=0), k)},
        energies(ProblemSpec("hext1", PARAMS, b=1.0), k))),
    "truncated_sweep-order": Count("order", 0, 4, lambda order: interp.truncated_sweep(
        PARAMS, 1.0, [order], 1).energies, lambda order: {order: [numeric.solve(ProblemSpec(
            "truncated", PARAMS, b=1.0, order=order), 1).levels[0].energy]}),
}

# ints in and out of range, and everything that is not an int but could pass for one
counts = st.one_of(
    st.integers(-3, 60),
    st.booleans(),
    st.integers(-3, 60).map(float),
    st.floats(-3.0, 60.0).filter(lambda x: not x.is_integer()),
    st.integers(-3, 60).map(np.int64),
    st.none(),
    st.just("3"),
)


def no_lapack():
    raise AssertionError("LAPACK was bound or called for a value the checks refuse")


@pytest.mark.parametrize("entry", COUNTS)
@FUZZ
@given(count=counts)
def test_every_count_is_an_int_checked_before_any_work(entry, count):
    case = COUNTS[entry]
    if case.valid(count):
        assert case.call(count) == case.expected(count)
        return
    laplacian()  # lowest_eigenvalues' matrix, built before the sentinel goes in
    # every matrix is prescaled by BLAS when built, so this also catches a matrix
    with mock.patch.object(numeric, "_lapack", no_lapack):
        with pytest.raises(ValueError) as caught:
            case.call(count)
    assert str(caught.value).startswith(f"{case.name} must be "), str(caught.value)


class Real(NamedTuple):
    """A public entry point that takes a real number, as a function of that number alone."""

    name: str  # the number's name in require_real's messages
    call: Callable  # value -> result
    expected: Callable  # a valid value -> the result, computed another way
    valid: st.SearchStrategy  # ints and floats the entry point takes
    out_of_range: tuple = ()  # finite numbers below its bound
    none_is_default: bool = False  # None is valid: "not set"


@functools.cache
def two_by_two():
    """tridiag(-1, 2, -1) of order 2: eigenvalues 1 and 3, eigenvectors (1, 1) and (1, -1)."""
    return numeric.TridiagonalMatrix([2.0, 2.0], [-1.0])


def positive(most=1e3):
    return st.one_of(st.integers(1, int(most)), st.floats(1e-3, most))


def physical(name, valid, out_of_range=()):
    return Real(name, lambda v: PhysicalParams(**{name: v}),
                lambda v: PhysicalParams()._replace(**{name: float(v)}), valid, out_of_range)


def point_case(field):
    """PhaseSpacePoint with field set, in the original frame, the others fixed."""
    base = dict(q1=0.9, q2=0.6, p1=0.4, p2=-1.3)
    valid = (st.one_of(st.integers(0, 10**6), st.floats(0.0, 1e300)) if field[0] == "q"
             else st.one_of(st.integers(-10**6, 10**6), st.floats(-1e300, 1e300)))
    return Real(field, lambda v: PhaseSpacePoint(**{**base, field: v}),
                lambda v: (*{**base, field: float(v)}.values(), core.ORIGINAL), valid)


def affine_case(name, valid, out_of_range=()):
    """hamiltonian_affine with argument name set, the others fixed, against the
    canonical Hamiltonian at p_y1 = d_y1 / y1."""
    base = dict(y1=1.5, d_y1=2.0, y2=0.5, p_y2=0.3)

    def canonical(v):
        y1, d_y1, y2, p_y2 = {**base, name: float(v)}.values()
        point = PhaseSpacePoint(y1, y2, d_y1 / y1, p_y2, frame=core.NORMAL)
        return pytest.approx(core.hamiltonian_normal(point, PARAMS), rel=1e-12)

    return Real(name, lambda v: core.hamiltonian_affine(**{**base, name: v}, params=PARAMS),
                canonical, valid, out_of_range)


def unit_vector(lam, h):
    """two_by_two()'s eigenvector for lam near 1 or 3, with h * sum(v^2) = 1."""
    norm = math.sqrt(2.0 * h)
    return pytest.approx([1.0 / norm, math.copysign(1.0 / norm, 2.0 - lam)], rel=1e-12)


REALS = {
    **{f"PhysicalParams-{name}": physical(name, positive(), (0, -1.0))
       for name in ("m", "omega", "hbar")},
    "PhysicalParams-g": physical("g", st.one_of(st.just(0), st.floats(-0.99, 0.99))),
    "ProblemSpec-b": Real("b", lambda b: ProblemSpec("hext1", PARAMS, b=b),
                          lambda b: ("hext1", PARAMS, float(b), None),
                          st.one_of(st.integers(0, 20), st.just(0.0), st.floats(1e-3, 20.0)),
                          (-1, -1e-3)),
    "Grid-x_min": Real("x_min", lambda x: numeric.Grid(x, 50.0, 16), lambda x: (float(x), 50.0, 16),
                       st.one_of(st.integers(-20, 20), st.floats(-20.0, 20.0))),
    "Grid-x_max": Real("x_max", lambda x: numeric.Grid(-50.0, x, 16),
                       lambda x: (-50.0, float(x), 16),
                       st.one_of(st.integers(-20, 20), st.floats(-20.0, 20.0))),
    "GridPolicy-domain": Real("grid domain", lambda x: GridPolicy(domain=(0.0, x)),
                              lambda x: (None, (0.0, float(x)), False), positive(50.0)),
    "eigenvector-h": Real("h", lambda h: list(numeric.eigenvector(two_by_two(), 1.0, h)),
                          lambda h: unit_vector(1.0, h), positive(), (0, -1.0)),
    "eigenvector-lam": Real("lam", lambda lam: list(numeric.eigenvector(two_by_two(), lam, 0.5)),
                            lambda lam: unit_vector(lam, 0.5),
                            st.one_of(st.sampled_from([1, 3]), st.floats(1.0 - 1e-9, 1.0 + 1e-9),
                                      st.floats(3.0 - 1e-9, 3.0 + 1e-9))),
    "confluent_1f1_neg": Real("b_param", lambda p: specfun.confluent_1f1_neg(3, p, 0.7),
                              lambda p: f1_numpy(3, float(p), 0.7), positive(50.0), (0, -1.0)),
    "laguerre_assoc": Real("alpha", lambda a: specfun.laguerre_assoc(3, a, 0.7),
                           lambda a: laguerre_numpy(3, float(a), 0.7),
                           st.one_of(st.integers(0, 50), st.floats(-0.999, 50.0)), (-1, -2.5)),
    **{f"PhaseSpacePoint-{field}": point_case(field) for field in ("q1", "q2", "p1", "p2")},
    "dilation-q": Real("q", lambda q: core.dilation(q, -1.5), lambda q: -1.5 * float(q),
                       st.one_of(st.integers(-10**6, 10**6), st.floats(-1e300, 1e300))),
    "dilation-p": Real("p", lambda p: core.dilation(2.0, p), lambda p: float(p) * 2.0,
                       st.one_of(st.integers(-10**6, 10**6), st.floats(-1e300, 1e300))),
    "hamiltonian_affine-y1": affine_case("y1", positive(), (0, -1.0)),
    **{f"hamiltonian_affine-{name}": affine_case(name, st.one_of(
        st.integers(-10**6, 10**6), st.floats(-1e100, 1e100))) for name in ("d_y1", "y2", "p_y2")},
    "RunConfig-m": Real("field 'm'", lambda m: RunConfig("spectrum", m=m).m, float,
                        st.one_of(st.integers(-10**6, 10**6), st.floats(-1e300, 1e300))),
    "RunConfig-b": Real("field 'b'", lambda b: RunConfig("spectrum", b=b).b,
                        lambda b: None if b is None else float(b),
                        st.one_of(st.none(), st.integers(-10**6, 10**6), st.floats(-1e300, 1e300)),
                        none_is_default=True),
}
# a bool, a string, None, ints beyond float range, NaN and the infinities
NOT_REALS = (True, False, "1", None, 10**400, -10**400, math.nan, math.inf, -math.inf)


@pytest.mark.parametrize("entry", REALS)
def test_every_real_is_checked_before_any_work(entry):
    case = REALS[entry]
    two_by_two()  # eigenvector's matrix, built before the sentinel goes in
    refused = [v for v in NOT_REALS if v is not None or not case.none_is_default]
    for value in [*refused, *case.out_of_range]:
        with mock.patch.object(numeric, "_lapack", no_lapack):
            with pytest.raises(ValueError) as caught:
                case.call(value)
        assert str(caught.value).startswith(f"{case.name} must be "), (value, str(caught.value))


@pytest.mark.parametrize("entry", REALS)
@FUZZ
@given(data=st.data())
def test_every_real_in_range_gives_its_result(entry, data):
    case = REALS[entry]
    value = data.draw(case.valid)
    assert case.call(value) == case.expected(value)


no_nan = st.floats(allow_nan=False)
finite = st.floats(allow_nan=False, allow_infinity=False)


@FUZZ
@given(deviations=st.lists(no_nan, max_size=8), bound=finite)
def test_check_comparison_is_max_and_fails_an_infinity(deviations, bound):
    worst = max(deviations, default=0.0)
    expected = ("c", worst <= bound, f"max {worst:.3e}")
    assert checks._within("c", bound, "max", deviations) == expected
    if math.inf in deviations:
        assert not checks._within("c", bound, "max", deviations)[1]


@FUZZ
@given(deviations=st.lists(no_nan, max_size=8), bound=no_nan, data=st.data())
def test_check_comparison_fails_a_nan_wherever_it_sits(deviations, bound, data):
    at = data.draw(st.integers(0, len(deviations)))
    deviations.insert(at, math.nan)
    assert checks._within("c", bound, "max", iter(deviations)) == ("c", False, "max nan")
