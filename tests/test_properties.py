"""Property tests: fuzzed ``coupled``, ``specfun``, ``spectrum`` and ``sweep`` command lines.

Whatever the flag values, the command must end with a documented exit code,
JSON output must parse, a failure must be reported on exactly one stderr
line, and a success must raise no warning and write nothing to stderr but,
for ``spectrum`` and ``sweep``, the one line that flags an error estimate
above ``cli.ERR_EST_WARN``.  Flag text that does not parse, an unknown flag
and a missing subcommand are validation errors.  And ``numeric.solve`` checks
its inputs in ``coarse_grid`` alone, before it builds a matrix.
"""

import argparse
import contextlib
import io
import json
import math
import warnings
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affineosc import numeric
from affineosc.cli import COMMANDS, SPECFUN_NAMES, build_parser, main
from affineosc.core import PhysicalParams
from affineosc.numeric import KIND_FACTS, KINDS, MAX_COARSE_N, GridPolicy, ProblemSpec

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
