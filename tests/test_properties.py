"""Property tests: fuzzed ``coupled``, ``specfun``, ``spectrum`` and ``sweep`` command lines.

Whatever the flag values, the command must end with a documented exit code,
JSON output must parse, a failure must be reported on exactly one stderr
line, and a success must write nothing to stderr and raise no warning.
"""

import contextlib
import io
import json
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from affineosc.cli import SPECFUN_NAMES, main
from affineosc.numeric import KINDS, MAX_COARSE_N

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
            code = main(argv)
    return code, out.getvalue(), err.getvalue()


def check_contract(argv, fmt):
    code, out, err = run_cli(argv)
    assert code in (0, 1, 2, 3)
    if code == 0:
        assert err == ""
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
