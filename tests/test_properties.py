"""Property tests: fuzzed ``coupled`` and ``specfun`` command lines.

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

FUZZ = settings(max_examples=60, deadline=None, derandomize=True, database=None)

any_float = st.floats(allow_nan=True, allow_infinity=True)
# Absent flags and values in range are drawn often enough that about a third
# of the coupled runs get past validation: m, omega >= 1 admit every g in (0, 1).
scale = st.one_of(st.none(), st.floats(1.0, 20.0), any_float)


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
