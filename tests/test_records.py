"""Construction, defaults, immutability and validation messages of every record type."""

import math
from array import array

import pytest

from affineosc.analytic import Branch, CompositeLevel, EigenPair
from affineosc.cli import RunConfig
from affineosc.core import DomainError, FrameError, PhaseSpacePoint, PhysicalParams
from affineosc.interp import SweepResult, SweepRow, TruncatedSweepResult
from affineosc.numeric import (
    EigenResult,
    Grid,
    GridPolicy,
    KindFacts,
    ProblemSpec,
    TridiagonalMatrix,
)
from oracles import unscaled


def alpha(p):
    return p.m


def energy(n, p):
    return (n + 1) * p.omega


def wavefunction(x):
    return x


UNIT = PhysicalParams()
GRID = Grid(0.0, 1.0, 16)
MATRIX = TridiagonalMatrix(array("d", [2.0, 2.0]), array("d", [-1.0]))

# record type, its fields in order with one value each, and the fields that
# may be left out with their defaults
RECORDS = [
    (Branch, {"alpha": alpha, "energy": energy, "halfline": True, "normal_mode": False}, {}),
    (EigenPair, {"n": 1, "energy": 4.0, "branch": "half_ho", "params": UNIT,
                 "wavefunction": wavefunction}, {}),
    (CompositeLevel, {"n1": 0, "n2": 2, "energy": 1.5}, {}),
    (PhysicalParams, {"m": 2.0, "omega": 0.5, "hbar": 0.25, "g": 0.1},
     {"m": 1.0, "omega": 1.0, "hbar": 1.0, "g": 0.0}),
    (PhaseSpacePoint, {"q1": 1.0, "q2": 2.0, "p1": 0.5, "p2": 3.0, "frame": "normal"},
     {"frame": "original"}),
    (KindFacts, {"branch": "half_ho", "barrier": True, "takes_b": False, "series": False},
     {"branch": None, "barrier": False, "takes_b": False, "series": False}),
    (Grid, {"x_min": -1.0, "x_max": 2.0, "n": 20}, {}),
    (ProblemSpec, {"kind": "eqintro", "params": PhysicalParams(m=2.0), "b": None, "order": None},
     {"params": UNIT, "b": None, "order": None}),
    # entries already in [0.5, 1), so the prescale leaves them as given (scale 1)
    (TridiagonalMatrix, {"diag": array("d", [0.5, 0.75]), "off": array("d", [-0.25])}, {}),
    (EigenResult, {"levels": [], "grid": GRID, "matrix": MATRIX, "err_est": []}, {}),
    (GridPolicy, {"n": 100, "domain": (0.0, 5.0), "check_truncation": True},
     {"n": None, "domain": None, "check_truncation": False}),
    (SweepRow, {"b": 1.0, "n": 0, "energy": 1.5, "dev_half": 0.5, "dev_full": 1.0,
                "err_est": 1e-12}, {}),
    (SweepResult, {"rows": [], "grid_meta": {1.0: (16, -1.0, 5.0)}}, {}),
    (TruncatedSweepResult, {"b": 2.0, "energies": {0: [1.0]}, "exact": [1.5]}, {}),
]
IDS = [record.__name__ for record, _, _ in RECORDS]


@pytest.mark.parametrize("record,values,defaults", RECORDS, ids=IDS)
def test_positional_and_keyword_construction_agree(record, values, defaults):
    by_position = record(*values.values())
    assert by_position == record(**values)
    assert [getattr(by_position, name) for name in values] == list(values.values())


@pytest.mark.parametrize("record,values,defaults", RECORDS, ids=IDS)
def test_defaults(record, values, defaults):
    required = {name: value for name, value in values.items() if name not in defaults}
    made = record(**required)
    assert {name: getattr(made, name) for name in defaults} == defaults
    assert made == record(*required.values())


@pytest.mark.parametrize("record,values,defaults", RECORDS, ids=IDS)
def test_fields_read_only(record, values, defaults):
    made = record(**values)
    for name, value in values.items():
        with pytest.raises(AttributeError):
            setattr(made, name, value)


@pytest.mark.parametrize("first,second", [
    (CompositeLevel(0, 1, 1.5), CompositeLevel(1, 0, 1.5)),
    (PhysicalParams(), PhysicalParams(g=0.25)),
    (Grid(0.0, 1.0, 16), Grid(0.0, 1.0, 17)),
    (ProblemSpec("hext1", b=1.0), ProblemSpec("hext1", b=2.0)),
    (GridPolicy(), GridPolicy(n=100)),
], ids=lambda record: type(record).__name__)
def test_one_field_apart_compare_unequal(first, second):
    assert first != second


def test_truncated_sweep_note_is_shared():
    result = TruncatedSweepResult(b=2.0, energies={}, exact=[])
    assert result.note == TruncatedSweepResult.note
    assert "|x/b| < 1" in TruncatedSweepResult.note


def test_problem_spec_default_params_are_unit():
    assert ProblemSpec("eqintro").params == PhysicalParams()
    assert ProblemSpec("truncated", UNIT, 3.0, 2) == ProblemSpec(kind="truncated", b=3.0, order=2)


def test_tridiagonal_bands_copied_into_float64_arrays():
    same = array("d", [1.0])
    matrix = TridiagonalMatrix([2, 3.5], (-1,))
    assert [band.tolist() for band in unscaled(matrix)] == [[2.0, 3.5], [-1.0]]
    assert (matrix.diag.typecode, matrix.off.typecode, matrix.scale) == ("d", "d", 0.25)
    assert TridiagonalMatrix(same, array("d")).diag is not same


INVALID = [
    (PhysicalParams, {"m": math.nan}, ValueError, "m must be finite, got nan"),
    (PhysicalParams, {"g": math.inf}, ValueError, "g must be finite, got inf"),
    (PhysicalParams, {"omega": 0.0}, ValueError, "omega must be positive, got 0.0"),
    (PhysicalParams, {"hbar": -1.0}, ValueError, "hbar must be positive, got -1.0"),
    (PhysicalParams, {"m": 1e300, "omega": 1e300}, ValueError,
     "m*omega^2 overflows for m = 1e+300, omega = 1e+300"),
    (PhysicalParams, {"g": -1.0}, ValueError,
     "coupling must satisfy |g| < m*omega^2 = 1.0, got g = -1.0"),
    (PhaseSpacePoint, {"q1": 1.0, "q2": 1.0, "p1": 0, "p2": 0, "frame": "polar"}, FrameError,
     "unknown frame 'polar'"),
    (PhaseSpacePoint, {"q1": 1.0, "q2": -0.5, "p1": 0, "p2": 0}, DomainError,
     "original-frame positions must be nonnegative, got (1.0, -0.5)"),
    (PhaseSpacePoint, {"q1": -1.0, "q2": 2.0, "p1": 0, "p2": 0, "frame": "normal"}, DomainError,
     "normal-frame y1 must be nonnegative, got -1.0"),
    (Grid, {"x_min": 1.0, "x_max": 1.0, "n": 16}, ValueError, "need x_min < x_max, got [1.0, 1.0]"),
    (Grid, {"x_min": 0.0, "x_max": 1.0, "n": 15}, ValueError,
     "need at least 16 cells, got 15"),
    (ProblemSpec, {"kind": "eqo3"}, ValueError, "unknown problem kind 'eqo3'"),
    (ProblemSpec, {"kind": "hext1"}, ValueError, "kind 'hext1' needs a finite b >= 0, got None"),
    (ProblemSpec, {"kind": "hext1", "b": math.inf}, ValueError,
     "kind 'hext1' needs a finite b >= 0, got inf"),
    (ProblemSpec, {"kind": "eqintro", "b": 1.0}, ValueError, "kind 'eqintro' does not take b"),
    (ProblemSpec, {"kind": "truncated", "b": 0.0, "order": 1}, ValueError,
     "kind 'truncated' needs b > 0"),
    (ProblemSpec, {"kind": "truncated", "b": 1.0, "order": 5}, ValueError,
     "kind 'truncated' needs an expansion order in 0..4"),
    (ProblemSpec, {"kind": "hext1", "b": 1.0, "order": 2}, ValueError,
     "kind 'hext1' does not take an expansion order"),
    (ProblemSpec, {"kind": "eqo1"}, ValueError,
     "quantum branch formulas need 0 < g < m*omega^2, got g = 0.0"),
    (ProblemSpec, {"kind": "eqintro", "params": PhysicalParams(m=1e-200, hbar=1e200)}, ValueError,
     "kind 'eqintro': m = 1e-200, omega = 1.0, hbar = 1e+200 and b = None put the energy "
     "and length scales or the barrier out of float range"),
    (TridiagonalMatrix, {"diag": [1.0, 2.0], "off": []}, ValueError,
     "off-diagonal must be one shorter than the diagonal"),
    (GridPolicy, {"domain": (0.0, math.inf)}, ValueError,
     "grid domain must be finite, got (0.0, inf)"),
    (RunConfig, {"command": "spectrum", "levels": True}, ValueError,
     "field 'levels' must be an integer, got bool True"),
    (RunConfig, {"command": "spectrum", "m": "1"}, ValueError,
     "field 'm' must be a number, got str '1'"),
    (RunConfig, {"command": "spectrum", "kind": 3}, ValueError,
     "field 'kind' must be a string, got int 3"),
    (RunConfig, {"command": "spectrum", "grid_n": 20.5}, ValueError,
     "field 'grid_n' must be an integer or null, got float 20.5"),
    (RunConfig, {"command": "spectrum", "out": 3}, ValueError,
     "field 'out' must be a string or null, got int 3"),
    (RunConfig, {"command": "spectrum", "b_values": [0, "1"]}, ValueError,
     "field 'b_values' must be a list of numbers, got list [0, '1']"),
    (RunConfig, {"command": "spectrum", "points": "x" * 60}, ValueError,
     "field 'points' must be a list of numbers, got str '" + "x" * 39),
    (RunConfig, {"command": "spectrum", "g": 10**400}, ValueError,
     "field 'g' must be within float range"),
    (RunConfig, {"command": "spectrum", "points": [1, 10**400]}, ValueError,
     "field 'points' must be within float range"),
    (RunConfig, {"command": "plot"}, ValueError,
     "field 'command' must be one of ('spectrum', 'coupled', 'sweep', 'specfun', 'check'), "
     "got 'plot'"),
    (RunConfig, {"command": "check", "kind": "eqo3"}, ValueError,
     "field 'kind' must be one of ('eqintro', 'eqo1', 'eqo2', 'hext1', 'truncated'), got 'eqo3'"),
    (RunConfig, {"command": "check", "format": "xml"}, ValueError,
     "field 'format' must be one of ('csv', 'json'), got 'xml'"),
    (RunConfig, {"command": "check", "levels": 1001}, ValueError,
     "field 'levels' must be in 1..1000, got 1001"),
    (RunConfig, {"command": "check", "count": 0}, ValueError,
     "field 'count' must be in 1..100000, got 0"),
    (RunConfig, {"command": "check", "fn_n": 10001}, ValueError,
     "field 'fn_n' must be in 0..10000, got 10001"),
    (RunConfig, {"command": "check", "b_values": [0.0] * 101}, ValueError,
     "field 'b_values' must list at most 100 values"),
    (RunConfig, {"command": "check", "fn_param": math.nan}, ValueError,
     "field 'fn_param' must be finite, got nan"),
    (RunConfig, {"command": "check", "samples": -1}, ValueError,
     "field 'samples' must be in 0..1000000, got -1"),
    (RunConfig, {"command": "check", "fn": "bessel"}, ValueError,
     "field 'fn' must be one of ('1f1', 'hermite', 'laguerre'), got 'bessel'"),
    (RunConfig, {"command": "check", "grid_n": 15}, ValueError,
     "field 'grid_n' must be at least 16, got 15"),
]


@pytest.mark.parametrize("record,values,error,message", INVALID,
                         ids=[f"{r.__name__}-{m[:30]}" for r, _, _, m in INVALID])
def test_validation_message(record, values, error, message):
    with pytest.raises(error) as caught:
        record(**values)
    assert str(caught.value) == message


def test_fractional_order_message():
    with pytest.raises(ValueError) as caught:
        ProblemSpec(kind="truncated", b=1.0, order=2.5)
    assert str(caught.value) == "kind 'truncated' needs an expansion order in 0..4"


@pytest.mark.parametrize("order", [2.0, True], ids=["float", "bool"])
def test_order_must_be_an_int(order):
    with pytest.raises(ValueError) as caught:
        ProblemSpec(kind="truncated", b=1.0, order=order)
    assert str(caught.value) == "kind 'truncated' needs an expansion order in 0..4"


def test_quantum_coupling_message():
    with pytest.raises(ValueError) as caught:
        PhysicalParams(g=-0.5).require_quantum_coupling()
    assert str(caught.value) == "quantum branch formulas need 0 < g < m*omega^2, got g = -0.5"


RUN_DEFAULTS = {
    "command": "coupled", "m": 1.0, "omega": 1.0, "hbar": 1.0, "g": 0.0, "kind": "eqintro",
    "levels": 4, "count": 10, "b": None, "order": None,
    "b_values": [0.0, 1.0, 2.0, 5.0, 10.0, 20.0], "grid_n": None, "fn": "hermite", "fn_n": 0,
    "fn_param": 2.0, "points": [], "samples": 0, "out": None, "format": "csv",
}


class TestRunConfig:
    def test_positional_command_and_defaults(self):
        config = RunConfig("coupled")
        assert config == RunConfig(command="coupled") == RunConfig(**RUN_DEFAULTS)
        assert {name: getattr(config, name) for name in RUN_DEFAULTS} == RUN_DEFAULTS

    def test_list_defaults_not_shared(self):
        first, second = RunConfig("sweep"), RunConfig("sweep")
        first.b_values.append(30.0)
        first.points.append(1.0)
        assert (second.b_values, second.points) == (RUN_DEFAULTS["b_values"], [])

    def test_mutable_and_compared_by_value(self):
        config = RunConfig("coupled")
        config.count = 20
        assert config.count == 20
        assert config != RunConfig("coupled")
        assert config == RunConfig("coupled", count=20)

    def test_ints_for_floats_coerced(self):
        config = RunConfig("sweep", m=2, b_values=[0, 1], grid_n=None)
        assert (config.m, config.b_values) == (2.0, [0.0, 1.0])
        assert type(config.m) is float and {type(b) for b in config.b_values} == {float}

    def test_from_mapping_unknown_keys_message(self):
        with pytest.raises(ValueError) as caught:
            RunConfig(**{"command": "check", "zeta": 1, "alpha": 2, "levels": 3})
        assert str(caught.value) == "unknown config keys: ['alpha', 'zeta']"

    def test_unknown_keys_checked_first(self):
        # before any field's type or value, and by the constructor itself
        with pytest.raises(ValueError) as caught:
            RunConfig("plot", levels=True, zeta=1)
        assert str(caught.value) == "unknown config keys: ['zeta']"
