"""Command-line front end.

``COMMANDS`` describes the command line once: each subcommand's help line and
every config field it reads, each taken as a flag (``check`` takes none).  A
field's flag is ``--<field>`` with ``-`` for ``_``, but for ``--n`` and
``--param`` (fields ``fn_n`` and ``fn_param``); it converts by the field's type
in ``CONFIG_FIELDS``, which also holds the values the field allows, and
subcommand X runs ``run_X``.  ``b`` and ``order`` have no default, so that
``ProblemSpec`` alone says which kinds need them and which reject them.

Each ``run_X`` builds one document, whose tables are ``Table``s.  JSON writes
the document, each table as an array of row objects.  CSV writes the first
table to the output and, when the output is a file, each further table to a
companion file named after its key.

Configuration can come from flags, from a JSON config file (``--config``), or
both; flags override the file.  ``--dump-config`` prints the effective
configuration as JSON and exits.  Output files are deterministic: floats are
written with 15 significant digits in scientific notation and rows are emitted
in a fixed order.  A value is written by its exact type, which is float, int,
str, bool or None (and, in JSON, a Table, list, tuple or dict of them); any
other value, a numpy scalar say, raises TypeError.

Exit codes: 0 success, 1 validation error (a bad flag or config value, an
unknown flag or no subcommand), 2 numerical failure, 3 I/O failure.  A failure
is reported on one stderr line.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import types
from typing import Iterable, List, NamedTuple, Optional

from . import __version__, analytic, interp, numeric, specfun
from .core import PhysicalParams, require_int, require_real
from .numeric import ConvergenceError, GridPolicy, ProblemSpec

PHYSICS = ("m", "omega", "hbar", "g")
OUTPUT = ("out", "format")
# subcommand -> (help line, the config fields it takes as flags)
COMMANDS = {
    "spectrum": ("numeric levels of one problem kind",
                 PHYSICS + ("kind", "levels", "b", "order", "grid_n", "samples") + OUTPUT),
    "coupled": ("composite spectrum of the coupled pair", PHYSICS + ("count",) + OUTPUT),
    "sweep": ("moving-endpoint sweep over b", PHYSICS + ("b_values", "levels", "grid_n") + OUTPUT),
    "specfun": ("evaluate a special function",
                PHYSICS + ("fn", "fn_n", "fn_param", "points") + OUTPUT),
    "check": ("run the invariant suite", ()),
}
FLAG_NAMES = {"fn_n": "n", "fn_param": "param"}  # every other field's flag is --<field>
FLAG_HELP = {
    "out": "output path (default: stdout)",
    "b": "endpoint offset (hext1/truncated)",
    "order": "expansion order (truncated)",
    "samples": "wavefunction sample count",
    "fn_param": "series parameter (1f1) or alpha (laguerre)",
}
# fn -> (n, param, x) -> value; specfun's names are looked up per call, so that
# wrappers installed on the module see the calls
SPECFUN = {
    "1f1": lambda n, param, x: specfun.confluent_1f1_neg(n, param, x),
    "hermite": lambda n, param, x: specfun.hermite(n, x),
    "laguerre": lambda n, param, x: specfun.laguerre_assoc(n, param, x),
}
SPECFUN_NAMES = tuple(SPECFUN)
# upper bounds that keep the time and memory of one run finite, beside the
# ranges in CONFIG_FIELDS
MAX_LEVELS = 1000
MAX_B_VALUES = 100
MAX_SAMPLE_VALUES = 10**6  # samples, and levels x written samples, of one spectrum run
ERR_EST_WARN = 1e-6  # relative error estimate above which spectrum and sweep warn on stderr


# The config schema: (name, type, default, allowed) per field, in the order
# --dump-config prints them.  type is int, float, str or list (of numbers), and
# a field whose default is None may also be None.  allowed is a tuple of
# choices, which are also the flag's choices, the range of an int field, the
# least value of one (0 by default), or None.  command's default is never used:
# RunConfig takes it first.
CONFIG_FIELDS = (
    ("command", str, None, tuple(COMMANDS)),
    ("m", float, 1.0, None),
    ("omega", float, 1.0, None),
    ("hbar", float, 1.0, None),
    ("g", float, 0.0, None),
    ("kind", str, "eqintro", numeric.KINDS),
    ("levels", int, 4, range(1, MAX_LEVELS + 1)),
    ("count", int, 10, range(1, 100_001)),
    ("b", float, None, None),
    ("order", int, None, None),
    ("b_values", list, [0.0, 1.0, 2.0, 5.0, 10.0, 20.0], None),
    ("grid_n", int, None, 16),
    ("fn", str, "hermite", SPECFUN_NAMES),
    ("fn_n", int, 0, range(10_001)),
    ("fn_param", float, 2.0, None),
    ("points", list, [], None),
    ("samples", int, 0, range(MAX_SAMPLE_VALUES + 1)),
    ("out", str, None, None),
    ("format", str, "csv", ("csv", "json")),
)


class RunConfig(types.SimpleNamespace):
    """Validated run configuration; mirrors the JSON config schema one-to-one.

    One attribute per CONFIG_FIELDS entry; instances are mutable and compare by
    value.  An int field is checked by ``core.require_int`` and a float field,
    and each number of a list, by ``core.require_real``, under the name
    ``field '<name>'``.  A float is finite, but a list may hold NaN and
    infinities: points are evaluation points, and each b is checked by
    ``ProblemSpec``.  An int given for a float is stored as a float.
    """

    def __init__(self, command: str, **values):
        unknown = set(values).difference(name for name, *_ in CONFIG_FIELDS)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        values["command"] = command
        for name, kind, default, allowed in CONFIG_FIELDS:
            value, field = values.get(name, default), f"field {name!r}"
            if value is None and default is None:  # a field that may be unset, and is
                pass
            elif kind is int:
                bounds = ((allowed.start, allowed.stop - 1) if isinstance(allowed, range)
                          else (allowed or 0,))
                value = require_int(field, value, *bounds)
            elif kind is float:
                value = require_real(field, value)
            elif kind is list:
                if type(value) is not list:
                    raise ValueError(f"{field} must be a list of numbers, got {value!r:.40}")
                # a new list: no two configs share one
                value = [require_real(field, v, finite=False) for v in value]
            elif type(value) is not str:
                raise ValueError(f"{field} must be a string, got {value!r:.40}")
            if isinstance(allowed, tuple) and value not in allowed:
                raise ValueError(f"{field} must be one of {allowed}, got {value!r}")
            setattr(self, name, value)
        if len(self.b_values) > MAX_B_VALUES:
            raise ValueError(f"field 'b_values' must list at most {MAX_B_VALUES} values")

    def params(self) -> PhysicalParams:
        return PhysicalParams(m=self.m, omega=self.omega, hbar=self.hbar, g=self.g)


class Table(NamedTuple):
    """A table of a command's output, a CSV file or a JSON array of row objects,
    whose rows are any iterable, read once when the table is written."""

    header: List[str]
    rows: Iterable[list]


FLOAT_FORMAT = ".14e"  # 15 significant digits


def _render_value(value) -> str:
    """value as JSON, by its exact type; any type not listed here is rejected."""
    kind = type(value)
    if kind is float:
        # JSON has no NaN or infinity
        return format(value, FLOAT_FORMAT) if math.isfinite(value) else "null"
    if kind is int:
        return str(value)
    if kind is str:
        return json.dumps(value)
    if value is None:
        return "null"
    if kind is bool:
        return "true" if value else "false"
    if kind is Table:
        keys = [json.dumps(str(k)) + ": " for k in value.header]
        return "[" + ", ".join(
            "{" + ", ".join([k + _render_value(v) for k, v in zip(keys, row)]) + "}"
            for row in value.rows
        ) + "]"
    if kind is list or kind is tuple:
        return "[" + ", ".join([_render_value(v) for v in value]) + "]"
    if kind is dict:
        return "{" + _members(value, ", ") + "}"
    raise TypeError(f"cannot serialize {kind!r}")


def _members(obj: dict, separator: str) -> str:
    """The members of a JSON object, ``"key": value``, joined by separator."""
    return separator.join(f"{json.dumps(str(k))}: {_render_value(v)}" for k, v in obj.items())


def render_json(doc: dict) -> str:
    """Deterministic JSON with all floats in 15-significant-digit scientific form.

    The document is one object, written as every nested one is, but one member per line.
    """
    return "{\n  " + _members(doc, ",\n  ") + "\n}\n"


def _csv_cell(cell) -> str:
    """cell as CSV, by its exact type: a bool as the float 1 or 0, None as nothing."""
    kind = type(cell)
    if kind is float or kind is bool:
        return format(cell, FLOAT_FORMAT)
    if kind is int:
        return str(cell)
    if kind is str:
        return cell
    if cell is None:
        return ""
    raise TypeError(f"cannot serialize {kind!r}")


def render_csv(header: List[str], rows: Iterable[list]) -> str:
    out = [",".join(header)]
    for row in rows:
        out.append(",".join(_csv_cell(cell) for cell in row))
    return "\n".join(out) + "\n"


def _write(text: str, path: Optional[str]):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="\n") as handle:
            handle.write(text)


def _companion(path: str, tag: str) -> str:
    """path with _<tag> before its extension; a dotfile's leading dot is no extension."""
    stem, ext = os.path.splitext(path)
    return f"{stem}_{tag}{ext}"


def _emit(config: RunConfig, doc: dict):
    """Write a command's document in the configured format.

    JSON writes the whole doc.  CSV writes the doc's first Table and, when the
    output goes to a file, each further Table to a ``*_<key>`` file next to it.
    """
    if config.format == "json":
        _write(render_json(doc), config.out)
        return
    (_, first), *rest = [(key, v) for key, v in doc.items() if isinstance(v, Table)]
    _write(render_csv(*first), config.out)
    if config.out is not None:
        for key, table in rest:
            _write(render_csv(*table), _companion(config.out, key))


def _meta(config: RunConfig, grid=None) -> dict:
    meta = {
        "tool_version": __version__,
        "params": {"m": config.m, "omega": config.omega, "hbar": config.hbar, "g": config.g},
    }
    if grid is not None:
        meta["grid"] = {"n": grid.n, "x_min": grid.x_min, "x_max": grid.x_max}
    return meta


def _sample_indices(n: int, count: int) -> List[int]:
    """min(count, n) evenly spread indices into n nodes: np.linspace(0, n - 1, m).round()."""
    m = min(count, n)
    if m == 1:
        return [0]
    step = (n - 1) / (m - 1)
    # round() rounds half to even, as numpy does; linspace ends on n - 1 exactly
    return [round(i * step) for i in range(m - 1)] + [n - 1]


def _downsample(grid, samples, count):
    """[x, value] rows at count evenly spread cell centres; never more rows than cells."""
    idx = _sample_indices(len(samples), count)
    return [[x, samples[i]] for x, i in zip(grid.nodes_at(idx), idx)]


def _warn_err_est(levels):
    """One stderr line when some (n, energy, err_est) has an estimate above ERR_EST_WARN."""
    over = [(err / abs(energy) if energy else math.inf, n)
            for n, energy, err in levels if err > ERR_EST_WARN * abs(energy)]
    if over:
        rel, n = max(over)
        print(f"warning: level {n} has a discretization error estimate of {rel:.1e} relative, "
              f"above {ERR_EST_WARN:.0e}; a larger --grid-n lowers it", file=sys.stderr)


def run_spectrum(config: RunConfig) -> int:
    spec = ProblemSpec(config.kind, config.params(), config.b, config.order)
    policy = GridPolicy(n=config.grid_n)
    if config.samples > 0:
        # at most one sample per cell of the finest grid is written
        cells = numeric.coarse_grid(spec, config.levels, policy).refined().refined().n
        if config.levels * min(config.samples, cells) > MAX_SAMPLE_VALUES:
            raise ValueError(
                f"field 'samples' times levels must be at most {MAX_SAMPLE_VALUES}, "
                f"counting at most the {cells} finest-grid cells per level"
            )
        if config.format == "csv" and config.out is None:
            raise ValueError("field 'samples' needs 'out' in CSV: samples go to a companion file")
    result = numeric.solve(spec, config.levels, policy)
    _warn_err_est([(lv.n, lv.energy, err) for lv, err in zip(result.levels, result.err_est)])
    branch = spec.facts.branch
    rows = []
    for level in result.levels:
        e_ref = None if branch is None else analytic.branch_energy(branch, level.n, spec.params)
        diff = None if e_ref is None else abs(level.energy - e_ref)
        rows.append([level.n, e_ref, level.energy, diff])
    doc = {
        "levels": Table(["n", "energy_analytic", "energy_numeric", "abs_diff"], rows),
        "meta": {**_meta(config, result.grid), "kind": config.kind},
    }
    if config.samples > 0:
        grid, samples = result.grid, []
        for level in result.levels:
            wf = numeric.eigenvector(result.matrix, level.lam_fine, grid.h)
            samples.append([level.n, _downsample(grid, wf, config.samples)])
        # JSON nests each level's [x, value] samples; a CSV table is flat
        doc["wavefunctions"] = (
            Table(["n", "samples"], samples) if config.format == "json"
            else Table(["n", "x", "value"], ([n, x, v] for n, s in samples for x, v in s))
        )
    _emit(config, doc)
    return 0


def run_coupled(config: RunConfig) -> int:
    params = config.params()
    levels = analytic.composite_spectrum(params, config.count)
    branch_rows = (
        [branch, n, analytic.branch_energy(branch, n, params)]
        for branch in (analytic.COUPLED_Y1, analytic.COUPLED_Y2)
        for n in range(config.count)
    )
    _emit(config, {
        "composite": Table(["n1", "n2", "energy"], [[lv.n1, lv.n2, lv.energy] for lv in levels]),
        "branches": Table(["branch", "n", "energy"], branch_rows),
        "meta": _meta(config),
    })
    return 0


def run_sweep(config: RunConfig) -> int:
    # one solve per b value: cap the levels of all of them together as one spectrum run's
    if config.levels * len(config.b_values) > MAX_LEVELS:
        raise ValueError(
            f"field 'b_values' times levels must be at most {MAX_LEVELS}, "
            f"got {len(config.b_values)} b values x {config.levels} levels"
        )
    policy = GridPolicy(n=config.grid_n)
    result = interp.b_sweep(config.params(), config.b_values, config.levels, policy)
    _warn_err_est([(row.n, row.energy, row.err_est) for row in result.rows])
    rows = [[row.b, row.n, row.energy, row.dev_half, row.dev_full] for row in result.rows]
    _emit(config, {
        "rows": Table(["b", "n", "energy", "dev_half", "dev_full"], rows),
        "meta": {
            **_meta(config),
            "grids": {
                format(b, FLOAT_FORMAT): {"n": n, "x_min": lo, "x_max": hi}
                for b, (n, lo, hi) in result.grid_meta.items()
            },
        },
    })
    return 0


def run_specfun(config: RunConfig) -> int:
    if not config.points:
        raise ValueError("field 'points' must list at least one evaluation point")
    evaluate = SPECFUN[config.fn]
    rows = [[x, evaluate(config.fn_n, config.fn_param, x)] for x in config.points]
    _emit(config, {
        "fn": config.fn,
        "n": config.fn_n,
        "param": config.fn_param,
        "values": Table(["x", "value"], rows),
        "meta": _meta(config),
    })
    return 0


def run_check(config: RunConfig) -> int:
    from . import checks  # here, not at the top: no other command needs the suite

    return 0 if checks.run_all() else 2


class _Parser(argparse.ArgumentParser):
    """An argument parser that raises ValueError, so that a malformed or unknown
    flag, or a missing command, is a validation error like a bad config value."""

    def error(self, message):
        # a value given on the command line may hold a newline; the message stays one line
        raise ValueError(message.replace("\n", "\\n"))


def _float_list(text: str) -> List[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float list value: {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="affineosc",
                     description="Spectra of half-line and coupled oscillator problems.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    # each flag converts by its field's type, a list by _float_list
    converters = {name: _float_list if kind is list else kind
                  for name, kind, _, _ in CONFIG_FIELDS}
    choices = {name: allowed for name, _, _, allowed in CONFIG_FIELDS
               if isinstance(allowed, tuple)}
    for command, (help_line, fields) in COMMANDS.items():
        p = sub.add_parser(command, help=help_line)
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--dump-config", action="store_true",
                       help="print the effective configuration as JSON and exit")
        for name in fields:
            p.add_argument("--" + FLAG_NAMES.get(name, name.replace("_", "-")), dest=name,
                           type=converters[name], choices=choices.get(name),
                           help=FLAG_HELP.get(name))
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    data = {}
    if getattr(args, "config", None):
        with open(args.config) as handle:
            file_data = json.load(handle)
        if not isinstance(file_data, dict):
            raise ValueError("config file must hold a JSON object")
        data.update(file_data)
    for key, value in vars(args).items():
        if key in ("config", "dump_config"):
            continue
        if value is not None:
            data[key] = value
    return RunConfig(**data)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        config = config_from_args(args)
        if args.dump_config:
            sys.stdout.write(render_json(vars(config)))
            return 0
        return globals()["run_" + config.command](config)
    except (ValueError, TypeError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    except ConvergenceError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
