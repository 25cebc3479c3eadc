"""Command-line front end.

Subcommands:

* ``spectrum`` — numeric levels of one problem kind, next to the closed form
  when one exists (``eqintro``, ``eqo1``, ``eqo2``).
* ``coupled``  — lowest composite levels of the coupled pair plus both branch
  ladders.
* ``sweep``    — moving-endpoint study: levels and deviations per b.
* ``specfun``  — evaluate a named special function on a list of points.
* ``check``    — run the invariant suite, one line per property.

Configuration can come from flags, from a JSON config file (``--config``), or
both; flags override the file.  ``--dump-config`` prints the effective
configuration as JSON and exits.  Output files are deterministic: floats are
written with 15 significant digits in scientific notation and rows are emitted
in a fixed order.

Exit codes: 0 success, 1 validation error, 2 numerical failure, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, field
from typing import List, Optional

import numpy as np

from . import __version__, analytic, checks, interp, numeric, specfun
from .core import PhysicalParams
from .numeric import ConvergenceError, GridPolicy, ProblemSpec
from .specfun import QuadratureError

COMMANDS = ("spectrum", "coupled", "sweep", "specfun", "check")
SPECFUN_NAMES = ("1f1", "hermite", "laguerre")
# upper bounds that keep the time and memory of one run finite
MAX_LEVELS = 1000
MAX_COUNT = 100_000
MAX_FN_N = 10_000
MAX_B_VALUES = 100


@dataclass
class RunConfig:
    """Validated run configuration; mirrors the JSON config schema one-to-one."""

    command: str
    m: float = 1.0
    omega: float = 1.0
    hbar: float = 1.0
    g: float = 0.0
    kind: str = "eqintro"
    levels: int = 4
    count: int = 10
    b: float = 0.0
    order: int = 4
    b_values: List[float] = field(default_factory=lambda: [0.0, 1.0, 2.0, 5.0, 10.0, 20.0])
    grid_n: Optional[int] = None
    fn: str = "hermite"
    fn_n: int = 0
    fn_param: float = 2.0
    points: List[float] = field(default_factory=list)
    samples: int = 0
    out: Optional[str] = None
    format: str = "csv"

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ValueError(f"field 'command' must be one of {COMMANDS}, got {self.command!r}")
        if self.kind not in numeric.KINDS:
            raise ValueError(f"field 'kind' must be one of {numeric.KINDS}, got {self.kind!r}")
        if self.format not in ("csv", "json"):
            raise ValueError(f"field 'format' must be 'csv' or 'json', got {self.format!r}")
        if not 1 <= self.levels <= MAX_LEVELS:
            raise ValueError(f"field 'levels' must be in 1..{MAX_LEVELS}, got {self.levels}")
        if not 1 <= self.count <= MAX_COUNT:
            raise ValueError(f"field 'count' must be in 1..{MAX_COUNT}, got {self.count}")
        if self.fn_n > MAX_FN_N:
            raise ValueError(f"field 'fn_n' must be at most {MAX_FN_N}, got {self.fn_n}")
        if len(self.b_values) > MAX_B_VALUES:
            raise ValueError(f"field 'b_values' must list at most {MAX_B_VALUES} values")
        if not math.isfinite(self.fn_param):
            raise ValueError(f"field 'fn_param' must be finite, got {self.fn_param}")
        if self.samples < 0:
            raise ValueError(f"field 'samples' must be nonnegative, got {self.samples}")
        if self.fn not in SPECFUN_NAMES:
            raise ValueError(f"field 'fn' must be one of {SPECFUN_NAMES}, got {self.fn!r}")
        if self.grid_n is not None and self.grid_n < 16:
            raise ValueError(f"field 'grid_n' must be at least 16, got {self.grid_n}")

    @classmethod
    def from_mapping(cls, data: dict) -> "RunConfig":
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    def params(self) -> PhysicalParams:
        return PhysicalParams(m=self.m, omega=self.omega, hbar=self.hbar, g=self.g)


def _fmt_float(x: float) -> str:
    return format(float(x), ".14e")


def _render_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        # JSON has no NaN or infinity
        return _fmt_float(value) if math.isfinite(value) else "null"
    if isinstance(value, str):
        return json.dumps(value)
    if value is None:
        return "null"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_render_value(v) for v in value) + "]"
    if isinstance(value, dict):
        inner = ", ".join(
            f"{json.dumps(str(k))}: {_render_value(v)}" for k, v in value.items()
        )
        return "{" + inner + "}"
    raise TypeError(f"cannot serialize {type(value)!r}")


def render_json(doc: dict) -> str:
    """Deterministic JSON with all floats in 15-significant-digit scientific form."""
    lines = ["{"]
    items = list(doc.items())
    for idx, (key, value) in enumerate(items):
        comma = "," if idx < len(items) - 1 else ""
        lines.append(f"  {json.dumps(str(key))}: {_render_value(value)}{comma}")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _csv_cell(cell) -> str:
    if cell is None:
        return ""
    if isinstance(cell, str):
        return cell
    if isinstance(cell, (int, np.integer)) and not isinstance(cell, bool):
        return str(cell)
    return _fmt_float(cell)


def render_csv(header: List[str], rows: List[List]) -> str:
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
    if "." in path.rsplit("/", 1)[-1]:
        stem, ext = path.rsplit(".", 1)
        return f"{stem}_{tag}.{ext}"
    return f"{path}_{tag}"


def _emit(config: RunConfig, header: List[str], rows: List[List], doc: dict, companions=()):
    """Write a command's result in the configured format.

    CSV writes the table (header, rows) and, when the output goes to a file,
    each companion (tag, header, rows) to a ``*_<tag>`` file next to it.
    JSON writes doc, which already holds everything the tables hold.
    """
    if config.format == "json":
        _write(render_json(doc), config.out)
        return
    _write(render_csv(header, rows), config.out)
    if config.out is not None:
        for tag, comp_header, comp_rows in companions:
            _write(render_csv(comp_header, comp_rows), _companion(config.out, tag))


def _records(header: List[str], rows: List[List]) -> List[dict]:
    return [dict(zip(header, row)) for row in rows]


def _meta(config: RunConfig, grid=None) -> dict:
    meta = {
        "tool_version": __version__,
        "params": {"m": config.m, "omega": config.omega, "hbar": config.hbar, "g": config.g},
    }
    if grid is not None:
        meta["grid"] = {"n": grid.n, "x_min": grid.x_min, "x_max": grid.x_max}
    return meta


def _problem_spec(config: RunConfig) -> ProblemSpec:
    facts = numeric.KIND_FACTS[config.kind]
    return ProblemSpec(
        kind=config.kind,
        params=config.params(),
        b=config.b if facts.takes_b else None,
        order=config.order if facts.series else None,
    )


def _downsample(grid, samples, count):
    idx = np.linspace(0, len(samples) - 1, count).round().astype(int)
    nodes = grid.nodes
    return [[float(nodes[i]), float(samples[i])] for i in idx]


def run_spectrum(config: RunConfig) -> int:
    spec = _problem_spec(config)
    result = numeric.solve(spec, config.levels, GridPolicy(n=config.grid_n))
    branch = spec.facts.branch
    header = ["n", "energy_analytic", "energy_numeric", "abs_diff"]
    rows = []
    for n, _, energy, _ in result.levels:
        e_ref = None if branch is None else analytic.branch_energy(branch, n, spec.params)
        diff = None if e_ref is None else abs(energy - e_ref)
        rows.append([n, e_ref, energy, diff])
    doc = {
        "levels": _records(header, rows),
        "meta": {**_meta(config, result.grid), "kind": config.kind},
    }
    companions = []
    if config.samples > 0:
        samples = [
            (n, _downsample(result.grid, wf, config.samples)) for n, _, _, wf in result.levels
        ]
        doc["wavefunctions"] = [{"n": n, "samples": s} for n, s in samples]
        wf_rows = [[n, x, value] for n, s in samples for x, value in s]
        companions.append(("wavefunctions", ["n", "x", "value"], wf_rows))
    _emit(config, header, rows, doc, companions)
    return 0


def run_coupled(config: RunConfig) -> int:
    params = config.params()
    levels = analytic.composite_spectrum(params, config.count)
    header = ["n1", "n2", "energy"]
    rows = [[lv.n1, lv.n2, lv.energy] for lv in levels]
    branch_header = ["branch", "n", "energy"]
    branch_rows = [
        [branch, n, analytic.branch_energy(branch, n, params)]
        for branch in (analytic.COUPLED_Y1, analytic.COUPLED_Y2)
        for n in range(config.count)
    ]
    doc = {
        "composite": _records(header, rows),
        "branches": _records(branch_header, branch_rows),
        "meta": _meta(config),
    }
    _emit(config, header, rows, doc, [("branches", branch_header, branch_rows)])
    return 0


def run_sweep(config: RunConfig) -> int:
    policy = GridPolicy(n=config.grid_n)
    result = interp.b_sweep(config.params(), config.b_values, config.levels, policy)
    header = ["b", "n", "energy", "dev_half", "dev_full"]
    rows = [[row.b, row.n, row.energy, row.dev_half, row.dev_full] for row in result.rows]
    doc = {
        "rows": _records(header, rows),
        "meta": {
            **_meta(config),
            "grids": {
                _fmt_float(b): {"n": n, "x_min": lo, "x_max": hi}
                for b, (n, lo, hi) in result.grid_meta.items()
            },
        },
    }
    _emit(config, header, rows, doc)
    return 0


def run_specfun(config: RunConfig) -> int:
    if not config.points:
        raise ValueError("field 'points' must list at least one evaluation point")
    if config.fn == "1f1":
        values = [specfun.confluent_1f1_neg(config.fn_n, config.fn_param, x) for x in config.points]
    elif config.fn == "hermite":
        values = [specfun.hermite(config.fn_n, x) for x in config.points]
    else:
        values = [specfun.laguerre_assoc(config.fn_n, config.fn_param, x) for x in config.points]
    header = ["x", "value"]
    rows = [[x, v] for x, v in zip(config.points, values)]
    doc = {
        "fn": config.fn,
        "n": config.fn_n,
        "param": config.fn_param,
        "values": _records(header, rows),
        "meta": _meta(config),
    }
    _emit(config, header, rows, doc)
    return 0


def run_check(config: RunConfig) -> int:
    return 0 if checks.run_all() else 2


def run(config: RunConfig) -> int:
    handler = {
        "spectrum": run_spectrum,
        "coupled": run_coupled,
        "sweep": run_sweep,
        "specfun": run_specfun,
        "check": run_check,
    }[config.command]
    return handler(config)


def _float_list(text: str) -> List[float]:
    return [float(part) for part in text.split(",") if part.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="affineosc",
        description="Spectra of half-line and coupled oscillator problems.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--dump-config", action="store_true",
                       help="print the effective configuration as JSON and exit")
        p.add_argument("--m", type=float)
        p.add_argument("--omega", type=float)
        p.add_argument("--hbar", type=float)
        p.add_argument("--g", type=float)
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"))

    p = sub.add_parser("spectrum", help="numeric levels of one problem kind")
    add_common(p)
    p.add_argument("--kind", choices=numeric.KINDS)
    p.add_argument("--levels", type=int)
    p.add_argument("--b", type=float, help="endpoint offset (hext1/truncated)")
    p.add_argument("--order", type=int, help="expansion order (truncated)")
    p.add_argument("--grid-n", type=int, dest="grid_n")
    p.add_argument("--samples", type=int, help="wavefunction sample count")

    p = sub.add_parser("coupled", help="composite spectrum of the coupled pair")
    add_common(p)
    p.add_argument("--count", type=int)

    p = sub.add_parser("sweep", help="moving-endpoint sweep over b")
    add_common(p)
    p.add_argument("--b-values", type=_float_list, dest="b_values")
    p.add_argument("--levels", type=int)
    p.add_argument("--grid-n", type=int, dest="grid_n")

    p = sub.add_parser("specfun", help="evaluate a special function")
    add_common(p)
    p.add_argument("--fn", choices=SPECFUN_NAMES)
    p.add_argument("--n", type=int, dest="fn_n")
    p.add_argument("--param", type=float, dest="fn_param",
                   help="series parameter (1f1) or alpha (laguerre)")
    p.add_argument("--points", type=_float_list)

    p = sub.add_parser("check", help="run the invariant suite")
    add_common(p)
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
    return RunConfig.from_mapping(data)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
        if getattr(args, "dump_config", False):
            sys.stdout.write(render_json(asdict(config)))
            return 0
        return run(config)
    except (ValueError, TypeError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    except (ConvergenceError, QuadratureError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
