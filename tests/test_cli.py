import argparse
import functools
import json
import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affineosc.cli import (
    CONFIG_FIELDS, RunConfig, config_from_args, build_parser, main, render_json,
)


def read(path):
    with open(path) as handle:
        return handle.read()


def parse_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


# config-file values of the wrong JSON type: a bool is no number, a float no
# integer, and a list field takes a JSON array of numbers
WRONG_TYPES = [
    ("points", "12"), ("levels", True), ("samples", True), ("count", 5.0),
    ("m", "1"), ("g", None), ("b_values", [0, "1"]), ("points", [True]),
    ("grid_n", 20.5), ("kind", 3), ("out", 3),
]


class TestRunConfig:
    def test_defaults_valid(self):
        cfg = RunConfig(command="spectrum")
        assert cfg.kind == "eqintro" and cfg.format == "csv"

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            RunConfig(**{"command": "spectrum", "bogus": 1})

    @pytest.mark.parametrize("field,value", [
        ("command", "nope"), ("kind", "nope"), ("format", "xml"),
        ("levels", 0), ("count", 0), ("samples", -1), ("grid_n", 4),
        *WRONG_TYPES,
    ])
    def test_field_validation(self, field, value):
        with pytest.raises(ValueError, match=field):
            RunConfig(**{"command": "spectrum", field: value})

    @pytest.mark.parametrize("field,value", [
        ("m", 2), ("fn_param", -1), ("b_values", [0, 2.5]), ("points", []),
        ("grid_n", None), ("out", None),
    ])
    def test_field_types_accepted(self, field, value):
        assert getattr(RunConfig(**{"command": "spectrum", field: value}), field) == value

    def test_int_for_float_field_is_stored_as_float(self):
        cfg = RunConfig(
            **{"command": "specfun", "m": 2, "g": 0, "b_values": [0, 2.5], "points": [1, 2.5]}
        )
        assert (cfg.m, cfg.g, cfg.b_values, cfg.points) == (2.0, 0.0, [0.0, 2.5], [1.0, 2.5])
        assert {type(v) for v in (cfg.m, cfg.g, *cfg.b_values, *cfg.points)} == {float}
        assert type(cfg.levels) is int

    def test_dump_round_trip(self, capsys):
        assert main(["spectrum", "--kind", "eqo1", "--g", "0.3", "--dump-config"]) == 0
        dumped = json.loads(capsys.readouterr().out)
        cfg = RunConfig(**dumped)
        assert cfg == RunConfig(**dumped)
        assert cfg.kind == "eqo1" and cfg.g == 0.3


class TestSpectrumCommand:
    def test_csv_output(self, tmp_path):
        out = tmp_path / "spec.csv"
        assert main(["spectrum", "--kind", "eqintro", "--levels", "3",
                     "--out", str(out)]) == 0
        header, rows = parse_csv(read(out))
        assert header == ["n", "energy_analytic", "energy_numeric", "abs_diff"]
        assert len(rows) == 3
        for i, row in enumerate(rows):
            assert int(row[0]) == i
            assert float(row[1]) == 2.0 * (i + 1)
            assert abs(float(row[2]) - 2.0 * (i + 1)) <= 2e-6
            assert float(row[3]) <= 2e-6

    def test_deterministic_bytes(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["spectrum", "--kind", "eqo2", "--g", "0.6", "--levels", "2"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert read(out1) == read(out2)

    def test_json_with_wavefunctions(self, tmp_path):
        out = tmp_path / "spec.json"
        assert main(["spectrum", "--kind", "eqintro", "--levels", "1",
                     "--samples", "32", "--format", "json", "--out", str(out)]) == 0
        doc = json.loads(read(out))
        assert doc["meta"]["kind"] == "eqintro"
        assert doc["meta"]["params"]["omega"] == 1.0
        assert len(doc["wavefunctions"][0]["samples"]) == 32

    def test_coarse_grid_warns_on_stderr_only(self, capsys):
        # the error estimate of --grid-n 16 is far above 1e-6; by default it is not
        assert main(["spectrum", "--grid-n", "16"]) == 0
        out, err = capsys.readouterr()
        assert out.startswith("n,energy_analytic,energy_numeric,abs_diff\n0,")
        assert err.startswith("warning: level ") and err.count("\n") == 1, err
        assert "relative, above 1e-06" in err
        for argv in (["spectrum"], ["spectrum", "--kind", "eqo2", "--g", "0.6", "--levels", "20"]):
            assert main(argv) == 0
            assert capsys.readouterr().err == "", argv

    def test_samples_clamped_to_fine_grid(self, capsys):
        # --grid-n 16 gives a finest grid of 64 cells
        argv = ["spectrum", "--levels", "1", "--grid-n", "16", "--format", "json"]
        assert main([*argv, "--samples", "5000"]) == 0
        clamped = capsys.readouterr().out
        rows = json.loads(clamped)["wavefunctions"][0]["samples"]
        assert len(rows) == len({x for x, _ in rows}) == 64
        assert main([*argv, "--samples", "64"]) == 0
        assert capsys.readouterr().out == clamped

    @pytest.mark.parametrize("coarse_n,counts", [
        (16, range(1, 40)), (2000, [2, 1000, 1333, 2000, 2001, 3999, 4000, 4001, 9000]),
    ])
    def test_downsampled_nodes_are_distinct(self, coarse_n, counts):
        from affineosc import cli, numeric

        spec = numeric.ProblemSpec(kind="eqintro")
        result = numeric.solve(spec, 1, numeric.GridPolicy(n=coarse_n))
        grid = result.grid
        wf = numeric.eigenvector(result.matrix, result.levels[0].lam_fine, grid.h)
        nodes = set(grid.nodes)
        for count in counts:
            xs = [x for x, _ in cli._downsample(grid, wf, count)]
            assert len(xs) == min(count, grid.n), count
            assert xs == sorted(set(xs)) and set(xs) <= nodes, count

    @given(n=st.integers(16, 5000), data=st.data())
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    def test_downsampled_indices_match_linspace(self, n, data):
        import numpy as np

        from affineosc import cli, numeric

        count = data.draw(st.integers(1, n + 10), label="count")
        grid = numeric.Grid(0.0, 1.0, n)
        # each sample holds its own index
        rows = cli._downsample(grid, np.arange(n, dtype=float), count)
        idx = np.linspace(0, n - 1, min(count, n)).round().astype(int).tolist()
        assert [int(value) for _, value in rows] == idx
        nodes = grid.nodes
        assert [x for x, _ in rows] == [nodes[i] for i in idx]

    @pytest.mark.parametrize("samples,calls", [
        ([], 0), (["--samples", "8", "--format", "json"], 3),
    ])
    def test_eigenvectors_only_for_samples(self, samples, calls, monkeypatch):
        from affineosc import numeric

        made = []
        original = numeric.eigenvector

        def counted(matrix, lam, h):
            made.append(lam)
            return original(matrix, lam, h)

        monkeypatch.setattr(numeric, "eigenvector", counted)
        assert main(["spectrum", "--levels", "3", *samples]) == 0
        assert len(made) == calls

    def test_config_file_with_flag_override(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {"command": "spectrum", "kind": "eqintro", "levels": 5, "g": 0.0}
        ))
        out = tmp_path / "o.csv"
        assert main(["spectrum", "--config", str(cfg_path), "--levels", "2",
                     "--out", str(out)]) == 0
        _, rows = parse_csv(read(out))
        assert len(rows) == 2


class TestCoupledCommand:
    def test_ground_level_row(self, tmp_path):
        out = tmp_path / "coupled.csv"
        assert main(["coupled", "--g", "0.6", "--count", "1", "--out", str(out)]) == 0
        header, rows = parse_csv(read(out))
        assert header == ["n1", "n2", "energy"]
        assert rows[0][:2] == ["0", "0"]
        assert float(rows[0][2]) == pytest.approx(
            math.sqrt(1.6) + 0.25 * math.sqrt(0.4), rel=1e-14
        )

    def test_branch_companion_file(self, tmp_path):
        out = tmp_path / "coupled.csv"
        assert main(["coupled", "--g", "0.6", "--count", "3", "--out", str(out)]) == 0
        header, rows = parse_csv(read(tmp_path / "coupled_branches.csv"))
        assert header == ["branch", "n", "energy"]
        assert len(rows) == 6  # both branches, three levels each

    @pytest.mark.parametrize("out,companion", [
        (".hidden", ".hidden_branches"),
        ("dir/.cfg", "dir/.cfg_branches"),
        ("out.csv", "out_branches.csv"),
        ("out", "out_branches"),
        ("out.tar.gz", "out.tar_branches.gz"),
        ("dir.v2/out", "dir.v2/out_branches"),
    ])
    def test_companion_name(self, tmp_path, out, companion):
        (tmp_path / "dir").mkdir()
        (tmp_path / "dir.v2").mkdir()
        assert main(["coupled", "--g", "0.6", "--count", "2", "--out", str(tmp_path / out)]) == 0
        assert read(tmp_path / companion).startswith("branch,n,energy\n")

    def test_json_document(self, tmp_path):
        out = tmp_path / "coupled.json"
        assert main(["coupled", "--g", "0.6", "--count", "2", "--format", "json",
                     "--out", str(out)]) == 0
        doc = json.loads(read(out))
        assert len(doc["composite"]) == 2
        assert len(doc["branches"]) == 4


class TestSweepCommand:
    def test_csv_schema(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--b-values", "0,1", "--levels", "1",
                     "--out", str(out)]) == 0
        header, rows = parse_csv(read(out))
        assert header == ["b", "n", "energy", "dev_half", "dev_full"]
        assert len(rows) == 2
        assert float(rows[0][2]) == pytest.approx(2.0, rel=1e-6)

    def test_coarse_grid_warns_on_stderr_only(self, capsys):
        assert main(["sweep", "--b-values", "0,1", "--levels", "2", "--grid-n", "16"]) == 0
        out, err = capsys.readouterr()
        assert out.startswith("b,n,energy,dev_half,dev_full\n")
        assert err.startswith("warning: level ") and err.count("\n") == 1, err
        assert main(["sweep", "--b-values", "0,1", "--levels", "2"]) == 0
        assert capsys.readouterr().err == ""

    def test_levels_times_b_values_capped(self, capsys):
        assert main(["sweep", "--levels", "1000", "--b-values", "0,1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "validation error: field 'b_values' times levels must be at most 1000, "
            "got 2 b values x 1000 levels\n"
        )
        assert main(["sweep"]) == 0
        assert capsys.readouterr().out.startswith("b,n,energy,dev_half,dev_full\n")


class TestSpecfunCommand:
    def test_hermite_values(self, tmp_path):
        out = tmp_path / "h.csv"
        assert main(["specfun", "--fn", "hermite", "--n", "3",
                     "--points", "0,1,2", "--out", str(out)]) == 0
        _, rows = parse_csv(read(out))
        values = [float(r[1]) for r in rows]
        assert values == [0.0, -4.0, 40.0]

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_non_finite_values_are_json_null(self, capsys):
        assert main(["specfun", "--fn", "hermite", "--n", "3", "--points", "nan,1e200",
                     "--format", "json"]) == 0
        values = json.loads(capsys.readouterr().out)["values"]
        assert values == [{"x": None, "value": None}, {"x": 1e200, "value": None}]

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_non_finite_values_stay_in_csv(self, capsys):
        assert main(["specfun", "--fn", "hermite", "--n", "3", "--points", "nan,1e200"]) == 0
        assert capsys.readouterr().out == "x,value\nnan,nan\n1.00000000000000e+200,inf\n"

    def test_config_ints_print_as_floats(self, tmp_path, capsys):
        cfg = tmp_path / "ints.json"
        cfg.write_text(json.dumps(
            {"m": 2, "fn": "laguerre", "fn_n": 1, "fn_param": 1, "points": [1, 2.5]}
        ))
        assert main(["specfun", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out == (
            "x,value\n1.00000000000000e+00,1.00000000000000e+00\n"
            "2.50000000000000e+00,-5.00000000000000e-01\n"
        )
        assert main(["specfun", "--config", str(cfg), "--dump-config"]) == 0
        dumped = capsys.readouterr().out
        assert '"m": 2.00000000000000e+00,' in dumped
        assert '"points": [1.00000000000000e+00, 2.50000000000000e+00],' in dumped

    def test_points_required(self):
        assert main(["specfun", "--fn", "hermite", "--n", "3"]) == 1

    @pytest.mark.parametrize("fn,param,signs", [
        ("hermite", "2", ("", "-")), ("1f1", "2", ("-", "")), ("laguerre", "1", ("-", "")),
    ])
    def test_overflow_writes_no_warning(self, fn, param, signs, capfd):
        # stdout as before the recurrences were silenced; any warning fails the test
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["specfun", "--fn", fn, "--n", "3", "--param", param,
                         "--points", "nan,1e200,-1e300,inf"]) == 0
        assert capfd.readouterr() == (
            "x,value\nnan,nan\n"
            f"1.00000000000000e+200,{signs[0]}inf\n"
            f"-1.00000000000000e+300,{signs[1]}inf\n"
            "inf,nan\n",
            "",
        )


class TestCheckCommand:
    def test_passes_on_fresh_build(self, capsys):
        assert main(["check"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out


class TestExitCodes:
    def test_validation_error(self, capsys):
        assert main(["spectrum", "--g", "2.0"]) == 1
        assert "validation error" in capsys.readouterr().err

    def test_grid_cap_message_is_short(self, capsys):
        # at b = 1 the domain is 1e76 well lengths sqrt(hbar/(m omega)) wide: 2e77 coarse cells
        assert main(["sweep", "--hbar", "1e-152"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and len(err) < 200, err
        assert "N = 2e+77 cells" in err

    def test_grid_cap_message_names_b_only_for_kinds_with_b(self, capsys):
        assert main(["spectrum", "--grid-n", "600000"]) == 1
        assert capsys.readouterr().err == (
            "validation error: kind 'eqintro' needs a coarse grid of N = 600000 cells, "
            "more than the limit of 524288\n"
        )

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--kind", "hext1", "--b", "inf"],
        ["spectrum", "--kind", "hext1", "--b", "nan"],
        ["spectrum", "--kind", "truncated", "--b", "inf"],
        ["spectrum", "--m", "nan"],
        ["spectrum", "--omega", "inf"],
        ["coupled", "--hbar=-inf"],
    ])
    def test_non_finite_input_is_one_line_validation_error(self, argv, capsys):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("validation error:") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--kind", "hext1", "--b", "1e200"],
        ["spectrum", "--omega", "1e200"],
        ["spectrum", "--kind", "truncated", "--b", "1e-200", "--order", "2"],
    ])
    def test_out_of_range_input_is_one_line_validation_error(self, argv, capsys):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("validation error:") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("field,value", WRONG_TYPES)
    def test_config_file_type_is_one_line_validation_error(self, field, value, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"command": "specfun", "points": [0.5], field: value}))
        assert main(["specfun", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"validation error: field '{field}' must be ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("field", ["m", "b_values"])
    def test_config_int_beyond_float_range(self, field, tmp_path, capsys):
        huge = 10**400
        cfg = tmp_path / "huge.json"
        cfg.write_text(json.dumps({field: [huge] if field == "b_values" else huge}))
        assert main(["sweep", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err == f"validation error: field '{field}' must be within float range\n"

    @pytest.mark.parametrize("argv,message", [
        (["spectrum", "--kind", "bogus"], "argument --kind: invalid choice: 'bogus'"),
        (["spectrum", "--levels", "abc"], "argument --levels: invalid int value: 'abc'"),
        (["spectrum", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
        (["sweep", "--b-values", "1,x"], "argument --b-values: invalid float list value: '1,x'"),
        ([], "the following arguments are required: command"),
        # a newline typed into an unknown flag stays inside the one line
        (["check", "--x\ny"], "unrecognized arguments: --x\\ny"),
    ])
    def test_malformed_flag_is_one_line_validation_error(self, argv, message, capsys):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"validation error: {message}") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [["--help"], ["--version"], ["sweep", "--help"]])
    def test_help_and_version_exit_0(self, argv, capsys):
        with pytest.raises(SystemExit) as caught:
            main(argv)
        assert caught.value.code == 0
        assert capsys.readouterr().err == ""

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"command": "spectrum", "whoops": True}))
        assert main(["spectrum", "--config", str(cfg)]) == 1

    def test_io_failure(self):
        assert main(["spectrum", "--levels", "1",
                     "--out", "/nonexistent-dir/x.csv"]) == 3

    def test_numerical_failure_maps_to_exit_2(self, monkeypatch):
        from affineosc import cli
        from affineosc.numeric import ConvergenceError

        def boom(config):
            raise ConvergenceError("synthetic")

        monkeypatch.setattr(cli, "run_spectrum", boom)
        assert cli.main(["spectrum", "--levels", "1"]) == 2

    def test_lapack_failure_maps_to_exit_2(self, monkeypatch, capsys):
        from affineosc import cli, numeric

        def fail(diag, off, k, tol):
            return [], 1

        monkeypatch.setattr(numeric, "_lapack", functools.partial(numeric._lapack()._replace,
                                                                 dstebz=fail))
        assert cli.main(["spectrum", "--levels", "1"]) == 2
        err = capsys.readouterr().err
        assert "numerical failure" in err
        assert err.startswith("numerical failure:") and err.count("\n") == 1

    def test_stein_failure_maps_to_exit_2(self, monkeypatch, capsys):
        import numpy as np

        from affineosc import cli, numeric

        def no_convergence(diag, off, lam):
            return np.zeros(len(diag)), 1

        monkeypatch.setattr(numeric, "_lapack", functools.partial(numeric._lapack()._replace,
                                                                 dstein=no_convergence))
        assert cli.main(["spectrum", "--levels", "1", "--samples", "4", "--format", "json"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--kind", "hext1", "--b", "1e6"],
        ["sweep", "--b-values", "0,1e6"],
        ["spectrum", "--grid-n", "5000000"],
    ])
    def test_grid_over_cap_is_one_line_validation_error(self, argv, capsys):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("validation error:") and err.count("\n") == 1
        assert "N = " in err

    @pytest.mark.parametrize("b_values,message", [
        ("0,1,nan", "b must be finite, got nan"),
        ("0,1,2,1e6", "kind 'hext1' at b = 1000000.0 needs a coarse grid of N = 3.82977e+07 "
                      "cells, more than the limit of 524288"),
    ])
    def test_sweep_checks_every_b_before_any_solve(self, b_values, message, monkeypatch, capsys):
        from affineosc import interp

        solves = []
        monkeypatch.setattr(interp, "solve", lambda *args: solves.append(args))
        assert main(["sweep", "--b-values", b_values, "--levels", "20"]) == 1
        assert capsys.readouterr().err == f"validation error: {message}\n"
        assert solves == []

    def test_levels_above_coarsest_grid_fail_before_any_eigenvalue(self, monkeypatch, capsys):
        from affineosc import numeric

        calls = []
        monkeypatch.setattr(numeric, "lowest_eigenvalues", lambda *args: calls.append(args))
        assert main(["spectrum", "--grid-n", "16", "--levels", "20"]) == 1
        assert capsys.readouterr().err == "validation error: levels must be in 1..16, got 20\n"
        assert calls == []

    @pytest.mark.parametrize("argv,n,k", [
        # CSV samples without --out
        (["--levels", "20", "--grid-n", "16", "--samples", "4"], 16, 20),
        # over the samples cap: 1000 levels x 1200 finest-grid cells
        (["--levels", "1000", "--grid-n", "300", "--samples", "1200", "--format", "json"],
         300, 1000),
    ])
    def test_levels_above_coarsest_grid_reported_before_samples(self, argv, n, k, capsys):
        # coarse_grid, which the samples checks call for the grid size, checks k first
        assert main(["spectrum", *argv]) == 1
        assert capsys.readouterr().err == f"validation error: levels must be in 1..{n}, got {k}\n"

    @pytest.mark.parametrize("argv,field", [
        (["spectrum", "--levels", "1001"], "levels"),
        (["sweep", "--levels", "1001"], "levels"),
        (["coupled", "--count", "100001"], "count"),
        (["specfun", "--n", "10001", "--points", "0.5"], "fn_n"),
        (["sweep", "--b-values", ",".join(["0"] * 101)], "b_values"),
        (["specfun", "--fn", "1f1", "--param", "nan", "--points", "1"], "fn_param"),
        (["specfun", "--fn", "laguerre", "--param=-inf", "--points", "1"], "fn_param"),
        # 1000 levels x 1001 samples, on a fine grid of more than 1001 nodes
        (["spectrum", "--levels", "1000", "--samples", "1001"], "samples"),
        (["spectrum", "--samples", "1000001"], "samples"),
    ])
    def test_cap_or_non_finite_is_one_line_validation_error(self, argv, field, capsys):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"validation error: field '{field}'") and err.count("\n") == 1

    def test_negative_fn_n_is_a_range_error(self, capsys):
        assert main(["specfun", "--n", "-1", "--points", "0.5"]) == 1
        assert capsys.readouterr().err == (
            "validation error: field 'fn_n' must be in 0..10000, got -1\n"
        )

    def test_samples_cap_counts_written_samples(self, capsys):
        # 2 x 500001 requested, but at most one sample per fine-grid node is written
        assert main(["spectrum", "--levels", "2", "--samples", "500001", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        n = doc["meta"]["grid"]["n"]
        assert [len(wf["samples"]) for wf in doc["wavefunctions"]] == [n, n]

    def test_values_at_caps_accepted(self, capsys):
        RunConfig(command="sweep", levels=1000, count=100_000, fn_n=10_000,
                  b_values=[float(b) for b in range(100)])
        assert main(["specfun", "--n", "10000", "--points", "0.5"]) == 0
        for levels, samples in (("1000", "1000"), ("1", "1000000")):
            capsys.readouterr()
            assert main(["spectrum", "--levels", levels, "--samples", samples,
                         "--dump-config"]) == 0
            assert json.loads(capsys.readouterr().out)["samples"] == int(samples)


# flags of every command, beside those in COMMAND_FLAGS
BASE_FLAGS = {
    "-h": "help", "--help": "help", "--config": "config", "--dump-config": "dump_config",
}
PHYSICS_AND_OUTPUT = {
    "--m": "m", "--omega": "omega", "--hbar": "hbar", "--g": "g", "--out": "out",
    "--format": "format",
}
COMMAND_FLAGS = {
    "spectrum": {**PHYSICS_AND_OUTPUT, "--kind": "kind", "--levels": "levels", "--b": "b",
                 "--order": "order", "--grid-n": "grid_n", "--samples": "samples"},
    "coupled": {**PHYSICS_AND_OUTPUT, "--count": "count"},
    "sweep": {**PHYSICS_AND_OUTPUT, "--b-values": "b_values", "--levels": "levels",
              "--grid-n": "grid_n"},
    "specfun": {**PHYSICS_AND_OUTPUT, "--fn": "fn", "--n": "fn_n", "--param": "fn_param",
                "--points": "points"},
    "check": {},
}


class TestParser:
    @staticmethod
    def subparsers():
        parser = build_parser()
        action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        return action.choices

    def test_flags_of_each_command(self):
        subparsers = self.subparsers()
        assert list(subparsers) == list(COMMAND_FLAGS)
        for command, flags in COMMAND_FLAGS.items():
            actions = subparsers[command]._actions
            got = {option: a.dest for a in actions for option in a.option_strings}
            assert got == {**BASE_FLAGS, **flags}, command

    def test_every_config_field_is_a_flag(self):
        dests = {a.dest for p in self.subparsers().values() for a in p._actions}
        assert {name for name, *_ in CONFIG_FIELDS} - dests == {"command"}

    def test_choices_come_from_config_fields(self):
        choices = {a.dest: a.choices for p in self.subparsers().values() for a in p._actions
                   if a.choices is not None}
        assert choices == {name: allowed for name, _, _, allowed in CONFIG_FIELDS
                           if isinstance(allowed, tuple) and name != "command"}


# a small JSON run of each command, and for each flag that takes a value, a valid
# value other than the one that run uses
READ_BASE = {
    "spectrum": ["spectrum", "--levels", "1", "--grid-n", "16", "--g", "0.5", "--format", "json"],
    "coupled": ["coupled", "--g", "0.5", "--count", "2", "--format", "json"],
    "sweep": ["sweep", "--b-values", "0", "--levels", "1", "--grid-n", "16", "--format", "json"],
    "specfun": ["specfun", "--points", "0.5", "--format", "json"],
    "check": ["check"],
}
OTHER_VALUE = {
    "--m": "2", "--omega": "2", "--hbar": "2", "--g": "0.25", "--format": "csv",
    "--kind": "eqo1", "--levels": "2", "--b": "1", "--order": "2", "--grid-n": "32",
    "--samples": "4", "--count": "3", "--b-values": "0,1", "--fn": "laguerre", "--n": "2",
    "--param": "0.5", "--points": "1,2",
}


@pytest.mark.parametrize("command,flag", [
    pytest.param(command, action.option_strings[0], id=f"{command} {action.option_strings[0]}")
    for command, parser in TestParser.subparsers().items() for action in parser._actions
    if action.option_strings[0] not in ("-h", "--config", "--dump-config")
])
def test_every_accepted_flag_is_read(command, flag, tmp_path, capsys):
    """A flag the command takes, set to another valid value, changes stdout or is refused."""
    assert main(READ_BASE[command]) == 0
    before = capsys.readouterr().out
    value = str(tmp_path / "out.csv") if flag == "--out" else OTHER_VALUE[flag]
    code = main([*READ_BASE[command], flag, value])
    after, err = capsys.readouterr()
    if code == 1:
        assert err.startswith("validation error:") and err.count("\n") == 1, err
    else:
        assert (code, after != before) == (0, True), "the flag's value was not read"


@pytest.mark.parametrize("argv,message", [
    (["spectrum", "--levels", "1", "--samples", "4"], "field 'samples' needs 'out' in CSV"),
    (["spectrum", "--kind", "hext1"], "b must be a number, got None"),
    (["spectrum", "--kind", "truncated", "--b", "5"],
     "order must be an integer, got None"),
    (["spectrum", "--b", "5", "--order", "99"], "kind 'eqintro' does not take b"),
    (["spectrum", "--order", "2"], "kind 'eqintro' does not take an expansion order"),
    (["sweep", "--b-values", "1,1"], "b values must be strictly ascending"),
    (["sweep", "--b-values", "0,-0", "--format", "json"], "b values must be strictly ascending"),
], ids=["csv-samples-to-stdout", "hext1-without-b", "truncated-without-order", "eqintro-with-b",
        "eqintro-with-order", "repeated-b", "signed-zero-b"])
def test_input_that_would_go_unread_is_validation_error(argv, message, capsys):
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"validation error: {message}") and err.count("\n") == 1


def test_csv_to_stdout_builds_no_companion_rows(tmp_path, monkeypatch, capsys):
    # the branches table of coupled goes to a companion file only, so stdout skips its rows
    from affineosc import analytic

    calls = []
    original = analytic.branch_energy

    def counted(branch, n, params):
        calls.append(n)
        return original(branch, n, params)

    monkeypatch.setattr(analytic, "branch_energy", counted)
    argv = ["coupled", "--g", "0.6", "--count", "7"]
    assert main(argv) == 0
    to_stdout = len(calls)
    assert main([*argv, "--out", str(tmp_path / "c.csv")]) == 0
    assert len(calls) == 2 * to_stdout + 2 * 7


PARAMS_UNIT = ('{"m": 1.00000000000000e+00, "omega": 1.00000000000000e+00, '
               '"hbar": 1.00000000000000e+00, "g": 0.00000000000000e+00}')


def keys(mapping):
    return list(mapping.keys())


class TestOutputBytes:
    """Exact output of the analytic commands; these bytes do not depend on the platform."""

    COUPLED_CSV = (
        "n1,n2,energy\n"
        "0,0,1.42302494707577e+00\n"
        "0,1,1.73925271309261e+00\n"
        "0,2,2.05548047910945e+00\n"
        "0,3,2.37170824512628e+00\n"
        "0,4,2.68793601114312e+00\n"
    )
    BRANCHES = [
        ("coupled_y1", 0, "1.26491106406735e+00"),
        ("coupled_y1", 1, "2.52982212813470e+00"),
        ("coupled_y1", 2, "3.79473319220206e+00"),
        ("coupled_y1", 3, "5.05964425626941e+00"),
        ("coupled_y1", 4, "6.32455532033676e+00"),
        ("coupled_y2", 0, "1.58113883008419e-01"),
        ("coupled_y2", 1, "4.74341649025257e-01"),
        ("coupled_y2", 2, "7.90569415042095e-01"),
        ("coupled_y2", 3, "1.10679718105893e+00"),
        ("coupled_y2", 4, "1.42302494707577e+00"),
    ]

    def test_coupled_csv_and_branches_companion(self, tmp_path):
        out = tmp_path / "coupled.csv"
        assert main(["coupled", "--g", "0.6", "--count", "5", "--out", str(out)]) == 0
        assert read(out) == self.COUPLED_CSV
        assert read(tmp_path / "coupled_branches.csv") == "branch,n,energy\n" + "".join(
            f"{b},{n},{e}\n" for b, n, e in self.BRANCHES
        )

    def test_coupled_json(self, capsys):
        assert main(["coupled", "--g", "0.6", "--count", "5", "--format", "json"]) == 0
        composite = ", ".join(
            f'{{"n1": {n1}, "n2": {n2}, "energy": {e}}}'
            for n1, n2, e in (line.split(",") for line in self.COUPLED_CSV.split("\n")[1:-1])
        )
        branches = ", ".join(
            f'{{"branch": "{b}", "n": {n}, "energy": {e}}}' for b, n, e in self.BRANCHES
        )
        params = PARAMS_UNIT.replace('"g": 0.00000000000000e+00', '"g": 6.00000000000000e-01')
        assert capsys.readouterr().out == (
            "{\n"
            f'  "composite": [{composite}],\n'
            f'  "branches": [{branches}],\n'
            f'  "meta": {{"tool_version": "0.1.0", "params": {params}}}\n'
            "}\n"
        )

    def test_specfun_csv(self, capsys):
        assert main(["specfun", "--fn", "1f1", "--n", "4", "--param", "2",
                     "--points", "0,0.5,3"]) == 0
        assert capsys.readouterr().out == (
            "x,value\n"
            "0.00000000000000e+00,1.00000000000000e+00\n"
            "5.00000000000000e-01,2.29687500000000e-01\n"
            "3.00000000000000e+00,1.75000000000000e-01\n"
        )

    def test_specfun_json(self, capsys):
        assert main(["specfun", "--fn", "hermite", "--n", "3", "--points", "0,1,2",
                     "--format", "json"]) == 0
        assert capsys.readouterr().out == (
            "{\n"
            '  "fn": "hermite",\n'
            '  "n": 3,\n'
            '  "param": 2.00000000000000e+00,\n'
            '  "values": [{"x": 0.00000000000000e+00, "value": -0.00000000000000e+00}, '
            '{"x": 1.00000000000000e+00, "value": -4.00000000000000e+00}, '
            '{"x": 2.00000000000000e+00, "value": 4.00000000000000e+01}],\n'
            f'  "meta": {{"tool_version": "0.1.0", "params": {PARAMS_UNIT}}}\n'
            "}\n"
        )

    def test_numpy_scalars(self):
        # values render by their exact type: the plain ones below do, and
        # numpy's scalars, which no command produces, are rejected in both formats
        import numpy as np

        from affineosc.cli import render_csv

        plain = [-3, 0.1, math.nan, -math.inf, True, False, None, "y2"]
        assert render_json({"v": plain, "t": (7,)}) == (
            "{\n"
            '  "v": [-3, 1.00000000000000e-01, null, null, true, false, null, "y2"],\n'
            '  "t": [7]\n'
            "}\n"
        )
        assert render_csv(list("abcdefgh"), [plain]) == (
            "a,b,c,d,e,f,g,h\n"
            "-3,1.00000000000000e-01,nan,-inf,1.00000000000000e+00,0.00000000000000e+00,,y2\n"
        )
        for value in (np.int64(-3), np.float64(0.1), np.float32(0.1), np.bool_(True)):
            for render in (lambda: render_json({"v": value}), lambda: render_json({"v": [value]}),
                           lambda: render_csv(["v"], [[value]])):
                with pytest.raises(TypeError, match="cannot serialize"):
                    render()

    def test_spectrum_json_samples_with_non_finite_values(self, monkeypatch, capsys):
        # a fixed solver result, so the bytes do not depend on LAPACK; the
        # four downsampled cell centres x = 1, 6, 11, 16 carry 0.25, nan, -inf, inf
        from array import array

        from affineosc import numeric

        grid = numeric.Grid(0.5, 16.5, 16)
        wf = array("d", [0.25] * 16)  # the type numeric.eigenvector returns
        wf[5], wf[10], wf[15] = math.nan, -math.inf, math.inf
        result = numeric.EigenResult([numeric.Level(0, 4.0, 2.0, 4.0)], grid, None, [0.0],
                                     [[4.0]] * 3)
        monkeypatch.setattr(numeric, "solve", lambda spec, k, policy: result)
        monkeypatch.setattr(numeric, "eigenvector", lambda matrix, lam, h: wf)
        assert main(["spectrum", "--levels", "1", "--samples", "4", "--format", "json"]) == 0
        assert capsys.readouterr().out == (
            "{\n"
            '  "levels": [{"n": 0, "energy_analytic": 2.00000000000000e+00, '
            '"energy_numeric": 2.00000000000000e+00, "abs_diff": 0.00000000000000e+00}],\n'
            f'  "meta": {{"tool_version": "0.1.0", "params": {PARAMS_UNIT}, '
            '"grid": {"n": 16, "x_min": 5.00000000000000e-01, "x_max": 1.65000000000000e+01}, '
            '"kind": "eqintro"},\n'
            '  "wavefunctions": [{"n": 0, "samples": [[1.00000000000000e+00, 2.50000000000000e-01], '
            "[6.00000000000000e+00, null], [1.10000000000000e+01, null], "
            "[1.60000000000000e+01, null]]}]\n"
            "}\n"
        )


class TestOutputSchemas:
    """Headers, key order at every level and row counts of the numeric commands."""

    META_KEYS = ["tool_version", "params"]
    PARAM_KEYS = ["m", "omega", "hbar", "g"]
    GRID_KEYS = ["n", "x_min", "x_max"]

    def test_spectrum_csv_with_samples_companion(self, tmp_path):
        out = tmp_path / "spec.csv"
        assert main(["spectrum", "--kind", "eqintro", "--levels", "2",
                     "--samples", "8", "--out", str(out)]) == 0
        header, rows = parse_csv(read(out))
        assert header == ["n", "energy_analytic", "energy_numeric", "abs_diff"]
        assert [r[0] for r in rows] == ["0", "1"]
        header, rows = parse_csv(read(tmp_path / "spec_wavefunctions.csv"))
        assert header == ["n", "x", "value"]
        assert [r[0] for r in rows] == ["0"] * 8 + ["1"] * 8

    def test_spectrum_csv_without_closed_form_leaves_cells_empty(self, capsys):
        assert main(["spectrum", "--kind", "hext1", "--b", "1", "--levels", "2"]) == 0
        _, rows = parse_csv(capsys.readouterr().out)
        assert [(r[1], r[3]) for r in rows] == [("", ""), ("", "")]

    def test_spectrum_json_with_wavefunctions(self, capsys):
        assert main(["spectrum", "--kind", "eqo1", "--g", "0.6", "--levels", "2",
                     "--samples", "8", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert keys(doc) == ["levels", "meta", "wavefunctions"]
        assert [keys(lv) for lv in doc["levels"]] == [
            ["n", "energy_analytic", "energy_numeric", "abs_diff"]
        ] * 2
        assert keys(doc["meta"]) == self.META_KEYS + ["grid", "kind"]
        assert keys(doc["meta"]["params"]) == self.PARAM_KEYS
        assert keys(doc["meta"]["grid"]) == self.GRID_KEYS
        assert [keys(wf) for wf in doc["wavefunctions"]] == [["n", "samples"]] * 2
        assert [wf["n"] for wf in doc["wavefunctions"]] == [0, 1]
        for wf in doc["wavefunctions"]:
            assert [len(s) for s in wf["samples"]] == [2] * 8

    def test_spectrum_json_without_closed_form_writes_null(self, capsys):
        assert main(["spectrum", "--kind", "truncated", "--b", "5", "--order", "2",
                     "--levels", "1", "--format", "json"]) == 0
        level = json.loads(capsys.readouterr().out)["levels"][0]
        assert level["energy_analytic"] is None and level["abs_diff"] is None

    def test_sweep_json(self, capsys):
        assert main(["sweep", "--b-values", "0,1", "--levels", "2", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert keys(doc) == ["rows", "meta"]
        assert [keys(r) for r in doc["rows"]] == [["b", "n", "energy", "dev_half", "dev_full"]] * 4
        assert [(r["b"], r["n"]) for r in doc["rows"]] == [(0.0, 0), (0.0, 1), (1.0, 0), (1.0, 1)]
        assert keys(doc["meta"]) == self.META_KEYS + ["grids"]
        assert keys(doc["meta"]["params"]) == self.PARAM_KEYS
        grids = doc["meta"]["grids"]
        assert keys(grids) == ["0.00000000000000e+00", "1.00000000000000e+00"]
        assert [keys(g) for g in grids.values()] == [self.GRID_KEYS] * 2


def cell_text(value):
    """A JSON value as its CSV cell: null is empty, a float its 15-digit text."""
    if value is None:
        return ""
    return format(value, ".14e") if isinstance(value, float) else str(value)


class TestCsvJsonAgree:
    """The CSV files and the JSON document of one run hold the same tables, cell by cell."""

    @pytest.mark.parametrize("argv,tables", [
        (["spectrum", "--kind", "hext1", "--b", "1", "--levels", "2", "--samples", "5"],
         ["levels", "wavefunctions"]),
        (["spectrum", "--kind", "eqo2", "--g", "0.6", "--levels", "3", "--samples", "4"],
         ["levels", "wavefunctions"]),
        (["coupled", "--g", "0.6", "--count", "7"], ["composite", "branches"]),
        (["sweep", "--b-values", "0,2", "--levels", "2"], ["rows"]),
        (["specfun", "--fn", "laguerre", "--n", "3", "--param", "0.5", "--points", "0,1.5"],
         ["values"]),
    ], ids=["spectrum-hext1", "spectrum-eqo2", "coupled", "sweep", "specfun"])
    def test_same_rows(self, argv, tables, tmp_path):
        out = tmp_path / "out.csv"
        assert main(argv + ["--out", str(out)]) == 0
        assert main(argv + ["--format", "json", "--out", str(tmp_path / "out.json")]) == 0
        doc = json.loads(read(tmp_path / "out.json"))
        for idx, key in enumerate(tables):
            header, rows = parse_csv(read(out if idx == 0 else tmp_path / f"out_{key}.csv"))
            records = doc[key]
            if key == "wavefunctions":
                records = [{"n": wf["n"], "x": x, "value": v}
                           for wf in records for x, v in wf["samples"]]
            assert [keys(r) for r in records] == [header] * len(rows), key
            assert [[cell_text(v) for v in r.values()] for r in records] == rows, key

    def test_empty_sweep(self, capsys):
        assert main(["sweep", "--b-values", ""]) == 0
        assert capsys.readouterr().out == "b,n,energy,dev_half,dev_full\n"
        assert main(["sweep", "--b-values", "", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["rows"] == []


THREADS_SCRIPT = """
import threading
from affineosc import cli
for argv in (["spectrum", "--levels", "2"],
             ["spectrum", "--levels", "2", "--samples", "4", "--format", "json"],
             ["coupled", "--g", "0.6", "--count", "5"], ["check"]):
    assert cli.main(argv) == 0, argv
    assert threading.active_count() == 1, (argv, threading.enumerate())
"""


def test_no_python_threads_started():
    # no command starts a thread of its own, so none runs beside the caller's
    import os
    import subprocess
    import sys

    import affineosc

    src = os.path.dirname(os.path.dirname(affineosc.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", THREADS_SCRIPT], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
