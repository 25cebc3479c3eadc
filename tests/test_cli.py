import json
import math
import warnings

import pytest

from affineosc.cli import RunConfig, config_from_args, build_parser, main, render_json


def read(path):
    with open(path) as handle:
        return handle.read()


def parse_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestRunConfig:
    def test_defaults_valid(self):
        cfg = RunConfig(command="spectrum")
        assert cfg.kind == "eqintro" and cfg.format == "csv"

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            RunConfig.from_mapping({"command": "spectrum", "bogus": 1})

    @pytest.mark.parametrize("field,value", [
        ("command", "nope"), ("kind", "nope"), ("format", "xml"),
        ("levels", 0), ("count", 0), ("samples", -1), ("grid_n", 4),
    ])
    def test_field_validation(self, field, value):
        with pytest.raises(ValueError, match=field):
            RunConfig.from_mapping({"command": "spectrum", field: value})

    def test_dump_round_trip(self, capsys):
        assert main(["spectrum", "--kind", "eqo1", "--g", "0.3", "--dump-config"]) == 0
        dumped = json.loads(capsys.readouterr().out)
        cfg = RunConfig.from_mapping(dumped)
        assert cfg == RunConfig.from_mapping(dumped)
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
        from scipy.linalg import LinAlgError

        from affineosc import cli, numeric

        def fail(*args, **kwargs):
            raise LinAlgError("synthetic stebz failure")

        monkeypatch.setattr(numeric, "eigh_tridiagonal", fail)
        assert cli.main(["spectrum", "--levels", "1"]) == 2
        assert "numerical failure" in capsys.readouterr().err

    def test_stein_failure_maps_to_exit_2(self, monkeypatch, capsys):
        import numpy as np

        from affineosc import cli, numeric

        def no_convergence(d, e, w, iblock, isplit):
            return np.zeros((len(d), len(w))), 1

        monkeypatch.setattr(numeric, "dstein", no_convergence)
        assert cli.main(["spectrum", "--levels", "1"]) == 2
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

    @pytest.mark.parametrize("argv,field", [
        (["spectrum", "--levels", "1001"], "levels"),
        (["sweep", "--levels", "1001"], "levels"),
        (["coupled", "--count", "100001"], "count"),
        (["specfun", "--n", "10001", "--points", "0.5"], "fn_n"),
        (["sweep", "--b-values", ",".join(["0"] * 101)], "b_values"),
        (["specfun", "--fn", "1f1", "--param", "nan", "--points", "1"], "fn_param"),
        (["specfun", "--fn", "laguerre", "--param=-inf", "--points", "1"], "fn_param"),
    ])
    def test_cap_or_non_finite_is_one_line_validation_error(self, argv, field, capsys):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"validation error: field '{field}'") and err.count("\n") == 1

    def test_values_at_caps_accepted(self, capsys):
        RunConfig(command="sweep", levels=1000, count=100_000, fn_n=10_000,
                  b_values=[float(b) for b in range(100)])
        assert main(["specfun", "--n", "10000", "--points", "0.5"]) == 0


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
