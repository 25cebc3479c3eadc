import json
import math

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

    def test_points_required(self):
        assert main(["specfun", "--fn", "hermite", "--n", "3"]) == 1


class TestCheckCommand:
    def test_passes_on_fresh_build(self, capsys):
        assert main(["check"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out


class TestExitCodes:
    def test_validation_error(self, capsys):
        assert main(["spectrum", "--g", "2.0"]) == 1
        assert "validation error" in capsys.readouterr().err

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
