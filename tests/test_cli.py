import json

import numpy as np
import pytest

from h2mor.cli import main
from h2mor.mmio import load_rom_dir, save_rom_dir, write_matrix_market

from .helpers import random_stable_model


@pytest.fixture
def model_tree(tmp_path, monkeypatch):
    """A synthetic manifest + matrix tree registered on the search path."""
    model = random_stable_model(24, 2, 2, 700)
    d = tmp_path / "toy24"
    d.mkdir()
    for name, M in (("A", model.A), ("B", model.B), ("C", model.C), ("E", model.E)):
        write_matrix_market(M, d / f"{name}.mtx")
    (tmp_path / "toy24.json").write_text(json.dumps({
        "name": "toy24", "A": "toy24/A.mtx", "B": "toy24/B.mtx", "C": "toy24/C.mtx",
        "E": "toy24/E.mtx", "n": 24, "m": 2, "p": 2}))
    monkeypatch.setenv("H2MOR_MANIFEST_PATH", str(tmp_path))
    monkeypatch.setenv("H2MOR_BENCH_DATA", str(tmp_path))
    return model, tmp_path


@pytest.fixture
def lag_tree(tmp_path, monkeypatch, scalar_lag):
    d = tmp_path / "lag"
    d.mkdir()
    for name, M in (("A", scalar_lag.A), ("B", scalar_lag.B), ("C", scalar_lag.C)):
        write_matrix_market(M, d / f"{name}.mtx")
    (tmp_path / "lag.json").write_text(json.dumps({
        "name": "lag", "A": "lag/A.mtx", "B": "lag/B.mtx", "C": "lag/C.mtx",
        "n": 1, "m": 1, "p": 1}))
    monkeypatch.setenv("H2MOR_MANIFEST_PATH", str(tmp_path))
    monkeypatch.setenv("H2MOR_BENCH_DATA", str(tmp_path))
    return tmp_path


class TestConfig:
    def test_defaults_match_reference_settings(self, capsys):
        assert main(["config"]) == 0
        cfg = json.loads(capsys.readouterr().out)
        assert cfg["tol"] == 1e-3
        assert cfg["max_iter"] == 50
        assert cfg["irka_stop_criterion"] == "s0"
        assert cfg["cirka_stop_criterion"] == "s0+tanDir"
        assert cfg["init_strategy"] == "I2"
        assert cfg["update_strategy"] == "U2"


class TestReduce:
    def test_cirka_reduce_with_output(self, model_tree, tmp_path, capsys):
        _, root = model_tree
        out = tmp_path / "romdir"
        code = main(["reduce", "--model", "toy24", "--r", "4", "--algo", "cirka",
                     "--init", "zero", "--out", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "k_CIRKA" in text and "n_LU" in text and "optimal shifts" in text
        rom = load_rom_dir(out)
        assert rom.n == 4
        assert (out / "data.json").exists()
        summary = json.loads((out / "result.json").read_text())
        assert summary["algorithm"] == "cirka" and summary["r"] == 4

    def test_irka_reduce(self, model_tree, capsys):
        code = main(["reduce", "--model", "toy24", "--r", "4", "--algo", "irka",
                     "--tol", "1e-6", "--max-iter", "100"])
        assert code == 0
        assert "k_IRKA" in capsys.readouterr().out

    def test_invalid_r(self, capsys):
        assert main(["reduce", "--model", "toy24", "--r", "0"]) == 1

    def test_unknown_model_lists_bundled(self, capsys):
        code = main(["reduce", "--model", "not-a-model", "--r", "2"])
        assert code == 1
        err = capsys.readouterr().err
        assert "cdplayer" in err

    def test_cirka_model_function_above_n(self, model_tree, capsys):
        # 2r = 26 exceeds n = 24: CIRKA falls back to direct IRKA
        assert main(["reduce", "--model", "toy24", "--r", "13", "--algo", "cirka"]) == 0
        assert "k_CIRKA" in capsys.readouterr().out

    def test_r_not_below_n(self, model_tree, capsys):
        assert main(["reduce", "--model", "toy24", "--r", "24"]) == 1

    def test_init_from_file(self, model_tree, tmp_path, capsys):
        from h2mor import InterpolationData

        data = InterpolationData.zero_init(4, 2, 2)
        f = tmp_path / "init.json"
        f.write_text(json.dumps(data.to_jsonable()))
        code = main(["reduce", "--model", "toy24", "--r", "4", "--algo", "irka",
                     "--init", "file", "--init-file", str(f)])
        assert code == 0


class TestVerify:
    def test_roundtrip_verification_passes(self, model_tree, tmp_path, capsys):
        out = tmp_path / "romdir"
        assert main(["reduce", "--model", "toy24", "--r", "4", "--algo", "cirka",
                     "--tol", "1e-9", "--outer-tol", "1e-8", "--out", str(out)]) == 0
        code = main(["verify", "--model", "toy24", "--rom", str(out),
                     "--check", "all", "--tol", "1e-5"])
        out_text = capsys.readouterr().out
        assert code == 0, out_text
        assert "pass" in out_text

    def test_perturbed_rom_fails_with_exit_3(self, model_tree, tmp_path, capsys):
        out = tmp_path / "romdir"
        assert main(["reduce", "--model", "toy24", "--r", "4", "--algo", "cirka",
                     "--tol", "1e-9", "--outer-tol", "1e-8", "--out", str(out)]) == 0
        rom = load_rom_dir(out)
        from h2mor import make_model

        perturbed = make_model(rom.E, rom.A * 1.02, rom.B, rom.C, rom.D)
        save_rom_dir(perturbed, out)
        code = main(["verify", "--model", "toy24", "--rom", str(out),
                     "--check", "optimality", "--tol", "1e-6"])
        assert code == 3
        assert "FAIL" in capsys.readouterr().out

    def test_dimension_mismatch_is_load_error(self, model_tree, lag_tree, tmp_path, capsys):
        rom = random_stable_model(3, 1, 1, 701)
        out = tmp_path / "wrongrom"
        save_rom_dir(rom, out)
        code = main(["verify", "--model", "toy24", "--rom", str(out)])
        assert code == 1


class TestBode:
    def test_scalar_lag_magnitude(self, lag_tree, capsys):
        code = main(["bode", "--model", "lag", "--wmin", "1", "--wmax", "1",
                     "--points", "1"])
        assert code == 1   # wmin == wmax rejected
        code = main(["bode", "--model", "lag", "--wmin", "0.99999", "--wmax", "1.00001",
                     "--points", "3"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "omega,mag_lag_11"
        mid = lines[2].split(",")
        assert float(mid[1]) == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-4)

    def test_range_validation(self, lag_tree, capsys):
        assert main(["bode", "--model", "lag", "--wmin", "10", "--wmax", "1"]) == 1

    def test_rom_overlay(self, model_tree, tmp_path, capsys):
        out = tmp_path / "romdir"
        assert main(["reduce", "--model", "toy24", "--r", "4", "--out", str(out)]) == 0
        capsys.readouterr()
        code = main(["bode", "--model", "toy24", "--roms", str(out), "--points", "5"])
        assert code == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert header.startswith("omega,mag_toy24_11")
        assert "mag_romdir_11" in header

    def test_auto_range(self, model_tree, capsys):
        assert main(["bode", "--model", "toy24", "--points", "4"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 5


class TestBenchmarkCommand:
    def test_cartesian_expansion(self, model_tree, lag_tree, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        code = main(["benchmark", "--models", "toy24", "--r", "2,4",
                     "--format", "csv", "--out", str(out), "--compare"])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + 2 * 2   # header + r-values x algorithms
        assert "cirka cheaper" in capsys.readouterr().out

    def test_stdout_json(self, model_tree, capsys):
        code = main(["benchmark", "--models", "toy24", "--r", "2",
                     "--algos", "irka", "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["rows"]) == 1

    def test_unknown_model(self, capsys):
        assert main(["benchmark", "--models", "no-such", "--r", "2"]) == 1

    def test_bad_r(self, capsys):
        assert main(["benchmark", "--models", "toy24", "--r", "0"]) == 1
