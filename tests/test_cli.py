import json
import sys

import numpy as np
import pytest

from h2mor import (
    DENSE_THRESHOLD,
    InterpolationBlock,
    InterpolationData,
    hermite_reduce,
    make_model,
    pole_residue,
    verify_h2_optimality,
    verify_realization_equivalence,
    verify_tangential_interpolation,
)
from h2mor import linalg
from h2mor.cli import _fmt_shifts, main
from h2mor.errors import DefectiveSpectrum
from h2mor.mmio import load_rom_dir, save_rom_dir, write_matrix_market

from .helpers import random_conjugate_data, random_stable_model
from .test_mmio import MALFORMED_HEADERS

#: Interpolation-data payloads that lack a key, nest a scalar where a pair belongs,
#: hold no block, or mix tangent sizes.
MALFORMED_DATA = [
    {}, {"blocks": [{"sigma": 1}]}, {"blocks": []},
    {"blocks": [{"sigma": [1, 0], "right": [[1, 0]], "left": [[1, 0]], "length": 1},
                {"sigma": [2, 0], "right": [[1, 0], [1, 0]], "left": [[1, 0]], "length": 1}]},
]

#: Manifest payloads that are valid JSON but not a valid manifest, and the text
#: the error line must contain.
MALFORMED_MANIFESTS = [
    pytest.param(["name", "A", "B", "C", "n", "m", "p"], "JSON object", id="list"),
    pytest.param({"name": "bad", "A": 5, "B": "B.mtx", "C": "C.mtx", "n": 2, "m": 1, "p": 1},
                 "'A'", id="A-not-string"),
    pytest.param({"name": "bad", "A": "A.mtx", "B": "B.mtx", "C": "C.mtx", "E": ["E.mtx"],
                  "n": 2, "m": 1, "p": 1}, "'E'", id="E-not-string"),
    pytest.param({"name": "bad", "A": "A.mtx", "B": "B.mtx", "C": "C.mtx",
                  "n": "two", "m": 1, "p": 1}, "'n'", id="n-not-integer"),
    pytest.param({"name": ["bad"], "A": "A.mtx", "B": "B.mtx", "C": "C.mtx",
                  "n": 2, "m": 1, "p": 1}, "'name'", id="name-not-string"),
]

#: Each command, given the model name ``bad`` and a rom directory.
COMMANDS = {
    "reduce": lambda rom: ["reduce", "--model", "bad", "--r", "1"],
    "verify": lambda rom: ["verify", "--model", "bad", "--rom", str(rom)],
    "bode": lambda rom: ["bode", "--model", "bad", "--roms", str(rom)],
    "benchmark": lambda rom: ["benchmark", "--models", "bad", "--r", "1"],
}

#: Each command that writes ``--out``, run on the model ``toy24``.
WRITING_COMMANDS = {
    "reduce": ["reduce", "--model", "toy24", "--r", "2", "--algo", "irka"],
    "bode": ["bode", "--model", "toy24", "--points", "2"],
    "benchmark": ["benchmark", "--models", "toy24", "--r", "2", "--algos", "irka"],
}

#: ``reduce --r 4`` arguments and ``--init file`` data (or None) that the parser
#: accepts but the options or the model rule out; the model has m = p = 2.
REJECTED_REDUCE_INPUTS = [
    pytest.param(["--max-iter", "0"], None, id="max-iter-0"),
    pytest.param(["--outer-max-iter", "0"], None, id="outer-max-iter-0"),
    pytest.param(["--nm", "5"], None, id="I2-nm-not-2r"),
    pytest.param(["--init-strategy", "I1", "--nm", "3"], None, id="I1-nm-below-r"),
    pytest.param(["--tol", "inf"], None, id="tol-inf"),
    pytest.param(["--tol", "nan"], None, id="tol-nan"),
    pytest.param(["--outer-tol", "inf"], None, id="outer-tol-inf"),
    pytest.param(["--outer-tol", "nan"], None, id="outer-tol-nan"),
    pytest.param([], InterpolationData.zero_init(4, 3, 2), id="file-tangent-size"),
    pytest.param([], InterpolationData.simple([1 + 1j, 1 - 2j, 2, 3], np.ones((4, 2)),
                                              np.ones((4, 2))), id="file-not-closed"),
    pytest.param([], InterpolationData.zero_init(2, 2, 2), id="file-r-2"),
]


def register_model(root, monkeypatch, key, model):
    """Write ``model`` as a manifest + matrix tree under ``root`` on the search path."""
    d = root / key
    d.mkdir()
    for name, M in (("A", model.A), ("B", model.B), ("C", model.C), ("E", model.E)):
        write_matrix_market(M, d / f"{name}.mtx")
    (root / f"{key}.json").write_text(json.dumps({
        "name": key, **{name: f"{key}/{name}.mtx" for name in "ABCE"},
        "n": model.n, "m": model.m, "p": model.p}))
    monkeypatch.setenv("H2MOR_MANIFEST_PATH", str(root))
    monkeypatch.setenv("H2MOR_BENCH_DATA", str(root))


@pytest.fixture
def model_tree(tmp_path, monkeypatch):
    """A synthetic manifest + matrix tree registered on the search path."""
    model = random_stable_model(24, 2, 2, 700)
    register_model(tmp_path, monkeypatch, "toy24", model)
    return model, tmp_path


@pytest.fixture
def cirka_tree(tmp_path, monkeypatch):
    """``toy60``: CIRKA at r = 4 keeps its model function below the cap n // 2 = 30."""
    model = random_stable_model(60, 2, 2, 700)
    register_model(tmp_path, monkeypatch, "toy60", model)
    return model


def reduce_with_cirka(out, caplog):
    """A tight CIRKA run on ``toy60`` written to ``out``, which must not fall back to IRKA."""
    with caplog.at_level("WARNING", logger="h2mor"):
        assert main(["reduce", "--model", "toy60", "--r", "4", "--algo", "cirka",
                     "--tol", "1e-9", "--outer-tol", "1e-8", "--out", str(out)]) == 0
    assert not any("falling back" in r.getMessage() for r in caplog.records)


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


def assert_one_line(capsys, prefix):
    """stdout is empty and stderr is exactly one line that starts with ``prefix``."""
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(prefix) and captured.err.count("\n") == 1, captured.err
    return captured.err


class TestExitCodes:
    """Every command maps a load error to exit 1 and a solver error to exit 2."""

    @pytest.mark.parametrize("payload, named", MALFORMED_MANIFESTS)
    @pytest.mark.parametrize("command", COMMANDS)
    def test_malformed_manifest_is_load_error(self, tmp_path, monkeypatch, capsys,
                                              command, payload, named):
        (tmp_path / "bad.json").write_text(json.dumps(payload))
        save_rom_dir(random_stable_model(2, 1, 1, 703), tmp_path / "rom")
        monkeypatch.setenv("H2MOR_MANIFEST_PATH", str(tmp_path))
        assert main(COMMANDS[command](tmp_path / "rom")) == 1
        assert named in assert_one_line(capsys, "error: ")

    @pytest.mark.parametrize("text, error, message", MALFORMED_HEADERS)
    def test_malformed_matrix_file_is_load_error(self, tmp_path, monkeypatch, capsys, text,
                                                 error, message):
        register_model(tmp_path, monkeypatch, "bad", random_stable_model(2, 1, 1, 704))
        (tmp_path / "bad" / "A.mtx").write_text(text)
        assert main(COMMANDS["reduce"](None)) == 1
        assert f"A.mtx: {message}" in assert_one_line(capsys, "error: ")

    def test_manifest_syntax_error_is_load_error(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "bad.json").write_text('{"name": "bad",\n "A": ,\n "B": "y"}\n')
        monkeypatch.setenv("H2MOR_MANIFEST_PATH", str(tmp_path))
        assert main(COMMANDS["reduce"](None)) == 1
        assert "bad.json: line 2: " in assert_one_line(capsys, "error: ")

    def test_bode_on_a_pole_is_solver_failure(self, tmp_path, monkeypatch, capsys):
        # poles +-i: G(s) is evaluated at s = 1j, where sE - A is singular
        oscillator = make_model(None, np.array([[0.0, 1.0], [-1.0, 0.0]]), [[0.0], [1.0]],
                                [[1.0, 0.0]])
        register_model(tmp_path, monkeypatch, "osc", oscillator)
        assert main(["bode", "--model", "osc", "--wmin", "1", "--wmax", "2",
                     "--points", "2"]) == 2
        assert_one_line(capsys, "solver failure: ")

    @pytest.mark.parametrize("algo", ["irka", "cirka"])
    def test_refused_spectrum_init_is_solver_failure(self, tmp_path, monkeypatch, capsys,
                                                     algo):
        # a near-Jordan block: the model's eigenvectors are refused, which is
        # the solver's failure, not the load's
        A = np.diag(-np.arange(1.0, 9.0))
        A[:2, :2] = [[-1.0, 1.0], [0.0, -1.0 - 1e-6]]
        register_model(tmp_path, monkeypatch, "jordan8",
                       make_model(None, A, np.ones((8, 1)), np.ones((1, 8))))
        assert main(["reduce", "--model", "jordan8", "--r", "2", "--algo", algo,
                     "--init", "eigs"]) == 2
        assert "condition number" in assert_one_line(capsys, "solver failure: ")

    @pytest.mark.parametrize("argv, named", [
        (["reduce", "--model", "x", "--r", "2", "--algo", "foo"], "invalid choice: 'foo'"),
        (["reduce", "--model", "x", "--r", "two"], "invalid int value: 'two'"),
        (["reduce", "--r", "2"], "the following arguments are required: --model"),
        (["benchmark", "--models", "x", "--r", "2", "--algos", "irka,foo"],
         "unknown algorithm 'foo'"),
    ], ids=["bad-algo", "non-integer-r", "missing-model", "bad-algos-entry"])
    def test_usage_error_is_validation_error(self, capsys, argv, named):
        # exit 2 is a solver failure, so argparse's usage exit is not used
        assert main(argv) == 1
        assert named in assert_one_line(capsys, "error: ")

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["reduce", "--help"])
        assert exc.value.code == 0
        assert "--model" in capsys.readouterr().out

    @pytest.mark.parametrize("command", WRITING_COMMANDS)
    def test_unwritable_out_is_load_error(self, model_tree, tmp_path, capsys, command):
        (tmp_path / "afile").write_text("")
        out = tmp_path / "afile" / "x"      # below a regular file
        assert main([*WRITING_COMMANDS[command], "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}: ") and err.count("\n") == 1, err


class TestConfig:
    def test_defaults_match_reference_settings(self, capsys):
        assert main(["config"]) == 0
        cfg = json.loads(capsys.readouterr().out)
        assert cfg["tol"] == 1e-3
        assert cfg["max_iter"] == 50
        assert cfg["stop_criterion"] == "s0+tanDir"
        assert not any(key.endswith("_stop_criterion") for key in cfg)
        assert cfg["init_strategy"] == "I2"
        assert cfg["update_strategy"] == "U2"

    def test_prints_factorization_settings(self, capsys):
        assert main(["config"]) == 0
        cfg = json.loads(capsys.readouterr().out)
        assert cfg["lu_ordering"] == "MMD_AT_PLUS_A"
        assert cfg["lu_superlu_options"] == {"panel_size": 1, "relax": 1}
        assert cfg["lu_superlu_options_above_order"] == DENSE_THRESHOLD

    def test_prints_shift_workers(self, capsys):
        # a step's shifts are factorized on this many threads above this order
        assert main(["config"]) == 0
        cfg = json.loads(capsys.readouterr().out)
        assert cfg["lu_workers"] == linalg._WORKERS >= 1
        assert cfg["lu_workers_above_order"] == DENSE_THRESHOLD


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
        # the check's own LUs are reported apart from the run's
        assert f"n_LU (verification) = {summary['n_lu_verify']}" in text
        assert 1 <= summary["n_lu_verify"] <= 4
        assert summary["n_lu_verify"] == verify_h2_optimality(model_tree[0], rom).full_lu

    def test_result_json_surrogate_lus(self, cirka_tree, tmp_path, capsys):
        # CIRKA writes its surrogate LUs, 0 when its inner runs solve with the
        # surrogate's eigendecomposition; IRKA has none and writes null, as it
        # does for the CIRKA-only fallback flag
        for algo, expected, fallback in (("cirka", 0, False), ("irka", None, None)):
            out = tmp_path / algo
            assert main(["reduce", "--model", "toy60", "--r", "4", "--algo", algo,
                         "--out", str(out)]) == 0
            summary = json.loads((out / "result.json").read_text())
            assert summary["n_lu_surrogate"] == expected
            assert summary["fallback_direct"] is fallback
            assert ("fallback to direct IRKA" in capsys.readouterr().out) is (algo == "cirka")

    @pytest.mark.parametrize("seed, algo, reason", [
        (511, "irka", "cycle"),
        (511, "cirka", "cycle"),        # the reason of the direct IRKA run it falls back to
        (507, "cirka", "settled"),
    ])
    def test_stop_reason_printed_and_written(self, tmp_path, monkeypatch, capsys,
                                             seed, algo, reason):
        m, p = (2, 2) if seed == 511 else (1, 1)
        register_model(tmp_path, monkeypatch, "rs", random_stable_model(50, m, p, seed))
        out = tmp_path / "romdir"
        assert main(["reduce", "--model", "rs", "--r", "4", "--algo", algo,
                     "--out", str(out)]) == 0
        assert f"stop reason = {reason}\n" in capsys.readouterr().out
        assert json.loads((out / "result.json").read_text())["stop_reason"] == reason

    def test_irka_reduce(self, model_tree, capsys):
        code = main(["reduce", "--model", "toy24", "--r", "4", "--algo", "irka",
                     "--tol", "1e-6", "--max-iter", "100"])
        assert code == 0
        assert "k_IRKA" in capsys.readouterr().out

    @pytest.mark.parametrize("algo", ["irka", "cirka"])
    def test_refused_check_still_reports(self, cirka_tree, monkeypatch, capsys, caplog,
                                         algo):
        # the ROM is reported without an optimality residual, and the refusal
        # is one warning on either algorithm
        def refuse(*args):
            raise DefectiveSpectrum("eigenvectors refused")

        for module in ("h2mor.cli", "h2mor.cirka"):
            monkeypatch.setattr(sys.modules[module], "verify_h2_optimality", refuse)
        with caplog.at_level("WARNING", logger="h2mor"):
            assert main(["reduce", "--model", "toy60", "--r", "4", "--algo", algo]) == 0
        out = capsys.readouterr().out
        assert "optimal shifts" in out and "optimality residual" not in out
        assert [r.getMessage() for r in caplog.records if r.levelname == "WARNING"] == [
            "optimality check skipped: DefectiveSpectrum: eigenvectors refused"]

    def test_invalid_r(self, capsys):
        assert main(["reduce", "--model", "toy24", "--r", "0"]) == 1

    def test_unknown_model_lists_bundled(self, capsys):
        code = main(["reduce", "--model", "not-a-model", "--r", "2"])
        assert code == 1
        err = capsys.readouterr().err
        assert "cdplayer" in err

    def test_cirka_model_function_above_n(self, model_tree, tmp_path, capsys):
        # 2r = 26 exceeds n = 24: CIRKA falls back to direct IRKA
        out = tmp_path / "rom"
        assert main(["reduce", "--model", "toy24", "--r", "13", "--algo", "cirka",
                     "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "k_CIRKA" in printed
        assert "fallback to direct IRKA = true\n" in printed
        assert json.loads((out / "result.json").read_text())["fallback_direct"] is True

    def test_rank_collapse_is_solver_failure(self, tmp_path, monkeypatch, capsys):
        # 2r = 60 > n = 50: CIRKA falls back to direct IRKA, whose zero-init
        # chain keeps rank 16 < 30
        register_model(tmp_path, monkeypatch, "rs500", random_stable_model(50, 1, 1, 500))
        assert main(["reduce", "--model", "rs500", "--r", "30", "--algo", "cirka"]) == 2
        captured = capsys.readouterr()
        assert "optimal shifts" not in captured.out
        assert "below r = 30" in captured.err

    def test_r_not_below_n(self, model_tree, capsys):
        assert main(["reduce", "--model", "toy24", "--r", "24"]) == 1

    def test_init_file_needs_its_path(self, model_tree, capsys):
        assert main(["reduce", "--model", "toy24", "--r", "4", "--init", "file"]) == 1
        assert "--init file requires --init-file" in assert_one_line(capsys, "error: ")

    def test_init_from_file(self, model_tree, tmp_path, capsys):
        data = InterpolationData.zero_init(4, 2, 2)
        f = tmp_path / "init.json"
        f.write_text(json.dumps(data.to_jsonable()))
        code = main(["reduce", "--model", "toy24", "--r", "4", "--algo", "irka",
                     "--init", "file", "--init-file", str(f)])
        assert code == 0

    def test_split_pair_init_file_names_block(self, model_tree, tmp_path, capsys):
        b = InterpolationBlock(1 + 1j, [1.0, 2.0], [1.0, 1.0])
        real = InterpolationBlock(2.0, [1.0, 1.0], [1.0, 1.0])
        f = tmp_path / "init.json"
        f.write_text(json.dumps(InterpolationData((b, real, b.conjugate())).to_jsonable()))
        code = main(["reduce", "--model", "toy24", "--r", "3", "--algo", "irka",
                     "--init", "file", "--init-file", str(f)])
        assert code == 1
        assert "blocks[0]" in assert_one_line(capsys, "error: ")

    def test_optimal_shifts_print_at_any_scale(self):
        # one entry per conjugate group, unrounded: shifts near 1e-12 stay apart
        b = InterpolationBlock(2e-12 + 3e-12j, [1.0], [1.0])
        data = InterpolationData((InterpolationBlock(5e-12, [1.0], [1.0]), b, b.conjugate(),
                                  InterpolationBlock(1e-12, [1.0], [1.0])))
        assert _fmt_shifts(data) == "1e-12, 2e-12+3e-12j, 5e-12"

    @pytest.mark.parametrize("payload", MALFORMED_DATA)
    def test_malformed_init_file_is_load_error(self, model_tree, tmp_path, capsys, payload):
        f = tmp_path / "init.json"
        f.write_text(json.dumps(payload))
        code = main(["reduce", "--model", "toy24", "--r", "4", "--algo", "irka",
                     "--init", "file", "--init-file", str(f)])
        assert code == 1
        assert "malformed interpolation data" in capsys.readouterr().err


    @pytest.mark.parametrize("extra, init", REJECTED_REDUCE_INPUTS)
    def test_rejected_input_is_load_error(self, model_tree, tmp_path, capsys, extra, init):
        argv = ["reduce", "--model", "toy24", "--r", "4", "--algo", "cirka",
                "--out", str(tmp_path / "romdir"), *extra]
        if init is not None:
            f = tmp_path / "init.json"
            f.write_text(json.dumps(init.to_jsonable()))
            argv += ["--init", "file", "--init-file", str(f)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert not (tmp_path / "romdir").exists()


class TestVerify:
    def test_roundtrip_verification_passes(self, cirka_tree, tmp_path, capsys, caplog):
        model = cirka_tree
        out = tmp_path / "romdir"
        reduce_with_cirka(out, caplog)
        capsys.readouterr()
        code = main(["verify", "--model", "toy60", "--rom", str(out),
                     "--check", "all", "--tol", "1e-5"])
        out_text = capsys.readouterr().out
        assert code == 0, out_text
        assert "pass" in out_text
        # each check reports its new LUs, right after its residual line; the
        # checks share one solver and the stored data are the mirrored ROM
        # poles, so the interpolation check factorizes once per conjugate
        # group and the other two reuse those LUs
        rom = load_rom_dir(out)
        data = InterpolationData.from_jsonable(json.loads((out / "data.json").read_text()))
        lines = out_text.splitlines()
        counts = [lines[next(k for k, line in enumerate(lines) if line.startswith(label)) + 1]
                  for label in ("interpolation", "optimality", "realization")]
        groups = len(data.conjugate_pairing())
        assert counts == [f"n_LU (verification) = {k}" for k in (groups, 0, 0)]
        assert verify_tangential_interpolation(model, rom, data).full_lu == groups
        # one line per stable pole, printed as the pole -conj(sigma) of its node
        printed = [complex(line.split()[1].rstrip(":")) for line in lines
                   if line.startswith("  pole ")]
        # matched to the nearest computed pole: a sort on (Re, Im) can swap the
        # members of a conjugate pair whose real parts differ in the last bit
        poles = pole_residue(rom).poles
        nearest = [int(np.argmin(np.abs(poles - z))) for z in printed]
        assert sorted(nearest) == list(range(len(poles)))
        for z, i in zip(printed, nearest):
            assert abs(z - poles[i]) <= 1e-5 * abs(poles[i])
        assert "unstable poles skipped" not in out_text

    def test_equivalence_reports_its_lus(self, model_tree, tmp_path, capsys):
        model = model_tree[0]
        data = random_conjugate_data(4, 2, 2, 704)
        rom, _ = hermite_reduce(model, data)
        out = tmp_path / "romdir"
        save_rom_dir(rom, out)
        (out / "data.json").write_text(json.dumps(data.to_jsonable()))
        assert main(["verify", "--model", "toy24", "--rom", str(out),
                     "--check", "equivalence"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("realization deviation = ")
        rep = verify_realization_equivalence(model, data, load_rom_dir(out))
        assert lines[1:] == [f"n_LU (verification) = {rep.full_lu}"]

    @pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
    def test_invalid_tol_is_validation_error(self, model_tree, tmp_path, monkeypatch, capsys,
                                             tol):
        # a passing ROM: a negative, zero or nan tolerance would fail every
        # check with exit 3, an infinite one would pass any ROM
        model = model_tree[0]
        data = random_conjugate_data(4, 2, 2, 704)
        rom, _ = hermite_reduce(model, data)
        out = tmp_path / "romdir"
        save_rom_dir(rom, out)
        (out / "data.json").write_text(json.dumps(data.to_jsonable()))
        argv = ["verify", "--model", "toy24", "--rom", str(out), "--check", "interp"]
        assert main(argv) == 0
        capsys.readouterr()
        # refused before the model is loaded
        monkeypatch.setattr("h2mor.cli._load", lambda *a: pytest.fail("model loaded"))
        assert main([*argv, "--tol", tol]) == 1
        assert f"--tol must be positive and finite, got {float(tol)}" in assert_one_line(
            capsys, "error: ")

    def test_unstable_poles_skipped_line(self, model_tree, tmp_path, capsys):
        out = tmp_path / "unstable"
        save_rom_dir(make_model(None, np.diag([-1.0, 0.5]), np.ones((2, 2)),
                                np.ones((2, 2))), out)
        code = main(["verify", "--model", "toy24", "--rom", str(out), "--check", "optimality"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 3
        assert lines[1] == "n_LU (verification) = 1"
        assert [line.split(":")[0] for line in lines[2:]] == [
            "  pole -1+0j", "  unstable poles skipped"]

    @pytest.mark.parametrize("payload", MALFORMED_DATA)
    def test_malformed_data_is_load_error(self, model_tree, tmp_path, capsys, payload):
        out = tmp_path / "romdir"
        save_rom_dir(random_stable_model(4, 2, 2, 702), out)
        f = tmp_path / "data.json"
        f.write_text(json.dumps(payload))
        code = main(["verify", "--model", "toy24", "--rom", str(out), "--data", str(f)])
        assert code == 1
        assert "malformed interpolation data" in capsys.readouterr().err

    def test_perturbed_rom_fails_with_exit_3(self, cirka_tree, tmp_path, capsys, caplog):
        out = tmp_path / "romdir"
        reduce_with_cirka(out, caplog)
        rom = load_rom_dir(out)
        perturbed = make_model(rom.E, rom.A * 1.02, rom.B, rom.C, rom.D)
        save_rom_dir(perturbed, out)
        code = main(["verify", "--model", "toy60", "--rom", str(out),
                     "--check", "optimality", "--tol", "1e-6"])
        assert code == 3
        assert "FAIL" in capsys.readouterr().out

    def test_dimension_mismatch_is_load_error(self, model_tree, lag_tree, tmp_path, capsys):
        rom = random_stable_model(3, 1, 1, 701)
        out = tmp_path / "wrongrom"
        save_rom_dir(rom, out)
        code = main(["verify", "--model", "toy24", "--rom", str(out)])
        assert code == 1


    def test_rom_io_mismatch_is_load_error(self, model_tree, tmp_path, capsys):
        # no data file is needed for the optimality check, so the mismatch is
        # what the command reports
        out = tmp_path / "siso"
        save_rom_dir(random_stable_model(3, 1, 1, 701), out)
        assert main(["verify", "--model", "toy24", "--rom", str(out),
                     "--check", "optimality"]) == 1
        assert "do not match model (2, 2)" in assert_one_line(capsys, "error: ")


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
