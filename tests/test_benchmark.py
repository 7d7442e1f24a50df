import importlib
import sys

import numpy as np
import pytest
import scipy.sparse as sps

from h2mor import h2_error, make_model
from h2mor.benchmark import (
    BenchmarkRow,
    _rel_error,
    format_float,
    initial_data,
    read_results_json,
    results_to_string,
    run_benchmark,
    write_results,
)
from h2mor.errors import IoError, OrderTooLarge, SingularShift

from .helpers import random_stable_model, spring_chain_model


def small_models():
    return {"toy_a": random_stable_model(24, 1, 1, 600),
            "toy_b": random_stable_model(30, 2, 2, 601)}


@pytest.fixture(scope="module")
def rows():
    return run_benchmark(small_models(), [2, 4], init="zero")


class TestFormatFloat:
    def test_six_significant_digits(self):
        assert format_float(1.2345678) == "1.23457"
        assert format_float(123456.78) == "123457"

    def test_scientific_below_threshold(self):
        assert format_float(5.9234567e-5) == "5.92346e-05"
        assert format_float(-2.5e-4) == "-2.50000e-04"

    def test_zero_and_missing(self):
        assert format_float(0.0) == "0"
        assert format_float(None) == ""


class TestRunBenchmark:
    def test_failed_cell_recorded_and_run_continues(self, monkeypatch, caplog):
        def singular(model, data0, opts):
            raise SingularShift("A - sigma E singular at sigma = 0", sigma=0.0)

        monkeypatch.setattr(sys.modules["h2mor.benchmark"], "irka", singular)
        rows = run_benchmark(small_models(), [2], init="zero")
        assert [(row.model, row.algorithm) for row in rows] == [
            ("toy_a", "cirka"), ("toy_a", "irka"), ("toy_b", "cirka"), ("toy_b", "irka")]
        for row in rows:
            if row.algorithm == "irka":
                assert (row.k_outer, row.n_lu_full, row.converged) == (0, 0, False)
                assert row.rel_h2_error is None
            else:
                assert row.k_outer >= 1 and row.n_lu_full >= 1
        assert caplog.text.count("A - sigma E singular at sigma = 0") == 2

    def test_grid_and_sorting(self, rows):
        assert len(rows) == 2 * 2 * 2   # models x orders x algorithms
        keys = [(r.model, r.r, r.algorithm) for r in rows]
        assert keys == sorted(keys)

    def test_row_contents(self, rows):
        for row in rows:
            assert row.init == "zero"
            assert row.k_outer >= 1
            assert row.n_lu_full >= 1
            if row.algorithm == "irka":
                assert row.k_inner_total is None
                assert row.n_lu_surrogate is None
                assert row.rel_h2_estimate is None
            else:
                assert row.k_inner_total >= 1
                assert row.n_lu_surrogate == 0    # inner runs solve with the surrogate's eig

    def test_errors_are_sane(self, rows):
        # converged cells report a meaningful relative error (local optima may
        # differ between the algorithms on arbitrary models)
        for row in rows:
            if row.converged and row.rel_h2_error is not None:
                assert 0.0 < row.rel_h2_error < 1.5

    def test_error_above_dense_limit_is_missing(self):
        # n + r = 2002: the Lyapunov solver refuses before it densifies
        n = 2001
        full = make_model(None, sps.diags(-np.arange(1.0, n + 1.0), format="csc"),
                          np.ones((n, 1)), np.ones((1, n)))
        rom = make_model(None, [[-1.0]], [[1.0]], [[1.0]])
        with pytest.raises(OrderTooLarge):
            h2_error(full, rom)
        assert _rel_error(full, rom) is None

    def test_empty_model_list(self):
        assert run_benchmark({}, [2]) == []

    def test_r_not_below_n_skipped(self):
        models = {"tiny": random_stable_model(4, 1, 1, 602)}
        rows = run_benchmark(models, [4], init="zero")
        assert rows == []

    def test_eigs_init(self):
        models = {"toy": random_stable_model(20, 1, 1, 603)}
        rows = run_benchmark(models, [2], init="eigs", algorithms=("irka",))
        assert len(rows) == 1 and rows[0].init == "eigs"

    def test_eigs_init_without_real_pole_skips_model(self):
        # every pole of the chain is complex, so no 3 shifts are conjugate-closed
        rows = run_benchmark({"chain": spring_chain_model(10)}, [3], init="eigs")
        assert rows == []

    def test_cells_skip_optimality_check(self, monkeypatch):
        # a row reads no optimality report, so CIRKA must not spend LUs on one
        def fail(*args, **kwargs):
            raise AssertionError("benchmark cell ran the optimality check")

        # the package attribute h2mor.cirka is the function, not the module
        monkeypatch.setattr(importlib.import_module("h2mor.cirka"), "verify_h2_optimality", fail)
        rows = run_benchmark({"toy_a": random_stable_model(24, 1, 1, 600)}, [2],
                             algorithms=("cirka",))
        assert len(rows) == 1 and rows[0].n_lu_full >= 1

    def test_determinism(self):
        models = small_models()
        r1 = run_benchmark(models, [2], algorithms=("irka",))
        r2 = run_benchmark({"toy_a": random_stable_model(24, 1, 1, 600),
                            "toy_b": random_stable_model(30, 2, 2, 601)},
                           [2], algorithms=("irka",))
        for a, b in zip(r1, r2):
            assert a.rel_h2_error == b.rel_h2_error
            assert a.n_lu_full == b.n_lu_full
            assert a.k_outer == b.k_outer

    def test_initial_data_validation(self):
        model = random_stable_model(10, 1, 1, 604)
        with pytest.raises(ValueError):
            initial_data(model, 2, "bogus")


class TestSerialization:
    def test_csv_schema(self, rows, tmp_path):
        path = tmp_path / "out.csv"
        write_results(rows, "csv", path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == ("model,algorithm,r,k_outer,k_inner_total,n_lu_full,"
                            "n_lu_surrogate,time_s,rel_h2_error,rel_h2_estimate,"
                            "converged,init")
        assert len(lines) == 1 + len(rows)
        irka_line = next(l for l in lines[1:] if ",irka," in l)
        parts = irka_line.split(",")
        assert parts[4] == "" and parts[6] == "" and parts[9] == ""   # empty CIRKA-only fields

    def test_json_roundtrip(self, rows, tmp_path):
        path = tmp_path / "out.json"
        write_results(rows, "json", path)
        back = read_results_json(path)
        assert back == list(rows)

    def test_small_floats_scientific_in_csv(self, tmp_path):
        row = BenchmarkRow(model="x", algorithm="irka", r=2, k_outer=3,
                           k_inner_total=None, n_lu_full=5, n_lu_surrogate=None,
                           time_s=0.5, rel_h2_error=5.92e-5, rel_h2_estimate=None,
                           converged=True, init="zero")
        text = results_to_string([row], "csv")
        assert "5.92000e-05" in text

    def test_unwritable_path(self, rows):
        with pytest.raises(IoError):
            write_results(rows, "csv", "/nonexistent-dir/rows.csv")

    def test_unknown_format(self, rows):
        with pytest.raises(ValueError):
            results_to_string(rows, "yaml")
