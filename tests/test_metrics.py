import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sps

from h2mor import (
    bode_samples,
    eval_transfer,
    h2_error,
    h2_norm,
    h2_norm_quadrature,
    linf_output_bound,
    make_model,
)
from h2mor.errors import FeedthroughMismatch, NegativeInput, UnstablePencil
from h2mor.metrics import CostReport, error_system

from .helpers import random_stable_model, spring_chain_model


#: SciPy subpackages that ``scipy.integrate`` pulls in and no reduction uses.
INTEGRATOR_ONLY = ("scipy.integrate", "scipy.optimize", "scipy.special", "scipy.spatial",
                   "scipy.fft", "scipy.constants")


def test_import_leaves_out_the_integrator():
    # a fresh interpreter: this one has long since loaded whatever the tests use
    script = textwrap.dedent(f"""
        import sys
        import h2mor, h2mor.cli
        loaded = [m for m in {INTEGRATOR_ONLY!r} if m in sys.modules]
        assert not loaded, loaded
        lag = h2mor.make_model([[1.0]], [[-1.0]], [[1.0]], [[1.0]])
        norm = h2mor.h2_norm(lag)
        assert abs(h2mor.h2_norm_quadrature(lag) - norm) < 1e-4 * norm
        assert "scipy.integrate" in sys.modules
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


class TestH2Norm:
    def test_scalar_lag(self, scalar_lag):
        assert h2_norm(scalar_lag) == pytest.approx(np.sqrt(0.5), abs=1e-10)

    def test_matches_quadrature_oracle(self):
        model = random_stable_model(10, 2, 2, 300)
        lyap = h2_norm(model)
        quad = h2_norm_quadrature(model)
        assert abs(lyap - quad) < 1e-4 * lyap

    @pytest.mark.parametrize("c", [1e-6, 1e-9, 1e6])
    def test_matches_quadrature_oracle_time_scaled(self, c):
        # E -> cE: the band follows the spectrum, so the promised accuracy holds
        base = random_stable_model(12, 1, 1, 3)
        model = make_model(c * base.E, base.A, base.B, base.C)
        lyap = h2_norm(model)
        assert abs(lyap - h2_norm_quadrature(model)) < 1e-4 * lyap

    @pytest.mark.parametrize("k", [1.0, 1e-6, 1e-8])
    def test_quadrature_tolerance_is_relative(self, k):
        # C -> kC scales the norm by k; an absolute tolerance would swamp a small one
        model = make_model(None, np.diag([-1.0, -30.0]), [[1.0], [1.0]], [[k, 3.0 * k]])
        lyap = h2_norm(model)
        assert abs(h2_norm_quadrature(model) - lyap) < 1e-6 * lyap

    def test_homogeneity_in_C(self):
        model = random_stable_model(8, 1, 1, 301)
        scaled = make_model(model.E, model.A, model.B, 3.5 * model.C, model.D)
        assert h2_norm(scaled) == pytest.approx(3.5 * h2_norm(model), rel=1e-12)

    def test_unstable_raises(self):
        model = make_model(None, [[0.5]], [[1.0]], [[1.0]])
        with pytest.raises(UnstablePencil):
            h2_norm(model)

    def test_triangle_inequality(self):
        for seed in (302, 303, 304):
            a = random_stable_model(6, 2, 2, seed)
            b = random_stable_model(8, 2, 2, seed + 50)
            # sum realization: block-diagonal dynamics, stacked B, concatenated C
            E = sps.block_diag([a.E, b.E])
            A = sps.block_diag([a.A, b.A])
            B = np.vstack([a.B, b.B])
            C = np.hstack([a.C, b.C])
            total = make_model(E, A, B, C)
            assert h2_norm(total) <= h2_norm(a) + h2_norm(b) + 1e-10


class TestH2Error:
    def test_identical_models(self):
        model = random_stable_model(10, 1, 1, 310)
        absolute, relative = h2_error(model, model)
        assert absolute < 1e-8 and relative < 1e-8

    def test_definitional_identity(self):
        full = random_stable_model(12, 2, 2, 311)
        rom = random_stable_model(4, 2, 2, 312)
        absolute, relative = h2_error(full, rom)
        direct = h2_norm(error_system(full, rom))
        assert absolute == pytest.approx(direct, rel=1e-10)
        assert relative == pytest.approx(direct / h2_norm(full), rel=1e-10)

    def test_definitional_identity_lightly_damped(self):
        full = spring_chain_model(100, seed=5)
        rom = random_stable_model(6, 1, 1, 316)
        _, relative = h2_error(full, rom)
        direct = h2_norm(error_system(full, rom)) / h2_norm(full)
        assert relative == pytest.approx(direct, rel=1e-10)

    def test_unrelated_rom_has_large_error(self):
        full = random_stable_model(12, 2, 2, 313)
        rom = random_stable_model(3, 2, 2, 999)
        _, relative = h2_error(full, rom)
        assert relative > 0.5

    def test_feedthrough_mismatch(self):
        full = make_model(None, [[-1.0]], [[1.0]], [[1.0]], [[1.0]])
        rom = make_model(None, [[-1.0]], [[1.0]], [[1.0]], [[0.0]])
        with pytest.raises(FeedthroughMismatch):
            h2_error(full, rom)

    def test_io_shape_mismatch(self):
        full = random_stable_model(5, 2, 1, 314)
        rom = random_stable_model(3, 1, 1, 315)
        with pytest.raises(FeedthroughMismatch):
            h2_error(full, rom)


class TestLinfBound:
    def test_zero_error(self):
        assert linf_output_bound(0.0, 5.0) == 0.0

    def test_table_value(self):
        assert linf_output_bound(5.92e-5, 1.0) == pytest.approx(5.92e-5)

    def test_arithmetic(self):
        assert linf_output_bound(2.0, 3.0) == 6.0

    def test_negative_rejected(self):
        with pytest.raises(NegativeInput):
            linf_output_bound(-1.0, 1.0)
        with pytest.raises(NegativeInput):
            linf_output_bound(1.0, -1.0)


class TestBodeSamples:
    def test_scalar_lag_at_one(self, scalar_lag):
        mags = bode_samples(scalar_lag, [1.0])
        assert mags.shape == (1, 1, 1)
        assert mags[0, 0, 0] == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)

    def test_matches_eval_transfer(self):
        model = random_stable_model(10, 2, 3, 320)
        freqs = np.logspace(-1, 2, 7)
        mags = bode_samples(model, freqs)
        for k, w in enumerate(freqs):
            assert np.allclose(mags[k], np.abs(eval_transfer(model, 1j * w)))

    def test_rejects_nonpositive(self):
        model = random_stable_model(5, 1, 1, 321)
        with pytest.raises(ValueError):
            bode_samples(model, [0.0, 1.0])


class TestCostReport:
    def test_from_pair(self):
        from h2mor import CirkaOptions, InterpolationData, IrkaOptions, cirka, irka

        model = random_stable_model(40, 1, 1, 330)
        init = InterpolationData.zero_init(4, 1, 1)
        res_i = irka(model, init, IrkaOptions(tol=1e-6, max_iter=100))
        res_c = cirka(model, init, CirkaOptions(inner=IrkaOptions(tol=1e-6, max_iter=100),
                                                outer_tol=1e-4))
        report = CostReport.from_pair(res_i, res_c, 4)
        assert report.irka_full_lu == res_i.counters.full_lu
        assert report.cirka_full_lu == res_c.counters.full_lu
        assert report.cirka_new_columns == sum(res_c.new_columns_per_step)
        assert report.cost_comparison == (report.cirka_new_columns < 2 * 4 * res_i.iterations)
        assert report.speedup is None or report.speedup > 0
