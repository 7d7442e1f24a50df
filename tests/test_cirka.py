import json
import sys
from pathlib import Path

import numpy as np
import pytest

from h2mor import (
    CirkaOptions,
    InterpolationData,
    IrkaOptions,
    cirka,
    estimate_error,
    eval_transfer,
    h2_error,
    hermite_reduce,
    init_model_function,
    make_model,
    pole_residue,
    update_model_function,
    verify_h2_optimality,
    verify_realization_equivalence,
    verify_tangential_interpolation,
)
from h2mor.errors import (
    DefectiveSpectrum,
    ModelOrderExceeded,
    RankCollapse,
    SingularShift,
    UnstableRom,
)
from h2mor.cirka import ModelFunction
from h2mor.linalg import ModalSolver, ShiftedSolver, generalized_eig, stable_part

from .helpers import random_conjugate_data, random_stable_model


class CountingSolver(ShiftedSolver):
    """A ShiftedSolver that counts its solves."""

    solves = 0

    def solve(self, *args, **kwargs):
        self.solves += 1
        return super().solve(*args, **kwargs)


def tight_opts(**kw):
    base = dict(inner=IrkaOptions(tol=1e-10, max_iter=250), outer_tol=1e-8,
                outer_max_iter=20)
    base.update(kw)
    return CirkaOptions(**base)


class TestInitModelFunction:
    def test_I1_and_I2_coincide_for_zero_chain(self):
        # SISO zero-chain initialization: both strategies give the same surrogate
        model = random_stable_model(40, 1, 1, 200)
        data0 = InterpolationData.zero_init(4, 1, 1)
        mf1 = init_model_function(model, data0, CirkaOptions(init_strategy="I1", initial_nM=8))
        mf2 = init_model_function(model, data0)
        assert mf1.order == mf2.order == 8
        rng = np.random.default_rng(0)
        for _ in range(10):
            s = complex(rng.uniform(0.2, 2.0), rng.uniform(-2.0, 2.0))
            G1, G2 = eval_transfer(mf1.surrogate, s), eval_transfer(mf2.surrogate, s)
            assert np.linalg.norm(G1 - G2) < 1e-9 * np.linalg.norm(G1)

    def test_I2_hermite_interpolation(self):
        model = random_stable_model(30, 2, 2, 201)
        data0 = random_conjugate_data(3 * 2, 2, 2, 202)
        mf = init_model_function(model, data0)
        assert mf.order == 12
        report = verify_tangential_interpolation(model, mf.surrogate, data0)
        assert report.passed(1e-8)       # includes the Hermite (derivative) condition

    def test_I1_keeps_data_and_adds_zero_chain(self):
        model = random_stable_model(30, 2, 2, 203)
        data0 = random_conjugate_data(4, 2, 2, 204)
        mf = init_model_function(model, data0, CirkaOptions(init_strategy="I1", initial_nM=7))
        assert mf.order == 7
        sigmas = [b.sigma for b in mf.history.blocks]
        assert 0.0 in sigmas
        assert verify_tangential_interpolation(model, mf.surrogate, data0).passed(1e-8)

    def test_nM_must_exceed_r(self):
        model = random_stable_model(20, 1, 1, 205)
        data0 = InterpolationData.zero_init(4, 1, 1)
        with pytest.raises(ValueError):
            init_model_function(model, data0, CirkaOptions(init_strategy="I1", initial_nM=4))

    def test_I2_rejects_other_orders(self):
        model = random_stable_model(20, 1, 1, 206)
        data0 = InterpolationData.zero_init(4, 1, 1)
        with pytest.raises(ValueError):
            init_model_function(model, data0, CirkaOptions(init_strategy="I2", initial_nM=10))

    def test_order_cap(self):
        # an order above the model order meets the cap n // 2 first
        model = random_stable_model(20, 1, 1, 207)
        data0 = InterpolationData.zero_init(4, 1, 1)
        with pytest.raises(ModelOrderExceeded, match="order 21 exceeds the cap 10"):
            init_model_function(model, data0, CirkaOptions(init_strategy="I1", initial_nM=21))

    def test_default_cap_is_half_the_model_order(self):
        # the cap cirka uses, n // 2 = 10, holds for a direct call too
        model = random_stable_model(20, 1, 1, 207)
        data0 = InterpolationData.zero_init(4, 1, 1)
        assert init_model_function(
            model, data0, CirkaOptions(init_strategy="I1", initial_nM=10)).order == 10
        with pytest.raises(ModelOrderExceeded, match="exceeds the cap 10"):
            init_model_function(model, data0, CirkaOptions(init_strategy="I1", initial_nM=12))

    @pytest.mark.parametrize("r, n_model", [(4, 8), (4, 16), (6, 20)])
    def test_I1_zero_chain_built_once(self, r, n_model):
        # the zero chain is solved once at its final length: one shifted solve
        # per column and side, at a single factorization
        model = random_stable_model(40, 1, 1, 208)
        solver = CountingSolver(model)
        mf = init_model_function(model, InterpolationData.zero_init(r, 1, 1),
                                 CirkaOptions(init_strategy="I1", initial_nM=n_model), solver)
        assert mf.history.r == n_model
        assert solver.solves == 2 * n_model
        assert solver.lu_count == 1


class TestUpdateModelFunction:
    def _setup(self, seed, n=40):
        model = random_stable_model(n, 2, 2, seed)
        data0 = random_conjugate_data(4, 2, 2, seed + 1)
        mf = init_model_function(model, data0)
        return model, data0, mf

    def test_U2_skips_known_triplets(self):
        model, data0, mf = self._setup(210)
        updated, added = update_model_function(model, mf, data0,
                                               CirkaOptions(update_strategy="U2"))
        assert added == 0
        assert updated.order == mf.order

    def test_U1_U2_coincide_on_disjoint_data(self):
        model, data0, mf = self._setup(212)
        new_data = random_conjugate_data(4, 2, 2, 999)
        up1, added1 = update_model_function(model, mf, new_data,
                                            CirkaOptions(update_strategy="U1"))
        up2, added2 = update_model_function(model, mf, new_data,
                                            CirkaOptions(update_strategy="U2"))
        assert added1 == added2 == 4
        assert up1.history.r == up2.history.r == mf.history.r + 4
        rng = np.random.default_rng(1)
        for _ in range(10):
            s = complex(rng.uniform(0.3, 2.0), rng.uniform(-2.0, 2.0))
            G1, G2 = eval_transfer(up1.surrogate, s), eval_transfer(up2.surrogate, s)
            assert np.linalg.norm(G1 - G2) < 1e-8 * np.linalg.norm(G1)

    def test_U1_repeats_extend_chains(self):
        model, data0, mf = self._setup(214)
        lengths_before = tuple(b.length for b in mf.history.blocks)
        updated, added = update_model_function(model, mf, data0,
                                               CirkaOptions(update_strategy="U1"))
        assert added == 4
        lengths_after = tuple(b.length for b in updated.history.blocks)
        assert len(lengths_after) == len(lengths_before)      # no new blocks
        assert sum(lengths_after) == sum(lengths_before) + 4  # chains got longer

    def test_update_condition_holds(self):
        model, data0, mf = self._setup(216)
        new_data = random_conjugate_data(4, 2, 2, 2024)
        for strategy in ("U1", "U2", "U3"):
            updated, _ = update_model_function(model, mf, new_data,
                                               CirkaOptions(update_strategy=strategy))
            report = verify_tangential_interpolation(model, updated.surrogate, new_data)
            assert report.passed(1e-8), strategy

    def test_monotone_bookkeeping(self):
        # n_M never decreases under U.1/U.2 and stays constant under U.3
        model, data0, mf = self._setup(224)
        for strategy in ("U1", "U2"):
            grown, _ = update_model_function(
                model, mf, random_conjugate_data(4, 2, 2, 2030),
                CirkaOptions(update_strategy=strategy))
            assert grown.history.r >= mf.history.r
        rebuilt, _ = update_model_function(
            model, mf, random_conjugate_data(4, 2, 2, 2031),
            CirkaOptions(init_strategy="I2", update_strategy="U3"))
        assert rebuilt.history.r == mf.history.r

    def test_U3_keeps_order_constant(self):
        model, data0, mf = self._setup(218)
        new_data = random_conjugate_data(4, 2, 2, 2025)
        updated, added = update_model_function(
            model, mf, new_data, CirkaOptions(init_strategy="I2", update_strategy="U3"))
        assert updated.history.r == 2 * new_data.r == mf.history.r

    def test_order_cap_raises(self):
        # 8 + 4 columns exceed the cap n // 2 = 10
        model, data0, mf = self._setup(220, n=20)
        new_data = random_conjugate_data(4, 2, 2, 2026)
        with pytest.raises(ModelOrderExceeded):
            update_model_function(model, mf, new_data, CirkaOptions(update_strategy="U1"))

    def test_conjugate_partners_cost_no_solve(self):
        # the new blocks go to primitive_basis together, so each pair's second
        # block takes the first one's columns, conjugated, on both sides
        model, data0, mf = self._setup(226)
        new_data = random_conjugate_data(4, 2, 2, 2032)
        solver = CountingSolver(model)
        updated, added = update_model_function(model, mf, new_data, CirkaOptions(), solver)
        assert added == 4
        assert solver.solves == 2 * 2                 # one per pair and side
        assert solver.lu_count == 2
        assert solver.lu_count_norecycle == 2 * 4     # one per shift and side
        old = len(mf.history.blocks)
        for i in (old, old + 2):
            for first, partner in zip(updated.columns[i], updated.columns[i + 1]):
                assert np.array_equal(partner, first.conj())

    def test_sylvester_invariant_after_update(self):
        from h2mor import sylvester_residual

        model, data0, mf = self._setup(222)
        new_data = random_conjugate_data(4, 2, 2, 2027)
        updated, _ = update_model_function(model, mf, new_data, CirkaOptions(update_strategy="U1"))
        assert sylvester_residual(model, updated.Vprim, updated.history, "input") < 1e-8
        assert sylvester_residual(model, updated.Wprim, updated.history, "output") < 1e-8


class TestCirka:
    # without these checks a non-integer outer_max_iter reaches range() inside
    # cirka, and initial_nM = 9.5 reaches ShiftedSolver.chain, as a bare
    # TypeError; initial_nM = True reads as order 1, and inner options other
    # than IrkaOptions fail inside the first inner run
    @pytest.mark.parametrize("bad", [dict(outer_tol=0.0), dict(outer_tol=np.inf),
                                     dict(outer_tol=np.nan)]
                             + [dict(outer_max_iter=v) for v in (2.5, 3.0, True, "3", None)]
                             + [dict(initial_nM=v) for v in (9.5, 8.0, True, np.True_, "8")]
                             + [dict(outer_tol=v) for v in (True, np.True_, "1e-3", None)]
                             + [dict(inner=None), dict(inner=dict(tol=1e-3))])
    def test_option_validation(self, bad):
        with pytest.raises(ValueError, match=next(iter(bad))):
            CirkaOptions(**bad)

    @pytest.mark.parametrize("nM", [None, 9, np.int64(9)])
    def test_initial_nM_takes_none_or_an_integer(self, nM):
        assert CirkaOptions(init_strategy="I1", initial_nM=nM).initial_nM == nM

    @pytest.mark.parametrize("bad, choices", [
        (dict(init_strategy="I3"), "('I1', 'I2')"),
        (dict(update_strategy="U4"), "('U1', 'U2', 'U3')"),
    ])
    def test_unknown_strategy_names_the_choices(self, bad, choices):
        with pytest.raises(ValueError) as info:
            CirkaOptions(**bad)
        assert str(info.value).endswith(f"must be one of {choices}")

    def test_siso_run_and_reporting(self):
        model = random_stable_model(50, 1, 1, 501)
        init = InterpolationData.zero_init(4, 1, 1)
        res = cirka(model, init, tight_opts())
        assert res.converged and not res.fallback_direct
        assert res.rom.n == 4
        assert res.model_function.order > 4
        assert res.optimality_report is not None
        assert res.optimality_report.passed(1e-6)
        assert res.error_estimate is not None
        assert len(res.inner_iterations) == res.outer_iterations
        assert res.counters.irka_steps_total == sum(res.inner_iterations)
        assert res.counters.full_lu >= 1
        # the inner runs solve with the surrogate's eigendecomposition
        assert res.counters.surrogate_lu == 0
        assert sum(res.new_columns_per_step) >= res.model_function.history.r

    @pytest.mark.parametrize("check, name, field", [
        ("verify_h2_optimality", "optimality check", "optimality_report"),
        ("estimate_error", "error estimate", "error_estimate"),
    ])
    def test_refused_check_keeps_the_rom(self, monkeypatch, caplog, check, name, field):
        # a check that refuses the finished ROM costs its field, not the reduction
        def refuse(*args):
            raise DefectiveSpectrum("eigenvectors refused")

        monkeypatch.setattr(sys.modules["h2mor.cirka"], check, refuse)
        model = random_stable_model(50, 1, 1, 501)
        with caplog.at_level("WARNING", logger="h2mor"):
            res = cirka(model, InterpolationData.zero_init(4, 1, 1), tight_opts())
        assert res.converged and res.rom.n == 4
        assert getattr(res, field) is None
        assert (res.error_estimate is None) == (res.estimate_used_stable_part is None)
        assert (res.optimality_report is None) + (res.error_estimate is None) == 1
        assert [r.getMessage() for r in caplog.records if r.levelname == "WARNING"] == [
            f"{name} skipped: DefectiveSpectrum: eigenvectors refused"]

    def test_model_function_below_r_raises(self):
        # B excites 6 modes: the zero-init Krylov chain has rank 6 < r = 8
        B = np.zeros((40, 1))
        B[:6, 0] = 1.0
        model = make_model(None, np.diag(-np.arange(1.0, 41.0)), B, np.ones((1, 40)))
        with pytest.raises(RankCollapse):
            cirka(model, InterpolationData.zero_init(8, 1, 1))

    def test_optimality_transfer_to_full_model(self):
        model = random_stable_model(50, 2, 2, 508)
        init = InterpolationData.zero_init(4, 2, 2)
        res = cirka(model, init, tight_opts())
        assert res.converged
        assert verify_h2_optimality(model, res.rom).passed(1e-6)

    def test_realization_equivalence_after_convergence(self):
        model = random_stable_model(50, 1, 2, 517)
        init = InterpolationData.zero_init(4, 1, 2)
        res = cirka(model, init, tight_opts())
        assert res.converged
        report = verify_realization_equivalence(model, res.optimal_data, res.rom)
        assert len(report.points) == 25
        assert report.passed(1e-6)

    def test_update_condition_invariant(self, caplog):
        # every optimal triplet must appear in the final history within
        # tolerance, whether or not the run converged
        model = random_stable_model(50, 2, 1, 503)
        init = InterpolationData.zero_init(4, 2, 1)
        with caplog.at_level("INFO", logger="h2mor"):
            res = cirka(model, init, tight_opts())
        # the outer data settle, but no inner run converges: the first hits
        # max_iter and the others stop on a cycle, so the run is not
        # converged, and one warning says why
        assert res.outer_iterations < tight_opts().outer_max_iter
        assert [ir.stop_reason for ir in res.inner_results] == ["max_iter"] + ["cycle"] * 4
        assert res.inner_iterations == [250, 11, 7, 2, 2]
        assert not res.inner_results[-1].converged
        assert not res.converged
        messages = [r.getMessage() for r in caplog.records]
        assert sum("last inner IRKA run did not converge (stop reason: cycle)" in m
                   for m in messages) == 1
        assert messages.count("4 of 5 inner IRKA runs stopped on a cycle") == 1
        # the inner runs share direct IRKA's loop, but only a direct run warns
        assert not any("IRKA entered a cycle" in m for m in messages)
        assert not any("perturbed a shift" in m for m in messages)
        from h2mor.cirka import _find_match

        for b in res.optimal_data.blocks:
            assert _find_match(res.model_function.history.blocks, b) is not None

    def test_direct_irka_repeats_last_inner_irka_run(self, caplog):
        # the last inner run of the case above, rerun through the public irka()
        # on the final surrogate from the previous optimal data: the same
        # iterates and counts, and only this direct run warns on its cycle
        from h2mor import irka
        from h2mor.cirka import _surrogate_solver

        model = random_stable_model(50, 2, 1, 503)
        res = cirka(model, InterpolationData.zero_init(4, 2, 1), tight_opts())
        last = res.inner_results[-1]
        surrogate = res.model_function.surrogate
        with caplog.at_level("WARNING", logger="h2mor"):
            caplog.clear()
            direct = irka(surrogate, res.inner_results[-2].optimal_data, tight_opts().inner,
                          _surrogate_solver(surrogate))
        assert direct.stop_reason == last.stop_reason == "cycle"
        assert direct.iterations == last.iterations
        assert direct.counters.full_lu == last.counters.full_lu
        assert direct.counters.full_lu_norecycle == last.counters.full_lu_norecycle
        assert len(direct.shift_history) == len(last.shift_history)
        for got, exp in zip(direct.shift_history, last.shift_history):
            for a, b in zip(got.sorted_columns, exp.sorted_columns):
                np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(direct.optimal_data.shifts, last.optimal_data.shifts)
        assert [r.getMessage().startswith("IRKA entered a cycle of period")
                for r in caplog.records] == [True]

    def test_model_function_above_n_falls_back(self, caplog):
        # I.2 asks for order 2r = 60 > n = 50: the order cap, not a crash.
        # The direct IRKA run it falls back to loses rank (order 16 < 30),
        # which is an error, not a reduced model of the wrong order.
        model = random_stable_model(50, 1, 1, 500)
        with pytest.raises(RankCollapse, match="order 16"):
            cirka(model, InterpolationData.zero_init(30, 1, 1))
        assert any("falling back to direct IRKA" in r.getMessage() for r in caplog.records)

    def test_rank_deficient_last_inner_rom_raises(self):
        # the first inner run on this model's surrogate ends at order 1, and
        # with one outer step its ROM is the one CIRKA would return
        model = random_stable_model(50, 1, 1, 506)
        with pytest.raises(RankCollapse, match="order 1 "):
            cirka(model, InterpolationData.zero_init(4, 1, 1), tight_opts(outer_max_iter=1))

    def test_shift_retries_counted_once_per_inner_irka_run(self, monkeypatch, caplog):
        # the first surrogate solve of every inner run lands on the surrogate's
        # spectrum, so each inner run perturbs one shift
        hit = set()
        chain = ModalSolver.chain

        def first_solve_singular(solver, sigma, *args, **kwargs):
            if solver not in hit:
                hit.add(solver)
                raise SingularShift("shift on the surrogate's spectrum", sigma=sigma)
            return chain(solver, sigma, *args, **kwargs)

        monkeypatch.setattr(ModalSolver, "chain", first_solve_singular)
        calls = []
        perturbed = InterpolationData.perturbed
        monkeypatch.setattr(InterpolationData, "perturbed",
                            lambda data, sigma: calls.append(sigma) or perturbed(data, sigma))
        model = random_stable_model(50, 2, 2, 502)
        with caplog.at_level("WARNING", logger="h2mor"):
            res = cirka(model, InterpolationData.zero_init(4, 2, 2), tight_opts())
        assert not res.fallback_direct
        total = sum(ir.shift_retries for ir in res.inner_results)
        assert total == len(calls) == len(res.inner_results) > 1
        # one summary line per CIRKA run, carrying the total over its inner runs
        summaries = [r.getMessage() for r in caplog.records
                     if "perturbed a shift" in r.getMessage()]
        assert len(summaries) == 1
        assert summaries[0].startswith(f"{total} of {res.counters.irka_steps_total} ")
        assert not any("retrying" in r.getMessage() for r in caplog.records)

    def test_fallback_to_direct_irka(self):
        model = random_stable_model(18, 1, 1, 504)     # cap n // 2 = 9, hit quickly
        init = InterpolationData.zero_init(4, 1, 1)
        opts = tight_opts(outer_max_iter=10)
        res = cirka(model, init, opts)
        assert res.fallback_direct

    def test_fallback_time_counted(self):
        # r = 14 needs a model function of order 28 > n // 2: direct IRKA at once
        # (from r = 18 that run loses rank to order 16 and raises RankCollapse)
        model = random_stable_model(50, 1, 1, 500)
        res = cirka(model, InterpolationData.zero_init(14, 1, 1))
        assert res.fallback_direct
        direct = res.inner_results[-1]
        assert direct.counters.total_time > 0
        assert res.counters.total_time >= direct.counters.total_time

    def test_irka_and_cirka_reach_same_optimum(self):
        from h2mor import irka

        model = random_stable_model(50, 1, 1, 505)
        init = InterpolationData.zero_init(4, 1, 1)
        res_c = cirka(model, init, tight_opts())
        res_i = irka(model, init, IrkaOptions(tol=1e-10, max_iter=250))
        assert res_c.converged and res_i.converged
        _, rel_c = h2_error(model, res_c.rom)
        _, rel_i = h2_error(model, res_i.rom)
        assert rel_c == pytest.approx(rel_i, rel=1e-2)
        rng = np.random.default_rng(7)
        for _ in range(20):
            s = complex(rng.uniform(0.3, 2.0), rng.uniform(-3.0, 3.0))
            Gc, Gi = eval_transfer(res_c.rom, s), eval_transfer(res_i.rom, s)
            assert np.linalg.norm(Gc - Gi) < 1e-6 * np.linalg.norm(Gi)


class TestSurrogateSolver:
    """The inner runs' solver, from one eigendecomposition of the surrogate."""

    @pytest.fixture
    def surrogate(self):
        model = random_stable_model(50, 2, 2, 508)
        return init_model_function(model, random_conjugate_data(4, 2, 2, 509)).surrogate

    @staticmethod
    def _agree(a, b):
        return np.linalg.norm(np.asarray(a) - np.asarray(b)) <= 1e-12 * np.linalg.norm(b)

    @pytest.mark.parametrize("sigma", [0.0, 0.7, 0.4 + 1.3j, 2.0 - 0.5j])
    @pytest.mark.parametrize("transposed", [False, True])
    def test_solves_and_chains_match_shifted_solver(self, surrogate, sigma, transposed):
        modal, sparse = ModalSolver(surrogate), ShiftedSolver(surrogate)
        rng = np.random.default_rng(0)
        n = surrogate.n
        vector = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        block = rng.standard_normal((n, 3))
        for rhs in (vector, block):
            assert self._agree(modal.solve(sigma, rhs, transposed),
                               sparse.solve(sigma, rhs, transposed))
        cols = modal.chain(sigma, vector, 4, transposed)
        expected = sparse.chain(sigma, vector, 4, transposed)
        assert len(cols) == 4
        for a, b in zip(cols, expected):
            assert self._agree(a, b)
        assert modal.lu_count == modal.lu_count_norecycle == 0

    def test_shift_on_a_pole_is_singular(self, surrogate):
        lam, _, _ = generalized_eig(surrogate.A.toarray(), surrogate.E.toarray())
        with pytest.raises(SingularShift) as info:
            ModalSolver(surrogate).solve(lam[0], np.ones(surrogate.n))
        assert info.value.sigma == lam[0]

    @pytest.mark.parametrize("n, q, r, opts", [
        # order-2 surrogate: eigenvalues -1 +- 1.8e-8j, cond(X) = 5e7
        (8, 2, 1, CirkaOptions()),
        # order-5 surrogate: cond(X) = 7e12
        (16, 5, 3, CirkaOptions(init_strategy="I1", initial_nM=5)),
    ], ids=["jordan-2", "jordan-5"])
    def test_defective_surrogate_factorizes_per_shift(self, n, q, r, opts):
        # B excites and C observes only a Jordan block of order q at -1, so
        # the order-q surrogate realizes that block: no usable eigendecomposition
        A = np.diag(-np.arange(1.0, n + 1))
        A[:q, :q] = -np.eye(q) + np.eye(q, k=1)
        B = np.zeros((n, 1))
        B[q - 1, 0] = 1.0
        C = np.zeros((1, n))
        C[0, 0] = 1.0
        model = make_model(None, A, B, C)
        init = InterpolationData.zero_init(r, 1, 1)
        surrogate = init_model_function(model, init, opts).surrogate
        assert surrogate.n == q
        with pytest.raises(DefectiveSpectrum):
            ModalSolver(surrogate)
        with pytest.raises(DefectiveSpectrum):
            pole_residue(surrogate)
        res = cirka(model, init, opts)
        assert res.converged and not res.fallback_direct
        assert res.rom.n == r
        assert res.counters.surrogate_lu > 0
        assert res.optimality_report.passed(1e-4)


class TestVerifyOptimality:
    def test_self_interpolation_is_exact(self):
        model = random_stable_model(8, 2, 2, 510, mass=False)
        report = verify_h2_optimality(model, model)
        assert report.max_residual < 1e-10

    def test_perturbed_rom_flagged(self):
        from h2mor import irka

        model = random_stable_model(50, 1, 1, 507)
        init = InterpolationData.zero_init(4, 1, 1)
        res = irka(model, init, IrkaOptions(tol=1e-9, max_iter=250))
        assert res.converged
        rom = res.rom
        perturbed = make_model(rom.E, rom.A * 1.01, rom.B, rom.C, rom.D)
        report = verify_h2_optimality(model, perturbed)
        assert report.max_residual > 1e-3

    def test_shared_solver_used_only_when_it_holds_every_node(self):
        from h2mor import irka, update_interpolation_data

        model = random_stable_model(50, 1, 1, 507)
        init = InterpolationData.zero_init(4, 1, 1)
        rom = irka(model, init, IrkaOptions(tol=1e-9, max_iter=250)).rom
        nodes, _ = update_interpolation_data(rom)
        groups = len(nodes.conjugate_pairing())
        solver = ShiftedSolver(model, keep_factorizations=True)
        assert verify_tangential_interpolation(model, rom, nodes, solver).full_lu == groups
        # at the rom's own mirrored poles the check reuses every factorization
        shared = verify_h2_optimality(model, rom, solver)
        assert shared.full_lu == 0 and solver.lu_count == groups
        assert shared.passed(1e-6)
        # a perturbed rom has other nodes: the check factorizes on its own,
        # one LU at a time, and leaves the shared solver as it was
        perturbed = make_model(rom.E, rom.A * 1.01, rom.B, rom.C, rom.D)
        alone = verify_h2_optimality(model, perturbed, solver)
        assert alone.full_lu == groups and solver.lu_count == groups
        assert all(map(solver.holds, nodes.shifts))
        assert alone.max_residual == verify_h2_optimality(model, perturbed).max_residual

    def test_unstable_poles_skipped_and_flagged(self):
        full = random_stable_model(20, 1, 1, 512)
        rom = make_model(None, np.diag([-1.0, 0.5]), np.ones((2, 1)), np.ones((1, 2)))
        report = verify_h2_optimality(full, rom)
        assert report.skipped_unstable
        assert not report.passed(1e-6)

    def test_fully_unstable_rom_raises(self):
        full = random_stable_model(20, 1, 1, 513)
        rom = make_model(None, [[1.0]], [[1.0]], [[1.0]])
        with pytest.raises(UnstableRom):
            verify_h2_optimality(full, rom)


class TestEstimateError:
    def test_zero_for_rom_equal_surrogate(self):
        model = random_stable_model(40, 1, 1, 520)
        data0 = InterpolationData.zero_init(4, 1, 1)
        mf = init_model_function(model, data0)
        if np.max(np.real(np.linalg.eigvals(
                np.linalg.solve(mf.surrogate.E.toarray(), mf.surrogate.A.toarray())))) < 0:
            est, used = estimate_error(mf, mf.surrogate)
            assert est < 1e-7
            assert not used

    def test_unstable_rom_raises(self):
        model = random_stable_model(40, 1, 1, 521)
        data0 = InterpolationData.zero_init(4, 1, 1)
        mf = init_model_function(model, data0)
        bad = make_model(None, [[1.0]], [[1.0]], [[1.0]])
        with pytest.raises(UnstableRom):
            estimate_error(mf, bad)

    def test_unstable_surrogate_uses_its_stable_part(self):
        surrogate = make_model(None, np.diag([-1.0, -2.0, 0.5]), np.ones((3, 1)),
                               np.ones((1, 3)))
        mf = ModelFunction(surrogate=surrogate, history=InterpolationData.zero_init(1, 1, 1),
                           columns=())
        rom = make_model(None, [[-1.5]], [[1.0]], [[1.0]])
        est, used = estimate_error(mf, rom)
        assert used
        assert est == pytest.approx(h2_error(stable_part(surrogate), rom)[1], rel=1e-12)
        with pytest.raises(UnstableRom):
            estimate_error(mf, make_model(None, [[1.0]], [[1.0]], [[1.0]]))

    def test_unstable_surrogate_takes_one_gramian(self, monkeypatch):
        # stable part 1/(s+1) + 1/(s+2), rom 1/(s+1.5): the error is sum c_i/(s - p_i),
        # whose squared H2 norm is sum_ij c_i c_j / -(p_i + p_j)
        def h2_squared(c, p):
            return float(np.sum(np.outer(c, c) / -np.add.outer(p, p)))

        c, p = np.array([1.0, 1.0, -1.0]), np.array([-1.0, -2.0, -1.5])
        oracle = np.sqrt(h2_squared(c, p) / h2_squared(c[:2], p[:2]))
        surrogate = make_model(None, np.diag([-1.0, -2.0, 0.5]), np.ones((3, 1)),
                               np.ones((1, 3)))
        mf = ModelFunction(surrogate=surrogate, history=InterpolationData.zero_init(1, 1, 1),
                           columns=())
        metrics = sys.modules["h2mor.metrics"]
        solve, calls = metrics.solve_generalized_lyapunov, []
        monkeypatch.setattr(metrics, "solve_generalized_lyapunov",
                            lambda *args: calls.append(args) or solve(*args))
        est, used = estimate_error(mf, make_model(None, [[-1.5]], [[1.0]], [[1.0]]))
        assert used and len(calls) == 1
        assert est == pytest.approx(oracle, rel=1e-12)

    def test_unstable_surrogate_estimate_keeps_its_digits(self):
        # the surrogate (order 12, one unstable mode) and rom (r = 6) of a CIRKA
        # run on a 60 x 60 heat-equation grid; in modal form with unit right
        # eigenvectors, its modes' B rows outweigh their C columns by up to 4e7.
        # The reference is ||G_s - G_r|| / ||G_s|| by adaptive quadrature of
        # |G(jw)|^2 at relative tolerance 1e-12.
        data = json.loads((Path(__file__).parent / "data" /
                           "imbalanced_surrogate.json").read_text())
        surrogate, rom = (make_model(*(np.array(data[key][m]) for m in "EABC"))
                          for key in ("surrogate", "rom"))
        mf = ModelFunction(surrogate=surrogate, history=InterpolationData.zero_init(1, 1, 1),
                           columns=())
        est, used = estimate_error(mf, rom)
        assert used
        assert est == pytest.approx(7.132685426641231e-06, rel=1e-4)

    def test_stable_surrogate_goes_straight_to_the_gramian(self):
        # stability is read off the surrogate's eigenvalues, so a stable Jordan
        # block, which has no usable eigenvectors, is used as it is; an unstable
        # error system then blames the rom
        rom = make_model(None, [[-1.5]], [[1.0]], [[1.0]])
        for A in (np.diag([-1.0, -2.0]), [[-1.0, 1.0], [0.0, -1.0]]):
            surrogate = make_model(None, A, np.ones((2, 1)), np.ones((1, 2)))
            mf = ModelFunction(surrogate=surrogate,
                               history=InterpolationData.zero_init(1, 1, 1), columns=())
            est, used = estimate_error(mf, rom)
            assert not used
            assert est == h2_error(surrogate, rom)[1]
            with pytest.raises(UnstableRom):
                estimate_error(mf, make_model(None, [[1.0]], [[1.0]], [[1.0]]))

    def test_estimate_underestimates_on_oscillatory_model(self):
        # weakly damped chain, hard at r=4: the surrogate-based estimate
        # underestimates the true error, as typically observed
        from .helpers import spring_chain_model

        model = spring_chain_model(30, seed=4)
        init = InterpolationData.zero_init(4, 1, 1)
        res = cirka(model, init, tight_opts())
        assert res.converged and res.error_estimate is not None
        _, true_rel = h2_error(model, res.rom)
        assert res.error_estimate < true_rel
        assert res.error_estimate > 0.1 * true_rel


class TestRealizationEquivalence:
    def test_degenerate_rom_equals_surrogate(self):
        model = random_stable_model(40, 2, 2, 530)
        data0 = random_conjugate_data(4, 2, 2, 531)
        mf = init_model_function(model, data0)
        report = verify_realization_equivalence(model, mf.history, mf.surrogate)
        assert report.max_deviation < 1e-8

    @pytest.mark.parametrize("data0", [random_conjugate_data(4, 1, 1, 533),
                                       random_conjugate_data(6, 1, 1, 534),
                                       InterpolationData.zero_init(4, 1, 1)],
                             ids=["r4", "r6", "zero-chain"])
    def test_full_lu_counts_the_direct_projection(self, data0):
        # one LU per real shift and per conjugate pair, as in the interpolation check
        model = random_stable_model(20, 1, 1, 532)
        rom, _ = hermite_reduce(model, data0)
        report = verify_realization_equivalence(model, data0, rom)
        assert report.full_lu == verify_tangential_interpolation(model, rom, data0).full_lu
