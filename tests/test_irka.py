import sys
from dataclasses import replace

import numpy as np
import pytest

from h2mor import (
    InterpolationData,
    IrkaOptions,
    ShiftedSolver,
    initial_data_from_spectrum,
    irka,
    make_model,
    pole_residue,
    shift_convergence,
    update_interpolation_data,
    verify_h2_optimality,
    verify_tangential_interpolation,
)
from h2mor.errors import CardinalityMismatch, DimensionMismatch, RankCollapse
from h2mor.interpolation import InterpolationBlock
from h2mor.irka import _cycle_period, _mirrored_data, _pad_to_order
from h2mor.linalg import conjugate_pairs

from .helpers import random_conjugate_data, random_stable_model


class TestUpdateInterpolationData:
    def test_mirroring_complex_pair(self):
        A = np.array([[-1.0, -2.0], [2.0, -1.0]])   # poles -1 +/- 2j
        rom = make_model(None, A, np.ones((2, 1)), np.ones((1, 2)))
        data, reflected = update_interpolation_data(rom)
        assert not reflected
        assert np.allclose(sorted(data.shifts, key=lambda z: z.imag), [1 - 2j, 1 + 2j])

    def test_scalar_lag(self, scalar_lag):
        data, reflected = update_interpolation_data(scalar_lag)
        assert not reflected
        assert np.allclose(data.shifts, [1.0])
        assert np.allclose(data.right_tangents, [[1.0]])
        assert np.allclose(data.left_tangents, [[1.0]])

    def test_reflection_of_unstable_pole(self):
        rom = make_model(None, np.diag([0.5, -1.0]), np.ones((2, 1)), np.ones((1, 2)))
        data, reflected = update_interpolation_data(rom)
        assert reflected
        assert np.all(data.shifts.real > 0)

    def test_pole_on_imaginary_axis_reflected(self):
        # Re(lambda) = 0 is unstable too: the mirrored shift lies in the closed left half-plane
        rom = make_model(None, np.diag([0.0, -1.0]), np.ones((2, 1)), np.ones((1, 2)))
        data, reflected = update_interpolation_data(rom)
        assert reflected
        assert sorted(data.shifts.real) == [0.0, 1.0]

    def test_cross_check_with_pole_residue(self):
        rom = random_stable_model(6, 2, 2, 81, mass=False)
        prf = pole_residue(rom)
        data, _ = update_interpolation_data(rom)
        # each triplet must be (mirror(pole), residue row, residue column) for some pole
        for b in data.blocks:
            k = np.argmin(np.abs(-np.conj(prf.poles) - b.sigma))
            assert abs(-np.conj(prf.poles[k]) - b.sigma) < 1e-10 * (1 + abs(b.sigma))
            assert np.linalg.norm(b.right - prf.input_residues[k]) \
                < 1e-10 * np.linalg.norm(b.right)
            assert np.linalg.norm(b.left - prf.output_residues[k]) \
                < 1e-10 * np.linalg.norm(b.left)

    def test_output_conjugate_closed(self):
        rom = random_stable_model(8, 2, 1, 82)
        data, _ = update_interpolation_data(rom)
        data.validate(2, 1)


def _per_column_distance(prev, new):
    """The stop test as a per-column loop over matched tangent rows."""
    ip, iq = (np.lexsort((d.shifts.imag, d.shifts.real)) for d in (prev, new))
    sp, sq = prev.shifts[ip], new.shifts[iq]
    dist = np.linalg.norm(sq - sp) / np.linalg.norm(sp)
    for side in ("right_tangents", "left_tangents"):
        for a, b in zip(getattr(prev, side)[ip], getattr(new, side)[iq]):
            na, nb = np.linalg.norm(a), np.linalg.norm(b)
            if na == 0.0 or nb == 0.0:
                col = float(na != nb)
            else:
                col = 1.0 - abs(np.vdot(a, b)) / (na * nb)
            dist = max(dist, col)
    return dist


class TestShiftConvergence:
    def test_identical(self):
        data = random_conjugate_data(4, 2, 2, 90)
        assert 0.0 <= shift_convergence(data, data) < 1e-14

    def test_relative_scaling(self):
        data = random_conjugate_data(4, 1, 1, 91)
        scaled = InterpolationData.simple(data.shifts * 1.001, data.right_tangents,
                                          data.left_tangents)
        assert shift_convergence(data, scaled) == pytest.approx(1e-3, rel=1e-6)

    def test_orthogonal_tangent(self):
        # equal shifts, but the right tangents are orthogonal
        a = InterpolationData.simple([1.0], [[1.0, 0.0]], [[1.0, 0.0]])
        b = InterpolationData.simple([1.0], [[0.0, 1.0]], [[1.0, 0.0]])
        assert shift_convergence(a, b) == 1.0

    def test_tangent_scale_invariance(self):
        a = InterpolationData.simple([1.0], [[1.0, 1.0]], [[2.0, 0.0]])
        b = InterpolationData.simple([1.0], [[-3.0, -3.0]], [[4.0, 0.0]])
        assert shift_convergence(a, b) < 1e-15

    def test_zero_previous_norm(self):
        a = InterpolationData.simple([0.0], [[1.0]], [[1.0]])
        b = InterpolationData.simple([2.0], [[1.0]], [[1.0]])
        assert shift_convergence(a, b) == pytest.approx(2.0)   # absolute fallback

    def test_cardinality_mismatch(self):
        a = random_conjugate_data(4, 1, 1, 92)
        b = random_conjugate_data(2, 1, 1, 93)
        with pytest.raises(CardinalityMismatch):
            shift_convergence(a, b)

    @pytest.mark.parametrize("lengths", [(1, 2, 1), (2, 1, 1)])
    def test_matches_per_column_loop_with_chain_tails(self, lengths):
        # chain tails have zero tangent rows: matched with another zero row
        # they count 0, with a nonzero row 1
        rng = np.random.default_rng(700)
        sigmas = [complex(rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)) for _ in range(3)]

        def data(lengths):
            blocks = []
            for sigma, q in zip(sigmas, lengths):
                b = InterpolationBlock(sigma, rng.standard_normal(3) + 1j * rng.standard_normal(3),
                                       rng.standard_normal(2) + 1j * rng.standard_normal(2), q)
                blocks += [b, b.conjugate()]
            return InterpolationData(blocks)

        prev, new = data((1, 2, 1)), data(lengths)
        near = InterpolationData([replace(b, sigma=b.sigma * (1 + 1e-9), right=b.right + 1e-3,
                                          length=c.length)
                                  for b, c in zip(prev.blocks, new.blocks)])
        assert np.count_nonzero(np.linalg.norm(prev.right_tangents, axis=1) == 0) == 2
        for other in (new, near):
            assert shift_convergence(prev, other) == pytest.approx(
                _per_column_distance(prev, other), abs=1e-15)


class TestIrka:
    def test_fixed_point_at_full_order(self):
        model = random_stable_model(8, 2, 2, 95, mass=False)
        init, _ = update_interpolation_data(model)
        res = irka(model, init, IrkaOptions(tol=1e-10, max_iter=5))
        assert res.converged
        assert res.iterations == 1
        assert shift_convergence(res.shift_history[0], res.optimal_data) < 1e-10

    def test_converged_run_properties(self):
        model = random_stable_model(50, 1, 1, 507)   # a reliably converging seed
        init = InterpolationData.zero_init(4, 1, 1)
        opts = IrkaOptions(tol=1e-9, max_iter=250)
        solver = ShiftedSolver(model)
        res = irka(model, init, opts, solver)
        assert res.converged
        # stationarity: the rom's mirrored poles equal the final shifts within tol
        mirrored, _ = update_interpolation_data(res.rom)
        assert shift_convergence(res.optimal_data, mirrored) <= opts.tol
        # optimality conditions against the full model
        assert verify_h2_optimality(model, res.rom).passed(max(1e-6, 10 * opts.tol))
        # the rom interpolates the model at its own optimal data
        assert verify_tangential_interpolation(model, res.rom, res.optimal_data).passed(1e-6)
        assert res.stop_reason == "settled"
        # cost accounting
        r = init.r
        assert res.counters.full_lu <= 1 + res.iterations * r
        assert res.counters.full_lu_norecycle <= 1 + res.iterations * 2 * r
        assert res.counters.full_lu < res.counters.full_lu_norecycle

    def test_conjugate_closure_every_iteration(self):
        model = random_stable_model(30, 2, 2, 96)
        init = InterpolationData.zero_init(4, 2, 2)
        res = irka(model, init, IrkaOptions(tol=1e-6, max_iter=30))
        for data in res.shift_history:
            data.validate(2, 2)

    def test_max_iter_is_not_an_error(self):
        model = random_stable_model(40, 2, 2, 97)
        init = InterpolationData.zero_init(4, 2, 2)
        res = irka(model, init, IrkaOptions(tol=1e-16, max_iter=3))
        assert not res.converged
        assert res.iterations == 3
        assert res.stop_reason == "max_iter"

    @pytest.mark.parametrize("n, m, p, seed", [(30, 2, 3, 44), (12, 2, 3, 10)])
    def test_mimo_stop_test_reads_tangents(self, n, m, p, seed):
        # a stop test on shifts alone stops these runs early, with residuals
        # 20.8 (after 1 step) and 0.26 (after 4): their tangents still move
        model = random_stable_model(n, m, p, seed)
        res = irka(model, initial_data_from_spectrum(model, 1), IrkaOptions())
        assert res.converged
        assert verify_h2_optimality(model, res.rom).max_residual < 1e-2

    def test_settling_on_a_reflected_step_is_not_converged(self, caplog):
        # a full-order fixed point with an unstable pole: the data settle at
        # once, but the step reflected that pole and the rom keeps it
        rom = make_model(None, np.diag([0.5, -1.0, -2.0]), np.ones((3, 1)), np.ones((1, 3)))
        init, reflected = update_interpolation_data(rom)
        assert reflected
        res = irka(rom, init, IrkaOptions(tol=1e-8))
        assert res.iterations == 1 and res.reflected_iterations == [1]
        assert not res.converged and res.stop_reason == "unstable"
        assert np.max(pole_residue(res.rom).poles.real) > 0
        assert sum("unstable, not converged" in r.getMessage() for r in caplog.records) == 1

    def test_time_scaled_model_takes_the_same_steps(self):
        # E -> cE divides the optimal shifts by c and changes nothing else:
        # the same steps and LUs, and the shifts to rounding
        base = random_stable_model(30, 1, 1, 7)

        def run(c):
            model = make_model(c * base.E, base.A, base.B, base.C)
            return irka(model, initial_data_from_spectrum(model, 4), IrkaOptions(tol=1e-8))

        ref = run(1.0)
        assert ref.converged
        for c in (1e-8, 1e-12):
            res = run(c)
            assert res.converged and res.stop_reason == "settled"
            assert (res.iterations, res.counters.full_lu) == (ref.iterations,
                                                               ref.counters.full_lu)
            s = res.optimal_data.shifts * c
            s0 = ref.optimal_data.shifts
            assert np.abs(s[:, None] - s0).min(axis=1).max() <= 1e-12 * np.abs(s0).min()

    def test_order_above_n_rejected(self):
        model = random_stable_model(5, 1, 1, 98)
        init = InterpolationData.zero_init(6, 1, 1)
        with pytest.raises(DimensionMismatch):
            irka(model, init)

    def test_option_validation(self):
        with pytest.raises(ValueError):
            IrkaOptions(tol=0.0)
        for tol in (np.inf, np.nan):
            with pytest.raises(ValueError):
                IrkaOptions(tol=tol)
        with pytest.raises(ValueError):
            IrkaOptions(max_iter=0)

    @pytest.mark.parametrize("bad", [2.5, 3.0, True, "3", None])
    def test_max_iter_must_be_an_integer(self, bad):
        # a float cap would otherwise reach range() inside irka as a bare TypeError
        with pytest.raises(ValueError, match="max_iter"):
            IrkaOptions(max_iter=bad)

    def test_max_iter_takes_a_numpy_integer(self):
        assert IrkaOptions(max_iter=np.int64(7)).max_iter == 7


def _without_cycle_check(monkeypatch):
    """Run IRKA as if it had no cycle check: every run goes on to ``max_iter``."""
    monkeypatch.setattr(sys.modules["h2mor.irka"], "_cycle_period", lambda history: None)


class TestCycleStop:
    """A run whose iterates repeat stops early and returns what ``max_iter`` would."""

    def test_period_and_tolerance(self):
        a, b, c = (random_conjugate_data(4, 2, 2, seed) for seed in (710, 711, 712))
        near_b = InterpolationData.simple(b.shifts * (1 + 1e-8), b.right_tangents,
                                          b.left_tangents)
        assert _cycle_period([a, b, c]) is None
        assert _cycle_period([a, b, a]) == 2
        assert _cycle_period([c, b, a, near_b]) == 2
        assert _cycle_period([b, a, c, b]) == 3
        # equal shifts are not enough: the tangents must recur too
        turned_b = InterpolationData.simple(b.shifts, c.right_tangents, b.left_tangents)
        assert _cycle_period([a, b, c, turned_b]) is None
        # the recurrence must be within 1e-6 of the last step's distance
        far_b = InterpolationData.simple(b.shifts * (1 + 1e-5), b.right_tangents,
                                         b.left_tangents)
        assert _cycle_period([a, b, c, far_b]) is None

    @pytest.mark.parametrize("max_iter, returned", [(48, 40), (49, 41), (50, 38), (51, 39)])
    def test_returns_the_step_max_iter_reaches(self, monkeypatch, caplog, max_iter, returned):
        # zero init on model 511 enters a cycle of period 4, seen at step 41
        model = random_stable_model(50, 2, 2, 511)
        init = InterpolationData.zero_init(4, 2, 2)
        opts = IrkaOptions(max_iter=max_iter)
        res = irka(model, init, opts)
        assert res.iterations == 41 and res.stop_reason == "cycle" and not res.converged
        assert len(res.shift_history) == 42
        assert res.optimal_data is res.shift_history[returned]
        assert [r.getMessage() for r in caplog.records if r.levelname == "WARNING"] == [
            f"IRKA entered a cycle of period 4 at step 41; returning step {returned}, "
            f"where max_iter = {max_iter} would end: not converged"]
        _without_cycle_check(monkeypatch)
        ref = irka(model, init, opts)
        assert ref.iterations == max_iter and ref.stop_reason == "max_iter"
        if max_iter == 50:
            assert (res.counters.full_lu, ref.counters.full_lu) == (141, 172)
        for got, want in ((res.optimal_data.shifts, ref.optimal_data.shifts),
                          (pole_residue(res.rom).poles, pole_residue(ref.rom).poles)):
            got, want = (z[np.lexsort((z.real, z.imag))] for z in (got, want))
            assert np.allclose(got, want, rtol=1e-6, atol=0)

    def test_converging_run_keeps_its_steps(self, monkeypatch):
        model = random_stable_model(50, 1, 1, 507)
        init = InterpolationData.zero_init(4, 1, 1)
        opts = IrkaOptions(tol=1e-9, max_iter=250)
        res = irka(model, init, opts)
        _without_cycle_check(monkeypatch)
        ref = irka(model, init, opts)
        assert res.stop_reason == ref.stop_reason == "settled"
        assert res.iterations == ref.iterations
        assert res.counters.full_lu == ref.counters.full_lu
        assert np.array_equal(res.optimal_data.shifts, ref.optimal_data.shifts)


class TestPadToOrder:
    REAL = InterpolationBlock(0.5, [1.0, 2.0], [3.0])
    PAIR = InterpolationBlock(1 + 2j, [1.0, 1j], [2 - 1j])

    @pytest.mark.parametrize("blocks, deficit, lengths", [
        ((REAL, PAIR, PAIR.conjugate()), 3, [2, 2, 2]),
        ((REAL, PAIR, PAIR.conjugate()), 4, [3, 2, 2]),
        ((PAIR, PAIR.conjugate(), REAL), 1, [1, 1, 2]),
        ((REAL,), 5, [6]),
    ])
    def test_round_robin_over_conjugate_groups(self, blocks, deficit, lengths):
        data = InterpolationData(blocks)
        padded = _pad_to_order(data, data.r + deficit)
        assert [b.length for b in padded.blocks] == lengths
        for old, new in zip(data.blocks, padded.blocks):
            assert new.sigma == old.sigma
            assert np.array_equal(new.right, old.right) and np.array_equal(new.left, old.left)
        padded.validate(2, 1)

    def test_lone_pair_with_odd_deficit_raises(self):
        data = InterpolationData((self.PAIR, self.PAIR.conjugate()))
        with pytest.raises(RankCollapse):
            _pad_to_order(data, 5)


def _real_form_model(poles, m, p, seed):
    """A model with the given conjugate-closed poles: 1x1 and 2x2 real blocks."""
    rng = np.random.default_rng(seed)
    blocks = []
    for z in poles:
        if z.imag == 0.0:
            blocks.append(np.array([[z.real]]))
        elif z.imag > 0.0:
            blocks.append(np.array([[z.real, z.imag], [-z.imag, z.real]]))
    n = sum(b.shape[0] for b in blocks)
    A = np.zeros((n, n))
    k = 0
    for b in blocks:
        A[k:k + b.shape[0], k:k + b.shape[0]] = b
        k += b.shape[0]
    E = np.eye(n) + 0.1 * np.diag(rng.uniform(size=n - 1), 1)
    return make_model(E, E @ A, rng.standard_normal((n, m)), rng.standard_normal((p, n)))


def assert_mirrored_layout(prf, data, order=None):
    """``data`` is the layout :func:`_mirrored_data` documents for ``prf``'s poles.

    The poles are visited in ``order`` (by default all of them, in
    ``lexsort((|Im|, Re))`` order).  A real pole gives one block at its
    mirror -conj(lambda), reflected to Re > 0, with the real parts of its
    residues as tangents.  A conjugate pair, at its Im > 0 member, gives a
    block at that member's mirror with its residues, directly followed by
    the block's exact conjugate.
    """
    lam = prf.poles
    if order is None:
        order = np.lexsort((np.abs(lam.imag), lam.real))
    blocks = iter(data.blocks)
    for k in order:
        if lam[k].imag < 0.0:
            continue            # its pair's blocks come at the Im > 0 member
        s = -lam[k].conjugate()
        right, left = prf.input_residues[k], prf.output_residues[k]
        if lam[k].imag == 0.0:
            right, left = right.real, left.real
        b = next(blocks)
        assert b.sigma == complex(abs(s.real), s.imag)
        assert np.array_equal(b.right, right) and np.array_equal(b.left, left)
        if lam[k].imag > 0.0:
            c = next(blocks)
            assert c.sigma == b.sigma.conjugate()
            assert np.array_equal(c.right, b.right.conj())
            assert np.array_equal(c.left, b.left.conj())
    assert next(blocks, None) is None


def assert_padding_keeps(data, r):
    """``_pad_to_order(data, r)`` has r columns, ``data``'s groups and its shifts and tangents."""
    padded = _pad_to_order(data, r)
    assert padded.r == r
    assert padded.conjugate_pairing() == data.conjugate_pairing()
    assert len(padded.blocks) == len(data.blocks)
    for old, new in zip(data.blocks, padded.blocks):
        assert new.sigma == old.sigma
        assert np.array_equal(new.right, old.right) and np.array_equal(new.left, old.left)


class TestKnownPairing:
    """Data made from a spectrum come in the layout :func:`_mirrored_data`
    documents, and padding keeps it."""

    CASES = [
        ([-1.0, -2.0, -3.0], 1, 1),
        ([-1 + 2j, -1 - 2j, -0.5], 2, 1),
        ([-1 + 2j, -1 - 2j, -1 + 3j, -1 - 3j], 1, 2),
        ([0.5, -1 + 1j, -1 - 1j, 2 + 3j, 2 - 3j, -4.0], 2, 2),     # reflected
        ([-1e-3 + 50j, -1e-3 - 50j, -1e3], 1, 1),
    ]

    @pytest.mark.parametrize("poles, m, p", CASES)
    def test_mirrored_and_padded(self, poles, m, p):
        prf = pole_residue(_real_form_model(poles, m, p, seed=len(poles)))
        data, reflected = _mirrored_data(prf)
        assert reflected == any(z.real > 0.0 for z in poles)
        assert_mirrored_layout(prf, data)
        for deficit in (1, 2, 3):
            if deficit % 2 and all(len(g) == 2 for g in data.conjugate_pairing()):
                continue
            assert_padding_keeps(data, data.r + deficit)

    @pytest.mark.parametrize("poles, m, p", CASES)
    def test_stable_subset(self, poles, m, p):
        # given groups are visited in their own order, here the poles' index order
        prf = pole_residue(_real_form_model(poles, m, p, seed=len(poles)))
        lam = prf.poles
        stable = [g for g in conjugate_pairs(lam, range(len(lam))) if lam[g[0]].real < 0.0]
        order = [k for k in range(len(lam)) if lam[k].real < 0.0]
        assert_mirrored_layout(prf, _mirrored_data(prf, stable)[0], order)

    @pytest.mark.parametrize("seed", [3, 7, 11])
    def test_random_models_and_spectrum_init(self, seed):
        model = random_stable_model(12, 2, 1, seed)
        prf = pole_residue(model)
        data, _ = _mirrored_data(prf)
        assert_mirrored_layout(prf, data)
        assert_padding_keeps(data, data.r + 2)
        # the spectrum init visits its picks by magnitude
        init = initial_data_from_spectrum(model, 4)
        picked = set(init.shifts.tolist())
        lam = prf.poles
        order = [k for k in np.argsort(np.abs(lam)) if -lam[k].conjugate() in picked]
        assert_mirrored_layout(prf, init, order)


class TestSpectrumInitialization:
    def test_smallest_magnitude_selection(self):
        model = make_model(None, np.diag([-0.5, -3.0, -1.0, -10.0]),
                           np.ones((4, 1)), np.ones((1, 4)))
        data = initial_data_from_spectrum(model, 2)
        assert np.allclose(sorted(data.shifts.real), [0.5, 1.0])

    def test_conjugate_closed_selection(self):
        model = random_stable_model(20, 2, 2, 99)
        data = initial_data_from_spectrum(model, 4)
        data.validate(2, 2)
        assert data.r == 4
        assert np.all(data.shifts.real > 0)
