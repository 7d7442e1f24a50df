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
from h2mor.irka import _pad_to_order

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


class TestShiftConvergence:
    def test_identical(self):
        data = random_conjugate_data(4, 2, 2, 90)
        assert shift_convergence(data, data) == 0.0
        assert shift_convergence(data, data, "shifts_and_tangents") < 1e-14

    def test_relative_scaling(self):
        data = random_conjugate_data(4, 1, 1, 91)
        scaled = InterpolationData.simple(data.shifts * 1.001, data.right_tangents,
                                          data.left_tangents)
        assert shift_convergence(data, scaled) == pytest.approx(1e-3, rel=1e-6)

    def test_orthogonal_tangent(self):
        a = InterpolationData.simple([1.0], [[1.0, 0.0]], [[1.0, 0.0]])
        b = InterpolationData.simple([1.0], [[0.0, 1.0]], [[1.0, 0.0]])
        assert shift_convergence(a, b) == 0.0
        assert shift_convergence(a, b, "shifts_and_tangents") == pytest.approx(1.0)

    def test_tangent_scale_invariance(self):
        a = InterpolationData.simple([1.0], [[1.0, 1.0]], [[2.0, 0.0]])
        b = InterpolationData.simple([1.0], [[-3.0, -3.0]], [[4.0, 0.0]])
        assert shift_convergence(a, b, "shifts_and_tangents") < 1e-15

    def test_zero_previous_norm(self):
        a = InterpolationData.simple([0.0], [[1.0]], [[1.0]])
        b = InterpolationData.simple([2.0], [[1.0]], [[1.0]])
        assert shift_convergence(a, b) == pytest.approx(2.0)   # absolute fallback

    def test_cardinality_mismatch(self):
        a = random_conjugate_data(4, 1, 1, 92)
        b = random_conjugate_data(2, 1, 1, 93)
        with pytest.raises(CardinalityMismatch):
            shift_convergence(a, b)


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
        with pytest.raises(ValueError):
            IrkaOptions(stop_criterion="bogus")


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
