import numpy as np
import pytest

from h2mor import (
    InterpolationBlock,
    InterpolationData,
    ShiftedSolver,
    eval_transfer,
    hermite_reduce,
    orthonormalize_real,
    primitive_basis,
    project,
    sylvester_residual,
    verify_tangential_interpolation,
)
from h2mor.errors import NotConjugateClosed, SingularShift
from h2mor.irka import update_interpolation_data

from .helpers import random_conjugate_data, random_stable_model, transfer_derivatives_circle


class TestInterpolationData:
    def test_zero_init_structure(self):
        data = InterpolationData.zero_init(4, 2, 3)
        assert data.r == 4
        assert len(data.blocks) == 1 and data.blocks[0].length == 4
        S = data.S_matrix()
        assert np.allclose(np.diag(S), 0.0)
        assert np.allclose(np.diag(S, 1), 1.0)
        R = data.R_matrix()
        assert np.allclose(R[:, 0], 1.0) and np.allclose(R[:, 1:], 0.0)

    def test_simple_matrices(self):
        data = InterpolationData.simple([1.0, 2.0], [[1.0], [2.0]], [[3.0], [4.0]])
        assert np.allclose(data.S_matrix(), np.diag([1.0, 2.0]))
        assert np.allclose(data.R_matrix(), [[1.0, 2.0]])
        assert np.allclose(data.L_matrix(), [[3.0, 4.0]])

    def test_conjugate_closure_validation(self):
        good = random_conjugate_data(4, 2, 2, 1)
        good.validate(2, 2)
        bad = InterpolationData.simple([1 + 1j], [[1.0, 0.0]], [[1.0, 0.0]])
        with pytest.raises(NotConjugateClosed):
            bad.validate(2, 2)

    def test_real_shift_complex_tangents_need_partner(self):
        b = InterpolationBlock(1.0, [1 + 1j], [1.0])
        with pytest.raises(NotConjugateClosed):
            InterpolationData((b,)).validate(1, 1)
        InterpolationData((b, b.conjugate())).validate(1, 1)

    def test_json_roundtrip(self):
        data = random_conjugate_data(4, 2, 3, 2)
        back = InterpolationData.from_jsonable(data.to_jsonable())
        assert np.allclose(back.shifts, data.shifts)
        assert np.allclose(back.right_tangents, data.right_tangents)
        assert np.allclose(back.left_tangents, data.left_tangents)
        assert tuple(b.length for b in back.blocks) == tuple(b.length for b in data.blocks)

    def test_block_keeps_read_only_copies(self):
        right, left = np.array([1.0 + 2j, 3.0]), np.array([4.0])
        b = InterpolationBlock(1 + 1j, right, left)
        right[0], left[0] = 0.0, 0.0
        assert np.array_equal(b.right, [1.0 + 2j, 3.0]) and np.array_equal(b.left, [4.0])
        for t in (b.right, b.left):
            with pytest.raises(ValueError):
                t[0] = 7.0

    def test_pairing_computed_once(self):
        data = random_conjugate_data(5, 2, 2, 4)
        assert data.conjugate_pairing() is data.conjugate_pairing()
        assert sorted(i for g in data.conjugate_pairing() for i in g) == list(range(5))

    def test_perturbed_keeps_closure(self):
        data = random_conjugate_data(4, 1, 1, 3)
        sigma = data.blocks[0].sigma
        pert = data.perturbed(sigma)
        pert.validate(1, 1)
        assert abs(pert.blocks[0].sigma - ((1 + 1e-8) * sigma + 1e-8)) < 1e-14 * abs(sigma)


class TestPrimitiveBasis:
    def test_scalar_solve(self, scalar_lag):
        data = InterpolationData.simple([0.0], [[1.0]], [[1.0]])
        V = primitive_basis(scalar_lag, data, "input", ShiftedSolver(scalar_lag))
        assert np.allclose(V, [[-1.0]])   # (A - 0 E)^{-1} B = -1

    @pytest.mark.parametrize("side", ["input", "output"])
    def test_sylvester_residual_simple(self, side):
        model = random_stable_model(20, 2, 2, 10)
        data = random_conjugate_data(4, 2, 2, 11)
        basis = primitive_basis(model, data, side, ShiftedSolver(model))
        assert sylvester_residual(model, basis, data, side) < 1e-10

    @pytest.mark.parametrize("side", ["input", "output"])
    def test_sylvester_residual_chain(self, side):
        model = random_stable_model(20, 2, 2, 12)
        data = InterpolationData((InterpolationBlock(0.0, np.ones(2), np.ones(2), length=3),))
        basis = primitive_basis(model, data, side, ShiftedSolver(model))
        assert sylvester_residual(model, basis, data, side) < 1e-10

    def test_residual_sensitivity(self):
        model = random_stable_model(20, 1, 1, 13)
        data = random_conjugate_data(4, 1, 1, 14)
        basis = primitive_basis(model, data, "input", ShiftedSolver(model))
        noisy = basis + 1e-3 * np.linalg.norm(basis) / np.sqrt(basis.size)
        assert sylvester_residual(model, noisy, data, "input") >= 1e-4

    def test_zero_basis_normalization(self):
        model = random_stable_model(10, 1, 1, 15)
        data = InterpolationData.simple([0.5], [[1.0]], [[1.0]])
        Z = np.zeros((10, 1), dtype=complex)
        assert sylvester_residual(model, Z, data, "input") == pytest.approx(1.0)

    def test_chain_moment_matching(self):
        # chain of length 3 at 0: reduced model matches G, G', G'' moments
        model = random_stable_model(20, 2, 2, 16)
        data = InterpolationData((InterpolationBlock(0.0, np.ones(2), np.ones(2), length=3),))
        rom, _ = hermite_reduce(model, data)
        dG = transfer_derivatives_circle(model, 0.0, 2, radius=0.2)
        dGr = transfer_derivatives_circle(rom, 0.0, 2, radius=0.2)
        ones = np.ones(2)
        for k in range(3):
            num = np.linalg.norm((dG[k] - dGr[k]) @ ones)
            assert num < 1e-5 * np.linalg.norm(dG[k] @ ones)


class TestHermiteReduce:
    def test_mimo_tangential_conditions(self):
        model = random_stable_model(30, 3, 2, 20)
        data = random_conjugate_data(4, 3, 2, 21)
        solver = ShiftedSolver(model)
        rom, _ = hermite_reduce(model, data, solver)
        report = verify_tangential_interpolation(model, rom, data)
        assert report.passed(1e-8)
        for side in ("input", "output"):
            basis = primitive_basis(model, data, side, solver)
            assert sylvester_residual(model, basis, data, side) < 1e-8

    def test_full_order_interpolation_reproduces_model(self):
        model = random_stable_model(8, 2, 2, 22, mass=False)
        data, _ = update_interpolation_data(model)   # mirrored poles + residue tangents
        rom, _ = hermite_reduce(model, data)
        rng = np.random.default_rng(0)
        for _ in range(5):
            s = complex(rng.uniform(0.5, 2.0), rng.uniform(-2.0, 2.0))
            G, Gr = eval_transfer(model, s), eval_transfer(rom, s)
            assert np.linalg.norm(G - Gr) < 1e-8 * np.linalg.norm(G)

    def test_singular_shift_retry(self):
        # sigma = 0 with singular A: retry perturbs the shift and succeeds
        from h2mor import make_model

        A = np.diag([0.0, -1.0, -2.0, -3.0])
        A[0, 1] = 0.5
        model_sing = make_model(None, A, np.ones((4, 1)), np.ones((1, 4)))
        data = InterpolationData.simple([0.0, 1.0], [[1.0], [1.0]], [[1.0], [1.0]])
        rom, used = hermite_reduce(model_sing, data)
        assert rom.n == 2
        assert abs(used.blocks[0].sigma - 1e-8) < 1e-16

    def test_singular_shift_after_retry_raises(self, monkeypatch):
        # a solver that stays singular after the one perturbation gives up,
        # naming the perturbed shift
        class AlwaysSingular:
            def chain(self, sigma, *args, **kwargs):
                raise SingularShift("singular at every shift", sigma=sigma)

        calls = []
        perturbed = InterpolationData.perturbed
        monkeypatch.setattr(InterpolationData, "perturbed",
                            lambda data, sigma: calls.append(sigma) or perturbed(data, sigma))
        model = random_stable_model(6, 1, 1, 105)
        data = InterpolationData.simple([1.0, 2.0], [[1.0], [1.0]], [[1.0], [1.0]])
        with pytest.raises(SingularShift) as info:
            hermite_reduce(model, data, AlwaysSingular())
        assert calls == [1.0]
        assert info.value.sigma == (1.0 + 1e-8) * 1.0 + 1e-8

    @pytest.mark.parametrize("n,m,p,r,seed", [
        (20, 1, 1, 2, 100), (20, 2, 3, 4, 101), (50, 3, 1, 4, 102),
        (50, 2, 2, 6, 103), (20, 1, 2, 2, 104),
    ])
    def test_theorem_property_random(self, n, m, p, r, seed):
        model = random_stable_model(n, m, p, seed)
        data = random_conjugate_data(r, m, p, seed + 1000)
        rom, _ = hermite_reduce(model, data)
        assert verify_tangential_interpolation(model, rom, data).passed(1e-8)

    def test_basis_change_independence(self):
        # any regular T_V, T_W on the orthonormal bases leaves G_r unchanged
        model = random_stable_model(25, 2, 2, 23)
        data = random_conjugate_data(4, 2, 2, 24)
        solver = ShiftedSolver(model)
        rom1, _ = hermite_reduce(model, data, solver)
        V, W = (orthonormalize_real(primitive_basis(model, data, side, solver), data)
                for side in ("input", "output"))
        rng = np.random.default_rng(3)
        T1 = rng.standard_normal((4, 4))
        T2 = rng.standard_normal((4, 4))
        rom2 = project(model, V @ T1, W @ T2)
        for _ in range(20):
            s = complex(rng.uniform(0.3, 2.0), rng.uniform(-3.0, 3.0))
            G1, G2 = eval_transfer(rom1, s), eval_transfer(rom2, s)
            assert np.linalg.norm(G1 - G2) < 1e-8 * np.linalg.norm(G1)


class TestVerifyTangential:
    def test_negative_control_truncation(self):
        model = random_stable_model(20, 2, 2, 30)
        data = random_conjugate_data(4, 2, 2, 31)
        V = np.eye(20)[:, :4]
        truncated = project(model, V, V)
        report = verify_tangential_interpolation(model, truncated, data)
        assert not report.passed(1e-8)
        assert report.max_residual > 1e-3

    def test_identical_models(self):
        model = random_stable_model(15, 1, 1, 32)
        data = random_conjugate_data(2, 1, 1, 33)
        report = verify_tangential_interpolation(model, model, data)
        assert report.max_residual < 1e-12
