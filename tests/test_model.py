import numpy as np
import pytest
import scipy.sparse as sps

import h2mor
from h2mor import eval_transfer, eval_transfer_derivative, make_model, pole_residue, project
from h2mor.errors import (
    DimensionMismatch,
    OrderTooLarge,
    RankDeficientProjection,
    SingularShift,
    StructurallySingularE,
)

from .helpers import dense_transfer, fd_first_derivative, random_stable_model


class TestMakeModel:
    def test_scalar_lag(self, scalar_lag):
        assert (scalar_lag.n, scalar_lag.m, scalar_lag.p) == (1, 1, 1)
        assert scalar_lag.D.shape == (1, 1)

    def test_dimension_mismatch(self):
        A = np.diag([-1.0, -2.0])
        with pytest.raises(DimensionMismatch):
            make_model(None, A, np.ones((3, 1)), np.ones((1, 2)))

    def test_wrong_C_width(self):
        with pytest.raises(DimensionMismatch):
            make_model(None, np.diag([-1.0, -2.0]), np.ones((2, 1)), np.ones((1, 3)))

    def test_wrong_D_shape(self):
        with pytest.raises(DimensionMismatch):
            make_model(None, [[-1.0]], [[1.0]], [[1.0]], np.ones((2, 2)))

    def test_structurally_singular_E(self):
        E = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(StructurallySingularE):
            make_model(E, np.diag([-1.0, -2.0]), np.ones((2, 1)), np.ones((1, 2)))

    def test_dense_E_with_zero_row(self):
        # the row holds only exact zeros, one of them -0.0; every column has an entry
        E = np.array([[1.0, 2.0, 0.0], [0.0, -0.0, 0.0], [0.0, 3.0, 1.0]])
        with pytest.raises(StructurallySingularE):
            make_model(E, -np.eye(3), np.ones((3, 1)), np.ones((1, 3)))

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_dense_input_gives_scipy_csc_arrays(self, order):
        rng = np.random.default_rng(4)
        for shape in ((1, 1), (5, 5), (12, 12)):
            arr = rng.standard_normal(shape)
            arr[rng.random(shape) < 0.4] = 0.0
            arr[rng.random(shape) < 0.2] = -0.0
            arr[0, 0] = -0.0
            arr = np.asarray(arr, order=order)
            model = make_model(None, arr, np.ones((shape[0], 1)), np.ones((1, shape[0])))
            ref = sps.csc_matrix(arr)
            assert model.A.shape == ref.shape
            for name in ("indptr", "indices", "data"):
                got, want = getattr(model.A, name), getattr(ref, name)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
            assert model.A.nnz == np.count_nonzero(arr)

    def test_dense_integer_input_is_float(self):
        model = make_model(None, [[-2, 0], [1, -3]], np.ones((2, 1)), np.ones((1, 2)))
        assert model.A.dtype == np.float64
        assert np.array_equal(model.A.toarray(), [[-2.0, 0.0], [1.0, -3.0]])

    def test_dense_input_is_copied(self):
        A = np.diag([-1.0, -2.0])
        model = make_model(None, A, np.ones((2, 1)), np.ones((1, 2)))
        A[0, 0] = 5.0
        assert model.A[0, 0] == -1.0

    def test_transposed_E_cached(self):
        model = random_stable_model(20, 1, 1, 2)
        assert model.ET is model.ET
        assert np.array_equal(model.ET.toarray(), model.E.toarray().T)

    def test_default_E_and_D(self):
        model = make_model(None, [[-2.0]], [[1.0]], [[3.0]])
        assert np.allclose(model.E.toarray(), [[1.0]])
        assert np.allclose(model.D, 0.0)

    def test_rejects_complex_matrices(self):
        with pytest.raises(DimensionMismatch):
            make_model(None, [[-1.0 + 1j]], [[1.0]], [[1.0]])

    @pytest.mark.parametrize("E, A, B", [
        (None, sps.csc_matrix(np.array([[-1.0 + 1j]])), [[1.0]]),
        (None, [[-1.0]], [[1j]]),
        (None, -np.ones((1, 1, 1)), [[1.0]]),
        (None, [[-1.0]], np.ones((1, 1, 1))),
        (np.ones((1, 2)), [[-1.0]], [[1.0]]),
        (np.eye(2), [[-1.0]], [[1.0]]),
    ], ids=["complex-sparse-A", "complex-dense-B", "3d-A", "3d-B", "nonsquare-E",
            "E-other-order"])
    def test_rejects_malformed_matrices(self, E, A, B):
        with pytest.raises(DimensionMismatch):
            make_model(E, A, B, [[1.0]])

    def test_one_dimensional_B_and_C(self):
        model = make_model(None, np.diag([-1.0, -2.0]), [1.0, 2.0], [3.0, 4.0])
        assert np.array_equal(model.B, [[1.0], [2.0]])
        assert np.array_equal(model.C, [[3.0, 4.0]])

    def test_sparsity_preserved(self):
        model = random_stable_model(30, 1, 1, 1)
        assert sps.issparse(model.A) and sps.issparse(model.E)
        assert model.A.nnz < 30 * 30

    def test_immutable_dense_parts(self, scalar_lag):
        with pytest.raises(ValueError):
            scalar_lag.B[0, 0] = 2.0


class TestEvalTransfer:
    def test_scalar_lag_at_zero(self, scalar_lag):
        assert np.allclose(eval_transfer(scalar_lag, 0.0), [[1.0]])

    def test_matches_dense_inverse(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((5, 5)) - 4 * np.eye(5)
        E = np.eye(5) + 0.1 * rng.standard_normal((5, 5))
        model = make_model(E, A, rng.standard_normal((5, 2)),
                           rng.standard_normal((2, 5)), rng.standard_normal((2, 2)))
        s = 1 + 2j
        G = eval_transfer(model, s)
        assert np.linalg.norm(G - dense_transfer(model, s)) < 1e-12 * np.linalg.norm(G)

    def test_conjugate_symmetry(self):
        model = random_stable_model(20, 2, 2, 9)
        s = 0.4 + 1.3j
        assert np.allclose(eval_transfer(model, np.conj(s)),
                           np.conj(eval_transfer(model, s)), rtol=0, atol=1e-14)

    def test_singular_shift(self, scalar_lag):
        with pytest.raises(SingularShift):
            eval_transfer(scalar_lag, -1.0)   # s = pole


class TestEvalTransferDerivative:
    def test_scalar_lag(self, scalar_lag):
        assert np.allclose(eval_transfer_derivative(scalar_lag, 0.0), [[-1.0]])

    def test_matches_finite_difference(self):
        rng = np.random.default_rng(11)
        A = rng.standard_normal((5, 5)) - 4 * np.eye(5)
        model = make_model(None, A, rng.standard_normal((5, 1)), rng.standard_normal((1, 5)))
        s = 0.3 + 1.0j
        dG = eval_transfer_derivative(model, s)
        fd = fd_first_derivative(model, s)
        assert np.linalg.norm(dG - fd) < 1e-5 * np.linalg.norm(dG)

    def test_feedthrough_only_model(self):
        model = make_model(None, [[-1.0]], [[0.0]], [[1.0]], [[2.0]])
        assert np.allclose(eval_transfer_derivative(model, 0.7), 0.0)


class TestProject:
    def test_identity(self):
        model = random_stable_model(12, 2, 2, 3)
        I = np.eye(12)
        rom = project(model, I, I)
        assert np.allclose(rom.A.toarray(), model.A.toarray())
        assert np.allclose(rom.E.toarray(), model.E.toarray())
        assert np.allclose(rom.B, model.B) and np.allclose(rom.C, model.C)

    def test_full_order_state_transformation(self):
        model = random_stable_model(10, 2, 1, 4)
        rng = np.random.default_rng(0)
        V = rng.standard_normal((10, 10))
        W = rng.standard_normal((10, 10))
        rom = project(model, V, W)
        for s in rng.standard_normal(20) + 1j * rng.standard_normal(20):
            G, Gr = eval_transfer(model, s), eval_transfer(rom, s)
            assert np.linalg.norm(G - Gr) < 1e-8 * np.linalg.norm(G)

    def test_projection_consistency_dense(self):
        model = random_stable_model(15, 1, 2, 6)
        rng = np.random.default_rng(1)
        V = np.linalg.qr(rng.standard_normal((15, 4)))[0]
        W = np.linalg.qr(rng.standard_normal((15, 4)))[0]
        rom = project(model, V, W)
        E, A, B, C, D = model.dense()
        s = 0.5 + 2j
        ref = (C @ V) @ np.linalg.inv(s * W.T @ E @ V - W.T @ A @ V) @ (W.T @ B) + D
        Gr = eval_transfer(rom, s)
        assert np.linalg.norm(Gr - ref) < 1e-10 * np.linalg.norm(ref)

    def test_rank_deficient(self):
        model = random_stable_model(8, 1, 1, 7)
        V = np.zeros((8, 2))
        V[:, 0] = 1.0
        V[:, 1] = 1.0   # rank one
        with pytest.raises(RankDeficientProjection):
            project(model, V, V)

    def test_non_finite_basis_is_a_typed_error(self):
        # ?gesdd refuses a NaN entry; np.linalg.svd raised a bare LinAlgError
        model = random_stable_model(8, 1, 1, 7)
        V = np.eye(8)[:, :2]
        V[0, 0] = np.nan
        with pytest.raises(RankDeficientProjection, match="gesdd"):
            project(model, V, np.eye(8)[:, :2])

    def test_feedthrough_carried_over(self):
        model = make_model(None, np.diag([-1.0, -2.0]), np.eye(2), np.eye(2),
                           [[1.0, 2.0], [3.0, 4.0]])
        rom = project(model, np.eye(2), np.eye(2))
        assert np.allclose(rom.D, model.D)


class TestPoleResidue:
    def test_scalar_lag(self, scalar_lag):
        prf = pole_residue(scalar_lag)
        assert np.allclose(prf.poles, [-1.0])
        assert np.allclose(prf.input_residues, [[1.0]])
        assert np.allclose(prf.output_residues, [[1.0]])

    def test_decoupled_modes(self, diag_two_mode):
        prf = pole_residue(diag_two_mode)
        order = np.argsort(prf.poles.real)[::-1]
        assert np.allclose(prf.poles[order], [-1.0, -2.0])
        res = prf.input_residues[order] * prf.output_residues[order]
        assert np.allclose(res, [[1.0], [1.0]])

    def test_reconstruction(self):
        model = random_stable_model(8, 2, 2, 13, mass=False)
        prf = pole_residue(model)
        rng = np.random.default_rng(2)
        for _ in range(10):
            s = complex(rng.uniform(0.5, 2), rng.uniform(-3, 3))
            G = eval_transfer(model, s) - model.D
            assert np.linalg.norm(prf.transfer_at(s) - G) < 1e-8 * np.linalg.norm(G)

    @pytest.mark.parametrize("c", [1e-10, 1e10])
    def test_time_scaled_model(self, c):
        # E -> cE divides the poles by c and leaves the transfer function of s / c
        model = random_stable_model(20, 2, 1, 13)
        scaled = make_model(c * model.E, model.A, model.B, model.C)
        prf, ref = pole_residue(scaled), pole_residue(model)
        # matched to the nearest pole: sorting can swap a pair's members
        dist = np.abs(prf.poles[:, None] * c - ref.poles).min(axis=1)
        assert dist.max() <= 1e-12 * np.abs(ref.poles).max()
        for s in (0.7, 1.0 + 2.0j):
            G = eval_transfer(model, s)
            assert np.linalg.norm(prf.transfer_at(s / c) - G) < 1e-10 * np.linalg.norm(G)

    def test_order_too_large(self):
        n = h2mor.DENSE_THRESHOLD + 1
        model = make_model(None, -sps.identity(n, format="csc"),
                           np.ones((n, 1)), np.ones((1, n)))
        with pytest.raises(OrderTooLarge):
            pole_residue(model)
