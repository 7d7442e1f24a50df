import numpy as np
import pytest
import scipy.linalg as spla
import scipy.sparse as sps
from scipy.sparse.linalg import splu

from h2mor import (
    DENSE_THRESHOLD,
    ShiftedSolver,
    eval_transfer,
    generalized_eig,
    irka,
    make_model,
    orthonormalize_real,
    pole_residue,
    solve_generalized_lyapunov,
    stable_part,
)
from h2mor.errors import (
    DefectiveSpectrum,
    DimensionMismatch,
    NonFiniteMatrix,
    OrderTooLarge,
    RankCollapse,
    SingularEr,
    SingularShift,
    StructurallySingularE,
    UnstablePencil,
)
from h2mor import linalg
from h2mor.interpolation import InterpolationData, _dense_shifted_solve, primitive_basis
from h2mor.linalg import (
    QR_DROP_TOL,
    CostCounters,
    ModalSolver,
    pencil_eigenvalues,
    realify_columns,
)
from h2mor.metrics import error_system

from .helpers import random_conjugate_data, random_stable_model, spring_chain_model


class TestShiftedSolver:
    def test_identity_solve(self):
        model = make_model(None, sps.identity(4, format="csc"), np.ones((4, 1)), np.ones((1, 4)))
        solver = ShiftedSolver(model)
        b = np.arange(1.0, 5.0)
        x = solver.solve(0.0, b)
        assert np.allclose(x, b)
        assert solver.lu_count == 1

    def test_residual_random_sparse(self):
        model = random_stable_model(50, 1, 1, 21)
        solver = ShiftedSolver(model)
        rng = np.random.default_rng(0)
        rhs = rng.standard_normal((50, 3))
        sigma = 1 + 1j
        x = solver.solve(sigma, rhs)
        M = (model.A - sigma * model.E).toarray()
        assert np.linalg.norm(M @ x - rhs) < 1e-10 * np.linalg.norm(rhs)

    def test_transposed_solve(self):
        model = random_stable_model(30, 1, 1, 22)
        solver = ShiftedSolver(model)
        rng = np.random.default_rng(1)
        rhs = rng.standard_normal(30)
        sigma = 0.5 - 2j
        x = solver.solve(sigma, rhs, transposed=True)
        M = (model.A - sigma * model.E).toarray()
        assert np.linalg.norm(M.T @ x - rhs) < 1e-10 * np.linalg.norm(rhs)

    def test_conjugate_recycling(self):
        model = random_stable_model(40, 1, 1, 23)
        solver = ShiftedSolver(model)
        rhs = np.random.default_rng(2).standard_normal(40)
        x1 = solver.solve(1 + 2j, rhs)
        x2 = solver.solve(1 - 2j, rhs)
        assert solver.lu_count == 1          # one LU for the pair
        assert solver.lu_count_norecycle == 2
        assert np.array_equal(x2, np.conj(x1))   # exact conjugates

    def test_modes_share_factorization(self):
        model = random_stable_model(40, 1, 1, 24)
        solver = ShiftedSolver(model)
        rhs = np.ones(40)
        solver.solve(2.0 + 1j, rhs)
        solver.solve(2.0 + 1j, rhs, transposed=True)
        assert solver.lu_count == 1
        assert solver.lu_count_norecycle == 2

    def test_singular_shift_raises(self):
        model = make_model(None, np.diag([-1.0, -2.0]), np.ones((2, 1)), np.ones((1, 2)))
        solver = ShiftedSolver(model)
        with pytest.raises(SingularShift):
            solver.solve(-1.0, np.ones(2))   # sigma equals an eigenvalue of (A, E)

    def test_drop_keeps_counters(self):
        model = random_stable_model(20, 1, 1, 26)
        solver = ShiftedSolver(model)
        solver.solve(1.0, np.ones(20))
        solver.drop_factorizations()
        solver.solve(1.0, np.ones(20))
        assert solver.lu_count == 2


def grid_model(N, convection):
    """Five-point diffusion on an N x N grid (symmetric), plus central-difference
    convection when asked (same pattern, unsymmetric values); E = I."""
    h = 1.0 / (N + 1)
    one = np.ones(N)
    lap = sps.diags([one[1:], -2.0 * one, one[1:]], [-1, 0, 1]) / h**2
    dif = sps.diags([-one[1:], one[1:]], [-1, 1]) / (2.0 * h)
    I = sps.identity(N)
    A = 0.01 * (sps.kron(lap, I) + sps.kron(I, lap))
    if convection:
        A = A - 5.0 * sps.kron(dif, I) - 2.0 * sps.kron(I, dif)
    B = np.random.default_rng(N).standard_normal((N * N, 2))
    return make_model(None, A.tocsc(), B, B.T)


SOLVER_MODELS = {
    "heat2d": lambda: grid_model(12, convection=False),
    "cd2d": lambda: grid_model(12, convection=True),
    # A has no entries in E's identity block, so A - 0 E is zero on a part of
    # the pattern that every other shift fills
    "spring-chain": lambda: spring_chain_model(40, seed=3),
}


def _assert_equals_fresh_factorizations(model, shifts, rhs, options):
    """Solve at every shift, then check, bit for bit, that all solutions equal
    those of a fresh matrix and LU of the (permuted) pencil, factorized with
    ``options``; every LU is taken from one matrix that each shift rewrites."""
    solver = ShiftedSolver(model)
    for sigma in shifts:
        solver.solve(sigma, rhs[:, 0])
    pencil = linalg._joint_pattern(model.A, model.E)
    columns = solver._columns
    for k, sigma in enumerate(shifts):
        indptr, indices, a, e = pencil if k == 0 else linalg._permute_columns(*pencil, columns)
        M = sps.csc_matrix((a - complex(sigma) * e, indices, indptr), shape=model.A.shape)
        lu = splu(M, permc_spec="MMD_AT_PLUS_A" if k == 0 else "NATURAL", **options)
        if k == 0:
            want, want_t = lu.solve(rhs), lu.solve(rhs, trans="T")
        else:
            want = np.empty_like(rhs)
            want[columns] = lu.solve(rhs)
            want_t = lu.solve(rhs[columns], trans="T")
        assert solver.solve(sigma, rhs).tobytes() == want.tobytes(), sigma
        assert solver.solve(sigma, rhs, transposed=True).tobytes() == want_t.tobytes(), sigma
    return solver


def _assert_reused_ordering_keeps_fresh_fill(monkeypatch, model, options):
    """Every shift of a grid pencil has one pattern, so the reused ordering
    gives the fill of a fresh minimum-degree ordering, with ``options``."""
    factors = []
    real_splu = linalg.splu
    monkeypatch.setattr(linalg, "splu",
                        lambda M, *a, **k: factors.append(real_splu(M, *a, **k)) or factors[-1])
    solver = ShiftedSolver(model)
    for sigma in (0.5, 1 + 2j):
        solver.solve(sigma, np.ones(model.n))
    fresh = real_splu((model.A - (1 + 2j) * model.E).tocsc(), permc_spec="MMD_AT_PLUS_A",
                      **options)
    assert factors[1].L.nnz + factors[1].U.nnz == fresh.L.nnz + fresh.U.nnz


class TestShiftedSolverOrdering:
    """One fill-reducing ordering per solver, reused at every later shift."""

    @pytest.mark.parametrize("shifts", [(0.5, 1 + 2j, 1 - 2j, 0.0), (0.0, 1 - 2j, 0.5, 1 + 2j)],
                             ids=["real-first", "zero-first"])
    @pytest.mark.parametrize("name", SOLVER_MODELS)
    def test_residuals_and_factorization_calls(self, monkeypatch, name, shifts):
        model = SOLVER_MODELS[name]()
        calls = []
        real_splu = linalg.splu
        monkeypatch.setattr(linalg, "splu",
                            lambda M, *a, **k: calls.append(k) or real_splu(M, *a, **k))
        solver = ShiftedSolver(model)
        rhs = np.random.default_rng(5).standard_normal((model.n, 2)) * (1 + 0.5j)
        for sigma in shifts:
            before = solver.lu_count
            M = (model.A - sigma * model.E).toarray()
            for transposed in (False, True):
                x = solver.solve(sigma, rhs, transposed=transposed)
                res = (M.T if transposed else M) @ x - rhs
                assert np.linalg.norm(res) < 1e-12 * np.linalg.norm(rhs), (sigma, transposed)
            if np.conj(sigma) in shifts[:shifts.index(sigma)]:
                assert solver.lu_count == before      # the conjugate's LU is reused
        assert solver.lu_count == 3
        solver.drop_factorizations()
        solver.solve(shifts[-1], rhs[:, 0])            # refactorized in the kept ordering
        assert len(calls) == solver.lu_count == 4
        assert calls[0]["permc_spec"] != "NATURAL"
        assert [k["permc_spec"] for k in calls[1:]] == ["NATURAL"] * 3
        assert all(k.keys() == {"permc_spec"} for k in calls)   # SuperLU's defaults

    @pytest.mark.parametrize("name", SOLVER_MODELS)
    def test_joint_pattern_holds_the_pencil_exactly(self, name):
        model = SOLVER_MODELS[name]()
        columns = np.random.default_rng(0).permutation(model.n)
        pencil = linalg._joint_pattern(model.A, model.E)
        for sigma in (0.0, 0.5, 1 + 2j):
            ref = (model.A - sigma * model.E).toarray()
            for (indptr, indices, a, e), cols in ((pencil, slice(None)),
                                                  (linalg._permute_columns(*pencil, columns),
                                                   columns)):
                M = sps.csc_matrix((a - sigma * e, indices, indptr), shape=ref.shape)
                assert np.array_equal(M.toarray(), ref[:, cols])

    def test_duplicate_entries_are_summed(self):
        # CSC storage may repeat an entry; the pencil holds the sum, as A itself does
        A = sps.csc_matrix((np.array([-1.0, -1.0, -3.0, 0.5]), np.array([0, 0, 1, 0]),
                            np.array([0, 2, 4])), shape=(2, 2))
        model = make_model(sps.identity(2, format="csc"), A, np.ones((2, 1)), np.ones((1, 2)))
        solver = ShiftedSolver(model)
        for sigma in (1.0, 2 + 1j):
            x = solver.solve(sigma, np.ones(2))
            assert np.allclose((A.toarray() - sigma * np.eye(2)) @ x, np.ones(2), atol=1e-14)

    @pytest.mark.parametrize("name", SOLVER_MODELS)
    def test_solutions_equal_fresh_factorizations_bit_for_bit(self, name):
        model = SOLVER_MODELS[name]()
        rhs = np.random.default_rng(6).standard_normal((model.n, 2)) * (1 - 0.25j)
        solver = _assert_equals_fresh_factorizations(model, (0.5, 1 + 2j, 0.0, 3 + 1j), rhs, {})
        assert solver.lu_count == 4

    def test_one_matrix_per_pattern(self, monkeypatch):
        # a new sparse matrix at every shift is the per-call cost the solver avoids
        model = SOLVER_MODELS["cd2d"]()
        matrices = []
        real_splu = linalg.splu
        monkeypatch.setattr(linalg, "splu",
                            lambda M, *a, **k: matrices.append(M) or real_splu(M, *a, **k))
        solver = ShiftedSolver(model)
        for sigma in (0.5, 1 + 2j, 2.0, 3 + 1j):
            solver.solve(sigma, np.ones(model.n))
        solver.drop_factorizations()
        solver.solve(0.5, np.ones(model.n))
        assert len(matrices) == 5
        assert all(M is matrices[1] for M in matrices[2:])

    @pytest.mark.parametrize("name", ["heat2d", "cd2d"])
    def test_reused_ordering_keeps_minimum_degree_fill(self, monkeypatch, name):
        _assert_reused_ordering_keeps_fresh_fill(monkeypatch, SOLVER_MODELS[name](), {})


#: Grid models just above DENSE_THRESHOLD (n = 2025), factorized with
#: LARGE_SPLU_OPTIONS.
LARGE_MODELS = {
    "heat2d": lambda: grid_model(45, convection=False),
    "cd2d": lambda: grid_model(45, convection=True),
}


class TestShiftedSolverLargeModels:
    """SuperLU settings for pencils above DENSE_THRESHOLD."""

    @pytest.fixture(scope="class", params=list(LARGE_MODELS))
    def model(self, request):
        model = LARGE_MODELS[request.param]()
        assert model.n > DENSE_THRESHOLD
        return model

    def test_solves_have_small_residuals(self, model):
        solver = ShiftedSolver(model)
        rhs = np.random.default_rng(7).standard_normal((model.n, 2)) * (1 + 0.5j)
        for sigma in (0.5, 1 + 2j):
            M = (model.A - sigma * model.E).tocsc()
            for transposed in (False, True):
                x = solver.solve(sigma, rhs, transposed=transposed)
                res = (M.T if transposed else M) @ x - rhs
                assert np.linalg.norm(res) <= 1e-12 * np.linalg.norm(rhs), (sigma, transposed)
        assert solver.lu_count == 2

    def test_solutions_equal_fresh_factorizations_bit_for_bit(self, model):
        rhs = np.random.default_rng(8).standard_normal((model.n, 2)) * (1 - 0.25j)
        _assert_equals_fresh_factorizations(model, (0.5, 1 + 2j), rhs,
                                            linalg.LARGE_SPLU_OPTIONS)

    def test_reused_ordering_keeps_fresh_fill(self, monkeypatch, model):
        _assert_reused_ordering_keeps_fresh_fill(monkeypatch, model, linalg.LARGE_SPLU_OPTIONS)

    @pytest.mark.parametrize("threshold_offset, large", [(-1, True), (0, False)],
                             ids=["order-above-threshold", "order-at-threshold"])
    def test_settings_apply_above_the_threshold_only(self, monkeypatch, model,
                                                     threshold_offset, large):
        calls = []
        real_splu = linalg.splu
        monkeypatch.setattr(linalg, "splu",
                            lambda M, *a, **k: calls.append(k) or real_splu(M, *a, **k))
        monkeypatch.setattr(linalg, "DENSE_THRESHOLD", model.n + threshold_offset)
        solver = ShiftedSolver(model)
        for sigma in (0.5, 1 + 2j, 2.0):
            solver.solve(sigma, np.ones(model.n))
        options = linalg.LARGE_SPLU_OPTIONS if large else {}
        assert calls == [dict(permc_spec="MMD_AT_PLUS_A", **options)] + \
            [dict(permc_spec="NATURAL", **options)] * 2


class TestCostCounters:
    def test_add_time(self):
        counters = CostCounters()
        counters.add_time("reduction", 1.0)
        counters.add_time("reduction", 0.5)
        counters.add_time("optimization", 2.0)
        assert counters.wall_times["reduction"] == 1.5
        assert counters.total_time == 3.5


class TestGeneralizedEig:
    def test_diagonal(self):
        lam, X, Y = generalized_eig(np.diag([-1.0, -2.0]), np.eye(2))
        assert np.allclose(sorted(lam.real, reverse=True), [-1.0, -2.0])
        assert np.allclose(Y.conj().T @ np.eye(2) @ X, np.eye(2))

    def test_random_pair_residuals(self):
        rng = np.random.default_rng(31)
        Ar = rng.standard_normal((6, 6))
        Er = np.eye(6) + 0.2 * rng.standard_normal((6, 6))
        lam, X, Y = generalized_eig(Ar, Er)
        assert np.linalg.norm(Ar @ X - Er @ X @ np.diag(lam)) < 1e-10 * np.linalg.norm(Ar)
        assert np.linalg.norm(Y.conj().T @ Ar - np.diag(lam) @ Y.conj().T @ Er) \
            < 1e-10 * np.linalg.norm(Ar)
        assert np.linalg.norm(Y.conj().T @ Er @ X - np.eye(6)) < 1e-10

    def test_conjugate_pairs(self):
        Ar = np.array([[0.0, 1.0], [-4.0, -0.4]])
        lam, X, Y = generalized_eig(Ar, np.eye(2))
        i, j = (0, 1) if lam[0].imag > 0 else (1, 0)
        assert np.isclose(lam[i], np.conj(lam[j]))
        assert np.allclose(X[:, i], np.conj(X[:, j]))

    def test_singular_Er(self):
        with pytest.raises(SingularEr):
            generalized_eig(np.eye(2), np.diag([1.0, 0.0]))

    def test_order_too_large(self):
        n = 2100
        with pytest.raises(OrderTooLarge):
            generalized_eig(np.eye(n), np.eye(n))

    @pytest.mark.parametrize("shapes", [((2, 2), (3, 3)), ((2, 3), (2, 3))])
    def test_shape_mismatch(self, shapes):
        # a shape bug is not a singular Er, which CIRKA reads as "factorize per shift"
        with pytest.raises(DimensionMismatch):
            generalized_eig(np.ones(shapes[0]), np.ones(shapes[1]))


class TestDenseOnlyThroughModel:
    """Every dense kernel of a model densifies it through ``StateSpaceModel.dense``."""

    @pytest.fixture
    def large(self, monkeypatch):
        n = DENSE_THRESHOLD + 1
        model = make_model(None, sps.diags(-np.arange(1.0, n + 1.0)), np.ones((n, 1)),
                           np.ones((1, n)))

        def refuse():
            raise AssertionError("densified a model above DENSE_THRESHOLD")

        monkeypatch.setattr(model.E, "toarray", refuse)
        monkeypatch.setattr(model.A, "toarray", refuse)
        return model

    @pytest.mark.parametrize("kernel", [
        lambda m: m.dense(), pole_residue, pencil_eigenvalues, ModalSolver,
        lambda m: _dense_shifted_solve(m, 1.0),
    ], ids=["dense", "pole_residue", "pencil_eigenvalues", "ModalSolver",
            "dense_shifted_solve"])
    def test_order_too_large_before_densifying(self, large, kernel):
        with pytest.raises(OrderTooLarge):
            kernel(large)


class TestOrthonormalizeReal:
    def test_all_real_basis(self):
        model = random_stable_model(20, 1, 1, 41)
        data = InterpolationData.simple([0.5, 1.5], [[1.0], [1.0]], [[1.0], [1.0]])
        Vp = primitive_basis(model, data, "input", ShiftedSolver(model))
        V = orthonormalize_real(Vp, data)
        assert V.shape == (20, 2)
        assert np.linalg.norm(V.T @ V - np.eye(2)) < 1e-12
        assert np.max(spla.subspace_angles(V, Vp.real)) < 1e-10

    def test_conjugate_pair_span(self):
        model = random_stable_model(20, 2, 2, 42)
        data = random_conjugate_data(2, 2, 2, 43)
        Vp = primitive_basis(model, data, "input", ShiftedSolver(model))
        V = orthonormalize_real(Vp, data)
        target = np.column_stack([Vp[:, 0].real, Vp[:, 0].imag])
        assert np.max(spla.subspace_angles(V, target)) < 1e-10
        assert np.linalg.norm(V.T @ V - np.eye(2)) < 1e-12

    def test_chain_realification(self):
        model = random_stable_model(24, 1, 1, 44)
        data = InterpolationData.zero_init(4, 1, 1)
        Vp = primitive_basis(model, data, "input", ShiftedSolver(model))
        V = orthonormalize_real(Vp, data)
        assert np.linalg.norm(V.T @ V - np.eye(V.shape[1])) < 1e-12
        assert np.max(spla.subspace_angles(V, Vp.real)) < 1e-8

    def test_rank_drop_on_duplicates(self):
        model = random_stable_model(20, 1, 1, 45)
        data = InterpolationData.simple([0.5, 0.5], [[1.0], [1.0]], [[1.0], [1.0]])
        Vp = primitive_basis(model, data, "input", ShiftedSolver(model))
        V = orthonormalize_real(Vp, data)
        assert V.shape[1] == 1   # duplicate columns dropped, rank reported via shape

    def test_rank_collapse(self):
        data = InterpolationData.simple([0.5], [[1.0]], [[1.0]])
        with pytest.raises(RankCollapse):
            orthonormalize_real(np.zeros((5, 1), dtype=complex), data)


def _same_bytes(a, b):
    """Equal dtype, shape and bytes: the same result to the last bit."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _pencil(kind, n, seed):
    """A pencil (A, E) of order n; E is a perturbed identity.

    ``real`` has a real spectrum, ``pairs`` n // 2 complex conjugate pairs
    (plus a real eigenvalue when n is odd), ``complex`` a complex A.
    """
    rng = np.random.default_rng(seed)
    E = np.eye(n) + 0.2 * rng.standard_normal((n, n))
    if kind == "complex":
        return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), E
    blocks = [np.array([[-a, -b], [b, -a]]) for a, b in rng.uniform(0.5, 3.0, (n // 2, 2))]
    if kind == "real" or n % 2:
        blocks = [np.diag(-rng.uniform(0.5, 5.0, n if kind == "real" else 1))] + \
            (blocks if kind == "pairs" else [])
    T = rng.standard_normal((n, n)) + n * np.eye(n)
    return E @ T @ spla.block_diag(*blocks) @ np.linalg.inv(T), E


class TestDirectLapackCalls:
    """The small dense kernels call LAPACK as scipy's wrappers do, to the bit.

    A scipy release that changes what its wrappers compute fails here, not in
    the invariant fixture.
    """

    @pytest.mark.parametrize("n", [1, 2, 4, 8, 22])
    @pytest.mark.parametrize("kind", ["real", "pairs", "complex"])
    def test_generalized_eig_matches_scipy_eig(self, kind, n):
        A, E = _pencil(kind, n, 900 + n)
        w, vl, vr = spla.eig(A, E, left=True, right=True)
        d = np.einsum("ij,ij->j", vl.conj(), E @ vr)
        lam, X, Y = generalized_eig(A, E)
        assert _same_bytes(lam, w)
        assert _same_bytes(X, vr)
        assert _same_bytes(Y, vl / d.conj())
        if kind == "real":
            assert not lam.imag.any() and X.dtype == float
        elif n > 1:
            assert lam.imag.any() and X.dtype == complex

    @pytest.mark.parametrize("shape, rank", [((22, 4), 4), ((8, 8), 8), ((22, 6), 3),
                                             ((4, 8), 4)],
                             ids=["tall", "square", "rank-deficient", "wide"])
    def test_pivoted_qr_matches_scipy_qr(self, shape, rank):
        rng = np.random.default_rng(shape[0] * shape[1])
        M = rng.standard_normal((shape[0], rank)) @ rng.standard_normal((rank, shape[1]))
        Q, diag = linalg._pivoted_qr(M)
        Qs, Rs, _ = spla.qr(M, mode="economic", pivoting=True)
        assert _same_bytes(Q, Qs)
        assert _same_bytes(diag, np.diag(Rs))

    @pytest.mark.parametrize("case", ["chain", "pairs", "duplicates"])
    def test_orthonormalize_real_matches_scipy_qr(self, case):
        model = random_stable_model(24, 2, 2, 46)
        data = {"chain": InterpolationData.zero_init(6, 2, 2),
                "pairs": random_conjugate_data(5, 2, 2, 47),
                "duplicates": InterpolationData.simple([0.5, 0.5, 2.0], np.ones((3, 2)),
                                                       np.ones((3, 2)))}[case]
        Vp = primitive_basis(model, data, "input", ShiftedSolver(model))
        Qs, Rs, _ = spla.qr(realify_columns(Vp, data), mode="economic", pivoting=True)
        diag = np.abs(np.diag(Rs))
        rank = int(np.sum(diag > QR_DROP_TOL * diag[0]))
        assert _same_bytes(orthonormalize_real(Vp, data), Qs[:, :rank])
        if case == "duplicates":
            assert rank < Vp.shape[1]


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("which", ["A", "E"])
    def test_pencil(self, which, bad):
        A, E = np.array([[-1.0, 0.0], [0.0, -2.0]]), np.eye(2)
        (A if which == "A" else E)[0, 0] = bad
        with pytest.raises(NonFiniteMatrix, match="infinite or NaN"):
            generalized_eig(A, E)

    def test_basis(self):
        data = InterpolationData.simple([0.5], [[1.0]], [[1.0]])
        with pytest.raises(NonFiniteMatrix, match="infinite or NaN"):
            orthonormalize_real(np.array([[1.0], [np.nan]], dtype=complex), data)


class TestGeneralizedLyapunov:
    def test_scalar(self):
        P = solve_generalized_lyapunov([[-1.0]], [[1.0]], [[1.0]])
        assert np.allclose(P, [[0.5]])

    def test_diagonal_closed_form(self):
        P = solve_generalized_lyapunov(np.diag([-1.0, -2.0]), np.eye(2), [[1.0], [1.0]])
        assert np.allclose(P, [[0.5, 1.0 / 3.0], [1.0 / 3.0, 0.25]])

    def test_random_residual(self):
        model = random_stable_model(10, 2, 1, 51)
        A, E, B = model.A.toarray(), model.E.toarray(), model.B
        P = solve_generalized_lyapunov(A, E, B)
        res = A @ P @ E.T + E @ P @ A.T + B @ B.T
        assert np.linalg.norm(res) < 1e-8 * np.linalg.norm(B @ B.T)
        assert np.allclose(P, P.T)
        assert np.min(np.linalg.eigvalsh(P)) > -1e-10 * np.linalg.norm(P)

    def test_unstable_pencil(self):
        with pytest.raises(UnstablePencil):
            solve_generalized_lyapunov(np.diag([-1.0, 0.5]), np.eye(2), np.ones((2, 1)))

    @pytest.mark.parametrize("A", [
        spla.block_diag([[-1.0]], [[0.5, 2.0], [-2.0, 0.5]]),   # a 2x2 real Schur block
        np.diag([-1.0, 0.0]),
    ], ids=["complex-pair", "zero"])
    def test_unstable_schur_diagonal(self, A):
        n = A.shape[0]
        with pytest.raises(UnstablePencil):
            solve_generalized_lyapunov(A, np.eye(n), np.ones((n, 1)))

    def test_singular_E(self):
        with pytest.raises(StructurallySingularE):
            solve_generalized_lyapunov(-np.eye(2), np.ones((2, 2)), np.ones((2, 1)))

    @pytest.mark.parametrize("case", ["mass-matrix", "spring-chain-error"])
    def test_bit_identical_to_scipy(self, case):
        if case == "mass-matrix":
            model = random_stable_model(12, 2, 1, 51)
        else:
            full = spring_chain_model(100, seed=5)
            rom = irka(full, InterpolationData.zero_init(4, full.m, full.p)).rom
            model = error_system(full, rom)
        E, A, B = model.E.toarray(), model.A.toarray(), model.B
        assert not np.array_equal(E, np.eye(model.n))
        Q = spla.solve(E, B)
        ref = spla.solve_continuous_lyapunov(spla.solve(E, A), -Q @ Q.T)
        P = solve_generalized_lyapunov(model.A, model.E, model.B)
        assert np.array_equal(P, (ref + ref.T) / 2.0)


class TestStablePart:
    def test_fully_stable_unchanged(self):
        model = random_stable_model(10, 1, 2, 61)
        part = stable_part(model)
        for s in (0.3, 1j * 2.0, 1.0 + 1j):
            G, Gs = eval_transfer(model, s), eval_transfer(part, s)
            assert np.linalg.norm(G - Gs) < 1e-8 * np.linalg.norm(G)

    def test_one_unstable_mode_removed(self):
        model = make_model(None, np.diag([-1.0, 1.0]), [[1.0], [1.0]], [[1.0, 1.0]])
        part = stable_part(model)
        assert part.n == 1
        assert np.allclose(eval_transfer(part, 0.0), [[1.0]])   # 1/(s+1) at 0

    def test_partial_fraction_oracle(self):
        rng = np.random.default_rng(62)
        poles = np.array([-1.0, -2.5, 0.4, -0.5 + 2j, -0.5 - 2j, 1.2, -3.0, -4.0])
        blocks = []
        i = 0
        while i < len(poles):
            lam = poles[i]
            if abs(lam.imag) > 0:
                a, b = lam.real, lam.imag
                blocks.append(np.array([[a, -b], [b, a]]))
                i += 2
            else:
                blocks.append(np.array([[lam.real]]))
                i += 1
        A = spla.block_diag(*blocks)
        model = make_model(None, A, rng.standard_normal((8, 2)), rng.standard_normal((2, 8)))
        prf = pole_residue(model)
        part = stable_part(model)
        assert part.n == 6
        for _ in range(10):
            s = complex(rng.uniform(0.5, 2.0), rng.uniform(-3.0, 3.0))
            ref = np.zeros((2, 2), dtype=complex)
            for lam, b, c in zip(prf.poles, prf.input_residues, prf.output_residues):
                if lam.real < 0:
                    ref += np.outer(c, b) / (s - lam)
            G = eval_transfer(part, s)
            assert np.linalg.norm(G - ref) < 1e-8 * np.linalg.norm(ref)

    def test_no_stable_modes(self):
        model = make_model(None, [[1.0]], [[1.0]], [[1.0]])
        with pytest.raises(UnstablePencil):
            stable_part(model)


class TestPencilEigenvalues:
    def test_values(self):
        model = random_stable_model(15, 1, 1, 71)
        lam = pencil_eigenvalues(model)
        E, A = model.E.toarray(), model.A.toarray()
        ref = np.sort_complex(spla.eigvals(A, E))
        assert np.allclose(np.sort_complex(lam), ref)

    def test_defective_spectrum_guard(self):
        # a Jordan block, whose eigenvector matrix is numerically singular, and a
        # near one with simple eigenvalues, cond(X) = 2e6 > EIG_COND_LIMIT
        for delta in (0.0, 1e-6):
            A = np.array([[-1.0, 1.0], [0.0, -1.0 - delta]])
            with pytest.raises(DefectiveSpectrum):
                generalized_eig(A, np.eye(2))
