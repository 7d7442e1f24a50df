from dataclasses import replace

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

SIDES = ("input", "output")      # the order of primitive_basis's (V, W)


def _per_side_columns(model, data, solver, transposed):
    """One side's primitive columns, solved one block after the other."""
    cols, prev = [], None
    for b in data.blocks:
        if prev is not None and b.is_conjugate_of(prev):
            solver.count_request(b.sigma, transposed)
            cols.extend([c.conj() for c in cols[-b.length:]])
        else:
            rhs = model.C.T @ b.left if transposed else model.B @ b.right
            cols.extend(solver.chain(b.sigma, rhs, b.length, transposed))
        prev = b
    return np.column_stack(cols)


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

    @pytest.mark.parametrize("make", [
        lambda: InterpolationBlock(1.0, [1.0], [1.0], length=0),
        lambda: InterpolationData.simple([1.0, 2.0], [[1.0]], [[1.0], [2.0]]),
        lambda: InterpolationData.simple([1.0], [[1.0]], [[1.0], [2.0]]),
    ], ids=["chain-length-0", "right-rows", "left-rows"])
    def test_malformed_construction(self, make):
        with pytest.raises(ValueError):
            make()

    @pytest.mark.parametrize("data, m, p, named", [
        (random_conjugate_data(4, 2, 2, 1), 3, 2, "right tangents have size 2"),
        (random_conjugate_data(4, 2, 2, 1), 2, 3, "left tangents have size 2"),
        (InterpolationData.simple([np.nan], [[1.0]], [[1.0]]), 1, 1, "non-finite"),
        (InterpolationData.simple([1.0], [[np.inf]], [[1.0]]), 1, 1, "non-finite"),
    ], ids=["m", "p", "nan-shift", "inf-tangent"])
    def test_validate_rejects(self, data, m, p, named):
        with pytest.raises(ValueError, match=named):
            data.validate(m, p)

    @pytest.mark.parametrize("partner", [
        lambda b: replace(b.conjugate(), length=2),
        lambda b: replace(b.conjugate(), right=b.right.conj() + 1.0),
        lambda b: replace(b.conjugate(), left=2.0 * b.left.conj()),
    ], ids=["chain-length", "right-tangent", "left-tangent"])
    def test_conjugate_partner_must_match(self, partner):
        b = InterpolationBlock(1 + 1j, [1.0, 2.0 - 1j], [1.0])
        with pytest.raises(NotConjugateClosed):
            InterpolationData((b, partner(b))).validate(2, 1)
        InterpolationData((b, b.conjugate())).validate(2, 1)

    @pytest.mark.parametrize("shifts", [[1e-10 + 1e-11j, 3e-10 - 2e-11j], [1e-10 + 1e-13j]],
                             ids=["two-shifts", "lone-block"])
    def test_small_shifts_pair_only_exactly(self, shifts):
        # pairing does not depend on scale: near 1e-10 only the exact conjugate pairs
        ones = np.ones((len(shifts), 1))
        with pytest.raises(NotConjugateClosed, match=r"blocks\[0\]"):
            InterpolationData.simple(shifts, ones, ones).validate(1, 1)
        z = shifts[0]
        InterpolationData.simple([z, z.conjugate()], np.ones((2, 1)), np.ones((2, 1))).validate(1, 1)

    def test_pair_split_by_real_block_refused(self):
        b = InterpolationBlock(1 + 1j, [1.0], [1.0])
        real = InterpolationBlock(2.0, [1.0], [1.0])
        with pytest.raises(NotConjugateClosed, match=r"blocks\[0\]"):
            InterpolationData((b, real, b.conjugate())).validate(1, 1)
        InterpolationData((real, b, b.conjugate())).validate(1, 1)

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

    def test_perturbed_moves_exact_matches_only(self):
        data = InterpolationData.simple([1e-15, 2e-15], [[1.0], [1.0]], [[1.0], [1.0]])
        pert = data.perturbed(1e-15)
        assert pert.blocks[0].sigma == (1 + 1e-8) * 1e-15 + 1e-8
        assert pert.blocks[1] is data.blocks[1]
        # the conjugate of a block's shift moves the block and its partner
        data = random_conjugate_data(4, 1, 1, 3)
        pert = data.perturbed(data.blocks[2].sigma.conjugate())
        assert [p is b for p, b in zip(pert.blocks, data.blocks)] == [True, True, False, False]
        pert.validate(1, 1)


class TestPrimitiveBasis:
    def test_scalar_solve(self, scalar_lag):
        data = InterpolationData.simple([0.0], [[1.0]], [[1.0]])
        V, _ = primitive_basis(scalar_lag, data, ShiftedSolver(scalar_lag))
        assert np.allclose(V, [[-1.0]])   # (A - 0 E)^{-1} B = -1

    @pytest.mark.parametrize("side", ["input", "output"])
    def test_sylvester_residual_simple(self, side):
        model = random_stable_model(20, 2, 2, 10)
        data = random_conjugate_data(4, 2, 2, 11)
        basis = primitive_basis(model, data, ShiftedSolver(model))[SIDES.index(side)]
        assert sylvester_residual(model, basis, data, side) < 1e-10

    @pytest.mark.parametrize("side", ["input", "output"])
    def test_sylvester_residual_chain(self, side):
        model = random_stable_model(20, 2, 2, 12)
        data = InterpolationData((InterpolationBlock(0.0, np.ones(2), np.ones(2), length=3),))
        basis = primitive_basis(model, data, ShiftedSolver(model))[SIDES.index(side)]
        assert sylvester_residual(model, basis, data, side) < 1e-10

    @pytest.mark.parametrize("side", ["input", "output"])
    def test_conjugate_partner_costs_no_solve(self, side):
        # a real block, then a chain of length 2 and its conjugate: the
        # partner's columns are the chain's conjugates, its request still counts
        model = random_stable_model(20, 2, 2, 17)
        chain = InterpolationBlock(0.4 + 1.1j, [1.0, 2.0 - 1j], [0.5j, 1.0], length=2)
        data = InterpolationData((InterpolationBlock(0.8, np.ones(2), [1.0, -1.0]),
                                  chain, chain.conjugate()))
        solver = ShiftedSolver(model)
        shifts = []
        solve = solver.solve
        solver.solve = lambda sigma, *a, **k: shifts.append(sigma) or solve(sigma, *a, **k)
        basis = primitive_basis(model, data, solver)[SIDES.index(side)]
        # both sides, none at the partner's shift
        assert shifts == [0.8, 0.8] + [chain.sigma] * 4
        assert np.array_equal(basis[:, 3:], basis[:, 1:3].conj())
        assert solver.lu_count == 2
        assert solver.lu_count_norecycle == 6
        assert sylvester_residual(model, basis, data, side) < 1e-10

    @pytest.mark.parametrize("case", ["chain", "pairs", "repeated"])
    def test_both_sides_equal_the_per_side_columns(self, case):
        # one pass over the blocks, both sides at each, against one side at a
        # time in a solver that keeps every LU: the same bytes and counts,
        # and every LU released at the end
        model = random_stable_model(30, 2, 3, 18)
        pair = InterpolationBlock(0.4 + 1.1j, [1.0, 2.0 - 1j], [0.5j, 1.0, -1.0], length=2)
        real = InterpolationBlock(0.8, np.ones(2), [1.0, -1.0, 2.0])
        data = {"chain": InterpolationData((InterpolationBlock(0.0, np.ones(2), np.ones(3), 3),
                                            real)),
                "pairs": random_conjugate_data(6, 2, 3, 19),
                "repeated": InterpolationData((real, pair, pair.conjugate(),
                                               replace(real, length=2), pair.conjugate(),
                                               pair))}[case]
        keep = ShiftedSolver(model, keep_factorizations=True)
        want = [_per_side_columns(model, data, keep, transposed) for transposed in (False, True)]
        solver = ShiftedSolver(model)
        got = primitive_basis(model, data, solver)
        assert [b.tobytes() for b in got] == [b.tobytes() for b in want]
        assert (solver.lu_count, solver.lu_count_norecycle) == (keep.lu_count,
                                                                keep.lu_count_norecycle)
        assert not any(map(solver.holds, data.shifts))

    def test_residual_sensitivity(self):
        model = random_stable_model(20, 1, 1, 13)
        data = random_conjugate_data(4, 1, 1, 14)
        basis, _ = primitive_basis(model, data, ShiftedSolver(model))
        noisy = basis + 1e-3 * np.linalg.norm(basis) / np.sqrt(basis.size)
        assert sylvester_residual(model, noisy, data, "input") >= 1e-4

    def test_zero_basis_normalization(self):
        model = random_stable_model(10, 1, 1, 15)
        data = InterpolationData.simple([0.5], [[1.0]], [[1.0]])
        Z = np.zeros((10, 1), dtype=complex)
        assert sylvester_residual(model, Z, data, "input") == pytest.approx(1.0)

    def test_unknown_side(self):
        model = random_stable_model(10, 1, 1, 15)
        data = InterpolationData.simple([0.5], [[1.0]], [[1.0]])
        with pytest.raises(ValueError, match="side"):
            sylvester_residual(model, np.zeros((10, 1)), data, "both")

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
        for basis, side in zip(primitive_basis(model, data, solver), SIDES):
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
        V, W = (orthonormalize_real(basis, data) for basis in primitive_basis(model, data, solver))
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
