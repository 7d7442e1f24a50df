"""The optimality and interpolation checks against an independent truth.

``verify_h2_optimality`` and ``verify_tangential_interpolation`` solve the
full model through one shared ``ShiftedSolver`` and the reduced model
through a dense LU.  Here their residuals are recomputed from
``eval_transfer`` / ``eval_transfer_derivative``, which factorize every
point on their own, and the check's full-order factorizations are counted.
"""

import numpy as np
import pytest
import scipy.sparse as sps

import h2mor
from h2mor import (
    DENSE_THRESHOLD,
    InterpolationData,
    eval_transfer,
    eval_transfer_derivative,
    hermite_reduce,
    irka,
    make_model,
    pole_residue,
    update_interpolation_data,
    verify_h2_optimality,
    verify_tangential_interpolation,
)
from h2mor.errors import OrderTooLarge, SingularShift
from h2mor.linalg import pencil_eigenvalues

from .helpers import irka_suite_cases, random_conjugate_data, random_stable_model

RTOL, ATOL = 1e-8, 1e-12


def reference_residuals(full, rom, s, right, left):
    """The three Hermite residuals at s from independent transfer evaluations."""
    G, Gr = eval_transfer(full, s), eval_transfer(rom, s)
    dG, dGr = eval_transfer_derivative(full, s), eval_transfer_derivative(rom, s)

    def rel(num, den):
        return num / den if den > 0 else num

    return (rel(np.linalg.norm((G - Gr) @ right), np.linalg.norm(G @ right)),
            rel(np.linalg.norm(left @ (G - Gr)), np.linalg.norm(left @ G)),
            rel(abs(left @ (dG - dGr) @ right), abs(left @ dG @ right)))


def assert_agree(got, want):
    for g, w in zip(got, want):
        assert abs(g - w) <= max(RTOL * abs(w), ATOL), (got, want)


@pytest.fixture(scope="module")
def irka_roms():
    """Zero-init IRKA at r = 4 on the 20 acceptance models."""
    runs = []
    for m, p, seed in irka_suite_cases():
        model = random_stable_model(50, m, p, seed)
        runs.append((seed, model, irka(model, InterpolationData.zero_init(4, m, p))))
    return runs


def test_optimality_residuals_match_eval_transfer(irka_roms):
    checked = 0
    for _, model, res in irka_roms:
        report = verify_h2_optimality(model, res.rom)
        nodes = np.array([e.sigma for e in report.entries])
        prf = pole_residue(res.rom)
        stable = prf.poles.real < 0
        assert report.skipped_unstable == (not np.all(stable))
        assert len(report.entries) == np.sum(stable)
        for pole, brow, crow in zip(prf.poles[stable], prf.input_residues[stable],
                                    prf.output_residues[stable]):
            # entries are matched to poles by their node, the mirrored pole
            i = int(np.argmin(np.abs(nodes + pole.conjugate())))
            assert abs(nodes[i] + pole.conjugate()) <= 1e-14 * abs(pole)
            e = report.entries[i]
            assert_agree((e.rho_right, e.rho_left, e.rho_hermite),
                         reference_residuals(model, res.rom, -pole.conjugate(), brow, crow))
            checked += 1
    assert checked >= 70


def test_optimality_nodes_are_the_irka_shifts(irka_roms):
    """The check and IRKA's update share one mirror rule."""
    compared = 0
    for _, model, res in irka_roms:
        if np.max(pencil_eigenvalues(res.rom).real) >= 0.0:
            continue
        data, _ = update_interpolation_data(res.rom)
        if any(b.length > 1 for b in data.blocks):      # repeated poles
            continue
        nodes = [e.sigma for e in verify_h2_optimality(model, res.rom).entries]
        shifts = list(data.shifts)
        assert len(nodes) == len(shifts)
        for a, b in zip(sorted(nodes, key=lambda z: (z.real, z.imag)),
                        sorted(shifts, key=lambda z: (z.real, z.imag))):
            assert abs(a - b) <= 1e-14 * abs(b)
        compared += 1
    assert compared >= 14


def test_interpolation_residuals_match_eval_transfer(irka_roms):
    for seed, model, res in irka_roms:
        # the converged optimal data, and data the rom interpolates exactly
        # (residuals near 0, where the absolute tolerance applies)
        exact = random_conjugate_data(4, model.m, model.p, 3000 + seed)
        exact_rom, _ = hermite_reduce(model, exact)
        for rom, data in ((res.rom, res.optimal_data), (exact_rom, exact)):
            report = verify_tangential_interpolation(model, rom, data)
            for e, b in zip(report.entries, data.blocks):
                assert_agree((e.rho_right, e.rho_left, e.rho_hermite),
                             reference_residuals(model, rom, b.sigma, b.right, b.left))


def test_check_takes_one_lu_per_real_pole_and_per_pair(irka_roms, monkeypatch):
    orders = []
    real_splu = h2mor.linalg.splu

    def counting_splu(M, *args, **kwargs):
        orders.append(M.shape[0])
        return real_splu(M, *args, **kwargs)

    def no_splu(*args, **kwargs):
        raise AssertionError("the check must not factorize through model.splu")

    monkeypatch.setattr(h2mor.linalg, "splu", counting_splu)
    monkeypatch.setattr(h2mor.model, "splu", no_splu)
    pairs_seen = 0
    for _, model, res in irka_roms:
        poles = pole_residue(res.rom).poles
        stable = poles[poles.real < 0]
        expected = int(np.sum(stable.imag == 0) + np.sum(stable.imag > 0))
        pairs_seen += int(np.sum(stable.imag > 0))
        orders.clear()
        report = verify_h2_optimality(model, res.rom)
        assert report.full_lu == expected
        assert orders == [model.n] * expected
    assert pairs_seen > 0


def test_interpolation_check_shares_lu_across_conjugate_nodes(monkeypatch):
    model = random_stable_model(50, 2, 2, 508)
    data = random_conjugate_data(6, 2, 2, 41)
    rom, _ = hermite_reduce(model, data)
    calls = []
    real_splu = h2mor.linalg.splu
    monkeypatch.setattr(h2mor.linalg, "splu",
                        lambda M, *a, **k: calls.append(M.shape[0]) or real_splu(M, *a, **k))
    verify_tangential_interpolation(model, rom, data)
    nodes = {s if s.imag >= 0 else s.conjugate() for s in data.shifts}
    assert calls == [model.n] * len(nodes)


def test_conjugate_node_reuses_its_partners_residuals(irka_roms, monkeypatch):
    """The second node of a pair costs no solve and no dense LU of the reduced model."""
    dense_lus = []
    real_dense = h2mor.interpolation._dense_shifted_solve
    monkeypatch.setattr(h2mor.interpolation, "_dense_shifted_solve",
                        lambda rom, s: dense_lus.append(s) or real_dense(rom, s))
    pairs_seen = 0
    for _, model, res in irka_roms:
        dense_lus.clear()
        report = verify_h2_optimality(model, res.rom)
        entries, i = report.entries, 0
        while i < len(entries):
            first = entries[i]
            if first.sigma.imag:
                partner = entries[i + 1]
                assert partner.sigma == first.sigma.conjugate()
                assert (partner.rho_right, partner.rho_left, partner.rho_hermite) == \
                    (first.rho_right, first.rho_left, first.rho_hermite)
                pairs_seen += 1
            i += 2 if first.sigma.imag else 1
        groups = sum(e.sigma.imag >= 0 for e in entries)
        assert report.full_lu == len(dense_lus) == groups
    assert pairs_seen > 0


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
def test_node_on_a_reduced_pole_is_a_singular_shift(scalar_lag):
    full = random_stable_model(20, 1, 1, 512)
    data = InterpolationData.simple([-1.0], [[1.0]], [[1.0]])     # G_r = 1/(s+1)
    with pytest.raises(SingularShift):
        verify_tangential_interpolation(full, scalar_lag, data)


def test_reduced_model_above_dense_threshold_rejected():
    full = random_stable_model(20, 1, 1, 512)
    n = DENSE_THRESHOLD + 1
    big = make_model(None, sps.diags(-np.arange(1.0, n + 1.0)).tocsc(), np.ones((n, 1)),
                     np.ones((1, n)))
    with pytest.raises(OrderTooLarge):
        verify_tangential_interpolation(full, big, InterpolationData.simple([1.0], [[1.0]],
                                                                           [[1.0]]))
