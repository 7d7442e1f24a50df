"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria tied to external benchmark matrices (CDplayer, beam, gyro) run only
when the files are present (H2MOR_BENCH_DATA or manifest search path); they
skip with an explicit reason otherwise.  Everything else runs unconditionally.
"""

import itertools
import json
import time

import numpy as np
import pytest
import scipy.sparse as sps

import h2mor
from h2mor import (
    CirkaOptions,
    InterpolationBlock,
    InterpolationData,
    IrkaOptions,
    ShiftedSolver,
    cirka,
    h2_error,
    h2_norm,
    h2_norm_quadrature,
    hermite_reduce,
    irka,
    primitive_basis,
    shift_convergence,
    sylvester_residual,
    update_interpolation_data,
    verify_h2_optimality,
    verify_realization_equivalence,
    verify_tangential_interpolation,
)
from h2mor.benchmark import read_results_json, run_benchmark, write_results
from h2mor.cli import main as cli_main
from h2mor.metrics import CostReport
from h2mor.mmio import (
    benchmark_files_available,
    find_manifest,
    load_matrix_market,
    load_model,
    write_matrix_market,
)

from .helpers import (
    irka_suite_cases,
    random_conjugate_data,
    random_stable_model,
    transfer_derivatives_circle,
)

IRKA_OPTS = IrkaOptions(tol=1e-9, max_iter=250)
CIRKA_OPTS = CirkaOptions(inner=IrkaOptions(tol=1e-10, max_iter=250),
                          outer_tol=1e-8, outer_max_iter=20)


def report(criterion, ok, detail=""):
    print(f"\n[{'PASS' if ok else 'FAIL'}] acceptance {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def irka_suite():
    runs = []
    for m, p, seed in irka_suite_cases():
        model = random_stable_model(50, m, p, seed)
        init = InterpolationData.zero_init(4, m, p)
        runs.append((model, init, irka(model, init, IRKA_OPTS, ShiftedSolver(model))))
    return runs


@pytest.fixture(scope="module")
def cirka_suite():
    runs = []
    for m, p, seed in irka_suite_cases():
        model = random_stable_model(50, m, p, seed)
        init = InterpolationData.zero_init(4, m, p)
        runs.append((model, init, cirka(model, init, CIRKA_OPTS)))
    return runs


def test_criterion_1_interpolation_property_suite():
    """50 random models: Hermite conditions and Sylvester residuals < 1e-8, < 60 s."""
    t0 = time.monotonic()
    grid = [(n, m, p) for n in (20, 50, 100) for m in (1, 2, 3) for p in (1, 2, 3)]
    orders = itertools.cycle((2, 4, 6))
    worst_interp = 0.0
    worst_sylv = 0.0
    count = 0
    for idx, ((n, m, p), r) in enumerate(zip(itertools.cycle(grid), orders)):
        if count == 50:
            break
        model = random_stable_model(n, m, p, 1000 + idx)
        data = random_conjugate_data(r, m, p, 2000 + idx)
        solver = ShiftedSolver(model)
        rom, _ = hermite_reduce(model, data, solver)
        if rom.n < r:
            continue   # degenerate random draw; does not exercise the theorem
        count += 1
        worst_interp = max(worst_interp,
                           verify_tangential_interpolation(model, rom, data).max_residual)
        worst_sylv = max(worst_sylv,
                         *(sylvester_residual(model, basis, data, side) for basis, side
                           in zip(primitive_basis(model, data, solver), ("input", "output"))))
    elapsed = time.monotonic() - t0
    ok = count == 50 and worst_interp < 1e-8 and worst_sylv < 1e-8 and elapsed < 60.0
    report("criterion 1 (interpolation property suite)", ok,
           f"{count} models, worst interpolation residual {worst_interp:.2e}, "
           f"worst Sylvester residual {worst_sylv:.2e}, {elapsed:.1f} s")


def test_criterion_2_moment_matching_suite():
    """Jordan chains of length q in {2,3,4} match moments (SISO two-sided: 2q-1)."""
    worst = 0.0
    for q in (2, 3, 4):
        # SISO two-sided chain at a real shift: derivatives up to 2q-1
        model = random_stable_model(24, 1, 1, 3000 + q)
        data = InterpolationData((InterpolationBlock(0.7, [1.0], [1.0], length=q),))
        rom, _ = hermite_reduce(model, data)
        dG = transfer_derivatives_circle(model, 0.7, 2 * q - 1, radius=0.3)
        dGr = transfer_derivatives_circle(rom, 0.7, 2 * q - 1, radius=0.3)
        for k in range(2 * q):
            worst = max(worst, abs(dG[k][0, 0] - dGr[k][0, 0]) / abs(dG[k][0, 0]))

        # MIMO tangential chains (conjugate pair of complex shifts): order q-1
        model = random_stable_model(30, 2, 2, 3100 + q)
        rng = np.random.default_rng(q)
        rt = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        lt = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        block = InterpolationBlock(0.6 + 0.9j, rt, lt, length=q)
        data = InterpolationData((block, block.conjugate()))
        rom, _ = hermite_reduce(model, data)
        dG = transfer_derivatives_circle(model, 0.6 + 0.9j, q - 1, radius=0.25)
        dGr = transfer_derivatives_circle(rom, 0.6 + 0.9j, q - 1, radius=0.25)
        for k in range(q):
            worst = max(worst,
                        np.linalg.norm((dG[k] - dGr[k]) @ rt) / np.linalg.norm(dG[k] @ rt),
                        np.linalg.norm(lt @ (dG[k] - dGr[k])) / np.linalg.norm(lt @ dG[k]))
    ok = worst < 1e-5
    report("criterion 2 (moment matching)", ok, f"worst relative moment error {worst:.2e}")


def test_criterion_3_h2_norm_oracle_equivalence(scalar_lag):
    """Lyapunov-based norm matches the quadrature oracle (1e-4) on 20 models."""
    lag_err = abs(h2_norm(scalar_lag) - np.sqrt(0.5))
    worst = 0.0
    for i in range(20):
        m, p = 1 + i % 2, 1 + (i // 2) % 2
        model = random_stable_model(8 + (i % 3) * 2, m, p, 4000 + i)
        lyap = h2_norm(model)
        quad = h2_norm_quadrature(model)
        worst = max(worst, abs(lyap - quad) / lyap)
    ok = worst < 1e-4 and lag_err < 1e-10
    report("criterion 3 (H2 norm oracle equivalence)", ok,
           f"worst Lyapunov/quadrature deviation {worst:.2e}, scalar lag error {lag_err:.1e}")


def test_criterion_4_irka_fixed_point_and_optimality(irka_suite):
    """>= 70% of 20 runs converge; converged runs pass stationarity + optimality."""
    converged = 0
    checked = 0
    worst_stat = 0.0
    worst_opt = 0.0
    for model, init, res in irka_suite:
        if not res.converged or res.rom.n != init.r:
            continue
        converged += 1
        mirrored, _ = update_interpolation_data(res.rom)
        worst_stat = max(worst_stat, shift_convergence(res.optimal_data, mirrored))
        rep = verify_h2_optimality(model, res.rom)
        if not rep.skipped_unstable:
            checked += 1
            worst_opt = max(worst_opt, rep.max_residual)
    ok = (converged >= 14 and checked >= converged - 2
          and worst_stat <= IRKA_OPTS.tol and worst_opt < 1e-6)
    report("criterion 4 (IRKA fixed point & optimality)", ok,
           f"{converged}/20 converged, stationarity {worst_stat:.2e}, "
           f"optimality residual {worst_opt:.2e} over {checked} stable roms")


def test_criterion_5_cirka_optimality_transfer(cirka_suite):
    """Converged CIRKA roms satisfy the optimality conditions vs the FULL model."""
    converged = 0
    worst = 0.0
    for model, init, res in cirka_suite:
        if not res.converged or res.fallback_direct or res.rom.n != init.r:
            continue
        converged += 1
        rep = verify_h2_optimality(model, res.rom)
        worst = max(worst, rep.max_residual)
    ok = converged >= 14 and worst < 1e-6
    report("criterion 5 (CIRKA optimality transfer)", ok,
           f"{converged}/20 converged, worst residual vs full model {worst:.2e}")


def test_criterion_6_realization_equivalence(cirka_suite):
    """CIRKA rom vs direct projection at the optimal data: 25 points, 1e-6."""
    checked = 0
    worst = 0.0
    for model, init, res in cirka_suite:
        if not res.converged or res.fallback_direct or res.rom.n != init.r:
            continue
        rep = verify_realization_equivalence(model, res.optimal_data, res.rom)
        assert len(rep.points) == 25
        checked += 1
        worst = max(worst, rep.max_deviation)
    ok = checked >= 14 and worst < 1e-6
    report("criterion 6 (realization equivalence)", ok,
           f"{checked} converged runs, worst transfer deviation {worst:.2e}")


def test_irka_and_cirka_reach_the_same_optimum(irka_suite, cirka_suite):
    """Where both converge at order r without fallback, their optimal shifts agree.

    Both runs are local: a few models reach another optimum in each, so 15 of
    the pairs must agree to 1e-5 and the rest are printed.
    """
    gaps = {}
    for (_, _, seed), (_, init, ri), (_, _, rc) in zip(irka_suite_cases(), irka_suite,
                                                       cirka_suite):
        if (ri.converged and rc.converged and not rc.fallback_direct
                and ri.rom.n == rc.rom.n == init.r):
            gaps[seed] = shift_convergence(ri.optimal_data, rc.optimal_data)
    agree = [gap for gap in gaps.values() if gap <= 1e-5]
    apart = ", ".join(f"model {seed} ({gap:.3f})" for seed, gap in gaps.items() if gap > 1e-5)
    report("same optimum (IRKA vs CIRKA)", len(agree) >= 15,
           f"{len(agree)}/{len(gaps)} pairs agree within 1e-5 (worst {max(agree, default=0):.1e}); "
           f"other local optima: {apart or 'none'}")


cdplayer_available = benchmark_files_available("cdplayer")
beam_available = benchmark_files_available("beam")
gyro_available = benchmark_files_available("gyro")
DATA_SKIP = ("benchmark matrices not present in this environment (no network "
             "distribution; see README for placing files under H2MOR_BENCH_DATA)")


@pytest.mark.skipif(not cdplayer_available, reason=DATA_SKIP)
def test_criterion_7_cdplayer_table_row():
    """CDplayer r=10, zero init: both errors 5.92e-5 (2 s.f.); CIRKA fewer LUs."""
    from h2mor.errors import ModelReductionError

    t0 = time.monotonic()
    model = load_model(find_manifest("cdplayer"))
    init = InterpolationData.zero_init(10, 2, 2)
    res_i = irka(model, init, IrkaOptions())          # reference settings
    res_c = cirka(model, init, CirkaOptions())
    try:
        _, eps_i = h2_error(model, res_i.rom)
        _, eps_c = h2_error(model, res_c.rom)
    except ModelReductionError as exc:
        report("criterion 7 (CDplayer Table row r=10)", False,
               f"H2 error not computable: {exc}")
    eps_hat = res_c.error_estimate
    elapsed = time.monotonic() - t0
    two_sf = lambda x: float(f"{x:.1e}")
    ok = (two_sf(eps_i) == two_sf(5.92e-5) and two_sf(eps_c) == two_sf(5.92e-5)
          and eps_hat is not None and 0.5 <= eps_hat / eps_c <= 2.0
          and res_c.counters.full_lu < res_i.counters.full_lu
          and elapsed < 120.0)
    report("criterion 7 (CDplayer Table row r=10)", ok,
           f"eps_irka {eps_i:.3e}, eps_cirka {eps_c:.3e}, estimate {eps_hat}, "
           f"n_LU {res_c.counters.full_lu} (cirka) vs {res_i.counters.full_lu} (irka), "
           f"{elapsed:.0f} s")


@pytest.mark.skipif(not beam_available, reason=DATA_SKIP)
def test_criterion_8_beam_example():
    """Beam r=4: reference shifts (2 s.f.) or optimality residuals; LU counts."""
    model = load_model(find_manifest("beam"))
    init = InterpolationData.zero_init(4, 1, 1)
    res_i = irka(model, init, IrkaOptions())
    res_c = cirka(model, init, CirkaOptions())
    reference = np.array([0.005 + 0.104j, 0.005 - 0.104j, 0.006 + 0.569j, 0.006 - 0.569j])

    def matches_reference(data):
        got = np.sort_complex(data.shifts)
        ref = np.sort_complex(reference)
        if len(got) != len(ref):
            return False
        sf2 = lambda z: (float(f"{z.real:.1e}"), float(f"{z.imag:.1e}"))
        return all(sf2(a) == sf2(b) for a, b in zip(got, ref))

    shift_ok = res_c.converged and matches_reference(res_c.optimal_data)
    opt_ok = (res_c.converged and res_c.optimality_report is not None
              and res_c.optimality_report.passed(1e-6))
    lu_ok = res_c.counters.full_lu <= 4 and res_i.counters.full_lu >= 5
    ok = (shift_ok or opt_ok) and lu_ok
    report("criterion 8 (beam example)", ok,
           f"shifts {np.round(res_c.optimal_data.shifts, 4)}, shift match {shift_ok}, "
           f"optimality fallback {opt_ok}, n_LU cirka {res_c.counters.full_lu} "
           f"vs irka {res_i.counters.full_lu}")


def test_criterion_9_cost_accounting(irka_suite, cirka_suite):
    """full_lu <= 1 + k r with recycling; cost-comparison boolean is correct."""
    bound_ok = all(res.counters.full_lu <= 1 + res.iterations * init.r
                   for _, init, res in irka_suite)
    pair_ok = True
    for (model, init, ri), (_, _, rc) in zip(irka_suite, cirka_suite):
        rep = CostReport.from_pair(ri, rc, init.r)
        expected = sum(rc.new_columns_per_step) < 2 * init.r * ri.iterations
        pair_ok &= rep.cost_comparison == expected
        pair_ok &= rep.cirka_new_columns == sum(rc.new_columns_per_step)
    ok = bound_ok and pair_ok
    report("criterion 9 (cost accounting)", ok,
           f"LU bound holds on all 20 IRKA runs: {bound_ok}; "
           f"comparison boolean consistent on 20 pairs: {pair_ok}")


@pytest.mark.skipif(not gyro_available, reason=DATA_SKIP)
def test_criterion_10_gyro_scale():
    """Gyro ingestion + one CIRKA run completes and reports counters (no threshold)."""
    model = load_model(find_manifest("gyro"))
    init = InterpolationData.zero_init(10, model.m, model.p)
    opts = CirkaOptions(outer_max_iter=4, compute_error_estimate=True,
                        verify_optimality=False)
    res = cirka(model, init, opts)
    ok = res.counters.full_lu >= 1 and res.outer_iterations >= 1
    report("criterion 10 (gyro scale)", ok,
           f"n = {model.n}, k_CIRKA = {res.outer_iterations}, "
           f"n_LU full = {res.counters.full_lu}, surrogate = {res.counters.surrogate_lu}, "
           f"converged = {res.converged}")


def test_criterion_11_io_roundtrips_and_defaults(tmp_path, capsys):
    """Matrix Market and results-JSON round trips; CLI defaults match the paper."""
    rng = np.random.RandomState(11)
    M = sps.random(15, 15, density=0.25, random_state=rng, format="csr")
    path = tmp_path / "m.mtx"
    write_matrix_market(M, path)
    mm_ok = (load_matrix_market(path) != M).nnz == 0

    models = {"toy": random_stable_model(20, 1, 1, 5000)}
    rows = run_benchmark(models, [2], init="zero")
    jpath = tmp_path / "rows.json"
    write_results(rows, "json", jpath)
    json_ok = read_results_json(jpath) == rows

    assert cli_main(["config"]) == 0
    cfg = json.loads(capsys.readouterr().out)
    cfg_ok = (cfg["tol"] == 1e-3 and cfg["max_iter"] == 50
              and cfg["init_strategy"] == "I2" and cfg["update_strategy"] == "U2"
              and cfg["stop_criterion"] == "s0+tanDir")
    ok = mm_ok and json_ok and cfg_ok
    report("criterion 11 (I/O round trips & defaults)", ok,
           f"matrix market identity {mm_ok}, results JSON round trip {json_ok}, "
           f"default config matches reference settings {cfg_ok}")
