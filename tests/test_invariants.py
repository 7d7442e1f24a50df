"""Iterate-level invariants of IRKA and CIRKA on acceptance models.

A refactor of the algorithms must leave every iterate and every
factorization unchanged.  ``tests/data/invariants.json`` records, for a few
of the order-50 acceptance models under the library defaults (U.1 with a
tight outer tolerance) and for two grid models above ``DENSE_THRESHOLD``,
the shift history of every run, its LU and iteration counters and its
convergence flag, plus the spectrum initialization for r = 2..6 of the
acceptance models.  This test recomputes them and compares shifts to 1e-10
and counts exactly.

To list the cases a change moves, one line each, without writing:

    PYTHONPATH=src python -m tests.test_invariants --diff

Regenerate the fixture only when a change is meant to alter iterates, and
say why in CHANGES.md:

    PYTHONPATH=src python -m tests.test_invariants --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from h2mor import CirkaOptions, InterpolationData, IrkaOptions, cirka, irka
from h2mor.irka import initial_data_from_spectrum

from .helpers import grid_model, random_conjugate_data, random_stable_model

FIXTURE = Path(__file__).parent / "data" / "invariants.json"
TOL = 1e-10

# SISO and MIMO acceptance models; 504 and 510 fall back to direct IRKA.
MODELS = {500: (1, 1), 504: (1, 1), 508: (2, 2), 510: (2, 2), 515: (2, 1), 518: (1, 2)}
# Grid models of order 2025 (name: convection), factorized with
# LARGE_SPLU_OPTIONS; both have m = p = 2.
GRIDS = {"heat45": False, "cd45": True}
# CIRKA (init strategy, update strategy, outer tolerance); the tight outer
# tolerance lets U.1 meet repeated triplets and extend chains.
ALGORITHMS = {
    "irka": None,
    "cirka-I2-U2": ("I2", "U2", 1e-3),
    "cirka-I2-U1": ("I2", "U1", 1e-8),
    "cirka-I2-U3": ("I2", "U3", 1e-3),
    "cirka-I1-U2": ("I1", "U2", 1e-3),
}
SEEDS = {
    "irka": tuple(MODELS) + tuple(GRIDS),
    "cirka-I2-U2": tuple(MODELS) + tuple(GRIDS),
    "cirka-I2-U1": (500,),
    "cirka-I2-U3": (500, 515, 518),
    "cirka-I1-U2": (500, 508, 518),
}
INITS = ("zero", "random")
SPECTRUM_ORDERS = range(2, 7)
COUNTERS = ("full_lu", "full_lu_norecycle", "surrogate_lu", "irka_steps_total")


def _flat(values) -> list:
    """Complex values as [re, im, ...], rounded to 13 significant digits."""
    z = np.asarray(values, dtype=complex).ravel()
    return [float(f"{x:.13g}") for x in np.column_stack([z.real, z.imag]).ravel()]


def run_case(algo: str, init: str, name: str) -> dict:
    """Counters, flag and shift history of one run.

    ``name`` is an acceptance model's seed or a key of ``GRIDS``.  IRKA
    records every iterate; CIRKA records its outer sequence, the starting
    data followed by the optimal data of each inner run (the fallback IRKA
    run included).
    """
    if name in GRIDS:
        model, data_seed = grid_model(45, GRIDS[name]), 3045
    else:
        m, p = MODELS[int(name)]
        model, data_seed = random_stable_model(50, m, p, int(name)), 3000 + int(name)
    if init == "zero":
        data0 = InterpolationData.zero_init(4, model.m, model.p)
    else:
        data0 = random_conjugate_data(4, model.m, model.p, data_seed)
    if ALGORITHMS[algo] is None:
        res = irka(model, data0, IrkaOptions())
        history = res.shift_history
    else:
        init_strategy, update_strategy, outer_tol = ALGORITHMS[algo]
        res = cirka(model, data0, CirkaOptions(init_strategy=init_strategy,
                                               update_strategy=update_strategy,
                                               outer_tol=outer_tol,
                                               compute_error_estimate=False,
                                               verify_optimality=False))
        history = [data0] + [inner.optimal_data for inner in res.inner_results]
    out = {name: getattr(res.counters, name) for name in COUNTERS}
    out["converged"] = bool(res.converged)
    out["shifts"] = [_flat(d.shifts) for d in history]
    return out


def spectrum_case(seed: int) -> dict:
    m, p = MODELS[seed]
    model = random_stable_model(50, m, p, seed)
    out = {}
    for r in SPECTRUM_ORDERS:
        data = initial_data_from_spectrum(model, r)
        out[str(r)] = {"lengths": [b.length for b in data.blocks],
                       "shifts": _flat(data.shifts),
                       "right": _flat(data.right_tangents),
                       "left": _flat(data.left_tangents)}
    return out


def compute(key: str) -> dict:
    kind, *rest = key.split("/")
    if kind == "spectrum":
        return spectrum_case(int(rest[0]))
    return run_case(kind, *rest)


KEYS = ([f"{algo}/{init}/{seed}" for algo in ALGORITHMS for init in INITS
         for seed in SEEDS[algo]]
        + [f"spectrum/{seed}" for seed in MODELS])


def _deviation(actual, expected) -> float:
    """Largest deviation relative to 1 + |expected| (inf when the sizes differ)."""
    a, e = np.asarray(actual, dtype=float), np.asarray(expected, dtype=float)
    if a.shape != e.shape:
        return np.inf
    return float(np.max(np.abs(a - e) / (1.0 + np.abs(e)), initial=0.0))


def _assert_close(actual, expected, what):
    a, e = np.asarray(actual, dtype=float), np.asarray(expected, dtype=float)
    assert a.shape == e.shape, f"{what}: {a.size} values, fixture has {e.size}"
    worst = _deviation(a, e)
    assert worst <= TOL, f"{what}: deviates by {worst:.2e} (tolerance {TOL:g})"


@pytest.fixture(scope="module")
def fixture():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("key", KEYS)
def test_iterates_match_fixture(fixture, key):
    expected = fixture[key]
    actual = compute(key)
    if key.startswith("spectrum/"):
        for r, exp in expected.items():
            got = actual[r]
            assert got["lengths"] == exp["lengths"], f"r = {r}: chain lengths"
            for name in ("shifts", "right", "left"):
                _assert_close(got[name], exp[name], f"r = {r}: {name}")
        return
    for name in COUNTERS + ("converged",):
        assert actual[name] == expected[name], \
            f"{name}: {actual[name]}, fixture has {expected[name]}"
    assert len(actual["shifts"]) == len(expected["shifts"]), "shift history length"
    for k, (got, exp) in enumerate(zip(actual["shifts"], expected["shifts"])):
        _assert_close(got, exp, f"shift history entry {k}")


def _change(key: str, old: dict, new: dict) -> str | None:
    """One line saying how case ``key`` moved from ``old`` to ``new``, or None."""
    if key.startswith("spectrum/"):
        worst = max(_deviation(new[r][name], old[r][name])
                    if new[r]["lengths"] == old[r]["lengths"] else np.inf
                    for r in old for name in ("shifts", "right", "left"))
        return f"{key}: max deviation {worst:.2e}" if worst > 0 else None
    flags = COUNTERS + ("converged",)
    final = _deviation(new["shifts"][-1], old["shifts"][-1])
    shared = max(map(_deviation, new["shifts"], old["shifts"]))    # over the shorter history
    if (shared == 0 and len(new["shifts"]) == len(old["shifts"])
            and all(new[f] == old[f] for f in flags)):
        return None

    def summary(case):
        return ", ".join(f"{f} {case[f]}" for f in flags) + f", {len(case['shifts'])} iterates"
    return (f"{key}: {summary(old)} -> {summary(new)}; final shift deviation {final:.2e}, "
            f"max over shared iterates {shared:.2e}")


def test_change_report_when_history_shortens():
    counts = dict.fromkeys(COUNTERS, 1)
    old = {**counts, "converged": False, "shifts": [[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]}
    new = {**counts, "converged": False, "shifts": [[1.0, 0.3], [2.0, 0.0]]}
    line = _change("irka/zero/0", old, new)
    assert line.endswith("final shift deviation 2.50e-01, max over shared iterates 3.00e-01")
    assert _change("irka/zero/0", old, old) is None


def update_fixture(write: bool) -> None:
    """Recompute every case, print one line per case that moved, and write if asked."""
    old = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else {}
    payload = {key: compute(key) for key in KEYS}
    for key, case in payload.items():
        line = _change(key, old[key], case) if key in old else f"{key}: new case"
        if line:
            print(line)
    if write:
        FIXTURE.parent.mkdir(parents=True, exist_ok=True)
        FIXTURE.write_text(json.dumps(payload, separators=(",", ":")) + "\n")
        print(f"wrote {len(payload)} cases to {FIXTURE}")


if __name__ == "__main__":
    if sys.argv[1:] not in (["--write"], ["--diff"]):
        sys.exit("usage: python -m tests.test_invariants --write | --diff")
    update_fixture(write=sys.argv[1] == "--write")
