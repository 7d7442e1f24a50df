"""The run contract on a seeded sweep of random models.

Every IRKA and CIRKA run either raises a :class:`ModelReductionError` or
returns a reduced model of the requested order, and a run that reports
``converged=True`` returns a model whose poles all have Re < 0.  Case
``seed`` draws the model and r from ``np.random.default_rng(1000 + seed)``:
n in [8, 60), m and p in [1, 3], r in [1, min(10, n // 3)].  The init cycles
through zero, the mirrored spectrum and random conjugate data.
"""

from __future__ import annotations

import numpy as np
import pytest

from h2mor import CirkaOptions, InterpolationData, cirka, initial_data_from_spectrum, irka
from h2mor.errors import ModelReductionError
from h2mor.linalg import pencil_eigenvalues

from .helpers import random_conjugate_data, random_stable_model

SEEDS = range(40)
INITS = ("zero", "eigs", "random")


def sweep_case(seed: int):
    """The model, r and init name of case ``seed``."""
    rng = np.random.default_rng(1000 + seed)
    n = int(rng.integers(8, 60))
    m, p = (int(k) for k in rng.integers(1, 4, size=2))
    r = int(rng.integers(1, min(10, n // 3) + 1))
    return random_stable_model(n, m, p, rng), r, INITS[seed % len(INITS)]


def _reduce(algo, model, r, init, seed):
    if init == "zero":
        data = InterpolationData.zero_init(r, model.m, model.p)
    elif init == "eigs":
        data = initial_data_from_spectrum(model, r)
    else:
        data = random_conjugate_data(r, model.m, model.p, seed)
    if algo == "irka":
        return irka(model, data)
    return cirka(model, data, CirkaOptions(compute_error_estimate=False,
                                           verify_optimality=False))


@pytest.mark.parametrize("algo", ["irka", "cirka"])
@pytest.mark.parametrize("seed", SEEDS)
def test_run_returns_or_raises_typed(seed, algo):
    model, r, init = sweep_case(seed)
    try:
        res = _reduce(algo, model, r, init, seed)
    except ModelReductionError:
        return
    assert res.rom.n == r
    if res.converged:
        assert np.all(pencil_eigenvalues(res.rom).real < 0.0)
