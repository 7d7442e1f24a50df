"""H2 norms and errors, the output-error bound, Bode sampling, cost reports."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sps

from .errors import FeedthroughMismatch, NegativeInput
from .linalg import pencil_eigenvalues, relative, solve_generalized_lyapunov
from .model import DENSE_THRESHOLD, StateSpaceModel, eval_transfer, make_model


def h2_norm(model: StateSpaceModel) -> float:
    """H2 norm of the strictly proper part, via the controllability Gramian.

    Solves A P E^T + E P A^T + B B^T = 0 and returns sqrt(trace(C P C^T)).
    The model must be stable; any feedthrough D is ignored (a model with
    D != 0 has infinite H2 norm, so callers relying on error metrics must
    ensure D - D_r = 0 themselves).
    """
    return _trace_norm(model.C, solve_generalized_lyapunov(model.A, model.E, model.B))


def _trace_norm(C: np.ndarray, P: np.ndarray) -> float:
    """sqrt(trace(C P C^T)): the H2 norm read from a controllability Gramian P."""
    return float(np.sqrt(max(float(np.trace(C @ P @ C.T)), 0.0)))


def h2_norm_quadrature(model: StateSpaceModel) -> float:
    """H2 norm from the frequency-integral definition (adaptive quadrature).

    Integrates ||G(j w)||_F^2 / pi over [0, w_max] on log-spaced panels, two
    per decade from w_lo to w_hi, exploiting conjugate symmetry for the
    negative axis.  Up to ``DENSE_THRESHOLD`` the band follows the spectrum
    and so the model's time scale (w_lo = min|lambda| / 100, w_hi =
    100 max|lambda|, w_max = 1e4 w_hi); above, it is [1e-4, 1e6].  Each panel
    is integrated to a relative tolerance alone, so scaling C scales the
    result and nothing else.  Documented accuracy about 1e-4 relative;
    intended as an independent cross-check of :func:`h2_norm` and for large
    sparse models where the dense Gramian path is unavailable.  The only user
    of ``scipy.integrate``, which it imports on its first call.
    """
    import scipy.integrate  # not at module level: it loads scipy.optimize, special, spatial, fft

    mags = np.abs(pencil_eigenvalues(model)) if model.n <= DENSE_THRESHOLD else np.empty(0)
    mags = mags[mags > 0.0]         # a zero eigenvalue sets no time scale
    lo, hi = (mags.min() / 100.0, mags.max() * 100.0) if mags.size else (1e-4, 1e6)
    omega_max, panels_per_decade = (1e4 * hi if mags.size else hi), 2
    edges = [0.0] + list(np.logspace(np.log10(lo), np.log10(hi),
                                     int(panels_per_decade * np.log10(hi / lo)) + 1))
    if edges[-1] < omega_max:
        edges.append(omega_max)

    def integrand(w):
        G = eval_transfer(model, 1j * w) - model.D
        return float(np.sum(np.abs(G) ** 2))

    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        val, _ = scipy.integrate.quad(integrand, a, b, epsabs=0.0, epsrel=1e-9, limit=200)
        total += val
    return float(np.sqrt(total / np.pi))


def error_system(full: StateSpaceModel, rom: StateSpaceModel) -> StateSpaceModel:
    """Block-diagonal augmented realization of G - G_r with output [C, -C_r]."""
    if full.m != rom.m or full.p != rom.p:
        raise FeedthroughMismatch(
            f"models have incompatible I/O dimensions: {(full.p, full.m)} vs {(rom.p, rom.m)}")
    if not np.allclose(full.D, rom.D, rtol=0.0, atol=1e-14 * (1.0 + np.abs(full.D).max())):
        raise FeedthroughMismatch("feedthrough matrices differ; error system not strictly proper")
    E = sps.block_diag([full.E, rom.E], format="csc")
    A = sps.block_diag([full.A, rom.A], format="csc")
    B = np.vstack([full.B, rom.B])
    C = np.hstack([full.C, -rom.C])
    return make_model(E, A, B, C, None)


def h2_error(full: StateSpaceModel, rom: StateSpaceModel):
    """Absolute and relative H2 error ||G - G_r||_H2, ||.|| / ||G||_H2."""
    err = error_system(full, rom)
    # one solve for both norms: the error system is block diagonal with the
    # full model first, so its Gramian's leading block is the full model's own
    P = solve_generalized_lyapunov(err.A, err.E, err.B)
    absolute = _trace_norm(err.C, P)
    return absolute, relative(absolute, _trace_norm(full.C, P[:full.n, :full.n]))


def linf_output_bound(h2_error_abs: float, input_l2_norm: float) -> float:
    """Time-domain guarantee ||y - y_r||_Linf <= ||G - G_r||_H2 * ||u||_L2."""
    if h2_error_abs < 0 or input_l2_norm < 0:
        raise NegativeInput("both arguments must be nonnegative")
    return h2_error_abs * input_l2_norm


def bode_samples(model: StateSpaceModel, frequencies) -> np.ndarray:
    """Entrywise magnitudes |G(j w)| at the given positive frequencies.

    Returns an array of shape (len(frequencies), p, m), ordered as the input.
    """
    freqs = np.asarray(frequencies, dtype=float).reshape(-1)
    if np.any(freqs <= 0.0):
        raise ValueError("frequencies must be positive")
    out = np.empty((len(freqs), model.p, model.m))
    for i, w in enumerate(freqs):
        out[i] = np.abs(eval_transfer(model, 1j * w))
    return out


@dataclass(frozen=True)
class CostReport:
    """Side-by-side cost accounting of a paired IRKA / CIRKA run.

    ``cost_comparison`` is the criterion sum(n_M^{k,+}) < 2 r k_IRKA: the
    surrogate framework is cheaper whenever the full-order solves spent on
    the model function stay below the full-order solves of direct IRKA.
    """

    r: int
    irka_iterations: int
    irka_full_lu: int
    cirka_steps: int
    cirka_inner_iterations: int
    cirka_full_lu: int
    cirka_surrogate_lu: int
    cirka_new_columns: int
    cost_comparison: bool
    speedup: float | None

    @classmethod
    def from_pair(cls, irka_result, cirka_result, r: int) -> "CostReport":
        new_cols = int(sum(cirka_result.new_columns_per_step))
        t_irka = irka_result.counters.total_time
        t_cirka = cirka_result.counters.total_time
        return cls(
            r=r,
            irka_iterations=irka_result.iterations,
            irka_full_lu=irka_result.counters.full_lu,
            cirka_steps=cirka_result.outer_iterations,
            cirka_inner_iterations=cirka_result.counters.irka_steps_total,
            cirka_full_lu=cirka_result.counters.full_lu,
            cirka_surrogate_lu=cirka_result.counters.surrogate_lu,
            cirka_new_columns=new_cols,
            cost_comparison=new_cols < 2 * r * irka_result.iterations,
            speedup=(t_irka / t_cirka) if t_cirka > 0 else None,
        )
